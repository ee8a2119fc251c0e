//===- jitml/LearnedStrategy.cpp ------------------------------------------===//

#include "jitml/LearnedStrategy.h"

using namespace jitml;

std::optional<uint64_t>
LearnedStrategyProvider::predict(OptLevel Level,
                                 const FeatureVector &Features) {
  if (Models.hasModelFor(Level))
    ++Predictions;
  return Models.predict(Level, Features);
}

PlanModifier
LearnedStrategyProvider::modifierFor(OptLevel Level,
                                     const FeatureVector &Features) {
  std::optional<uint64_t> Bits = predict(Level, Features);
  return Bits ? PlanModifier::fromRaw(*Bits) : PlanModifier();
}

std::optional<uint64_t> LearnedStrategyProvider::predictModifier(
    OptLevel Level, const std::vector<double> &RawFeatures) {
  if (RawFeatures.size() != NumFeatures)
    return std::nullopt;
  FeatureVector F;
  for (unsigned I = 0; I < NumFeatures; ++I)
    F.set(I, (uint32_t)RawFeatures[I]);
  return predict(Level, F);
}

VirtualMachine::ModifierHook
jitml::makeLearnedHook(LearnedStrategyProvider &P) {
  return [&P](uint32_t MethodIndex, OptLevel Level,
              const FeatureVector &Features) {
    (void)MethodIndex; // prediction is purely feature-driven (section 7)
    return P.modifierFor(Level, Features);
  };
}

VirtualMachine::ModifierHook
jitml::makeResilientHook(ResilientModelClient &Client) {
  return [&Client](uint32_t MethodIndex, OptLevel Level,
                   const FeatureVector &Features) {
    (void)MethodIndex;
    std::optional<uint64_t> Bits = Client.requestModifier(Level, Features);
    return Bits ? PlanModifier::fromRaw(*Bits) : PlanModifier();
  };
}
