//===- mldata/Normalizer.cpp ----------------------------------------------===//

#include "mldata/Normalizer.h"

#include <bitset>
#include <cstdio>
#include <sstream>

using namespace jitml;

Scaling Scaling::fit(const std::vector<RankedInstance> &Data) {
  Scaling S;
  if (Data.empty())
    return S;
  for (unsigned I = 0; I < NumFeatures; ++I) {
    S.Min[I] = (double)Data.front().Features.get(I);
    S.Max[I] = S.Min[I];
  }
  for (const RankedInstance &R : Data)
    for (unsigned I = 0; I < NumFeatures; ++I) {
      double V = (double)R.Features.get(I);
      if (V < S.Min[I])
        S.Min[I] = V;
      if (V > S.Max[I])
        S.Max[I] = V;
    }
  return S;
}

std::vector<double> Scaling::apply(const FeatureVector &F) const {
  std::vector<double> Out(NumFeatures);
  applyInto(F, Out.data());
  return Out;
}

void Scaling::applyInto(const FeatureVector &F, double *Out) const {
  for (unsigned I = 0; I < NumFeatures; ++I) {
    double Delta = Max[I] - Min[I];
    if (Delta <= 0.0) {
      Out[I] = 0.0; // invariant feature: contributes nothing
      continue;
    }
    double V = ((double)F.get(I) - Min[I]) / Delta;
    // Unseen values outside the training range are clamped.
    Out[I] = V < 0.0 ? 0.0 : (V > 1.0 ? 1.0 : V);
  }
}

std::string Scaling::toText() const {
  std::string Out = "# jitml scaling file: index min max\n";
  char Buf[96];
  for (unsigned I = 0; I < NumFeatures; ++I) {
    std::snprintf(Buf, sizeof(Buf), "%u %.17g %.17g\n", I, Min[I], Max[I]);
    Out += Buf;
  }
  return Out;
}

bool Scaling::fromText(const std::string &Text, Scaling &Out) {
  Out = Scaling();
  std::istringstream In(Text);
  std::string Line;
  // Track which indices appeared: a plain line counter would let a file
  // with a duplicated index and a missing one slip through.
  std::bitset<NumFeatures> Seen;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    unsigned Index;
    double Lo, Hi;
    if (std::sscanf(Line.c_str(), "%u %lg %lg", &Index, &Lo, &Hi) != 3 ||
        Index >= NumFeatures)
      return false;
    if (Seen[Index])
      return false; // duplicate index line: the file is corrupt
    Seen[Index] = true;
    Out.Min[Index] = Lo;
    Out.Max[Index] = Hi;
  }
  return Seen.all();
}

bool Scaling::save(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Text = toText();
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
  return Written == Text.size();
}

bool Scaling::load(const std::string &Path, Scaling &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  return fromText(Text, Out);
}

int32_t LabelMap::labelFor(uint64_t ModifierBits) {
  auto It = ByBits.find(ModifierBits);
  if (It != ByBits.end())
    return It->second;
  ByLabel.push_back(ModifierBits);
  int32_t Label = (int32_t)ByLabel.size(); // labels start at 1
  ByBits.emplace(ModifierBits, Label);
  return Label;
}

int32_t LabelMap::lookup(uint64_t ModifierBits) const {
  auto It = ByBits.find(ModifierBits);
  return It == ByBits.end() ? 0 : It->second;
}

bool LabelMap::modifierFor(int32_t Label, uint64_t &BitsOut) const {
  if (Label < 1 || (size_t)Label > ByLabel.size())
    return false;
  BitsOut = ByLabel[(size_t)Label - 1];
  return true;
}

std::string LabelMap::toText() const {
  std::string Out = "# jitml label map: label modifierBits\n";
  char Buf[64];
  for (size_t I = 0; I < ByLabel.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%zu %llu\n", I + 1,
                  (unsigned long long)ByLabel[I]);
    Out += Buf;
  }
  return Out;
}

bool LabelMap::fromText(const std::string &Text, LabelMap &Out) {
  Out = LabelMap();
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    unsigned long long Label, Bits;
    if (std::sscanf(Line.c_str(), "%llu %llu", &Label, &Bits) != 2)
      return false;
    if (Label != Out.ByLabel.size() + 1)
      return false; // labels must be dense and in order
    Out.ByLabel.push_back(Bits);
    Out.ByBits.emplace(Bits, (int32_t)Label);
  }
  return true;
}

std::vector<NormalizedInstance>
jitml::normalizeInstances(const std::vector<RankedInstance> &Data,
                          const Scaling &S, LabelMap &Labels) {
  std::vector<NormalizedInstance> Out;
  Out.reserve(Data.size());
  for (const RankedInstance &R : Data) {
    NormalizedInstance N;
    N.Label = Labels.labelFor(R.ModifierBits);
    N.Components = S.apply(R.Features);
    Out.push_back(std::move(N));
  }
  return Out;
}
