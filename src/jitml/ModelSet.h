//===- jitml/ModelSet.h - Per-level learned model bundles -------*- C++ -*-===//
///
/// \file
/// One trained model per optimization level, with its scaling file and
/// label lookup table. "Separate models are trained for three optimization
/// levels (cold, warm, hot) ... a learned model was not generated for
/// scorching. When Testarossa selects scorching, the original compilation
/// plan is used." (section 8.1). veryHot likewise falls back to the
/// original plan in this reproduction.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_JITML_MODELSET_H
#define JITML_JITML_MODELSET_H

#include "mldata/Normalizer.h"
#include "opt/Plan.h"
#include "svm/LinearModel.h"

#include <algorithm>
#include <optional>
#include <string>

namespace jitml {

/// The learned artifacts for one optimization level.
struct LevelModel {
  bool Valid = false;
  Scaling Scale;   ///< Eq. 3 parameters saved at training time
  LabelMap Labels; ///< label <-> 58-bit modifier lookup table
  LinearModel Model;
};

/// The prediction chain (section 7): renormalize with the training-time
/// scaling parameters, score every row with LinearModel::predictBatch, and
/// map each label back to its 58-bit modifier. Out[I] answers *Rows[I];
/// it is nullopt when the level has no valid model or the label is
/// unknown. A scalar prediction is a batch of one: predictBatch loops over
/// predictRaw, so both give the same bits. Rows are scaled in fixed-size
/// blocks on the stack, so a prediction allocates nothing.
inline void predictModifiers(const LevelModel &LM,
                             const FeatureVector *const *Rows, size_t N,
                             std::optional<uint64_t> *Out) {
  if (!LM.Valid) {
    std::fill(Out, Out + N, std::nullopt);
    return;
  }
  constexpr size_t Block = 8;
  double X[Block * NumFeatures] = {};
  int32_t Labels[Block] = {};
  for (size_t Base = 0; Base < N; Base += Block) {
    size_t Count = std::min(Block, N - Base);
    for (size_t I = 0; I < Count; ++I)
      LM.Scale.applyInto(*Rows[Base + I], X + I * NumFeatures);
    LM.Model.predictBatch(X, Count, NumFeatures, Labels);
    for (size_t I = 0; I < Count; ++I) {
      uint64_t Bits = 0;
      Out[Base + I] = LM.Labels.modifierFor(Labels[I], Bits)
                          ? std::optional<uint64_t>(Bits)
                          : std::nullopt;
    }
  }
}

/// A complete model set (what one leave-one-out fold trains).
struct ModelSet {
  std::string Name;            ///< e.g. "H3"
  std::string LeftOutBenchmark; ///< code of the excluded benchmark
  LevelModel Levels[NumOptLevels];

  bool hasModelFor(OptLevel L) const {
    return Levels[(unsigned)L].Valid;
  }

  /// predictModifiers for one feature vector at level \p L.
  std::optional<uint64_t> predict(OptLevel L,
                                  const FeatureVector &Features) const {
    const FeatureVector *Row = &Features;
    std::optional<uint64_t> Bits;
    predictModifiers(Levels[(unsigned)L], &Row, 1, &Bits);
    return Bits;
  }
};

/// The levels the paper trains models for.
inline bool isLearnedLevel(OptLevel L) {
  return L == OptLevel::Cold || L == OptLevel::Warm || L == OptLevel::Hot;
}

} // namespace jitml

#endif // JITML_JITML_MODELSET_H
