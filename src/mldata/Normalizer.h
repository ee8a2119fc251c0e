//===- mldata/Normalizer.h - Eq. 3 feature scaling --------------*- C++ -*-===//
///
/// \file
/// Per-component min/max normalization to [0,1]:
///
///     C_norm = (C_j - C_min) / (C_max - C_min)                 (Eq. 3)
///
/// "This normalization eliminates the dominant effect of larger numerical
/// ranges over smaller ones when an SVM is trained." The shift/scale
/// parameters are persisted in a *scaling file* so the learning-enabled
/// compiler can renormalize "using the same parameters that were used for
/// normalization in the data collection" (section 7).
///
//===----------------------------------------------------------------------===//

#ifndef JITML_MLDATA_NORMALIZER_H
#define JITML_MLDATA_NORMALIZER_H

#include "mldata/Dataset.h"

#include <map>
#include <string>

namespace jitml {

class Scaling {
public:
  /// Fits min/max per component over \p Data.
  static Scaling fit(const std::vector<RankedInstance> &Data);

  /// Applies Eq. 3 to one raw feature vector. Components that were
  /// constant during fitting map to 0.
  std::vector<double> apply(const FeatureVector &F) const;
  /// Same as apply, into \p Out (NumFeatures wide).
  void applyInto(const FeatureVector &F, double *Out) const;

  double minOf(unsigned I) const { return Min[I]; }
  double maxOf(unsigned I) const { return Max[I]; }

  /// Scaling-file serialization (one "index min max" line per component).
  std::string toText() const;
  static bool fromText(const std::string &Text, Scaling &Out);

  bool save(const std::string &Path) const;
  static bool load(const std::string &Path, Scaling &Out);

private:
  double Min[NumFeatures] = {};
  double Max[NumFeatures] = {};
};

/// Label mapping: "the output of the machine-learned model is in the
/// [1, 2^31-1] range and has to be mapped back to the full binary pattern
/// that represents a modifier ... using a lookup table" (section 7).
class LabelMap {
public:
  /// Returns the label for \p ModifierBits, assigning the next one if new.
  int32_t labelFor(uint64_t ModifierBits);
  /// Label lookup without insertion; 0 when unknown.
  int32_t lookup(uint64_t ModifierBits) const;
  /// Inverse lookup; returns false for unknown labels.
  bool modifierFor(int32_t Label, uint64_t &BitsOut) const;

  size_t size() const { return ByLabel.size(); }

  std::string toText() const;
  static bool fromText(const std::string &Text, LabelMap &Out);

private:
  std::vector<uint64_t> ByLabel; ///< label 1 lives at index 0
  std::map<uint64_t, int32_t> ByBits;
};

/// Builds normalized instances from ranked data using \p S and \p Labels.
std::vector<NormalizedInstance>
normalizeInstances(const std::vector<RankedInstance> &Data, const Scaling &S,
                   LabelMap &Labels);

} // namespace jitml

#endif // JITML_MLDATA_NORMALIZER_H
