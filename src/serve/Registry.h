//===- serve/Registry.h - Versioned hot-reload model registry ---*- C++ -*-===//
///
/// \file
/// The daemon's model store. The paper swaps models by restarting the
/// model process ("enabling the machine-learned model to be replaced
/// without any change to the rest of the infrastructure"); a multi-client
/// daemon cannot restart without stalling every connected VM, so the
/// registry supports atomic hot-reload instead:
///
///  * every installed ModelSet gets a monotonically increasing version
///    (the epoch);
///  * snapshot() hands out a shared_ptr to an immutable version — requests
///    in flight when a reload lands simply finish on the version they
///    started with;
///  * reloadFromFile is all-or-nothing: a torn or malformed bundle leaves
///    the current version serving and counts serve.reload_failed.
///
/// The bundle file format is line-oriented with @-markers so a truncated
/// write (the classic torn-file failure) is always detected — a bundle
/// without its trailing "@end" never installs:
///
///   jitml-serve-bundle v1
///   @level <n>
///   @scaling  ... Scaling::toText lines ...
///   @labels   ... LabelMap::toText lines ...
///   @model    ... LinearModel::toText lines ...
///   (more @level sections)
///   @end
///
//===----------------------------------------------------------------------===//

#ifndef JITML_SERVE_REGISTRY_H
#define JITML_SERVE_REGISTRY_H

#include "features/FeatureVector.h"
#include "jitml/ModelSet.h"

#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace jitml {

/// One immutable installed model version.
struct ServeModel {
  uint64_t Version = 0;
  ModelSet Set;

  /// Scalar prediction through the one scale→predict→label-lookup chain
  /// (jitml::predictModifiers) that the in-process LearnedStrategyProvider
  /// and the daemon's batcher use too; nullopt for levels without a valid
  /// model (or an unknown label).
  std::optional<uint64_t> predict(OptLevel Level,
                                  const FeatureVector &Features) const;
};

class ModelRegistry {
public:
  ModelRegistry();

  /// Installs \p Set as the new current version; returns the version it
  /// received. Never fails: the set's validity per level is whatever the
  /// caller built.
  uint64_t install(ModelSet Set);

  /// Parses a bundle file and installs it as a new version. On ANY
  /// failure — unreadable file, bad header, torn section, missing @end,
  /// or the forced "serve.reload.torn" fault — returns false and keeps
  /// the current version serving.
  bool reloadFromFile(const std::string &BundlePath);

  /// The current version; requests hold the returned pointer for their
  /// whole lifetime, so a concurrent reload never tears an answer.
  /// nullptr until the first install.
  std::shared_ptr<const ServeModel> snapshot() const;

  /// Current version number; 0 until the first install.
  uint64_t version() const;

  uint64_t reloads() const;       ///< successful installs
  uint64_t reloadFailures() const;

  /// Serializes \p Set as a bundle (see the file comment) — the writing
  /// half of reloadFromFile, used by deploy tooling and tests.
  static std::string bundleText(const ModelSet &Set);
  /// Parses bundle text; false (with \p Error set when non-null) on any
  /// malformation.
  static bool parseBundle(const std::string &Text, ModelSet &Out,
                          std::string *Error = nullptr);

private:
  mutable std::mutex Mu;
  std::shared_ptr<const ServeModel> Current;
  uint64_t NextVersion = 1;
  uint64_t ReloadCount = 0;
  uint64_t ReloadFailed = 0;
};

} // namespace jitml

#endif // JITML_SERVE_REGISTRY_H
