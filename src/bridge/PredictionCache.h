//===- bridge/PredictionCache.h - LRU prediction cache ---------*- C++ -*-===//
///
/// \file
/// The one prediction cache of the compiler↔model bridge, used on both
/// ends of the wire:
///
///  * the serving daemon keeps one process-wide instance, so a modifier
///    predicted for one VM's method shape is immediately reusable by
///    every other VM compiling the same shape (method shapes repeat
///    heavily across identical workload instances);
///  * each ResilientModelClient keeps one (at version 0), so repeated
///    compilations of equal feature vectors skip the round trip.
///
/// Keyed by (model version, level, feature hash): a hot-reloaded model
/// bumps the registry epoch, so stale predictions are never served — no
/// explicit invalidation sweep, the old version's entries simply stop
/// being looked up and age out of the LRU tail.
///
/// Negative answers ("no model for this level" under version V) are cached
/// too; they are as expensive to recompute as positives and equally
/// version-scoped.
///
/// Thread safety: one mutex around a classic list+map LRU. The daemon hits
/// it from the event loop and the batcher; contention is two threads, not
/// a pool, so striping would buy nothing.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BRIDGE_PREDICTIONCACHE_H
#define JITML_BRIDGE_PREDICTIONCACHE_H

#include "opt/Plan.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace jitml {

class PredictionCache {
public:
  /// \p Capacity in entries; 0 disables the cache (lookups miss, inserts
  /// are dropped). Hits, misses and evictions are counted as
  /// <MetricPrefix>.cache_hits / .cache_misses / .cache_evictions.
  PredictionCache(size_t Capacity, const std::string &MetricPrefix);

  /// True on hit; \p Answer receives the cached prediction (nullopt = the
  /// model of \p Version had no answer for this level).
  bool lookup(uint64_t Version, OptLevel Level, uint64_t FeatureHash,
              std::optional<uint64_t> &Answer);

  /// Inserts (or refreshes) one prediction, evicting the LRU tail at
  /// capacity.
  void insert(uint64_t Version, OptLevel Level, uint64_t FeatureHash,
              std::optional<uint64_t> Answer);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0; ///< current size
  };
  Stats stats() const;

  size_t capacity() const { return Capacity; }

private:
  struct Key {
    uint64_t Version;
    uint8_t Level;
    uint64_t FeatureHash;
    bool operator==(const Key &O) const {
      return Version == O.Version && Level == O.Level &&
             FeatureHash == O.FeatureHash;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      // splitmix-style stir of the three components; FeatureHash is
      // already well-mixed, Version/Level are small integers.
      uint64_t H = K.FeatureHash;
      H ^= (K.Version + 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
      H ^= ((uint64_t)K.Level + 1) * 0x94d049bb133111ebULL;
      return (size_t)(H ^ (H >> 31));
    }
  };
  struct Entry {
    Key K;
    std::optional<uint64_t> Answer;
  };

  const size_t Capacity;
  mutable std::mutex Mu;
  std::list<Entry> Lru; ///< front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> Index;
  Stats Count;
  TelemetryCounter *HitsCtr, *MissesCtr, *EvictionsCtr;
};

} // namespace jitml

#endif // JITML_BRIDGE_PREDICTIONCACHE_H
