//===- bridge/PredictionCache.cpp -----------------------------------------===//

#include "bridge/PredictionCache.h"

using namespace jitml;

PredictionCache::PredictionCache(size_t Capacity,
                                 const std::string &MetricPrefix)
    : Capacity(Capacity) {
  MetricRegistry &R = MetricRegistry::global();
  HitsCtr = &R.counter(MetricPrefix + ".cache_hits");
  MissesCtr = &R.counter(MetricPrefix + ".cache_misses");
  EvictionsCtr = &R.counter(MetricPrefix + ".cache_evictions");
}

bool PredictionCache::lookup(uint64_t Version, OptLevel Level,
                             uint64_t FeatureHash,
                             std::optional<uint64_t> &Answer) {
  if (Capacity == 0)
    return false;
  Key K{Version, (uint8_t)Level, FeatureHash};
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(K);
  if (It == Index.end()) {
    ++Count.Misses;
    MissesCtr->add();
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second); // touch: move to MRU position
  Answer = It->second->Answer;
  ++Count.Hits;
  HitsCtr->add();
  return true;
}

void PredictionCache::insert(uint64_t Version, OptLevel Level,
                             uint64_t FeatureHash,
                             std::optional<uint64_t> Answer) {
  if (Capacity == 0)
    return;
  Key K{Version, (uint8_t)Level, FeatureHash};
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(K);
  if (It != Index.end()) {
    // Same (version, level, hash) → same answer; just refresh recency.
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  if (Lru.size() >= Capacity) {
    Index.erase(Lru.back().K);
    Lru.pop_back();
    ++Count.Evictions;
    EvictionsCtr->add();
  }
  Lru.push_front(Entry{K, Answer});
  Index.emplace(K, Lru.begin());
}

PredictionCache::Stats PredictionCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S = Count;
  S.Entries = Lru.size();
  return S;
}
