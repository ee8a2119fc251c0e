//===- serve/Batcher.cpp --------------------------------------------------===//

#include "serve/Batcher.h"

#include "support/FaultInjection.h"

#include <chrono>
#include <unordered_map>

using namespace jitml;

MicroBatcher::MicroBatcher(
    ModelRegistry &Registry, PredictionCache &Cache,
    const std::atomic<uint64_t> &Outstanding, int DeadlineUs, int LingerUs,
    size_t MaxBatch,
    std::function<void(std::vector<PredictResult> &&)> Flush)
    : Registry(Registry), Cache(Cache), Outstanding(Outstanding),
      DeadlineUs(DeadlineUs),
      LingerUs(LingerUs < DeadlineUs ? LingerUs : DeadlineUs),
      MaxBatch(MaxBatch ? MaxBatch : 1), Flush(std::move(Flush)) {
  MetricRegistry &R = MetricRegistry::global();
  BatchesCtr = &R.counter("serve.batches");
  EntriesCtr = &R.counter("serve.batch_entries");
  PredictionsCtr = &R.counter("serve.predictions");
  CoalescedCtr = &R.counter("serve.coalesced");
  BatchUs = &R.histogram("serve.batch");
  BatchFill = &R.histogram("serve.batch_fill");
}

MicroBatcher::~MicroBatcher() { stop(); }

void MicroBatcher::start() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Started)
    return;
  Started = true;
  Stopping = false;
  Worker = std::thread([this] { run(); });
}

void MicroBatcher::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Started)
      return;
    Stopping = true;
  }
  Cv.notify_all();
  Worker.join();
  std::lock_guard<std::mutex> Lock(Mu);
  Started = false;
}

void MicroBatcher::push(std::vector<PredictRequest> &Rs) {
  if (Rs.empty())
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (PredictRequest &R : Rs)
      Queue.push_back(std::move(R));
  }
  Rs.clear();
  Cv.notify_one();
}

void MicroBatcher::run() {
  using Clock = std::chrono::steady_clock;
  std::vector<PredictRequest> Batch;
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    Cv.wait(Lock, [&] { return !Queue.empty() || Stopping; });
    if (Queue.empty() && Stopping)
      break; // drained: every pushed entry has been flushed
    Clock::time_point Deadline =
        Clock::now() + std::chrono::microseconds(DeadlineUs);
    Batch.clear();
    auto Take = [&] {
      while (!Queue.empty() && Batch.size() < MaxBatch) {
        Batch.push_back(std::move(Queue.front()));
        Queue.pop_front();
      }
    };
    Take();
    // Collect per the closing policy in the header. Outstanding >=
    // Batch.size() always: batch entries stay unanswered until we flush
    // them. Admissions are staggered by socket reads, so once the batch
    // covers everything admitted we still linger briefly for stragglers,
    // extending whenever the batch grows; the deadline caps the total wait.
    while (!Stopping && Batch.size() < MaxBatch) {
      Clock::time_point Now = Clock::now();
      if (Now >= Deadline) {
        Take();
        break;
      }
      if (Batch.size() < Outstanding.load(std::memory_order_relaxed)) {
        Cv.wait_until(Lock, Deadline);
        Take();
        continue;
      }
      if (LingerUs <= 0)
        break;
      Clock::time_point LingerEnd =
          Now + std::chrono::microseconds(LingerUs);
      if (LingerEnd > Deadline)
        LingerEnd = Deadline;
      size_t Prev = Batch.size();
      Cv.wait_until(Lock, LingerEnd);
      Take();
      if (Batch.size() == Prev && Clock::now() >= LingerEnd)
        break; // quiesced for a full linger: close
    }
    Lock.unlock();
    processBatch(Batch);
    Lock.lock();
  }
}

void MicroBatcher::processBatch(std::vector<PredictRequest> &Batch) {
  if (Batch.empty())
    return;
  uint64_t StartUs = telemetryNowUs();
  std::shared_ptr<const ServeModel> Model = Registry.snapshot();
  uint64_t Version = Model ? Model->Version : 0;
  std::vector<PredictResult> Results(Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I) {
    Results[I].ConnId = Batch[I].ConnId;
    Results[I].Tag = Batch[I].Tag;
  }

  uint64_t SlowMs = 1;
  if (JITML_FAULT_POINT_ARG("serve.backend.slow", SlowMs))
    faultDelayMs(SlowMs); // a slow model must delay, never corrupt

  // Coalesce identical in-flight entries: concurrent clients compiling
  // the same hot method ask the same (level, features) question, and one
  // dense row answers all of them. Keyed like the cache, on (level,
  // feature hash). Rep[I] is the batch index whose computed answer entry
  // I receives; representatives have Rep[I] == I.
  std::vector<size_t> Rep(Batch.size());
  size_t Uniques = 0;
  {
    std::unordered_map<uint64_t, size_t> FirstOf;
    FirstOf.reserve(Batch.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      uint64_t Key = Batch[I].FeatureHash * 31 + (unsigned)Batch[I].Level;
      auto It = FirstOf.emplace(Key, I);
      Rep[I] = It.first->second;
      Uniques += It.second;
    }
  }
  if (Batch.size() > Uniques)
    CoalescedCtr->add(Batch.size() - Uniques);

  // Group representatives by level so each level runs one batch through
  // the prediction chain.
  std::vector<size_t> Idx;
  std::vector<const FeatureVector *> Rows;
  std::vector<std::optional<uint64_t>> Answers;
  for (unsigned L = 0; L < NumOptLevels && Model; ++L) {
    Idx.clear();
    Rows.clear();
    for (size_t I = 0; I < Batch.size(); ++I)
      if (Rep[I] == I && (unsigned)Batch[I].Level == L) {
        Idx.push_back(I);
        Rows.push_back(&Batch[I].Features);
      }
    if (Idx.empty())
      continue;
    Answers.resize(Idx.size());
    predictModifiers(Model->Set.Levels[L], Rows.data(), Rows.size(),
                     Answers.data());
    for (size_t I = 0; I < Idx.size(); ++I)
      Results[Idx[I]].Answer = Answers[I];
  }

  for (size_t I = 0; I < Batch.size(); ++I) {
    if (Rep[I] != I) // coalesced: take the representative's answer
      Results[I].Answer = Results[Rep[I]].Answer;
    else
      Cache.insert(Version, Batch[I].Level, Batch[I].FeatureHash,
                    Results[I].Answer);
  }

  BatchesCtr->add();
  EntriesCtr->add(Batch.size());
  PredictionsCtr->add(Uniques); // dense rows actually computed
  BatchFill->record(Batch.size());
  uint64_t DurUs = telemetryNowUs() - StartUs;
  BatchUs->record(DurUs);
  if (TraceEmitter::global().enabled()) {
    TraceEvent E;
    E.Stage = "serve.batch";
    E.StartUs = StartUs;
    E.DurUs = DurUs;
    E.Items = (int64_t)Batch.size();
    TraceEmitter::global().record(E);
  }
  Flush(std::move(Results));
}
