//===- perfbench/Bench.h - Shared pieces of the repository benchmark -----===//
///
/// \file
/// The benchmark drives three workloads (figures, collect_train,
/// serve_fleet) through the repository's public library calls. A timed run
/// repeats a workload's fixed work for the measurement budget and reports
/// end-to-end metrics; a traced run records spans around each layer call
/// from this directory's own code and reports per-layer metrics. Nothing
/// here adds timers to the libraries under src/.
///
/// A workload returns named metrics plus the attempted/failed operation
/// counts of its correctness oracle. Main.cpp turns them into the result
/// line.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_PERFBENCH_BENCH_H
#define JITML_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace jitml {
struct ModelSet;
} // namespace jitml

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Private directory of this run (cache dirs, sockets, bundles); removed
  /// on exit.
  std::string RunDir;
  /// Directory that keeps trace JSONL files after the run.
  std::string TraceDir;
  unsigned Nproc = 1;
  /// JITML_JOBS pool size the run uses (threads, caller included).
  unsigned PoolJobs = 1;
};

/// One reported metric.
struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// What a workload hands back to Main.cpp.
struct Outcome {
  std::map<std::string, Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Determinism digest of everything the workload produced.
  std::string Digest;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Counts one checked operation; a false \p Ok is a failure.
  void check(bool Ok) { tally(1, Ok ? 0 : 1); }
  /// Counts \p N checked operations of which \p Bad failed.
  void tally(uint64_t N, uint64_t Bad) {
    Attempted += N;
    Failed += Bad;
  }
};

Outcome runFigures(const Options &O);
Outcome runCollectTrain(const Options &O);
Outcome runServeFleet(const Options &O);

//===----------------------------------------------------------------------===//
// Clocks, statistics, digests
//===----------------------------------------------------------------------===//

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V);
/// Nearest-rank percentile (P in [0,100]) of an unsorted sample.
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// FNV-1a over everything fed to it; prints as 16 hex digits.
class Digest {
public:
  void bytes(const void *Data, size_t Size);
  void str(const std::string &S) { bytes(S.data(), S.size()); }
  template <typename T> void pod(const T &V) { bytes(&V, sizeof(V)); }
  std::string hex() const;

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

/// Digest of every regular file in \p Dir, in name order (archives).
std::string digestDirectory(const std::string &Dir, uint64_t *TotalBytes);

/// Creates \p Path (and parents); false on failure.
bool makeDirs(const std::string &Path);
/// Removes \p Path recursively; missing paths are fine.
void removeTree(const std::string &Path);

/// Peak resident set of this process in MiB.
double peakRssMb();

void setJobs(unsigned Jobs);
unsigned currentJobs();

/// Runs \p Body with JITML_JOBS forced to \p Jobs, restoring the previous
/// value afterwards (the pool reads the variable at every parallelFor).
template <typename Fn> void withJobs(unsigned Jobs, Fn &&Body) {
  unsigned Saved = currentJobs();
  setJobs(Jobs);
  Body();
  setJobs(Saved);
}

/// Current value of a MetricRegistry counter.
uint64_t counterValue(const char *Name);

/// Digest of the model bundles (ModelRegistry::bundleText) of \p Sets.
std::string modelDigest(const std::vector<jitml::ModelSet> &Sets);

/// The library counters a traced run reads around its pass on the pool.
struct PoolCounters {
  uint64_t WaitUs = 0; ///< pool.task_wait histogram sum
  uint64_t BusyUs = 0; ///< pool.busy_us
  uint64_t MemoHits = 0, MemoMisses = 0;
  static PoolCounters now();
};

/// Sets support.pool_wait_s, support.pool_busy_share and
/// opt.memo_hit_ratio from the counters' change since \p Before over a
/// pass of \p Wall seconds.
void setPoolMetrics(const PoolCounters &Before, double Wall, Outcome &Out);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One span of the traced run: a layer call timed from the benchmark.
struct Span {
  const char *Stage = "";
  double Start = 0.0; ///< seconds, steady clock
  double End = 0.0;
  int64_t Id = 0;
  int64_t Parent = -1;
  uint32_t RunId = 0; ///< which pass or cell the span belongs to
  int64_t Items = -1;
  bool Ok = true;
  /// Spans re-run after the pass (compile replay) are not part of the
  /// pass's wall time; their durations estimate work done inside a
  /// parent span that could not be timed directly.
  bool Replay = false;
  double dur() const { return End - Start; }
};

/// In-memory span store. Thread-safe; spans are written as JSONL once the
/// run ends. Disabled recorders keep nothing and cost one branch.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// RAII span; nests under the innermost open span of the same thread.
  class Scope {
  public:
    Scope(Tracer &T, const char *Stage, uint32_t RunId = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    void items(int64_t N) { S.Items = N; }
    void ok(bool V) { S.Ok = V; }
    int64_t id() const { return S.Id; }

  private:
    Tracer &T;
    Span S;
    int64_t SavedParent = -1;
  };

  /// Records an already measured span (replay, per-request latencies).
  int64_t add(Span S);

  /// Sum of the durations of the spans of \p Stage.
  double total(const std::string &Stage) const;

  /// Sum of durations of spans without a parent that were measured live
  /// (not replayed) — the attributed part of a pass's wall time.
  double topLevelTotal() const;

  bool writeJsonl(const std::string &Path) const;

private:
  bool Enabled;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  int64_t NextId = 0;
};

/// Prints one human-readable metric line ("name value unit [note]").
void printMetric(const std::string &Name, double Value, const char *Unit,
                 const std::string &Note = "");

} // namespace perfbench

#endif // JITML_PERFBENCH_BENCH_H
