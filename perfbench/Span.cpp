//===- perfbench/Span.cpp - Spans, statistics and small utilities --------===//

#include "Bench.h"

#include "jitml/ModelSet.h"
#include "serve/Registry.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>

namespace fs = std::filesystem;

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = (size_t)std::ceil(P / 100.0 * (double)V.size());
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / (double)V.size());
}

void Digest::bytes(const void *Data, size_t Size) {
  const unsigned char *P = (const unsigned char *)Data;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

std::string digestDirectory(const std::string &Dir, uint64_t *TotalBytes) {
  std::vector<fs::path> Files;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file())
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  Digest D;
  uint64_t Total = 0;
  for (const fs::path &F : Files) {
    std::ifstream In(F, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    D.str(F.filename().string());
    D.str(Bytes);
    Total += Bytes.size();
  }
  if (TotalBytes)
    *TotalBytes = Total;
  return D.hex();
}

bool makeDirs(const std::string &Path) {
  std::error_code EC;
  fs::create_directories(Path, EC);
  return fs::is_directory(Path, EC);
}

void removeTree(const std::string &Path) {
  std::error_code EC;
  fs::remove_all(Path, EC);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0;
}

void setJobs(unsigned Jobs) {
  ::setenv("JITML_JOBS", std::to_string(Jobs).c_str(), 1);
}

unsigned currentJobs() { return jitml::configuredJobs(); }

uint64_t counterValue(const char *Name) {
  return jitml::MetricRegistry::global().counter(Name).value();
}

std::string modelDigest(const std::vector<jitml::ModelSet> &Sets) {
  Digest D;
  for (const jitml::ModelSet &S : Sets)
    D.str(jitml::ModelRegistry::bundleText(S));
  return D.hex();
}

PoolCounters PoolCounters::now() {
  PoolCounters C;
  C.WaitUs = jitml::MetricRegistry::global()
                 .histogram("pool.task_wait")
                 .snapshot()
                 .Sum;
  C.BusyUs = counterValue("pool.busy_us");
  C.MemoHits = counterValue("opt.memo.hits");
  C.MemoMisses = counterValue("opt.memo.misses");
  return C;
}

void setPoolMetrics(const PoolCounters &Before, double Wall, Outcome &Out) {
  PoolCounters After = PoolCounters::now();
  // pool.busy_us counts the helper threads only; the caller runs tasks too.
  unsigned Helpers = jitml::ThreadPool::shared().workerCount();
  uint64_t Hits = After.MemoHits - Before.MemoHits;
  uint64_t Misses = After.MemoMisses - Before.MemoMisses;
  Out.set("support.pool_wait_s", (double)(After.WaitUs - Before.WaitUs) / 1e6,
          "s");
  Out.set("support.pool_busy_share",
          Helpers ? (double)(After.BusyUs - Before.BusyUs) / 1e6 /
                        ((double)Helpers * Wall)
                  : 0.0,
          "ratio");
  Out.set("opt.memo_hit_ratio",
          Hits + Misses ? (double)Hits / (double)(Hits + Misses) : 0.0,
          "ratio");
}

void printMetric(const std::string &Name, double Value, const char *Unit,
                 const std::string &Note) {
  std::printf("  %-34s %14.6g %-10s%s%s\n", Name.c_str(), Value, Unit,
              Note.empty() ? "" : " ", Note.c_str());
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local int64_t CurrentSpan = -1;
} // namespace

Tracer::Scope::Scope(Tracer &T, const char *Stage, uint32_t RunId) : T(T) {
  if (!T.Enabled)
    return;
  S.Stage = Stage;
  S.RunId = RunId;
  S.Parent = CurrentSpan;
  {
    std::lock_guard<std::mutex> Lock(T.Mu);
    S.Id = T.NextId++;
  }
  SavedParent = CurrentSpan;
  CurrentSpan = S.Id;
  S.Start = nowSeconds();
}

Tracer::Scope::~Scope() {
  if (!T.Enabled)
    return;
  S.End = nowSeconds();
  CurrentSpan = SavedParent;
  std::lock_guard<std::mutex> Lock(T.Mu);
  T.Spans.push_back(S);
}

int64_t Tracer::add(Span S) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mu);
  S.Id = NextId++;
  if (S.Parent < 0 && !S.Replay)
    S.Parent = CurrentSpan;
  Spans.push_back(S);
  return S.Id;
}

double Tracer::total(const std::string &Stage) const {
  std::lock_guard<std::mutex> Lock(Mu);
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (Stage == S.Stage)
      Sum += S.dur();
  return Sum;
}

double Tracer::topLevelTotal() const {
  std::lock_guard<std::mutex> Lock(Mu);
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (S.Parent < 0 && !S.Replay)
      Sum += S.dur();
  return Sum;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Origin = Spans.empty() ? 0.0 : Spans.front().Start;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.Start);
  // Field names follow the library's JITML_TRACE output, so
  // scripts/trace_summarize.py reads this file too.
  for (const Span &S : Spans) {
    std::fprintf(F,
                 "{\"stage\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f,"
                 "\"id\":%lld,\"parent\":%lld,\"run\":%u",
                 S.Stage, (S.Start - Origin) * 1e6, S.dur() * 1e6,
                 (long long)S.Id, (long long)S.Parent, S.RunId);
    if (S.Items >= 0)
      std::fprintf(F, ",\"items\":%lld", (long long)S.Items);
    if (S.Replay)
      std::fprintf(F, ",\"detail\":\"replay\"");
    std::fprintf(F, ",\"ok\":%s}\n", S.Ok ? "true" : "false");
  }
  return std::fclose(F) == 0;
}

} // namespace perfbench
