//===- perfbench/Main.cpp - Repository benchmark entry point --------------===//
///
/// \file
/// perfbench --workload <figures|collect_train|serve_fleet> --seed <n>
///           --seconds <s> --trace <0|1> [--git-rev <rev>]
///
/// Prints progress and every metric by name and unit, then a context line
/// ("@@context {...}") and a result line ("@@result {...}") that run.py
/// turns into the benchmark's final JSON line. Refuses to time anything
/// while fault injection, library tracing or the metrics dump is enabled.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sched.h>
#include <string>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <figures|collect_train|"
               "serve_fleet> --seed <n> --seconds <s> --trace <0|1> "
               "[--git-rev <rev>]\n");
  return 2;
}

unsigned onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if ((unsigned char)C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

/// Every JITML_* variable of the environment as JSON members.
std::string jitmlEnvJson() {
  std::string Out;
  for (char **E = environ; *E; ++E) {
    if (std::strncmp(*E, "JITML_", 6) != 0)
      continue;
    const char *Eq = std::strchr(*E, '=');
    if (!Eq)
      continue;
    Out += Out.empty() ? "\"" : ",\"";
    Out += jsonEscape(std::string(*E, (size_t)(Eq - *E)));
    Out += "\":\"";
    Out += jsonEscape(Eq + 1);
    Out += '"';
  }
  return "{" + Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string GitRev = "unknown";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--git-rev")
      GitRev = V;
    else
      return usage();
  }
  Outcome (*Run)(const Options &) = nullptr;
  if (O.Workload == "figures")
    Run = runFigures;
  else if (O.Workload == "collect_train")
    Run = runCollectTrain;
  else if (O.Workload == "serve_fleet")
    Run = runServeFleet;
  if (!Run || !(O.Seconds > 0.0))
    return usage();

  for (const char *Knob : {"JITML_FAULTS", "JITML_TRACE", "JITML_METRICS"}) {
    const char *V = std::getenv(Knob);
    if (V && *V) {
      std::fprintf(stderr,
                   "perfbench: refusing to time with %s set; unset it\n",
                   Knob);
      return 3;
    }
  }

  // Pool sizing: at most one thread per online CPU. JITML_JOBS may ask for
  // fewer.
  O.Nproc = onlineCpus();
  std::string RequestedJobs =
      std::getenv("JITML_JOBS") ? std::getenv("JITML_JOBS") : "";
  O.PoolJobs = O.Nproc;
  if (!RequestedJobs.empty()) {
    long J = std::strtol(RequestedJobs.c_str(), nullptr, 10);
    if (J >= 1 && (unsigned)J < O.Nproc)
      O.PoolJobs = (unsigned)J;
  }
  setJobs(O.PoolJobs);

  // Private working directory under the current directory (the checkout);
  // removed on exit. Trace files stay in .bench_run/traces.
  O.RunDir = ".bench_run/" + O.Workload + "-" + std::to_string(::getpid());
  O.TraceDir = ".bench_run/traces";
  removeTree(O.RunDir);
  if (!makeDirs(O.RunDir) || (O.Trace && !makeDirs(O.TraceDir))) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", O.RunDir.c_str());
    return 4;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d nproc=%u "
              "pool=%u\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              O.Trace ? 1 : 0, O.Nproc, O.PoolJobs);
  std::fflush(stdout);
  double T0 = nowSeconds();
  Outcome Out = Run(O);
  double Total = nowSeconds() - T0;
  removeTree(O.RunDir);
  if (!O.Trace)
    Out.set("peak_rss_mb", peakRssMb(), "MB");

  std::printf("[%s] metrics:\n", O.Workload.c_str());
  for (const auto &[Name, M] : Out.Metrics)
    printMetric(Name, M.Value, M.Unit.c_str());
  double ErrorRate =
      Out.Attempted ? (double)Out.Failed / (double)Out.Attempted : 1.0;
  char Note[96];
  std::snprintf(Note, sizeof(Note), "(%llu failed of %llu attempted)",
                (unsigned long long)Out.Failed,
                (unsigned long long)Out.Attempted);
  printMetric("error_rate", ErrorRate, "ratio", Note);
  std::printf("[%s] digest %s; run took %.1f s\n", O.Workload.c_str(),
              Out.Digest.c_str(), Total);

  std::printf("@@context {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
              "\"pool_jobs\":%u,\"requested_jobs\":\"%s\","
              "\"build_type\":\"%s\",\"compiler\":\"%s\",\"git_rev\":\"%s\","
              "\"digest\":\"%s\",\"error_rate\":%.17g,\"jitml_env\":%s}\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Nproc,
              O.PoolJobs, jsonEscape(RequestedJobs).c_str(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              jsonEscape(GitRev).c_str(), Out.Digest.c_str(), ErrorRate,
              jitmlEnvJson().c_str());
  std::string Metrics;
  for (const auto &[Name, M] : Out.Metrics) {
    if (!std::isfinite(M.Value))
      continue;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    if (!Metrics.empty())
      Metrics += ",";
    Metrics += "\"" + Name + "\":{\"value\":" + Buf + ",\"unit\":\"" +
               M.Unit + "\"}";
  }
  std::printf("@@result {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              Out.Failed == 0 && Out.Attempted > 0 ? "true" : "false",
              (unsigned long long)Out.Attempted,
              (unsigned long long)Out.Failed, Metrics.c_str());
  std::fflush(stdout);
  return 0;
}
