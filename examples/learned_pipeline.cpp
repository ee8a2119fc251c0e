//===- examples/learned_pipeline.cpp --------------------------------------===//
//
// The complete Figure 5 pipeline, end to end, with the model behind the
// named-pipe bridge — the paper's actual deployment architecture:
//
//   1. collect training data on four SPECjvm98 benchmarks (strategy
//      control + instrumentation + binary archives),
//   2. rank (Eq. 2), normalize (Eq. 3) and train three linear SVMs
//      (cold/warm/hot) with C = 10,
//   3. start a model *server* (serveModel over the LearnedStrategyProvider)
//      on the other end of a pair of POSIX named pipes and run the
//      held-out benchmark with the learning-enabled compiler asking the
//      server for a modifier at every compilation — through the hardened
//      ResilientModelClient (deadline, retry, prediction cache, fallback).
//      Levels without a model (veryHot, scorching) are answered "no model
//      for level"; the client caches that and compiles them with the
//      hand-tuned plan,
//   4. compare start-up wall time and compile time against the baseline,
//      print the bridge counters, then stop the model service and show
//      that compilation still completes via fallback.
//
//   $ ./build/examples/learned_pipeline
//
//===----------------------------------------------------------------------===//

#include "bridge/ModelService.h"
#include "bridge/ResilientClient.h"
#include "harness/Experiment.h"
#include "jitml/Training.h"

#include <cstdio>
#include <thread>
#include <unistd.h>

using namespace jitml;

int main() {
  // 1. Collect on four of the five training benchmarks (hold out "co").
  CollectConfig CC;
  CC.Iterations = 20; // quick demo scale
  std::vector<IntermediateDataSet> Sets;
  for (const WorkloadSpec &Spec : trainingBenchmarks()) {
    if (Spec.Code == "co")
      continue;
    std::printf("[collect] %s ...\n", Spec.Name.c_str());
    std::fflush(stdout);
    Sets.push_back(collectFromWorkload(Spec, CC));
    std::printf("[collect] %s: %zu records\n", Spec.Name.c_str(),
                Sets.back().size());
  }

  // 2. Train the model set.
  TrainConfig TC;
  ModelSet Models = trainModelSet(mergeAll(Sets), "demo", TC);
  for (unsigned L = 0; L < NumOptLevels; ++L)
    if (Models.Levels[L].Valid)
      std::printf("[train] %s model: %u classes x %u features\n",
                  optLevelName((OptLevel)L),
                  Models.Levels[L].Model.numClasses(),
                  Models.Levels[L].Model.numFeatures());

  // 3. Serve the model over named pipes (a separate thread stands in for
  //    the separate process; the bytes really flow through two FIFOs).
  char Template[] = "/tmp/jitml_pipes_XXXXXX";
  std::string Dir = mkdtemp(Template);
  std::string ToServer = Dir + "/to_model";
  std::string ToClient = Dir + "/to_compiler";
  if (!FifoTransport::createPipes(ToServer, ToClient)) {
    std::fprintf(stderr, "mkfifo failed\n");
    return 1;
  }
  LearnedStrategyProvider Backend(Models);
  std::thread Server([&] {
    auto T = FifoTransport::open(ToServer, ToClient, /*IsServer=*/true);
    if (T)
      serveModel(*T, Backend);
  });
  auto ClientTransport =
      FifoTransport::open(ToServer, ToClient, /*IsServer=*/false);
  if (!ClientTransport) {
    std::fprintf(stderr, "fifo open failed\n");
    Server.join();
    return 1;
  }
  // The hardened client: 100ms deadline per round trip, LRU prediction
  // cache keyed by (level, feature hash) holding modifiers and "no model"
  // answers, fallback to the hand-tuned plan when the service cannot
  // answer.
  ResilientModelClient Client(std::move(ClientTransport));

  // 4. Evaluate on the held-out benchmark.
  Program P = buildWorkload(workloadByCode("co"));
  auto RunStartup = [&](const char *Tag, bool Learned) {
    VirtualMachine::Config Cfg;
    VirtualMachine VM(P, Cfg);
    if (Learned)
      VM.setModifierHook(makeResilientHook(Client));
    ExecResult R = VM.run({Value::ofI(0)});
    std::printf("  %-8s checksum=%-11lld wall=%-9.0f app=%-9.0f "
                "compile=%.0f fallbackCompiles=%llu\n",
                Tag, (long long)R.Ret.I, VM.stats().totalCycles(),
                VM.stats().AppCycles, VM.stats().CompileCycles,
                (unsigned long long)VM.stats().NullModifierCompilations);
    return VM.stats();
  };
  std::printf("[evaluate] start-up run of held-out benchmark "
              "'compress':\n");
  VirtualMachine::Stats Base = RunStartup("baseline", false);
  VirtualMachine::Stats Learned = RunStartup("learned", true);
  std::printf("[evaluate] start-up speedup %.3fx, compile-time ratio "
              "%.3f (%llu bridged predictions)\n",
              Base.totalCycles() / Learned.totalCycles(),
              Learned.CompileCycles / Base.CompileCycles,
              (unsigned long long)Backend.predictions());

  // 5. Model-service overhead, as an experiment would report it.
  //    Uncovered-level answers count as errorReplies and fallbacks.
  BridgeCounters Counters = Client.counters();
  std::printf("[bridge] counters after the learned run:\n%s",
              Counters.toText().c_str());

  // 6. Stop the model service and run again: the prediction cache keeps
  //    serving the repeated feature vectors without a live service.
  Client.bye();
  Server.join();
  std::printf("[degrade] model service stopped; rerunning (cache keeps "
              "serving repeated vectors):\n");
  RunStartup("cached", true);
  std::printf("[degrade] cache hits now %llu of %llu requests\n",
              (unsigned long long)Client.counters().CacheHits,
              (unsigned long long)Client.counters().Requests);

  // 7. A cold client against an unreachable service: every compilation
  //    falls back to the unmodified hand-tuned plan — degraded, never
  //    hung or aborted.
  ResilientModelClient Down(
      []() -> std::unique_ptr<Transport> { return nullptr; });
  {
    VirtualMachine::Config Cfg;
    VirtualMachine VM(P, Cfg);
    VM.setModifierHook(makeResilientHook(Down));
    ExecResult R = VM.run({Value::ofI(0)});
    std::printf("[degrade] unreachable service: checksum=%lld, %llu of "
                "%llu compilations used the hand-tuned fallback plan\n",
                (long long)R.Ret.I,
                (unsigned long long)VM.stats().NullModifierCompilations,
                (unsigned long long)VM.stats().Compilations);
  }
  ::unlink(ToServer.c_str());
  ::unlink(ToClient.c_str());
  ::rmdir(Dir.c_str());
  return 0;
}
