//===- perfbench/Figures.cpp - The `figures` workload ---------------------===//
///
/// \file
/// Every distinct run set behind Figures 6-13, measured once each through
/// runOnce: SPECjvm98 and DaCapo at 1 iteration (start-up, Figs 6-9) and
/// at 10 iterations (throughput, Figs 10-13), each benchmark under the
/// baseline compiler and under the leave-one-out model sets runFigure
/// picks for its row. The models come from ModelStore::getOrBuild in an
/// empty private cache directory during set-up.
///
/// The 1-iteration cells spend a large share of VM time compiling and
/// interpreting; the 10-iteration cells are dominated by simulated native
/// execution.
///
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "harness/Experiment.h"
#include "harness/ModelStore.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

using namespace jitml;

namespace perfbench {
namespace {

struct RunSet {
  Suite BenchSuite;
  unsigned Iterations;
};

// Heaviest first, so the pool's tail is short: DaCapo x10 (Figs 11, 13),
// SPECjvm98 x10 (Figs 10, 12), DaCapo x1 (Figs 8, 9), SPECjvm98 x1
// (Figs 6, 7).
constexpr RunSet RunSets[] = {
    {Suite::DaCapo, 10},
    {Suite::SpecJvm98, 10},
    {Suite::DaCapo, 1},
    {Suite::SpecJvm98, 1},
};

/// One JVM invocation of the workload: a (benchmark, configuration) pair
/// of one run set.
struct Cell {
  size_t RunSetIdx = 0;
  size_t Prog = 0;           ///< index into Setup::Programs
  size_t SetIdx = SIZE_MAX;  ///< model set; SIZE_MAX = baseline
  size_t BaselineCell = 0;   ///< index of this row's baseline cell
  uint64_t RunSeed = 0;
  unsigned iterations() const { return RunSets[RunSetIdx].Iterations; }
};

struct Setup {
  ModelStore::Artifacts Artifacts;
  std::vector<Program> Programs;
  std::vector<const WorkloadSpec *> Specs;
  /// Plain-interpreter checksums per program at 1 and 10 iterations.
  std::vector<int64_t> Ref1, Ref10;
  std::vector<Cell> Cells;
  std::string ModelDigest, ArchiveDigest;
  double BuildS = 0.0; ///< buildWorkload + reference checksums
};

void buildSetup(const Options &O, const std::string &CacheDir, Setup &S) {
  removeTree(CacheDir);
  makeDirs(CacheDir);
  ::setenv("JITML_CACHE_DIR", CacheDir.c_str(), 1);
  S.Artifacts = ModelStore::getOrBuild(/*Verbose=*/false);
  S.ModelDigest = modelDigest(S.Artifacts.Sets);
  S.ArchiveDigest = digestDirectory(CacheDir, nullptr);

  double B0 = nowSeconds();
  S.Specs.clear();
  for (const WorkloadSpec &W : specJvm98Suite())
    S.Specs.push_back(&W);
  for (const WorkloadSpec &W : daCapoSuite())
    S.Specs.push_back(&W);
  size_t N = S.Specs.size();
  S.Programs.assign(N, Program());
  S.Ref1.assign(N, 0);
  S.Ref10.assign(N, 0);
  parallelFor(N, [&](size_t I) {
    S.Programs[I] = buildWorkload(*S.Specs[I]);
    S.Ref1[I] = workloadChecksum(S.Programs[I], 1);
    S.Ref10[I] = workloadChecksum(S.Programs[I], 10);
  });
  S.BuildS = nowSeconds() - B0;

  // Cell layout: runFigure's rows, one run each, seeded from the
  // benchmark and the workload seed.
  S.Cells.clear();
  for (size_t RS = 0; RS < std::size(RunSets); ++RS) {
    for (size_t I = 0; I < N; ++I) {
      const WorkloadSpec &Spec = *S.Specs[I];
      if (Spec.BenchSuite != RunSets[RS].BenchSuite)
        continue;
      ExperimentConfig EC;
      EC.Iterations = RunSets[RS].Iterations;
      EC.Runs = 1;
      EC.Seed = mix64(Spec.Seed ^ 0xf19u ^ mix64(O.Seed));
      Cell Base;
      Base.RunSetIdx = RS;
      Base.Prog = I;
      Base.RunSeed = runSeed(EC, 0);
      Base.BaselineCell = S.Cells.size();
      S.Cells.push_back(Base);
      const ModelSet *Loo = ModelStore::setExcluding(S.Artifacts, Spec.Code);
      for (size_t M = 0; M < S.Artifacts.Sets.size(); ++M) {
        if (Loo && &S.Artifacts.Sets[M] != Loo)
          continue;
        Cell C = Base;
        C.SetIdx = M;
        S.Cells.push_back(C);
      }
    }
  }
}

int64_t referenceOf(const Setup &S, const Cell &C) {
  return C.iterations() == 1 ? S.Ref1[C.Prog] : S.Ref10[C.Prog];
}

/// One pass: every cell through runOnce on the pool.
std::vector<RunResult> measurePass(const Setup &S) {
  std::vector<RunResult> Results(S.Cells.size());
  parallelFor(S.Cells.size(), [&](size_t I) {
    const Cell &C = S.Cells[I];
    std::unique_ptr<LearnedStrategyProvider> Provider;
    if (C.SetIdx != SIZE_MAX)
      Provider = std::make_unique<LearnedStrategyProvider>(
          S.Artifacts.Sets[C.SetIdx]);
    Results[I] = runOnce(S.Programs[C.Prog], C.iterations(), Provider.get(),
                         C.RunSeed);
  });
  return Results;
}

std::string cellDigest(const std::vector<RunResult> &Results) {
  Digest D;
  for (const RunResult &R : Results) {
    D.pod(R.WallCycles);
    D.pod(R.AppCycles);
    D.pod(R.CompileCycles);
    D.pod(R.Checksum);
    D.pod(R.Compilations);
  }
  return D.hex();
}

/// Checks every cell against the plain interpreter's checksum.
void checkCells(const Setup &S, const std::vector<RunResult> &Results,
                Outcome &Out) {
  for (size_t I = 0; I < S.Cells.size(); ++I)
    Out.check(Results[I].Checksum == referenceOf(S, S.Cells[I]));
}

struct Geomeans {
  double Startup = 0.0, Compile = 0.0, Throughput = 0.0;
};

Geomeans geomeansOf(const Setup &S, const std::vector<RunResult> &Results) {
  std::vector<double> Startup, Compile, Throughput;
  for (size_t I = 0; I < S.Cells.size(); ++I) {
    const Cell &C = S.Cells[I];
    if (C.SetIdx == SIZE_MAX)
      continue;
    Series Base = foldSeries({Results[C.BaselineCell]});
    Series Learned = foldSeries({Results[I]});
    double Perf = relativePerformance(Base, Learned).Value;
    double Comp = relativeCompileTime(Base, Learned).Value;
    (C.iterations() == 1 ? Startup : Throughput).push_back(Perf);
    if (Comp > 0.0)
      Compile.push_back(Comp);
  }
  return {geomean(Startup), geomean(Compile), geomean(Throughput)};
}

/// Records each compile the VM makes (the traced pass's replay input).
class CompileRecorder : public JitEventListener {
public:
  std::vector<CompileRecord> Records;
  void onMethodEnter(uint32_t, const TscSample &) override {}
  void onMethodExit(uint32_t, const TscSample &, bool) override {}
  void onCompile(const CompileEvent &E) override {
    CompileRecord R;
    R.Method = E.MethodIndex;
    R.Level = E.Level;
    R.ModifierBits = E.Modifier.raw();
    R.CompileCycles = E.CompileCycles;
    R.Features = E.Features;
    Records.push_back(std::move(R));
  }
};

/// Everything the traced pass learns about one cell.
struct TracedCell {
  int64_t SpanId = -1;
  CompileRecorder Recorder;
  VirtualMachine::Stats Stats;
  double Start = 0.0; ///< when the cell's span opened
  double PredictS = 0.0;
  uint64_t Predicts = 0;
  bool Matches = false; ///< same results as the cell's runOnce
};

/// runOnce's VM set-up, with a compile recorder and a timed hook; the
/// counters it compares must equal the untraced cell bit for bit.
void tracedCell(const Setup &S, size_t I, const RunResult &Untraced,
                Tracer &T, TracedCell &Out) {
  const Cell &C = S.Cells[I];
  Tracer::Scope RunOnce(T, "harness.run_once", (uint32_t)I);
  Out.SpanId = RunOnce.id();
  Out.Start = nowSeconds();
  std::unique_ptr<LearnedStrategyProvider> Provider;
  if (C.SetIdx != SIZE_MAX)
    Provider =
        std::make_unique<LearnedStrategyProvider>(S.Artifacts.Sets[C.SetIdx]);

  VirtualMachine::Config Cfg;
  Cfg.Clock.Seed = mix64(C.RunSeed ^ 0xc10c4);
  VirtualMachine VM(S.Programs[C.Prog], Cfg);
  VM.setListener(&Out.Recorder);
  double PredictStart = 0.0;
  if (Provider) {
    VirtualMachine::ModifierHook Learned = makeLearnedHook(*Provider);
    VM.setModifierHook([&, Learned](uint32_t M, OptLevel L,
                                    const FeatureVector &F) {
      PredictStart = nowSeconds();
      PlanModifier Mod = Learned(M, L, F);
      Out.PredictS += nowSeconds() - PredictStart;
      ++Out.Predicts;
      return Mod;
    });
  }
  int64_t Checksum = 0;
  bool Threw = false;
  for (unsigned It = 0; It < C.iterations(); ++It) {
    ExecResult R = VM.run({Value::ofI((int64_t)It)});
    Threw |= R.Exceptional;
    Checksum = (int64_t)mix64((uint64_t)Checksum ^ (uint64_t)R.Ret.I);
  }
  Out.Stats = VM.stats();
  Out.Matches = !Threw && Checksum == Untraced.Checksum &&
                std::memcmp(&Out.Stats.AppCycles, &Untraced.AppCycles,
                            sizeof(double)) == 0 &&
                Out.Stats.Compilations == Untraced.Compilations;
  RunOnce.ok(Out.Matches);
  RunOnce.items((int64_t)Out.Recorder.Records.size());
}

void tracedRun(const Options &O, Setup &S, Outcome &Out) {
  Tracer T(true);
  PoolCounters Before = PoolCounters::now();
  double P0 = nowSeconds();
  std::vector<RunResult> Parallel = measurePass(S);
  double ParallelWall = nowSeconds() - P0;
  setPoolMetrics(Before, ParallelWall, Out);
  checkCells(S, Parallel, Out);
  Digest D;
  D.str(cellDigest(Parallel));
  D.str(S.ModelDigest);
  D.str(S.ArchiveDigest);
  Out.Digest = D.hex();

  // Untraced passes on one thread before and after the traced pass are
  // the base of the tracing overhead: the traced pass runs the same cells
  // on one thread, so its spans partition its wall time.
  std::vector<double> SeqWalls;
  auto Sequential = [&] {
    withJobs(1, [&] {
      double T0 = nowSeconds();
      std::vector<RunResult> R = measurePass(S);
      SeqWalls.push_back(nowSeconds() - T0);
      Out.check(cellDigest(R) == cellDigest(Parallel));
    });
  };
  Sequential();

  std::vector<TracedCell> Traced(S.Cells.size());
  double T0 = nowSeconds();
  for (size_t I = 0; I < S.Cells.size(); ++I)
    tracedCell(S, I, Parallel[I], T, Traced[I]);
  double TracedWall = nowSeconds() - T0;
  double Attributed = T.topLevelTotal();
  Sequential();
  double SeqWall = 0.5 * (SeqWalls[0] + SeqWalls[1]);

  // Live-timed hook calls become one aggregated child span per cell.
  ReplayStats Replay;
  double PredictS = 0.0;
  uint64_t Predicts = 0;
  VirtualMachine::Stats Sum;
  for (size_t I = 0; I < S.Cells.size(); ++I) {
    const Cell &C = S.Cells[I];
    TracedCell &TC = Traced[I];
    Out.check(TC.Matches);
    if (TC.Predicts) {
      Span Sp;
      Sp.Stage = "jitml.predict";
      Sp.Start = TC.Start;
      Sp.End = Sp.Start + TC.PredictS;
      Sp.Parent = TC.SpanId;
      Sp.RunId = (uint32_t)I;
      Sp.Items = (int64_t)TC.Predicts;
      T.add(Sp);
    }
    ReplayStats R = replayCompiles(S.Programs[C.Prog], TC.Recorder.Records,
                                   C.SetIdx != SIZE_MAX,
                                   /*IntegerCycles=*/false, T, TC.SpanId,
                                   (uint32_t)I);
    // Fidelity: every replayed compile matches its record, and the
    // records sum to the VM's compile cycles, so none was missed.
    double RecordedCycles = 0.0;
    for (const CompileRecord &Rec : TC.Recorder.Records)
      RecordedCycles += Rec.CompileCycles;
    bool Exact = R.CycleMismatches == 0 && R.FeatureMismatches == 0 &&
                 std::memcmp(&RecordedCycles, &TC.Stats.CompileCycles,
                             sizeof(double)) == 0;
    Out.check(Exact);
    Replay.add(R);
    PredictS += TC.PredictS;
    Predicts += TC.Predicts;
    Sum.Invocations += TC.Stats.Invocations;
    Sum.InterpretedInvocations += TC.Stats.InterpretedInvocations;
    Sum.Compilations += TC.Stats.Compilations;
    Sum.AppCycles += TC.Stats.AppCycles;
    Sum.CompileCycles += TC.Stats.CompileCycles;
  }
  double RunOnceS = T.total("harness.run_once");
  double ExecS = RunOnceS - Replay.compileS() - Replay.PrehookS - PredictS;
  double Unattributed = (TracedWall - Attributed) / TracedWall;

  Out.set("runtime.exec_s", ExecS, "s");
  Out.set("runtime.sim_mcycles_per_s", Sum.AppCycles / 1e6 / ExecS,
          "Mcycles/s");
  Out.set("runtime.invocations", (double)Sum.Invocations, "count");
  Out.set("runtime.interpreted_invocations",
          (double)Sum.InterpretedInvocations, "count");
  Out.set("runtime.compilations", (double)Sum.Compilations, "count");
  Out.set("runtime.sim_app_gcycles", Sum.AppCycles / 1e9, "Gcycles");
  Out.set("runtime.sim_compile_gcycles", Sum.CompileCycles / 1e9, "Gcycles");
  setReplayMetrics(Replay, Out);
  Out.set("jitml.predict_s", PredictS, "s");
  Out.set("jitml.predicts", (double)Predicts, "count");
  Out.set("harness.run_once_s", RunOnceS, "s");
  Out.set("harness.runs", (double)S.Cells.size(), "count");
  Out.set("workloads.build_s", S.BuildS, "s");
  Out.set("trace.unattributed_share", Unattributed, "ratio");
  Out.set("trace.overhead_share", TracedWall / SeqWall - 1.0, "ratio");
  Out.set("replay.coverage",
          Sum.Compilations ? (double)Replay.Compiles / (double)Sum.Compilations
                           : 0.0,
          "ratio");

  std::printf("[figures] traced pass %.3f s (untraced on one thread %.3f s, "
              "on the pool %.3f s); replayed %llu compiles, %llu "
              "mismatches\n",
              TracedWall, SeqWall, ParallelWall,
              (unsigned long long)Replay.Compiles,
              (unsigned long long)(Replay.CycleMismatches +
                                   Replay.FeatureMismatches));
  std::string Path = O.TraceDir + "/figures-seed" + std::to_string(O.Seed) +
                     ".jsonl";
  if (T.writeJsonl(Path))
    std::printf("[figures] spans written to %s\n", Path.c_str());
}

} // namespace

Outcome runFigures(const Options &O) {
  Outcome Out;
  const unsigned SetupReps = O.Trace ? 1 : 3;
  std::vector<double> SetupS;
  Setup S;
  std::string FirstModels, FirstArchives;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    std::string CacheDir = O.RunDir + "/cache" + std::to_string(Rep);
    double T0 = nowSeconds();
    buildSetup(O, CacheDir, S);
    SetupS.push_back(nowSeconds() - T0);
    removeTree(CacheDir);
    if (Rep == 0) {
      FirstModels = S.ModelDigest;
      FirstArchives = S.ArchiveDigest;
    }
    // Every set-up must train the same models from the same archives.
    Out.check(S.ModelDigest == FirstModels &&
              S.ArchiveDigest == FirstArchives);
    for (const ModelSet &M : S.Artifacts.Sets)
      for (unsigned L = 0; L < NumOptLevels; ++L)
        if (isLearnedLevel((OptLevel)L))
          Out.check(M.Levels[L].Valid);
  }
  std::printf("[figures] %zu cells (%zu programs, %zu model sets); set-up "
              "%.3f s median of %u\n",
              S.Cells.size(), S.Programs.size(), S.Artifacts.Sets.size(),
              median(SetupS), SetupReps);

  if (O.Trace) {
    tracedRun(O, S, Out);
    return Out;
  }

  std::vector<double> Walls;
  std::string FirstDigest;
  std::vector<RunResult> Results;
  double Start = nowSeconds();
  while (Walls.size() < 3 || nowSeconds() - Start < O.Seconds) {
    double T0 = nowSeconds();
    Results = measurePass(S);
    Walls.push_back(nowSeconds() - T0);
    checkCells(S, Results, Out);
    std::string D = cellDigest(Results);
    if (FirstDigest.empty())
      FirstDigest = D;
    Out.check(D == FirstDigest);
  }
  // Determinism across pool sizes: the same cells on one thread.
  withJobs(1, [&] { Out.check(cellDigest(measurePass(S)) == FirstDigest); });

  Geomeans G = geomeansOf(S, Results);
  Digest D;
  D.str(FirstDigest);
  D.str(S.ModelDigest);
  D.str(S.ArchiveDigest);
  Out.Digest = D.hex();

  Out.set("wall_s", median(Walls), "s");
  Out.set("setup_s", median(SetupS), "s");
  printMetric("startup_speedup_geomean", G.Startup, "ratio",
              "Figs 6/8 cells, higher is better");
  printMetric("compile_ratio_geomean", G.Compile, "ratio",
              "Figs 7/9/12/13 cells, lower is better");
  printMetric("throughput_ratio_geomean", G.Throughput, "ratio",
              "Figs 10/11 cells, higher is better");
  std::printf("[figures] %zu passes of %zu runOnce calls; pass wall "
              "min %.3f median %.3f max %.3f s\n",
              Walls.size(), S.Cells.size(),
              *std::min_element(Walls.begin(), Walls.end()), median(Walls),
              *std::max_element(Walls.begin(), Walls.end()));
  return Out;
}

} // namespace perfbench
