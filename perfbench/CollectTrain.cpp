//===- perfbench/CollectTrain.cpp - The `collect_train` workload ----------===//
///
/// \file
/// ModelStore::getOrBuild on an empty cache directory: the five training
/// benchmarks collected under both search strategies, the archives written
/// and read back, ranking and normalization, and the 15 leave-one-out
/// models trained. getOrBuild takes no seed, so this workload's inputs are
/// the same for every --seed.
///
/// The traced run repeats the same steps on one thread through the public
/// calls getOrBuild and trainLeaveOneOut make, and re-runs every archived
/// compile record to time the compile layers inside collection.
///
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "collect/Archive.h"
#include "harness/Experiment.h"
#include "harness/ModelStore.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

using namespace jitml;

namespace perfbench {
namespace {

std::string archivePath(const std::string &Dir, const WorkloadSpec &Spec) {
  return Dir + "/" + Spec.Code + ".jmla";
}

bool sameRecord(const TaggedRecord &A, const TaggedRecord &B) {
  const CollectionRecord &X = A.Record, &Y = B.Record;
  return A.SourceTag == B.SourceTag && A.Signature == B.Signature &&
         X.Level == Y.Level && X.ModifierBits == Y.ModifierBits &&
         X.Features == Y.Features && X.CompileCycles == Y.CompileCycles &&
         X.RunCycles == Y.RunCycles && X.Invocations == Y.Invocations &&
         X.DiscardedSamples == Y.DiscardedSamples;
}

bool sameData(const IntermediateDataSet &A, const IntermediateDataSet &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!sameRecord(A.Records[I], B.Records[I]))
      return false;
  return true;
}

/// Set-up: the training programs built and run on the plain interpreter
/// for as many iterations as a collection run makes. The checksums are the
/// reference for the trained models; the programs' signature tables map
/// archived records back to methods in the traced run.
struct Setup {
  std::vector<Program> Programs;
  std::vector<int64_t> Checksums;
  double BuildS = 0.0;
};

void buildSetup(Setup &S) {
  const std::vector<WorkloadSpec> &Training = trainingBenchmarks();
  const unsigned Iterations = ModelStore::collectConfig().Iterations;
  S.Programs.assign(Training.size(), Program());
  S.Checksums.assign(Training.size(), 0);
  double T0 = nowSeconds();
  for (size_t I = 0; I < Training.size(); ++I) {
    S.Programs[I] = buildWorkload(Training[I]);
    S.Checksums[I] = workloadChecksum(S.Programs[I], Iterations);
  }
  S.BuildS = nowSeconds() - T0;
}

/// The archive form of \p Data: its records with signature ids from a
/// fresh dictionary, as ModelStore writes them.
void toArchive(const IntermediateDataSet &Data, StringInterner &Dict,
               std::vector<CollectionRecord> &Records) {
  Records.reserve(Data.size());
  for (const TaggedRecord &R : Data.Records) {
    Records.push_back(R.Record);
    Records.back().SignatureId = Dict.intern(R.Signature);
  }
}

/// Each training benchmark, run for a collection's iterations under the
/// model set that left it out, must compute the plain interpreter's
/// checksum. Checked on one build per run: the digest shows that every
/// other build trained the same bytes.
void checkModelsRun(const Options &O, const Setup &Su,
                    const std::vector<ModelSet> &Sets, Outcome &Out) {
  for (size_t Fold = 0; Fold < Su.Programs.size(); ++Fold) {
    if (Fold >= Sets.size()) {
      Out.check(false);
      continue;
    }
    LearnedStrategyProvider Provider(Sets[Fold]);
    RunResult R = runOnce(Su.Programs[Fold],
                          ModelStore::collectConfig().Iterations, &Provider,
                          mix64(O.Seed ^ (uint64_t)Fold));
    Out.check(R.Checksum == Su.Checksums[Fold]);
  }
}

/// The oracle for one getOrBuild result: all 15 level models valid, and
/// every archive non-empty and byte-identical after decode + re-encode.
void checkBuild(const std::string &Dir, const ModelStore::Artifacts &A,
                Outcome &Out) {
  for (size_t Fold = 0; Fold < trainingBenchmarks().size(); ++Fold)
    for (unsigned L = 0; L < NumOptLevels; ++L)
      if (isLearnedLevel((OptLevel)L))
        Out.check(Fold < A.Sets.size() && A.Sets[Fold].Levels[L].Valid);
  for (const WorkloadSpec &Spec : trainingBenchmarks()) {
    std::string Path = archivePath(Dir, Spec);
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    std::vector<uint8_t> Bytes;
    if (F) {
      uint8_t Buf[1 << 16];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
        Bytes.insert(Bytes.end(), Buf, Buf + N);
      std::fclose(F);
    }
    ArchiveData Archive;
    bool Ok = decodeArchive(Bytes, Archive) && !Archive.Records.empty();
    if (Ok) {
      StringInterner Dict;
      for (const std::string &S : Archive.Signatures)
        Dict.intern(S);
      Ok = encodeArchive(Dict, Archive.Records) == Bytes;
    }
    Out.check(Ok);
  }
}

/// One timed unit of work: getOrBuild on a fresh, empty directory.
/// Returns the build's wall time; the digest covers models and archives.
double buildOnce(const std::string &Dir, Outcome &Out, std::string &Digest,
                 ModelStore::Artifacts *Keep = nullptr) {
  removeTree(Dir);
  makeDirs(Dir);
  ::setenv("JITML_CACHE_DIR", Dir.c_str(), 1);
  double T0 = nowSeconds();
  ModelStore::Artifacts A = ModelStore::getOrBuild(/*Verbose=*/false);
  double Wall = nowSeconds() - T0;
  checkBuild(Dir, A, Out);
  perfbench::Digest D;
  D.str(modelDigest(A.Sets));
  D.str(digestDirectory(Dir, nullptr));
  Digest = D.hex();
  removeTree(Dir);
  if (Keep)
    *Keep = std::move(A);
  return Wall;
}

void tracedRun(const Options &O, const Setup &Su, Outcome &Out) {
  const std::vector<WorkloadSpec> &Training = trainingBenchmarks();
  CollectConfig CC = ModelStore::collectConfig();
  TrainConfig TC = ModelStore::trainConfig();
  std::string Dir = O.RunDir + "/cache";

  // Untraced on the pool first, for the pool metrics.
  PoolCounters Before = PoolCounters::now();
  std::string ParallelDigest, SeqDigest;
  ModelStore::Artifacts Reference;
  double ParallelWall = buildOnce(Dir, Out, ParallelDigest, &Reference);
  setPoolMetrics(Before, ParallelWall, Out);
  Out.Digest = ParallelDigest;
  checkModelsRun(O, Su, Reference.Sets, Out);
  // Untraced builds on one thread before and after the traced pass are
  // the base of the tracing overhead.
  std::vector<double> SeqWalls;
  auto Sequential = [&] {
    withJobs(1, [&] {
      SeqWalls.push_back(buildOnce(Dir, Out, SeqDigest));
    });
    Out.check(SeqDigest == ParallelDigest);
  };
  Sequential();

  // The traced pass: getOrBuild's steps, one call at a time.
  Tracer T(true);
  static constexpr SearchStrategy Strategies[2] = {
      SearchStrategy::Randomized, SearchStrategy::Progressive};
  removeTree(Dir);
  makeDirs(Dir);
  std::vector<std::array<IntermediateDataSet, 2>> Parts(Training.size());
  std::vector<std::array<int64_t, 2>> PartSpan(Training.size());
  std::vector<IntermediateDataSet> PerBenchmark(Training.size()),
      Loaded(Training.size());
  std::vector<ModelSet> Sets(Training.size());
  uint64_t ArchiveBytes = 0, RankedN = 0, MergedN = 0, Solves = 0;
  std::vector<double> Accuracy;
  uint64_t SyncCompiles0 = counterValue("vm.sync_compiles");
  double T0 = nowSeconds();
  for (size_t B = 0; B < Training.size(); ++B)
    for (size_t S = 0; S < 2; ++S) {
      Tracer::Scope Sp(T, "collect.collect", (uint32_t)(B * 2 + S));
      PartSpan[B][S] = Sp.id();
      Parts[B][S] = collectWithStrategy(Training[B], CC, Strategies[S]);
      Sp.items((int64_t)Parts[B][S].size());
    }
  uint64_t SyncCompiles = counterValue("vm.sync_compiles") - SyncCompiles0;
  for (size_t B = 0; B < Training.size(); ++B) {
    std::string Path = archivePath(Dir, Training[B]);
    {
      Tracer::Scope Sp(T, "mldata.merge", (uint32_t)B);
      PerBenchmark[B] = Parts[B][0];
      PerBenchmark[B].append(Parts[B][1]);
    }
    {
      Tracer::Scope Sp(T, "collect.archive_write", (uint32_t)B);
      StringInterner Dict;
      std::vector<CollectionRecord> Records;
      toArchive(PerBenchmark[B], Dict, Records);
      Sp.ok(writeArchiveFile(Path, Dict, Records));
    }
    ArchiveData Archive;
    {
      Tracer::Scope Sp(T, "collect.archive_read", (uint32_t)B);
      Sp.ok(readArchiveFile(Path, Archive));
    }
    {
      Tracer::Scope Sp(T, "mldata.unarchive", (uint32_t)B);
      Loaded[B] = unarchive(Archive, Training[B].Code);
      Sp.items((int64_t)Loaded[B].size());
    }
  }
  {
    Tracer::Scope Loo(T, "jitml.train_loo");
    for (size_t Fold = 0; Fold < Training.size(); ++Fold) {
      IntermediateDataSet Merged;
      {
        Tracer::Scope Sp(T, "mldata.merge", (uint32_t)Fold);
        Merged = mergeExcluding(PerBenchmark, {Training[Fold].Code});
      }
      ModelSet &Set = Sets[Fold];
      Set.Name = "H";
      Set.Name += std::to_string(Fold + 1);
      Set.LeftOutBenchmark = Training[Fold].Code;
      for (unsigned L = 0; L < NumOptLevels; ++L) {
        OptLevel Level = (OptLevel)L;
        if (!isLearnedLevel(Level))
          continue;
        std::vector<RankedInstance> Ranked;
        {
          Tracer::Scope Sp(T, "mldata.rank", (uint32_t)(Fold * 8 + L));
          Ranked = rankRecords(Merged, Level, TC.Selection, TC.Triggers);
          Sp.items((int64_t)Ranked.size());
        }
        MergedN += summarizeMerged(Merged, Level).Instances;
        RankedN += Ranked.size();
        if (Ranked.size() < 8)
          continue;
        LevelModel &LM = Set.Levels[L];
        std::vector<NormalizedInstance> Instances;
        {
          Tracer::Scope Sp(T, "mldata.normalize", (uint32_t)(Fold * 8 + L));
          LM.Scale = Scaling::fit(Ranked);
          Instances = normalizeInstances(Ranked, LM.Scale, LM.Labels);
        }
        TrainReport Report;
        {
          Tracer::Scope Sp(T, "svm.train", (uint32_t)(Fold * 8 + L));
          LM.Model = trainCrammerSinger(Instances, TC.Svm, &Report);
          Sp.items((int64_t)Instances.size());
        }
        LM.Valid = true;
        Solves += Report.SubproblemSolves;
        Accuracy.push_back(Report.TrainAccuracy);
      }
    }
  }
  double TracedWall = nowSeconds() - T0;
  double Attributed = T.topLevelTotal();
  for (size_t B = 0; B < Training.size(); ++B) {
    ArchiveBytes += std::filesystem::file_size(archivePath(Dir, Training[B]));
    Out.check(sameData(Loaded[B], PerBenchmark[B]));
  }
  Sequential();
  double SeqWall = 0.5 * (SeqWalls[0] + SeqWalls[1]);
  // The step-by-step pass must train exactly what getOrBuild trained.
  Out.check(modelDigest(Sets) == modelDigest(Reference.Sets));

  // Replay: every archived record re-compiled, plus the in-memory archive
  // round trip collectWithStrategy makes before returning.
  ReplayStats Replay;
  double RoundTripS = 0.0;
  uint64_t Records = 0, Unmapped = 0;
  for (size_t B = 0; B < Training.size(); ++B) {
    const Program &P = Su.Programs[B];
    std::unordered_map<std::string, uint32_t> MethodOf;
    for (uint32_t M = 0; M < P.numMethods(); ++M)
      MethodOf.emplace(P.signatureOf(M), M);
    for (size_t S = 0; S < 2; ++S) {
      const IntermediateDataSet &Part = Parts[B][S];
      std::vector<CompileRecord> Recs;
      Recs.reserve(Part.size());
      for (const TaggedRecord &R : Part.Records) {
        auto It = MethodOf.find(R.Signature);
        if (It == MethodOf.end()) {
          ++Unmapped;
          continue;
        }
        CompileRecord C;
        C.Method = It->second;
        C.Level = R.Record.Level;
        C.ModifierBits = R.Record.ModifierBits;
        C.CompileCycles = R.Record.CompileCycles;
        C.Features = R.Record.Features;
        Recs.push_back(std::move(C));
      }
      Records += Part.size();
      ReplayStats RS =
          replayCompiles(P, Recs, /*Hooked=*/true, /*IntegerCycles=*/true, T,
                         PartSpan[B][S], (uint32_t)(B * 2 + S));
      Out.tally(Recs.size(), std::max(RS.CycleMismatches,
                                      RS.FeatureMismatches));
      Replay.add(RS);

      double R0 = nowSeconds();
      StringInterner Dict;
      std::vector<CollectionRecord> Raw;
      toArchive(Part, Dict, Raw);
      ArchiveData Back;
      bool Ok = decodeArchive(encodeArchive(Dict, Raw), Back);
      IntermediateDataSet Again = unarchive(Back, Training[B].Code);
      double Dur = nowSeconds() - R0;
      RoundTripS += Dur;
      Span Sp;
      Sp.Stage = "collect.roundtrip";
      Sp.Start = R0;
      Sp.End = R0 + Dur;
      Sp.Parent = PartSpan[B][S];
      Sp.RunId = (uint32_t)(B * 2 + S);
      Sp.Items = (int64_t)Part.size();
      Sp.Replay = true;
      Sp.Ok = Ok && sameData(Again, Part);
      Out.check(Sp.Ok);
      T.add(Sp);
    }
  }
  Out.check(Unmapped == 0);

  double CollectS = T.total("collect.collect");
  double ExecS = CollectS - Replay.compileS() - Replay.PrehookS - RoundTripS;
  double AccuracySum = 0.0;
  for (double A : Accuracy)
    AccuracySum += A;
  Out.set("runtime.exec_s", ExecS, "s");
  Out.set("runtime.compilations", (double)SyncCompiles, "count");
  setReplayMetrics(Replay, Out);
  Out.set("jitml.train_loo_s", T.total("jitml.train_loo"), "s");
  Out.set("collect.collect_s", CollectS, "s");
  Out.set("collect.records", (double)Records, "count");
  Out.set("collect.records_per_s", (double)Records / CollectS, "1/s");
  Out.set("collect.roundtrip_s", RoundTripS, "s");
  Out.set("collect.archive_write_s", T.total("collect.archive_write"), "s");
  Out.set("collect.archive_read_s", T.total("collect.archive_read"), "s");
  Out.set("collect.archive_bytes", (double)ArchiveBytes, "bytes");
  Out.set("mldata.unarchive_s", T.total("mldata.unarchive"), "s");
  Out.set("mldata.merge_s", T.total("mldata.merge"), "s");
  Out.set("mldata.rank_s", T.total("mldata.rank"), "s");
  Out.set("mldata.normalize_s", T.total("mldata.normalize"), "s");
  Out.set("mldata.rank_keep_ratio",
          MergedN ? (double)RankedN / (double)MergedN : 0.0, "ratio");
  Out.set("svm.train_s", T.total("svm.train"), "s");
  Out.set("svm.subproblem_solves", (double)Solves, "count");
  Out.set("svm.train_accuracy",
          Accuracy.empty() ? 0.0 : AccuracySum / (double)Accuracy.size(),
          "ratio");
  Out.set("workloads.build_s", Su.BuildS, "s");
  Out.set("trace.unattributed_share", (TracedWall - Attributed) / TracedWall,
          "ratio");
  Out.set("trace.overhead_share", TracedWall / SeqWall - 1.0, "ratio");
  Out.set("replay.coverage",
          SyncCompiles ? (double)Replay.Compiles / (double)SyncCompiles : 0.0,
          "ratio");

  std::printf("[collect_train] traced pass %.3f s (untraced on one thread "
              "%.3f s, on the pool %.3f s); replayed %llu of %llu sync "
              "compiles\n",
              TracedWall, SeqWall, ParallelWall,
              (unsigned long long)Replay.Compiles,
              (unsigned long long)SyncCompiles);
  std::string Path = O.TraceDir + "/collect_train-seed" +
                     std::to_string(O.Seed) + ".jsonl";
  if (T.writeJsonl(Path))
    std::printf("[collect_train] spans written to %s\n", Path.c_str());
}

} // namespace

Outcome runCollectTrain(const Options &O) {
  Outcome Out;
  const unsigned SetupReps = O.Trace ? 1 : 5;
  std::vector<double> SetupS;
  Setup Su;
  std::vector<int64_t> FirstChecksums;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    double T0 = nowSeconds();
    buildSetup(Su);
    SetupS.push_back(nowSeconds() - T0);
    if (Rep == 0)
      FirstChecksums = Su.Checksums;
    Out.check(Su.Checksums == FirstChecksums);
  }

  if (O.Trace) {
    tracedRun(O, Su, Out);
    return Out;
  }

  std::string Dir = O.RunDir + "/cache";
  std::vector<double> Walls;
  std::string FirstDigest;
  double Start = nowSeconds();
  ModelStore::Artifacts First;
  while (Walls.size() < 3 || nowSeconds() - Start < O.Seconds) {
    std::string D;
    Walls.push_back(buildOnce(Dir, Out, D, Walls.empty() ? &First : nullptr));
    if (FirstDigest.empty())
      FirstDigest = D;
    Out.check(D == FirstDigest);
  }
  checkModelsRun(O, Su, First.Sets, Out);
  std::string SeqDigest;
  withJobs(1, [&] { buildOnce(Dir, Out, SeqDigest); });
  Out.check(SeqDigest == FirstDigest);
  Out.Digest = FirstDigest;

  Out.set("wall_s", median(Walls), "s");
  Out.set("setup_s", median(SetupS), "s");
  std::printf("[collect_train] %zu cold builds; wall min %.3f median %.3f "
              "max %.3f s\n",
              Walls.size(), *std::min_element(Walls.begin(), Walls.end()),
              median(Walls), *std::max_element(Walls.begin(), Walls.end()));
  return Out;
}

} // namespace perfbench
