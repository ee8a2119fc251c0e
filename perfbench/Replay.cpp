//===- perfbench/Replay.cpp -----------------------------------------------===//

#include "Replay.h"

#include "codegen/CodeGenerator.h"
#include "features/FeatureExtractor.h"
#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "modifiers/Modifier.h"
#include "opt/Optimizer.h"
#include "runtime/VirtualMachine.h"

#include <cmath>
#include <cstring>

using namespace jitml;

namespace perfbench {

void ReplayStats::add(const ReplayStats &O) {
  Compiles += O.Compiles;
  CycleMismatches += O.CycleMismatches;
  FeatureMismatches += O.FeatureMismatches;
  IlCalls += O.IlCalls;
  EntriesRun += O.EntriesRun;
  NativeInsts += O.NativeInsts;
  IlS += O.IlS;
  AnnotateS += O.AnnotateS;
  ExtractS += O.ExtractS;
  OptimizeS += O.OptimizeS;
  CodegenS += O.CodegenS;
  PrehookS += O.PrehookS;
}

ReplayStats replayCompiles(const Program &P,
                           const std::vector<CompileRecord> &Records,
                           bool Hooked, bool IntegerCycles, Tracer &T,
                           int64_t Parent, uint32_t RunId) {
  // The cost model a default-configured VM compiles with.
  static const CostModel Cost = VirtualMachine::Config().Cost;
  ReplayStats S;
  double Begin = nowSeconds();
  for (const CompileRecord &R : Records) {
    // The same sequence of public calls compileMethodBody makes, with the
    // hook-side feature extraction first when a hook was installed.
    double T0 = nowSeconds();
    if (Hooked) {
      FeatureVector Pre = extractMethodFeatures(P, R.Method);
      (void)Pre;
      ++S.IlCalls;
    }
    double T1 = nowSeconds();
    std::unique_ptr<MethodIL> IL = generateIL(P, R.Method);
    double T2 = nowSeconds();
    LoopInfo::annotateFrequencies(*IL);
    double T3 = nowSeconds();
    FeatureVector Features = extractFeatures(*IL);
    double T4 = nowSeconds();
    const CompilationPlan &Plan = planForLevel(R.Level);
    OptimizeResult Opt = optimize(
        *IL, Plan, PlanModifier::fromRaw(R.ModifierBits).enabledMask());
    double T5 = nowSeconds();
    NativeMethod Native =
        generateCode(*IL, Opt.CodegenOptions, Plan.Level, Cost);
    double T6 = nowSeconds();

    S.PrehookS += T1 - T0;
    S.IlS += T2 - T1;
    S.AnnotateS += T3 - T2;
    S.ExtractS += T4 - T3;
    S.OptimizeS += T5 - T4;
    S.CodegenS += T6 - T5;
    ++S.IlCalls;
    ++S.Compiles;
    S.EntriesRun += Opt.EntriesRun;
    S.NativeInsts += Native.totalInsts();

    double Cycles = Opt.CompileCycles + Native.CompileCycles;
    bool Same = IntegerCycles
                    ? (double)std::llround(Cycles) == R.CompileCycles
                    : std::memcmp(&Cycles, &R.CompileCycles,
                                  sizeof(double)) == 0;
    if (!Same)
      ++S.CycleMismatches;
    if (!(Features == R.Features))
      ++S.FeatureMismatches;
  }

  if (T.enabled() && !Records.empty()) {
    // One aggregated span per layer: the calls ran back to back, so each
    // span's duration is that layer's replayed total for this batch.
    double At = Begin;
    auto Emit = [&](const char *Stage, double Dur, uint64_t Calls) {
      if (Calls == 0)
        return;
      Span Sp;
      Sp.Stage = Stage;
      Sp.Start = At;
      Sp.End = At + Dur;
      Sp.Parent = Parent;
      Sp.RunId = RunId;
      Sp.Items = (int64_t)Calls;
      Sp.Replay = true;
      Sp.Ok = S.CycleMismatches == 0 && S.FeatureMismatches == 0;
      T.add(Sp);
      At += Dur;
    };
    Emit("features.prehook", S.PrehookS, Hooked ? S.Compiles : 0);
    Emit("il.generate", S.IlS, S.Compiles);
    Emit("il.annotate", S.AnnotateS, S.Compiles);
    Emit("features.extract", S.ExtractS, S.Compiles);
    Emit("opt.optimize", S.OptimizeS, S.Compiles);
    Emit("codegen.generate", S.CodegenS, S.Compiles);
  }
  return S;
}

void setReplayMetrics(const ReplayStats &R, Outcome &Out) {
  Out.set("il.generate_s", R.IlS, "s");
  Out.set("il.annotate_s", R.AnnotateS, "s");
  Out.set("il.generate_calls", (double)R.IlCalls, "count");
  Out.set("features.extract_s", R.ExtractS, "s");
  Out.set("features.prehook_s", R.PrehookS, "s");
  Out.set("opt.optimize_s", R.OptimizeS, "s");
  Out.set("opt.entries_run", (double)R.EntriesRun, "count");
  Out.set("codegen.generate_s", R.CodegenS, "s");
  Out.set("codegen.native_insts", (double)R.NativeInsts, "count");
  Out.set("replay.mismatches",
          (double)(R.CycleMismatches + R.FeatureMismatches), "count");
}

} // namespace perfbench
