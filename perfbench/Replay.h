//===- perfbench/Replay.h - Re-running recorded compiles per layer -*-C++-*-===//
///
/// \file
/// The compile layers (il, features, opt, codegen) run inside
/// VirtualMachine::run, where the benchmark cannot time them without
/// adding timers to the runtime. Compilation is a pure function of
/// (program, method, plan, modifier, cost model), so the traced run
/// records each compile the VM made and re-runs it afterwards through the
/// same public calls compileMethodBody makes, timing each call. The
/// replayed simulated compile cycles must equal the VM's bit for bit; a
/// difference means the replay did not measure the work the VM did.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_PERFBENCH_REPLAY_H
#define JITML_PERFBENCH_REPLAY_H

#include "Bench.h"

#include "bytecode/Program.h"
#include "features/FeatureVector.h"
#include "opt/Plan.h"

namespace perfbench {

/// One compile as the VM made it.
struct CompileRecord {
  uint32_t Method = 0;
  jitml::OptLevel Level = jitml::OptLevel::Cold;
  uint64_t ModifierBits = 0;
  /// The VM's simulated compile cycles (CompileEvent.CompileCycles, or the
  /// archive's integer rounding of it).
  double CompileCycles = 0.0;
  jitml::FeatureVector Features;
};

/// Per-layer totals of a replay.
struct ReplayStats {
  uint64_t Compiles = 0;
  uint64_t CycleMismatches = 0;   ///< replayed cycles != recorded cycles
  uint64_t FeatureMismatches = 0; ///< replayed features != recorded ones
  uint64_t IlCalls = 0;           ///< generateIL calls, prehook included
  uint64_t EntriesRun = 0;        ///< OptimizeResult::EntriesRun
  uint64_t NativeInsts = 0;       ///< generated instructions
  double IlS = 0.0;               ///< generateIL (compile path)
  double AnnotateS = 0.0;         ///< LoopInfo::annotateFrequencies
  double ExtractS = 0.0;          ///< extractFeatures (compile path)
  double OptimizeS = 0.0;
  double CodegenS = 0.0;
  double PrehookS = 0.0; ///< extractMethodFeatures before the hook

  double compileS() const {
    return IlS + AnnotateS + ExtractS + OptimizeS + CodegenS;
  }
  void add(const ReplayStats &O);
};

/// Replays \p Records of \p P. \p Hooked adds the extractMethodFeatures
/// call the VM makes before a modifier hook. \p IntegerCycles compares
/// against archive-rounded cycles. Aggregated replay spans (one per layer,
/// items = calls) go to \p T under \p Parent.
ReplayStats replayCompiles(const jitml::Program &P,
                           const std::vector<CompileRecord> &Records,
                           bool Hooked, bool IntegerCycles, Tracer &T,
                           int64_t Parent, uint32_t RunId);

/// Sets the il, features, opt and codegen metrics from a replay.
void setReplayMetrics(const ReplayStats &R, Outcome &Out);

} // namespace perfbench

#endif // JITML_PERFBENCH_REPLAY_H
