//===- tests/ChaosTest.cpp - deterministic fault injection + chaos --------===//
//
// Two layers of coverage for support/FaultInjection:
//
//  * FaultInjection.*: the mechanism itself — spec parsing, the four
//    schedule modes, seeded replay, glob binding, telemetry mirroring.
//  * Chaos.*: faults swept through the real subsystems, asserting the
//    invariants the design docs promise: results bit-identical to the
//    no-fault run whenever fallback engages, no deadlock on queue
//    drain/close under injected stalls, and telemetry counters consistent
//    with the injected fault counts.
//
// The concurrent Chaos scenarios also run under TSan (scripts/tier1.sh).
// Every test arms through FaultGuard, so no schedule outlives its test.
//
//===----------------------------------------------------------------------===//

#include "bridge/ModelService.h"
#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "jitml/LearnedStrategy.h"
#include "runtime/AsyncCompiler.h"
#include "runtime/CodeCache.h"
#include "runtime/CompilationQueue.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workload.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unistd.h>

using namespace jitml;

namespace {

/// Arms a spec for the duration of one scope; disarms on exit even when an
/// assertion fails, so no schedule leaks into later tests.
struct FaultGuard {
  explicit FaultGuard(const std::string &Spec, uint64_t Seed = 0) {
    EXPECT_TRUE(FaultRegistry::global().arm(Spec, Seed)) << Spec;
  }
  ~FaultGuard() { FaultRegistry::global().disarm(); }
};

uint64_t fires(const char *Name) {
  return FaultRegistry::global().fires(Name);
}

uint64_t hits(const char *Name) {
  return FaultRegistry::global().hits(Name);
}

double elapsedMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

ResilientModelClient::Config fastConfig() {
  ResilientModelClient::Config C;
  C.RequestTimeoutMs = 50;
  C.MaxAttempts = 2;
  C.InitialBackoffMs = 1;
  return C;
}

/// Healthy echo backend: modifier = sum of features + level.
class StubBackend : public ModelBackend {
public:
  std::optional<uint64_t>
  predictModifier(OptLevel Level,
                  const std::vector<double> &RawFeatures) override {
    uint64_t Sum = (uint64_t)Level;
    for (double V : RawFeatures)
      Sum += (uint64_t)V;
    ++Served;
    return Sum;
  }
  uint64_t Served = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// FaultInjection: the mechanism
//===----------------------------------------------------------------------===//

TEST(FaultInjection, SpecParsesModesAndArgs) {
  std::vector<FaultRule> Rules;
  std::string Error;
  ASSERT_TRUE(FaultRegistry::parseSpec(
      "a=always;b.*=p0.25;c=n3:7;d=k2;;e=p1", Rules, &Error))
      << Error;
  ASSERT_EQ(Rules.size(), 5u);
  EXPECT_EQ(Rules[0].Pattern, "a");
  EXPECT_EQ(Rules[0].Mode, FaultMode::Always);
  EXPECT_FALSE(Rules[0].HasArg);
  EXPECT_EQ(Rules[1].Pattern, "b.*");
  EXPECT_EQ(Rules[1].Mode, FaultMode::Prob);
  EXPECT_DOUBLE_EQ(Rules[1].P, 0.25);
  EXPECT_EQ(Rules[2].Mode, FaultMode::EveryNth);
  EXPECT_EQ(Rules[2].N, 3u);
  EXPECT_TRUE(Rules[2].HasArg);
  EXPECT_EQ(Rules[2].Arg, 7u);
  EXPECT_EQ(Rules[3].Mode, FaultMode::OneShot);
  EXPECT_EQ(Rules[3].N, 2u);
  EXPECT_DOUBLE_EQ(Rules[4].P, 1.0);

  for (const char *Bad :
       {"", "x", "x=", "=always", "x=p2", "x=p-0.5", "x=n0", "x=k0",
        "x=q5", "x=always:beef", "x=pabc", "x=nxyz"}) {
    Error.clear();
    EXPECT_FALSE(FaultRegistry::parseSpec(Bad, Rules, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

TEST(FaultInjection, DisabledPointsAreInertAndUncounted) {
  FaultRegistry::global().disarm();
  ASSERT_FALSE(faultsArmed());
  uint64_t Before = hits("chaos.test.inert");
  int Fired = 0;
  for (int I = 0; I < 100; ++I)
    if (JITML_FAULT_POINT("chaos.test.inert"))
      ++Fired;
  EXPECT_EQ(Fired, 0);
  EXPECT_EQ(hits("chaos.test.inert"), Before); // fast path: not even counted
}

TEST(FaultInjection, EveryNthAndOneShotSchedules) {
  FaultGuard G("chaos.test.nth=n3;chaos.test.oneshot=k2");
  std::vector<int> NthFired, OneShotFired;
  for (int I = 1; I <= 9; ++I) {
    if (JITML_FAULT_POINT("chaos.test.nth"))
      NthFired.push_back(I);
    if (JITML_FAULT_POINT("chaos.test.oneshot"))
      OneShotFired.push_back(I);
  }
  EXPECT_EQ(NthFired, (std::vector<int>{3, 6, 9}));
  EXPECT_EQ(OneShotFired, (std::vector<int>{2}));
  EXPECT_EQ(hits("chaos.test.nth"), 9u);
  EXPECT_EQ(fires("chaos.test.nth"), 3u);
  EXPECT_EQ(fires("chaos.test.oneshot"), 1u);
}

TEST(FaultInjection, AlwaysAndProbabilityEndpoints) {
  FaultGuard G("chaos.test.palways=always;chaos.test.pzero=p0;"
               "chaos.test.pone=p1");
  int Always = 0, Zero = 0, One = 0;
  for (int I = 0; I < 200; ++I) {
    if (JITML_FAULT_POINT("chaos.test.palways"))
      ++Always;
    if (JITML_FAULT_POINT("chaos.test.pzero"))
      ++Zero;
    if (JITML_FAULT_POINT("chaos.test.pone"))
      ++One;
  }
  EXPECT_EQ(Always, 200);
  EXPECT_EQ(Zero, 0);
  EXPECT_EQ(One, 200);
  EXPECT_EQ(hits("chaos.test.pzero"), 200u); // hit-counted even if never fired
}

TEST(FaultInjection, ReplaySameSeedIdenticalSequence) {
  // The acceptance contract: whether a hit fires is a pure function of
  // (seed, name, ordinal), so the same spec + seed replays bit-identically.
  auto Collect = [](uint64_t Seed) {
    FaultGuard G("chaos.test.replay=p0.3", Seed);
    std::vector<bool> Fired;
    Fired.reserve(500);
    for (int I = 0; I < 500; ++I)
      Fired.push_back(JITML_FAULT_POINT("chaos.test.replay"));
    return Fired;
  };
  std::vector<bool> A = Collect(42);
  std::vector<bool> B = Collect(42);
  std::vector<bool> C = Collect(43);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  size_t Fires = (size_t)std::count(A.begin(), A.end(), true);
  EXPECT_GT(Fires, 75u); // ~150 expected; bounds are 6-sigma-loose
  EXPECT_LT(Fires, 250u);
}

TEST(FaultInjection, WildcardFirstMatchWins) {
  {
    // The glob comes first: it governs every chaos.wild.* point.
    FaultGuard G("chaos.wild.*=always;chaos.wild.b=p0");
    EXPECT_TRUE(JITML_FAULT_POINT("chaos.wild.a"));
    EXPECT_TRUE(JITML_FAULT_POINT("chaos.wild.b"));
  }
  {
    // The exact rule comes first: it shields b from the glob.
    FaultGuard G("chaos.wild.b=p0;chaos.wild.*=always");
    EXPECT_TRUE(JITML_FAULT_POINT("chaos.wild.a"));
    EXPECT_FALSE(JITML_FAULT_POINT("chaos.wild.b"));
  }
}

TEST(FaultInjection, ArgOverridesCallerDefault) {
  FaultGuard G("chaos.test.witharg=always:25;chaos.test.noarg=always");
  uint64_t V = 3;
  EXPECT_TRUE(JITML_FAULT_POINT_ARG("chaos.test.witharg", V));
  EXPECT_EQ(V, 25u);
  uint64_t W = 3;
  EXPECT_TRUE(JITML_FAULT_POINT_ARG("chaos.test.noarg", W));
  EXPECT_EQ(W, 3u); // rule carries no arg: caller default survives
}

TEST(FaultInjection, TelemetryMirrorsFireCounts) {
  FaultGuard G("chaos.test.mirror=n2");
  for (int I = 0; I < 10; ++I)
    (void)JITML_FAULT_POINT("chaos.test.mirror");
  EXPECT_EQ(fires("chaos.test.mirror"), 5u);
  EXPECT_EQ(MetricRegistry::global().counter("fault.chaos.test.mirror").value(),
            5u);
  std::vector<FaultPointStats> Snap = FaultRegistry::global().snapshot();
  bool Found = false;
  for (const FaultPointStats &S : Snap)
    if (S.Name == "chaos.test.mirror") {
      Found = true;
      EXPECT_EQ(S.Hits, 10u);
      EXPECT_EQ(S.Fires, 5u);
    }
  EXPECT_TRUE(Found);
}

TEST(FaultInjection, BadSpecKeepsPreviousSchedule) {
  FaultGuard G("chaos.test.keep=always");
  EXPECT_TRUE(JITML_FAULT_POINT("chaos.test.keep"));
  EXPECT_FALSE(FaultRegistry::global().arm("not a spec", 0));
  EXPECT_TRUE(faultsArmed());
  EXPECT_TRUE(JITML_FAULT_POINT("chaos.test.keep")); // old schedule intact
}

TEST(FaultInjection, RearmResetsOrdinals) {
  // Ordinals restart at 1 on every arm(): a k1 one-shot fires again.
  {
    FaultGuard G("chaos.test.rearm=k1");
    EXPECT_TRUE(JITML_FAULT_POINT("chaos.test.rearm"));
    EXPECT_FALSE(JITML_FAULT_POINT("chaos.test.rearm"));
  }
  {
    FaultGuard G("chaos.test.rearm=k1");
    EXPECT_TRUE(JITML_FAULT_POINT("chaos.test.rearm"));
    EXPECT_EQ(hits("chaos.test.rearm"), 1u); // counters were reset too
  }
}

//===----------------------------------------------------------------------===//
// Chaos: faults through the real subsystems
//===----------------------------------------------------------------------===//

TEST(Chaos, ForcedFallbackPreservesVmResultsBitIdentically) {
  // The design promise: when the bridge degrades to the default plan, the
  // VM's results AND its simulated clock are bit-identical to a run that
  // never had a model attached (a null modifier IS the default plan).
  Program P;
  uint32_t Method = jitml::testing::addSumToN(P);
  ASSERT_TRUE(verifyProgram(P).ok());

  VirtualMachine::Config Cfg;
  std::vector<int64_t> BaselineResults;
  VirtualMachine Baseline(P, Cfg);
  for (int I = 0; I < 10; ++I) {
    Baseline.compileMethod(Method, I % 2 ? OptLevel::Warm : OptLevel::Cold);
    ExecResult R = Baseline.invoke(Method, {Value::ofI(10 + I)});
    ASSERT_FALSE(R.Exceptional);
    BaselineResults.push_back(R.Ret.I);
  }

  // Same run, but through a healthy model service whose answers are all
  // forced into fallback. CacheCapacity 0 keeps every request live.
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  InProcessPipe *ServerRaw = ServerEnd.get();
  std::thread Server([ServerRaw, &Backend] { serveModel(*ServerRaw, Backend); });
  ResilientModelClient::Config CC = fastConfig();
  CC.CacheCapacity = 0;
  ResilientModelClient Client(std::move(ClientEnd), CC);

  FaultGuard G("client.request.fallback=always");
  VirtualMachine VM(P, Cfg);
  VM.setModifierHook(makeResilientHook(Client));
  for (int I = 0; I < 10; ++I) {
    VM.compileMethod(Method, I % 2 ? OptLevel::Warm : OptLevel::Cold);
    ExecResult R = VM.invoke(Method, {Value::ofI(10 + I)});
    ASSERT_FALSE(R.Exceptional);
    EXPECT_EQ(R.Ret.I, BaselineResults[(size_t)I]);
  }
  EXPECT_DOUBLE_EQ(VM.clock().cycles(), Baseline.clock().cycles());
  EXPECT_EQ(VM.stats().Compilations, Baseline.stats().Compilations);

  // Telemetry consistency: every injected fault is a counted fallback, and
  // nothing ever reached the backend.
  BridgeCounters C = Client.counters();
  EXPECT_GT(fires("client.request.fallback"), 0u);
  EXPECT_EQ(C.Fallbacks, fires("client.request.fallback"));
  EXPECT_EQ(C.WireRequests, 0u);
  EXPECT_EQ(Backend.Served, 0u);
  Client.bye();
  Server.join();
}

TEST(Chaos, ForcedTimeoutFallsBackWithinDeadline) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  StubBackend Backend;
  InProcessPipe *ServerRaw = ServerEnd.get();
  std::thread Server([ServerRaw, &Backend] { serveModel(*ServerRaw, Backend); });
  ResilientModelClient Client(std::move(ClientEnd), fastConfig());

  FaultGuard G("client.request.timeout=always");
  FeatureVector F;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Client.requestModifier(OptLevel::Cold, F).has_value());
  EXPECT_LT(elapsedMs(Start), 2000.0) << "forced timeout must not hang";
  BridgeCounters C = Client.counters();
  EXPECT_GE(C.Timeouts, 1u);
  EXPECT_EQ(C.Timeouts, fires("client.request.timeout"));
  EXPECT_EQ(C.Fallbacks, 1u);
  EXPECT_FALSE(Client.usable()); // dropped connection, no factory
  Server.join();                 // the dropped pipe ends serveModel
}

TEST(Chaos, ConnectFaultExhaustsRetriesThenFallsBack) {
  // Every reconnect attempt is vetoed: the factory is never invoked and
  // the request degrades after MaxAttempts.
  int FactoryCalls = 0;
  auto Factory = [&]() -> std::unique_ptr<Transport> {
    ++FactoryCalls;
    return nullptr;
  };
  ResilientModelClient Client(Factory, fastConfig());
  FaultGuard G("client.connect.fail=always");
  FeatureVector F;
  EXPECT_FALSE(Client.requestModifier(OptLevel::Cold, F).has_value());
  EXPECT_EQ(FactoryCalls, 0);
  EXPECT_EQ(hits("client.connect.fail"), 2u); // one per attempt
  EXPECT_EQ(Client.counters().Fallbacks, 1u);
}

TEST(Chaos, TransportFaultsSurfaceAsCleanStatuses) {
  {
    FaultGuard G("transport.read.timeout=always");
    auto [A, B] = InProcessPipe::makePair();
    Message M;
    M.Type = MsgType::Bye;
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    EXPECT_EQ(recvMessageFor(*B, Out, 1000), RecvStatus::Timeout);
  }
  {
    FaultGuard G("transport.write.fail=always");
    auto [A, B] = InProcessPipe::makePair();
    Message M;
    M.Type = MsgType::Bye;
    EXPECT_FALSE(sendMessage(*A, M));
  }
  {
    FaultGuard G("transport.read.short=always");
    auto [A, B] = InProcessPipe::makePair();
    Message M;
    M.Type = MsgType::Bye;
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    EXPECT_FALSE(recvMessage(*B, Out));
  }
  {
    // Delayed delivery: the reply arrives late but intact.
    FaultGuard G("transport.read.delay=k1:40");
    auto [A, B] = InProcessPipe::makePair();
    Message M;
    M.Type = MsgType::Modifier;
    M.ModifierBits = 99;
    ASSERT_TRUE(sendMessage(*A, M));
    Message Out;
    auto Start = std::chrono::steady_clock::now();
    EXPECT_EQ(recvMessageFor(*B, Out, 5000), RecvStatus::Ok);
    EXPECT_GE(elapsedMs(Start), 35.0);
    EXPECT_EQ(Out.ModifierBits, 99u);
  }
}

TEST(Chaos, FrameCorruptionRejectsCleanly) {
  // A flipped payload byte must never crash the decoder; a corrupted type
  // byte (Bye=5 -> 4=Error is harmless, so corrupt a Features frame's
  // level byte) decodes to a clean Malformed.
  FaultGuard G("bridge.frame.corrupt=always:1");
  auto [A, B] = InProcessPipe::makePair();
  Message M;
  M.Type = MsgType::Features;
  M.Level = (OptLevel)0;
  M.FeatureValues.assign(4, 1.0);
  ASSERT_TRUE(sendMessage(*A, M));
  Message Out;
  RecvStatus S = recvMessageFor(*B, Out, 1000);
  EXPECT_NE(S, RecvStatus::Timeout);
  EXPECT_NE(S, RecvStatus::Closed);
  EXPECT_EQ(fires("bridge.frame.corrupt"), 1u);
}

TEST(Chaos, FifoEintrStormStillDeliversBytes) {
  char Template[] = "/tmp/jitml_chaos_fifo_XXXXXX";
  std::string Dir = mkdtemp(Template);
  std::string ToServer = Dir + "/c2s";
  std::string ToClient = Dir + "/s2c";
  ASSERT_TRUE(FifoTransport::createPipes(ToServer, ToClient));
  std::unique_ptr<FifoTransport> ServerT;
  std::thread Opener([&] {
    ServerT = FifoTransport::open(ToServer, ToClient, /*IsServer=*/true);
  });
  auto T = FifoTransport::open(ToServer, ToClient, /*IsServer=*/false);
  Opener.join();
  ASSERT_NE(T, nullptr);
  ASSERT_NE(ServerT, nullptr);

  // p0.4 EINTR storm on every read/write/poll iteration: progress must
  // still happen and the bytes must arrive intact and in order. The
  // schedule is deterministic (fixed seed), and 16 chunks cross the point
  // often enough that the seed-7 schedule is known to fire.
  FaultGuard G("transport.fifo.eintr=p0.4", /*Seed=*/7);
  for (int Chunk = 0; Chunk < 16; ++Chunk) {
    uint8_t Data[64];
    for (unsigned I = 0; I < sizeof(Data); ++I)
      Data[I] = (uint8_t)(I * 3 + Chunk);
    ASSERT_TRUE(ServerT->writeBytes(Data, sizeof(Data)));
    uint8_t Got[64] = {0};
    ASSERT_EQ(T->readBytesFor(Got, sizeof(Got), 5000), IoStatus::Ok);
    ASSERT_EQ(std::memcmp(Data, Got, sizeof(Data)), 0) << "chunk " << Chunk;
  }
  EXPECT_GT(hits("transport.fifo.eintr"), 32u);
  EXPECT_GT(fires("transport.fifo.eintr"), 0u);

  ServerT.reset();
  T.reset();
  ::unlink(ToServer.c_str());
  ::unlink(ToClient.c_str());
  ::rmdir(Dir.c_str());
}

TEST(Chaos, ForcedOverflowKeepsVmCorrectAndCounted) {
  // Every other enqueue is vetoed; execution must carry on interpreted
  // with results identical to the interpreter, and the VM's overflow
  // statistics must equal the injected fault count exactly.
  Program P;
  std::vector<uint32_t> Methods;
  for (int I = 0; I < 8; ++I)
    Methods.push_back(
        jitml::testing::addSumToN(P, ("m" + std::to_string(I)).c_str()));
  ASSERT_TRUE(verifyProgram(P).ok());

  VirtualMachine::Config InterpCfg;
  InterpCfg.EnableJit = false;
  VirtualMachine Interp(P, InterpCfg);
  std::vector<int64_t> Expected;
  for (uint32_t M : Methods)
    Expected.push_back(Interp.invoke(M, {Value::ofI(10)}).Ret.I);

  FaultGuard G("queue.enqueue.overflow=n2");
  VirtualMachine::Config Cfg;
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    for (unsigned K = 0; K < 3; ++K)
      Cfg.Control.InvocationTriggers[L][K] = (L < 2) ? 2 : 1000000;
    Cfg.Control.CycleTriggers[L] = 1e18;
  }
  Cfg.Async.Enabled = true;
  Cfg.Async.Workers = 2;
  Cfg.Async.QueueCapacity = 64;
  {
    VirtualMachine VM(P, Cfg);
    for (int Round = 0; Round < 6; ++Round)
      for (size_t I = 0; I < Methods.size(); ++I) {
        ExecResult R = VM.invoke(Methods[I], {Value::ofI(10)});
        ASSERT_FALSE(R.Exceptional);
        ASSERT_EQ(R.Ret.I, Expected[I]);
      }
    VM.drainCompilations();
    EXPECT_GT(VM.stats().AsyncQueueOverflows, 0u);
    EXPECT_EQ(VM.stats().AsyncQueueOverflows,
              fires("queue.enqueue.overflow"));
  } // ~VM shuts the pipeline down while the schedule is still armed
}

TEST(Chaos, DrainAndCloseSurviveInjectedStalls) {
  // Worker stalls and dequeue stalls widen every drain/close race window;
  // the pipeline must still reach quiescence with every completion
  // delivered. The ctest timeout is the deadlock detector.
  Program P;
  std::vector<uint32_t> Methods;
  for (int I = 0; I < 6; ++I)
    Methods.push_back(
        jitml::testing::addSumToN(P, ("s" + std::to_string(I)).c_str()));
  ASSERT_TRUE(verifyProgram(P).ok());

  FaultGuard G("pipeline.worker.stall=p0.5:2;queue.dequeue.stall=p0.5:2",
               /*Seed=*/11);
  CostModel Cost;
  CodeCache Cache;
  Cache.reset(P.numMethods());
  AsyncCompilePipeline::Config C;
  C.Workers = 2;
  C.MaxPredictBatch = 2;
  size_t Completions = 0;
  {
    AsyncCompilePipeline Pipe(P, Cost, Cache, C);
    for (uint32_t M : Methods)
      ASSERT_EQ(Pipe.request(M, OptLevel::Warm, false, 1),
                CompilationQueue::EnqueueResult::Enqueued);
    Pipe.drain();
    Completions += Pipe.takeCompletions().size();
    for (uint32_t M : Methods)
      Pipe.request(M, OptLevel::Hot, false, 2);
    Pipe.shutdown(/*FinishPending=*/true);
    Completions += Pipe.takeCompletions().size();
  }
  EXPECT_EQ(Completions, Methods.size() * 2);
  for (uint32_t M : Methods)
    EXPECT_NE(Cache.lookup(M), nullptr);
  EXPECT_GT(fires("pipeline.worker.stall") + fires("queue.dequeue.stall"),
            0u);
}

TEST(Chaos, ForcedStaleInstallIsRejectedWithoutPoisoningSlot) {
  FaultGuard G("cache.install.stale=k1");
  CodeCache Cache;
  Cache.reset(1);
  auto Body = [](OptLevel L) {
    auto B = std::make_unique<NativeMethod>();
    B->Level = L;
    return B;
  };
  // First install is forced stale: rejected, retired, counted.
  EXPECT_FALSE(Cache.install(0, Body(OptLevel::Cold), 1));
  EXPECT_EQ(Cache.lookup(0), nullptr);
  EXPECT_EQ(Cache.staleRejected(), 1u);
  EXPECT_EQ(Cache.retiredCount(), 1u);
  EXPECT_EQ(fires("cache.install.stale"), 1u);
  // The slot is not poisoned: the same ticket later installs fine.
  EXPECT_TRUE(Cache.install(0, Body(OptLevel::Warm), 1));
  ASSERT_NE(Cache.lookup(0), nullptr);
  EXPECT_EQ(Cache.lookup(0)->Level, OptLevel::Warm);
}

TEST(Chaos, DeferredReclamationAccumulatesThenDrains) {
  CodeCache Cache;
  Cache.reset(1);
  auto Body = [] {
    auto B = std::make_unique<NativeMethod>();
    return B;
  };
  ASSERT_TRUE(Cache.install(0, Body(), 1));
  ASSERT_TRUE(Cache.install(0, Body(), 2)); // retires the first body
  {
    FaultGuard G("cache.reclaim.defer=always");
    Cache.reclaimRetired();
    EXPECT_EQ(Cache.retiredCount(), 1u); // reclamation pressure persists
  }
  Cache.reclaimRetired(); // disarmed: drains normally
  EXPECT_EQ(Cache.retiredCount(), 0u);
}

TEST(Chaos, PoolTaskDelayDoesNotBreakParallelFor) {
  FaultGuard G("pool.task.delay=p0.3:2", /*Seed=*/5);
  std::vector<std::atomic<int>> Touched(64);
  parallelFor(
      Touched.size(),
      [&](size_t I) { Touched[I].fetch_add(1, std::memory_order_relaxed); },
      /*Jobs=*/4);
  for (size_t I = 0; I < Touched.size(); ++I)
    EXPECT_EQ(Touched[I].load(), 1) << "index " << I;
}

TEST(Chaos, TraceSinkFailureDegradesToCountersOnly) {
  TraceEmitter Emitter(/*RingCapacity=*/64);
  std::atomic<uint64_t> SinkCalls{0};
  ASSERT_TRUE(Emitter.openWithSink([&](const char *, size_t) {
    SinkCalls.fetch_add(1);
    return true;
  }));
  ASSERT_TRUE(Emitter.enabled());

  FaultGuard G("trace.sink.fail=always");
  TraceEvent E;
  E.Stage = "chaos";
  Emitter.record(E);
  Emitter.flushNow(); // forced write failure -> failOnce degradation
  EXPECT_FALSE(Emitter.enabled());
  EXPECT_EQ(Emitter.eventsWritten(), 0u);
  EXPECT_EQ(SinkCalls.load(), 0u); // the fault preempted the sink

  // Counters-only operation continues: recording is a silent no-op.
  Emitter.record(E);
  MetricRegistry::global().counter("chaos.survived").add();
  EXPECT_GE(MetricRegistry::global().counter("chaos.survived").value(), 1u);
  Emitter.close();
}

TEST(Chaos, TraceRingFullDropsAndCounts) {
  TraceEmitter Emitter(/*RingCapacity=*/64);
  ASSERT_TRUE(
      Emitter.openWithSink([](const char *, size_t) { return true; }));
  FaultGuard G("trace.ring.full=always");
  uint64_t Before = Emitter.eventsDropped();
  TraceEvent E;
  E.Stage = "chaos";
  for (int I = 0; I < 10; ++I)
    Emitter.record(E);
  EXPECT_EQ(Emitter.eventsDropped(), Before + 10);
  Emitter.close();
  EXPECT_EQ(Emitter.eventsWritten(), 0u); // every event was dropped
}

TEST(Chaos, Fig6WorkloadSurvivesFaultSweepWithBaselineResults) {
  // Sweep an aggressive multi-point schedule over Fig. 6 workloads in
  // async mode: overflows skip compilations, stale installs are
  // rejected, workers stall — none of which may change any computed
  // result, because every degradation path falls back to a
  // semantics-preserving configuration.
  std::vector<WorkloadSpec> Suite = specJvm98Suite();
  ASSERT_FALSE(Suite.empty());
  Suite.resize(std::min<size_t>(Suite.size(), 3)); // keep the test quick

  std::vector<int64_t> Baseline;
  for (const WorkloadSpec &Spec : Suite) {
    Program P = buildWorkload(Spec);
    VirtualMachine::Config Cfg;
    Cfg.EnableJit = false;
    VirtualMachine VM(P, Cfg);
    ExecResult R = VM.run({Value::ofI(0)});
    ASSERT_FALSE(R.Exceptional) << Spec.Code;
    Baseline.push_back(R.Ret.I);
  }

  FaultGuard G("queue.enqueue.overflow=p0.2;pipeline.worker.stall=p0.3:1;"
               "cache.install.stale=n5;pool.task.delay=p0.2:1",
               /*Seed=*/2026);
  for (size_t I = 0; I < Suite.size(); ++I) {
    Program P = buildWorkload(Suite[I]);
    VirtualMachine::Config Cfg;
    Cfg.Async.Enabled = true;
    Cfg.Async.Workers = 2;
    Cfg.Async.QueueCapacity = 16;
    uint64_t FiresBefore = fires("queue.enqueue.overflow");
    VirtualMachine VM(P, Cfg);
    ExecResult R = VM.run({Value::ofI(0)});
    ASSERT_FALSE(R.Exceptional) << Suite[I].Code;
    EXPECT_EQ(R.Ret.I, Baseline[I]) << Suite[I].Code;
    VM.drainCompilations();
    // Real capacity overflows can add to the stat, so the injected fires
    // are a lower bound here; exact equality is pinned by
    // ForcedOverflowKeepsVmCorrectAndCounted on an uncontended queue.
    EXPECT_GE(VM.stats().AsyncQueueOverflows,
              fires("queue.enqueue.overflow") - FiresBefore);
  }
}

TEST(Chaos, SubsystemScheduleReplaysBitIdentically) {
  // System-level replay: the same seed + spec drives an identical
  // EnqueueResult sequence through a real CompilationQueue.
  auto Collect = [](uint64_t Seed) {
    FaultGuard G("queue.enqueue.overflow=p0.4", Seed);
    CompilationQueue Q(128);
    std::vector<int> Results;
    for (uint32_t I = 0; I < 100; ++I)
      Results.push_back((int)Q.enqueue(I, OptLevel::Cold, false, 1));
    Q.close(false);
    return Results;
  };
  std::vector<int> A = Collect(1234);
  std::vector<int> B = Collect(1234);
  std::vector<int> C = Collect(1235);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

//===----------------------------------------------------------------------===//
// Chaos: the serving daemon (src/serve)
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

namespace {

/// Minimal real ModelSet for the daemon: identity scaling, 2-class linear
/// model over Cold/Warm/Hot, label bits keyed off \p BitsBase.
ModelSet serveChaosModelSet(uint64_t BitsBase) {
  std::string ScalingText;
  for (unsigned I = 0; I < NumFeatures; ++I)
    ScalingText += std::to_string(I) + " 0 1\n";
  ModelSet Set;
  for (unsigned L = 0; L < 3; ++L) {
    LevelModel &LM = Set.Levels[L];
    EXPECT_TRUE(Scaling::fromText(ScalingText, LM.Scale));
    LM.Labels.labelFor(BitsBase + 10 * L + 1);
    LM.Labels.labelFor(BitsBase + 10 * L + 2);
    LM.Model = LinearModel(2, NumFeatures);
    LM.Model.weight(0, 0) = 1.0;
    LM.Model.weight(1, 1) = 1.0;
    LM.Valid = true;
  }
  return Set;
}

std::string serveChaosSocket(const char *Tag) {
  return "/tmp/jitml-chaos-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

FeatureVector serveChaosFeatures(unsigned I) {
  FeatureVector F;
  F.set(0, I % 2 ? 5 : 1);
  F.set(1, I % 2 ? 1 : 5);
  F.set(3, I);
  return F;
}

std::unique_ptr<ResilientModelClient>
serveChaosClient(const std::string &Path) {
  ResilientModelClient::Config C = fastConfig();
  C.RequestTimeoutMs = 10000; // the daemon answers; only EOFs degrade
  C.CacheCapacity = 0;
  return std::make_unique<ResilientModelClient>(
      [Path]() -> std::unique_ptr<Transport> {
        return SocketTransport::connect(Path);
      },
      C);
}

} // namespace

TEST(Chaos, ServeForcedShedIsCountedExactlyAndFallsBack) {
  // Every 3rd admission decision sheds. The shed requests must surface as
  // client-side fallbacks — never wrong bits — and the daemon's shed
  // counter must equal the fault point's fire count exactly.
  ModelRegistry Registry;
  Registry.install(serveChaosModelSet(100));
  ServeConfig Cfg;
  Cfg.SocketPath = serveChaosSocket("shed");
  Cfg.CacheCapacity = 0; // admission control sees every request
  ModelServer Server(Registry, Cfg);
  ASSERT_TRUE(Server.start());
  std::shared_ptr<const ServeModel> M = Registry.snapshot();

  FaultGuard G("serve.shed=n3");
  auto Client = serveChaosClient(Cfg.SocketPath);
  constexpr unsigned N = 30;
  unsigned Fallbacks = 0, Wrong = 0;
  for (unsigned I = 0; I < N; ++I) {
    FeatureVector F = serveChaosFeatures(I);
    std::optional<uint64_t> Got =
        Client->requestModifier(OptLevel::Warm, F);
    if (!Got)
      ++Fallbacks;
    else if (*Got != *M->predict(OptLevel::Warm, F))
      ++Wrong;
  }
  Client.reset();
  Server.stop();

  EXPECT_EQ(Wrong, 0u);
  EXPECT_EQ(hits("serve.shed"), (uint64_t)N);
  EXPECT_EQ(fires("serve.shed"), (uint64_t)(N / 3));
  ModelServer::Stats S = Server.stats();
  EXPECT_EQ(S.Shed, fires("serve.shed"));
  EXPECT_EQ((uint64_t)Fallbacks, S.Shed);
  EXPECT_EQ(S.Served, (uint64_t)(N - N / 3));
}

TEST(Chaos, ServeShedIsNeverCachedAsNoModel) {
  // A shed is transient: a client with the default config (cache on,
  // error replies cached) must not remember it as "no model". The same
  // request right after the one forced shed gets the model's answer.
  ModelRegistry Registry;
  Registry.install(serveChaosModelSet(100));
  ServeConfig Cfg;
  Cfg.SocketPath = serveChaosSocket("shedcache");
  Cfg.CacheCapacity = 0;
  ModelServer Server(Registry, Cfg);
  ASSERT_TRUE(Server.start());
  std::shared_ptr<const ServeModel> M = Registry.snapshot();
  std::string Path = Cfg.SocketPath;
  ResilientModelClient::Config CC; // default cache settings
  CC.RequestTimeoutMs = 10000;     // sanitizer builds are slow
  ResilientModelClient Client(
      [Path]() -> std::unique_ptr<Transport> {
        return SocketTransport::connect(Path);
      },
      CC);

  FaultGuard G("serve.shed=k1");
  FeatureVector F = serveChaosFeatures(7);
  EXPECT_FALSE(Client.requestModifier(OptLevel::Warm, F).has_value());
  std::optional<uint64_t> Second = Client.requestModifier(OptLevel::Warm, F);
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(Second, M->predict(OptLevel::Warm, F));
  EXPECT_EQ(Server.stats().Shed, 1u);
  BridgeCounters C = Client.counters();
  EXPECT_EQ(C.CacheHits, 0u);
  EXPECT_EQ(C.ErrorReplies, 1u);
  Client.bye();
  Server.stop();
}

TEST(Chaos, ServeReloadFailureKeepsPriorModelServing) {
  // A reload that tears mid-read must leave the prior version serving:
  // reloadFromFile reports failure, the version stays, clients keep
  // getting the old bits.
  ModelRegistry Registry;
  uint64_t V1 = Registry.install(serveChaosModelSet(100));
  ServeConfig Cfg;
  Cfg.SocketPath = serveChaosSocket("reload");
  ModelServer Server(Registry, Cfg);
  ASSERT_TRUE(Server.start());

  std::string Path = serveChaosSocket("reload-bundle") + ".txt";
  std::string Bundle = ModelRegistry::bundleText(serveChaosModelSet(500));
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fwrite(Bundle.data(), 1, Bundle.size(), F);
  std::fclose(F);

  {
    FaultGuard G("serve.reload.torn=always");
    EXPECT_FALSE(Registry.reloadFromFile(Path)); // valid file, torn read
    EXPECT_GE(fires("serve.reload.torn"), 1u);
    EXPECT_EQ(Registry.version(), V1);
    EXPECT_EQ(Registry.reloadFailures(), 1u);

    auto Client = serveChaosClient(Cfg.SocketPath);
    std::optional<uint64_t> Got =
        Client->requestModifier(OptLevel::Cold, serveChaosFeatures(1));
    ASSERT_TRUE(Got.has_value());
    EXPECT_TRUE(*Got >= 100 && *Got < 130) << *Got; // version A bits
  }

  // Fault cleared: the same file now installs, and new answers use it.
  EXPECT_TRUE(Registry.reloadFromFile(Path));
  EXPECT_GT(Registry.version(), V1);
  auto Client = serveChaosClient(Cfg.SocketPath);
  std::optional<uint64_t> Got =
      Client->requestModifier(OptLevel::Cold, serveChaosFeatures(2));
  ASSERT_TRUE(Got.has_value());
  EXPECT_TRUE(*Got >= 500 && *Got < 530) << *Got; // version B bits
  Server.stop();
  std::remove(Path.c_str());
}

TEST(Chaos, ServeAcceptFailStormLeavesExistingSessionsIntact) {
  // An accept-failure storm must only affect NEW connections: the victims
  // see a clean EOF and degrade to fallback, established sessions keep
  // answering correctly, and the daemon recovers the moment the storm
  // passes.
  ModelRegistry Registry;
  Registry.install(serveChaosModelSet(100));
  ServeConfig Cfg;
  Cfg.SocketPath = serveChaosSocket("acceptfail");
  ModelServer Server(Registry, Cfg);
  ASSERT_TRUE(Server.start());
  std::shared_ptr<const ServeModel> M = Registry.snapshot();

  auto Established = serveChaosClient(Cfg.SocketPath);
  FeatureVector F0 = serveChaosFeatures(0);
  ASSERT_EQ(Established->requestModifier(OptLevel::Hot, F0),
            M->predict(OptLevel::Hot, F0));

  {
    FaultGuard G("serve.accept.fail=always");
    // New connections die at accept: clean fallback, no wrong bits.
    ResilientModelClient::Config C = fastConfig();
    C.CacheCapacity = 0;
    ResilientModelClient Victim(
        [&]() -> std::unique_ptr<Transport> {
          return SocketTransport::connect(Cfg.SocketPath);
        },
        C);
    EXPECT_FALSE(Victim.requestModifier(OptLevel::Warm,
                                        serveChaosFeatures(1))
                     .has_value());
    EXPECT_GE(fires("serve.accept.fail"), 1u);

    // The established session rides out the storm untouched.
    for (unsigned I = 2; I < 12; ++I) {
      FeatureVector F = serveChaosFeatures(I);
      EXPECT_EQ(Established->requestModifier(OptLevel::Hot, F),
                M->predict(OptLevel::Hot, F))
          << "request " << I;
    }
  }

  // Storm over: fresh connections serve again.
  auto Fresh = serveChaosClient(Cfg.SocketPath);
  FeatureVector F9 = serveChaosFeatures(99);
  EXPECT_EQ(Fresh->requestModifier(OptLevel::Cold, F9),
            M->predict(OptLevel::Cold, F9));
  ModelServer::Stats S = Server.stats();
  EXPECT_GE(S.AcceptFails, 1u);
  EXPECT_GE(S.Accepts, 2u);
  Server.stop();
}
