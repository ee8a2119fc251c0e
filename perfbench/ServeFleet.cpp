//===- perfbench/ServeFleet.cpp - The `serve_fleet` workload --------------===//
///
/// \file
/// A closed loop of C client connections (C = nproc - 1, so the daemon's
/// event loop keeps a core) against an in-process serve::ModelServer. Each
/// connection is a ResilientModelClient over SocketTransport; each client
/// replays the (level, features) streams recorded during set-up from
/// DaCapo start-up runs under the trained H1 models, benchmark after
/// benchmark in a seeded order: the first two clients share an order (and
/// so the same hot methods at the same time), the others follow another
/// one. Every ReloadEvery requests of the
/// first client the registry hot-reloads a bundle with the same content,
/// which bumps the version and invalidates the daemon's cache.
///
/// Every reply is compared with ServeModel::predict on the same model; a
/// fallback, a shed or a different answer is a failed request.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bridge/Message.h"
#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "harness/Experiment.h"
#include "harness/ModelStore.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace jitml;

namespace perfbench {
namespace {

constexpr unsigned RequestsPerClient = 30000;
constexpr unsigned ReloadEvery = 2000;

struct Request {
  OptLevel Level = OptLevel::Cold;
  FeatureVector Features;
  uint64_t Expected = 0; ///< ServeModel::predict's answer
};

struct Setup {
  ModelSet Served;
  std::string BundlePath;
  std::string ModelDigest;
  /// Per DaCapo benchmark: the compile-time requests of a start-up run
  /// that the served model answers.
  std::vector<std::vector<Request>> Recorded;
  std::vector<std::vector<Request>> Streams; ///< one per client
  std::vector<std::string> StreamNames;
  double BuildS = 0.0;
};

void buildSetup(const Options &O, const std::string &CacheDir, unsigned Clients,
                Setup &S, Outcome &Out) {
  removeTree(CacheDir);
  makeDirs(CacheDir);
  ::setenv("JITML_CACHE_DIR", CacheDir.c_str(), 1);
  ModelStore::Artifacts A = ModelStore::getOrBuild(/*Verbose=*/false);
  removeTree(CacheDir);
  S.Served = A.Sets.front();
  std::string Bundle = ModelRegistry::bundleText(S.Served);
  Digest MD;
  MD.str(Bundle);
  S.ModelDigest = MD.hex();
  S.BundlePath = O.RunDir + "/bundle.txt";
  std::ofstream(S.BundlePath) << Bundle;
  ModelRegistry Local;
  Local.install(S.Served);
  std::shared_ptr<const ServeModel> Model = Local.snapshot();

  // Record the streams: one start-up run per DaCapo benchmark with the
  // learned hook; keep the requests the model answers.
  const std::vector<WorkloadSpec> &Suite = daCapoSuite();
  S.Recorded.assign(Suite.size(), {});
  std::vector<int64_t> Ref(Suite.size()), Got(Suite.size());
  double B0 = nowSeconds();
  std::vector<Program> Programs(Suite.size());
  parallelFor(Suite.size(), [&](size_t B) {
    Programs[B] = buildWorkload(Suite[B]);
    Ref[B] = workloadChecksum(Programs[B], 1);
  });
  S.BuildS = nowSeconds() - B0;
  parallelFor(Suite.size(), [&](size_t B) {
    LearnedStrategyProvider Provider(S.Served);
    VirtualMachine::ModifierHook Learned = makeLearnedHook(Provider);
    VirtualMachine::Config Cfg;
    Cfg.Clock.Seed = mix64(O.Seed ^ Suite[B].Seed ^ 0x5e7e);
    VirtualMachine VM(Programs[B], Cfg);
    std::vector<Request> &Rec = S.Recorded[B];
    VM.setModifierHook([&](uint32_t M, OptLevel L, const FeatureVector &F) {
      if (std::optional<uint64_t> E = Model->predict(L, F))
        Rec.push_back(Request{L, F, *E});
      return Learned(M, L, F);
    });
    ExecResult R = VM.run({Value::ofI(0)});
    Got[B] = R.Exceptional ? ~Ref[B] : (int64_t)mix64((uint64_t)R.Ret.I);
  });
  size_t Recorded = 0;
  for (size_t B = 0; B < Suite.size(); ++B) {
    Out.check(Got[B] == Ref[B] && !S.Recorded[B].empty());
    Recorded += S.Recorded[B].size();
  }
  S.Streams.assign(Clients, {});
  S.StreamNames.assign(Clients, "");
  if (Recorded == 0)
    return;

  // The seeded draw: each client replays every benchmark's stream, one
  // benchmark after another, in a seeded order. Clients 0 and 1 share an
  // order (the same hot methods at the same time); the others follow a
  // second order that starts elsewhere.
  Rng R(mix64(O.Seed ^ 0xf1ee7));
  std::vector<size_t> Shared(Suite.size()), Other;
  for (size_t B = 0; B < Suite.size(); ++B)
    Shared[B] = B;
  for (size_t I = Shared.size() - 1; I > 0; --I)
    std::swap(Shared[I], Shared[(size_t)R.nextBelow(I + 1)]);
  Other = Shared;
  for (size_t I = Other.size() - 1; I > 0; --I)
    std::swap(Other[I], Other[(size_t)R.nextBelow(I + 1)]);
  if (Other.front() == Shared.front())
    std::rotate(Other.begin(), Other.begin() + 1, Other.end());
  for (unsigned C = 0; C < Clients; ++C) {
    const std::vector<size_t> &Order = C < 2 ? Shared : Other;
    std::vector<Request> &Dst = S.Streams[C];
    Dst.reserve(RequestsPerClient);
    for (size_t K = 0; Dst.size() < RequestsPerClient; ++K) {
      const std::vector<Request> &Src = S.Recorded[Order[K % Order.size()]];
      for (size_t I = 0; I < Src.size() && Dst.size() < RequestsPerClient; ++I)
        Dst.push_back(Src[I]);
    }
    for (size_t B : Order) {
      S.StreamNames[C] += S.StreamNames[C].empty() ? "" : ",";
      S.StreamNames[C] += Suite[B].Code;
    }
  }
}

ResilientModelClient::Config clientConfig() {
  ResilientModelClient::Config C;
  C.RequestTimeoutMs = 10000;
  C.CacheCapacity = 0;         // every request reaches the daemon
  C.CacheErrorReplies = false;
  return C;
}

/// What one pass of the closed loop measured.
struct PassResult {
  double Wall = 0.0;
  double P50Us = 0.0, P99Us = 0.0; ///< over every request of every client
  std::vector<double> ReloadMs;
  uint64_t Failed = 0;
  uint64_t Requests = 0;
  std::string Digest;
};

PassResult runPass(const Setup &S, ModelRegistry &Registry,
                   std::vector<std::unique_ptr<ResilientModelClient>> &Clients,
                   Tracer &T, uint32_t PassId) {
  size_t C = Clients.size();
  std::vector<std::vector<double>> Lat(C);
  std::vector<std::vector<uint64_t>> Answers(C);
  std::vector<uint64_t> Failed(C, 0);
  std::vector<double> ReloadMs;
  double T0 = nowSeconds();
  std::vector<std::thread> Threads;
  for (size_t Cl = 0; Cl < C; ++Cl)
    Threads.emplace_back([&, Cl] {
      const std::vector<Request> &Stream = S.Streams[Cl];
      Lat[Cl].reserve(Stream.size());
      Answers[Cl].reserve(Stream.size());
      for (size_t I = 0; I < Stream.size(); ++I) {
        if (Cl == 0 && I % ReloadEvery == ReloadEvery - 1) {
          Tracer::Scope Sp(T, "serve.reload", PassId);
          double R0 = nowSeconds();
          bool Ok = Registry.reloadFromFile(S.BundlePath);
          ReloadMs.push_back((nowSeconds() - R0) * 1e3);
          Sp.ok(Ok);
          Failed[Cl] += !Ok;
        }
        const Request &Q = Stream[I];
        double Q0 = nowSeconds();
        std::optional<uint64_t> Got =
            Clients[Cl]->requestModifier(Q.Level, Q.Features);
        double Q1 = nowSeconds();
        Lat[Cl].push_back((Q1 - Q0) * 1e6);
        bool Ok = Got && *Got == Q.Expected;
        Failed[Cl] += !Ok;
        Answers[Cl].push_back(Got ? *Got : ~0ull);
        if (T.enabled()) {
          Span Sp;
          Sp.Stage = "serve.request";
          Sp.Start = Q0;
          Sp.End = Q1;
          Sp.RunId = PassId;
          Sp.Ok = Ok;
          T.add(Sp);
        }
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  PassResult P;
  P.Wall = nowSeconds() - T0;
  Digest D;
  std::vector<double> All;
  for (size_t Cl = 0; Cl < C; ++Cl) {
    All.insert(All.end(), Lat[Cl].begin(), Lat[Cl].end());
    P.Failed += Failed[Cl];
    P.Requests += Lat[Cl].size();
    for (uint64_t A : Answers[Cl])
      D.pod(A);
  }
  P.P50Us = percentile(All, 50);
  P.P99Us = percentile(All, 99);
  P.ReloadMs = std::move(ReloadMs);
  P.Digest = D.hex();
  return P;
}

/// Frame encode + decode of one request and its reply through the
/// exported codec helpers, averaged over the streams (microseconds).
double codecUs(const Setup &S) {
  std::vector<uint8_t> Frame;
  Message Decoded;
  uint64_t N = 0;
  double T0 = nowSeconds();
  for (const std::vector<Request> &Stream : S.Streams)
    for (const Request &Q : Stream) {
      Message Req;
      Req.Type = MsgType::Features;
      Req.Level = Q.Level;
      Req.FeatureValues.assign(Q.Features.raw().begin(),
                               Q.Features.raw().end());
      Frame.clear();
      encodeMessageFrame(Req, Frame);
      decodeMessagePayload(
          std::vector<uint8_t>(Frame.begin() + 4, Frame.end()), Decoded);
      Message Rep;
      Rep.Type = MsgType::Modifier;
      Rep.ModifierBits = Q.Expected;
      Frame.clear();
      encodeMessageFrame(Rep, Frame);
      decodeMessagePayload(
          std::vector<uint8_t>(Frame.begin() + 4, Frame.end()), Decoded);
      ++N;
    }
  return N ? (nowSeconds() - T0) * 1e6 / (double)N : 0.0;
}

/// In-process ServeModel::predict over the streams (microseconds/call).
double predictUs(const Setup &S, const ServeModel &M, uint64_t &Mismatch) {
  uint64_t N = 0;
  double T0 = nowSeconds();
  for (const std::vector<Request> &Stream : S.Streams)
    for (const Request &Q : Stream) {
      std::optional<uint64_t> A = M.predict(Q.Level, Q.Features);
      Mismatch += !A || *A != Q.Expected;
      ++N;
    }
  return N ? (nowSeconds() - T0) * 1e6 / (double)N : 0.0;
}

} // namespace

Outcome runServeFleet(const Options &O) {
  Outcome Out;
  unsigned Clients = O.Nproc > 1 ? O.Nproc - 1 : 1;
  const unsigned SetupReps = O.Trace ? 1 : 3;
  std::vector<double> SetupS;
  Setup S;
  std::string FirstModels;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    double T0 = nowSeconds();
    buildSetup(O, O.RunDir + "/cache" + std::to_string(Rep), Clients, S, Out);
    SetupS.push_back(nowSeconds() - T0);
    if (Rep == 0)
      FirstModels = S.ModelDigest;
    Out.check(S.ModelDigest == FirstModels);
  }
  std::printf("[serve_fleet] %u clients (orders:", Clients);
  for (const std::string &N : S.StreamNames)
    std::printf(" %s", N.c_str());
  std::printf("), %u requests each per pass, reload every %u; set-up %.3f s "
              "median of %u\n",
              RequestsPerClient, ReloadEvery, median(SetupS), SetupReps);

  ModelRegistry Registry;
  Registry.install(S.Served);
  ServeConfig Cfg;
  Cfg.SocketPath = O.RunDir + "/serve.sock";
  ModelServer Server(Registry, Cfg);
  if (!Server.start()) {
    std::fprintf(stderr, "serve_fleet: cannot start the daemon on %s\n",
                 Cfg.SocketPath.c_str());
    Out.check(false);
    return Out;
  }
  std::vector<std::unique_ptr<ResilientModelClient>> Conns;
  for (unsigned C = 0; C < Clients; ++C) {
    std::string Path = Cfg.SocketPath;
    Conns.push_back(std::make_unique<ResilientModelClient>(
        [Path]() -> std::unique_ptr<Transport> {
          return SocketTransport::connect(Path);
        },
        clientConfig()));
  }

  MetricRegistry &MR = MetricRegistry::global();
  Tracer Off(false), On(true);
  std::vector<PassResult> Passes;
  std::string FirstDigest;
  auto Pass = [&](Tracer &T) {
    Passes.push_back(runPass(S, Registry, Conns, T, (uint32_t)Passes.size()));
    PassResult &P = Passes.back();
    Out.tally(P.Requests + P.ReloadMs.size(), P.Failed);
    if (FirstDigest.empty())
      FirstDigest = P.Digest;
    Out.check(P.Digest == FirstDigest);
  };

  if (O.Trace) {
    // Warm-up pass, an untraced pass (the daemon counters are read from
    // it), the traced pass, and another untraced pass: the untraced passes
    // around the traced one are the base of the tracing overhead.
    Pass(Off);
    uint64_t Batches0 = MR.counter("serve.batches").value();
    uint64_t Entries0 = MR.counter("serve.batch_entries").value();
    uint64_t Coalesced0 = MR.counter("serve.coalesced").value();
    PredictionCache::Stats C0 = Server.cache().stats();
    ModelServer::Stats S0 = Server.stats();
    Pass(Off);
    PassResult Untraced = Passes.back();
    uint64_t Batches = MR.counter("serve.batches").value() - Batches0;
    uint64_t Entries = MR.counter("serve.batch_entries").value() - Entries0;
    uint64_t Coalesced = MR.counter("serve.coalesced").value() - Coalesced0;
    PredictionCache::Stats C1 = Server.cache().stats();
    ModelServer::Stats S1 = Server.stats();
    Pass(On);
    PassResult Traced = Passes.back();
    Pass(Off);
    double UntracedWall = 0.5 * (Untraced.Wall + Passes.back().Wall);

    uint64_t Mismatch = 0;
    double Predict = predictUs(S, *Registry.snapshot(), Mismatch);
    Out.check(Mismatch == 0);
    double Codec = codecUs(S);
    double P50 = Untraced.P50Us;
    uint64_t Hits = C1.Hits - C0.Hits, Misses = C1.Misses - C0.Misses;
    double Attributed =
        (On.total("serve.request") + On.total("serve.reload")) /
        ((double)Clients * Traced.Wall);

    Out.set("svm.predict_us", Predict, "us");
    Out.set("bridge.codec_us", Codec, "us");
    Out.set("serve.cache_hit_ratio",
            Hits + Misses ? (double)Hits / (double)(Hits + Misses) : 0.0,
            "ratio");
    Out.set("serve.batch_fill", Batches ? (double)Entries / Batches : 0.0,
            "entries");
    Out.set("serve.coalesced", (double)Coalesced, "count");
    Out.set("serve.shed", (double)(S1.Shed - S0.Shed), "count");
    Out.set("serve.reload_ms", median(Untraced.ReloadMs), "ms");
    Out.set("serve.overhead_us", P50 - Predict - Codec, "us");
    Out.set("workloads.build_s", S.BuildS, "s");
    Out.set("trace.unattributed_share", 1.0 - Attributed, "ratio");
    Out.set("trace.overhead_share", Traced.Wall / UntracedWall - 1.0,
            "ratio");
    std::printf("[serve_fleet] traced pass %.3f s, untraced %.3f s; p50 "
                "%.1f us = predict %.2f + codec %.2f + daemon/socket rest\n",
                Traced.Wall, UntracedWall, P50, Predict, Codec);
    std::string Path = O.TraceDir + "/serve_fleet-seed" +
                       std::to_string(O.Seed) + ".jsonl";
    if (On.writeJsonl(Path))
      std::printf("[serve_fleet] spans written to %s\n", Path.c_str());
  } else {
    double Start = nowSeconds();
    while (Passes.size() < 3 || nowSeconds() - Start < O.Seconds)
      Pass(Off);
  }
  for (std::unique_ptr<ResilientModelClient> &C : Conns)
    C->bye();
  Conns.clear();
  Server.stop();
  Out.check(Server.stats().Shed == 0);

  std::vector<double> Walls, P50s, P99s, Rps;
  size_t Samples = 0;
  for (const PassResult &P : Passes) {
    Walls.push_back(P.Wall);
    P50s.push_back(P.P50Us);
    P99s.push_back(P.P99Us);
    Rps.push_back((double)P.Requests / P.Wall);
    Samples += P.Requests;
  }
  Digest D;
  D.str(FirstDigest);
  D.str(S.ModelDigest);
  Out.Digest = D.hex();
  if (!O.Trace) {
    Out.set("wall_s", median(Walls), "s");
    Out.set("setup_s", median(SetupS), "s");
    std::string Note = "median of " + std::to_string(Passes.size()) +
                       " passes, " + std::to_string(Samples) + " requests";
    printMetric("serve_rps", median(Rps), "1/s", Note);
    printMetric("serve_p50_us", median(P50s), "us", Note);
    printMetric("serve_p99_us", median(P99s), "us", Note);
  }
  return Out;
}

} // namespace perfbench
