//===- bench/micro_serve.cpp ----------------------------------------------===//
//
// Gates for the multi-client serving daemon (src/serve), at 8 concurrent
// clients over real Unix-domain sockets:
//
//   1. Correctness: every client's modifier stream through the daemon is
//      bit-identical to the same stream served by a private single-client
//      serveModel loop (the paper's one-pipe deployment).
//   2. Throughput: the daemon's cross-client micro-batching must beat the
//      serial-loop baseline — 8 threads sharing one mutex-serialized
//      client in front of one blocking serveModel loop — by >= 1.5x.
//   3. Shed correctness: under a deliberately tiny admission bound, shed
//      requests surface as client fallbacks, NEVER as wrong bits, and
//      client-side fallbacks equal the daemon's shed count exactly.
//
// Emits BENCH_serve.json (throughput, p99 latency, cache hit rate, shed
// count) next to the binary. Exit status is the conjunction of the gates.
//
//===----------------------------------------------------------------------===//

#include "bridge/ModelService.h"
#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "serve/Server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace jitml;

namespace {

constexpr unsigned NumClients = 8;
constexpr unsigned PerClientCorrect = 200;
constexpr unsigned PerClientThroughput = 400;
constexpr unsigned PerClientShed = 100;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t nowUs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string socketPath(const char *Tag) {
  return "/tmp/jitml-serve-bench-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

/// Identity scaling + a realistically-sized multi-class model per learned
/// level: the paper's label space spans hundreds of distinct modifier
/// combinations, so prediction cost is a real p x L weight-matrix walk —
/// exactly what the daemon's shared cache skips on repeats and its dense
/// predictBatch kernels amortize across clients. Weights are a
/// deterministic pseudo-random pattern; answers only need to be
/// self-consistent between the daemon and the private baseline.
constexpr unsigned BenchClasses = 512;

ModelSet benchModelSet() {
  std::string ScalingText;
  for (unsigned I = 0; I < NumFeatures; ++I)
    ScalingText += std::to_string(I) + " 0 1\n";
  ModelSet Set;
  for (unsigned L = 0; L < 3; ++L) {
    LevelModel &LM = Set.Levels[L];
    Scaling::fromText(ScalingText, LM.Scale);
    for (unsigned C = 0; C < BenchClasses; ++C)
      LM.Labels.labelFor(1000 + 1000 * L + C);
    LM.Model = LinearModel(BenchClasses, NumFeatures);
    for (unsigned C = 0; C < BenchClasses; ++C)
      for (unsigned F = 0; F < NumFeatures; ++F)
        LM.Model.weight(C, F) =
            (double)((C * 31 + F * 17 + L * 7) % 101) / 101.0;
    LM.Valid = true;
  }
  return Set;
}

/// The request stream of client \p Tag: (level, features) with shapes that
/// repeat every 150 requests, so the daemon's shared cache sees hits.
/// Tag is mixed into the features, which makes every client's stream
/// distinct — the correctness phase uses that to prove per-connection
/// reply routing. The throughput phase passes Tag 0 for every client
/// instead: a fleet of VMs running the same workload compiles the same
/// hot methods, which is exactly the redundancy the daemon's shared cache
/// and in-batch coalescing exist to exploit.
void requestAt(unsigned Tag, unsigned I, OptLevel &Level, FeatureVector &F) {
  unsigned Shape = I % 150;
  Level = (OptLevel)(Shape % 3);
  F = FeatureVector();
  F.set(0, (Tag + Shape) % 2 ? 4 + Shape : 1);
  F.set(1, (Tag + Shape) % 2 ? 1 : 4 + Shape);
  F.set(2, 1 + Tag);
  F.set(3, Shape);
}

/// serveModel backend answering through the registry's scalar chain — the
/// private baseline the daemon must match bit for bit.
class RegistryBackend : public ModelBackend {
public:
  explicit RegistryBackend(ModelRegistry &R) : R(R) {}
  std::optional<uint64_t>
  predictModifier(OptLevel Level, const std::vector<double> &Raw) override {
    std::shared_ptr<const ServeModel> M = R.snapshot();
    if (!M || Raw.size() != NumFeatures)
      return std::nullopt;
    FeatureVector FV;
    for (unsigned I = 0; I < NumFeatures; ++I)
      FV.set(I, (uint32_t)Raw[I]);
    return M->predict(Level, FV);
  }

private:
  ModelRegistry &R;
};

ResilientModelClient::Config clientConfig() {
  ResilientModelClient::Config C;
  C.RequestTimeoutMs = 10000;
  C.CacheCapacity = 0; // every request hits the wire
  return C;
}

std::unique_ptr<ResilientModelClient> socketClient(const std::string &Path) {
  return std::make_unique<ResilientModelClient>(
      [Path]() -> std::unique_ptr<Transport> {
        return SocketTransport::connect(Path);
      },
      clientConfig());
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = argc > 1 ? argv[1] : "BENCH_serve.json";
  std::printf("Serving daemon: %u clients, correctness + throughput + shed "
              "gates\n\n",
              NumClients);

  ModelRegistry Registry;
  Registry.install(benchModelSet());

  //==========================================================================
  // Phase 1 — correctness: daemon streams vs private serveModel streams.
  //==========================================================================
  std::vector<std::vector<std::optional<uint64_t>>> Daemon(NumClients),
      Priv(NumClients);
  uint64_t CacheHits = 0, CacheMisses = 0;
  {
    ServeConfig Cfg;
    Cfg.SocketPath = socketPath("correct");
    ModelServer Server(Registry, Cfg);
    if (!Server.start()) {
      std::fprintf(stderr, "FAIL: cannot start daemon on %s\n",
                   Cfg.SocketPath.c_str());
      return 1;
    }
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumClients; ++T)
      Threads.emplace_back([&, T] {
        auto Client = socketClient(Cfg.SocketPath);
        OptLevel Level;
        FeatureVector F;
        for (unsigned I = 0; I < PerClientCorrect; ++I) {
          requestAt(T, I, Level, F);
          Daemon[T].push_back(Client->requestModifier(Level, F));
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    ModelServer::Stats S = Server.stats();
    PredictionCache::Stats CS = Server.cache().stats();
    CacheHits = CS.Hits;
    CacheMisses = CS.Misses;
    Server.stop();
    if (S.Shed != 0) {
      // Ample MaxInflight: the identity gate must be unconditional.
      std::fprintf(stderr, "FAIL: unexpected sheds in correctness phase\n");
      return 1;
    }
  }
  for (unsigned T = 0; T < NumClients; ++T) {
    auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
    RegistryBackend Backend(Registry);
    InProcessPipe *Raw = ServerEnd.release();
    std::thread Server([&, Raw] {
      serveModel(*Raw, Backend);
      delete Raw;
    });
    ResilientModelClient Client(std::move(ClientEnd), clientConfig());
    OptLevel Level;
    FeatureVector F;
    for (unsigned I = 0; I < PerClientCorrect; ++I) {
      requestAt(T, I, Level, F);
      Priv[T].push_back(Client.requestModifier(Level, F));
    }
    Client.bye();
    Server.join();
  }
  unsigned MismatchedClients = 0;
  for (unsigned T = 0; T < NumClients; ++T)
    if (Daemon[T] != Priv[T])
      ++MismatchedClients;
  bool CorrectnessOk = MismatchedClients == 0;
  double CacheHitRate =
      CacheHits + CacheMisses
          ? (double)CacheHits / (double)(CacheHits + CacheMisses)
          : 0.0;
  std::printf("correctness: %u/%u client streams bit-identical to the "
              "private server (cache hit rate %.2f)\n",
              NumClients - MismatchedClients, NumClients, CacheHitRate);

  //==========================================================================
  // Phase 2 — throughput: daemon vs the serial-loop baseline. One core and
  // nine runnable threads make single runs scheduling-noisy, so each side
  // reports the median of three repetitions.
  //==========================================================================
  constexpr unsigned Reps = 3;
  auto median3 = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };

  std::vector<double> SerialRuns;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    std::string Path = socketPath(("serial" + std::to_string(Rep)).c_str());
    auto Listener = SocketListener::listen(Path);
    if (!Listener) {
      std::fprintf(stderr, "FAIL: cannot listen on %s\n", Path.c_str());
      return 1;
    }
    RegistryBackend Backend(Registry);
    SocketListener *L = Listener.get();
    std::thread Server([L, &Backend] {
      std::unique_ptr<SocketTransport> Conn = L->accept();
      if (Conn)
        serveModel(*Conn, Backend);
    });
    // The paper's deployment shape: ONE connection, one blocking
    // request/reply loop; concurrent compilations serialize on the
    // client's mutex.
    auto Shared = socketClient(Path);
    double Start = nowSeconds();
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumClients; ++T)
      Threads.emplace_back([&] {
        OptLevel Level;
        FeatureVector F;
        for (unsigned I = 0; I < PerClientThroughput; ++I) {
          requestAt(0, I, Level, F); // fleet workload: shared hot methods
          (void)Shared->requestModifier(Level, F);
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    double Wall = nowSeconds() - Start;
    SerialRuns.push_back((double)(NumClients * PerClientThroughput) / Wall);
    Shared->bye();
    Server.join();
  }
  double SerialRps = median3(SerialRuns);
  std::printf("serial loop:  %9.0f requests/s (%u threads, one connection; "
              "median of %u)\n",
              SerialRps, NumClients, Reps);

  double DaemonRps = 0.0, P99Us = 0.0, MeanUs = 0.0, BatchFill = 0.0;
  {
    MetricRegistry &MR = MetricRegistry::global();
    uint64_t Batches0 = MR.counter("serve.batches").value();
    uint64_t Entries0 = MR.counter("serve.batch_entries").value();
    uint64_t Coalesced0 = MR.counter("serve.coalesced").value();
    uint64_t InlineHits = 0;
    std::vector<double> DaemonRuns;
    std::vector<uint64_t> All; // latencies pooled across repetitions
    for (unsigned Rep = 0; Rep < Reps; ++Rep) {
      ServeConfig Cfg;
      Cfg.SocketPath = socketPath(("tput" + std::to_string(Rep)).c_str());
      ModelServer Server(Registry, Cfg);
      if (!Server.start()) {
        std::fprintf(stderr, "FAIL: cannot start daemon\n");
        return 1;
      }
      std::vector<std::vector<uint64_t>> LatUs(NumClients);
      double Start = nowSeconds();
      std::vector<std::thread> Threads;
      for (unsigned T = 0; T < NumClients; ++T)
        Threads.emplace_back([&, T] {
          auto Client = socketClient(Cfg.SocketPath);
          OptLevel Level;
          FeatureVector F;
          LatUs[T].reserve(PerClientThroughput);
          for (unsigned I = 0; I < PerClientThroughput; ++I) {
            requestAt(0, I, Level, F); // fleet workload: shared hot methods
            uint64_t T0 = nowUs();
            (void)Client->requestModifier(Level, F);
            LatUs[T].push_back(nowUs() - T0);
          }
        });
      for (std::thread &Th : Threads)
        Th.join();
      double Wall = nowSeconds() - Start;
      DaemonRuns.push_back((double)(NumClients * PerClientThroughput) / Wall);
      InlineHits += Server.cache().stats().Hits;
      Server.stop();
      for (auto &V : LatUs)
        All.insert(All.end(), V.begin(), V.end());
    }
    DaemonRps = median3(DaemonRuns);

    std::sort(All.begin(), All.end());
    uint64_t Sum = 0;
    for (uint64_t V : All)
      Sum += V;
    MeanUs = All.empty() ? 0.0 : (double)Sum / (double)All.size();
    P99Us = All.empty() ? 0.0 : (double)All[All.size() * 99 / 100];
    uint64_t Batches = MR.counter("serve.batches").value() - Batches0;
    uint64_t Entries = MR.counter("serve.batch_entries").value() - Entries0;
    uint64_t Coalesced = MR.counter("serve.coalesced").value() - Coalesced0;
    BatchFill = Batches ? (double)Entries / (double)Batches : 0.0;
    std::printf("daemon:       %9.0f requests/s (%u connections, "
                "cross-client batching; median of %u); p99 %.0f us, "
                "mean %.1f us\n"
                "              %llu batches, mean fill %.1f entries, "
                "%llu coalesced, %llu cache hits answered inline\n",
                DaemonRps, NumClients, Reps, P99Us, MeanUs,
                (unsigned long long)Batches, BatchFill,
                (unsigned long long)Coalesced,
                (unsigned long long)InlineHits);
  }
  double Speedup = SerialRps > 0.0 ? DaemonRps / SerialRps : 0.0;
  bool SpeedupOk = Speedup >= 1.5;
  std::printf("speedup: %.2fx (gate: >= 1.5x)\n\n", Speedup);

  //==========================================================================
  // Phase 3 — shed correctness under a tiny admission bound.
  //==========================================================================
  uint64_t ShedCount = 0, ShedFallbacks = 0, ShedWrong = 0;
  bool ShedOk = false;
  {
    ServeConfig Cfg;
    Cfg.SocketPath = socketPath("shed");
    Cfg.MaxInflight = 1; // 8 racing clients: constant overload
    Cfg.CacheCapacity = 0;
    ModelServer Server(Registry, Cfg);
    if (!Server.start()) {
      std::fprintf(stderr, "FAIL: cannot start daemon\n");
      return 1;
    }
    std::shared_ptr<const ServeModel> M = Registry.snapshot();
    std::atomic<uint64_t> Fallbacks{0}, Wrong{0};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumClients; ++T)
      Threads.emplace_back([&, T] {
        auto Client = socketClient(Cfg.SocketPath);
        OptLevel Level;
        FeatureVector F;
        for (unsigned I = 0; I < PerClientShed; ++I) {
          requestAt(T, I, Level, F);
          std::optional<uint64_t> Got = Client->requestModifier(Level, F);
          if (!Got)
            ++Fallbacks; // a shed degrades; it never lies
          else if (*Got != *M->predict(Level, F))
            ++Wrong;
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    ModelServer::Stats S = Server.stats();
    Server.stop();
    ShedCount = S.Shed;
    ShedFallbacks = Fallbacks.load();
    ShedWrong = Wrong.load();
    // Covered levels + generous deadline: a fallback can ONLY be a shed,
    // so the two counts must agree exactly — and nothing may be wrong.
    ShedOk = ShedWrong == 0 && ShedFallbacks == ShedCount;
    std::printf("shed run: %llu sheds, %llu client fallbacks, %llu wrong "
                "bits (gate: fallbacks == sheds, wrong == 0)\n",
                (unsigned long long)ShedCount,
                (unsigned long long)ShedFallbacks,
                (unsigned long long)ShedWrong);
  }

  bool AllOk = CorrectnessOk && SpeedupOk && ShedOk;
  if (std::FILE *F = std::fopen(JsonPath, "w")) {
    std::fprintf(F,
                 "{\n"
                 "  \"clients\": %u,\n"
                 "  \"daemon_rps\": %.1f,\n"
                 "  \"serial_rps\": %.1f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"p99_us\": %.1f,\n"
                 "  \"mean_us\": %.2f,\n"
                 "  \"cache_hit_rate\": %.4f,\n"
                 "  \"shed_count\": %llu,\n"
                 "  \"shed_fallbacks\": %llu,\n"
                 "  \"shed_wrong_bits\": %llu,\n"
                 "  \"gate_bit_identical\": %s,\n"
                 "  \"gate_speedup_1_5x\": %s,\n"
                 "  \"gate_shed_correct\": %s\n"
                 "}\n",
                 NumClients, DaemonRps, SerialRps, Speedup, P99Us, MeanUs,
                 CacheHitRate, (unsigned long long)ShedCount,
                 (unsigned long long)ShedFallbacks,
                 (unsigned long long)ShedWrong,
                 CorrectnessOk ? "true" : "false",
                 SpeedupOk ? "true" : "false", ShedOk ? "true" : "false");
    std::fclose(F);
    std::printf("\nwrote %s\n", JsonPath);
  }

  if (!AllOk) {
    std::fprintf(stderr, "FAIL: serve gates (identical=%d speedup=%d "
                 "shed=%d)\n",
                 CorrectnessOk, SpeedupOk, ShedOk);
    return 1;
  }
  std::printf("PASS: bit-identical streams, %.2fx over the serial loop, "
              "sheds degrade cleanly\n",
              Speedup);
  return 0;
}
