//===- bridge/ResilientClient.cpp -----------------------------------------===//

#include "bridge/ResilientClient.h"

#include "support/FaultInjection.h"
#include "support/Statistics.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace jitml;

std::vector<std::pair<std::string, uint64_t>> BridgeCounters::rows() const {
  return {
      {"requests", Requests},         {"cacheHits", CacheHits},
      {"wireRequests", WireRequests}, {"timeouts", Timeouts},
      {"retries", Retries},           {"reconnects", Reconnects},
      {"errorReplies", ErrorReplies}, {"fallbacks", Fallbacks},
      {"batchRequests", BatchRequests}, {"batchItems", BatchItems},
      {"bytesSent", BytesSent},       {"bytesReceived", BytesReceived},
  };
}

std::string BridgeCounters::toText() const {
  std::vector<CounterRow> Rows;
  for (const auto &[Name, Value] : rows())
    Rows.push_back({Name, Value});
  return formatCounterTable(Rows);
}

namespace {

void realSleep(int Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

} // namespace

void ResilientModelClient::resolveTelemetry() {
  MetricRegistry &R = MetricRegistry::global();
  Tel.Requests = &R.counter("bridge.requests");
  Tel.Timeouts = &R.counter("bridge.timeouts");
  Tel.Retries = &R.counter("bridge.retries");
  Tel.Fallbacks = &R.counter("bridge.fallbacks");
  Tel.ErrorReplies = &R.counter("bridge.error_replies");
  Tel.WireRequests = &R.counter("bridge.wire_requests");
  Tel.RequestUs = &R.histogram("bridge.request");
  Tel.BatchUs = &R.histogram("bridge.batch");
}

ResilientModelClient::ResilientModelClient(std::unique_ptr<Transport> T,
                                           Config C)
    : Cfg(C), Owned(std::move(T)), Cache(C.CacheCapacity, "bridge"),
      Sleep(realSleep) {
  resolveTelemetry();
  if (Owned)
    Wire = std::make_unique<CountingTransport>(*Owned);
  else
    Poisoned = true;
}

ResilientModelClient::ResilientModelClient(TransportFactory F, Config C)
    : Cfg(C), Factory(std::move(F)), Cache(C.CacheCapacity, "bridge"),
      Sleep(realSleep) {
  resolveTelemetry();
}

ResilientModelClient::~ResilientModelClient() { bye(); }

bool ResilientModelClient::usable() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return !Poisoned && (Wire != nullptr || Factory != nullptr);
}

BridgeCounters ResilientModelClient::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  BridgeCounters C = Count;
  if (Wire) {
    C.BytesSent += Wire->bytesSent();
    C.BytesReceived += Wire->bytesReceived();
  }
  return C;
}

void ResilientModelClient::dropConnection() {
  if (Wire) {
    Count.BytesSent += Wire->bytesSent();
    Count.BytesReceived += Wire->bytesReceived();
  }
  Wire.reset();
  Owned.reset();
  HandshakeDone = false;
  if (!Factory)
    Poisoned = true; // nothing to reconnect with
}

bool ResilientModelClient::ensureConnected() {
  if (Poisoned)
    return false;
  if (!Wire) {
    if (!Factory)
      return false;
    if (JITML_FAULT_POINT("client.connect.fail"))
      return false; // simulated reconnect failure; retry loop handles it
    Owned = Factory();
    if (!Owned)
      return false;
    Wire = std::make_unique<CountingTransport>(*Owned);
    HandshakeDone = false;
    ++Count.Reconnects;
  }
  if (!HandshakeDone) {
    Message Hello;
    Hello.Type = MsgType::Hello;
    Hello.Version = ProtocolVersion;
    if (!sendMessage(*Wire, Hello)) {
      dropConnection();
      return false;
    }
    Message Reply;
    RecvStatus S = recvMessageFor(*Wire, Reply, Cfg.RequestTimeoutMs);
    if (S != RecvStatus::Ok || Reply.Type != MsgType::Hello ||
        Reply.Version != ProtocolVersion) {
      if (S == RecvStatus::Timeout) {
        ++Count.Timeouts;
        Tel.Timeouts->add();
      }
      dropConnection();
      return false;
    }
    HandshakeDone = true;
  }
  return true;
}

bool ResilientModelClient::roundTrip(const Message &Req, Message &Reply) {
  ++Count.WireRequests;
  Tel.WireRequests->add();
  if (!sendMessage(*Wire, Req)) {
    dropConnection();
    return false;
  }
  RecvStatus S = JITML_FAULT_POINT("client.request.timeout")
                     ? RecvStatus::Timeout
                     : recvMessageFor(*Wire, Reply, Cfg.RequestTimeoutMs);
  if (S == RecvStatus::Timeout) {
    ++Count.Timeouts;
    Tel.Timeouts->add();
  }
  if (S != RecvStatus::Ok) {
    dropConnection(); // a timed-out stream may be mid-frame: unusable
    return false;
  }
  if (Reply.Type == MsgType::Error) {
    ++Count.ErrorReplies;
    Tel.ErrorReplies->add();
    return true;
  }
  bool Answers = Req.Type == MsgType::Features
                     ? Reply.Type == MsgType::Modifier
                     : Reply.Type == MsgType::ModifierBatch &&
                           Reply.BatchModifiers.size() ==
                               Req.BatchFeatures.size();
  if (!Answers)
    dropConnection(); // the peer is not speaking our dialect
  return Answers;
}

bool ResilientModelClient::exchange(const Message &Req, Message &Reply) {
  double Backoff = (double)Cfg.InitialBackoffMs;
  for (unsigned Attempt = 0; Attempt < Cfg.MaxAttempts; ++Attempt) {
    if (Attempt > 0) {
      if (Poisoned)
        break; // no way back: don't burn time sleeping
      ++Count.Retries;
      Tel.Retries->add();
      if (Backoff >= 1.0 && Sleep)
        Sleep((int)Backoff);
      Backoff *= Cfg.BackoffMultiplier;
    }
    if (ensureConnected() && roundTrip(Req, Reply))
      return true;
  }
  return false;
}

bool ResilientModelClient::lookup(OptLevel Level, uint64_t Hash,
                                  std::optional<uint64_t> &Answer) {
  if (!Cache.lookup(/*Version=*/0, Level, Hash, Answer))
    return false;
  ++Count.CacheHits;
  return true;
}

void ResilientModelClient::store(OptLevel Level, uint64_t Hash,
                                 std::optional<uint64_t> Answer) {
  if (Answer || Cfg.CacheErrorReplies)
    Cache.insert(/*Version=*/0, Level, Hash, Answer);
}

void ResilientModelClient::countFallback() {
  ++Count.Fallbacks;
  Tel.Fallbacks->add();
}

std::optional<uint64_t>
ResilientModelClient::requestModifier(OptLevel Level,
                                      const FeatureVector &Features) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t StartUs = telemetryNowUs();
  std::optional<uint64_t> Answer = requestModifierLocked(Level, Features);
  uint64_t DurUs = telemetryNowUs() - StartUs;
  Tel.RequestUs->record(DurUs);
  if (TraceEmitter::global().enabled()) {
    TraceEvent E;
    E.Stage = "bridge_request";
    E.StartUs = StartUs;
    E.DurUs = DurUs;
    E.Level = (int)Level;
    E.Detail = Answer ? "modifier" : "fallback";
    E.Ok = Answer.has_value();
    TraceEmitter::global().record(E);
  }
  return Answer;
}

std::optional<uint64_t>
ResilientModelClient::requestModifierLocked(OptLevel Level,
                                            const FeatureVector &Features) {
  ++Count.Requests;
  Tel.Requests->add();
  uint64_t Hash = Features.hash();
  std::optional<uint64_t> Answer;
  if (lookup(Level, Hash, Answer)) {
    if (!Answer)
      countFallback();
    return Answer;
  }

  // Forced fallback: behave exactly as if every attempt failed, without
  // touching the wire — the caller must degrade to the default plan.
  if (JITML_FAULT_POINT("client.request.fallback")) {
    countFallback();
    return std::nullopt;
  }

  Message Req;
  Req.Type = MsgType::Features;
  Req.Level = Level;
  Req.FeatureValues.assign(Features.raw().begin(), Features.raw().end());
  Message Reply;
  if (exchange(Req, Reply)) {
    if (Reply.Type == MsgType::Modifier)
      Answer = Reply.ModifierBits;
    if (Answer || Reply.Text == NoModelError)
      store(Level, Hash, Answer);
  }
  if (!Answer)
    countFallback();
  return Answer;
}

std::vector<std::optional<uint64_t>> ResilientModelClient::requestModifierBatch(
    const std::vector<BatchRequest> &Items) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t StartUs = telemetryNowUs();
  ++Count.BatchRequests;
  Count.BatchItems += Items.size();
  std::vector<std::optional<uint64_t>> Answers(Items.size());

  // Answer what we can from the prediction cache; collect the misses.
  std::vector<size_t> Misses;
  std::vector<uint64_t> Hashes(Items.size());
  for (size_t I = 0; I < Items.size(); ++I) {
    ++Count.Requests;
    Tel.Requests->add();
    Hashes[I] = Items[I].Features.hash();
    if (!lookup(Items[I].Level, Hashes[I], Answers[I]))
      Misses.push_back(I);
    else if (!Answers[I])
      countFallback();
  }

  // Forced fallback: skip the wire entirely so every miss degrades to the
  // default plan, as if the model service were unreachable.
  if (!Misses.empty() && JITML_FAULT_POINT("client.request.fallback")) {
    for (size_t I = 0; I < Misses.size(); ++I)
      countFallback();
    Misses.clear();
  }

  // Ship the misses in protocol-sized chunks, each with the single-request
  // retry/backoff budget. A frame-level Error (e.g. a shed) degrades the
  // chunk for this call only; per-entry has=0 is a definitive answer.
  for (size_t Start = 0; Start < Misses.size(); Start += MaxBatchEntries) {
    size_t End = std::min(Start + MaxBatchEntries, Misses.size());
    Message Req;
    Req.Type = MsgType::FeatureBatch;
    Req.BatchFeatures.resize(End - Start);
    for (size_t J = Start; J < End; ++J) {
      BatchFeatureEntry &E = Req.BatchFeatures[J - Start];
      const BatchRequest &Item = Items[Misses[J]];
      E.Level = Item.Level;
      E.FeatureValues.assign(Item.Features.raw().begin(),
                             Item.Features.raw().end());
    }
    Message Reply;
    bool Answered =
        exchange(Req, Reply) && Reply.Type == MsgType::ModifierBatch;
    for (size_t J = Start; J < End; ++J) {
      size_t I = Misses[J];
      if (Answered) {
        const BatchModifierEntry &E = Reply.BatchModifiers[J - Start];
        if (E.HasModifier)
          Answers[I] = E.Bits;
        store(Items[I].Level, Hashes[I], Answers[I]);
      }
      if (!Answers[I])
        countFallback();
    }
  }
  uint64_t DurUs = telemetryNowUs() - StartUs;
  Tel.BatchUs->record(DurUs);
  if (TraceEmitter::global().enabled()) {
    TraceEvent E;
    E.Stage = "bridge_batch";
    E.StartUs = StartUs;
    E.DurUs = DurUs;
    E.Items = (int64_t)Items.size();
    TraceEmitter::global().record(E);
  }
  return Answers;
}

void ResilientModelClient::bye() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Wire)
    return;
  Message M;
  M.Type = MsgType::Bye;
  sendMessage(*Wire, M);
  dropConnection(); // without a factory, later requests fall back fast
}