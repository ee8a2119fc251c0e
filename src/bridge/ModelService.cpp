//===- bridge/ModelService.cpp --------------------------------------------===//

#include "bridge/ModelService.h"

using namespace jitml;

ModelBackend::~ModelBackend() = default;

FrameHandler::FrameHandler(const std::string &MetricPrefix) {
  MetricRegistry &R = MetricRegistry::global();
  ServedCtr = &R.counter(MetricPrefix + ".served");
  DegradedCtr = &R.counter(MetricPrefix + ".degraded");
  HelloRejectsCtr = &R.counter(MetricPrefix + ".hello_rejects");
}

FrameHandler::Action FrameHandler::handle(const Message &In, Message &Reply) {
  switch (In.Type) {
  case MsgType::Hello:
    if (In.Version != ProtocolVersion) {
      // A silent "Version=1" answer to a v2 client would let the session
      // proceed on a dialect neither side actually speaks; reject it.
      HelloRejects.fetch_add(1, std::memory_order_relaxed);
      HelloRejectsCtr->add();
      Reply = errorMessage("unsupported protocol version");
    } else {
      Reply = Message();
      Reply.Type = MsgType::Hello;
      Reply.Version = ProtocolVersion;
    }
    return Action::Reply;
  case MsgType::Bye:
    return Action::Close;
  case MsgType::Features:
    if (!entryFeatures(In, 0)) {
      Degraded.fetch_add(1, std::memory_order_relaxed);
      DegradedCtr->add();
      Reply = errorMessage("feature count mismatch");
      return Action::Reply;
    }
    return Action::Predict;
  case MsgType::FeatureBatch:
    return Action::Predict;
  default:
    Reply = errorMessage("unexpected message");
    return Action::Reply;
  }
}

const std::vector<double> *FrameHandler::entryFeatures(const Message &In,
                                                       size_t I) {
  const std::vector<double> &Raw = In.Type == MsgType::Features
                                       ? In.FeatureValues
                                       : In.BatchFeatures[I].FeatureValues;
  return Raw.size() == NumFeatures ? &Raw : nullptr;
}

void FrameHandler::answer(MsgType Request,
                          const std::optional<uint64_t> *Answers, size_t N,
                          Message &Reply) {
  uint64_t Has = 0;
  for (size_t I = 0; I < N; ++I)
    Has += Answers[I].has_value();
  Served.fetch_add(Has, std::memory_order_relaxed);
  Degraded.fetch_add(N - Has, std::memory_order_relaxed);
  ServedCtr->add(Has);
  DegradedCtr->add(N - Has);
  if (Request == MsgType::Features) {
    if (Answers[0]) {
      Reply = Message();
      Reply.Type = MsgType::Modifier;
      Reply.ModifierBits = *Answers[0];
    } else {
      Reply = errorMessage(NoModelError);
    }
    return;
  }
  Reply = Message();
  Reply.Type = MsgType::ModifierBatch;
  Reply.BatchModifiers.resize(N);
  for (size_t I = 0; I < N; ++I)
    if (Answers[I]) {
      Reply.BatchModifiers[I].HasModifier = true;
      Reply.BatchModifiers[I].Bits = *Answers[I];
    }
}

ServeStats FrameHandler::stats() const {
  ServeStats S;
  S.Served = Served.load(std::memory_order_relaxed);
  S.Degraded = Degraded.load(std::memory_order_relaxed);
  S.HelloRejects = HelloRejects.load(std::memory_order_relaxed);
  return S;
}

ServeStats jitml::serveModel(Transport &T, ModelBackend &Backend) {
  FrameHandler Protocol("bridge");
  Message In, Reply;
  std::vector<std::optional<uint64_t>> Answers;
  for (;;) {
    RecvStatus S = recvMessageFor(T, In, /*TimeoutMs=*/-1);
    if (S == RecvStatus::Malformed) {
      // The frame was consumed whole, so the stream is still aligned:
      // report the problem and keep serving instead of dropping the
      // session (and with it every later compilation of this client).
      Reply = errorMessage("malformed frame");
    } else if (S != RecvStatus::Ok) {
      break; // EOF, broken pipe, or unframeable garbage
    } else {
      FrameHandler::Action A = Protocol.handle(In, Reply);
      if (A == FrameHandler::Action::Close)
        break;
      if (A == FrameHandler::Action::Predict) {
        Answers.assign(FrameHandler::entries(In), std::nullopt);
        for (size_t I = 0; I < Answers.size(); ++I)
          if (const std::vector<double> *Raw =
                  FrameHandler::entryFeatures(In, I))
            Answers[I] =
                Backend.predictModifier(FrameHandler::entryLevel(In, I), *Raw);
        Protocol.answer(In.Type, Answers.data(), Answers.size(), Reply);
      }
    }
    if (!sendMessage(T, Reply))
      break;
  }
  return Protocol.stats();
}
