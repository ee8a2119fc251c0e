//===- bridge/ModelService.h - Model side of the bridge ---------*- C++ -*-===//
///
/// \file
/// The model end of Figure 5's compiler/model integration:
///
///  * ModelBackend — maps (level, raw features) to a modifier; the
///    interface is what makes models swappable "without changes to the
///    compiler".
///  * FrameHandler — every protocol decision a model server makes, in one
///    place: the Hello version check, Bye, Errors for unexpected frames,
///    feature-count validation, and rendering per-entry answers as
///    replies. Both servers use it: serveModel below (one connection over
///    FIFOs or in-process pipes) and the multi-client serve::ModelServer.
///  * serveModel — the one-connection server loop.
///
/// The compiler end is ResilientModelClient (bridge/ResilientClient.h).
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BRIDGE_MODELSERVICE_H
#define JITML_BRIDGE_MODELSERVICE_H

#include "bridge/Transports.h"
#include "features/FeatureVector.h"
#include "support/Telemetry.h"

#include <atomic>
#include <optional>

namespace jitml {

/// Anything that can map (level, raw features) to a modifier bit pattern.
class ModelBackend {
public:
  virtual ~ModelBackend();
  /// Returns the modifier bits, or std::nullopt when no model covers the
  /// level (the caller then falls back to the null modifier).
  virtual std::optional<uint64_t>
  predictModifier(OptLevel Level, const std::vector<double> &RawFeatures) = 0;
};

/// What a server answered, broken down by outcome — a Modifier reply is
/// not the same thing as an Error reply ("no model for level"), and
/// callers sizing a deployment need to see the difference.
struct ServeStats {
  uint64_t Served = 0;       ///< entries answered with a real Modifier
  uint64_t Degraded = 0;     ///< entries answered with Error / has=0
  uint64_t HelloRejects = 0; ///< Hello frames with a mismatched version

  uint64_t answered() const { return Served + Degraded; }
};

/// The protocol decisions shared by every model server. A Features frame
/// is a batch of one entry: the entry accessors and answer() treat both
/// prediction frames alike, so only the reply shape differs.
///
/// Thread safety: handle() and answer() are called from one thread (the
/// server loop); stats() may be read from any thread.
class FrameHandler {
public:
  /// Counts into <MetricPrefix>.served / .degraded / .hello_rejects.
  explicit FrameHandler(const std::string &MetricPrefix);

  enum class Action : uint8_t {
    Reply,   ///< \p Reply is complete: send it
    Predict, ///< answer every entry, then render them with answer()
    Close,   ///< Bye: end the session
  };

  /// Decides what to do with one decoded frame. Hello frames announcing a
  /// version other than ProtocolVersion get an Error reply, as do
  /// non-request frame types and a Features frame with the wrong feature
  /// count.
  Action handle(const Message &In, Message &Reply);

  /// Number of entries of a prediction frame.
  static size_t entries(const Message &In) {
    return In.Type == MsgType::Features ? 1 : In.BatchFeatures.size();
  }
  static OptLevel entryLevel(const Message &In, size_t I) {
    return In.Type == MsgType::Features ? In.Level : In.BatchFeatures[I].Level;
  }
  /// Raw features of entry \p I, or nullptr when the entry has the wrong
  /// feature count: such an entry degrades to has=0 without reaching a
  /// model (a wrong-dimension vector would index past the scaling
  /// parameters).
  static const std::vector<double> *entryFeatures(const Message &In,
                                                  size_t I);

  /// Renders one answer per entry of a \p Request frame into \p Reply: a
  /// Modifier or Error NoModelError for Features, a ModifierBatch for
  /// FeatureBatch. Counts each entry as served or degraded.
  void answer(MsgType Request, const std::optional<uint64_t> *Answers,
              size_t N, Message &Reply);

  ServeStats stats() const;

private:
  std::atomic<uint64_t> Served{0}, Degraded{0}, HelloRejects{0};
  TelemetryCounter *ServedCtr, *DegradedCtr, *HelloRejectsCtr;
};

/// Serves one connection: answers frames through FrameHandler, predicting
/// inline with \p Backend, until Bye or transport EOF. A frame that was
/// read whole but does not decode gets an Error reply and the session
/// continues. Answers are counted under bridge.served / bridge.degraded /
/// bridge.hello_rejects.
ServeStats serveModel(Transport &T, ModelBackend &Backend);

} // namespace jitml

#endif // JITML_BRIDGE_MODELSERVICE_H
