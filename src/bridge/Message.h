//===- bridge/Message.h - Compiler <-> model protocol -----------*- C++ -*-===//
///
/// \file
/// The "lean and versatile communication protocol that integrates the
/// machine-learned models with the compiler and allows different models to
/// be easily swapped without changes to the compiler" (paper contribution
/// 4). Messages are length-prefixed frames over a byte-stream transport:
///
///   frame  := length u32le | type u8 | payload
///   Hello  := version u8
///   Features := level u8 | count u16le | count x f64le (raw features)
///   Modifier := bits u64le
///   Error  := utf-8 text
///   Bye    := (empty)
///   FeatureBatch := n u16le | n x (level u8 | count u16le | count x f64le)
///   ModifierBatch := n u16le | n x (has u8 | bits u64le)
///
/// FeatureBatch/ModifierBatch let one round trip serve a whole backlog of
/// compilations (the async pipeline's workers dequeue in batches). The
/// reply carries exactly one entry per request entry, in order; has=0
/// means "no model for this entry" and the compiler falls back to the
/// unmodified plan for that method only.
///
/// The model side owns the scaling file and the label lookup table, so the
/// compiler ships raw feature values and receives a ready-to-install
/// 58-bit modifier (section 7).
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BRIDGE_MESSAGE_H
#define JITML_BRIDGE_MESSAGE_H

#include "opt/Plan.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jitml {

/// The protocol version both sides announce in Hello. A server rejects a
/// mismatched client with an Error reply instead of silently proceeding.
constexpr uint8_t ProtocolVersion = 1;

enum class MsgType : uint8_t {
  Hello = 1,
  Features = 2,
  Modifier = 3,
  Error = 4,
  Bye = 5,
  FeatureBatch = 6,
  ModifierBatch = 7,
};

/// One entry of a FeatureBatch request.
struct BatchFeatureEntry {
  OptLevel Level = OptLevel::Cold;
  std::vector<double> FeatureValues;
};

/// One entry of a ModifierBatch reply.
struct BatchModifierEntry {
  bool HasModifier = false; ///< false: no model covers this entry
  uint64_t Bits = 0;
};

/// Largest accepted frame payload. A length prefix of zero or above this
/// is unframeable: the receiver cannot find the next frame boundary.
constexpr uint32_t MaxFrameBytes = 1u << 20;

/// Largest accepted FeatureBatch entry count (well under MaxFrameBytes
/// even at 71 features per entry).
constexpr size_t MaxBatchEntries = 256;

/// Error text of the definitive "no model covers this level" answer to a
/// Features frame. A client may cache it; any other Error (a shed, a
/// malformed request) is transient.
constexpr const char NoModelError[] = "no model for level";

struct Message {
  MsgType Type = MsgType::Bye;
  // Payload variants (valid per Type).
  uint8_t Version = 1;                ///< Hello
  OptLevel Level = OptLevel::Cold;    ///< Features
  std::vector<double> FeatureValues;  ///< Features
  uint64_t ModifierBits = 0;          ///< Modifier
  std::string Text;                   ///< Error
  std::vector<BatchFeatureEntry> BatchFeatures;   ///< FeatureBatch
  std::vector<BatchModifierEntry> BatchModifiers; ///< ModifierBatch
};

/// An Error message carrying \p Text.
inline Message errorMessage(const char *Text) {
  Message M;
  M.Type = MsgType::Error;
  M.Text = Text;
  return M;
}

/// Payload length announced by a 4-byte frame prefix; 0 when the prefix
/// is unframeable (zero or above MaxFrameBytes).
uint32_t frameLength(const uint8_t *Prefix);

/// Result of a deadline-aware read.
enum class IoStatus : uint8_t {
  Ok,      ///< all requested bytes delivered
  Timeout, ///< deadline expired first (stream may be mid-frame!)
  Closed,  ///< EOF or broken connection
};

/// Byte-stream transport. Implementations must deliver bytes in order and
/// block until the requested amount is available (or the peer goes away).
class Transport {
public:
  virtual ~Transport();
  /// Writes all bytes; false on a broken connection.
  virtual bool writeBytes(const uint8_t *Data, size_t Size) = 0;
  /// Reads exactly \p Size bytes; false on EOF / broken connection.
  virtual bool readBytes(uint8_t *Data, size_t Size) = 0;
  /// Reads exactly \p Size bytes waiting at most \p TimeoutMs milliseconds
  /// (negative = wait forever). After a Timeout the stream may have been
  /// consumed partway through a frame, so callers must treat the
  /// connection as unusable. The base implementation ignores the deadline
  /// (block-forever transports).
  virtual IoStatus readBytesFor(uint8_t *Data, size_t Size, int TimeoutMs);
};

/// Decorator that counts bytes crossing any transport — the bridge's
/// "bytes on the wire" counters.
class CountingTransport : public Transport {
public:
  explicit CountingTransport(Transport &Inner) : Inner(Inner) {}

  bool writeBytes(const uint8_t *Data, size_t Size) override;
  bool readBytes(uint8_t *Data, size_t Size) override;
  IoStatus readBytesFor(uint8_t *Data, size_t Size, int TimeoutMs) override;

  uint64_t bytesSent() const { return BytesSent; }
  uint64_t bytesReceived() const { return BytesReceived; }

private:
  Transport &Inner;
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;
};

/// Result of receiving one frame.
enum class RecvStatus : uint8_t {
  Ok,        ///< a well-formed message was decoded
  Timeout,   ///< deadline expired; the stream is no longer frame-aligned
  Closed,    ///< EOF, transport failure, or an unframeable length prefix
  Malformed, ///< the frame was read in full but its content is invalid;
             ///< the stream is still frame-aligned, so a server may reply
             ///< with an Error message and keep the session alive
};

/// Frames and sends \p M. Returns false on transport failure.
bool sendMessage(Transport &T, const Message &M);

/// Decodes one fully-read frame payload (everything after the u32 length
/// prefix). Returns Ok or Malformed — never Timeout/Closed, since the
/// bytes are already in hand. Exposed for event-loop servers that
/// reassemble frames from a byte buffer instead of blocking in
/// recvMessage.
RecvStatus decodeMessagePayload(const std::vector<uint8_t> &Payload,
                                Message &Out);

/// Serializes \p M into a complete frame (length prefix included),
/// appending to \p Out. The writing half of decodeMessagePayload for
/// buffered servers.
void encodeMessageFrame(const Message &M, std::vector<uint8_t> &Out);

/// Receives one frame. Returns false on EOF, transport failure, or a
/// malformed frame.
bool recvMessage(Transport &T, Message &Out);

/// Deadline-aware receive; \p TimeoutMs bounds the whole frame (negative =
/// wait forever). See RecvStatus for how failures are classified.
RecvStatus recvMessageFor(Transport &T, Message &Out, int TimeoutMs);

} // namespace jitml

#endif // JITML_BRIDGE_MESSAGE_H
