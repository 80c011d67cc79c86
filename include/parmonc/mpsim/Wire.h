//===- parmonc/mpsim/Wire.h - CRC-framed socket message codec -------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format of the Processes transport: every message crosses a
/// socket as one frame
///
///   magic u32 ('PMNC') | bodyLen u32 | bodyCrc u32 | body
///   body := kind u8 | a i32 | b i32 | c i32 | payload bytes
///
/// little-endian throughout, CRC-32 (the same polynomial the sealed result
/// files use) over the body. The top bit of the kind byte is the
/// superseding marker of a Data frame (Message::Supersedes); a frame
/// without it has the same bytes it always had. A LatestReady frame is a
/// doorbell: it carries no payload (the message waits in the worker's
/// shared slot, see SocketTransport.h), and one with a payload or the
/// superseding marker is rejected as corrupt. The decoder is
/// incremental — feed it whatever a read() returned and ask for complete
/// frames — and rejects corruption with a clean Status, mirroring the
/// short-read rejection discipline of ResultsStore: a truncated,
/// bit-flipped or length-lying frame can stall or fail the stream, but
/// never crash it or yield a partial message.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_MPSIM_WIRE_H
#define PARMONC_MPSIM_WIRE_H

#include "parmonc/support/Status.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace parmonc {

/// What a frame means to the router/supervisor.
enum class FrameKind : uint8_t {
  Hello = 1,          ///< child -> root: rank is up (A = rank)
  Data = 2,           ///< routed message (A = source, B = destination, C = tag)
  BarrierArrive = 3,  ///< child -> root: rank reached the barrier (A = rank)
  BarrierRelease = 4, ///< root -> child: barrier opened
  Dead = 5,           ///< either way: rank A is dead, drop it from barriers
  Stop = 6,           ///< either way: stop request (A = StopReason bits)
  Abort = 7,          ///< root -> child: collector died, skip finalization
  Goodbye = 8,        ///< child -> root: orderly exit + diagnostics payload
  LatestReady = 9,    ///< child -> root: read rank A's latest-value slot
};

/// One decoded frame. The three i32 fields are kind-specific (see
/// FrameKind); Payload carries the message body for Data and the
/// diagnostics blob for Goodbye.
struct Frame {
  FrameKind Kind = FrameKind::Data;
  int32_t A = 0;
  int32_t B = 0;
  int32_t C = 0;
  std::vector<uint8_t> Payload;
  /// Data only: the message is latest-wins at its destination mailbox.
  bool Supersedes = false;
};

/// 'PMNC' in the frame header.
inline constexpr uint32_t FrameMagic = 0x434e4d50u;

/// Upper bound on a frame body: anything larger is a length-lying header,
/// rejected before any allocation of that size is attempted.
inline constexpr uint32_t MaxFrameBodyBytes = 1u << 28;

/// Encodes \p Outgoing into one self-delimiting frame.
std::vector<uint8_t> encodeFrame(const Frame &Outgoing);

/// Incremental frame parser over a byte stream. Feed raw read() chunks;
/// next() yields complete frames in order. Corruption (bad magic, CRC
/// mismatch, oversized length) poisons the decoder: every subsequent
/// next() returns the same error, because a framing error leaves no way to
/// resynchronize a stream.
class FrameDecoder {
public:
  /// Appends raw stream bytes to the internal buffer.
  void feed(const uint8_t *Data, size_t Size);

  /// Returns the next complete frame; an empty optional when more bytes
  /// are needed; an error Status on a corrupt stream.
  [[nodiscard]] Result<std::optional<Frame>> next();

  /// Bytes buffered but not yet consumed by complete frames.
  size_t bufferedBytes() const { return Buffer.size() - Consumed; }

private:
  std::vector<uint8_t> Buffer;
  size_t Consumed = 0;
  Status Poisoned = Status::ok();
};

} // namespace parmonc

#endif // PARMONC_MPSIM_WIRE_H
