/**
 * @file
 * Wire format of the distributed parameter-server transport: one framed,
 * versioned message layout shared by every Van implementation.
 *
 * A frame is a 12-byte header — magic, version, type, payload length —
 * followed by a self-describing payload: the routing metadata (sender,
 * round, seq, clock) and five typed sections (i32 / f32 / f64 / text /
 * bytes) whose declared element counts must tile the payload exactly.
 * Integers are little-endian; float sections are IEEE-754 bit images,
 * so weights cross the wire bit-exact (the determinism contract depends
 * on it). Version 2 added the bytes section and the PushDelta message
 * carrying compressed client deltas (ps/compression.h); version-1 peers
 * are rejected with BadVersion.
 *
 * Parsing never throws, never over-reads and never allocates from a
 * length it has not validated: every malformed frame maps to a typed
 * WireStatus so a hostile or truncated peer produces an error, not a
 * crash or a hang.
 */
#ifndef AUTOFL_NET_WIRE_H
#define AUTOFL_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ps/compression.h"

namespace autofl::net {

using autofl::EncodedDelta;

/**
 * Message taxonomy of the star topology (one server, N workers).
 *
 * Control plane: Join/JoinAck (membership handshake, assigns the node
 * id), Heartbeat/HeartbeatAck (liveness, see Monitor), Barrier/
 * BarrierAck (membership-wide sync point), Bye (graceful leave),
 * Shutdown (server tells workers to exit).
 *
 * Data plane: RoundAssign (server -> worker: device/seq job pairs),
 * PullReq/PullResp (worker pulls a weight-shard range of the round's
 * launch snapshot), Push (worker returns its trained update with
 * provenance), PushDelta (the compressed form: an encoded delta
 * against the pulled weights — see ps/compression.h — with the same
 * provenance).
 */
enum class MsgType : uint16_t {
    Join = 1,
    JoinAck,
    Heartbeat,
    HeartbeatAck,
    RoundAssign,
    PullReq,
    PullResp,
    Push,
    Barrier,
    BarrierAck,
    Bye,
    Shutdown,
    PushDelta,
};

constexpr uint16_t kMinMsgType = 1;
constexpr uint16_t kMaxMsgType = static_cast<uint16_t>(MsgType::PushDelta);

/** Display name ("Push", "JoinAck", ...). */
const char *msg_type_name(MsgType t);

/** One transport message: fixed routing metadata + typed payloads. */
struct Message
{
    MsgType type = MsgType::Heartbeat;
    int32_t from = -1;   ///< Sender node id (-1 before JoinAck).
    uint64_t round = 0;  ///< FL round the message belongs to.
    uint64_t seq = 0;    ///< Job sequence / request id / barrier id.
    uint64_t clock = 0;  ///< Reserved; the round protocol leaves it 0.

    std::vector<int32_t> ints;    ///< Job pairs, shard ranges, counts.
    std::vector<float> floats;    ///< Weight payloads (bit-exact).
    std::vector<double> doubles;  ///< Update provenance (loss, acc).
    std::string text;             ///< Diagnostics (join names, errors).
    std::vector<uint8_t> bytes;   ///< Packed codec payloads (PushDelta).
};

/** Typed outcome of parsing bytes as a frame. */
enum class WireStatus {
    Ok,          ///< A full valid frame was consumed.
    NeedMore,    ///< Truncated: a valid prefix, more bytes required.
    BadMagic,    ///< First four bytes are not the protocol magic.
    BadVersion,  ///< Frame speaks a protocol version we do not.
    BadType,     ///< Message type outside the known taxonomy.
    Oversized,   ///< Declared payload exceeds kMaxPayloadBytes.
    BadPayload,  ///< Section counts do not tile the payload exactly.
    BadCodec,    ///< PushDelta sections are no valid encoded delta.
};

/** Display name ("Ok", "BadMagic", ...). */
const char *wire_status_name(WireStatus s);

constexpr uint32_t kWireMagic = 0x41465031u;  // "AFP1" (AutoFL PS).
constexpr uint16_t kWireVersion = 2;  // v2: bytes section + PushDelta.
constexpr size_t kWireHeaderBytes = 12;

/**
 * Payload ceiling: large enough for any model this repo trains (weights
 * are ~1e5 floats), small enough that a corrupt or hostile length field
 * cannot drive a multi-gigabyte allocation.
 */
constexpr uint32_t kMaxPayloadBytes = 256u << 20;

/** Serialize @p m into one contiguous frame (header + payload). */
std::vector<uint8_t> frame_message(const Message &m);

/**
 * Exact frame size frame_message(m) would produce, without
 * serializing — the loopback Van's byte accounting.
 */
size_t wire_frame_bytes(const Message &m);

/**
 * Validate a frame header. On Ok, @p payload_len receives the declared
 * payload length (already bounded by kMaxPayloadBytes). @p len below
 * kWireHeaderBytes is NeedMore. Socket receivers use this to size the
 * payload read before any allocation.
 */
WireStatus check_header(const uint8_t *data, size_t len,
                        uint32_t *payload_len);

/**
 * Parse one frame from @p data. On Ok, @p out holds the message and
 * @p consumed the frame's byte length. Any other status leaves @p out
 * untouched; NeedMore means a longer prefix may still parse, every
 * other status is a permanent rejection of this frame.
 */
WireStatus parse_frame(const uint8_t *data, size_t len, Message *out,
                       size_t *consumed);

// ------------------------------------------------ PushDelta mapping
// A PushDelta message carries an EncodedDelta plus the Push message's
// provenance: ints = {device, steps, samples, codec, n, k, quant_range},
// doubles = {loss, acc}, floats = the Int8 scale table, bytes = the
// packed codec payload. Compression::None never ships as PushDelta —
// uncompressed pushes keep the plain Push message, bit-for-bit.

/** ints section length of a PushDelta message. */
constexpr size_t kPushDeltaInts = 7;

/** Build a PushDelta message (type/sections only; routing metadata —
 *  from/round/seq/clock — is the caller's). */
Message make_push_delta(int device, int steps, int samples, double loss,
                        double acc, EncodedDelta e);

/**
 * Validate a PushDelta's sections against the expected model dimension
 * and decode the delta into @p delta. Every malformed encoding — wrong
 * section sizes, unknown codec id, truncated scale table, NaN scales,
 * counts exceeding a range, out-of-range sparse indices — maps to
 * BadCodec (never a crash); a non-PushDelta type is BadType.
 */
WireStatus decode_push_delta(const Message &m, size_t dim,
                             std::vector<float> *delta);

/** Validation-only decode_push_delta (fuzzing / gatekeeping). */
WireStatus validate_push_delta(const Message &m, size_t dim);

} // namespace autofl::net

#endif // AUTOFL_NET_WIRE_H
