#include "wire.h"

#include <cstring>

namespace autofl::net {

namespace {

// Scalar encoding is explicit little-endian so the format is defined by
// bytes, not by host layout. Float/double sections are memcpy'd IEEE-754
// bit images (every supported target is little-endian IEEE-754), which
// is what keeps weights bit-exact across the wire.

void
put_u16(std::vector<uint8_t> &b, uint16_t v)
{
    b.push_back(static_cast<uint8_t>(v));
    b.push_back(static_cast<uint8_t>(v >> 8));
}

void
put_u32(std::vector<uint8_t> &b, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
put_u64(std::vector<uint8_t> &b, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t
get_u16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t
get_u32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t
get_u64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * memcpy for one payload section. An empty section's vector may hand
 * out a null data(), and memcpy from or to null is undefined even for
 * zero bytes, so empty sections copy nothing.
 */
void
copy_section(void *dst, const void *src, size_t n)
{
    if (n > 0)
        std::memcpy(dst, src, n);
}

/** Fixed metadata bytes at the head of every payload. */
constexpr size_t kMetaBytes = 4 + 8 + 8 + 8 + 5 * 4;  // from,r,s,c + counts.

size_t
payload_bytes(const Message &m)
{
    return kMetaBytes + 4 * m.ints.size() + 4 * m.floats.size() +
        8 * m.doubles.size() + m.text.size() + m.bytes.size();
}

} // namespace

const char *
msg_type_name(MsgType t)
{
    switch (t) {
      case MsgType::Join:
        return "Join";
      case MsgType::JoinAck:
        return "JoinAck";
      case MsgType::Heartbeat:
        return "Heartbeat";
      case MsgType::HeartbeatAck:
        return "HeartbeatAck";
      case MsgType::RoundAssign:
        return "RoundAssign";
      case MsgType::PullReq:
        return "PullReq";
      case MsgType::PullResp:
        return "PullResp";
      case MsgType::Push:
        return "Push";
      case MsgType::Barrier:
        return "Barrier";
      case MsgType::BarrierAck:
        return "BarrierAck";
      case MsgType::Bye:
        return "Bye";
      case MsgType::Shutdown:
        return "Shutdown";
      case MsgType::PushDelta:
        return "PushDelta";
    }
    return "unknown";
}

const char *
wire_status_name(WireStatus s)
{
    switch (s) {
      case WireStatus::Ok:
        return "Ok";
      case WireStatus::NeedMore:
        return "NeedMore";
      case WireStatus::BadMagic:
        return "BadMagic";
      case WireStatus::BadVersion:
        return "BadVersion";
      case WireStatus::BadType:
        return "BadType";
      case WireStatus::Oversized:
        return "Oversized";
      case WireStatus::BadPayload:
        return "BadPayload";
      case WireStatus::BadCodec:
        return "BadCodec";
    }
    return "unknown";
}

size_t
wire_frame_bytes(const Message &m)
{
    return kWireHeaderBytes + payload_bytes(m);
}

std::vector<uint8_t>
frame_message(const Message &m)
{
    const size_t payload = payload_bytes(m);
    std::vector<uint8_t> b;
    b.reserve(kWireHeaderBytes + payload);
    put_u32(b, kWireMagic);
    put_u16(b, kWireVersion);
    put_u16(b, static_cast<uint16_t>(m.type));
    put_u32(b, static_cast<uint32_t>(payload));
    put_u32(b, static_cast<uint32_t>(m.from));
    put_u64(b, m.round);
    put_u64(b, m.seq);
    put_u64(b, m.clock);
    put_u32(b, static_cast<uint32_t>(m.ints.size()));
    put_u32(b, static_cast<uint32_t>(m.floats.size()));
    put_u32(b, static_cast<uint32_t>(m.doubles.size()));
    put_u32(b, static_cast<uint32_t>(m.text.size()));
    put_u32(b, static_cast<uint32_t>(m.bytes.size()));
    const size_t meta_end = b.size();
    b.resize(kWireHeaderBytes + payload);
    uint8_t *p = b.data() + meta_end;
    copy_section(p, m.ints.data(), 4 * m.ints.size());
    p += 4 * m.ints.size();
    copy_section(p, m.floats.data(), 4 * m.floats.size());
    p += 4 * m.floats.size();
    copy_section(p, m.doubles.data(), 8 * m.doubles.size());
    p += 8 * m.doubles.size();
    copy_section(p, m.text.data(), m.text.size());
    p += m.text.size();
    copy_section(p, m.bytes.data(), m.bytes.size());
    return b;
}

WireStatus
check_header(const uint8_t *data, size_t len, uint32_t *payload_len)
{
    if (len < kWireHeaderBytes)
        return WireStatus::NeedMore;
    if (get_u32(data) != kWireMagic)
        return WireStatus::BadMagic;
    if (get_u16(data + 4) != kWireVersion)
        return WireStatus::BadVersion;
    const uint16_t type = get_u16(data + 6);
    if (type < kMinMsgType || type > kMaxMsgType)
        return WireStatus::BadType;
    const uint32_t payload = get_u32(data + 8);
    if (payload > kMaxPayloadBytes)
        return WireStatus::Oversized;
    if (payload < kMetaBytes)
        return WireStatus::BadPayload;
    *payload_len = payload;
    return WireStatus::Ok;
}

WireStatus
parse_frame(const uint8_t *data, size_t len, Message *out, size_t *consumed)
{
    uint32_t payload = 0;
    const WireStatus hs = check_header(data, len, &payload);
    if (hs != WireStatus::Ok)
        return hs;
    if (len < kWireHeaderBytes + payload)
        return WireStatus::NeedMore;

    const uint8_t *p = data + kWireHeaderBytes;
    Message m;
    m.type = static_cast<MsgType>(get_u16(data + 6));
    m.from = static_cast<int32_t>(get_u32(p));
    m.round = get_u64(p + 4);
    m.seq = get_u64(p + 12);
    m.clock = get_u64(p + 20);
    const uint64_t n_ints = get_u32(p + 28);
    const uint64_t n_floats = get_u32(p + 32);
    const uint64_t n_doubles = get_u32(p + 36);
    const uint64_t n_text = get_u32(p + 40);
    const uint64_t n_bytes = get_u32(p + 44);

    // The declared section counts must tile the declared payload
    // exactly; the 64-bit sum cannot overflow (counts are 32-bit).
    const uint64_t need = kMetaBytes + 4 * n_ints + 4 * n_floats +
        8 * n_doubles + n_text + n_bytes;
    if (need != payload)
        return WireStatus::BadPayload;

    p += kMetaBytes;
    m.ints.resize(n_ints);
    copy_section(m.ints.data(), p, 4 * n_ints);
    p += 4 * n_ints;
    m.floats.resize(n_floats);
    copy_section(m.floats.data(), p, 4 * n_floats);
    p += 4 * n_floats;
    m.doubles.resize(n_doubles);
    copy_section(m.doubles.data(), p, 8 * n_doubles);
    p += 8 * n_doubles;
    m.text.assign(reinterpret_cast<const char *>(p), n_text);
    p += n_text;
    m.bytes.resize(n_bytes);
    copy_section(m.bytes.data(), p, n_bytes);

    *out = std::move(m);
    *consumed = kWireHeaderBytes + payload;
    return WireStatus::Ok;
}

// ------------------------------------------------ PushDelta mapping

Message
make_push_delta(int device, int steps, int samples, double loss, double acc,
                EncodedDelta e)
{
    Message m;
    m.type = MsgType::PushDelta;
    m.ints = {device,
              steps,
              samples,
              static_cast<int32_t>(e.mode),
              static_cast<int32_t>(e.n),
              static_cast<int32_t>(e.k),
              static_cast<int32_t>(e.quant_range)};
    m.doubles = {loss, acc};
    m.floats = std::move(e.scales);
    m.bytes = std::move(e.payload);
    return m;
}

WireStatus
decode_push_delta(const Message &m, size_t dim, std::vector<float> *delta)
{
    if (m.type != MsgType::PushDelta)
        return WireStatus::BadType;
    if (m.ints.size() != kPushDeltaInts || m.doubles.size() != 2)
        return WireStatus::BadCodec;
    const int32_t codec = m.ints[3];
    // None never ships as PushDelta (raw pushes keep the Push message),
    // so only the compressed codec ids are valid here.
    if (codec != static_cast<int32_t>(Compression::Fp16) &&
        codec != static_cast<int32_t>(Compression::Int8) &&
        codec != static_cast<int32_t>(Compression::TopK))
        return WireStatus::BadCodec;
    if (m.ints[4] < 0 || static_cast<size_t>(m.ints[4]) != dim ||
        m.ints[5] < 0 || m.ints[6] < 0)
        return WireStatus::BadCodec;

    EncodedDelta e;
    e.mode = static_cast<Compression>(codec);
    e.n = static_cast<uint32_t>(m.ints[4]);
    e.k = static_cast<uint32_t>(m.ints[5]);
    e.quant_range = static_cast<uint32_t>(m.ints[6]);
    e.scales = m.floats;
    e.payload = m.bytes;
    if (decode_delta(e, delta) != CodecStatus::Ok)
        return WireStatus::BadCodec;
    return WireStatus::Ok;
}

WireStatus
validate_push_delta(const Message &m, size_t dim)
{
    std::vector<float> scratch;
    return decode_push_delta(m, dim, &scratch);
}

} // namespace autofl::net
