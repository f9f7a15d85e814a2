/**
 * @file
 * Push-path update compression: the client-delta codecs (Fp16, Int8
 * with per-range absmax scales, TopK magnitude sparsification) and the
 * per-client error-feedback accumulator that carries the quantization
 * residual into the next round's delta, so compression biases decay
 * instead of accumulating.
 *
 * The codec operates on *deltas* (local weights minus the pulled
 * weights): deltas shrink as training converges, which is what makes
 * aggressive quantization safe, and the receiver reconstructs absolute
 * weights by adding the decoded delta back onto the exact pulled
 * payload it served. Compression::None bypasses the codec entirely —
 * zero float operations — preserving the runtime's bit-for-bit
 * contracts.
 *
 * Kept free of fl/ and net/ includes so ps_config.h can embed a
 * CompressionConfig without include cycles; the wire mapping lives in
 * src/net/wire.h.
 */
#ifndef AUTOFL_PS_COMPRESSION_H
#define AUTOFL_PS_COMPRESSION_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace autofl {

/**
 * Push-delta encoding, a resource knob next to SyncMode:
 *
 * - None: raw f32 deltas / absolute weights; bit-for-bit the
 *   uncompressed runtime.
 * - Fp16: IEEE binary16 per element (2x smaller, ~2^-11 relative).
 * - Int8: per-range absmax quantization — one f32 scale per
 *   quant_range elements, one signed byte per element (~4x smaller).
 * - TopK: keep the k = topk_fraction * n largest-magnitude elements;
 *   ranged u16 index + fp16 value pairs (~10x smaller at 10%).
 */
enum class Compression { None, Fp16, Int8, TopK };

/** Display name: "none", "fp16", "int8" or "topk". */
std::string compression_name(Compression c);

/** Parse a compression_name string; returns false on unknown input. */
bool parse_compression(const std::string &name, Compression *out);

/** Push-path compression knobs (PsConfig::compression). */
struct CompressionConfig
{
    Compression mode = Compression::None;

    /**
     * Int8: elements sharing one absmax scale. Smaller ranges track
     * per-layer magnitude spread more closely at 4 bytes of scale
     * overhead per range (0.4% at the default).
     */
    int quant_range = 1024;

    /** TopK: fraction of elements kept, in (0, 1]. */
    double topk_fraction = 0.10;

    bool enabled() const { return mode != Compression::None; }

    /**
     * Validate the knobs, throwing std::invalid_argument with an
     * actionable message; @p who names the owning config.
     */
    void validate(const char *who) const;
};

/**
 * One encoded delta — the codec's in-memory form, mapped 1:1 onto a
 * PushDelta wire message (scales -> the floats section, payload -> the
 * bytes section, the small fields -> ints).
 */
struct EncodedDelta
{
    Compression mode = Compression::None;
    uint32_t n = 0;            ///< Original element count.
    uint32_t k = 0;            ///< TopK: kept element count.
    uint32_t quant_range = 0;  ///< Int8: elements per scale.

    /** Int8: per-range absmax (scale = absmax / 127). */
    std::vector<float> scales;

    /**
     * Packed bytes. Fp16: n binary16 values. Int8: n signed bytes.
     * TopK: per 65536-element range, a u32 count followed by count
     * ascending u16 local indices and count binary16 values.
     */
    std::vector<uint8_t> payload;

    /** None only: the raw delta, untouched. */
    std::vector<float> dense;
};

/** Typed decode outcome; anything but Ok means a malformed payload. */
enum class CodecStatus {
    Ok,
    BadMode,     ///< Unknown Compression value.
    BadLength,   ///< Section sizes inconsistent with n / quant_range.
    BadScale,    ///< Non-finite or negative Int8 scale (e.g. NaN).
    BadK,        ///< TopK count exceeds n or the per-range capacity.
    BadIndex,    ///< TopK index out of range or not strictly ascending.
};

/** Status name for logs ("ok", "bad-scale", ...). */
const char *codec_status_name(CodecStatus s);

/** TopK range granularity (u16 local indices). */
constexpr size_t kTopKRangeLen = 65536;

/**
 * Encode @p n delta elements under @p cfg. For Compression::None the
 * delta is moved into EncodedDelta::dense untouched. The encode is a
 * pure function of (cfg, delta) — kernel-arch independent, see the
 * codec family contract in kernels.h.
 */
EncodedDelta encode_delta(const CompressionConfig &cfg,
                          std::vector<float> delta);

/**
 * Decode into @p out (resized to e.n). Validates every structural
 * invariant of the encoding first — truncated scale tables, counts
 * exceeding a range, NaN scales — and returns a typed status without
 * touching @p out on failure. Never crashes on malformed input.
 */
CodecStatus decode_delta(const EncodedDelta &e, std::vector<float> *out);

/** Wire payload cost of an encoded delta (scales + payload + dense). */
size_t encoded_payload_bytes(const EncodedDelta &e);

/**
 * Analytic encoded size of an n-element delta under @p cfg — the same
 * formula the codec realizes, shared with the simulator's
 * bytes-per-round model (sim/perf.h).
 */
size_t encoded_delta_bytes(const CompressionConfig &cfg, size_t n);

/**
 * Per-client error-feedback accumulator. Each encode folds the
 * client's residual into the delta, then stores the new residual
 * (folded delta minus its decoded reconstruction) for the next round:
 * what one round's quantizer drops, a later round re-sends, so the
 * compressed stream delivers the full update in the limit.
 *
 * Thread-safe across devices; the runtime guarantees one in-flight
 * encode per device (a device trains at most once per round and
 * compression requires pipeline_depth == 1), which keeps the residual
 * sequence — and therefore training — deterministic.
 */
class ErrorFeedback
{
  public:
    /**
     * Fold residual, encode, update residual. When @p decoded is
     * non-null it receives the reconstruction the receiver will see
     * (exactly decode_delta of the result). None mode is a pure move
     * with no residual bookkeeping.
     */
    EncodedDelta encode(const CompressionConfig &cfg, int device,
                        std::vector<float> delta,
                        std::vector<float> *decoded = nullptr);

    /**
     * In-process round trip for the in-process ps runtime's jobs:
     * replaces @p weights with pulled + decode(encode(weights -
     * pulled)) under error feedback, returning the would-be wire
     * payload bytes. None mode leaves @p weights untouched (zero
     * float ops) and just prices the raw payload.
     */
    size_t compress_update(const CompressionConfig &cfg, int device,
                           const float *pulled, std::vector<float> &weights);

    /** Drop all residuals (new training run). */
    void reset();

    /** Devices with a stored residual (tests/metrics). */
    size_t tracked_devices() const;

    /** Copy of one device's residual; empty when untracked. */
    std::vector<float> residual(int device) const;

  private:
    mutable std::mutex mu_;
    std::map<int, std::vector<float>> residual_;
};

} // namespace autofl

#endif // AUTOFL_PS_COMPRESSION_H
