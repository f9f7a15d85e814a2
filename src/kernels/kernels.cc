#include "kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/kernel_table.h"

namespace autofl::kernels {

namespace {

// ------------------------------------------------- scalar GEMM family
// Reduction order contract: for every output element, the k terms are
// added in ascending k order, one rounding per add — exactly the seed
// triple loops in src/tensor/tensor.cc, including the skip of zero
// multipliers (adds of +0.0f are rounding no-ops on finite data).

void
scalar_gemm(int m, int n, int k, const float *a, int lda, const float *b,
            int ldb, float *c, int ldc, bool accumulate)
{
    for (int i = 0; i < m; ++i) {
        float *crow = c + static_cast<size_t>(i) * ldc;
        if (!accumulate)
            std::memset(crow, 0, sizeof(float) * static_cast<size_t>(n));
        const float *arow = a + static_cast<size_t>(i) * lda;
        for (int kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f)
                continue;
            const float *brow = b + static_cast<size_t>(kk) * ldb;
            for (int j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
scalar_gemm_tn(int m, int n, int k, const float *a, int lda, const float *b,
               int ldb, float *c, int ldc, bool accumulate)
{
    if (!accumulate) {
        for (int i = 0; i < m; ++i)
            std::memset(c + static_cast<size_t>(i) * ldc, 0,
                        sizeof(float) * static_cast<size_t>(n));
    }
    for (int kk = 0; kk < k; ++kk) {
        const float *arow = a + static_cast<size_t>(kk) * lda;
        const float *brow = b + static_cast<size_t>(kk) * ldb;
        for (int i = 0; i < m; ++i) {
            const float av = arow[i];
            if (av == 0.0f)
                continue;
            float *crow = c + static_cast<size_t>(i) * ldc;
            for (int j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
scalar_gemm_nt(int m, int n, int k, const float *a, int lda, const float *b,
               int ldb, float *c, int ldc, bool accumulate)
{
    for (int i = 0; i < m; ++i) {
        const float *arow = a + static_cast<size_t>(i) * lda;
        float *crow = c + static_cast<size_t>(i) * ldc;
        for (int j = 0; j < n; ++j) {
            const float *brow = b + static_cast<size_t>(j) * ldb;
            float acc = 0.0f;
            for (int kk = 0; kk < k; ++kk)
                acc += arow[kk] * brow[kk];
            crow[j] = accumulate ? crow[j] + acc : acc;
        }
    }
}

// --------------------------------------------- scalar elementwise

void
scalar_axpy(size_t n, float alpha, const float *x, float *y)
{
    for (size_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scalar_scale(size_t n, float alpha, float *y)
{
    for (size_t i = 0; i < n; ++i)
        y[i] *= alpha;
}

void
scalar_vadd(size_t n, const float *x, float *y)
{
    for (size_t i = 0; i < n; ++i)
        y[i] += x[i];
}

void
scalar_vsub(size_t n, const float *x, float *y)
{
    for (size_t i = 0; i < n; ++i)
        y[i] -= x[i];
}

void
scalar_add_bias_rows(int rows, int cols, const float *bias, float *y)
{
    for (int r = 0; r < rows; ++r) {
        float *row = y + static_cast<size_t>(r) * cols;
        for (int c = 0; c < cols; ++c)
            row[c] += bias[c];
    }
}

void
scalar_accumulate_rows(int rows, int cols, const float *src, float *dst)
{
    for (int r = 0; r < rows; ++r) {
        const float *row = src + static_cast<size_t>(r) * cols;
        for (int c = 0; c < cols; ++c)
            dst[c] += row[c];
    }
}

void
scalar_relu_forward(size_t n, float *y, uint8_t *mask)
{
    for (size_t i = 0; i < n; ++i) {
        if (y[i] > 0.0f) {
            mask[i] = 1;
        } else {
            mask[i] = 0;
            y[i] = 0.0f;
        }
    }
}

void
scalar_relu_backward(size_t n, const uint8_t *mask, float *dy)
{
    for (size_t i = 0; i < n; ++i)
        if (!mask[i])
            dy[i] = 0.0f;
}

void
scalar_sgd_step(size_t n, float *w, const float *g, float *v, float lr,
                float wd, float momentum)
{
    for (size_t i = 0; i < n; ++i) {
        float grad = g[i] + wd * w[i];
        if (v != nullptr && momentum != 0.0f) {
            v[i] = momentum * v[i] + grad;
            grad = v[i];
        }
        w[i] -= lr * grad;
    }
}

void
scalar_sgd_step_prox(size_t n, float *w, const float *g, float *v,
                     const float *anchor, float lr, float wd, float momentum,
                     float mu)
{
    for (size_t i = 0; i < n; ++i) {
        float grad = g[i] + wd * w[i] + mu * (w[i] - anchor[i]);
        if (v != nullptr && momentum != 0.0f) {
            v[i] = momentum * v[i] + grad;
            grad = v[i];
        }
        w[i] -= lr * grad;
    }
}

void
scalar_axpy_f64(size_t n, double alpha, const float *x, double *acc)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] += alpha * x[i];
}

void
scalar_diff_axpy_f64(size_t n, double alpha, const float *w, const float *u,
                     double *acc)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] += alpha * (static_cast<double>(w[i]) - u[i]);
}

void
scalar_cast_f64_to_f32(size_t n, const double *acc, float *out)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(acc[i]);
}

void
scalar_apply_step_f64(size_t n, float *w, double tau, const double *dir)
{
    for (size_t i = 0; i < n; ++i)
        w[i] = static_cast<float>(w[i] - tau * dir[i]);
}

// ------------------------------------------ scalar push-delta codec

float
scalar_absmax(size_t n, const float *x)
{
    float m = 0.0f;
    for (size_t i = 0; i < n; ++i)
        m = std::fmax(m, std::fabs(x[i]));
    return m;
}

void
scalar_quantize_i8(size_t n, const float *x, float inv_scale, int8_t *q)
{
    for (size_t i = 0; i < n; ++i) {
        // One RNE rounding (nearbyintf under the default mode), then a
        // float-domain clamp: NaN products land on -127, exactly like
        // the AVX2 variant's cvtps_epi32(NaN) = INT_MIN -> max(-127).
        float r = std::nearbyint(x[i] * inv_scale);
        r = std::fmin(std::fmax(r, -127.0f), 127.0f);
        q[i] = static_cast<int8_t>(r);
    }
}

void
scalar_dequantize_i8(size_t n, const int8_t *q, float scale, float *y)
{
    for (size_t i = 0; i < n; ++i)
        y[i] = static_cast<float>(q[i]) * scale;
}

/**
 * f32 -> IEEE binary16, round-to-nearest-even, by bit manipulation —
 * bit-identical to F16C's VCVTPS2PH (subnormal halves, mantissa-carry
 * overflow into inf, and NaN quieting with truncated payload).
 */
inline uint16_t
scalar_f32_to_fp16(float x)
{
    uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    const uint32_t sign = (bits >> 16) & 0x8000u;
    const uint32_t absb = bits & 0x7fffffffu;
    if (absb >= 0x7f800000u) {  // inf / NaN (quiet bit set, payload MSBs)
        if (absb == 0x7f800000u)
            return static_cast<uint16_t>(sign | 0x7c00u);
        return static_cast<uint16_t>(sign | 0x7e00u |
                                     ((absb & 0x7fffffu) >> 13));
    }
    if (absb >= 0x47800000u)  // >= 65536: inf
        return static_cast<uint16_t>(sign | 0x7c00u);
    if (absb >= 0x38800000u) {  // normal half; carry may round to inf
        uint32_t q = ((((absb >> 23) - 112u) << 10) |
                      ((absb >> 13) & 0x3ffu));
        const uint32_t rem = absb & 0x1fffu;
        if (rem > 0x1000u || (rem == 0x1000u && (q & 1u)))
            ++q;
        return static_cast<uint16_t>(sign | q);
    }
    if (absb <= 0x33000000u)  // <= 2^-25: RNE to (signed) zero
        return static_cast<uint16_t>(sign);
    // Subnormal half: value = m24 * 2^(E-150), h = rne(m24 >> (126-E)).
    const uint32_t m24 = (absb & 0x7fffffu) | 0x800000u;
    const uint32_t shift = 126u - (absb >> 23);  // in [1, 24]
    uint32_t q = m24 >> shift;
    const uint32_t rem = m24 & ((1u << shift) - 1u);
    const uint32_t half = 1u << (shift - 1u);
    if (rem > half || (rem == half && (q & 1u)))
        ++q;  // May carry into the smallest normal — correct encoding.
    return static_cast<uint16_t>(sign | q);
}

/** IEEE binary16 -> f32: exact widening. */
inline float
scalar_fp16_to_f32(uint16_t h)
{
    const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
    const uint32_t exp = (h >> 10) & 0x1fu;
    uint32_t man = h & 0x3ffu;
    uint32_t bits;
    if (exp == 0x1fu) {  // inf / NaN
        bits = sign | 0x7f800000u | (man << 13);
    } else if (exp != 0u) {  // normal
        bits = sign | ((exp + 112u) << 23) | (man << 13);
    } else if (man == 0u) {  // zero
        bits = sign;
    } else {  // subnormal: normalize
        uint32_t shift = 0;
        while (!(man & 0x400u)) {
            man <<= 1;
            ++shift;
        }
        bits = sign | ((113u - shift) << 23) | ((man & 0x3ffu) << 13);
    }
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

void
scalar_fp16_encode(size_t n, const float *x, uint16_t *h)
{
    for (size_t i = 0; i < n; ++i)
        h[i] = scalar_f32_to_fp16(x[i]);
}

void
scalar_fp16_decode(size_t n, const uint16_t *h, float *y)
{
    for (size_t i = 0; i < n; ++i)
        y[i] = scalar_fp16_to_f32(h[i]);
}

inline float
scalar_sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

/**
 * The exact libm fused gate update: the scalar table's lstm_gate_forward
 * and lstm_gate_infer entries (the AVX2 and AVX-512 tables override
 * both with their polynomial-exp versions).
 */
void
scalar_lstm_gate(int batch, int hidden, float *z, const float *cprev,
                 float *c, float *h)
{
    const int h4 = 4 * hidden;
    for (int n = 0; n < batch; ++n) {
        float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        float *cn = c + static_cast<size_t>(n) * hidden;
        float *hn = h + static_cast<size_t>(n) * hidden;
        for (int j = 0; j < hidden; ++j) {
            float &zi = zrow[j];
            float &zf = zrow[hidden + j];
            float &zg = zrow[2 * hidden + j];
            float &zo = zrow[3 * hidden + j];
            zi = scalar_sigmoidf(zi);
            zf = scalar_sigmoidf(zf);
            zg = std::tanh(zg);
            zo = scalar_sigmoidf(zo);
            const float cv = zf * cp[j] + zi * zg;
            cn[j] = cv;
            hn[j] = zo * std::tanh(cv);
        }
    }
}

void
scalar_lstm_gate_backward(int batch, int hidden, const float *z,
                          const float *cprev, const float *c,
                          const float *dh, const float *dc, float *dz,
                          float *dc_prev)
{
    const int h4 = 4 * hidden;
    for (int n = 0; n < batch; ++n) {
        const float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        const float *cn = c + static_cast<size_t>(n) * hidden;
        const float *dhn = dh + static_cast<size_t>(n) * hidden;
        const float *dcn = dc + static_cast<size_t>(n) * hidden;
        float *dzrow = dz + static_cast<size_t>(n) * h4;
        float *dcp = dc_prev + static_cast<size_t>(n) * hidden;
        for (int j = 0; j < hidden; ++j) {
            const float i_g = zrow[j];
            const float f_g = zrow[hidden + j];
            const float g_g = zrow[2 * hidden + j];
            const float o_g = zrow[3 * hidden + j];
            const float tc = std::tanh(cn[j]);
            const float dht = dhn[j];

            const float dct = dht * o_g * (1.0f - tc * tc) + dcn[j];
            const float d_o = dht * tc;
            const float d_i = dct * g_g;
            const float d_g = dct * i_g;
            const float d_f = dct * cp[j];
            dcp[j] = dct * f_g;

            dzrow[j] = d_i * i_g * (1.0f - i_g);
            dzrow[hidden + j] = d_f * f_g * (1.0f - f_g);
            dzrow[2 * hidden + j] = d_g * (1.0f - g_g * g_g);
            dzrow[3 * hidden + j] = d_o * o_g * (1.0f - o_g);
        }
    }
}

// ----------------------------------------- scalar direct convolution

void
scalar_conv_taps(int rows, int cols, int pitch, int step, int terms,
                 const float *w, const int *off, const float *in, float init,
                 float *out)
{
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            const float *p = in + static_cast<size_t>(r) * pitch +
                static_cast<size_t>(c) * step;
            float acc = init;
            for (int t = 0; t < terms; ++t)
                acc += w[t] * p[off[t]];
            out[static_cast<size_t>(r) * cols + c] = acc;
        }
}

// ----------------------------------------- packed-panel GEMM driver
// Shared BLIS-style 5-loop driver parameterized by the active table's
// register-tile geometry (gemm_mr x gemm_nr) and cache blocking
// (gemm_mc / gemm_kc / gemm_nc). A is repacked into contiguous MR-row
// panels, B into NR-column panels (the table's pack_panels entry, the
// same floats on every arch), so the microkernel streams both
// with unit stride regardless of the source layout (plain, ^T via
// strides, or a prepacked handle). Panels are zero-padded to full tile
// width; ragged C edges are staged through a scratch tile. Reduction
// order is ascending k per output element (one FMA per term), fixed by
// (m, n, k, arch) — per-variant bitwise deterministic, same 1e-4
// tolerance class as the direct SIMD kernels.

/** Shapes below these never amortize the packing pass. */
constexpr int kPackedMinK = 48;
/** Operand footprint (elements) above which packing pays for itself. */
constexpr long long kPackedMinOperand = 8192;
/** Upper bound on any variant's MR x NR scratch tile. */
constexpr int kMaxMicroTile = 512;

inline int
round_up(int v, int mult)
{
    return (v + mult - 1) / mult * mult;
}

/**
 * The scalar pack_panels entry (see KernelTable): one load per element,
 * whole panel rows copied where the panel index is contiguous.
 */
void
scalar_pack_panels(int count, int kb, const float *src, size_t xs, size_t ks,
                   int w, float *out)
{
    for (int p = 0; p < count; p += w) {
        const int valid = std::min(w, count - p);
        const float *blk = src + static_cast<size_t>(p) * xs;
        for (int kk = 0; kk < kb; ++kk) {
            const float *s = blk + static_cast<size_t>(kk) * ks;
            if (xs == 1 && valid == w) {
                std::memcpy(out, s, sizeof(float) * static_cast<size_t>(w));
                out += w;
            } else {
                for (int x = 0; x < valid; ++x)
                    *out++ = s[static_cast<size_t>(x) * xs];
                for (int x = valid; x < w; ++x)
                    *out++ = 0.0f;
            }
        }
    }
}

/** The table's pack_panels entry, or the scalar one when null. */
inline auto
pack_entry(const KernelTable &t)
{
    return t.pack_panels != nullptr ? t.pack_panels : scalar_pack_panels;
}

/**
 * Pack an mb x kb block of A (element (i, kk) at a[i*rs + kk*cs]) into
 * ceil(mb/mr) row panels.
 */
inline void
pack_a_block(const KernelTable &t, int mb, int kb, const float *a, size_t rs,
             size_t cs, float *out)
{
    pack_entry(t)(mb, kb, a, rs, cs, t.gemm_mr, out);
}

/**
 * Pack a kb x nb block of B (element (kk, j) at b[kk*rs + j*cs]) into
 * ceil(nb/nr) column panels.
 */
inline void
pack_b_block(const KernelTable &t, int kb, int nb, const float *b, size_t rs,
             size_t cs, float *out)
{
    pack_entry(t)(nb, kb, b, cs, rs, t.gemm_nr, out);
}

/** Sweep one packed (mb x kb) x (kb x nb) macro block over C. */
void
macro_block(const KernelTable &t, int mb, int nb, int kb, const float *ap,
            const float *bp, float *c, int ldc, bool acc)
{
    const int mr = t.gemm_mr;
    const int nr = t.gemm_nr;
    const size_t astride = static_cast<size_t>(mr) * kb;
    const size_t bstride = static_cast<size_t>(nr) * kb;
    alignas(64) float tile[kMaxMicroTile];
    for (int jr = 0; jr < nb; jr += nr) {
        const int nn = std::min(nr, nb - jr);
        const float *bpanel = bp + static_cast<size_t>(jr / nr) * bstride;
        for (int ir = 0; ir < mb; ir += mr) {
            const int mm = std::min(mr, mb - ir);
            const float *apanel = ap + static_cast<size_t>(ir / mr) * astride;
            float *cblk = c + static_cast<size_t>(ir) * ldc + jr;
            if (mm == mr && nn == nr) {
                t.gemm_micro(kb, apanel, bpanel, cblk, ldc, acc);
            } else {
                // Ragged edge: full tile into scratch, then the valid
                // region onto C (same per-element reduction order).
                t.gemm_micro(kb, apanel, bpanel, tile, nr, false);
                for (int i = 0; i < mm; ++i) {
                    const float *trow = tile + static_cast<size_t>(i) * nr;
                    float *crow = cblk + static_cast<size_t>(i) * ldc;
                    if (acc) {
                        for (int j = 0; j < nn; ++j)
                            crow[j] += trow[j];
                    } else {
                        for (int j = 0; j < nn; ++j)
                            crow[j] = trow[j];
                    }
                }
            }
        }
    }
}

/**
 * One GEMM operand for the packed driver: either a raw strided matrix
 * (element (r, c) at raw[r*rs + c*cs]) or fully prepacked panels laid
 * out in the driver's own block order (see pack_gemm_a/pack_gemm_b).
 */
struct OperandA
{
    const float *raw = nullptr;
    size_t rs = 0;
    size_t cs = 0;
    const float *packed = nullptr;  ///< pc-major, then ic blocks.
};

struct OperandB
{
    const float *raw = nullptr;
    size_t rs = 0;
    size_t cs = 0;
    const float *packed = nullptr;  ///< jc-major, then pc blocks.
};

void
packed_gemm_driver(const KernelTable &t, int m, int n, int k,
                   const OperandA &oa, const OperandB &ob, float *c, int ldc,
                   bool accumulate)
{
    if (k <= 0) {
        if (!accumulate)
            for (int i = 0; i < m; ++i)
                std::memset(c + static_cast<size_t>(i) * ldc, 0,
                            sizeof(float) * static_cast<size_t>(n));
        return;
    }
    const int mr = t.gemm_mr;
    const int nr = t.gemm_nr;
    const int mc = t.gemm_mc;
    const int kc = t.gemm_kc;
    const int nc = t.gemm_nc;
    const int rnd_m = round_up(m, mr);
    thread_local std::vector<float> apack;
    thread_local std::vector<float> bpack;
    if (oa.packed == nullptr)
        apack.resize(static_cast<size_t>(round_up(std::min(m, mc), mr)) *
                     static_cast<size_t>(std::min(k, kc)));
    if (ob.packed == nullptr)
        bpack.resize(static_cast<size_t>(round_up(std::min(n, nc), nr)) *
                     static_cast<size_t>(std::min(k, kc)));
    for (int jc = 0; jc < n; jc += nc) {
        const int nb = std::min(nc, n - jc);
        const int rnd_nb = round_up(nb, nr);
        for (int pc = 0; pc < k; pc += kc) {
            const int kb = std::min(kc, k - pc);
            // Later kc blocks accumulate onto the earlier ones, so the
            // per-element reduction stays ascending k.
            const bool acc = accumulate || pc > 0;
            const float *bp;
            if (ob.packed != nullptr) {
                bp = ob.packed + static_cast<size_t>(jc) * k +
                     static_cast<size_t>(rnd_nb) * pc;
            } else {
                pack_b_block(t, kb, nb,
                             ob.raw + static_cast<size_t>(pc) * ob.rs +
                                 static_cast<size_t>(jc) * ob.cs,
                             ob.rs, ob.cs, bpack.data());
                bp = bpack.data();
            }
            for (int ic = 0; ic < m; ic += mc) {
                const int mb = std::min(mc, m - ic);
                const float *ap;
                if (oa.packed != nullptr) {
                    ap = oa.packed + static_cast<size_t>(rnd_m) * pc +
                         static_cast<size_t>(ic) * kb;
                } else {
                    pack_a_block(t, mb, kb,
                                 oa.raw + static_cast<size_t>(ic) * oa.rs +
                                     static_cast<size_t>(pc) * oa.cs,
                                 oa.rs, oa.cs, apack.data());
                    ap = apack.data();
                }
                macro_block(t, mb, nb, kb, ap, bp,
                            c + static_cast<size_t>(ic) * ldc + jc, ldc,
                            acc);
            }
        }
    }
}

std::atomic<GemmPath> &
gemm_path_slot()
{
    static std::atomic<GemmPath> path{GemmPath::Auto};
    return path;
}

/**
 * Pure function of (table, shape, path policy) — never of data — so
 * the reduction order each call site sees is reproducible.
 */
inline bool
use_packed_path(const KernelTable &t, int m, int n, int k)
{
    if (t.gemm_micro == nullptr)
        return false;
    switch (gemm_path_slot().load(std::memory_order_relaxed)) {
      case GemmPath::Direct:
        return false;
      case GemmPath::Packed:
        return true;
      case GemmPath::Auto:
        break;
    }
    if (k < kPackedMinK || m < t.gemm_mr || n < t.gemm_nr)
        return false;
    // Packing is O(mk + kn) against O(mnk) flops; it pays once an
    // operand no longer sits in L1 across the sweep.
    return static_cast<long long>(k) * n >= kPackedMinOperand ||
           static_cast<long long>(k) * m >= kPackedMinOperand;
}

const KernelTable *
make_scalar_table()
{
    static KernelTable t = [] {
        KernelTable k;
        k.gemm = scalar_gemm;
        k.gemm_tn = scalar_gemm_tn;
        k.gemm_nt = scalar_gemm_nt;
        k.pack_panels = scalar_pack_panels;
        k.axpy = scalar_axpy;
        k.scale = scalar_scale;
        k.vadd = scalar_vadd;
        k.vsub = scalar_vsub;
        k.add_bias_rows = scalar_add_bias_rows;
        k.accumulate_rows = scalar_accumulate_rows;
        k.relu_forward = scalar_relu_forward;
        k.relu_backward = scalar_relu_backward;
        k.sgd_step = scalar_sgd_step;
        k.sgd_step_prox = scalar_sgd_step_prox;
        k.absmax = scalar_absmax;
        k.quantize_i8 = scalar_quantize_i8;
        k.dequantize_i8 = scalar_dequantize_i8;
        k.fp16_encode = scalar_fp16_encode;
        k.fp16_decode = scalar_fp16_decode;
        k.axpy_f64 = scalar_axpy_f64;
        k.diff_axpy_f64 = scalar_diff_axpy_f64;
        k.cast_f64_to_f32 = scalar_cast_f64_to_f32;
        k.apply_step_f64 = scalar_apply_step_f64;
        k.lstm_gate_forward = scalar_lstm_gate;
        k.lstm_gate_backward = scalar_lstm_gate_backward;
        k.lstm_gate_infer = scalar_lstm_gate;
        k.conv_taps = scalar_conv_taps;
        // No gemm_micro: the scalar direct loops ARE the bit-exactness
        // baseline, so the scalar table has no packed path by design.
        // Parity tiers: all Exact (this table defines the baseline).
        return k;
    }();
    return &t;
}

/** The given arch's table, or null when not compiled in. */
const KernelTable *
table_for(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
        return scalar_kernel_table();
      case KernelArch::Avx2:
        return avx2_kernel_table();
      case KernelArch::Avx512:
        return avx512_kernel_table();
    }
    return scalar_kernel_table();
}

/**
 * Table for the currently selected arch. Entries a variant left null
 * fall back to scalar, resolved per member at lookup time.
 */
inline const KernelTable &
active()
{
    if (const KernelTable *t = table_for(current_kernel_arch()))
        return *t;
    return *scalar_kernel_table();
}

/** Pick the active table's entry, or the scalar one when null. */
template <typename Fn>
inline Fn
pick(Fn KernelTable::*member)
{
    const Fn fn = active().*member;
    return fn != nullptr ? fn : scalar_kernel_table()->*member;
}

} // namespace

const KernelTable *
scalar_kernel_table()
{
    return make_scalar_table();
}

// ------------------------------------------------ public dispatchers

const KernelParity &
kernel_parity(KernelArch arch)
{
    const KernelTable *t = table_for(arch);
    return (t != nullptr ? t : scalar_kernel_table())->parity_tier;
}

GemmPath
set_gemm_path(GemmPath path)
{
    return gemm_path_slot().exchange(path, std::memory_order_relaxed);
}

GemmPath
current_gemm_path()
{
    return gemm_path_slot().load(std::memory_order_relaxed);
}

void
gemm(int m, int n, int k, const float *a, int lda, const float *b, int ldb,
     float *c, int ldc, bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    const KernelTable &t = active();
    if (use_packed_path(t, m, n, k)) {
        packed_gemm_driver(t, m, n, k,
                           OperandA{a, static_cast<size_t>(lda), 1, nullptr},
                           OperandB{b, static_cast<size_t>(ldb), 1, nullptr},
                           c, ldc, accumulate);
        return;
    }
    pick(&KernelTable::gemm)(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void
gemm_tn(int m, int n, int k, const float *a, int lda, const float *b,
        int ldb, float *c, int ldc, bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    const KernelTable &t = active();
    if (use_packed_path(t, m, n, k)) {
        // A stored {k, m}: element (i, kk) at a[kk * lda + i].
        packed_gemm_driver(t, m, n, k,
                           OperandA{a, 1, static_cast<size_t>(lda), nullptr},
                           OperandB{b, static_cast<size_t>(ldb), 1, nullptr},
                           c, ldc, accumulate);
        return;
    }
    pick(&KernelTable::gemm_tn)(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void
gemm_nt(int m, int n, int k, const float *a, int lda, const float *b,
        int ldb, float *c, int ldc, bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    const KernelTable &t = active();
    if (use_packed_path(t, m, n, k)) {
        // B stored {n, k}: element (kk, j) at b[j * ldb + kk].
        packed_gemm_driver(t, m, n, k,
                           OperandA{a, static_cast<size_t>(lda), 1, nullptr},
                           OperandB{b, 1, static_cast<size_t>(ldb), nullptr},
                           c, ldc, accumulate);
        return;
    }
    pick(&KernelTable::gemm_nt)(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

// ------------------------------------------- prepacked GEMM operands

void
PackedGemm::alloc_floats(size_t n, bool align)
{
    // Plain new, aligned by hand, and exactly n floats where alignment
    // buys nothing (the row-major copy). A B=16 MobileNet infer() frees
    // its activations into the heap top; whether glibc then trims it,
    // re-faulting ~37 pages per call, hinges on the size and placement
    // of per-call blocks like this one, and aligned new or a padded
    // copy here tipped it into trimming.
    buf_.reset(new float[align ? n + 15 : n]);
    data_ = align ? reinterpret_cast<float *>(
                        (reinterpret_cast<uintptr_t>(buf_.get()) + 63) &
                        ~uintptr_t{63})
                  : buf_.get();
}

PackedGemm
pack_gemm_a(int m, int k, const float *a, int lda, bool a_transposed)
{
    PackedGemm p;
    p.rows_ = m;
    p.cols_ = k;
    p.arch_ = current_kernel_arch();
    if (m <= 0 || k <= 0)
        return p;
    const size_t rs = a_transposed ? 1 : static_cast<size_t>(lda);
    const size_t cs = a_transposed ? static_cast<size_t>(lda) : 1;
    const KernelTable *t = table_for(p.arch_);
    if (t != nullptr && t->gemm_micro != nullptr && k >= kPackedMinK &&
        m >= t->gemm_mr) {
        p.panels_ = true;
        p.alloc_floats(static_cast<size_t>(round_up(m, t->gemm_mr)) * k,
                       true);
        float *out = p.data_;
        for (int pc = 0; pc < k; pc += t->gemm_kc) {
            const int kb = std::min(t->gemm_kc, k - pc);
            for (int ic = 0; ic < m; ic += t->gemm_mc) {
                const int mb = std::min(t->gemm_mc, m - ic);
                pack_a_block(*t, mb, kb,
                             a + static_cast<size_t>(ic) * rs +
                                 static_cast<size_t>(pc) * cs,
                             rs, cs, out);
                out += static_cast<size_t>(round_up(mb, t->gemm_mr)) * kb;
            }
        }
        return p;
    }
    // Below the cutoff (or scalar arch): a contiguous row-major copy;
    // compute calls route through the ordinary dispatcher, so the
    // scalar path keeps the seed-exact direct loops.
    p.alloc_floats(static_cast<size_t>(m) * k, false);
    for (int i = 0; i < m; ++i) {
        float *dst = p.data_ + static_cast<size_t>(i) * k;
        const float *src = a + static_cast<size_t>(i) * rs;
        if (cs == 1)
            std::memcpy(dst, src, sizeof(float) * static_cast<size_t>(k));
        else
            for (int kk = 0; kk < k; ++kk)
                dst[kk] = src[static_cast<size_t>(kk) * cs];
    }
    return p;
}

PackedGemm
pack_gemm_b(int m, int k, int n, const float *b, int ldb, bool b_transposed)
{
    PackedGemm p;
    p.rows_ = k;
    p.cols_ = n;
    p.arch_ = current_kernel_arch();
    if (k <= 0 || n <= 0)
        return p;
    const KernelTable *t = table_for(p.arch_);
    if (t == nullptr || !use_packed_path(*t, m, n, k)) {
        // gemm() would run this shape on the direct kernel: borrow.
        p.borrowed_ = b;
        p.ld_ = ldb;
        p.transposed_ = b_transposed;
        return p;
    }
    const size_t rs = b_transposed ? 1 : static_cast<size_t>(ldb);
    const size_t cs = b_transposed ? static_cast<size_t>(ldb) : 1;
    p.panels_ = true;
    p.alloc_floats(static_cast<size_t>(round_up(n, t->gemm_nr)) * k, true);
    float *out = p.data_;
    for (int jc = 0; jc < n; jc += t->gemm_nc) {
        const int nb = std::min(t->gemm_nc, n - jc);
        for (int pc = 0; pc < k; pc += t->gemm_kc) {
            const int kb = std::min(t->gemm_kc, k - pc);
            pack_b_block(*t, kb, nb,
                         b + static_cast<size_t>(pc) * rs +
                             static_cast<size_t>(jc) * cs,
                         rs, cs, out);
            out += static_cast<size_t>(round_up(nb, t->gemm_nr)) * kb;
        }
    }
    return p;
}

void
gemm_packed_a(const PackedGemm &a, int n, const float *b, int ldb, float *c,
              int ldc, bool accumulate)
{
    const int m = a.rows_;
    const int k = a.cols_;
    if (m <= 0 || n <= 0)
        return;
    if (!a.panels_) {
        gemm(m, n, k, a.data_, k, b, ldb, c, ldc, accumulate);
        return;
    }
    // Compute with the arch the panels were laid out for, so a handle
    // outlives any mid-flight set_kernel_arch flip.
    packed_gemm_driver(*table_for(a.arch_), m, n, k,
                       OperandA{nullptr, 0, 0, a.data_},
                       OperandB{b, static_cast<size_t>(ldb), 1, nullptr}, c,
                       ldc, accumulate);
}

void
gemm_packed_b(int m, const float *a, int lda, const PackedGemm &b, float *c,
              int ldc, bool accumulate)
{
    const int k = b.rows_;
    const int n = b.cols_;
    if (m <= 0 || n <= 0)
        return;
    if (!b.panels_) {
        if (b.transposed_)
            gemm_nt(m, n, k, a, lda, b.borrowed_, b.ld_, c, ldc, accumulate);
        else
            gemm(m, n, k, a, lda, b.borrowed_, b.ld_, c, ldc, accumulate);
        return;
    }
    packed_gemm_driver(*table_for(b.arch_), m, n, k,
                       OperandA{a, static_cast<size_t>(lda), 1, nullptr},
                       OperandB{nullptr, 0, 0, b.data_}, c, ldc,
                       accumulate);
}

void
axpy(size_t n, float alpha, const float *x, float *y)
{
    pick(&KernelTable::axpy)(n, alpha, x, y);
}

void
scale(size_t n, float alpha, float *y)
{
    pick(&KernelTable::scale)(n, alpha, y);
}

void
vadd(size_t n, const float *x, float *y)
{
    pick(&KernelTable::vadd)(n, x, y);
}

void
vsub(size_t n, const float *x, float *y)
{
    pick(&KernelTable::vsub)(n, x, y);
}

void
add_bias_rows(int rows, int cols, const float *bias, float *y)
{
    pick(&KernelTable::add_bias_rows)(rows, cols, bias, y);
}

void
accumulate_rows(int rows, int cols, const float *src, float *dst)
{
    pick(&KernelTable::accumulate_rows)(rows, cols, src, dst);
}

void
relu_forward(size_t n, float *y, uint8_t *mask)
{
    pick(&KernelTable::relu_forward)(n, y, mask);
}

void
relu_backward(size_t n, const uint8_t *mask, float *dy)
{
    pick(&KernelTable::relu_backward)(n, mask, dy);
}

void
sgd_step(size_t n, float *w, const float *g, float *v, float lr, float wd,
         float momentum)
{
    pick(&KernelTable::sgd_step)(n, w, g, v, lr, wd, momentum);
}

void
sgd_step_prox(size_t n, float *w, const float *g, float *v,
              const float *anchor, float lr, float wd, float momentum,
              float mu)
{
    pick(&KernelTable::sgd_step_prox)(n, w, g, v, anchor, lr, wd, momentum,
                                      mu);
}

// ------------------------------- push-delta codec (update compression)

float
absmax(size_t n, const float *x)
{
    return pick(&KernelTable::absmax)(n, x);
}

void
quantize_i8(size_t n, const float *x, float inv_scale, int8_t *q)
{
    pick(&KernelTable::quantize_i8)(n, x, inv_scale, q);
}

void
dequantize_i8(size_t n, const int8_t *q, float scale, float *y)
{
    pick(&KernelTable::dequantize_i8)(n, q, scale, y);
}

void
fp16_encode(size_t n, const float *x, uint16_t *h)
{
    pick(&KernelTable::fp16_encode)(n, x, h);
}

void
fp16_decode(size_t n, const uint16_t *h, float *y)
{
    pick(&KernelTable::fp16_decode)(n, h, y);
}

void
topk_select(size_t n, const float *x, size_t k, int32_t *idx)
{
    // Arch-independent by contract: comparison-only selection, no float
    // rounding — one shared implementation keeps the chosen support a
    // pure function of the input across every kernel arch. Magnitudes
    // compare as IEEE bit patterns (monotone with |x| for non-NaN; NaN
    // sorts largest), which is a strict total order even on garbage
    // inputs — no comparator UB.
    std::vector<uint32_t> mag(n);
    std::memcpy(mag.data(), x, n * sizeof(float));
    for (size_t i = 0; i < n; ++i)
        mag[i] &= 0x7fffffffu;
    std::vector<int32_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = static_cast<int32_t>(i);
    const auto larger_mag = [&mag](int32_t a, int32_t b) {
        return mag[a] > mag[b] || (mag[a] == mag[b] && a < b);
    };
    if (k < n)
        std::nth_element(order.begin(), order.begin() + k, order.end(),
                         larger_mag);
    std::sort(order.begin(), order.begin() + k);
    std::copy(order.begin(), order.begin() + k, idx);
}

void
axpy_f64(size_t n, double alpha, const float *x, double *acc)
{
    pick(&KernelTable::axpy_f64)(n, alpha, x, acc);
}

void
diff_axpy_f64(size_t n, double alpha, const float *w, const float *u,
              double *acc)
{
    pick(&KernelTable::diff_axpy_f64)(n, alpha, w, u, acc);
}

void
cast_f64_to_f32(size_t n, const double *acc, float *out)
{
    pick(&KernelTable::cast_f64_to_f32)(n, acc, out);
}

void
apply_step_f64(size_t n, float *w, double tau, const double *dir)
{
    pick(&KernelTable::apply_step_f64)(n, w, tau, dir);
}

// --------------------------------------------- LSTM fused gate math

void
lstm_gate_forward(int batch, int hidden, float *z, const float *cprev,
                  float *c, float *h)
{
    pick(&KernelTable::lstm_gate_forward)(batch, hidden, z, cprev, c, h);
}

void
lstm_gate_infer(int batch, int hidden, float *z, const float *cprev,
                float *c, float *h)
{
    pick(&KernelTable::lstm_gate_infer)(batch, hidden, z, cprev, c, h);
}

void
lstm_gate_backward(int batch, int hidden, const float *z, const float *cprev,
                   const float *c, const float *dh, const float *dc,
                   float *dz, float *dc_prev)
{
    pick(&KernelTable::lstm_gate_backward)(batch, hidden, z, cprev, c, dh,
                                           dc, dz, dc_prev);
}

// --------------------------------------------------- im2col / col2im

namespace {

/**
 * Outputs o in [lo, hi) of @p out whose tap o * stride + off lands
 * inside [0, in): the non-padding span of one kernel offset.
 */
inline void
tap_range(int out, int in, int stride, int off, int &lo, int &hi)
{
    if (stride == 1) {
        lo = std::min(out, std::max(0, -off));
        hi = std::min(out, in - off);
    } else {
        lo = off >= 0 ? 0 : std::min(out, (-off + stride - 1) / stride);
        hi = in - 1 - off < 0 ? 0
                              : std::min(out, (in - 1 - off) / stride + 1);
    }
    hi = std::max(hi, lo);
}

} // namespace

// Both loops run (ky, kx) outermost so the tap spans are computed once
// per kernel offset rather than once per channel.

void
im2col(const float *x, int channels, int ih, int iw, int k, int stride,
       int pad, float *col, size_t ld)
{
    const int oh = conv_out_size(ih, k, stride, pad);
    const int ow = conv_out_size(iw, k, stride, pad);
    const size_t plane = static_cast<size_t>(ih) * iw;
    for (int ky = 0; ky < k; ++ky) {
        int oy_lo, oy_hi;
        tap_range(oh, ih, stride, ky - pad, oy_lo, oy_hi);
        for (int kx = 0; kx < k; ++kx) {
            int ox_lo, ox_hi;
            tap_range(ow, iw, stride, kx - pad, ox_lo, ox_hi);
            // Same-size stride-1 output: column and input rows share one
            // pitch, so the valid block is one contiguous run of x.
            const bool run = stride == 1 && ow == iw && ox_lo < ox_hi &&
                oy_lo < oy_hi;
            for (int c = 0; c < channels; ++c) {
                const float *xc = x + c * plane;
                float *crow =
                    col + ((static_cast<size_t>(c) * k + ky) * k + kx) * ld;
                // Rows whose taps all fall in the vertical padding.
                std::fill(crow, crow + static_cast<size_t>(oy_lo) * ow,
                          0.0f);
                std::fill(crow + static_cast<size_t>(oy_hi) * ow,
                          crow + static_cast<size_t>(oh) * ow, 0.0f);
                if (run) {
                    // Copy the run whole, then zero the taps that
                    // wrapped around into the horizontal padding.
                    const size_t first =
                        static_cast<size_t>(oy_lo) * ow + ox_lo;
                    const size_t last =
                        static_cast<size_t>(oy_hi - 1) * ow + ox_hi;
                    std::memcpy(crow + first,
                                xc + static_cast<size_t>(oy_lo + ky - pad) *
                                        iw +
                                    (ox_lo + kx - pad),
                                sizeof(float) * (last - first));
                    for (int ox = 0; ox < ox_lo; ++ox)
                        for (int oy = oy_lo; oy < oy_hi; ++oy)
                            crow[static_cast<size_t>(oy) * ow + ox] = 0.0f;
                    for (int ox = ox_hi; ox < ow; ++ox)
                        for (int oy = oy_lo; oy < oy_hi; ++oy)
                            crow[static_cast<size_t>(oy) * ow + ox] = 0.0f;
                    continue;
                }
                for (int oy = oy_lo; oy < oy_hi; ++oy) {
                    float *orow = crow + static_cast<size_t>(oy) * ow;
                    const float *xrow = xc +
                        static_cast<size_t>(oy * stride + ky - pad) * iw;
                    std::fill(orow, orow + ox_lo, 0.0f);
                    for (int ox = ox_lo; ox < ox_hi; ++ox)
                        orow[ox] = xrow[ox * stride + kx - pad];
                    std::fill(orow + ox_hi, orow + ow, 0.0f);
                }
            }
        }
    }
}

void
col2im_add(const float *col, int channels, int ih, int iw, int k, int stride,
           int pad, float *x, size_t ld)
{
    // Within one (c, ky, kx) row each input element receives at most one
    // tap, and channels fold into disjoint planes, so every element
    // still sees its adds in ascending (ky, kx) order.
    const int oh = conv_out_size(ih, k, stride, pad);
    const int ow = conv_out_size(iw, k, stride, pad);
    const size_t plane = static_cast<size_t>(ih) * iw;
    for (int ky = 0; ky < k; ++ky) {
        int oy_lo, oy_hi;
        tap_range(oh, ih, stride, ky - pad, oy_lo, oy_hi);
        for (int kx = 0; kx < k; ++kx) {
            int ox_lo, ox_hi;
            tap_range(ow, iw, stride, kx - pad, ox_lo, ox_hi);
            for (int c = 0; c < channels; ++c) {
                float *xc = x + c * plane;
                const float *crow =
                    col + ((static_cast<size_t>(c) * k + ky) * k + kx) * ld;
                for (int oy = oy_lo; oy < oy_hi; ++oy) {
                    float *xrow = xc +
                        static_cast<size_t>(oy * stride + ky - pad) * iw;
                    const float *orow = crow + static_cast<size_t>(oy) * ow;
                    if (stride == 1) {
                        float *xr = xrow + (kx - pad);
                        for (int ox = ox_lo; ox < ox_hi; ++ox)
                            xr[ox] += orow[ox];
                    } else {
                        for (int ox = ox_lo; ox < ox_hi; ++ox)
                            xrow[ox * stride + kx - pad] += orow[ox];
                    }
                }
            }
        }
    }
}

// ------------------------------------- direct grouped convolution

namespace {

/**
 * Copy @p planes {h, w} planes into the {dh, dw} planes of @p dst with
 * their origin at (at, at), clipped to the destination: a positive
 * origin embeds them in a zero border (only the interior is written,
 * so a border zeroed once stays zero across calls), a negative one
 * crops the border off.
 */
void
embed_planes(const float *src, int planes, int h, int w, int dh, int dw,
             int at, float *dst)
{
    const int y0 = std::max(0, -at), y1 = std::min(h, dh - at);
    const int x0 = std::max(0, -at), n = std::min(w, dw - at) - x0;
    for (int c = 0; c < planes; ++c)
        for (int y = y0; y < y1; ++y) {
            const float *s = src + (static_cast<size_t>(c) * h + y) * w + x0;
            float *d =
                dst + (static_cast<size_t>(c) * dh + y + at) * dw + x0 + at;
            for (int x = 0; x < n; ++x)
                d[x] = s[x];
        }
}

/**
 * The nonzero entries of the {planes, k, k} weights @p w in ascending
 * (plane, ky, kx) order, with each tap's offset into zero-padded
 * planes @p plane floats apart and @p pitch floats per row. Zero
 * weights are dropped as scalar_gemm skips zero multipliers, so a zero
 * tap over an inf input adds nothing. Returns the term count.
 */
int
gather_taps(const float *w, int planes, int k, int plane, int pitch,
            float *wt, int *off)
{
    int terms = 0;
    for (int c = 0; c < planes; ++c)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx) {
                const float v = w[(c * k + ky) * k + kx];
                if (v == 0.0f)
                    continue;
                wt[terms] = v;
                off[terms++] = c * plane + ky * pitch + kx;
            }
    return terms;
}

} // namespace

void
conv_direct(const ConvGeometry &g, const float *x, const float *w,
            const float *bias, float *y, ConvScratch &scratch)
{
    const int icg = g.in_ch / g.groups, ocg = g.out_ch / g.groups;
    const int oh = g.oh(), ow = g.ow(), taps = icg * g.k * g.k;
    const int ph = g.ih + 2 * g.pad, pw = g.iw + 2 * g.pad;
    const size_t in_plane = static_cast<size_t>(g.ih) * g.iw;
    const size_t out_plane = static_cast<size_t>(oh) * ow;
    // Every output channel's taps, gathered once for the whole batch.
    std::vector<float> &wt = scratch.wt, &xp = scratch.planes;
    std::vector<int> &off = scratch.off, &terms = scratch.terms;
    wt.resize(static_cast<size_t>(g.out_ch) * taps);
    off.resize(wt.size());
    terms.resize(g.out_ch);
    for (int oc = 0; oc < g.out_ch; ++oc)
        terms[oc] = gather_taps(w + static_cast<size_t>(oc) * taps, icg, g.k,
                                ph * pw, pw, wt.data() + oc * taps,
                                off.data() + oc * taps);
    xp.assign(static_cast<size_t>(icg) * ph * pw, 0.0f);
    const auto conv_taps = pick(&KernelTable::conv_taps);
    for (int n = 0; n < g.batch; ++n)
        for (int grp = 0; grp < g.groups; ++grp) {
            embed_planes(x + (static_cast<size_t>(n) * g.in_ch + grp * icg) *
                                 in_plane,
                         icg, g.ih, g.iw, ph, pw, g.pad, xp.data());
            for (int oc = grp * ocg; oc < (grp + 1) * ocg; ++oc)
                conv_taps(oh, ow, g.stride * pw, g.stride, terms[oc],
                          wt.data() + oc * taps, off.data() + oc * taps,
                          xp.data(), bias[oc],
                          y + (static_cast<size_t>(n) * g.out_ch + oc) *
                                  out_plane);
        }
}

void
conv_direct_backward(const ConvGeometry &g, const float *x, const float *w,
                     const float *dy, float *dw, float *db, float *dx,
                     ConvScratch &scratch)
{
    const int icg = g.in_ch / g.groups, ocg = g.out_ch / g.groups;
    const int k = g.k, kk = k * k, taps = icg * kk;
    const int oh = g.oh(), ow = g.ow(), s = g.stride;
    const int ph = g.ih + 2 * g.pad, pw = g.iw + 2 * g.pad;
    const size_t in_plane = static_cast<size_t>(g.ih) * g.iw;
    const size_t out_plane = static_cast<size_t>(oh) * ow;
    // xp holds the group's padded input planes; xq gathers its padded
    // dx planes.
    std::vector<float> &xp = scratch.planes, &xq = scratch.grad;
    xp.assign(static_cast<size_t>(icg) * ph * pw, 0.0f);
    if (dx != nullptr)
        xq.resize(xp.size());
    std::vector<int> &xoff = scratch.off;
    xoff.resize(taps);
    for (int t = 0; t < taps; ++t)
        xoff[t] = t / kk * ph * pw + t % kk / k * pw + t % k;

    for (int n = 0; n < g.batch; ++n)
        for (int grp = 0; grp < g.groups; ++grp) {
            const float *dyg = dy + (static_cast<size_t>(n) * g.out_ch +
                                     grp * ocg) * out_plane;
            // db: each channel's dy in ascending spatial order.
            for (int ocl = 0; ocl < ocg; ++ocl) {
                const float *d = dyg + ocl * out_plane;
                float &b = db[grp * ocg + ocl];
                for (size_t i = 0; i < out_plane; ++i)
                    b += d[i];
            }
            // dW: per (channel, tap), this sample's dot product of dy
            // with the tap's input samples, formed from +0 in ascending
            // spatial order, then added.
            embed_planes(x + (static_cast<size_t>(n) * g.in_ch + grp * icg) *
                                 in_plane,
                         icg, g.ih, g.iw, ph, pw, g.pad, xp.data());
            for (int ocl = 0; ocl < ocg; ++ocl) {
                const float *d = dyg + ocl * out_plane;
                float *dwc = dw + static_cast<size_t>(grp * ocg + ocl) * taps;
                for (int t = 0; t < taps; ++t) {
                    float acc = 0.0f;
                    for (int oy = 0; oy < oh; ++oy) {
                        const float *dr = d + static_cast<size_t>(oy) * ow;
                        const float *p = xp.data() + xoff[t] +
                            static_cast<size_t>(oy) * s * pw;
                        for (int ox = 0; ox < ow; ++ox)
                            acc += dr[ox] * p[static_cast<size_t>(ox) * s];
                    }
                    dwc[t] += acc;
                }
            }
            if (dx == nullptr)
                continue;

            // dx scatters into zero-bordered planes, taps in ascending
            // order, each tap's sum over the group's output channels
            // formed first (col2im's order); the border absorbs the taps
            // that fall in the padding and is cropped off.
            const float *wg = w + static_cast<size_t>(grp) * ocg * taps;
            std::fill(xq.begin(), xq.end(), 0.0f);
            for (int ic = 0; ic < icg; ++ic)
                for (int t = 0; t < kk; ++t)
                    for (int oy = 0; oy < oh; ++oy) {
                        float *row = xq.data() + xoff[ic * kk + t] +
                            static_cast<size_t>(oy) * s * pw;
                        for (int ox = 0; ox < ow; ++ox) {
                            float v = 0.0f;
                            for (int ocl = 0; ocl < ocg; ++ocl) {
                                const float wv =
                                    wg[(ocl * icg + ic) * kk + t];
                                if (wv != 0.0f)
                                    v += wv * dyg[ocl * out_plane +
                                                  static_cast<size_t>(oy) *
                                                      ow + ox];
                            }
                            row[static_cast<size_t>(ox) * s] += v;
                        }
                    }
            embed_planes(xq.data(), icg, ph, pw, g.ih, g.iw, -g.pad,
                         dx + (static_cast<size_t>(n) * g.in_ch +
                               grp * icg) * in_plane);
        }
}

} // namespace autofl::kernels
