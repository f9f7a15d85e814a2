/**
 * @file
 * NEON/ASIMD kernel variant (aarch64). ASIMD is baseline on aarch64,
 * so this TU needs no special compile flags — it self-guards on the
 * architecture macros and compiles to the null table everywhere else.
 * There is no runtime cpuid gate to clear: if the table exists, the
 * CPU runs it.
 *
 * Parity tiers match the AVX2 table: GEMM and the fused LSTM gates are
 * Tolerance (fused multiply-add / polynomial exp), elementwise and the
 * int8 codec are Exact — single-rounding mul/add in the scalar
 * operation sequence, never a fused vmla. The fp16 and f64 families
 * are left null (scalar fallback) until a native box can measure them.
 *
 * NaN note for the codec tier: AArch64 FCVTNS converts NaN to 0 where
 * x86 CVTPS2DQ gives INT_MIN, so quantize patches NaN lanes to -127
 * explicitly to keep the cross-variant bit contract.
 */
#include "kernels/kernel_table.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace autofl::kernels {

namespace {

// ------------------------------------------------------------- GEMM

/** 4 x 8 register tile: rows i..i+3, columns j..j+7, full k sweep. */
inline void
micro_4x8(int k, const float *a, int lda, const float *b, int ldb, float *c,
          int ldc, bool accumulate)
{
    float32x4_t c00, c01, c10, c11, c20, c21, c30, c31;
    if (accumulate) {
        c00 = vld1q_f32(c + 0 * static_cast<size_t>(ldc));
        c01 = vld1q_f32(c + 0 * static_cast<size_t>(ldc) + 4);
        c10 = vld1q_f32(c + 1 * static_cast<size_t>(ldc));
        c11 = vld1q_f32(c + 1 * static_cast<size_t>(ldc) + 4);
        c20 = vld1q_f32(c + 2 * static_cast<size_t>(ldc));
        c21 = vld1q_f32(c + 2 * static_cast<size_t>(ldc) + 4);
        c30 = vld1q_f32(c + 3 * static_cast<size_t>(ldc));
        c31 = vld1q_f32(c + 3 * static_cast<size_t>(ldc) + 4);
    } else {
        c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = vdupq_n_f32(0.0f);
    }
    for (int kk = 0; kk < k; ++kk) {
        const float32x4_t b0 = vld1q_f32(b + static_cast<size_t>(kk) * ldb);
        const float32x4_t b1 =
            vld1q_f32(b + static_cast<size_t>(kk) * ldb + 4);
        float32x4_t av = vdupq_n_f32(a[0 * static_cast<size_t>(lda) + kk]);
        c00 = vfmaq_f32(c00, b0, av);
        c01 = vfmaq_f32(c01, b1, av);
        av = vdupq_n_f32(a[1 * static_cast<size_t>(lda) + kk]);
        c10 = vfmaq_f32(c10, b0, av);
        c11 = vfmaq_f32(c11, b1, av);
        av = vdupq_n_f32(a[2 * static_cast<size_t>(lda) + kk]);
        c20 = vfmaq_f32(c20, b0, av);
        c21 = vfmaq_f32(c21, b1, av);
        av = vdupq_n_f32(a[3 * static_cast<size_t>(lda) + kk]);
        c30 = vfmaq_f32(c30, b0, av);
        c31 = vfmaq_f32(c31, b1, av);
    }
    vst1q_f32(c + 0 * static_cast<size_t>(ldc), c00);
    vst1q_f32(c + 0 * static_cast<size_t>(ldc) + 4, c01);
    vst1q_f32(c + 1 * static_cast<size_t>(ldc), c10);
    vst1q_f32(c + 1 * static_cast<size_t>(ldc) + 4, c11);
    vst1q_f32(c + 2 * static_cast<size_t>(ldc), c20);
    vst1q_f32(c + 2 * static_cast<size_t>(ldc) + 4, c21);
    vst1q_f32(c + 3 * static_cast<size_t>(ldc), c30);
    vst1q_f32(c + 3 * static_cast<size_t>(ldc) + 4, c31);
}

/** 1 x 4 tile for row and column tails; a element kk at a[kk*stride]. */
inline void
micro_1x4(int k, const float *a, int a_stride, const float *b, int ldb,
          float *c, bool accumulate)
{
    float32x4_t acc = accumulate ? vld1q_f32(c) : vdupq_n_f32(0.0f);
    for (int kk = 0; kk < k; ++kk) {
        const float32x4_t bv =
            vld1q_f32(b + static_cast<size_t>(kk) * ldb);
        const float32x4_t av =
            vdupq_n_f32(a[static_cast<size_t>(kk) * a_stride]);
        acc = vfmaq_f32(acc, bv, av);
    }
    vst1q_f32(c, acc);
}

/** Scalar column tail (j columns < 4 wide), register accumulator. */
void
tail_cols(int m, int j0, int n, int k, const float *a, int lda,
          int a_kstride, const float *b, int ldb, float *c, int ldc,
          bool accumulate)
{
    for (int i = 0; i < m; ++i) {
        for (int j = j0; j < n; ++j) {
            float acc = accumulate ? c[static_cast<size_t>(i) * ldc + j]
                                   : 0.0f;
            for (int kk = 0; kk < k; ++kk)
                acc += a[static_cast<size_t>(i) * lda +
                         static_cast<size_t>(kk) * a_kstride] *
                       b[static_cast<size_t>(kk) * ldb + j];
            c[static_cast<size_t>(i) * ldc + j] = acc;
        }
    }
}

void
neon_gemm(int m, int n, int k, const float *a, int lda, const float *b,
          int ldb, float *c, int ldc, bool accumulate)
{
    int j = 0;
    for (; j + 8 <= n; j += 8) {
        int i = 0;
        for (; i + 4 <= m; i += 4)
            micro_4x8(k, a + static_cast<size_t>(i) * lda, lda, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, ldc, accumulate);
        for (; i < m; ++i) {
            micro_1x4(k, a + static_cast<size_t>(i) * lda, 1, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, accumulate);
            micro_1x4(k, a + static_cast<size_t>(i) * lda, 1, b + j + 4,
                      ldb, c + static_cast<size_t>(i) * ldc + j + 4,
                      accumulate);
        }
    }
    for (; j + 4 <= n; j += 4) {
        for (int i = 0; i < m; ++i)
            micro_1x4(k, a + static_cast<size_t>(i) * lda, 1, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, accumulate);
    }
    if (j < n)
        tail_cols(m, j, n, k, a, lda, 1, b, ldb, c, ldc, accumulate);
}

/** gemm_tn: A stored {k, m}; element (i, kk) lives at a[kk * lda + i]. */
void
neon_gemm_tn(int m, int n, int k, const float *a, int lda, const float *b,
             int ldb, float *c, int ldc, bool accumulate)
{
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        for (int i = 0; i < m; ++i)
            micro_1x4(k, a + i, lda, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, accumulate);
    }
    if (j < n)
        tail_cols(m, j, n, k, a, 1, lda, b, ldb, c, ldc, accumulate);
}

/** Horizontal sum, lane 0 to lane 3. */
inline float
hsum4(float32x4_t v)
{
    return ((vgetq_lane_f32(v, 0) + vgetq_lane_f32(v, 1)) +
            vgetq_lane_f32(v, 2)) +
           vgetq_lane_f32(v, 3);
}

void
neon_gemm_nt(int m, int n, int k, const float *a, int lda, const float *b,
             int ldb, float *c, int ldc, bool accumulate)
{
    const int k4 = k & ~3;
    for (int i = 0; i < m; ++i) {
        const float *arow = a + static_cast<size_t>(i) * lda;
        float *crow = c + static_cast<size_t>(i) * ldc;
        for (int j = 0; j < n; ++j) {
            const float *brow = b + static_cast<size_t>(j) * ldb;
            float32x4_t s = vdupq_n_f32(0.0f);
            for (int kk = 0; kk < k4; kk += 4)
                s = vfmaq_f32(s, vld1q_f32(arow + kk),
                              vld1q_f32(brow + kk));
            float d = hsum4(s);
            for (int kk = k4; kk < k; ++kk)
                d += arow[kk] * brow[kk];
            crow[j] = accumulate ? crow[j] + d : d;
        }
    }
}

/**
 * Packed-panel 8 x 8 microkernel: 16 q accumulators; A values come in
 * vector pairs so each FMA picks a lane (vfmaq_laneq) instead of a
 * separate broadcast.
 */
void
neon_micro_8x8(int kc, const float *ap, const float *bp, float *c, int ldc,
               bool accumulate)
{
    float32x4_t c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51,
        c60, c61, c70, c71;
    if (accumulate) {
        c00 = vld1q_f32(c + 0 * static_cast<size_t>(ldc));
        c01 = vld1q_f32(c + 0 * static_cast<size_t>(ldc) + 4);
        c10 = vld1q_f32(c + 1 * static_cast<size_t>(ldc));
        c11 = vld1q_f32(c + 1 * static_cast<size_t>(ldc) + 4);
        c20 = vld1q_f32(c + 2 * static_cast<size_t>(ldc));
        c21 = vld1q_f32(c + 2 * static_cast<size_t>(ldc) + 4);
        c30 = vld1q_f32(c + 3 * static_cast<size_t>(ldc));
        c31 = vld1q_f32(c + 3 * static_cast<size_t>(ldc) + 4);
        c40 = vld1q_f32(c + 4 * static_cast<size_t>(ldc));
        c41 = vld1q_f32(c + 4 * static_cast<size_t>(ldc) + 4);
        c50 = vld1q_f32(c + 5 * static_cast<size_t>(ldc));
        c51 = vld1q_f32(c + 5 * static_cast<size_t>(ldc) + 4);
        c60 = vld1q_f32(c + 6 * static_cast<size_t>(ldc));
        c61 = vld1q_f32(c + 6 * static_cast<size_t>(ldc) + 4);
        c70 = vld1q_f32(c + 7 * static_cast<size_t>(ldc));
        c71 = vld1q_f32(c + 7 * static_cast<size_t>(ldc) + 4);
    } else {
        c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = c40 = c41 = c50 =
            c51 = c60 = c61 = c70 = c71 = vdupq_n_f32(0.0f);
    }
    for (int kk = 0; kk < kc; ++kk) {
        const float32x4_t b0 = vld1q_f32(bp);
        const float32x4_t b1 = vld1q_f32(bp + 4);
        bp += 8;
        const float32x4_t a03 = vld1q_f32(ap);
        const float32x4_t a47 = vld1q_f32(ap + 4);
        ap += 8;
        c00 = vfmaq_laneq_f32(c00, b0, a03, 0);
        c01 = vfmaq_laneq_f32(c01, b1, a03, 0);
        c10 = vfmaq_laneq_f32(c10, b0, a03, 1);
        c11 = vfmaq_laneq_f32(c11, b1, a03, 1);
        c20 = vfmaq_laneq_f32(c20, b0, a03, 2);
        c21 = vfmaq_laneq_f32(c21, b1, a03, 2);
        c30 = vfmaq_laneq_f32(c30, b0, a03, 3);
        c31 = vfmaq_laneq_f32(c31, b1, a03, 3);
        c40 = vfmaq_laneq_f32(c40, b0, a47, 0);
        c41 = vfmaq_laneq_f32(c41, b1, a47, 0);
        c50 = vfmaq_laneq_f32(c50, b0, a47, 1);
        c51 = vfmaq_laneq_f32(c51, b1, a47, 1);
        c60 = vfmaq_laneq_f32(c60, b0, a47, 2);
        c61 = vfmaq_laneq_f32(c61, b1, a47, 2);
        c70 = vfmaq_laneq_f32(c70, b0, a47, 3);
        c71 = vfmaq_laneq_f32(c71, b1, a47, 3);
    }
    vst1q_f32(c + 0 * static_cast<size_t>(ldc), c00);
    vst1q_f32(c + 0 * static_cast<size_t>(ldc) + 4, c01);
    vst1q_f32(c + 1 * static_cast<size_t>(ldc), c10);
    vst1q_f32(c + 1 * static_cast<size_t>(ldc) + 4, c11);
    vst1q_f32(c + 2 * static_cast<size_t>(ldc), c20);
    vst1q_f32(c + 2 * static_cast<size_t>(ldc) + 4, c21);
    vst1q_f32(c + 3 * static_cast<size_t>(ldc), c30);
    vst1q_f32(c + 3 * static_cast<size_t>(ldc) + 4, c31);
    vst1q_f32(c + 4 * static_cast<size_t>(ldc), c40);
    vst1q_f32(c + 4 * static_cast<size_t>(ldc) + 4, c41);
    vst1q_f32(c + 5 * static_cast<size_t>(ldc), c50);
    vst1q_f32(c + 5 * static_cast<size_t>(ldc) + 4, c51);
    vst1q_f32(c + 6 * static_cast<size_t>(ldc), c60);
    vst1q_f32(c + 6 * static_cast<size_t>(ldc) + 4, c61);
    vst1q_f32(c + 7 * static_cast<size_t>(ldc), c70);
    vst1q_f32(c + 7 * static_cast<size_t>(ldc) + 4, c71);
}

// --------------------------------------------- elementwise (no FMA)
// Separate vmulq/vaddq keep one rounding per operation in the scalar
// sequence — never vmla/vfma, which would fuse and break bit parity.

void
neon_axpy(size_t n, float alpha, const float *x, float *y)
{
    const float32x4_t va = vdupq_n_f32(alpha);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t prod = vmulq_f32(va, vld1q_f32(x + i));
        vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

void
neon_scale(size_t n, float alpha, float *y)
{
    const float32x4_t va = vdupq_n_f32(alpha);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), va));
    for (; i < n; ++i)
        y[i] *= alpha;
}

void
neon_vadd(size_t n, const float *x, float *y)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
    for (; i < n; ++i)
        y[i] += x[i];
}

void
neon_vsub(size_t n, const float *x, float *y)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(y + i, vsubq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
    for (; i < n; ++i)
        y[i] -= x[i];
}

void
neon_add_bias_rows(int rows, int cols, const float *bias, float *y)
{
    for (int r = 0; r < rows; ++r)
        neon_vadd(static_cast<size_t>(cols), bias,
                  y + static_cast<size_t>(r) * cols);
}

void
neon_accumulate_rows(int rows, int cols, const float *src, float *dst)
{
    for (int r = 0; r < rows; ++r)
        neon_vadd(static_cast<size_t>(cols),
                  src + static_cast<size_t>(r) * cols, dst);
}

void
neon_relu_forward(size_t n, float *y, uint8_t *mask)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t v = vld1q_f32(y + i);
        const uint32x4_t gt = vcgtq_f32(v, zero);
        vst1q_f32(y + i, vreinterpretq_f32_u32(
                             vandq_u32(vreinterpretq_u32_f32(v), gt)));
        mask[i + 0] = static_cast<uint8_t>(vgetq_lane_u32(gt, 0) & 1u);
        mask[i + 1] = static_cast<uint8_t>(vgetq_lane_u32(gt, 1) & 1u);
        mask[i + 2] = static_cast<uint8_t>(vgetq_lane_u32(gt, 2) & 1u);
        mask[i + 3] = static_cast<uint8_t>(vgetq_lane_u32(gt, 3) & 1u);
    }
    for (; i < n; ++i) {
        if (y[i] > 0.0f) {
            mask[i] = 1;
        } else {
            mask[i] = 0;
            y[i] = 0.0f;
        }
    }
}

void
neon_sgd_step(size_t n, float *w, const float *g, float *v, float lr,
              float wd, float momentum)
{
    const float32x4_t vwd = vdupq_n_f32(wd);
    const float32x4_t vlr = vdupq_n_f32(lr);
    const bool use_momentum = v != nullptr && momentum != 0.0f;
    const float32x4_t vmom = vdupq_n_f32(momentum);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t wv = vld1q_f32(w + i);
        float32x4_t grad =
            vaddq_f32(vld1q_f32(g + i), vmulq_f32(vwd, wv));
        if (use_momentum) {
            const float32x4_t vel =
                vaddq_f32(vmulq_f32(vmom, vld1q_f32(v + i)), grad);
            vst1q_f32(v + i, vel);
            grad = vel;
        }
        vst1q_f32(w + i, vsubq_f32(wv, vmulq_f32(vlr, grad)));
    }
    for (; i < n; ++i) {
        float grad = g[i] + wd * w[i];
        if (use_momentum) {
            v[i] = momentum * v[i] + grad;
            grad = v[i];
        }
        w[i] -= lr * grad;
    }
}

void
neon_sgd_step_prox(size_t n, float *w, const float *g, float *v,
                   const float *anchor, float lr, float wd, float momentum,
                   float mu)
{
    const float32x4_t vwd = vdupq_n_f32(wd);
    const float32x4_t vlr = vdupq_n_f32(lr);
    const float32x4_t vmu = vdupq_n_f32(mu);
    const bool use_momentum = v != nullptr && momentum != 0.0f;
    const float32x4_t vmom = vdupq_n_f32(momentum);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t wv = vld1q_f32(w + i);
        const float32x4_t base =
            vaddq_f32(vld1q_f32(g + i), vmulq_f32(vwd, wv));
        const float32x4_t prox =
            vmulq_f32(vmu, vsubq_f32(wv, vld1q_f32(anchor + i)));
        float32x4_t grad = vaddq_f32(base, prox);
        if (use_momentum) {
            const float32x4_t vel =
                vaddq_f32(vmulq_f32(vmom, vld1q_f32(v + i)), grad);
            vst1q_f32(v + i, vel);
            grad = vel;
        }
        vst1q_f32(w + i, vsubq_f32(wv, vmulq_f32(vlr, grad)));
    }
    for (; i < n; ++i) {
        float grad = g[i] + wd * w[i] + mu * (w[i] - anchor[i]);
        if (use_momentum) {
            v[i] = momentum * v[i] + grad;
            grad = v[i];
        }
        w[i] -= lr * grad;
    }
}

// ------------------------------------------- push-delta codec family

float
neon_absmax(size_t n, const float *x)
{
    float32x4_t acc = vdupq_n_f32(0.0f);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = vmaxq_f32(acc, vabsq_f32(vld1q_f32(x + i)));
    float m = vmaxvq_f32(acc);
    for (; i < n; ++i)
        m = __builtin_fmaxf(m, __builtin_fabsf(x[i]));
    return m;
}

/** rne(x * inv) clamped to [-127, 127]; NaN lanes patched to -127. */
inline int32x4_t
quant_lanes(const float *x, float32x4_t vinv, int32x4_t lo, int32x4_t hi)
{
    const float32x4_t prod = vmulq_f32(vld1q_f32(x), vinv);
    int32x4_t q = vcvtnq_s32_f32(prod);  // RNE; NaN -> 0 on AArch64.
    q = vmaxq_s32(q, lo);
    q = vminq_s32(q, hi);
    const uint32x4_t ordered = vceqq_f32(prod, prod);
    return vbslq_s32(ordered, q, lo);
}

void
neon_quantize_i8(size_t n, const float *x, float inv_scale, int8_t *q)
{
    const float32x4_t vinv = vdupq_n_f32(inv_scale);
    const int32x4_t lo = vdupq_n_s32(-127);
    const int32x4_t hi = vdupq_n_s32(127);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int32x4_t a = quant_lanes(x + i, vinv, lo, hi);
        const int32x4_t b = quant_lanes(x + i + 4, vinv, lo, hi);
        const int16x8_t w = vcombine_s16(vqmovn_s32(a), vqmovn_s32(b));
        vst1_s8(q + i, vqmovn_s16(w));
    }
    for (; i < n; ++i) {
        float r = __builtin_nearbyintf(x[i] * inv_scale);
        r = __builtin_fminf(__builtin_fmaxf(r, -127.0f), 127.0f);
        q[i] = static_cast<int8_t>(r);
    }
}

void
neon_dequantize_i8(size_t n, const int8_t *q, float scale, float *y)
{
    const float32x4_t vs = vdupq_n_f32(scale);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int16x8_t w = vmovl_s8(vld1_s8(q + i));
        const float32x4_t f0 = vcvtq_f32_s32(vmovl_s16(vget_low_s16(w)));
        const float32x4_t f1 = vcvtq_f32_s32(vmovl_s16(vget_high_s16(w)));
        vst1q_f32(y + i, vmulq_f32(f0, vs));
        vst1q_f32(y + i + 4, vmulq_f32(f1, vs));
    }
    for (; i < n; ++i)
        y[i] = static_cast<float>(q[i]) * scale;
}

// -------------------------------------------- fused LSTM gate family

/**
 * Vectorized exp — the same Cephes-style range reduction + degree-5
 * polynomial as the x86 variants, 4 lanes (~1e-7 relative on the
 * gate-activation range). Plain mul/add; the family is Tolerance-tier
 * regardless, but this keeps the polynomial bit-stable per variant.
 */
inline float32x4_t
exp_neon(float32x4_t x)
{
    x = vminq_f32(x, vdupq_n_f32(88.3762626647949f));
    x = vmaxq_f32(x, vdupq_n_f32(-88.3762626647949f));
    float32x4_t fx =
        vaddq_f32(vmulq_f32(x, vdupq_n_f32(1.44269504088896341f)),
                  vdupq_n_f32(0.5f));
    fx = vrndmq_f32(fx);  // floor (round toward minus infinity)
    x = vsubq_f32(x, vmulq_f32(fx, vdupq_n_f32(0.693359375f)));
    x = vsubq_f32(x, vmulq_f32(fx, vdupq_n_f32(-2.12194440e-4f)));
    const float32x4_t x2 = vmulq_f32(x, x);
    float32x4_t y = vdupq_n_f32(1.9875691500e-4f);
    y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(1.3981999507e-3f));
    y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(8.3334519073e-3f));
    y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(4.1665795894e-2f));
    y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(1.6666665459e-1f));
    y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(5.0000001201e-1f));
    y = vaddq_f32(vmulq_f32(y, x2), x);
    y = vaddq_f32(y, vdupq_n_f32(1.0f));
    int32x4_t pow2 = vcvtq_s32_f32(fx);  // truncate; fx is integral
    pow2 = vaddq_s32(pow2, vdupq_n_s32(0x7f));
    pow2 = vshlq_n_s32(pow2, 23);
    return vmulq_f32(y, vreinterpretq_f32_s32(pow2));
}

inline float32x4_t
sigmoid_neon(float32x4_t x)
{
    const float32x4_t one = vdupq_n_f32(1.0f);
    const float32x4_t e = exp_neon(vsubq_f32(vdupq_n_f32(0.0f), x));
    return vdivq_f32(one, vaddq_f32(one, e));
}

inline float32x4_t
tanh_neon(float32x4_t x)
{
    // tanh(x) = 2 sigmoid(2x) - 1.
    const float32x4_t two = vdupq_n_f32(2.0f);
    const float32x4_t s = sigmoid_neon(vmulq_f32(two, x));
    return vsubq_f32(vmulq_f32(two, s), vdupq_n_f32(1.0f));
}

void
neon_lstm_gate(int batch, int hidden, float *z, const float *cprev,
               float *c, float *h)
{
    const int h4 = 4 * hidden;
    const int vec_end = hidden - hidden % 4;
    for (int n = 0; n < batch; ++n) {
        float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        float *cn = c + static_cast<size_t>(n) * hidden;
        float *hn = h + static_cast<size_t>(n) * hidden;
        int j = 0;
        for (; j < vec_end; j += 4) {
            const float32x4_t zi = sigmoid_neon(vld1q_f32(zrow + j));
            const float32x4_t zf =
                sigmoid_neon(vld1q_f32(zrow + hidden + j));
            const float32x4_t zg =
                tanh_neon(vld1q_f32(zrow + 2 * hidden + j));
            const float32x4_t zo =
                sigmoid_neon(vld1q_f32(zrow + 3 * hidden + j));
            vst1q_f32(zrow + j, zi);
            vst1q_f32(zrow + hidden + j, zf);
            vst1q_f32(zrow + 2 * hidden + j, zg);
            vst1q_f32(zrow + 3 * hidden + j, zo);
            const float32x4_t cv =
                vaddq_f32(vmulq_f32(zf, vld1q_f32(cp + j)),
                          vmulq_f32(zi, zg));
            vst1q_f32(cn + j, cv);
            vst1q_f32(hn + j, vmulq_f32(zo, tanh_neon(cv)));
        }
        for (; j < hidden; ++j) {
            const float zi = 1.0f / (1.0f + __builtin_expf(-zrow[j]));
            const float zf =
                1.0f / (1.0f + __builtin_expf(-zrow[hidden + j]));
            const float zg = __builtin_tanhf(zrow[2 * hidden + j]);
            const float zo =
                1.0f / (1.0f + __builtin_expf(-zrow[3 * hidden + j]));
            zrow[j] = zi;
            zrow[hidden + j] = zf;
            zrow[2 * hidden + j] = zg;
            zrow[3 * hidden + j] = zo;
            const float cv = zf * cp[j] + zi * zg;
            cn[j] = cv;
            hn[j] = zo * __builtin_tanhf(cv);
        }
    }
}

void
neon_lstm_gate_backward(int batch, int hidden, const float *z,
                        const float *cprev, const float *c, const float *dh,
                        const float *dc, float *dz, float *dc_prev)
{
    const int h4 = 4 * hidden;
    const int vec_end = hidden - hidden % 4;
    const float32x4_t one = vdupq_n_f32(1.0f);
    for (int n = 0; n < batch; ++n) {
        const float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        const float *cn = c + static_cast<size_t>(n) * hidden;
        const float *dhn = dh + static_cast<size_t>(n) * hidden;
        const float *dcn = dc + static_cast<size_t>(n) * hidden;
        float *dzrow = dz + static_cast<size_t>(n) * h4;
        float *dcp = dc_prev + static_cast<size_t>(n) * hidden;
        int j = 0;
        for (; j < vec_end; j += 4) {
            const float32x4_t i_g = vld1q_f32(zrow + j);
            const float32x4_t f_g = vld1q_f32(zrow + hidden + j);
            const float32x4_t g_g = vld1q_f32(zrow + 2 * hidden + j);
            const float32x4_t o_g = vld1q_f32(zrow + 3 * hidden + j);
            const float32x4_t tc = tanh_neon(vld1q_f32(cn + j));
            const float32x4_t dht = vld1q_f32(dhn + j);

            const float32x4_t dtc = vsubq_f32(one, vmulq_f32(tc, tc));
            const float32x4_t dct =
                vaddq_f32(vmulq_f32(vmulq_f32(dht, o_g), dtc),
                          vld1q_f32(dcn + j));
            const float32x4_t d_o = vmulq_f32(dht, tc);
            const float32x4_t d_i = vmulq_f32(dct, g_g);
            const float32x4_t d_g = vmulq_f32(dct, i_g);
            const float32x4_t d_f = vmulq_f32(dct, vld1q_f32(cp + j));
            vst1q_f32(dcp + j, vmulq_f32(dct, f_g));

            vst1q_f32(dzrow + j, vmulq_f32(vmulq_f32(d_i, i_g),
                                           vsubq_f32(one, i_g)));
            vst1q_f32(dzrow + hidden + j,
                      vmulq_f32(vmulq_f32(d_f, f_g), vsubq_f32(one, f_g)));
            vst1q_f32(dzrow + 2 * hidden + j,
                      vmulq_f32(d_g,
                                vsubq_f32(one, vmulq_f32(g_g, g_g))));
            vst1q_f32(dzrow + 3 * hidden + j,
                      vmulq_f32(vmulq_f32(d_o, o_g), vsubq_f32(one, o_g)));
        }
        for (; j < hidden; ++j) {
            const float i_g = zrow[j];
            const float f_g = zrow[hidden + j];
            const float g_g = zrow[2 * hidden + j];
            const float o_g = zrow[3 * hidden + j];
            const float tc = __builtin_tanhf(cn[j]);
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

} // namespace

const KernelTable *
neon_kernel_table()
{
    static const KernelTable t = [] {
        KernelTable k;
        k.gemm = neon_gemm;
        k.gemm_tn = neon_gemm_tn;
        k.gemm_nt = neon_gemm_nt;
        k.gemm_micro = neon_micro_8x8;
        k.gemm_mr = 8;
        k.gemm_nr = 8;
        k.gemm_mc = 96;   // A block 96 x 256 = 96 KB, L2-resident.
        k.gemm_kc = 256;  // B panel 256 x 8 = 8 KB, L1-resident.
        k.gemm_nc = 512;  // B block 256 x 512 = 512 KB, LLC-resident.
        k.axpy = neon_axpy;
        k.scale = neon_scale;
        k.vadd = neon_vadd;
        k.vsub = neon_vsub;
        k.add_bias_rows = neon_add_bias_rows;
        k.accumulate_rows = neon_accumulate_rows;
        k.relu_forward = neon_relu_forward;
        k.sgd_step = neon_sgd_step;
        k.sgd_step_prox = neon_sgd_step_prox;
        k.absmax = neon_absmax;
        k.quantize_i8 = neon_quantize_i8;
        k.dequantize_i8 = neon_dequantize_i8;
        // fp16 + f64 families and relu_backward stay null (scalar
        // fallback) — correctness first until a native box measures.
        k.lstm_gate_forward = neon_lstm_gate;
        k.lstm_gate_infer = neon_lstm_gate;
        k.lstm_gate_backward = neon_lstm_gate_backward;
        k.parity_tier = KernelParity{
            .gemm = ParityTier::Tolerance,
            .elementwise = ParityTier::Exact,
            .codec = ParityTier::Exact,
            .transcendental = ParityTier::Tolerance,
        };
        return k;
    }();
    return &t;
}

} // namespace autofl::kernels

#else // !(__aarch64__ && __ARM_NEON)

namespace autofl::kernels {

const KernelTable *
neon_kernel_table()
{
    return nullptr;
}

} // namespace autofl::kernels

#endif
