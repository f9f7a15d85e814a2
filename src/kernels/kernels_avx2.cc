/**
 * @file
 * AVX2 + FMA kernel variant. This translation unit is the only one
 * compiled with -mavx2 -mfma (see CMakeLists.txt); everything else in
 * the library stays at the baseline ISA, and the dispatcher only
 * selects this table after a cpuid check, so the binary runs on
 * pre-AVX2 x86-64 too.
 *
 * Reduction-order contract (see README.md):
 *  - GEMM variants reduce over k in ascending order per output element,
 *    one FMA per term, accumulators in registers. Deterministic; agrees
 *    with scalar within FMA-rounding (<< 1e-4 relative). The packed
 *    6x16 microkernel shares that order — the direct and packed paths
 *    are the same parity tier, not bit-identical to each other.
 *  - gemm_nt reduces in 8-lane partial sums (lane l owns k = l mod 8),
 *    combined low-to-high, then the scalar k-tail — fixed order.
 *  - Elementwise kernels use mul/add (never FMA) in the scalar's exact
 *    operation sequence, so they are bit-identical to the scalar table.
 *    So does the direct-convolution kernel (conv_taps), which the
 *    AVX-512 table inherits.
 *  - Panel packing (pack_panels) moves the scalar entry's floats to
 *    the same places, so its panels are bit-identical too; the AVX-512
 *    table inherits it for its 8 x 32 tile.
 */
#include "kernels/kernel_table.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace autofl::kernels {

namespace {

// ------------------------------------------------------------- GEMM

/** 4 x 16 register tile: rows i..i+3, columns j..j+15, full k sweep. */
inline void
micro_4x16(int k, const float *a, int lda, const float *b, int ldb,
           float *c, int ldc, bool accumulate)
{
    __m256 c00, c01, c10, c11, c20, c21, c30, c31;
    if (accumulate) {
        c00 = _mm256_loadu_ps(c + 0 * ldc);
        c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
        c10 = _mm256_loadu_ps(c + 1 * ldc);
        c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
        c20 = _mm256_loadu_ps(c + 2 * ldc);
        c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
        c30 = _mm256_loadu_ps(c + 3 * ldc);
        c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    } else {
        c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 =
            _mm256_setzero_ps();
    }
    for (int kk = 0; kk < k; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(b + static_cast<size_t>(kk) * ldb);
        const __m256 b1 =
            _mm256_loadu_ps(b + static_cast<size_t>(kk) * ldb + 8);
        __m256 av = _mm256_broadcast_ss(a + 0 * lda + kk);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(a + 1 * lda + kk);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(a + 2 * lda + kk);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(a + 3 * lda + kk);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    _mm256_storeu_ps(c + 0 * ldc, c00);
    _mm256_storeu_ps(c + 0 * ldc + 8, c01);
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

/** 1 x 8 tile for row and column tails. */
inline void
micro_1x8(int k, const float *a, int a_stride, const float *b, int ldb,
          float *c, bool accumulate)
{
    __m256 acc = accumulate ? _mm256_loadu_ps(c) : _mm256_setzero_ps();
    for (int kk = 0; kk < k; ++kk) {
        const __m256 bv =
            _mm256_loadu_ps(b + static_cast<size_t>(kk) * ldb);
        const __m256 av =
            _mm256_broadcast_ss(a + static_cast<size_t>(kk) * a_stride);
        acc = _mm256_fmadd_ps(av, bv, acc);
    }
    _mm256_storeu_ps(c, acc);
}

/** Scalar column tail (j columns < 8 wide), register accumulator. */
inline void
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
avx2_gemm(int m, int n, int k, const float *a, int lda, const float *b,
          int ldb, float *c, int ldc, bool accumulate)
{
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        int i = 0;
        for (; i + 4 <= m; i += 4)
            micro_4x16(k, a + static_cast<size_t>(i) * lda, lda, b + j, ldb,
                       c + static_cast<size_t>(i) * ldc + j, ldc,
                       accumulate);
        for (; i < m; ++i) {
            micro_1x8(k, a + static_cast<size_t>(i) * lda, 1, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, accumulate);
            micro_1x8(k, a + static_cast<size_t>(i) * lda, 1, b + j + 8,
                      ldb, c + static_cast<size_t>(i) * ldc + j + 8,
                      accumulate);
        }
    }
    for (; j + 8 <= n; j += 8) {
        for (int i = 0; i < m; ++i)
            micro_1x8(k, a + static_cast<size_t>(i) * lda, 1, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, accumulate);
    }
    if (j < n)
        tail_cols(m, j, n, k, a, lda, 1, b, ldb, c, ldc, accumulate);
}

/**
 * Packed-panel 6 x 16 microkernel: 12 ymm accumulators, one k step
 * loads 2 B vectors and broadcasts 6 A values from contiguous panels
 * (apanel: kc groups of 6 row values; bpanel: kc groups of 16 column
 * values — see the driver in kernels.cc).
 */
void
avx2_micro_6x16(int kc, const float *ap, const float *bp, float *c, int ldc,
                bool accumulate)
{
    __m256 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
    if (accumulate) {
        c00 = _mm256_loadu_ps(c + 0 * static_cast<size_t>(ldc));
        c01 = _mm256_loadu_ps(c + 0 * static_cast<size_t>(ldc) + 8);
        c10 = _mm256_loadu_ps(c + 1 * static_cast<size_t>(ldc));
        c11 = _mm256_loadu_ps(c + 1 * static_cast<size_t>(ldc) + 8);
        c20 = _mm256_loadu_ps(c + 2 * static_cast<size_t>(ldc));
        c21 = _mm256_loadu_ps(c + 2 * static_cast<size_t>(ldc) + 8);
        c30 = _mm256_loadu_ps(c + 3 * static_cast<size_t>(ldc));
        c31 = _mm256_loadu_ps(c + 3 * static_cast<size_t>(ldc) + 8);
        c40 = _mm256_loadu_ps(c + 4 * static_cast<size_t>(ldc));
        c41 = _mm256_loadu_ps(c + 4 * static_cast<size_t>(ldc) + 8);
        c50 = _mm256_loadu_ps(c + 5 * static_cast<size_t>(ldc));
        c51 = _mm256_loadu_ps(c + 5 * static_cast<size_t>(ldc) + 8);
    } else {
        c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = c40 = c41 = c50 =
            c51 = _mm256_setzero_ps();
    }
    for (int kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(bp);
        const __m256 b1 = _mm256_loadu_ps(bp + 8);
        bp += 16;
        __m256 av = _mm256_broadcast_ss(ap + 0);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(ap + 1);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(ap + 2);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(ap + 3);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
        av = _mm256_broadcast_ss(ap + 4);
        c40 = _mm256_fmadd_ps(av, b0, c40);
        c41 = _mm256_fmadd_ps(av, b1, c41);
        av = _mm256_broadcast_ss(ap + 5);
        c50 = _mm256_fmadd_ps(av, b0, c50);
        c51 = _mm256_fmadd_ps(av, b1, c51);
        ap += 6;
    }
    _mm256_storeu_ps(c + 0 * static_cast<size_t>(ldc), c00);
    _mm256_storeu_ps(c + 0 * static_cast<size_t>(ldc) + 8, c01);
    _mm256_storeu_ps(c + 1 * static_cast<size_t>(ldc), c10);
    _mm256_storeu_ps(c + 1 * static_cast<size_t>(ldc) + 8, c11);
    _mm256_storeu_ps(c + 2 * static_cast<size_t>(ldc), c20);
    _mm256_storeu_ps(c + 2 * static_cast<size_t>(ldc) + 8, c21);
    _mm256_storeu_ps(c + 3 * static_cast<size_t>(ldc), c30);
    _mm256_storeu_ps(c + 3 * static_cast<size_t>(ldc) + 8, c31);
    _mm256_storeu_ps(c + 4 * static_cast<size_t>(ldc), c40);
    _mm256_storeu_ps(c + 4 * static_cast<size_t>(ldc) + 8, c41);
    _mm256_storeu_ps(c + 5 * static_cast<size_t>(ldc), c50);
    _mm256_storeu_ps(c + 5 * static_cast<size_t>(ldc) + 8, c51);
}

// ---------------------------------------------------- panel packing
// The pack_panels entry (see KernelTable), shared by the 6 x 16 tile
// here and the AVX-512 table's 8 x 32. It moves the scalar entry's
// floats to the same places, zero padding included, so the panels are
// bit-identical; only the loads and stores are wider.

/** Lanes [0, rem) set: the maskload/maskstore mask of a ragged block. */
inline __m256i
lanes_below(int rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * Store the first @p lanes of @p v at @p p, where @p room floats of the
 * panel remain from @p p on. Panels fill in ascending order, so while
 * the panel has room a full store is safe: the lanes past @p lanes land
 * where a later store writes. The panel's last store is masked.
 */
inline void
store_lanes(float *p, __m256 v, int lanes, std::ptrdiff_t room)
{
    if (lanes == 8 || room >= 8)
        _mm256_storeu_ps(p, v);
    else
        _mm256_maskstore_ps(p, lanes_below(lanes), v);
}

/** Four floats from @p lo and @p hi (each zeros when null), as one vector. */
inline __m256
load_pair(const float *lo, const float *hi)
{
    const __m128 l = lo != nullptr ? _mm_loadu_ps(lo) : _mm_setzero_ps();
    const __m128 h = hi != nullptr ? _mm_loadu_ps(hi) : _mm_setzero_ps();
    return _mm256_insertf128_ps(_mm256_castps128_ps256(l), h, 1);
}

/**
 * One panel whose source rows run along k (ks == 1): the A operand of
 * gemm/gemm_nt, the B operand of gemm_nt. Each block of 8 panel rows x
 * 4 k is loaded as row pairs (i | i + 4) and transposed in registers
 * into the 4 k groups; rows past @p valid load as zeros.
 */
void
pack_panel_kmajor(int valid, int kb, const float *src, size_t xs, int w,
                  float *out)
{
    const float *end = out + static_cast<size_t>(w) * kb;
    for (int xb = 0; xb < w; xb += 8) {
        const float *row[8];
        for (int i = 0; i < 8; ++i)
            row[i] = xb + i < valid ? src + static_cast<size_t>(xb + i) * xs
                                    : nullptr;
        const int lanes = std::min(8, w - xb);
        int kk = 0;
        for (; kk + 4 <= kb; kk += 4) {
            __m256 q[4];
            for (int i = 0; i < 4; ++i)
                q[i] = load_pair(row[i] != nullptr ? row[i] + kk : nullptr,
                                 row[i + 4] != nullptr ? row[i + 4] + kk
                                                       : nullptr);
            const __m256 t0 = _mm256_unpacklo_ps(q[0], q[1]);
            const __m256 t1 = _mm256_unpackhi_ps(q[0], q[1]);
            const __m256 t2 = _mm256_unpacklo_ps(q[2], q[3]);
            const __m256 t3 = _mm256_unpackhi_ps(q[2], q[3]);
            const __m256 col[4] = {
                _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0)),
                _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2)),
                _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0)),
                _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2)),
            };
            for (int j = 0; j < 4; ++j) {
                float *dst = out + static_cast<size_t>(kk + j) * w + xb;
                store_lanes(dst, col[j], lanes, end - dst);
            }
        }
        for (; kk < kb; ++kk)
            for (int i = 0; i < lanes; ++i)
                out[static_cast<size_t>(kk) * w + xb + i] =
                    row[i] != nullptr ? row[i][kk] : 0.0f;
    }
}

/**
 * One panel whose source rows run along the panel index (xs == 1): the
 * A operand of gemm_tn, the B operand of gemm. Whole vectors per k
 * group; a ragged panel's missing floats load as zeros.
 */
void
pack_panel_xmajor(int valid, int kb, const float *src, size_t ks, int w,
                  float *out)
{
    const float *end = out + static_cast<size_t>(w) * kb;
    for (int kk = 0; kk < kb; ++kk) {
        const float *s = src + static_cast<size_t>(kk) * ks;
        float *o = out + static_cast<size_t>(kk) * w;
        for (int xb = 0; xb < w; xb += 8) {
            const int have = valid - xb;
            const __m256 v =
                have >= 8 ? _mm256_loadu_ps(s + xb)
                : have > 0
                    ? _mm256_maskload_ps(s + xb, lanes_below(have))
                    : _mm256_setzero_ps();
            store_lanes(o + xb, v, std::min(8, w - xb), end - (o + xb));
        }
    }
}

void
avx2_pack_panels(int count, int kb, const float *src, size_t xs, size_t ks,
                 int w, float *out)
{
    for (int p = 0; p < count; p += w) {
        const int valid = std::min(w, count - p);
        const float *panel = src + static_cast<size_t>(p) * xs;
        if (xs == 1)
            pack_panel_xmajor(valid, kb, panel, ks, w, out);
        else
            pack_panel_kmajor(valid, kb, panel, xs, w, out);
        out += static_cast<size_t>(w) * kb;
    }
}

/** gemm_tn: A stored {k, m}; element (i, kk) lives at a[kk * lda + i]. */
inline void
micro_tn_4x16(int k, const float *a, int lda, const float *b, int ldb,
              float *c, int ldc, bool accumulate)
{
    __m256 c00, c01, c10, c11, c20, c21, c30, c31;
    if (accumulate) {
        c00 = _mm256_loadu_ps(c + 0 * ldc);
        c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
        c10 = _mm256_loadu_ps(c + 1 * ldc);
        c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
        c20 = _mm256_loadu_ps(c + 2 * ldc);
        c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
        c30 = _mm256_loadu_ps(c + 3 * ldc);
        c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    } else {
        c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 =
            _mm256_setzero_ps();
    }
    for (int kk = 0; kk < k; ++kk) {
        const float *arow = a + static_cast<size_t>(kk) * lda;
        const __m256 b0 = _mm256_loadu_ps(b + static_cast<size_t>(kk) * ldb);
        const __m256 b1 =
            _mm256_loadu_ps(b + static_cast<size_t>(kk) * ldb + 8);
        __m256 av = _mm256_broadcast_ss(arow + 0);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(arow + 1);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(arow + 2);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(arow + 3);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    _mm256_storeu_ps(c + 0 * ldc, c00);
    _mm256_storeu_ps(c + 0 * ldc + 8, c01);
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

void
avx2_gemm_tn(int m, int n, int k, const float *a, int lda, const float *b,
             int ldb, float *c, int ldc, bool accumulate)
{
    int j = 0;
    for (; j + 16 <= n; j += 16) {
        int i = 0;
        for (; i + 4 <= m; i += 4)
            micro_tn_4x16(k, a + i, lda, b + j, ldb,
                          c + static_cast<size_t>(i) * ldc + j, ldc,
                          accumulate);
        for (; i < m; ++i) {
            micro_1x8(k, a + i, lda, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, accumulate);
            micro_1x8(k, a + i, lda, b + j + 8, ldb,
                      c + static_cast<size_t>(i) * ldc + j + 8, accumulate);
        }
    }
    for (; j + 8 <= n; j += 8) {
        for (int i = 0; i < m; ++i)
            micro_1x8(k, a + i, lda, b + j, ldb,
                      c + static_cast<size_t>(i) * ldc + j, accumulate);
    }
    if (j < n)
        tail_cols(m, j, n, k, a, 1, lda, b, ldb, c, ldc, accumulate);
}

/** Horizontal sum, low lane to high lane. */
inline float
hsum(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

void
avx2_gemm_nt(int m, int n, int k, const float *a, int lda, const float *b,
             int ldb, float *c, int ldc, bool accumulate)
{
    const int k8 = k & ~7;
    for (int i = 0; i < m; ++i) {
        const float *arow = a + static_cast<size_t>(i) * lda;
        float *crow = c + static_cast<size_t>(i) * ldc;
        int j = 0;
        for (; j + 4 <= n; j += 4) {
            const float *b0 = b + static_cast<size_t>(j) * ldb;
            const float *b1 = b + static_cast<size_t>(j + 1) * ldb;
            const float *b2 = b + static_cast<size_t>(j + 2) * ldb;
            const float *b3 = b + static_cast<size_t>(j + 3) * ldb;
            __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
            __m256 s2 = _mm256_setzero_ps(), s3 = _mm256_setzero_ps();
            for (int kk = 0; kk < k8; kk += 8) {
                const __m256 av = _mm256_loadu_ps(arow + kk);
                s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + kk), s0);
                s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + kk), s1);
                s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + kk), s2);
                s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + kk), s3);
            }
            float d0 = hsum(s0), d1 = hsum(s1), d2 = hsum(s2),
                  d3 = hsum(s3);
            for (int kk = k8; kk < k; ++kk) {
                const float av = arow[kk];
                d0 += av * b0[kk];
                d1 += av * b1[kk];
                d2 += av * b2[kk];
                d3 += av * b3[kk];
            }
            if (accumulate) {
                crow[j] += d0;
                crow[j + 1] += d1;
                crow[j + 2] += d2;
                crow[j + 3] += d3;
            } else {
                crow[j] = d0;
                crow[j + 1] = d1;
                crow[j + 2] = d2;
                crow[j + 3] = d3;
            }
        }
        for (; j < n; ++j) {
            const float *brow = b + static_cast<size_t>(j) * ldb;
            __m256 s = _mm256_setzero_ps();
            for (int kk = 0; kk < k8; kk += 8)
                s = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                                    _mm256_loadu_ps(brow + kk), s);
            float d = hsum(s);
            for (int kk = k8; kk < k; ++kk)
                d += arow[kk] * brow[kk];
            crow[j] = accumulate ? crow[j] + d : d;
        }
    }
}

// --------------------------------------------- elementwise (no FMA)

void
avx2_axpy(size_t n, float alpha, const float *x, float *y)
{
    const __m256 va = _mm256_set1_ps(alpha);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

void
avx2_scale(size_t n, float alpha, float *y)
{
    const __m256 va = _mm256_set1_ps(alpha);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i,
                         _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
    for (; i < n; ++i)
        y[i] *= alpha;
}

void
avx2_vadd(size_t n, const float *x, float *y)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                              _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        y[i] += x[i];
}

void
avx2_vsub(size_t n, const float *x, float *y)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i),
                                              _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        y[i] -= x[i];
}

void
avx2_add_bias_rows(int rows, int cols, const float *bias, float *y)
{
    for (int r = 0; r < rows; ++r)
        avx2_vadd(static_cast<size_t>(cols), bias,
                  y + static_cast<size_t>(r) * cols);
}

void
avx2_accumulate_rows(int rows, int cols, const float *src, float *dst)
{
    for (int r = 0; r < rows; ++r)
        avx2_vadd(static_cast<size_t>(cols),
                  src + static_cast<size_t>(r) * cols, dst);
}

void
avx2_relu_forward(size_t n, float *y, uint8_t *mask)
{
    const __m256 zero = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i gt[4];
        for (int v = 0; v < 4; ++v) {
            const __m256 x = _mm256_loadu_ps(y + i + 8 * v);
            const __m256 m = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
            _mm256_storeu_ps(y + i + 8 * v, _mm256_and_ps(x, m));
            gt[v] = _mm256_castps_si256(m);
        }
        // Narrow the -1/0 lanes to bytes. The packs work per 128-bit
        // half, leaving 4-byte groups in the order v0[0:4] v1[0:4]
        // v2[0:4] v3[0:4] v0[4:8] ...; the permute restores lane order.
        const __m256i b = _mm256_packs_epi16(_mm256_packs_epi32(gt[0], gt[1]),
                                             _mm256_packs_epi32(gt[2], gt[3]));
        const __m256i ordered = _mm256_permutevar8x32_epi32(
            b, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(mask + i),
                            _mm256_and_si256(ordered, _mm256_set1_epi8(1)));
    }
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(y + i);
        const __m256 m = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(y + i, _mm256_and_ps(x, m));
        const __m256i gt = _mm256_castps_si256(m);
        const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(gt),
                                          _mm256_extracti128_si256(gt, 1));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(mask + i),
                         _mm_and_si128(_mm_packs_epi16(w, w),
                                       _mm_set1_epi8(1)));
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
avx2_relu_backward(size_t n, const uint8_t *mask, float *dy)
{
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i m = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(mask + i)));
        const __m256 off = _mm256_castsi256_ps(_mm256_cmpeq_epi32(m, zero));
        _mm256_storeu_ps(dy + i,
                         _mm256_andnot_ps(off, _mm256_loadu_ps(dy + i)));
    }
    for (; i < n; ++i)
        if (!mask[i])
            dy[i] = 0.0f;
}

void
avx2_sgd_step(size_t n, float *w, const float *g, float *v, float lr,
              float wd, float momentum)
{
    const __m256 vwd = _mm256_set1_ps(wd);
    const __m256 vlr = _mm256_set1_ps(lr);
    const bool use_momentum = v != nullptr && momentum != 0.0f;
    const __m256 vmom = _mm256_set1_ps(momentum);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 wv = _mm256_loadu_ps(w + i);
        __m256 grad = _mm256_add_ps(_mm256_loadu_ps(g + i),
                                    _mm256_mul_ps(vwd, wv));
        if (use_momentum) {
            const __m256 vel = _mm256_add_ps(
                _mm256_mul_ps(vmom, _mm256_loadu_ps(v + i)), grad);
            _mm256_storeu_ps(v + i, vel);
            grad = vel;
        }
        _mm256_storeu_ps(w + i,
                         _mm256_sub_ps(wv, _mm256_mul_ps(vlr, grad)));
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
avx2_sgd_step_prox(size_t n, float *w, const float *g, float *v,
                   const float *anchor, float lr, float wd, float momentum,
                   float mu)
{
    const __m256 vwd = _mm256_set1_ps(wd);
    const __m256 vlr = _mm256_set1_ps(lr);
    const __m256 vmu = _mm256_set1_ps(mu);
    const bool use_momentum = v != nullptr && momentum != 0.0f;
    const __m256 vmom = _mm256_set1_ps(momentum);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 wv = _mm256_loadu_ps(w + i);
        const __m256 base = _mm256_add_ps(_mm256_loadu_ps(g + i),
                                          _mm256_mul_ps(vwd, wv));
        const __m256 prox = _mm256_mul_ps(
            vmu, _mm256_sub_ps(wv, _mm256_loadu_ps(anchor + i)));
        __m256 grad = _mm256_add_ps(base, prox);
        if (use_momentum) {
            const __m256 vel = _mm256_add_ps(
                _mm256_mul_ps(vmom, _mm256_loadu_ps(v + i)), grad);
            _mm256_storeu_ps(v + i, vel);
            grad = vel;
        }
        _mm256_storeu_ps(w + i,
                         _mm256_sub_ps(wv, _mm256_mul_ps(vlr, grad)));
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
// Bit-identical to the scalar variants: max is exact, every conversion
// is one RNE rounding (cvtps_epi32 / cvtps_ph under the default MXCSR
// mode match scalar nearbyintf / the bit-manipulation fp16 path).

/** Horizontal max, exact (order-free). */
inline float
hmax(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_max_ps(lo, hi);
    s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

float
avx2_absmax(size_t n, const float *x)
{
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_max_ps(acc,
                            _mm256_and_ps(_mm256_loadu_ps(x + i), absmask));
    float m = hmax(acc);
    for (; i < n; ++i)
        m = __builtin_fmaxf(m, __builtin_fabsf(x[i]));
    return m;
}

/** rne(x * inv) clamped to [-127, 127], as 8 int32 lanes. */
inline __m256i
quant_lanes(const float *x, __m256 vinv, __m256i lo, __m256i hi)
{
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(x), vinv);
    __m256i q = _mm256_cvtps_epi32(prod);  // RNE; NaN -> INT_MIN
    q = _mm256_max_epi32(q, lo);           // NaN lands on -127, like
    q = _mm256_min_epi32(q, hi);           // scalar fmax(NaN,-127).
    return q;
}

void
avx2_quantize_i8(size_t n, const float *x, float inv_scale, int8_t *q)
{
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256i lo = _mm256_set1_epi32(-127);
    const __m256i hi = _mm256_set1_epi32(127);
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i a = quant_lanes(x + i, vinv, lo, hi);
        const __m256i b = quant_lanes(x + i + 8, vinv, lo, hi);
        const __m256i c = quant_lanes(x + i + 16, vinv, lo, hi);
        const __m256i d = quant_lanes(x + i + 24, vinv, lo, hi);
        // packs run per 128-bit lane; the final dword permute restores
        // element order. Saturation never engages (clamped to +-127).
        const __m256i ab = _mm256_packs_epi32(a, b);
        const __m256i cd = _mm256_packs_epi32(c, d);
        __m256i abcd = _mm256_packs_epi16(ab, cd);
        abcd = _mm256_permutevar8x32_epi32(
            abcd, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(q + i), abcd);
    }
    for (; i < n; ++i) {
        float r = __builtin_nearbyintf(x[i] * inv_scale);
        r = __builtin_fminf(__builtin_fmaxf(r, -127.0f), 127.0f);
        q[i] = static_cast<int8_t>(r);
    }
}

void
avx2_dequantize_i8(size_t n, const int8_t *q, float scale, float *y)
{
    const __m256 vs = _mm256_set1_ps(scale);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i b = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(q + i));
        const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
        _mm256_storeu_ps(y + i, _mm256_mul_ps(v, vs));
    }
    for (; i < n; ++i)
        y[i] = static_cast<float>(q[i]) * scale;
}

#if defined(__F16C__)

void
avx2_fp16_encode(size_t n, const float *x, uint16_t *h)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i packed = _mm256_cvtps_ph(
            _mm256_loadu_ps(x + i), _MM_FROUND_TO_NEAREST_INT);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(h + i), packed);
    }
    if (i < n) {  // Tail via a masked full vector (same instruction).
        float buf[8] = {};
        uint16_t out[8];
        for (size_t t = i; t < n; ++t)
            buf[t - i] = x[t];
        const __m128i packed = _mm256_cvtps_ph(
            _mm256_loadu_ps(buf), _MM_FROUND_TO_NEAREST_INT);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out), packed);
        for (size_t t = i; t < n; ++t)
            h[t] = out[t - i];
    }
}

void
avx2_fp16_decode(size_t n, const uint16_t *h, float *y)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i packed = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(h + i));
        _mm256_storeu_ps(y + i, _mm256_cvtph_ps(packed));
    }
    if (i < n) {
        uint16_t buf[8] = {};
        float out[8];
        for (size_t t = i; t < n; ++t)
            buf[t - i] = h[t];
        const __m128i packed =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(buf));
        _mm256_storeu_ps(out, _mm256_cvtph_ps(packed));
        for (size_t t = i; t < n; ++t)
            y[t] = out[t - i];
    }
}

#endif // __F16C__

// ------------------------------------ f64 accumulation (aggregation)

void
avx2_axpy_f64(size_t n, double alpha, const float *x, double *acc)
{
    const __m256d va = _mm256_set1_pd(alpha);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
        _mm256_storeu_pd(acc + i,
                         _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                       _mm256_mul_pd(va, xv)));
    }
    for (; i < n; ++i)
        acc[i] += alpha * x[i];
}

void
avx2_diff_axpy_f64(size_t n, double alpha, const float *w, const float *u,
                   double *acc)
{
    const __m256d va = _mm256_set1_pd(alpha);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d wv = _mm256_cvtps_pd(_mm_loadu_ps(w + i));
        const __m256d uv = _mm256_cvtps_pd(_mm_loadu_ps(u + i));
        const __m256d d = _mm256_sub_pd(wv, uv);
        _mm256_storeu_pd(acc + i,
                         _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                       _mm256_mul_pd(va, d)));
    }
    for (; i < n; ++i)
        acc[i] += alpha * (static_cast<double>(w[i]) - u[i]);
}

void
avx2_cast_f64_to_f32(size_t n, const double *acc, float *out)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_loadu_pd(acc + i)));
    for (; i < n; ++i)
        out[i] = static_cast<float>(acc[i]);
}

void
avx2_apply_step_f64(size_t n, float *w, double tau, const double *dir)
{
    const __m256d vt = _mm256_set1_pd(tau);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d wv = _mm256_cvtps_pd(_mm_loadu_ps(w + i));
        const __m256d step = _mm256_mul_pd(vt, _mm256_loadu_pd(dir + i));
        _mm_storeu_ps(w + i, _mm256_cvtpd_ps(_mm256_sub_pd(wv, step)));
    }
    for (; i < n; ++i)
        w[i] = static_cast<float>(w[i] - tau * dir[i]);
}

// ------------------------------------- LSTM inference gate update

/**
 * Vectorized exp (Cephes-style range reduction + degree-5 polynomial,
 * ~1e-7 relative on the gate-activation range). Inference-only: the
 * training gate kernel keeps exact libm transcendentals.
 */
inline __m256
exp256(__m256 x)
{
    x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647949f));
    x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));
    __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                                _mm256_set1_ps(0.5f));
    fx = _mm256_floor_ps(fx);
    x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
    x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
    const __m256 x2 = _mm256_mul_ps(x, x);
    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
    y = _mm256_fmadd_ps(y, x2, x);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
    __m256i pow2 = _mm256_cvttps_epi32(fx);
    pow2 = _mm256_add_epi32(pow2, _mm256_set1_epi32(0x7f));
    pow2 = _mm256_slli_epi32(pow2, 23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

inline __m256
sigmoid256(__m256 x)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 e = exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
    return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256
tanh256(__m256 x)
{
    // tanh(x) = 2 sigmoid(2x) - 1.
    const __m256 two = _mm256_set1_ps(2.0f);
    const __m256 s = sigmoid256(_mm256_mul_ps(two, x));
    return _mm256_fmsub_ps(two, s, _mm256_set1_ps(1.0f));
}

void
avx2_lstm_gate_infer(int batch, int hidden, float *z, const float *cprev,
                     float *c, float *h)
{
    const int h4 = 4 * hidden;
    const int vec_end = hidden - hidden % 8;
    for (int n = 0; n < batch; ++n) {
        float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        float *cn = c + static_cast<size_t>(n) * hidden;
        float *hn = h + static_cast<size_t>(n) * hidden;
        int j = 0;
        for (; j < vec_end; j += 8) {
            const __m256 zi = sigmoid256(_mm256_loadu_ps(zrow + j));
            const __m256 zf =
                sigmoid256(_mm256_loadu_ps(zrow + hidden + j));
            const __m256 zg =
                tanh256(_mm256_loadu_ps(zrow + 2 * hidden + j));
            const __m256 zo =
                sigmoid256(_mm256_loadu_ps(zrow + 3 * hidden + j));
            const __m256 cv = _mm256_fmadd_ps(
                zf, _mm256_loadu_ps(cp + j), _mm256_mul_ps(zi, zg));
            _mm256_storeu_ps(cn + j, cv);
            _mm256_storeu_ps(hn + j, _mm256_mul_ps(zo, tanh256(cv)));
        }
        for (; j < hidden; ++j) {
            // Scalar tail with the same polynomial-free libm math the
            // scalar variant uses; only full lanes take the fast path.
            const float zi =
                1.0f / (1.0f + __builtin_expf(-zrow[j]));
            const float zf =
                1.0f / (1.0f + __builtin_expf(-zrow[hidden + j]));
            const float zg = __builtin_tanhf(zrow[2 * hidden + j]);
            const float zo =
                1.0f / (1.0f + __builtin_expf(-zrow[3 * hidden + j]));
            const float cv = zf * cp[j] + zi * zg;
            cn[j] = cv;
            hn[j] = zo * __builtin_tanhf(cv);
        }
    }
}

/**
 * Training-path fused gate forward: like the infer kernel, but the
 * activated gates are stored back into z (the backward pass reads the
 * post-activation gate cache).
 */
void
avx2_lstm_gate_forward(int batch, int hidden, float *z, const float *cprev,
                       float *c, float *h)
{
    const int h4 = 4 * hidden;
    const int vec_end = hidden - hidden % 8;
    for (int n = 0; n < batch; ++n) {
        float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        float *cn = c + static_cast<size_t>(n) * hidden;
        float *hn = h + static_cast<size_t>(n) * hidden;
        int j = 0;
        for (; j < vec_end; j += 8) {
            const __m256 zi = sigmoid256(_mm256_loadu_ps(zrow + j));
            const __m256 zf =
                sigmoid256(_mm256_loadu_ps(zrow + hidden + j));
            const __m256 zg =
                tanh256(_mm256_loadu_ps(zrow + 2 * hidden + j));
            const __m256 zo =
                sigmoid256(_mm256_loadu_ps(zrow + 3 * hidden + j));
            _mm256_storeu_ps(zrow + j, zi);
            _mm256_storeu_ps(zrow + hidden + j, zf);
            _mm256_storeu_ps(zrow + 2 * hidden + j, zg);
            _mm256_storeu_ps(zrow + 3 * hidden + j, zo);
            const __m256 cv = _mm256_fmadd_ps(
                zf, _mm256_loadu_ps(cp + j), _mm256_mul_ps(zi, zg));
            _mm256_storeu_ps(cn + j, cv);
            _mm256_storeu_ps(hn + j, _mm256_mul_ps(zo, tanh256(cv)));
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

/**
 * Training-path fused gate backward. The only transcendental is
 * tanh(c); full lanes use the polynomial tanh256 (transcendental
 * parity tier, like the forward/infer kernels), the tail the same
 * libm call the scalar variant makes.
 */
void
avx2_lstm_gate_backward(int batch, int hidden, const float *z,
                        const float *cprev, const float *c, const float *dh,
                        const float *dc, float *dz, float *dc_prev)
{
    const int h4 = 4 * hidden;
    const int vec_end = hidden - hidden % 8;
    const __m256 one = _mm256_set1_ps(1.0f);
    for (int n = 0; n < batch; ++n) {
        const float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        const float *cn = c + static_cast<size_t>(n) * hidden;
        const float *dhn = dh + static_cast<size_t>(n) * hidden;
        const float *dcn = dc + static_cast<size_t>(n) * hidden;
        float *dzrow = dz + static_cast<size_t>(n) * h4;
        float *dcp = dc_prev + static_cast<size_t>(n) * hidden;
        int j = 0;
        for (; j < vec_end; j += 8) {
            const __m256 i_g = _mm256_loadu_ps(zrow + j);
            const __m256 f_g = _mm256_loadu_ps(zrow + hidden + j);
            const __m256 g_g = _mm256_loadu_ps(zrow + 2 * hidden + j);
            const __m256 o_g = _mm256_loadu_ps(zrow + 3 * hidden + j);
            const __m256 tc = tanh256(_mm256_loadu_ps(cn + j));
            const __m256 dht = _mm256_loadu_ps(dhn + j);

            const __m256 dtc = _mm256_sub_ps(one, _mm256_mul_ps(tc, tc));
            const __m256 dct = _mm256_add_ps(
                _mm256_mul_ps(_mm256_mul_ps(dht, o_g), dtc),
                _mm256_loadu_ps(dcn + j));
            const __m256 d_o = _mm256_mul_ps(dht, tc);
            const __m256 d_i = _mm256_mul_ps(dct, g_g);
            const __m256 d_g = _mm256_mul_ps(dct, i_g);
            const __m256 d_f = _mm256_mul_ps(dct, _mm256_loadu_ps(cp + j));
            _mm256_storeu_ps(dcp + j, _mm256_mul_ps(dct, f_g));

            _mm256_storeu_ps(
                dzrow + j,
                _mm256_mul_ps(_mm256_mul_ps(d_i, i_g),
                              _mm256_sub_ps(one, i_g)));
            _mm256_storeu_ps(
                dzrow + hidden + j,
                _mm256_mul_ps(_mm256_mul_ps(d_f, f_g),
                              _mm256_sub_ps(one, f_g)));
            _mm256_storeu_ps(
                dzrow + 2 * hidden + j,
                _mm256_mul_ps(d_g,
                              _mm256_sub_ps(one, _mm256_mul_ps(g_g, g_g))));
            _mm256_storeu_ps(
                dzrow + 3 * hidden + j,
                _mm256_mul_ps(_mm256_mul_ps(d_o, o_g),
                              _mm256_sub_ps(one, o_g)));
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

// ------------------------------------------------ direct convolution

/** Span floats conv_taps stages on the stack per block of rows. */
constexpr int kConvSpan = 1024;

/**
 * out[j] = init + sum_t w[t] * in[off[t] + j] for j in [0, n): 8 lanes
 * per vector and up to four vectors in flight, each lane in the scalar
 * entry's sequence (a separate mul and add per term).
 */
void
taps_span(int n, int terms, const float *w, const int *off, const float *in,
          float init, float *out)
{
    const __m256 vinit = _mm256_set1_ps(init);
    int j = 0;
    for (; j + 32 <= n; j += 32) {
        __m256 a0 = vinit, a1 = vinit, a2 = vinit, a3 = vinit;
        for (int t = 0; t < terms; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const float *p = in + off[t] + j;
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vw, _mm256_loadu_ps(p)));
            a1 = _mm256_add_ps(a1,
                               _mm256_mul_ps(vw, _mm256_loadu_ps(p + 8)));
            a2 = _mm256_add_ps(a2,
                               _mm256_mul_ps(vw, _mm256_loadu_ps(p + 16)));
            a3 = _mm256_add_ps(a3,
                               _mm256_mul_ps(vw, _mm256_loadu_ps(p + 24)));
        }
        _mm256_storeu_ps(out + j, a0);
        _mm256_storeu_ps(out + j + 8, a1);
        _mm256_storeu_ps(out + j + 16, a2);
        _mm256_storeu_ps(out + j + 24, a3);
    }
    for (; j + 16 <= n; j += 16) {
        __m256 a0 = vinit, a1 = vinit;
        for (int t = 0; t < terms; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const float *p = in + off[t] + j;
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vw, _mm256_loadu_ps(p)));
            a1 = _mm256_add_ps(a1,
                               _mm256_mul_ps(vw, _mm256_loadu_ps(p + 8)));
        }
        _mm256_storeu_ps(out + j, a0);
        _mm256_storeu_ps(out + j + 8, a1);
    }
    for (; j < n; j += 8) {
        const __m256i m = lanes_below(n - j);
        __m256 a = vinit;
        for (int t = 0; t < terms; ++t)
            a = _mm256_add_ps(
                a, _mm256_mul_ps(_mm256_set1_ps(w[t]),
                                 _mm256_maskload_ps(in + off[t] + j, m)));
        _mm256_maskstore_ps(out + j, m, a);
    }
}

/**
 * conv_taps over unit-stride rows. A block of rows runs as one span
 * at the input pitch, staged on the stack; the pitch - cols elements
 * after each row are computed and dropped when the rows are copied
 * out. A single row needs no staging. Strided rows run the scalar
 * entry.
 */
void
avx2_conv_taps(int rows, int cols, int pitch, int step, int terms,
               const float *w, const int *off, const float *in, float init,
               float *out)
{
    if (step != 1) {
        scalar_kernel_table()->conv_taps(rows, cols, pitch, step, terms, w,
                                         off, in, init, out);
        return;
    }
    alignas(32) float span[kConvSpan];
    int block = rows;
    if ((rows - 1) * pitch + cols > kConvSpan)
        block = cols < kConvSpan ? (kConvSpan - cols) / pitch + 1 : 1;
    for (int r = 0; r < rows; r += block) {
        const int nr = std::min(block, rows - r);
        const float *p = in + static_cast<size_t>(r) * pitch;
        float *o = out + static_cast<size_t>(r) * cols;
        if (nr == 1) {
            taps_span(cols, terms, w, off, p, init, o);
            continue;
        }
        taps_span((nr - 1) * pitch + cols, terms, w, off, p, init, span);
        for (int i = 0; i < nr; ++i)
            for (int c = 0; c < cols; c += 8) {
                const __m256i m = lanes_below(cols - c);
                _mm256_maskstore_ps(o + static_cast<size_t>(i) * cols + c, m,
                                    _mm256_maskload_ps(span + i * pitch + c,
                                                       m));
            }
    }
}

} // namespace

const KernelTable *
avx2_kernel_table()
{
    static const KernelTable t = [] {
        KernelTable k;
        k.gemm = avx2_gemm;
        k.gemm_tn = avx2_gemm_tn;
        k.gemm_nt = avx2_gemm_nt;
        k.gemm_micro = avx2_micro_6x16;
        k.gemm_mr = 6;
        k.gemm_nr = 16;
        k.gemm_mc = 72;    // A block 72 x 256 ~ 72 KB, L2-resident.
        k.gemm_kc = 256;   // B panel 256 x 16 = 16 KB, L1-resident.
        k.gemm_nc = 1024;  // B block 256 x 1024 = 1 MB, LLC-resident.
        k.pack_panels = avx2_pack_panels;
        k.axpy = avx2_axpy;
        k.scale = avx2_scale;
        k.vadd = avx2_vadd;
        k.vsub = avx2_vsub;
        k.add_bias_rows = avx2_add_bias_rows;
        k.accumulate_rows = avx2_accumulate_rows;
        k.relu_forward = avx2_relu_forward;
        k.relu_backward = avx2_relu_backward;
        k.sgd_step = avx2_sgd_step;
        k.sgd_step_prox = avx2_sgd_step_prox;
        k.absmax = avx2_absmax;
        k.quantize_i8 = avx2_quantize_i8;
        k.dequantize_i8 = avx2_dequantize_i8;
#if defined(__F16C__)
        // F16C is a separate cpuid bit from AVX2; leave the entries
        // null (scalar fallback) on the rare parts without it.
        if (__builtin_cpu_supports("f16c")) {
            k.fp16_encode = avx2_fp16_encode;
            k.fp16_decode = avx2_fp16_decode;
        }
#endif
        k.axpy_f64 = avx2_axpy_f64;
        k.diff_axpy_f64 = avx2_diff_axpy_f64;
        k.cast_f64_to_f32 = avx2_cast_f64_to_f32;
        k.apply_step_f64 = avx2_apply_step_f64;
        // Training numerics are per-arch through the GEMM tier anyway,
        // so the gates share the transcendental Tolerance tier.
        k.lstm_gate_forward = avx2_lstm_gate_forward;
        k.lstm_gate_infer = avx2_lstm_gate_infer;
        k.lstm_gate_backward = avx2_lstm_gate_backward;
        k.conv_taps = avx2_conv_taps;
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

#else // !(__AVX2__ && __FMA__)

namespace autofl::kernels {

const KernelTable *
avx2_kernel_table()
{
    return nullptr;
}

} // namespace autofl::kernels

#endif
