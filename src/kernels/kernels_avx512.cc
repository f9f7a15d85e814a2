/**
 * @file
 * AVX-512F + FMA kernel variant. This translation unit is the only one
 * compiled with -mavx512f -mfma (see CMakeLists.txt); dispatch selects
 * the table only after a cpuid check, so the binary still runs on
 * AVX2-only and pre-AVX2 x86-64.
 *
 * The table starts as a copy of the AVX2 table — every AVX-512 CPU
 * runs AVX2 code, and keeping the elementwise/codec entries shared
 * keeps those families in the bit-exact parity tier with zero extra
 * surface. Overridden here:
 *  - the packed-panel GEMM microkernel: an 8 x 32 register tile
 *    (16 zmm accumulators, 32-float panel rows), ascending-k FMA —
 *    the same Tolerance parity class as the AVX2 GEMM tier;
 *  - the fused LSTM gate family, with a 16-lane polynomial exp
 *    (transcendental Tolerance tier, libm tail like the AVX2 kernels).
 * The direct (streaming) GEMM entries stay the AVX2 implementations:
 * small shapes are load-port bound, where 512-bit vectors buy nothing.
 */
#include "kernels/kernel_table.h"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

namespace autofl::kernels {

namespace {

/**
 * Packed-panel 8 x 32 microkernel: 16 zmm accumulators, one k step
 * loads 2 B vectors and broadcasts 8 A values from contiguous panels
 * (apanel: kc groups of 8 row values; bpanel: kc groups of 32 column
 * values — see the driver in kernels.cc).
 */
void
avx512_micro_8x32(int kc, const float *ap, const float *bp, float *c,
                  int ldc, bool accumulate)
{
    __m512 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51, c60,
        c61, c70, c71;
    if (accumulate) {
        c00 = _mm512_loadu_ps(c + 0 * static_cast<size_t>(ldc));
        c01 = _mm512_loadu_ps(c + 0 * static_cast<size_t>(ldc) + 16);
        c10 = _mm512_loadu_ps(c + 1 * static_cast<size_t>(ldc));
        c11 = _mm512_loadu_ps(c + 1 * static_cast<size_t>(ldc) + 16);
        c20 = _mm512_loadu_ps(c + 2 * static_cast<size_t>(ldc));
        c21 = _mm512_loadu_ps(c + 2 * static_cast<size_t>(ldc) + 16);
        c30 = _mm512_loadu_ps(c + 3 * static_cast<size_t>(ldc));
        c31 = _mm512_loadu_ps(c + 3 * static_cast<size_t>(ldc) + 16);
        c40 = _mm512_loadu_ps(c + 4 * static_cast<size_t>(ldc));
        c41 = _mm512_loadu_ps(c + 4 * static_cast<size_t>(ldc) + 16);
        c50 = _mm512_loadu_ps(c + 5 * static_cast<size_t>(ldc));
        c51 = _mm512_loadu_ps(c + 5 * static_cast<size_t>(ldc) + 16);
        c60 = _mm512_loadu_ps(c + 6 * static_cast<size_t>(ldc));
        c61 = _mm512_loadu_ps(c + 6 * static_cast<size_t>(ldc) + 16);
        c70 = _mm512_loadu_ps(c + 7 * static_cast<size_t>(ldc));
        c71 = _mm512_loadu_ps(c + 7 * static_cast<size_t>(ldc) + 16);
    } else {
        c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = c40 = c41 = c50 =
            c51 = c60 = c61 = c70 = c71 = _mm512_setzero_ps();
    }
    for (int kk = 0; kk < kc; ++kk) {
        const __m512 b0 = _mm512_loadu_ps(bp);
        const __m512 b1 = _mm512_loadu_ps(bp + 16);
        bp += 32;
        __m512 av = _mm512_set1_ps(ap[0]);
        c00 = _mm512_fmadd_ps(av, b0, c00);
        c01 = _mm512_fmadd_ps(av, b1, c01);
        av = _mm512_set1_ps(ap[1]);
        c10 = _mm512_fmadd_ps(av, b0, c10);
        c11 = _mm512_fmadd_ps(av, b1, c11);
        av = _mm512_set1_ps(ap[2]);
        c20 = _mm512_fmadd_ps(av, b0, c20);
        c21 = _mm512_fmadd_ps(av, b1, c21);
        av = _mm512_set1_ps(ap[3]);
        c30 = _mm512_fmadd_ps(av, b0, c30);
        c31 = _mm512_fmadd_ps(av, b1, c31);
        av = _mm512_set1_ps(ap[4]);
        c40 = _mm512_fmadd_ps(av, b0, c40);
        c41 = _mm512_fmadd_ps(av, b1, c41);
        av = _mm512_set1_ps(ap[5]);
        c50 = _mm512_fmadd_ps(av, b0, c50);
        c51 = _mm512_fmadd_ps(av, b1, c51);
        av = _mm512_set1_ps(ap[6]);
        c60 = _mm512_fmadd_ps(av, b0, c60);
        c61 = _mm512_fmadd_ps(av, b1, c61);
        av = _mm512_set1_ps(ap[7]);
        c70 = _mm512_fmadd_ps(av, b0, c70);
        c71 = _mm512_fmadd_ps(av, b1, c71);
        ap += 8;
    }
    _mm512_storeu_ps(c + 0 * static_cast<size_t>(ldc), c00);
    _mm512_storeu_ps(c + 0 * static_cast<size_t>(ldc) + 16, c01);
    _mm512_storeu_ps(c + 1 * static_cast<size_t>(ldc), c10);
    _mm512_storeu_ps(c + 1 * static_cast<size_t>(ldc) + 16, c11);
    _mm512_storeu_ps(c + 2 * static_cast<size_t>(ldc), c20);
    _mm512_storeu_ps(c + 2 * static_cast<size_t>(ldc) + 16, c21);
    _mm512_storeu_ps(c + 3 * static_cast<size_t>(ldc), c30);
    _mm512_storeu_ps(c + 3 * static_cast<size_t>(ldc) + 16, c31);
    _mm512_storeu_ps(c + 4 * static_cast<size_t>(ldc), c40);
    _mm512_storeu_ps(c + 4 * static_cast<size_t>(ldc) + 16, c41);
    _mm512_storeu_ps(c + 5 * static_cast<size_t>(ldc), c50);
    _mm512_storeu_ps(c + 5 * static_cast<size_t>(ldc) + 16, c51);
    _mm512_storeu_ps(c + 6 * static_cast<size_t>(ldc), c60);
    _mm512_storeu_ps(c + 6 * static_cast<size_t>(ldc) + 16, c61);
    _mm512_storeu_ps(c + 7 * static_cast<size_t>(ldc), c70);
    _mm512_storeu_ps(c + 7 * static_cast<size_t>(ldc) + 16, c71);
}

// ------------------------------------- fused LSTM gates (16 lanes)

/**
 * Vectorized exp — the same Cephes-style range reduction + degree-5
 * polynomial as the AVX2 variant, widened to 16 lanes (~1e-7 relative
 * on the gate-activation range). AVX512F only: floor via roundscale.
 */
inline __m512
exp512(__m512 x)
{
    x = _mm512_min_ps(x, _mm512_set1_ps(88.3762626647949f));
    x = _mm512_max_ps(x, _mm512_set1_ps(-88.3762626647949f));
    __m512 fx = _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f),
                                _mm512_set1_ps(0.5f));
    fx = _mm512_roundscale_ps(fx,
                              _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
    x = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), x);
    const __m512 x2 = _mm512_mul_ps(x, x);
    __m512 y = _mm512_set1_ps(1.9875691500e-4f);
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
    y = _mm512_fmadd_ps(y, x2, x);
    y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));
    __m512i pow2 = _mm512_cvttps_epi32(fx);
    pow2 = _mm512_add_epi32(pow2, _mm512_set1_epi32(0x7f));
    pow2 = _mm512_slli_epi32(pow2, 23);
    return _mm512_mul_ps(y, _mm512_castsi512_ps(pow2));
}

inline __m512
sigmoid512(__m512 x)
{
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 e = exp512(_mm512_sub_ps(_mm512_setzero_ps(), x));
    return _mm512_div_ps(one, _mm512_add_ps(one, e));
}

inline __m512
tanh512(__m512 x)
{
    // tanh(x) = 2 sigmoid(2x) - 1.
    const __m512 two = _mm512_set1_ps(2.0f);
    const __m512 s = sigmoid512(_mm512_mul_ps(two, x));
    return _mm512_fmsub_ps(two, s, _mm512_set1_ps(1.0f));
}

void
avx512_lstm_gate(int batch, int hidden, float *z, const float *cprev,
                 float *c, float *h)
{
    const int h4 = 4 * hidden;
    const int vec_end = hidden - hidden % 16;
    for (int n = 0; n < batch; ++n) {
        float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        float *cn = c + static_cast<size_t>(n) * hidden;
        float *hn = h + static_cast<size_t>(n) * hidden;
        int j = 0;
        for (; j < vec_end; j += 16) {
            const __m512 zi = sigmoid512(_mm512_loadu_ps(zrow + j));
            const __m512 zf =
                sigmoid512(_mm512_loadu_ps(zrow + hidden + j));
            const __m512 zg =
                tanh512(_mm512_loadu_ps(zrow + 2 * hidden + j));
            const __m512 zo =
                sigmoid512(_mm512_loadu_ps(zrow + 3 * hidden + j));
            _mm512_storeu_ps(zrow + j, zi);
            _mm512_storeu_ps(zrow + hidden + j, zf);
            _mm512_storeu_ps(zrow + 2 * hidden + j, zg);
            _mm512_storeu_ps(zrow + 3 * hidden + j, zo);
            const __m512 cv = _mm512_fmadd_ps(
                zf, _mm512_loadu_ps(cp + j), _mm512_mul_ps(zi, zg));
            _mm512_storeu_ps(cn + j, cv);
            _mm512_storeu_ps(hn + j, _mm512_mul_ps(zo, tanh512(cv)));
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
avx512_lstm_gate_backward(int batch, int hidden, const float *z,
                          const float *cprev, const float *c,
                          const float *dh, const float *dc, float *dz,
                          float *dc_prev)
{
    const int h4 = 4 * hidden;
    const int vec_end = hidden - hidden % 16;
    const __m512 one = _mm512_set1_ps(1.0f);
    for (int n = 0; n < batch; ++n) {
        const float *zrow = z + static_cast<size_t>(n) * h4;
        const float *cp = cprev + static_cast<size_t>(n) * hidden;
        const float *cn = c + static_cast<size_t>(n) * hidden;
        const float *dhn = dh + static_cast<size_t>(n) * hidden;
        const float *dcn = dc + static_cast<size_t>(n) * hidden;
        float *dzrow = dz + static_cast<size_t>(n) * h4;
        float *dcp = dc_prev + static_cast<size_t>(n) * hidden;
        int j = 0;
        for (; j < vec_end; j += 16) {
            const __m512 i_g = _mm512_loadu_ps(zrow + j);
            const __m512 f_g = _mm512_loadu_ps(zrow + hidden + j);
            const __m512 g_g = _mm512_loadu_ps(zrow + 2 * hidden + j);
            const __m512 o_g = _mm512_loadu_ps(zrow + 3 * hidden + j);
            const __m512 tc = tanh512(_mm512_loadu_ps(cn + j));
            const __m512 dht = _mm512_loadu_ps(dhn + j);

            const __m512 dtc = _mm512_sub_ps(one, _mm512_mul_ps(tc, tc));
            const __m512 dct = _mm512_add_ps(
                _mm512_mul_ps(_mm512_mul_ps(dht, o_g), dtc),
                _mm512_loadu_ps(dcn + j));
            const __m512 d_o = _mm512_mul_ps(dht, tc);
            const __m512 d_i = _mm512_mul_ps(dct, g_g);
            const __m512 d_g = _mm512_mul_ps(dct, i_g);
            const __m512 d_f = _mm512_mul_ps(dct, _mm512_loadu_ps(cp + j));
            _mm512_storeu_ps(dcp + j, _mm512_mul_ps(dct, f_g));

            _mm512_storeu_ps(
                dzrow + j,
                _mm512_mul_ps(_mm512_mul_ps(d_i, i_g),
                              _mm512_sub_ps(one, i_g)));
            _mm512_storeu_ps(
                dzrow + hidden + j,
                _mm512_mul_ps(_mm512_mul_ps(d_f, f_g),
                              _mm512_sub_ps(one, f_g)));
            _mm512_storeu_ps(
                dzrow + 2 * hidden + j,
                _mm512_mul_ps(d_g,
                              _mm512_sub_ps(one, _mm512_mul_ps(g_g, g_g))));
            _mm512_storeu_ps(
                dzrow + 3 * hidden + j,
                _mm512_mul_ps(_mm512_mul_ps(d_o, o_g),
                              _mm512_sub_ps(one, o_g)));
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
avx512_kernel_table()
{
    static const KernelTable t = [] {
        // Inherit the AVX2 entries (null table only if this binary
        // somehow built the 512-bit TU without the 256-bit one; the
        // per-member scalar fallback covers that).
        const KernelTable *base = avx2_kernel_table();
        KernelTable k = base != nullptr ? *base : KernelTable{};
        k.gemm_micro = avx512_micro_8x32;
        k.gemm_mr = 8;
        k.gemm_nr = 32;
        k.gemm_mc = 160;   // A block 160 x 256 ~ 160 KB, L2-resident.
        k.gemm_kc = 256;   // B panel 256 x 32 = 32 KB, L1-resident.
        k.gemm_nc = 2048;  // B block 256 x 2048 = 2 MB, LLC-resident.
        k.lstm_gate_forward = avx512_lstm_gate;
        k.lstm_gate_infer = avx512_lstm_gate;
        k.lstm_gate_backward = avx512_lstm_gate_backward;
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

#else // !(__AVX512F__ && __FMA__)

namespace autofl::kernels {

const KernelTable *
avx512_kernel_table()
{
    return nullptr;
}

} // namespace autofl::kernels

#endif
