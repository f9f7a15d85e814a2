/**
 * @file
 * Internal dispatch table shared by the kernel variants. Each variant
 * fills one KernelTable with function pointers; kernels.cc picks the
 * table for the currently selected arch per call. Entries left null by
 * a variant fall back to the scalar implementation, so adding a new
 * arch only requires implementing the kernels that actually benefit.
 *
 * Not part of the public API — include "kernels/kernels.h" instead.
 */
#ifndef AUTOFL_KERNELS_KERNEL_TABLE_H
#define AUTOFL_KERNELS_KERNEL_TABLE_H

#include <cstddef>
#include <cstdint>

#include "kernels/arch.h"

namespace autofl::kernels {

/** Per-arch kernel entry points (raw row-major float buffers). */
struct KernelTable
{
    // Direct GEMM family: C {m,n} = (or +=) A {m,k} B {k,n}. Streams
    // the operands in place — the small-shape path, and the baseline
    // the packed-panel driver is gated against in the benches.
    void (*gemm)(int m, int n, int k, const float *a, int lda,
                 const float *b, int ldb, float *c, int ldc,
                 bool accumulate) = nullptr;
    // C {m,n} = (or +=) A^T B for A {k,m}.
    void (*gemm_tn)(int m, int n, int k, const float *a, int lda,
                    const float *b, int ldb, float *c, int ldc,
                    bool accumulate) = nullptr;
    // C {m,n} = (or +=) A B^T for B {n,k}.
    void (*gemm_nt)(int m, int n, int k, const float *a, int lda,
                    const float *b, int ldb, float *c, int ldc,
                    bool accumulate) = nullptr;

    // Packed-panel GEMM microkernel (BLIS-style): computes one
    // gemm_mr x gemm_nr register tile from contiguous panels. apanel
    // holds kc groups of gemm_mr row values (one per k step), bpanel
    // kc groups of gemm_nr column values; both are zero-padded to full
    // tile width by pack_panels, so the microkernel never sees a
    // ragged edge (the shared driver stages edge tiles through a
    // scratch tile). Null when the variant has no packed path — the
    // scalar table, whose direct loops are the bit-exactness baseline.
    void (*gemm_micro)(int kc, const float *apanel, const float *bpanel,
                       float *c, int ldc, bool accumulate) = nullptr;
    // Panel packing for the packed driver and the prepacked handles.
    // Element (x, kk) of the source block sits at src[x * xs + kk * ks];
    // out receives ceil(count / w) panels of kb groups of w values (x
    // ascending), zero past count. A panels pack rows (w = gemm_mr), B
    // panels columns (w = gemm_nr). Pure data movement, so the panels,
    // and every GEMM result, are bit-identical across variants; it has
    // no parity tier of its own. Callers pass xs == 1 or ks == 1, and
    // SIMD entries may assume w <= 8 or w % 8 == 0.
    void (*pack_panels)(int count, int kb, const float *src, size_t xs,
                        size_t ks, int w, float *out) = nullptr;
    // Register tile shape and cache-blocking parameters (elements).
    // Invariants the shared driver relies on: gemm_mc % gemm_mr == 0
    // and gemm_nc % gemm_nr == 0 (prepacked-operand offsets assume
    // every non-final block is a whole multiple of the tile).
    int gemm_mr = 0;  ///< Microkernel rows.
    int gemm_nr = 0;  ///< Microkernel columns.
    int gemm_mc = 0;  ///< A block rows per L2-resident pack.
    int gemm_kc = 0;  ///< Shared k depth per pack (B panel fits L1).
    int gemm_nc = 0;  ///< B block columns per outer pack.

    // Elementwise family: bit-identical across variants (no FMA).
    void (*axpy)(size_t n, float alpha, const float *x, float *y) = nullptr;
    void (*scale)(size_t n, float alpha, float *y) = nullptr;
    void (*vadd)(size_t n, const float *x, float *y) = nullptr;
    void (*vsub)(size_t n, const float *x, float *y) = nullptr;
    void (*add_bias_rows)(int rows, int cols, const float *bias,
                          float *y) = nullptr;
    void (*accumulate_rows)(int rows, int cols, const float *src,
                            float *dst) = nullptr;
    void (*relu_forward)(size_t n, float *y, uint8_t *mask) = nullptr;
    void (*relu_backward)(size_t n, const uint8_t *mask,
                          float *dy) = nullptr;
    void (*sgd_step)(size_t n, float *w, const float *g, float *v,
                     float lr, float wd, float momentum) = nullptr;
    void (*sgd_step_prox)(size_t n, float *w, const float *g, float *v,
                          const float *anchor, float lr, float wd,
                          float momentum, float mu) = nullptr;

    // Fused LSTM gate family (transcendental tier). Variants may
    // vectorize sigmoid/tanh with a polynomial exp; the scalar entries
    // keep exact libm transcendentals and are the parity baseline.
    // Training results are already per-arch through the GEMM tier, so
    // the gate kernels share the same Tolerance class; per-variant
    // bitwise determinism (Sync == SemiAsync(S=0)) is unaffected.
    void (*lstm_gate_forward)(int batch, int hidden, float *z,
                              const float *cprev, float *c,
                              float *h) = nullptr;
    void (*lstm_gate_backward)(int batch, int hidden, const float *z,
                               const float *cprev, const float *c,
                               const float *dh, const float *dc, float *dz,
                               float *dc_prev) = nullptr;
    // Inference-only fused gate update (activated z is scratch).
    void (*lstm_gate_infer)(int batch, int hidden, float *z,
                            const float *cprev, float *c,
                            float *h) = nullptr;

    // Direct grouped convolution: one {rows, cols} output plane whose
    // input rows sit @p pitch floats apart with taps @p step floats
    // apart along a row. Every element gets the scalar sequence
    //   out[r * cols + c] = init + w[0] * in[off[0] + r * pitch + c * step]
    //                     + ... + w[terms-1] * in[off[terms-1] + ...]
    // (ascending t, a separate mul and add per term, never FMA), so the
    // entry is bit-identical across variants, like the elementwise
    // family; it has no parity tier of its own.
    void (*conv_taps)(int rows, int cols, int pitch, int step, int terms,
                      const float *w, const int *off, const float *in,
                      float init, float *out) = nullptr;

    // Push-delta codec family (update compression): bit-identical
    // across variants — max is exact, quantize/dequantize and fp16
    // conversions perform one round-to-nearest-even per element.
    float (*absmax)(size_t n, const float *x) = nullptr;
    void (*quantize_i8)(size_t n, const float *x, float inv_scale,
                        int8_t *q) = nullptr;
    void (*dequantize_i8)(size_t n, const int8_t *q, float scale,
                          float *y) = nullptr;
    void (*fp16_encode)(size_t n, const float *x, uint16_t *h) = nullptr;
    void (*fp16_decode)(size_t n, const uint16_t *h, float *y) = nullptr;

    // Double-precision accumulation used by FL aggregation.
    void (*axpy_f64)(size_t n, double alpha, const float *x,
                     double *acc) = nullptr;
    void (*diff_axpy_f64)(size_t n, double alpha, const float *w,
                          const float *u, double *acc) = nullptr;
    void (*cast_f64_to_f32)(size_t n, const double *acc,
                            float *out) = nullptr;
    void (*apply_step_f64)(size_t n, float *w, double tau,
                           const double *dir) = nullptr;

    // What this variant promises relative to the scalar baseline, per
    // kernel family. tests/test_kernels.cc reads these to decide
    // bit-exact vs 1e-4 assertions — a new table declares its contract
    // here instead of the tests hard-coding per-arch knowledge.
    KernelParity parity_tier{};
};

/** The portable table; every entry is non-null. */
const KernelTable *scalar_kernel_table();

/**
 * The AVX2/FMA table, or null when this binary was built without AVX2
 * support (defined in kernels_avx2.cc, which is compiled with
 * -mavx2 -mfma on x86-64 only).
 */
const KernelTable *avx2_kernel_table();

/**
 * The AVX-512F/FMA table, or null when built without AVX-512 support.
 * Inherits the AVX2 entries (every AVX-512 CPU runs them, and the
 * exact-tier families stay bit-identical that way) and overrides the
 * GEMM microkernel and the transcendental family with 16-lane code
 * (defined in kernels_avx512.cc, compiled with -mavx512f -mfma).
 */
const KernelTable *avx512_kernel_table();

} // namespace autofl::kernels

#endif // AUTOFL_KERNELS_KERNEL_TABLE_H
