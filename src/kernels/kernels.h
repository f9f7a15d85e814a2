/**
 * @file
 * The shared compute backend: runtime-dispatched GEMM, im2col
 * convolution helpers and fused elementwise kernels over raw row-major
 * float buffers.
 *
 * Every compute inner loop in the repo — Tensor matmul, the nn layers,
 * the SGD step and the FL aggregation range helpers — routes through
 * these entry points, so a new arch variant (one KernelTable) speeds up
 * the whole stack at once. See src/kernels/README.md for the dispatch
 * design and the determinism contract; in short:
 *
 *  - Per variant, every kernel has a fixed reduction order: identical
 *    inputs give bitwise-identical outputs, independent of thread
 *    count or call site.
 *  - The scalar GEMM variants reduce over k in ascending order exactly
 *    like the seed triple loops (bit-compatible with pre-kernel runs).
 *  - Each kernel family carries an explicit per-arch parity tier
 *    (kernel_parity()): `exact` families (elementwise, codecs) are
 *    bit-identical across ALL variants; `tolerance` families (SIMD
 *    GEMM, vectorized transcendentals) agree within 1e-4 relative.
 *    The direct grouped convolution is bit-identical across variants
 *    by construction (see conv_direct()).
 */
#ifndef AUTOFL_KERNELS_KERNELS_H
#define AUTOFL_KERNELS_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/arch.h"

namespace autofl::kernels {

/** Per-family parity tiers the given variant promises vs scalar. */
const KernelParity &kernel_parity(KernelArch arch);

// ------------------------------------------------------------- GEMM
// Row-major. When @p accumulate is false, C is overwritten; when true,
// the product is added on top of the existing C (used to fuse bias
// pre-fill and gradient accumulation into the multiply).
//
// SIMD variants route large shapes through a packed-panel driver (A
// repacked into MR x kc row panels, B into kc x NR column panels, BLIS
//-style cache blocking) and keep the original blocked kernels for
// small shapes. Both paths are per-variant deterministic; they belong
// to the same 1e-4 `tolerance` parity class but are NOT bit-identical
// to each other, so the path choice is a pure function of (m, n, k)
// and the selected arch — never of data or timing.

/** C {m,n} = (or +=) A {m,k} x B {k,n}. */
void gemm(int m, int n, int k, const float *a, int lda, const float *b,
          int ldb, float *c, int ldc, bool accumulate = false);

/** C {m,n} = (or +=) A^T x B for A stored {k,m}. */
void gemm_tn(int m, int n, int k, const float *a, int lda, const float *b,
             int ldb, float *c, int ldc, bool accumulate = false);

/** C {m,n} = (or +=) A x B^T for B stored {n,k}. */
void gemm_nt(int m, int n, int k, const float *a, int lda, const float *b,
             int ldb, float *c, int ldc, bool accumulate = false);

/**
 * GEMM path selection hook for tests and benches. `Auto` (the default)
 * picks per shape; `Direct` forces the original streaming kernels;
 * `Packed` forces the packed-panel driver where the variant has one
 * (falls back to Direct on the scalar table, which by contract has no
 * packed path). Process-global, like set_kernel_arch().
 */
enum class GemmPath {
    Auto,
    Direct,
    Packed,
};

/** Install a path policy; returns the previous one. */
GemmPath set_gemm_path(GemmPath path);

/** The path policy gemm() consults right now. */
GemmPath current_gemm_path();

// ------------------------------------------- prepacked GEMM operands
// Weight-stationary call sites (LSTM steps share one Wh across all
// timesteps, conv layers share one W across the batch) pack the
// constant operand once and reuse the panels across every GEMM call.
// The panels are laid out for the arch selected at pack() time; the
// compute calls keep using that arch's microkernel, so a handle stays
// valid (and deterministic) even if the dispatch arch is flipped
// mid-flight. On the scalar table — or for shapes below the packing
// cutoff — an A handle degrades to a contiguous row-major copy and a B
// handle borrows the caller's operand; either way the compute calls
// route through the ordinary dispatcher, preserving the scalar
// bit-exactness contract.

/** Opaque prepacked operand; movable, reusable across calls. */
class PackedGemm
{
  public:
    PackedGemm() = default;

    /** Logical rows of the (possibly transposed) operand. */
    int rows() const { return rows_; }
    /** Logical cols of the (possibly transposed) operand. */
    int cols() const { return cols_; }
    /** True when panel-packed (SIMD arch and above the cutoff). */
    bool packed() const { return panels_; }
    /** Arch whose panel layout (and microkernel) this handle uses. */
    KernelArch arch() const { return arch_; }

  private:
    friend PackedGemm pack_gemm_a(int m, int k, const float *a, int lda,
                                  bool a_transposed);
    friend PackedGemm pack_gemm_b(int m, int k, int n, const float *b,
                                  int ldb, bool b_transposed);
    friend void gemm_packed_a(const PackedGemm &a, int n, const float *b,
                              int ldb, float *c, int ldc, bool accumulate);
    friend void gemm_packed_b(int m, const float *a, int lda,
                              const PackedGemm &b, float *c, int ldc,
                              bool accumulate);

    /**
     * Point data_ at @p n uninitialized floats (the pack writes every
     * element, padding included), 64-byte aligned when @p align.
     */
    void alloc_floats(size_t n, bool align);

    std::unique_ptr<float[]> buf_;  ///< Owns the block data_ points into.
    float *data_ = nullptr;
    const float *borrowed_ = nullptr;  ///< Unpacked B: the caller's operand.
    int ld_ = 0;                       ///< Leading dimension of borrowed_.
    bool transposed_ = false;          ///< borrowed_ is stored {n, k}.
    int rows_ = 0;
    int cols_ = 0;
    KernelArch arch_ = KernelArch::Scalar;
    bool panels_ = false;
};

/**
 * Pack the A operand of C {m,n} = A {m,k} B: m x k panels, reusable
 * across gemm_packed_a calls. With @p a_transposed, @p a is stored
 * {k,m} with leading dimension @p lda (the gemm_tn A operand) and is
 * gathered into the same row-major panel layout.
 */
PackedGemm pack_gemm_a(int m, int k, const float *a, int lda,
                       bool a_transposed = false);

/**
 * Prepare the B operand of C {m,n} = A B {k,n} for repeated
 * gemm_packed_b calls with @p m rows. When gemm() takes the packed path
 * for that shape, B is packed into panels once here; otherwise the
 * handle borrows @p b (which must then outlive it) and every call runs
 * the dispatcher on it. Either way a call computes the bits gemm() of
 * the shape would, minus the per-call packing. With @p b_transposed,
 * @p b is stored {n,k} with leading dimension @p ldb (the gemm_nt B
 * operand, with gemm_nt() as the reference) and packs into the same
 * column-panel layout.
 */
PackedGemm pack_gemm_b(int m, int k, int n, const float *b, int ldb,
                       bool b_transposed = false);

/** C {a.rows(), n} = (or +=) packed A x B {a.cols(), n}. */
void gemm_packed_a(const PackedGemm &a, int n, const float *b, int ldb,
                   float *c, int ldc, bool accumulate = false);

/** C {m, b.cols()} = (or +=) A {m, b.rows()} x packed B. */
void gemm_packed_b(int m, const float *a, int lda, const PackedGemm &b,
                   float *c, int ldc, bool accumulate = false);

// ------------------------------------------------- fused elementwise

/** y += alpha * x. */
void axpy(size_t n, float alpha, const float *x, float *y);

/** y *= alpha. */
void scale(size_t n, float alpha, float *y);

/** y += x. */
void vadd(size_t n, const float *x, float *y);

/** y -= x. */
void vsub(size_t n, const float *x, float *y);

/** y[r, c] += bias[c] for every row of the {rows, cols} matrix. */
void add_bias_rows(int rows, int cols, const float *bias, float *y);

/** dst[c] += sum_r src[r, c] (rows processed in ascending order). */
void accumulate_rows(int rows, int cols, const float *src, float *dst);

/** In-place ReLU; mask[i] = 1 where the input was positive. */
void relu_forward(size_t n, float *y, uint8_t *mask);

/** Zero dy where the forward mask was zero. */
void relu_backward(size_t n, const uint8_t *mask, float *dy);

/**
 * Fused SGD step: grad = g + wd * w (+ momentum velocity update when
 * @p v is non-null and momentum != 0), then w -= lr * grad.
 */
void sgd_step(size_t n, float *w, const float *g, float *v, float lr,
              float wd, float momentum);

/** Fused FedProx step: adds mu * (w - anchor) to the gradient. */
void sgd_step_prox(size_t n, float *w, const float *g, float *v,
                   const float *anchor, float lr, float wd, float momentum,
                   float mu);

// ------------------------------- push-delta codec (update compression)
// The quantize/dequantize/fp16 family is bit-identical across ALL
// variants: max is an exact operation, and every conversion performs
// one round-to-nearest-even per element in both the scalar and the
// SIMD code paths (scalar nearbyintf == _mm256_cvtps_epi32 under the
// default rounding mode; the bit-manipulation fp16 conversion matches
// F16C). Inputs are expected finite; NaN elements quantize to -127
// deterministically on every variant.

/** max_i |x[i]| (0 for n == 0). Exact, order-independent. */
float absmax(size_t n, const float *x);

/** q[i] = clamp(rne(x[i] * inv_scale), -127, 127). */
void quantize_i8(size_t n, const float *x, float inv_scale, int8_t *q);

/** y[i] = q[i] * scale (exact int->float widen, one rounding). */
void dequantize_i8(size_t n, const int8_t *q, float scale, float *y);

/** h[i] = IEEE binary16 of x[i], round-to-nearest-even (subnormals,
 *  overflow-to-inf and NaN-quieting included). */
void fp16_encode(size_t n, const float *x, uint16_t *h);

/** y[i] = exact f32 widening of the binary16 h[i]. */
void fp16_decode(size_t n, const uint16_t *h, float *y);

/**
 * Indices of the k largest-magnitude elements of x, written to idx in
 * ascending index order. Ties break toward the lower index, so the
 * selection is a pure function of the input — arch-independent by
 * construction (comparison-only, no float rounding). Requires k <= n.
 */
void topk_select(size_t n, const float *x, size_t k, int32_t *idx);

// --------------------------------- f64 accumulation (FL aggregation)

/** acc[i] += alpha * x[i] into double accumulators. */
void axpy_f64(size_t n, double alpha, const float *x, double *acc);

/** acc[i] += alpha * (w[i] - u[i]) into double accumulators. */
void diff_axpy_f64(size_t n, double alpha, const float *w, const float *u,
                   double *acc);

/** out[i] = (float)acc[i]. */
void cast_f64_to_f32(size_t n, const double *acc, float *out);

/** w[i] = (float)(w[i] - tau * dir[i]). */
void apply_step_f64(size_t n, float *w, double tau, const double *dir);

// --------------------------------------------- LSTM fused gate math
// Fused across the four gates; z is the pre-activation
// {batch, 4*hidden} block laid out [i | f | g | o] and is activated in
// place. Arch-dispatched (transcendental parity tier): the scalar
// entries keep exact libm sigmoid/tanh and are the baseline; SIMD
// variants vectorize the transcendentals with a polynomial exp and
// agree within ~1e-6 relative — inside the 1e-4 tolerance class that
// training numerics already sit in through the GEMM tier. Per-variant
// bitwise determinism (the Sync == SemiAsync(S=0) contract) holds as
// for every kernel.

/**
 * Forward cell update: activate z in place, write the new cell state
 * into c and the hidden state into h (both {batch, hidden}).
 */
void lstm_gate_forward(int batch, int hidden, float *z, const float *cprev,
                       float *c, float *h);

/**
 * Backward cell update from the post-activation gates: fills dz
 * {batch, 4*hidden} and dc_prev {batch, hidden} from dh and dc.
 */
void lstm_gate_backward(int batch, int hidden, const float *z,
                        const float *cprev, const float *c, const float *dh,
                        const float *dc, float *dz, float *dc_prev);

/**
 * Inference-only variant of lstm_gate_forward (no backward follows, so
 * the activated z block is scratch).
 */
void lstm_gate_infer(int batch, int hidden, float *z, const float *cprev,
                     float *c, float *h);

// --------------------------------------------------- im2col / col2im
// Column buffer layout: col {channels * k * k, oh * ow}, row index
// (c * k + ky) * k + kx — the ascending (c, ky, kx) order the seed's
// direct convolution reduced in, so scalar conv-by-GEMM reproduces the
// seed's direct-loop bits. Out-of-range taps are written as zeros.
// Rows sit @p ld floats apart: ld = oh * ow is one sample's dense
// buffer; ld = batch * oh * ow with col offset by n * oh * ow places
// sample n's columns inside a batch-wide {patch, batch * oh * ow}
// matrix, so a whole batch convolves with one GEMM and no gather copy.

/** Spatial output size for one dimension. */
inline int
conv_out_size(int in, int k, int stride, int pad)
{
    return (in + 2 * pad - k) / stride + 1;
}

/** Unfold x {channels, ih, iw} into col, rows @p ld apart (see above). */
void im2col(const float *x, int channels, int ih, int iw, int k, int stride,
            int pad, float *col, size_t ld);

/** Fold col (rows @p ld apart) back, accumulating overlapping taps into x. */
void col2im_add(const float *col, int channels, int ih, int iw, int k,
                int stride, int pad, float *x, size_t ld);

// ------------------------------------- direct grouped convolution
// Grouped layers (groups > 1, e.g. depthwise) convolve directly rather
// than through im2col + GEMM: each input plane is copied once into a
// zero-padded scratch plane, and at stride 1 an output plane's rows run
// as one contiguous span at the padded pitch (the elements past each
// row are computed and dropped); a larger stride steps through each
// row. Every y element gets the sequence the scalar im2col + GEMM path
// gives it: the bias, then one mul and one add per tap in ascending
// (ic, ky, kx) order, skipping zero weights as scalar_gemm skips zero
// multipliers; dx keeps col2im's order, and dW and db are scalar sums
// in ascending spatial order. Every output is therefore bit-identical
// on every arch, and y and dx carry the scalar im2col + GEMM path's
// bits.

/** Shape of a grouped convolution over an {batch, in_ch, ih, iw} input. */
struct ConvGeometry
{
    int batch, in_ch, out_ch, groups, ih, iw, k, stride, pad;

    int oh() const { return conv_out_size(ih, k, stride, pad); }
    int ow() const { return conv_out_size(iw, k, stride, pad); }
};

/**
 * Working buffers of conv_direct() and conv_direct_backward(). A layer
 * keeps one, so its repeated calls allocate nothing; the contents carry
 * nothing from one call to the next.
 */
struct ConvScratch
{
    std::vector<float> wt, planes, grad;
    std::vector<int> off, terms;
};

/**
 * y {batch, out_ch, oh, ow} = bias + W x for W {out_ch, in_ch / groups,
 * k, k}.
 */
void conv_direct(const ConvGeometry &g, const float *x, const float *w,
                 const float *bias, float *y, ConvScratch &scratch);

/**
 * conv_direct()'s backward for the upstream gradient @p dy: dw += dW
 * (sample by sample), db += the per-channel sums of dy, and, unless
 * @p dx is null (a model's first layer), dx = the input gradient
 * (overwritten).
 */
void conv_direct_backward(const ConvGeometry &g, const float *x,
                          const float *w, const float *dy, float *dw,
                          float *db, float *dx, ConvScratch &scratch);

} // namespace autofl::kernels

#endif // AUTOFL_KERNELS_KERNELS_H
