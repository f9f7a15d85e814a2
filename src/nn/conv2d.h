/**
 * @file
 * 2-D convolution with stride, zero padding and channel groups, through
 * the kernel-dispatch backend.
 *
 * Groups support both regular convolution (groups = 1) and the depthwise
 * convolutions used by the MobileNet-style model (groups = in_channels).
 * Each layer takes one of three paths, the same one in forward(),
 * infer() and backward():
 *
 *  - Wide: ungrouped, non-pointwise layers at batch > 1 (the unrolled-
 *    convolution lowering of Chellapilla et al., 2006). Every sample
 *    unfolds once, straight into one {patch, batch * ospatial} column
 *    matrix, and each pass is one GEMM over the whole batch — forward
 *    W x col on top of the bias pre-fill; backward dW += dy x col^T
 *    (col cached by forward, not re-unfolded) and dcol = W^T x dy,
 *    folded back per sample by a row-strided col2im. Each output and
 *    dx element keeps the per-sample path's ascending-k reduction, so
 *    on the scalar arch y, dx and db are bit-identical to feeding the
 *    samples one at a time; dW sums over (sample, spatial) in one
 *    reduction instead of sample by sample.
 *  - Per-sample GEMM: the other ungrouped layers — batch 1, and
 *    pointwise (1x1/s1/p0) layers, which skip the unfold and multiply
 *    the input directly with W packed once per batch. Their backward
 *    recomputes the column buffer (cheaper than caching the k^2x
 *    blow-up) for dW and folds the W^T dy product back with col2im.
 *  - Direct grouped: every grouped layer (groups > 1) runs
 *    kernels::conv_direct() on zero-padded input planes, with no
 *    unfold and no GEMM. Each y element gets the bias and then its
 *    taps in ascending (ic, ky, kx) order, each dx element its taps in
 *    col2im's order — the sequences the scalar im2col + GEMM path made
 *    — so y and dx carry the scalar bits on every arch; dW and db
 *    accumulate sample by sample, bit-identical on every arch too.
 *
 * As a model's first layer (backward_params()) every path skips the
 * input gradient, with the same dW and db bits.
 */
#ifndef AUTOFL_NN_CONV2D_H
#define AUTOFL_NN_CONV2D_H

#include "kernels/kernels.h"
#include "nn/layer.h"

namespace autofl {

/** Grouped 2-D convolution over {batch, channels, h, w} tensors. */
class Conv2D : public Layer
{
  public:
    /**
     * @param in_ch Input channels.
     * @param out_ch Output channels (must be divisible by @p groups).
     * @param kernel Square kernel size.
     * @param stride Stride in both dimensions.
     * @param pad Zero padding in both dimensions.
     * @param groups Channel groups; in_ch and out_ch must divide evenly.
     */
    Conv2D(int in_ch, int out_ch, int kernel, int stride = 1, int pad = 0,
           int groups = 1);

    Tensor forward(Tensor x) override;
    Tensor infer(Tensor x) override;
    Tensor backward(const Tensor &grad_out) override;
    void backward_params(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&w_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dw_, &db_}; }
    void init_weights(Rng &rng) override;
    std::vector<int> output_shape(const std::vector<int> &in) const override;
    double flops_per_sample(const std::vector<int> &in) const override;
    LayerKind kind() const override { return LayerKind::Conv; }
    std::string name() const override;

  private:
    int in_ch_, out_ch_, k_, stride_, pad_, groups_;
    Tensor w_;  ///< {out_ch, in_ch/groups, k, k}
    Tensor b_;  ///< {out_ch}
    Tensor dw_;
    Tensor db_;
    Tensor x_cache_;  ///< Moved-in input (backward re-reads it).
    AlignedFloatVec col_;   ///< Per-sample or infer() unfold scratch.
    AlignedFloatVec colw_;  ///< forward()'s wide columns, for backward().
    AlignedFloatVec dcol_;  ///< Backward column-gradient scratch.
    AlignedFloatVec outw_;  ///< Wide {out_ch, batch * ospatial} y or dy.
    AlignedFloatVec dwt_;   ///< Wide backward's dW^T {patch, out_ch}.
    kernels::ConvScratch direct_;  ///< Grouped layers' working buffers.

    /** The direct grouped convolution's geometry for input @p x. */
    kernels::ConvGeometry geometry(const Tensor &x) const;

    /** Direct grouped convolution (groups > 1). */
    Tensor convolve_direct(const Tensor &xin);

    /** Per-sample im2col + GEMM body (ungrouped layers). */
    Tensor convolve(const Tensor &xin);

    /**
     * The batch-wide convolution of forward() and infer(): unfolds the
     * whole batch into @p col and runs one GEMM. forward() passes the
     * columns backward() reuses; infer() passes separate scratch.
     */
    Tensor convolve_wide(const Tensor &xin, AlignedFloatVec &col);

    /**
     * Accumulates dW and db; fills @p dx unless it is null, in which
     * case the input gradient is skipped.
     */
    void backprop(const Tensor &grad_out, Tensor *dx);

    /** Batch-wide backprop() on forward()'s cached columns. */
    void backward_wide(const Tensor &grad_out, Tensor *dx);

    /** Whether an ungrouped input of this shape takes the wide path. */
    bool wide(const Tensor &x) const
    {
        return x.dim(0) > 1 && !pointwise();
    }

    /** Whether im2col is the identity (pointwise convolution). */
    bool pointwise() const
    {
        return k_ == 1 && stride_ == 1 && pad_ == 0;
    }

    /**
     * Output spatial size for input spatial size @p s. Delegates to the
     * kernel layer's formula so the layer and im2col/col2im can never
     * disagree about the column-buffer geometry.
     */
    int out_size(int s) const
    {
        return kernels::conv_out_size(s, k_, stride_, pad_);
    }
};

} // namespace autofl

#endif // AUTOFL_NN_CONV2D_H
