#include "conv2d.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "kernels/kernels.h"

namespace autofl {

Conv2D::Conv2D(int in_ch, int out_ch, int kernel, int stride, int pad,
               int groups)
    : in_ch_(in_ch), out_ch_(out_ch), k_(kernel), stride_(stride), pad_(pad),
      groups_(groups),
      w_({out_ch, in_ch / groups, kernel, kernel}),
      b_({out_ch}),
      dw_({out_ch, in_ch / groups, kernel, kernel}),
      db_({out_ch})
{
    assert(in_ch_ % groups_ == 0 && out_ch_ % groups_ == 0);
}

void
Conv2D::init_weights(Rng &rng)
{
    // He-normal: suits the ReLU activations that follow every conv.
    const int fan_in = (in_ch_ / groups_) * k_ * k_;
    const float std = std::sqrt(2.0f / static_cast<float>(fan_in));
    for (size_t i = 0; i < w_.size(); ++i)
        w_[i] = static_cast<float>(rng.normal(0.0, std));
    b_.fill(0.0f);
}

Tensor
Conv2D::forward(Tensor x)
{
    assert(x.rank() == 4 && x.dim(1) == in_ch_);
    x_cache_ = std::move(x);
    if (groups_ > 1)
        return convolve_direct(x_cache_);
    return wide(x_cache_) ? convolve_wide(x_cache_, colw_)
                          : convolve(x_cache_);
}

Tensor
Conv2D::infer(Tensor x)
{
    assert(x.rank() == 4 && x.dim(1) == in_ch_);
    if (groups_ > 1)
        return convolve_direct(x);
    // Separate column scratch: an infer() between forward() and
    // backward() must not overwrite the columns backward() reuses.
    return wide(x) ? convolve_wide(x, col_) : convolve(x);
}

kernels::ConvGeometry
Conv2D::geometry(const Tensor &x) const
{
    return {x.dim(0), in_ch_, out_ch_, groups_, x.dim(2), x.dim(3),
            k_,       stride_, pad_};
}

Tensor
Conv2D::convolve_direct(const Tensor &xin)
{
    const kernels::ConvGeometry g = geometry(xin);
    Tensor y({g.batch, out_ch_, g.oh(), g.ow()});
    kernels::conv_direct(g, xin.data(), w_.data(), b_.data(), y.data(),
                         direct_);
    return y;
}

Tensor
Conv2D::convolve_wide(const Tensor &xin, AlignedFloatVec &col)
{
    const int batch = xin.dim(0), ih = xin.dim(2), iw = xin.dim(3);
    const int oh = out_size(ih), ow = out_size(iw);
    const int patch = in_ch_ * k_ * k_;
    const size_t ospatial = static_cast<size_t>(oh) * ow;
    const size_t cols = static_cast<size_t>(batch) * ospatial;
    const size_t in_plane = static_cast<size_t>(in_ch_) * ih * iw;
    Tensor y({batch, out_ch_, oh, ow});

    // Sample n's columns land at column offset n * ospatial of one
    // {patch, batch * ospatial} matrix.
    col.resize(static_cast<size_t>(patch) * cols);
    outw_.resize(static_cast<size_t>(out_ch_) * cols);
    for (int n = 0; n < batch; ++n)
        kernels::im2col(xin.data() + n * in_plane, in_ch_, ih, iw, k_,
                        stride_, pad_, col.data() + n * ospatial, cols);

    // Bias pre-fill, then one GEMM accumulating on top: per output
    // element the same ascending-k dot product as the per-sample path.
    for (int oc = 0; oc < out_ch_; ++oc) {
        float *orow = outw_.data() + oc * cols;
        std::fill(orow, orow + cols, b_[static_cast<size_t>(oc)]);
    }
    kernels::gemm(out_ch_, static_cast<int>(cols), patch, w_.data(), patch,
                  col.data(), static_cast<int>(cols), outw_.data(),
                  static_cast<int>(cols), /*accumulate=*/true);

    // {out_ch, batch, ospatial} -> {batch, out_ch, ospatial}.
    for (int n = 0; n < batch; ++n)
        for (int oc = 0; oc < out_ch_; ++oc) {
            const float *src = outw_.data() + oc * cols + n * ospatial;
            std::copy(src, src + ospatial,
                      y.data() + (static_cast<size_t>(n) * out_ch_ + oc) *
                                     ospatial);
        }
    return y;
}

Tensor
Conv2D::convolve(const Tensor &xin)
{
    const int batch = xin.dim(0), ih = xin.dim(2), iw = xin.dim(3);
    const int oh = out_size(ih), ow = out_size(iw);
    const int patch = in_ch_ * k_ * k_;
    const int ospatial = oh * ow;
    const size_t in_plane = static_cast<size_t>(in_ch_) * ih * iw;
    Tensor y({batch, out_ch_, oh, ow});

    if (!pointwise())
        col_.resize(static_cast<size_t>(patch) * ospatial);

    // One W across the whole batch: pack its panels once and let every
    // per-sample GEMM reuse them.
    const kernels::PackedGemm wp =
        kernels::pack_gemm_a(out_ch_, patch, w_.data(), patch);
    for (int n = 0; n < batch; ++n) {
        const float *col = xin.data() + n * in_plane;
        if (!pointwise()) {
            kernels::im2col(col, in_ch_, ih, iw, k_, stride_, pad_,
                            col_.data(), ospatial);
            col = col_.data();
        }
        // Pre-fill the output rows with the bias, then let the GEMM
        // accumulate on top: same bias-first reduction order as the
        // original direct loops.
        float *yn = y.data() + static_cast<size_t>(n) * out_ch_ * ospatial;
        for (int oc = 0; oc < out_ch_; ++oc)
            std::fill(yn + static_cast<size_t>(oc) * ospatial,
                      yn + static_cast<size_t>(oc + 1) * ospatial,
                      b_[static_cast<size_t>(oc)]);
        kernels::gemm_packed_a(wp, ospatial, col, ospatial, yn, ospatial,
                               /*accumulate=*/true);
    }
    return y;
}

Tensor
Conv2D::backward(const Tensor &grad_out)
{
    Tensor dx(x_cache_.shape());
    backprop(grad_out, &dx);
    return dx;
}

void
Conv2D::backward_params(const Tensor &grad_out)
{
    backprop(grad_out, nullptr);
}

void
Conv2D::backprop(const Tensor &grad_out, Tensor *dx)
{
    const Tensor &x = x_cache_;
    const int batch = x.dim(0), ih = x.dim(2), iw = x.dim(3);
    const int oh = out_size(ih), ow = out_size(iw);
    const int patch = in_ch_ * k_ * k_;
    const int ospatial = oh * ow;
    const size_t in_plane = static_cast<size_t>(in_ch_) * ih * iw;
    assert(grad_out.dim(1) == out_ch_ && grad_out.dim(2) == oh &&
           grad_out.dim(3) == ow);

    if (groups_ > 1) {
        kernels::conv_direct_backward(geometry(x), x.data(), w_.data(),
                                      grad_out.data(), dw_.data(),
                                      db_.data(),
                                      dx != nullptr ? dx->data() : nullptr,
                                      direct_);
        return;
    }
    if (wide(x)) {
        backward_wide(grad_out, dx);
        return;
    }

    if (!pointwise()) {
        col_.resize(static_cast<size_t>(patch) * ospatial);
        dcol_.resize(static_cast<size_t>(patch) * ospatial);
    }

    // The dcol GEMM multiplies W^T against every sample's dy: gather
    // the transposed panels once per backward call. (The dW gemm_nt has
    // no batch-constant operand — both dy and col change per sample.)
    kernels::PackedGemm wpt;
    if (dx != nullptr)
        wpt = kernels::pack_gemm_a(patch, out_ch_, w_.data(), patch,
                                   /*a_transposed=*/true);

    for (int n = 0; n < batch; ++n) {
        const float *dyn = grad_out.data() +
            static_cast<size_t>(n) * out_ch_ * ospatial;
        // db: per-channel sums of the output gradient, accumulated in
        // ascending spatial order like the direct loops.
        for (int oc = 0; oc < out_ch_; ++oc) {
            const float *dyrow = dyn + static_cast<size_t>(oc) * ospatial;
            float &db = db_[static_cast<size_t>(oc)];
            for (int i = 0; i < ospatial; ++i)
                db += dyrow[i];
        }
        const float *xn = x.data() + n * in_plane;
        const float *col = xn;
        if (!pointwise()) {
            kernels::im2col(xn, in_ch_, ih, iw, k_, stride_, pad_,
                            col_.data(), ospatial);
            col = col_.data();
        }
        // dW += dy x col^T.
        kernels::gemm_nt(out_ch_, patch, ospatial, dyn, ospatial, col,
                         ospatial, dw_.data(), patch, /*accumulate=*/true);
        if (dx == nullptr)
            continue;
        // dcol = W^T x dy, folded back into dx.
        float *dxn = dx->data() + n * in_plane;
        float *dcol = pointwise() ? dxn : dcol_.data();
        kernels::gemm_packed_a(wpt, ospatial, dyn, ospatial, dcol,
                               ospatial);
        if (!pointwise())
            kernels::col2im_add(dcol_.data(), in_ch_, ih, iw, k_, stride_,
                                pad_, dxn, ospatial);
    }
}

void
Conv2D::backward_wide(const Tensor &grad_out, Tensor *dx)
{
    const int batch = x_cache_.dim(0), ih = x_cache_.dim(2),
              iw = x_cache_.dim(3);
    const int patch = in_ch_ * k_ * k_;
    const size_t ospatial = static_cast<size_t>(grad_out.dim(2)) *
        grad_out.dim(3);
    const size_t cols = static_cast<size_t>(batch) * ospatial;
    const size_t in_plane = static_cast<size_t>(in_ch_) * ih * iw;

    // Gather dy {batch, out_ch, ospatial} into the {out_ch, batch *
    // ospatial} layout of forward()'s output GEMM.
    outw_.resize(static_cast<size_t>(out_ch_) * cols);
    for (int n = 0; n < batch; ++n)
        for (int oc = 0; oc < out_ch_; ++oc) {
            const float *src = grad_out.data() +
                (static_cast<size_t>(n) * out_ch_ + oc) * ospatial;
            std::copy(src, src + ospatial,
                      outw_.data() + oc * cols + n * ospatial);
        }

    // db: each row in (sample, spatial) order — the same sequence of
    // adds the per-sample path makes.
    for (int oc = 0; oc < out_ch_; ++oc) {
        const float *dyrow = outw_.data() + oc * cols;
        float &db = db_[static_cast<size_t>(oc)];
        for (size_t i = 0; i < cols; ++i)
            db += dyrow[i];
    }

    // dW += dy x col^T over the whole batch, on the columns forward()
    // cached. It is computed as its transpose col x dy^T: the same dot
    // product per element, but the long col operand streams once while
    // the short dy stays in cache.
    const int ld = static_cast<int>(cols);
    dwt_.resize(static_cast<size_t>(patch) * out_ch_);
    kernels::gemm_nt(patch, out_ch_, ld, colw_.data(), ld, outw_.data(), ld,
                     dwt_.data(), out_ch_);
    for (int oc = 0; oc < out_ch_; ++oc) {
        float *dwrow = dw_.data() + static_cast<size_t>(oc) * patch;
        for (int r = 0; r < patch; ++r)
            dwrow[r] += dwt_[static_cast<size_t>(r) * out_ch_ + oc];
    }

    if (dx == nullptr)
        return;
    // dcol = W^T x dy, folded back sample by sample.
    dcol_.resize(static_cast<size_t>(patch) * cols);
    const kernels::PackedGemm wpt = kernels::pack_gemm_a(
        patch, out_ch_, w_.data(), patch, /*a_transposed=*/true);
    kernels::gemm_packed_a(wpt, ld, outw_.data(), ld, dcol_.data(), ld);
    for (int n = 0; n < batch; ++n)
        kernels::col2im_add(dcol_.data() + n * ospatial, in_ch_, ih, iw, k_,
                            stride_, pad_, dx->data() + n * in_plane, cols);
}

std::vector<int>
Conv2D::output_shape(const std::vector<int> &in) const
{
    assert(in.size() == 4 && in[1] == in_ch_);
    return {in[0], out_ch_, out_size(in[2]), out_size(in[3])};
}

double
Conv2D::flops_per_sample(const std::vector<int> &in) const
{
    const int oh = out_size(in[2]), ow = out_size(in[3]);
    const double macs = static_cast<double>(out_ch_) * oh * ow *
        (in_ch_ / groups_) * k_ * k_;
    return 2.0 * macs;
}

std::string
Conv2D::name() const
{
    std::ostringstream os;
    os << "Conv2D(" << in_ch_ << "->" << out_ch_ << ", k=" << k_
       << ", s=" << stride_ << ", p=" << pad_ << ", g=" << groups_ << ")";
    return os.str();
}

} // namespace autofl
