#include "layers_basic.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "kernels/kernels.h"

namespace autofl {

Tensor
ReLU::forward(Tensor x)
{
    mask_.resize(x.size());
    kernels::relu_forward(x.size(), x.data(), mask_.data());
    return x;
}

Tensor
ReLU::infer(Tensor x)
{
    // max(x, 0) is exact, so skipping the mask changes no bits.
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = x[i] > 0.0f ? x[i] : 0.0f;
    return x;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    assert(grad_out.size() == mask_.size());
    Tensor dx = grad_out;
    kernels::relu_backward(dx.size(), mask_.data(), dx.data());
    return dx;
}

std::vector<int>
ReLU::output_shape(const std::vector<int> &in) const
{
    return in;
}

double
ReLU::flops_per_sample(const std::vector<int> &in) const
{
    double n = 1.0;
    for (size_t i = 1; i < in.size(); ++i)
        n *= in[i];
    return n;
}

MaxPool2D::MaxPool2D(int k, int stride)
    : k_(k), stride_(stride > 0 ? stride : k)
{
}

namespace {

/**
 * Window max over @p planes {ih, iw} planes into y (and the winners'
 * flat indices into @p argmax when non-null). Each window scans (ky, kx)
 * in row-major order and keeps the first strict maximum; the winner
 * starts at the window's own first element, so a window of only -inf
 * or NaN still routes its gradient inside itself. @p K > 0 fixes the
 * window and stride to K at compile time (the unrolled 2x2 path).
 */
template <int K>
void
pool_planes(const float *x, size_t planes, int ih, int iw, int k, int stride,
            int oh, int ow, float *y, size_t *argmax)
{
    const int kk = K > 0 ? K : k;
    const int ss = K > 0 ? K : stride;
    size_t o = 0;
    for (size_t p = 0; p < planes; ++p) {
        const size_t plane = p * ih * iw;
        for (int oy = 0; oy < oh; ++oy) {
            const size_t row = plane + static_cast<size_t>(oy) * ss * iw;
            for (int ox = 0; ox < ow; ++ox, ++o) {
                const size_t first = row + static_cast<size_t>(ox) * ss;
                float best = -std::numeric_limits<float>::infinity();
                int off = 0;  // Winner's offset from the window's first.
                for (int ky = 0; ky < kk; ++ky) {
                    for (int kx = 0; kx < kk; ++kx) {
                        // Selects, not a branch: which tap wins
                        // depends on the data, so a branch would
                        // mispredict often.
                        const float v = x[first + ky * iw + kx];
                        const bool gt = v > best;
                        best = gt ? v : best;
                        off = gt ? ky * iw + kx : off;
                    }
                }
                y[o] = best;
                if (argmax != nullptr)
                    argmax[o] = first + off;
            }
        }
    }
}

} // namespace

Tensor
MaxPool2D::pool(const Tensor &x, size_t *argmax) const
{
    assert(x.rank() == 4);
    const int ih = x.dim(2), iw = x.dim(3);
    const int oh = out_size(ih), ow = out_size(iw);
    const size_t planes = static_cast<size_t>(x.dim(0)) * x.dim(1);
    Tensor y({x.dim(0), x.dim(1), oh, ow});
    if (k_ == 2 && stride_ == 2)
        pool_planes<2>(x.data(), planes, ih, iw, k_, stride_, oh, ow,
                       y.data(), argmax);
    else
        pool_planes<0>(x.data(), planes, ih, iw, k_, stride_, oh, ow,
                       y.data(), argmax);
    return y;
}

Tensor
MaxPool2D::forward(Tensor x)
{
    in_shape_ = x.shape();
    argmax_.resize(Tensor::shape_size(output_shape(in_shape_)));
    return pool(x, argmax_.data());
}

Tensor
MaxPool2D::infer(Tensor x)
{
    return pool(x, nullptr);
}

Tensor
MaxPool2D::backward(const Tensor &grad_out)
{
    Tensor dx(in_shape_);
    assert(grad_out.size() == argmax_.size());
    for (size_t i = 0; i < grad_out.size(); ++i)
        dx[argmax_[i]] += grad_out[i];
    return dx;
}

std::vector<int>
MaxPool2D::output_shape(const std::vector<int> &in) const
{
    assert(in.size() == 4);
    return {in[0], in[1], out_size(in[2]), out_size(in[3])};
}

double
MaxPool2D::flops_per_sample(const std::vector<int> &in) const
{
    const int oh = out_size(in[2]), ow = out_size(in[3]);
    return static_cast<double>(in[1]) * oh * ow * k_ * k_;
}

std::string
MaxPool2D::name() const
{
    std::ostringstream os;
    os << "MaxPool2D(k=" << k_ << ", s=" << stride_ << ")";
    return os.str();
}

Tensor
GlobalAvgPool::forward(Tensor x)
{
    assert(x.rank() == 4);
    in_shape_ = x.shape();
    const int area = x.dim(2) * x.dim(3);
    const float inv = 1.0f / static_cast<float>(area);
    Tensor y({x.dim(0), x.dim(1)});
    // One contiguous plane per (sample, channel), summed in ascending
    // (row, column) order.
    const float *plane = x.data();
    for (size_t i = 0; i < y.size(); ++i, plane += area) {
        float acc = 0.0f;
        for (int j = 0; j < area; ++j)
            acc += plane[j];
        y[i] = acc * inv;
    }
    return y;
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_out)
{
    Tensor dx(in_shape_);
    const int area = in_shape_[2] * in_shape_[3];
    const float inv = 1.0f / static_cast<float>(area);
    float *plane = dx.data();
    for (size_t i = 0; i < grad_out.size(); ++i, plane += area)
        std::fill(plane, plane + area, grad_out[i] * inv);
    return dx;
}

std::vector<int>
GlobalAvgPool::output_shape(const std::vector<int> &in) const
{
    assert(in.size() == 4);
    return {in[0], in[1]};
}

double
GlobalAvgPool::flops_per_sample(const std::vector<int> &in) const
{
    return static_cast<double>(in[1]) * in[2] * in[3];
}

Tensor
Flatten::forward(Tensor x)
{
    in_shape_ = x.shape();
    int feat = 1;
    for (int d = 1; d < x.rank(); ++d)
        feat *= x.dim(d);
    const int batch = x.dim(0);
    return std::move(x).reshaped({batch, feat});
}

Tensor
Flatten::backward(const Tensor &grad_out)
{
    return grad_out.reshaped(in_shape_);
}

std::vector<int>
Flatten::output_shape(const std::vector<int> &in) const
{
    int feat = 1;
    for (size_t d = 1; d < in.size(); ++d)
        feat *= in[d];
    return {in[0], feat};
}

double
Flatten::flops_per_sample(const std::vector<int> &in) const
{
    (void)in;
    return 0.0;
}

} // namespace autofl
