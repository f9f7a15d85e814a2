#include "lstm.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "kernels/kernels.h"

namespace autofl {

Lstm::Lstm(int in, int hidden, bool return_sequences)
    : in_(in), hidden_(hidden), return_sequences_(return_sequences),
      wx_({in, 4 * hidden}), wh_({hidden, 4 * hidden}), b_({4 * hidden}),
      dwx_({in, 4 * hidden}), dwh_({hidden, 4 * hidden}), db_({4 * hidden})
{
}

void
Lstm::init_weights(Rng &rng)
{
    const float lim_x = std::sqrt(6.0f / static_cast<float>(in_ + 4 * hidden_));
    for (size_t i = 0; i < wx_.size(); ++i)
        wx_[i] = static_cast<float>(rng.uniform(-lim_x, lim_x));
    const float lim_h =
        std::sqrt(6.0f / static_cast<float>(hidden_ + 4 * hidden_));
    for (size_t i = 0; i < wh_.size(); ++i)
        wh_[i] = static_cast<float>(rng.uniform(-lim_h, lim_h));
    b_.fill(0.0f);
    // Forget-gate bias of 1 is the standard trick for gradient flow.
    for (int j = hidden_; j < 2 * hidden_; ++j)
        b_[static_cast<size_t>(j)] = 1.0f;
}

Tensor
Lstm::forward(Tensor x)
{
    x_ = std::move(x);
    return run(x_, train_, /*training=*/true);
}

Tensor
Lstm::infer(Tensor x)
{
    return run(x, scratch_, /*training=*/false);
}

Tensor
Lstm::run(const Tensor &x, Sequence &s, bool training)
{
    assert(x.rank() == 3 && x.dim(2) == in_);
    const int time = x.dim(0), batch = x.dim(1);
    const int rows = time * batch;
    const int h4 = 4 * hidden_;
    const size_t zb = static_cast<size_t>(batch) * h4;
    const size_t hb = static_cast<size_t>(batch) * hidden_;
    s.z.resize(static_cast<size_t>(rows) * h4);
    s.c.resize(static_cast<size_t>(rows) * hidden_ + hb);
    s.h.resize(static_cast<size_t>(rows) * hidden_);
    std::fill(s.c.begin(), s.c.begin() + hb, 0.0f);

    // The input projection of every timestep in one GEMM.
    kernels::gemm(rows, h4, in_, x.data(), in_, wx_.data(), h4, s.z.data(),
                  h4);
    kernels::add_bias_rows(rows, h4, b_.data(), s.z.data());

    // The recurrence: z_t += h_{t-1} Wh, then the fused gate kernel
    // activates z_t in place and writes c_t and h_t.
    const auto gate =
        training ? &kernels::lstm_gate_forward : &kernels::lstm_gate_infer;
    // Wh is prepared once for every step: packed when the step GEMM
    // takes the packed path, borrowed otherwise (same kernel, same bits).
    const kernels::PackedGemm whp =
        kernels::pack_gemm_b(batch, hidden_, h4, wh_.data(), h4);
    for (int t = 0; t < time; ++t) {
        float *zt = s.z.data() + t * zb;
        float *ht = s.h.data() + t * hb;
        if (t > 0)
            kernels::gemm_packed_b(batch, ht - hb, hidden_, whp, zt, h4,
                                   /*accumulate=*/true);
        gate(batch, hidden_, zt, s.c.data() + t * hb,
             s.c.data() + (t + 1) * hb, ht);
    }

    const auto first = return_sequences_ ? s.h.begin() : s.h.end() - hb;
    return Tensor(return_sequences_ ? std::vector<int>{time, batch, hidden_}
                                    : std::vector<int>{batch, hidden_},
                  AlignedFloatVec(first, s.h.end()));
}

Tensor
Lstm::backward(const Tensor &grad_out)
{
    Tensor dx(x_.shape());
    bptt(grad_out, dx.data());
    return dx;
}

void
Lstm::backward_params(const Tensor &grad_out)
{
    bptt(grad_out, nullptr);
}

void
Lstm::bptt(const Tensor &grad_out, float *dx)
{
    assert(x_.rank() == 3);
    const int time = x_.dim(0), batch = x_.dim(1);
    const int rows = time * batch;
    const int h4 = 4 * hidden_;
    const size_t zb = static_cast<size_t>(batch) * h4;
    const size_t hb = static_cast<size_t>(batch) * hidden_;
    const Sequence &s = train_;
    dz_.resize(static_cast<size_t>(rows) * h4);
    dh_.assign(hb, 0.0f);
    dc_.assign(hb, 0.0f);
    dc_prev_.resize(hb);

    if (!return_sequences_) {
        assert(grad_out.rank() == 2 && grad_out.dim(1) == hidden_);
        std::copy(grad_out.vec().begin(), grad_out.vec().end(), dh_.begin());
    }

    // Only the recurrence runs per step: the gate backward, then
    // dh_{t-1} = dz_t Wh^T (not needed past t = 0), on Wh^T prepared
    // once like forward's Wh.
    const kernels::PackedGemm whpt = kernels::pack_gemm_b(
        batch, h4, hidden_, wh_.data(), h4, /*b_transposed=*/true);
    for (int t = time - 1; t >= 0; --t) {
        if (return_sequences_)
            kernels::vadd(hb, grad_out.data() + t * hb, dh_.data());
        float *dzt = dz_.data() + t * zb;
        kernels::lstm_gate_backward(batch, hidden_, s.z.data() + t * zb,
                                    s.c.data() + t * hb,
                                    s.c.data() + (t + 1) * hb, dh_.data(),
                                    dc_.data(), dzt, dc_prev_.data());
        if (t > 0)
            kernels::gemm_packed_b(batch, dzt, h4, whpt, dh_.data(), hidden_);
        std::swap(dc_, dc_prev_);
    }

    // Every gradient GEMM reduces over the whole (time, batch) sequence
    // at once. h_{t-1} pairs with dz_t, so dWh takes rows 1.. of DZ.
    kernels::gemm_tn(in_, h4, rows, x_.data(), in_, dz_.data(), h4,
                     dwx_.data(), h4, /*accumulate=*/true);
    if (time > 1)
        kernels::gemm_tn(hidden_, h4, rows - batch, s.h.data(), hidden_,
                         dz_.data() + zb, h4, dwh_.data(), h4,
                         /*accumulate=*/true);
    kernels::accumulate_rows(rows, h4, dz_.data(), db_.data());
    if (dx != nullptr)
        kernels::gemm_nt(rows, in_, h4, dz_.data(), h4, wx_.data(), h4, dx,
                         in_);
}

std::vector<int>
Lstm::output_shape(const std::vector<int> &in) const
{
    assert(in.size() == 3 && in[2] == in_);
    if (return_sequences_)
        return {in[0], in[1], hidden_};
    return {in[1], hidden_};
}

double
Lstm::flops_per_sample(const std::vector<int> &in) const
{
    // Per timestep: two GEMVs into the 4H gate block plus pointwise work.
    const double per_step = 2.0 * (in_ + hidden_) * 4.0 * hidden_ +
        10.0 * hidden_;
    return per_step * in[0];
}

std::string
Lstm::name() const
{
    std::ostringstream os;
    os << "Lstm(" << in_ << "->" << hidden_
       << (return_sequences_ ? ", seq" : "") << ")";
    return os.str();
}

} // namespace autofl
