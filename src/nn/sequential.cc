#include "sequential.h"

#include <cassert>

namespace autofl {

Sequential &
Sequential::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
    return *this;
}

void
Sequential::init_weights(Rng &rng)
{
    for (auto &l : layers_)
        l->init_weights(rng);
}

Tensor
Sequential::forward(Tensor x)
{
    for (auto &l : layers_)
        x = l->forward(std::move(x));
    return x;
}

Tensor
Sequential::infer(Tensor x)
{
    for (auto &l : layers_)
        x = l->infer(std::move(x));
    return x;
}

void
Sequential::backward(const Tensor &grad_out)
{
    if (layers_.empty())
        return;
    const Tensor *g = &grad_out;
    Tensor dx;
    for (size_t i = layers_.size() - 1; i > 0; --i) {
        dx = layers_[i]->backward(*g);
        g = &dx;
    }
    layers_[0]->backward_params(*g);
}

void
Sequential::zero_grad()
{
    for (auto &l : layers_)
        l->zero_grad();
}

std::vector<Tensor *>
Sequential::params()
{
    std::vector<Tensor *> out;
    for (auto &l : layers_)
        for (Tensor *p : l->params())
            out.push_back(p);
    return out;
}

std::vector<Tensor *>
Sequential::grads()
{
    std::vector<Tensor *> out;
    for (auto &l : layers_)
        for (Tensor *g : l->grads())
            out.push_back(g);
    return out;
}

size_t
Sequential::num_params() const
{
    size_t n = 0;
    for (const auto &l : layers_)
        for (Tensor *p : const_cast<Layer &>(*l).params())
            n += p->size();
    return n;
}

std::vector<float>
Sequential::flat_weights() const
{
    std::vector<float> out;
    out.reserve(num_params());
    for (const auto &l : layers_) {
        for (Tensor *p : const_cast<Layer &>(*l).params())
            out.insert(out.end(), p->vec().begin(), p->vec().end());
    }
    return out;
}

void
Sequential::set_flat_weights(const std::vector<float> &w)
{
    set_flat_weights(w.data(), w.size());
}

void
Sequential::set_flat_weights(const float *w, size_t n)
{
    size_t off = 0;
    for (auto &l : layers_) {
        for (Tensor *p : l->params()) {
            assert(off + p->size() <= n);
            std::copy(w + off, w + off + p->size(), p->vec().begin());
            off += p->size();
        }
    }
    assert(off == n);
    (void)n;
}

double
Sequential::flops_per_sample(std::vector<int> in_shape) const
{
    double total = 0.0;
    for (const auto &l : layers_) {
        total += l->flops_per_sample(in_shape);
        in_shape = l->output_shape(in_shape);
    }
    return total;
}

NnProfile
Sequential::profile(const std::string &name,
                    const std::vector<int> &in_shape) const
{
    NnProfile p;
    p.name = name;
    // Per-kind memory-boundness weights: RC layers are GEMV-shaped and
    // stream recurrent state every timestep; FC layers touch each weight
    // once per sample; CONV layers reuse their small kernels across the
    // whole spatial extent.
    double weighted = 0.0;
    double total = 0.0;
    std::vector<int> shape = in_shape;
    for (const auto &l : layers_) {
        const double f = l->flops_per_sample(shape);
        shape = l->output_shape(shape);
        total += f;
        switch (l->kind()) {
          case LayerKind::Conv:
            ++p.conv_layers;
            weighted += 0.15 * f;
            break;
          case LayerKind::Fc:
            ++p.fc_layers;
            weighted += 0.45 * f;
            break;
          case LayerKind::Recurrent:
            ++p.rc_layers;
            weighted += 0.75 * f;
            break;
          case LayerKind::Other:
            weighted += 0.35 * f;
            break;
        }
    }
    p.mem_bound_frac = total > 0.0 ? weighted / total : 0.0;
    p.flops_per_sample = flops_per_sample(in_shape);
    p.model_bytes = static_cast<double>(num_params()) * sizeof(float);
    p.arithmetic_intensity =
        p.model_bytes > 0 ? p.flops_per_sample / p.model_bytes : 0.0;
    return p;
}

} // namespace autofl
