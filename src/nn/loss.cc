#include "loss.h"

#include <cassert>
#include <cmath>

namespace autofl {

double
SoftmaxCrossEntropy::forward(const Tensor &logits,
                             const std::vector<int> &labels)
{
    assert(logits.rank() == 2);
    const int batch = logits.dim(0), classes = logits.dim(1);
    assert(static_cast<int>(labels.size()) == batch);
    probs_ = Tensor({batch, classes});
    labels_ = labels;
    correct_ = 0;
    exps_.resize(static_cast<size_t>(classes));
    double loss = 0.0;
    for (int n = 0; n < batch; ++n) {
        float mx = logits.at2(n, 0);
        int arg = 0;
        for (int c = 1; c < classes; ++c) {
            if (logits.at2(n, c) > mx) {
                mx = logits.at2(n, c);
                arg = c;
            }
        }
        if (arg == labels[static_cast<size_t>(n)])
            ++correct_;
        double denom = 0.0;
        for (int c = 0; c < classes; ++c) {
            exps_[static_cast<size_t>(c)] =
                std::exp(static_cast<double>(logits.at2(n, c) - mx));
            denom += exps_[static_cast<size_t>(c)];
        }
        const double log_denom = std::log(denom);
        for (int c = 0; c < classes; ++c)
            probs_.at2(n, c) =
                static_cast<float>(exps_[static_cast<size_t>(c)] / denom);
        const int y = labels[static_cast<size_t>(n)];
        loss -= static_cast<double>(logits.at2(n, y) - mx) - log_denom;
    }
    return loss / batch;
}

Tensor
SoftmaxCrossEntropy::backward() const
{
    const int batch = probs_.dim(0), classes = probs_.dim(1);
    Tensor dlogits = probs_;
    const float inv = 1.0f / static_cast<float>(batch);
    for (int n = 0; n < batch; ++n) {
        dlogits.at2(n, labels_[static_cast<size_t>(n)]) -= 1.0f;
        for (int c = 0; c < classes; ++c)
            dlogits.at2(n, c) *= inv;
    }
    return dlogits;
}

std::vector<int>
argmax_rows(const Tensor &logits)
{
    assert(logits.rank() == 2);
    const int batch = logits.dim(0), classes = logits.dim(1);
    std::vector<int> out(static_cast<size_t>(batch));
    for (int n = 0; n < batch; ++n) {
        int arg = 0;
        float best = logits.at2(n, 0);
        for (int c = 1; c < classes; ++c) {
            if (logits.at2(n, c) > best) {
                best = logits.at2(n, c);
                arg = c;
            }
        }
        out[static_cast<size_t>(n)] = arg;
    }
    return out;
}

} // namespace autofl
