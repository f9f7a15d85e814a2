/**
 * @file
 * Numerical gradient checks: every layer's analytic backward pass is
 * validated against central finite differences, across a sweep of
 * shapes and configurations.
 */
#include "test_util.h"

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/layers_basic.h"
#include "nn/lstm.h"
#include "nn/models.h"

namespace autofl {
namespace {

using testing::check_layer_gradients;
using testing::randomize;

struct DenseCase
{
    int batch, in, out;
};

class DenseGradTest : public ::testing::TestWithParam<DenseCase>
{
};

TEST_P(DenseGradTest, MatchesFiniteDifferences)
{
    const auto c = GetParam();
    Dense layer(c.in, c.out);
    Rng rng(7);
    layer.init_weights(rng);
    check_layer_gradients(layer, {c.batch, c.in});
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseGradTest,
                         ::testing::Values(DenseCase{1, 3, 2},
                                           DenseCase{4, 8, 5},
                                           DenseCase{2, 16, 10},
                                           DenseCase{7, 5, 1},
                                           DenseCase{3, 1, 6}));

struct ConvCase
{
    int batch, in_ch, out_ch, side, kernel, stride, pad, groups;
};

class ConvGradTest : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvGradTest, MatchesFiniteDifferences)
{
    const auto c = GetParam();
    Conv2D layer(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, c.groups);
    Rng rng(11);
    layer.init_weights(rng);
    check_layer_gradients(layer, {c.batch, c.in_ch, c.side, c.side});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradTest,
    ::testing::Values(ConvCase{1, 1, 2, 5, 3, 1, 0, 1},
                      ConvCase{2, 3, 4, 6, 3, 1, 1, 1},
                      ConvCase{1, 2, 2, 6, 3, 2, 1, 1},
                      ConvCase{2, 4, 4, 5, 3, 1, 1, 4},   // depthwise
                      ConvCase{1, 4, 8, 4, 1, 1, 0, 1},   // pointwise
                      ConvCase{2, 6, 6, 5, 3, 1, 1, 2},   // grouped
                      ConvCase{1, 1, 1, 7, 5, 2, 2, 1},
                      ConvCase{3, 2, 3, 7, 3, 2, 1, 1})); // wide, strided

struct PoolCase
{
    int batch, ch, side, k, stride;
};

class PoolGradTest : public ::testing::TestWithParam<PoolCase>
{
};

TEST_P(PoolGradTest, MaxPoolMatchesFiniteDifferences)
{
    const auto c = GetParam();
    MaxPool2D layer(c.k, c.stride);
    check_layer_gradients(layer, {c.batch, c.ch, c.side, c.side});
}

INSTANTIATE_TEST_SUITE_P(Shapes, PoolGradTest,
                         ::testing::Values(PoolCase{1, 1, 4, 2, 2},
                                           PoolCase{2, 3, 6, 2, 2},
                                           PoolCase{1, 2, 6, 3, 3},
                                           PoolCase{2, 2, 5, 2, 1}));

TEST(GradCheck, ReLU)
{
    ReLU layer;
    check_layer_gradients(layer, {3, 7});
}

TEST(GradCheck, GlobalAvgPool)
{
    GlobalAvgPool layer;
    check_layer_gradients(layer, {2, 3, 4, 4});
}

TEST(GradCheck, Flatten)
{
    Flatten layer;
    check_layer_gradients(layer, {2, 3, 4, 4});
}

struct LstmCase
{
    int time, batch, in, hidden;
    bool seq;
};

class LstmGradTest : public ::testing::TestWithParam<LstmCase>
{
};

TEST_P(LstmGradTest, MatchesFiniteDifferences)
{
    const auto c = GetParam();
    Lstm layer(c.in, c.hidden, c.seq);
    Rng rng(13);
    layer.init_weights(rng);
    check_layer_gradients(layer, {c.time, c.batch, c.in});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LstmGradTest,
    ::testing::Values(LstmCase{1, 1, 3, 2, false},
                      LstmCase{3, 2, 4, 5, false},
                      LstmCase{5, 1, 2, 3, false},
                      LstmCase{2, 3, 3, 4, true},
                      LstmCase{4, 2, 5, 3, true}));

/** Whole-model gradient check through the cross-entropy loss. */
class ModelGradTest : public ::testing::TestWithParam<Workload>
{
};

TEST_P(ModelGradTest, LossGradientMatchesFiniteDifferences)
{
    const Workload w = GetParam();
    Sequential model = make_model(w);
    Rng rng(17);
    model.init_weights(rng);

    const int batch = 2;
    Tensor x(model_batch_shape(w, batch));
    randomize(x, rng);
    std::vector<int> labels = {0, model_num_classes(w) - 1};

    SoftmaxCrossEntropy loss;
    model.zero_grad();
    loss.forward(model.forward(x), labels);
    model.backward(loss.backward());

    // Finite-difference a handful of parameters in every layer.
    auto params = model.params();
    auto grads = model.grads();
    const float eps = 1e-2f;
    for (size_t p = 0; p < params.size(); ++p) {
        Tensor &wt = *params[p];
        const Tensor &g = *grads[p];
        const size_t stride = std::max<size_t>(1, wt.size() / 5);
        for (size_t i = 0; i < wt.size(); i += stride) {
            const float saved = wt[i];
            const double center = loss.forward(model.forward(x), labels);
            wt[i] = saved + eps;
            const double up = loss.forward(model.forward(x), labels);
            wt[i] = saved - eps;
            const double down = loss.forward(model.forward(x), labels);
            wt[i] = saved;
            const double numeric = (up - down) / (2.0 * eps);
            // Detect ReLU/maxpool kinks inside the probe interval: when
            // one-sided slopes disagree, the loss is not smooth here and
            // the central difference is meaningless — skip the point.
            const double fwd = (up - center) / eps;
            const double bwd = (center - down) / eps;
            if (std::abs(fwd - bwd) >
                0.1 * std::max({std::abs(fwd), std::abs(bwd), 0.05}))
                continue;
            const double analytic = g[i];
            // Float32 activations through pool/ReLU kinks limit
            // finite-difference agreement at the model level; tiny
            // absolute disagreements are noise, not backprop bugs. The
            // tight checks are the per-layer ones above.
            if (std::abs(analytic - numeric) < 0.02)
                continue;
            const double denom = std::max(
                {0.05, std::abs(numeric), std::abs(analytic)});
            EXPECT_NEAR(analytic / denom, numeric / denom, 0.15)
                << "param " << p << " index " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ModelGradTest,
                         ::testing::ValuesIn(all_workloads()),
                         [](const auto &info) {
                             switch (info.param) {
                               case Workload::CnnMnist:
                                 return "CnnMnist";
                               case Workload::LstmShakespeare:
                                 return "LstmShakespeare";
                               default:
                                 return "MobileNetImageNet";
                             }
                         });

} // namespace
} // namespace autofl
