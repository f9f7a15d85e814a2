/** @file NN layer semantics, loss, SGD, Sequential and model-zoo tests. */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "kernels/kernels.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/layers_basic.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/models.h"
#include "nn/sgd.h"
#include "test_util.h"

namespace autofl {
namespace {

TEST(Dense, ForwardComputesAffine)
{
    Dense d(2, 2);
    // w = [[1, 2], [3, 4]], b = [10, 20].
    d.params()[0]->vec() = {1, 2, 3, 4};
    d.params()[1]->vec() = {10, 20};
    Tensor x({1, 2}, std::vector<float>{1, 1});
    Tensor y = d.forward(x);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 14.0f);
    EXPECT_FLOAT_EQ(y.at2(0, 1), 26.0f);
}

TEST(Dense, OutputShapeAndFlops)
{
    Dense d(8, 3);
    EXPECT_EQ(d.output_shape({4, 8}), (std::vector<int>{4, 3}));
    EXPECT_DOUBLE_EQ(d.flops_per_sample({1, 8}), 2.0 * 8 * 3);
    EXPECT_EQ(d.kind(), LayerKind::Fc);
}

TEST(Conv2D, IdentityKernelPassesThrough)
{
    Conv2D c(1, 1, 1);
    c.params()[0]->vec() = {1.0f};
    c.params()[1]->vec() = {0.0f};
    Tensor x({1, 1, 3, 3});
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(i);
    Tensor y = c.forward(x);
    ASSERT_EQ(y.shape(), x.shape());
    for (size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, OutputShapeWithStridePad)
{
    Conv2D c(3, 8, 3, 2, 1);
    auto out = c.output_shape({2, 3, 8, 8});
    EXPECT_EQ(out, (std::vector<int>{2, 8, 4, 4}));
    EXPECT_EQ(c.kind(), LayerKind::Conv);
}

TEST(Conv2D, DepthwiseKeepsChannelsSeparate)
{
    Conv2D c(2, 2, 1, 1, 0, 2);
    c.params()[0]->vec() = {2.0f, 3.0f};  // per-channel scale
    c.params()[1]->vec() = {0.0f, 0.0f};
    Tensor x({1, 2, 1, 1}, std::vector<float>{5.0f, 7.0f});
    Tensor y = c.forward(x);
    EXPECT_FLOAT_EQ(y[0], 10.0f);
    EXPECT_FLOAT_EQ(y[1], 21.0f);
}

/** Flat copy of a tensor's values. */
std::vector<float>
values(const Tensor &t)
{
    return {t.vec().begin(), t.vec().end()};
}

/** Sample @p n of a {batch, ...} tensor as a batch-1 tensor. */
Tensor
sample_of(const Tensor &t, int n)
{
    std::vector<int> shape = t.shape();
    shape[0] = 1;
    Tensor s(shape);
    std::copy_n(t.data() + static_cast<size_t>(n) * s.size(), s.size(),
                s.data());
    return s;
}

/** Everything one conv forward/backward produces, flattened. */
struct ConvPass
{
    std::vector<float> y, dx, dw, db;
};

/**
 * The whole batch in one forward() and backward(); @p between, when
 * set, is inferred in between (it must not disturb the gradients).
 */
ConvPass
run_batched(Conv2D &layer, const Tensor &x, const Tensor &dy,
            const Tensor *between = nullptr)
{
    layer.zero_grad();
    ConvPass r;
    r.y = values(layer.forward(x));
    if (between != nullptr)
        layer.infer(*between);
    r.dx = values(layer.backward(dy));
    r.dw = values(*layer.grads()[0]);
    r.db = values(*layer.grads()[1]);
    return r;
}

/** Reference: one sample at a time (batch 1), gradients summed. */
ConvPass
run_per_sample(Conv2D &layer, const Tensor &x, const Tensor &dy)
{
    layer.zero_grad();
    ConvPass r;
    for (int n = 0; n < x.dim(0); ++n) {
        const auto y = values(layer.forward(sample_of(x, n)));
        const auto dx = values(layer.backward(sample_of(dy, n)));
        r.y.insert(r.y.end(), y.begin(), y.end());
        r.dx.insert(r.dx.end(), dx.begin(), dx.end());
    }
    r.dw = values(*layer.grads()[0]);
    r.db = values(*layer.grads()[1]);
    return r;
}

/** Random conv layer, input and upstream gradient for one shape. */
struct ConvFixture
{
    Conv2D layer;
    Tensor x, dy;

    ConvFixture(int batch, int in_ch, int out_ch, int side, int k, int pad,
                int groups, int stride = 1)
        : layer(in_ch, out_ch, k, stride, pad, groups),
          x({batch, in_ch, side, side})
    {
        Rng rng(static_cast<uint64_t>(batch * 131 + in_ch * 7 + groups));
        layer.init_weights(rng);
        // Non-zero biases so the bias pre-fill order is exercised.
        testing::randomize(*layer.params()[1], rng);
        testing::randomize(x, rng, 1.0);
        dy = Tensor(layer.output_shape(x.shape()));
        testing::randomize(dy, rng, 1.0);
    }
};

/** Index of the first bitwise difference, or -1. */
long
first_diff(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return 0;
    for (size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return static_cast<long>(i);
    return -1;
}

/**
 * Every |a_i - b_i| within @p tol of the largest magnitude in @p b (at
 * least 1): the norm-wise relative error of a reordered reduction,
 * which per-element ratios overstate wherever terms cancel.
 */
void
expect_rel_close(const std::vector<float> &a, const std::vector<float> &b,
                 double tol, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    double scale = 1.0;
    for (float v : b)
        scale = std::max(scale, std::abs(static_cast<double>(v)));
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(a[i], b[i], tol * scale) << what << " index " << i;
}

/**
 * The CNN's two convolutions at the training batch (16) and at a
 * remainder batch (4) take the batch-wide path; fed the same samples
 * one at a time (batch 1 stays per-sample) they must agree: y, dx and
 * db bit-identical on the scalar arch (every element keeps its
 * reduction order), dW within 1e-5 (one (sample, spatial) reduction
 * instead of per-sample partial sums). On the SIMD arch the wide and
 * per-sample GEMMs are different shapes, so all four sit in the 1e-4
 * tolerance class.
 */
TEST(Conv2D, BatchWideMatchesPerSample)
{
    const kernels::KernelArch native = kernels::current_kernel_arch();
    for (kernels::KernelArch arch : {kernels::KernelArch::Scalar, native}) {
        testing::ScopedKernelArch scoped(arch);
        const bool scalar = arch == kernels::KernelArch::Scalar;
        for (int batch : {16, 4}) {
            for (auto [in_ch, out_ch, side] :
                 {std::tuple{1, 8, kMnistSide},
                  std::tuple{8, 16, kMnistSide / 2}}) {
                SCOPED_TRACE(::testing::Message()
                             << kernels::kernel_arch_name(arch) << " B="
                             << batch << " " << in_ch << "->" << out_ch);
                ConvFixture f(batch, in_ch, out_ch, side, 3, 1, 1);
                const ConvPass wide = run_batched(f.layer, f.x, f.dy);
                const ConvPass ref = run_per_sample(f.layer, f.x, f.dy);
                if (scalar) {
                    EXPECT_EQ(first_diff(wide.y, ref.y), -1);
                    EXPECT_EQ(first_diff(wide.dx, ref.dx), -1);
                    EXPECT_EQ(first_diff(wide.db, ref.db), -1);
                    expect_rel_close(wide.dw, ref.dw, 1e-5, "dw");
                } else {
                    expect_rel_close(wide.y, ref.y, 1e-4, "y");
                    expect_rel_close(wide.dx, ref.dx, 1e-4, "dx");
                    expect_rel_close(wide.db, ref.db, 1e-4, "db");
                    expect_rel_close(wide.dw, ref.dw, 1e-4, "dw");
                }

                // infer() keeps its own unfold scratch: running it
                // between forward() and backward() (same batch, other
                // data) changes no gradient bit.
                Tensor other(f.x.shape());
                Rng rng(77);
                testing::randomize(other, rng, 1.0);
                const ConvPass mixed =
                    run_batched(f.layer, f.x, f.dy, &other);
                EXPECT_EQ(first_diff(mixed.y, wide.y), -1);
                EXPECT_EQ(first_diff(mixed.dx, wide.dx), -1);
                EXPECT_EQ(first_diff(mixed.dw, wide.dw), -1);
                EXPECT_EQ(first_diff(mixed.db, wide.db), -1);

                // infer() runs the same wide convolution as forward().
                EXPECT_EQ(first_diff(values(f.layer.infer(f.x)), wide.y),
                          -1);
            }
        }
    }
}

/**
 * Grouped and pointwise layers stay on the per-sample path at any
 * batch: a batch gives exactly the bits of its samples one at a time,
 * dW included, on every arch.
 */
TEST(Conv2D, GroupedAndPointwiseStayPerSample)
{
    for (auto [in_ch, out_ch, k, pad, groups] :
         {std::tuple{8, 8, 3, 1, 8}, std::tuple{6, 6, 3, 1, 2},
          std::tuple{8, 16, 1, 0, 1}}) {
        SCOPED_TRACE(::testing::Message() << in_ch << "->" << out_ch
                                          << " k=" << k << " g=" << groups);
        ConvFixture f(4, in_ch, out_ch, 6, k, pad, groups);
        const ConvPass batched = run_batched(f.layer, f.x, f.dy);
        const ConvPass ref = run_per_sample(f.layer, f.x, f.dy);
        EXPECT_EQ(first_diff(batched.y, ref.y), -1);
        EXPECT_EQ(first_diff(batched.dx, ref.dx), -1);
        EXPECT_EQ(first_diff(batched.dw, ref.dw), -1);
        EXPECT_EQ(first_diff(batched.db, ref.db), -1);
    }
}

struct GroupedShape
{
    int in_ch, out_ch, side, k, stride, pad, groups;
};

/**
 * Grouped layers: MobileNet's depthwise shapes, a channel multiplier,
 * more than one input channel per group, stride 2 and pad 0.
 */
const GroupedShape kGroupedShapes[] = {
    {8, 8, 12, 3, 1, 1, 8},   {24, 24, 6, 3, 1, 1, 24},
    {32, 32, 3, 3, 1, 1, 32}, {4, 8, 7, 3, 1, 1, 4},
    {6, 6, 6, 3, 1, 1, 2},    {8, 8, 9, 3, 2, 1, 8},
    {6, 6, 10, 3, 2, 1, 2},   {8, 8, 6, 3, 1, 0, 8},
};

/**
 * Test-only reference: the per-(sample, group) im2col + GEMM algorithm
 * grouped layers ran before the direct kernel. Forward pre-fills y with
 * the bias and accumulates W_g x col on top; backward adds each
 * sample's dy row sums to db and dy_g x col^T to dW, and folds
 * dcol = W_g^T x dy_g back into dx with col2im.
 */
ConvPass
reference_grouped(const GroupedShape &s, Conv2D &layer, const Tensor &x,
                  const Tensor &dy)
{
    const Tensor &w = *layer.params()[0];
    const Tensor &b = *layer.params()[1];
    const int batch = x.dim(0), side = s.side;
    const int os = kernels::conv_out_size(side, s.k, s.stride, s.pad);
    const int icg = s.in_ch / s.groups, ocg = s.out_ch / s.groups;
    const int patch = icg * s.k * s.k, ospatial = os * os;
    const size_t plane = static_cast<size_t>(side) * side;
    std::vector<float> col(static_cast<size_t>(patch) * ospatial);
    std::vector<float> dcol(col.size());
    ConvPass r;
    r.y.assign(static_cast<size_t>(batch) * s.out_ch * ospatial, 0.0f);
    r.dx.assign(x.size(), 0.0f);
    r.dw.assign(w.size(), 0.0f);
    r.db.assign(b.size(), 0.0f);
    for (int n = 0; n < batch; ++n) {
        for (int g = 0; g < s.groups; ++g) {
            const size_t xo = (static_cast<size_t>(n) * s.in_ch + g * icg) *
                plane;
            const size_t yo = (static_cast<size_t>(n) * s.out_ch + g * ocg) *
                ospatial;
            const float *wg = w.data() + static_cast<size_t>(g) * ocg * patch;
            kernels::im2col(x.data() + xo, icg, side, side, s.k, s.stride,
                            s.pad, col.data(), ospatial);
            for (int ocl = 0; ocl < ocg; ++ocl)
                std::fill_n(r.y.begin() + yo + ocl * ospatial, ospatial,
                            b[static_cast<size_t>(g * ocg + ocl)]);
            kernels::gemm(ocg, ospatial, patch, wg, patch, col.data(),
                          ospatial, r.y.data() + yo, ospatial,
                          /*accumulate=*/true);

            const float *dyg = dy.data() + yo;
            for (int ocl = 0; ocl < ocg; ++ocl)
                for (int i = 0; i < ospatial; ++i)
                    r.db[g * ocg + ocl] += dyg[ocl * ospatial + i];
            kernels::gemm_nt(ocg, patch, ospatial, dyg, ospatial, col.data(),
                             ospatial, r.dw.data() + g * ocg * patch, patch,
                             /*accumulate=*/true);
            kernels::gemm_tn(patch, ospatial, ocg, wg, patch, dyg, ospatial,
                             dcol.data(), ospatial);
            kernels::col2im_add(dcol.data(), icg, side, side, s.k, s.stride,
                                s.pad, r.dx.data() + xo, ospatial);
        }
    }
    return r;
}

/**
 * The direct grouped kernel against the im2col + GEMM reference run on
 * the scalar arch: y, dx, dW and db bit-identical, on scalar and on the
 * native arch alike (the kernel's sequence is the same on every arch).
 * forward() and infer() give the same bits, and an infer() of another
 * batch between forward() and backward() changes nothing.
 */
TEST(Conv2D, DirectGroupedMatchesIm2colReference)
{
    const kernels::KernelArch native = kernels::current_kernel_arch();
    for (int batch : {1, 4, 16}) {
        for (const GroupedShape &s : kGroupedShapes) {
            ConvFixture f(batch, s.in_ch, s.out_ch, s.side, s.k, s.pad,
                          s.groups, s.stride);
            ConvPass ref;
            {
                testing::ScopedKernelArch scalar(kernels::KernelArch::Scalar);
                ref = reference_grouped(s, f.layer, f.x, f.dy);
            }
            for (kernels::KernelArch arch :
                 {kernels::KernelArch::Scalar, native}) {
                testing::ScopedKernelArch scoped(arch);
                SCOPED_TRACE(::testing::Message()
                             << kernels::kernel_arch_name(arch) << " B="
                             << batch << " " << s.in_ch << "->" << s.out_ch
                             << " side=" << s.side << " s=" << s.stride
                             << " p=" << s.pad << " g=" << s.groups);
                const ConvPass got = run_batched(f.layer, f.x, f.dy);
                EXPECT_EQ(first_diff(got.y, ref.y), -1);
                EXPECT_EQ(first_diff(got.dx, ref.dx), -1);
                EXPECT_EQ(first_diff(got.dw, ref.dw), -1);
                EXPECT_EQ(first_diff(got.db, ref.db), -1);
                EXPECT_EQ(first_diff(values(f.layer.infer(f.x)), got.y), -1);

                Tensor other({batch + 3, s.in_ch, s.side, s.side});
                Rng rng(79);
                testing::randomize(other, rng, 1.0);
                const ConvPass mixed =
                    run_batched(f.layer, f.x, f.dy, &other);
                EXPECT_EQ(first_diff(mixed.y, got.y), -1);
                EXPECT_EQ(first_diff(mixed.dx, got.dx), -1);
                EXPECT_EQ(first_diff(mixed.dw, got.dw), -1);
                EXPECT_EQ(first_diff(mixed.db, got.db), -1);
            }
        }
    }
}

/**
 * A zero weight skips its tap, as the scalar GEMM skips a zero
 * multiplier: where it meets an inf input (or an inf upstream gradient)
 * y and dx stay finite exactly where the reference's do, and every
 * arch gives the reference's bits.
 */
TEST(Conv2D, DirectGroupedZeroTapsOverInfMatchReference)
{
    const float inf = std::numeric_limits<float>::infinity();
    for (const GroupedShape &s :
         {GroupedShape{4, 4, 5, 3, 1, 1, 4}, GroupedShape{4, 8, 5, 3, 1, 1, 4},
          GroupedShape{6, 6, 7, 3, 2, 1, 2}}) {
        ConvFixture f(2, s.in_ch, s.out_ch, s.side, s.k, s.pad, s.groups,
                      s.stride);
        Tensor &w = *f.layer.params()[0];
        for (size_t i = 0; i < w.size(); i += 2)
            w[i] = 0.0f;
        f.x[7] = inf;
        f.x[f.x.size() / 2] = -inf;
        f.dy[3] = inf;
        f.dy[f.dy.size() - 5] = -inf;
        ConvPass ref;
        {
            testing::ScopedKernelArch scalar(kernels::KernelArch::Scalar);
            ref = reference_grouped(s, f.layer, f.x, f.dy);
        }
        for (kernels::KernelArch arch : kernels::supported_kernel_archs()) {
            testing::ScopedKernelArch scoped(arch);
            SCOPED_TRACE(::testing::Message()
                         << kernels::kernel_arch_name(arch) << " "
                         << s.in_ch << "->" << s.out_ch << " s=" << s.stride);
            const ConvPass got = run_batched(f.layer, f.x, f.dy);
            EXPECT_EQ(first_diff(got.y, ref.y), -1);
            EXPECT_EQ(first_diff(got.dx, ref.dx), -1);
            EXPECT_EQ(first_diff(got.db, ref.db), -1);
            if (arch == kernels::KernelArch::Scalar) {
                EXPECT_EQ(first_diff(got.dw, ref.dw), -1);
            }
        }
    }
}

TEST(ReLU, ClampsNegatives)
{
    ReLU r;
    Tensor x({1, 4}, std::vector<float>{-1, 0, 2, -3});
    Tensor y = r.forward(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(MaxPool2D, SelectsWindowMax)
{
    MaxPool2D p(2);
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    Tensor y = p.forward(x);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax)
{
    MaxPool2D p(2);
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    p.forward(x);
    Tensor g({1, 1, 1, 1}, std::vector<float>{2.0f});
    Tensor dx = p.backward(g);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
    EXPECT_FLOAT_EQ(dx[1], 2.0f);
    EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

/** Ties go to the first element in (ky, kx) scan order. */
TEST(MaxPool2D, TiesPickFirstInScanOrder)
{
    MaxPool2D p(2);
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 5, 5});
    p.forward(x);
    Tensor dx = p.backward(Tensor({1, 1, 1, 1}, std::vector<float>{1.0f}));
    EXPECT_EQ(values(dx), (std::vector<float>{0, 1, 0, 0}));
}

/**
 * A window with no value above -inf (all -inf or NaN) routes its
 * gradient to its own first element — never to element 0 of the whole
 * tensor (sample 0, channel 0). Checked on the unrolled 2x2 path and
 * on the generic one.
 */
TEST(MaxPool2D, DegenerateWindowRoutesInsideItself)
{
    const float ninf = -std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (float fill : {ninf, nan}) {
        for (int k : {2, 3}) {
            SCOPED_TRACE(::testing::Message() << "k=" << k << " fill="
                                              << fill);
            MaxPool2D p(k);
            // Sample 0 is ordinary; sample 1's only window is all fill.
            Tensor x({2, 1, k, k});
            for (int i = 0; i < k * k; ++i) {
                x[static_cast<size_t>(i)] = static_cast<float>(i);
                x[static_cast<size_t>(k * k + i)] = fill;
            }
            Tensor y = p.forward(x);
            EXPECT_EQ(y[0], static_cast<float>(k * k - 1));
            EXPECT_EQ(y[1], ninf);
            Tensor dx =
                p.backward(Tensor({2, 1, 1, 1}, std::vector<float>{1, 2}));
            std::vector<float> want(static_cast<size_t>(2 * k * k), 0.0f);
            want[static_cast<size_t>(k * k - 1)] = 1.0f;  // Sample 0 max.
            want[static_cast<size_t>(k * k)] = 2.0f;  // Sample 1, first.
            EXPECT_EQ(values(dx), want);
        }
    }
}

TEST(GlobalAvgPool, Averages)
{
    GlobalAvgPool p;
    Tensor x({1, 2, 2, 2});
    for (int i = 0; i < 4; ++i)
        x[static_cast<size_t>(i)] = static_cast<float>(i + 1);  // ch 0
    for (int i = 4; i < 8; ++i)
        x[static_cast<size_t>(i)] = 10.0f;  // ch 1
    Tensor y = p.forward(x);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(y.at2(0, 1), 10.0f);
}

/**
 * The contiguous per-plane loops against the element-indexed loops they
 * replaced, on a fixed tensor: each plane sums in the same ascending
 * (row, column) order, so forward and backward are bit-identical.
 */
TEST(GlobalAvgPool, MatchesIndexedLoopsBitwise)
{
    Tensor x({3, 5, 7, 6});
    Rng rng(81);
    testing::randomize(x, rng, 100.0);
    Tensor dy({3, 5});
    testing::randomize(dy, rng, 3.0);

    Tensor want_y({3, 5});
    Tensor want_dx(x.shape());
    const float inv = 1.0f / static_cast<float>(7 * 6);
    for (int n = 0; n < 3; ++n)
        for (int c = 0; c < 5; ++c) {
            float acc = 0.0f;
            for (int yy = 0; yy < 7; ++yy)
                for (int xx = 0; xx < 6; ++xx)
                    acc += x.at4(n, c, yy, xx);
            want_y.at2(n, c) = acc * inv;
            const float g = dy.at2(n, c) * inv;
            for (int yy = 0; yy < 7; ++yy)
                for (int xx = 0; xx < 6; ++xx)
                    want_dx.at4(n, c, yy, xx) = g;
        }

    GlobalAvgPool p;
    EXPECT_EQ(first_diff(values(p.forward(x)), values(want_y)), -1);
    EXPECT_EQ(first_diff(values(p.backward(dy)), values(want_dx)), -1);
}

TEST(Flatten, CollapsesTrailingDims)
{
    Flatten f;
    Tensor x({2, 3, 2, 2});
    Tensor y = f.forward(x);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 12}));
    Tensor dx = f.backward(y);
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Lstm, ShapesLastAndSequence)
{
    Lstm last(4, 6, false);
    EXPECT_EQ(last.output_shape({5, 3, 4}), (std::vector<int>{3, 6}));
    Lstm seq(4, 6, true);
    EXPECT_EQ(seq.output_shape({5, 3, 4}), (std::vector<int>{5, 3, 6}));
    EXPECT_EQ(last.kind(), LayerKind::Recurrent);
}

TEST(Lstm, ForgetBiasInitialized)
{
    Lstm l(3, 4);
    Rng rng(1);
    l.init_weights(rng);
    const Tensor &b = *l.params()[2];
    for (int j = 4; j < 8; ++j)
        EXPECT_FLOAT_EQ(b[static_cast<size_t>(j)], 1.0f);
    for (int j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(b[static_cast<size_t>(j)], 0.0f);
}

TEST(Lstm, ZeroInputGivesBoundedOutput)
{
    Lstm l(2, 3);
    Rng rng(2);
    l.init_weights(rng);
    Tensor x({4, 2, 2});
    Tensor h = l.forward(x);
    for (size_t i = 0; i < h.size(); ++i) {
        EXPECT_GT(h[i], -1.0f);
        EXPECT_LT(h[i], 1.0f);
    }
}

/** Everything one LSTM forward/backward produces, flattened. */
struct LstmPass
{
    std::vector<float> y, dx, dwx, dwh, db;
};

/**
 * Test-only reference: the per-timestep fused algorithm the layer ran
 * before the sequence-wide restructure. Each step packs [x_t | h_{t-1}]
 * and runs one GEMM against [Wx; Wh] plus the bias, then the fused
 * gate kernel; backward accumulates the packed weight gradient and db
 * step by step and gets [dx_t | dh_{t-1}] from one GEMM against W^T.
 */
LstmPass
reference_lstm(Lstm &layer, bool seq, const Tensor &x, const Tensor &dy)
{
    const Tensor &wx = *layer.params()[0];
    const Tensor &wh = *layer.params()[1];
    const Tensor &b = *layer.params()[2];
    const int time = x.dim(0), batch = x.dim(1), in = x.dim(2);
    const int hidden = wh.dim(0), h4 = 4 * hidden, xh = in + hidden;
    const size_t hb = static_cast<size_t>(batch) * hidden;
    std::vector<float> w(values(wx));
    w.insert(w.end(), wh.vec().begin(), wh.vec().end());

    std::vector<std::vector<float>> xhs, zs, cs(
        static_cast<size_t>(time) + 1, std::vector<float>(hb));
    std::vector<float> hs(static_cast<size_t>(time) * hb);
    for (int t = 0; t < time; ++t) {
        std::vector<float> xht(static_cast<size_t>(batch) * xh);
        std::vector<float> z(static_cast<size_t>(batch) * h4);
        for (int n = 0; n < batch; ++n) {
            std::copy_n(x.data() + (static_cast<size_t>(t) * batch + n) * in,
                        in, xht.begin() + n * xh);
            if (t > 0)
                std::copy_n(hs.begin() + (t - 1) * hb + n * hidden, hidden,
                            xht.begin() + n * xh + in);
        }
        kernels::gemm(batch, h4, xh, xht.data(), xh, w.data(), h4, z.data(),
                      h4);
        kernels::add_bias_rows(batch, h4, b.data(), z.data());
        kernels::lstm_gate_forward(batch, hidden, z.data(), cs[t].data(),
                                   cs[t + 1].data(), hs.data() + t * hb);
        xhs.push_back(std::move(xht));
        zs.push_back(std::move(z));
    }

    LstmPass r;
    r.y = seq ? hs : std::vector<float>(hs.end() - hb, hs.end());
    std::vector<float> dwcat(w.size()), dh(hb), dc(hb), dcp(hb);
    std::vector<float> dz(static_cast<size_t>(batch) * h4);
    std::vector<float> dxh(static_cast<size_t>(batch) * xh);
    r.db.assign(static_cast<size_t>(h4), 0.0f);
    r.dx.assign(x.size(), 0.0f);
    if (!seq)
        dh = values(dy);
    for (int t = time - 1; t >= 0; --t) {
        if (seq)
            kernels::vadd(hb, dy.data() + t * hb, dh.data());
        kernels::lstm_gate_backward(batch, hidden, zs[t].data(),
                                    cs[t].data(), cs[t + 1].data(), dh.data(),
                                    dc.data(), dz.data(), dcp.data());
        kernels::gemm_tn(xh, h4, batch, xhs[t].data(), xh, dz.data(), h4,
                         dwcat.data(), h4, /*accumulate=*/true);
        kernels::accumulate_rows(batch, h4, dz.data(), r.db.data());
        kernels::gemm_nt(batch, xh, h4, dz.data(), h4, w.data(), h4,
                         dxh.data(), xh);
        for (int n = 0; n < batch; ++n) {
            std::copy_n(dxh.begin() + n * xh, in,
                        r.dx.begin() +
                            (static_cast<size_t>(t) * batch + n) * in);
            std::copy_n(dxh.begin() + n * xh + in, hidden,
                        dh.begin() + n * hidden);
        }
        std::swap(dc, dcp);
    }
    r.dwx.assign(dwcat.begin(), dwcat.begin() + wx.size());
    r.dwh.assign(dwcat.begin() + wx.size(), dwcat.end());
    return r;
}

/** One forward/backward of @p layer; @p between is inferred in between. */
LstmPass
run_lstm(Lstm &layer, const Tensor &x, const Tensor &dy,
         const Tensor *between = nullptr)
{
    LstmPass r;
    r.y = values(layer.forward(x));
    if (between != nullptr)
        layer.infer(*between);
    r.dx = values(layer.backward(dy));
    r.dwx = values(*layer.grads()[0]);
    r.dwh = values(*layer.grads()[1]);
    r.db = values(*layer.grads()[2]);
    return r;
}

struct LstmShape
{
    int time, batch, in, hidden;
    bool seq;
};

/** The model's two layers at B = 2 and 16, plus T = 1 and B = 1. */
const LstmShape kLstmShapes[] = {
    {kTextSeqLen, 2, kTextVocab, 48, true},
    {kTextSeqLen, 2, 48, 48, false},
    {kTextSeqLen, 16, kTextVocab, 48, true},
    {kTextSeqLen, 16, 48, 48, false},
    {kTextSeqLen, 1, 48, 48, false},
    {1, 4, kTextVocab, 48, true},
    {1, 1, 48, 48, false},
};

/** Random layer (non-zero biases), input and upstream gradient. */
struct LstmFixture
{
    Lstm layer;
    Tensor x, dy;

    explicit LstmFixture(const LstmShape &s)
        : layer(s.in, s.hidden, s.seq), x({s.time, s.batch, s.in})
    {
        Rng rng(static_cast<uint64_t>(s.time * 97 + s.batch * 13 + s.in));
        layer.init_weights(rng);
        testing::randomize(*layer.params()[2], rng);
        testing::randomize(x, rng, 1.0);
        dy = Tensor(layer.output_shape(x.shape()));
        testing::randomize(dy, rng, 1.0);
    }
};

/**
 * The sequence-wide layer against the per-step reference: the same
 * math in another summation order — z as (x Wx + b) + h Wh, dW and db
 * reduced over (time, batch) at once — so within 1e-5 norm-wise on
 * the scalar arch and 1e-4 on the native one. With T = 1 there is no
 * h_{t-1}, and dWh keeps exactly the bits it had.
 */
TEST(Lstm, SequenceWideMatchesPerStepReference)
{
    const kernels::KernelArch native = kernels::current_kernel_arch();
    for (kernels::KernelArch arch : {kernels::KernelArch::Scalar, native}) {
        testing::ScopedKernelArch scoped(arch);
        const double tol = arch == kernels::KernelArch::Scalar ? 1e-5 : 1e-4;
        for (const LstmShape &s : kLstmShapes) {
            SCOPED_TRACE(::testing::Message()
                         << kernels::kernel_arch_name(arch) << " T="
                         << s.time << " B=" << s.batch << " " << s.in
                         << "->" << s.hidden << (s.seq ? " seq" : ""));
            LstmFixture f(s);
            const LstmPass ref = reference_lstm(f.layer, s.seq, f.x, f.dy);
            f.layer.zero_grad();
            Tensor &dwh = *f.layer.grads()[1];
            if (s.time == 1)
                dwh.fill(0.25f);
            const LstmPass got = run_lstm(f.layer, f.x, f.dy);
            expect_rel_close(got.y, ref.y, tol, "y");
            expect_rel_close(got.dx, ref.dx, tol, "dx");
            expect_rel_close(got.dwx, ref.dwx, tol, "dwx");
            expect_rel_close(got.db, ref.db, tol, "db");
            if (s.time == 1)
                EXPECT_EQ(first_diff(got.dwh, std::vector<float>(
                                                  dwh.size(), 0.25f)),
                          -1);
            else
                expect_rel_close(got.dwh, ref.dwh, tol, "dwh");
        }
    }
}

/**
 * infer() runs in its own scratch: an infer() of another shape between
 * forward() and backward() leaves y, dx and every gradient bit-identical.
 */
TEST(Lstm, InferBetweenForwardAndBackwardLeavesGradients)
{
    for (const LstmShape &s : kLstmShapes) {
        SCOPED_TRACE(::testing::Message() << "T=" << s.time << " B="
                                          << s.batch << " " << s.in << "->"
                                          << s.hidden);
        LstmFixture f(s);
        Tensor other({s.time + 2, s.batch + 3, s.in});
        Rng rng(78);
        testing::randomize(other, rng, 1.0);
        f.layer.zero_grad();
        const LstmPass plain = run_lstm(f.layer, f.x, f.dy);
        f.layer.zero_grad();
        const LstmPass mixed = run_lstm(f.layer, f.x, f.dy, &other);
        EXPECT_EQ(first_diff(mixed.y, plain.y), -1);
        EXPECT_EQ(first_diff(mixed.dx, plain.dx), -1);
        EXPECT_EQ(first_diff(mixed.dwx, plain.dwx), -1);
        EXPECT_EQ(first_diff(mixed.dwh, plain.dwh), -1);
        EXPECT_EQ(first_diff(mixed.db, plain.db), -1);
    }
}

/** forward() and infer() run one recurrence: on scalar, the same bits. */
TEST(Lstm, InferMatchesForwardBitwiseOnScalar)
{
    testing::ScopedKernelArch scalar(kernels::KernelArch::Scalar);
    for (const LstmShape &s : kLstmShapes) {
        LstmFixture f(s);
        EXPECT_EQ(first_diff(values(f.layer.infer(f.x)),
                             values(f.layer.forward(f.x))),
                  -1)
            << "T=" << s.time << " B=" << s.batch << " " << s.in << "->"
            << s.hidden;
    }
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC)
{
    SoftmaxCrossEntropy l;
    Tensor logits({2, 4});
    const double loss = l.forward(logits, {1, 3});
    EXPECT_NEAR(loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, ProbsSumToOne)
{
    SoftmaxCrossEntropy l;
    Tensor logits({1, 3}, std::vector<float>{1.0f, 2.0f, 3.0f});
    l.forward(logits, {2});
    double sum = 0.0;
    for (int c = 0; c < 3; ++c)
        sum += l.probs().at2(0, c);
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, CorrectCountsArgmaxHits)
{
    SoftmaxCrossEntropy l;
    Tensor logits({2, 2}, std::vector<float>{5.0f, 0.0f, 0.0f, 5.0f});
    l.forward(logits, {0, 0});
    EXPECT_EQ(l.correct(), 1);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow)
{
    SoftmaxCrossEntropy l;
    Tensor logits({1, 5}, std::vector<float>{0.2f, -1.0f, 2.0f, 0.0f, 1.0f});
    l.forward(logits, {3});
    Tensor g = l.backward();
    double sum = 0.0;
    for (size_t i = 0; i < g.size(); ++i)
        sum += g[i];
    EXPECT_NEAR(sum, 0.0, 1e-6);
}

/**
 * Each exp(logit - max) is computed once and reused for the denominator
 * and the probabilities: loss, probabilities and correct() keep the
 * bits of the two-pass form that evaluated every exp twice.
 */
TEST(SoftmaxCrossEntropy, MatchesTwoPassReferenceBitwise)
{
    const int batch = 6, classes = kTextVocab;
    Tensor logits({batch, classes});
    Rng rng(21);
    testing::randomize(logits, rng, 4.0);
    std::vector<int> labels;
    for (int n = 0; n < batch; ++n)
        labels.push_back((n * 7) % classes);

    Tensor probs({batch, classes});
    int correct = 0;
    double loss = 0.0;
    for (int n = 0; n < batch; ++n) {
        float mx = logits.at2(n, 0);
        int arg = 0;
        for (int c = 1; c < classes; ++c)
            if (logits.at2(n, c) > mx) {
                mx = logits.at2(n, c);
                arg = c;
            }
        correct += arg == labels[static_cast<size_t>(n)] ? 1 : 0;
        double denom = 0.0;
        for (int c = 0; c < classes; ++c)
            denom += std::exp(static_cast<double>(logits.at2(n, c) - mx));
        for (int c = 0; c < classes; ++c)
            probs.at2(n, c) = static_cast<float>(
                std::exp(static_cast<double>(logits.at2(n, c) - mx)) / denom);
        const int y = labels[static_cast<size_t>(n)];
        loss -= static_cast<double>(logits.at2(n, y) - mx) - std::log(denom);
    }
    loss /= batch;

    SoftmaxCrossEntropy l;
    const double got = l.forward(logits, labels);
    EXPECT_EQ(std::memcmp(&got, &loss, sizeof(double)), 0);
    EXPECT_EQ(first_diff(values(l.probs()), values(probs)), -1);
    EXPECT_EQ(l.correct(), correct);
}

TEST(ArgmaxRows, PicksLargest)
{
    Tensor logits({2, 3}, std::vector<float>{1, 9, 2, 7, 1, 3});
    auto a = argmax_rows(logits);
    EXPECT_EQ(a, (std::vector<int>{1, 0}));
}

TEST(Sgd, PlainStepDescends)
{
    Sequential m;
    m.emplace<Dense>(1, 1);
    m.params()[0]->vec() = {2.0f};
    m.params()[1]->vec() = {0.0f};
    // grad(w) = 1 -> w decreases by lr.
    m.grads()[0]->vec() = {1.0f};
    m.grads()[1]->vec() = {0.0f};
    Sgd opt(0.1);
    opt.step(m);
    EXPECT_NEAR((*m.params()[0])[0], 1.9f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates)
{
    Sequential m;
    m.emplace<Dense>(1, 1);
    m.params()[0]->vec() = {0.0f};
    Sgd opt(0.1, 0.9);
    for (int i = 0; i < 2; ++i) {
        m.grads()[0]->vec() = {1.0f};
        m.grads()[1]->vec() = {0.0f};
        opt.step(m);
    }
    // Step 1: v=1 -> w=-0.1; step 2: v=1.9 -> w=-0.29.
    EXPECT_NEAR((*m.params()[0])[0], -0.29f, 1e-5f);
}

TEST(Sgd, ProxPullsTowardAnchor)
{
    Sequential m;
    m.emplace<Dense>(1, 1);
    m.params()[0]->vec() = {1.0f};
    m.params()[1]->vec() = {0.0f};
    m.zero_grad();
    Sgd opt(0.1);
    // Zero gradient, anchor at 0, mu = 1: w moves toward 0.
    opt.step_prox(m, std::vector<float>{0.0f, 0.0f}, 1.0);
    EXPECT_NEAR((*m.params()[0])[0], 0.9f, 1e-6f);
}

TEST(Sequential, FlatWeightsRoundTrip)
{
    Sequential m = make_model(Workload::CnnMnist);
    Rng rng(3);
    m.init_weights(rng);
    auto w = m.flat_weights();
    EXPECT_EQ(w.size(), m.num_params());
    // Perturb, restore, compare.
    Sequential m2 = make_model(Workload::CnnMnist);
    m2.set_flat_weights(w);
    EXPECT_EQ(m2.flat_weights(), w);
}

TEST(Sequential, ZeroGradClearsAll)
{
    Sequential m = make_model(Workload::CnnMnist);
    for (Tensor *g : m.grads())
        g->fill(1.0f);
    m.zero_grad();
    for (Tensor *g : m.grads())
        for (size_t i = 0; i < g->size(); ++i)
            ASSERT_EQ((*g)[i], 0.0f);
}

/**
 * Sequential::backward() never computes the model's input gradient
 * (the first layer runs backward_params()), yet its parameter gradients
 * are bit-identical to running every layer's backward() by hand, layer
 * 0's dx included — at batch 1 and on the batch-wide conv path.
 */
TEST(Sequential, BackwardMatchesLayerByLayerBitwise)
{
    for (Workload w : all_workloads()) {
        for (int batch : {1, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << workload_name(w) << " B=" << batch);
            Sequential a = make_model(w);
            Sequential b = make_model(w);
            Rng rng(23);
            a.init_weights(rng);
            b.set_flat_weights(a.flat_weights());
            Tensor x(model_batch_shape(w, batch));
            testing::randomize(x, rng, 1.0);
            Tensor g({batch, model_num_classes(w)});
            testing::randomize(g, rng, 1.0);

            a.zero_grad();
            a.forward(x);
            a.backward(g);

            b.zero_grad();
            b.forward(x);
            Tensor d = g;
            for (size_t i = b.num_layers(); i-- > 0;)
                d = b.layer(i).backward(d);
            EXPECT_EQ(d.shape(), x.shape());

            const auto ga = a.grads();
            const auto gb = b.grads();
            ASSERT_EQ(ga.size(), gb.size());
            for (size_t p = 0; p < ga.size(); ++p)
                EXPECT_EQ(first_diff(values(*ga[p]), values(*gb[p])), -1)
                    << "grad " << p;
        }
    }
}

class ModelZooTest : public ::testing::TestWithParam<Workload>
{
};

TEST_P(ModelZooTest, ForwardShapeMatchesClassCount)
{
    const Workload w = GetParam();
    Sequential m = make_model(w);
    Rng rng(4);
    m.init_weights(rng);
    const int batch = 3;
    Tensor x(model_batch_shape(w, batch));
    Tensor y = m.forward(x);
    EXPECT_EQ(y.shape(), (std::vector<int>{batch, model_num_classes(w)}));
}

TEST_P(ModelZooTest, ProfileMatchesArchitecture)
{
    const Workload w = GetParam();
    const NnProfile p = model_profile(w);
    EXPECT_GT(p.flops_per_sample, 0.0);
    EXPECT_GT(p.model_bytes, 0.0);
    switch (w) {
      case Workload::CnnMnist:
        EXPECT_EQ(p.conv_layers, 2);
        EXPECT_EQ(p.fc_layers, 2);
        EXPECT_EQ(p.rc_layers, 0);
        break;
      case Workload::LstmShakespeare:
        EXPECT_EQ(p.conv_layers, 0);
        EXPECT_EQ(p.fc_layers, 1);
        EXPECT_EQ(p.rc_layers, 2);
        break;
      case Workload::MobileNetImageNet:
        EXPECT_EQ(p.conv_layers, 11);
        EXPECT_EQ(p.fc_layers, 1);
        EXPECT_EQ(p.rc_layers, 0);
        break;
    }
}

TEST_P(ModelZooTest, LstmIsMostMemoryBound)
{
    // The per-layer-kind memory-boundness orders the workloads as the
    // paper's characterization requires: RC-heavy most memory-bound.
    const double mb_lstm =
        model_profile(Workload::LstmShakespeare).mem_bound_frac;
    const double mb_cnn = model_profile(Workload::CnnMnist).mem_bound_frac;
    const double mb_mob =
        model_profile(Workload::MobileNetImageNet).mem_bound_frac;
    EXPECT_GT(mb_lstm, 0.6);
    EXPECT_LT(mb_cnn, 0.35);
    EXPECT_LT(mb_mob, 0.35);
    EXPECT_GT(mb_lstm, mb_cnn);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ModelZooTest,
                         ::testing::ValuesIn(all_workloads()));

TEST(ModelZoo, NamesAreDistinct)
{
    EXPECT_EQ(workload_name(Workload::CnnMnist), "CNN-MNIST");
    EXPECT_EQ(workload_name(Workload::LstmShakespeare), "LSTM-Shakespeare");
    EXPECT_EQ(workload_name(Workload::MobileNetImageNet),
              "MobileNet-ImageNet");
}

} // namespace
} // namespace autofl
