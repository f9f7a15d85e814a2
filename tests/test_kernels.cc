/**
 * @file
 * Kernel-dispatch backend tests: scalar/SIMD parity, reduction-order
 * determinism, seed-loop bit-compatibility and im2col round trips.
 *
 * Contract under test (src/kernels/README.md): per variant, results are
 * bitwise deterministic; the scalar GEMM variants are bit-identical to
 * the seed triple loops; elementwise kernels are bit-identical across
 * ALL variants; GEMM/conv variants agree within 1e-4 relative.
 */
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include <gtest/gtest.h>

#include "fl/aggregation.h"
#include "kernels/kernels.h"
#include "nn/conv2d.h"
#include "nn/lstm.h"
#include "util/rng.h"

namespace autofl {
namespace {

using kernels::KernelArch;

/** Restores the entry arch when a test is done flipping variants. */
struct ArchGuard
{
    KernelArch saved = kernels::current_kernel_arch();
    ~ArchGuard() { kernels::set_kernel_arch(saved); }
};

bool
has_simd()
{
    return kernels::best_kernel_arch() != KernelArch::Scalar;
}

std::vector<float>
random_vec(size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1, 1));
    return v;
}

/** The seed's matmul triple loop (pre-kernel reference). */
void
seed_matmul(int m, int n, int k, const float *pa, const float *pb, float *po)
{
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const float av = pa[static_cast<size_t>(i) * k + kk];
            if (av == 0.0f)
                continue;
            const float *brow = pb + static_cast<size_t>(kk) * n;
            float *orow = po + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j)
                orow[j] += av * brow[j];
        }
    }
}

void
expect_rel_close(const std::vector<float> &a, const std::vector<float> &b,
                 double rel_tol, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const double denom = std::max(
            {1.0, std::abs(static_cast<double>(a[i])),
             std::abs(static_cast<double>(b[i]))});
        EXPECT_NEAR(a[i] / denom, b[i] / denom, rel_tol)
            << what << " index " << i;
    }
}

struct GemmShape
{
    int m, k, n;
};

class GemmParityTest : public ::testing::TestWithParam<GemmShape>
{
};

/** Scalar variant reproduces the seed loop bit-for-bit. */
TEST_P(GemmParityTest, ScalarMatchesSeedLoopBitwise)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(42);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);

    std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
    seed_matmul(m, n, k, a.data(), b.data(), ref.data());

    kernels::set_kernel_arch(KernelArch::Scalar);
    std::vector<float> out(static_cast<size_t>(m) * n, -1.0f);
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, out.data(), n);
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], out[i]) << "index " << i;
}

/** Scalar and SIMD variants agree within 1e-4 relative, all 3 GEMMs. */
TEST_P(GemmParityTest, VariantsAgreeWithinTolerance)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(43);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto at = random_vec(static_cast<size_t>(k) * m, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto bt = random_vec(static_cast<size_t>(n) * k, rng);

    const size_t out_n = static_cast<size_t>(m) * n;
    std::vector<float> s_nn(out_n), s_tn(out_n), s_nt(out_n);
    std::vector<float> v_nn(out_n), v_tn(out_n), v_nt(out_n);

    kernels::set_kernel_arch(KernelArch::Scalar);
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, s_nn.data(), n);
    kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n, s_tn.data(), n);
    kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k, s_nt.data(), n);

    kernels::set_kernel_arch(kernels::best_kernel_arch());
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, v_nn.data(), n);
    kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n, v_tn.data(), n);
    kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k, v_nt.data(), n);

    expect_rel_close(s_nn, v_nn, 1e-4, "gemm");
    expect_rel_close(s_tn, v_tn, 1e-4, "gemm_tn");
    expect_rel_close(s_nt, v_nt, 1e-4, "gemm_nt");
}

/** Same inputs, same variant -> bitwise identical output, twice. */
TEST_P(GemmParityTest, DeterministicPerVariant)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(44);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);

    for (KernelArch arch : {KernelArch::Scalar, kernels::best_kernel_arch()}) {
        kernels::set_kernel_arch(arch);
        std::vector<float> o1(static_cast<size_t>(m) * n),
            o2(static_cast<size_t>(m) * n);
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, o1.data(), n);
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, o2.data(), n);
        for (size_t i = 0; i < o1.size(); ++i)
            ASSERT_EQ(o1[i], o2[i])
                << kernels::kernel_arch_name(arch) << " index " << i;
    }
}

/** Accumulate mode adds the product on top of the existing C. */
TEST_P(GemmParityTest, AccumulateAddsOnTop)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(45);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto base = random_vec(static_cast<size_t>(m) * n, rng);

    for (KernelArch arch : {KernelArch::Scalar, kernels::best_kernel_arch()}) {
        kernels::set_kernel_arch(arch);
        std::vector<float> fresh(static_cast<size_t>(m) * n);
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, fresh.data(), n);
        std::vector<float> acc = base;
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, acc.data(), n,
                      /*accumulate=*/true);
        for (size_t i = 0; i < acc.size(); ++i)
            EXPECT_NEAR(acc[i], base[i] + fresh[i], 2e-5)
                << kernels::kernel_arch_name(arch) << " index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParityTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 5},
                      GemmShape{4, 16, 16}, GemmShape{5, 7, 9},
                      GemmShape{8, 32, 17}, GemmShape{16, 64, 33},
                      GemmShape{3, 128, 40}, GemmShape{13, 21, 121},
                      GemmShape{32, 48, 64}));

/** Bit patterns, so NaN lanes compare equal when their bits do. */
std::vector<uint32_t>
float_bits(const std::vector<float> &v)
{
    std::vector<uint32_t> bits(v.size());
    std::memcpy(bits.data(), v.data(), sizeof(float) * v.size());
    return bits;
}

/**
 * Elementwise kernels are bit-identical across every variant, at
 * lengths around the 8- and 32-lane blocks and their tails.
 */
TEST(ElementwiseParity, BitIdenticalAcrossVariants)
{
    if (!has_simd())
        GTEST_SKIP() << "no SIMD variant on this CPU";
    ArchGuard guard;
    Rng rng(46);
    // ReLU edge values: signed zeros, a denormal, infinities, NaNs.
    const float specials[] = {
        0.0f, -0.0f, 1e-45f, -1e-45f, std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(), 2.5f, -2.5f, 0.0f};
    for (size_t n : {1, 7, 8, 9, 31, 33, 1003}) {
        const int cols = static_cast<int>(std::min<size_t>(n, 59));
        const int rows = static_cast<int>(n) / cols;
        const auto x = random_vec(n, rng);
        const auto y0 = random_vec(n, rng);
        const auto anchor = random_vec(n, rng);
        std::vector<float> edge(n);
        for (size_t i = 0; i < n; ++i)
            edge[i] = specials[(i * 7) % std::size(specials)];

        auto run_all = [&](KernelArch arch) {
            kernels::set_kernel_arch(arch);
            std::vector<float> y = y0, v(n, 0.1f), w = y0, r = edge;
            std::vector<float> dr = x;
            std::vector<uint8_t> mask(n), rmask(n);
            std::vector<double> acc(n, 0.25);
            kernels::axpy(n, 0.37f, x.data(), y.data());
            kernels::scale(n, -1.21f, y.data());
            kernels::vadd(n, x.data(), y.data());
            kernels::vsub(n, y0.data(), y.data());
            kernels::add_bias_rows(rows, cols, x.data(), y.data());
            kernels::accumulate_rows(rows, cols, x.data(), y.data());
            kernels::relu_forward(n, y.data(), mask.data());
            kernels::relu_backward(n, mask.data(), y.data());
            kernels::relu_forward(n, r.data(), rmask.data());
            kernels::relu_backward(n, rmask.data(), dr.data());
            kernels::sgd_step(n, w.data(), x.data(), v.data(), 0.05f, 1e-4f,
                              0.9f);
            kernels::sgd_step_prox(n, w.data(), x.data(), v.data(),
                                   anchor.data(), 0.05f, 1e-4f, 0.9f, 0.01f);
            kernels::axpy_f64(n, 0.125, x.data(), acc.data());
            kernels::diff_axpy_f64(n, 0.5, w.data(), x.data(), acc.data());
            std::vector<float> cast(n);
            kernels::cast_f64_to_f32(n, acc.data(), cast.data());
            kernels::apply_step_f64(n, w.data(), 0.75, acc.data());
            r.insert(r.end(), dr.begin(), dr.end());
            mask.insert(mask.end(), rmask.begin(), rmask.end());
            return std::tuple{y, w, v, mask, acc, cast, float_bits(r)};
        };

        const auto scalar = run_all(KernelArch::Scalar);
        const auto simd = run_all(kernels::best_kernel_arch());
        EXPECT_EQ(std::get<0>(scalar), std::get<0>(simd)) << "n=" << n;
        EXPECT_EQ(std::get<1>(scalar), std::get<1>(simd)) << "n=" << n;
        EXPECT_EQ(std::get<2>(scalar), std::get<2>(simd)) << "n=" << n;
        EXPECT_EQ(std::get<3>(scalar), std::get<3>(simd)) << "n=" << n;
        EXPECT_EQ(std::get<4>(scalar), std::get<4>(simd)) << "n=" << n;
        EXPECT_EQ(std::get<5>(scalar), std::get<5>(simd)) << "n=" << n;
        EXPECT_EQ(std::get<6>(scalar), std::get<6>(simd)) << "n=" << n;
    }
}

/** fedavg / fednova combine bits cannot depend on the variant. */
TEST(AggregationParity, FedAvgAndFedNovaBitIdentical)
{
    if (!has_simd())
        GTEST_SKIP() << "no SIMD variant on this CPU";
    ArchGuard guard;
    Rng rng(47);
    const size_t dim = 517;
    std::vector<LocalUpdate> updates(3);
    for (size_t j = 0; j < updates.size(); ++j) {
        updates[j].weights = random_vec(dim, rng);
        updates[j].num_samples = static_cast<int>(10 + 5 * j);
        updates[j].num_steps = static_cast<int>(1 + j);
    }

    kernels::set_kernel_arch(KernelArch::Scalar);
    double lambda_s = 0.0;
    const auto avg_s = fedavg_combine(updates, nullptr, &lambda_s);
    auto nova_s = random_vec(dim, rng);
    const auto nova_seed = nova_s;
    fednova_apply(nova_s, updates, nullptr);

    kernels::set_kernel_arch(kernels::best_kernel_arch());
    double lambda_v = 0.0;
    const auto avg_v = fedavg_combine(updates, nullptr, &lambda_v);
    auto nova_v = nova_seed;
    fednova_apply(nova_v, updates, nullptr);

    EXPECT_EQ(avg_s, avg_v);
    EXPECT_EQ(nova_s, nova_v);
    EXPECT_EQ(lambda_s, lambda_v);
}

struct ConvShape
{
    int batch, in_ch, out_ch, side, kernel, stride, pad, groups;
};

class ConvParityTest : public ::testing::TestWithParam<ConvShape>
{
};

/** Conv forward/backward agree across variants within tolerance. */
TEST_P(ConvParityTest, ForwardBackwardParity)
{
    ArchGuard guard;
    const auto c = GetParam();

    auto run = [&](KernelArch arch) {
        kernels::set_kernel_arch(arch);
        Conv2D layer(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad,
                     c.groups);
        Rng rng(48);
        layer.init_weights(rng);
        Tensor x({c.batch, c.in_ch, c.side, c.side});
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform(-1, 1));
        Tensor y = layer.forward(x);
        layer.zero_grad();
        Tensor dy = y;  // Arbitrary smooth upstream gradient.
        Tensor dx = layer.backward(dy);
        std::vector<float> flat(y.vec().begin(), y.vec().end());
        flat.insert(flat.end(), dx.vec().begin(), dx.vec().end());
        for (Tensor *g : layer.grads())
            flat.insert(flat.end(), g->vec().begin(), g->vec().end());
        return flat;
    };

    const auto scalar = run(KernelArch::Scalar);
    const auto simd = run(kernels::best_kernel_arch());
    expect_rel_close(scalar, simd, 1e-4, "conv");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParityTest,
    ::testing::Values(ConvShape{2, 3, 4, 9, 3, 1, 1, 1},
                      ConvShape{1, 4, 8, 8, 1, 1, 0, 1},   // pointwise
                      ConvShape{2, 4, 4, 7, 3, 1, 1, 4},   // depthwise
                      ConvShape{1, 6, 6, 10, 3, 2, 1, 2},  // strided group
                      ConvShape{3, 1, 2, 12, 5, 2, 2, 1},
                      ConvShape{16, 1, 8, 12, 3, 1, 1, 1},   // CNN conv1
                      ConvShape{16, 8, 16, 6, 3, 1, 1, 1})); // CNN conv2

/**
 * The direct grouped convolution on every arch the box runs gives the
 * scalar table's bits: y, dx, dW and db. The shapes give rows and
 * spans that are not a multiple of 8 or 16, k = 1, 3 and 5, more than
 * one input channel per group, a channel multiplier, stride 2, pad 0,
 * a single output row and planes too large to stage in one block.
 * Without dx (a model's first layer) dW and db keep their bits. The
 * reference runs on fresh scratch and the arches on one scratch shared
 * by every shape, so stale contents of an earlier shape must not leak.
 */
TEST(DirectConv, BitIdenticalOnEveryArch)
{
    ArchGuard guard;
    struct Case
    {
        int batch, in_ch, out_ch, groups, ih, iw, k, stride, pad;
    };
    const Case cases[] = {
        {2, 4, 4, 4, 13, 13, 3, 1, 1}, {3, 6, 6, 2, 9, 9, 5, 1, 2},
        {2, 8, 16, 8, 7, 7, 1, 1, 0},  {2, 4, 8, 2, 11, 10, 3, 2, 1},
        {2, 5, 5, 5, 17, 17, 3, 1, 0}, {1, 3, 3, 3, 40, 37, 3, 1, 1},
        {1, 2, 2, 2, 1, 37, 3, 1, 1},  {2, 2, 2, 2, 1, 1, 3, 1, 1},
    };
    Rng rng(55);
    kernels::ConvScratch shared;
    for (const Case &c : cases) {
        const kernels::ConvGeometry g{c.batch, c.in_ch, c.out_ch, c.groups,
                                      c.ih,    c.iw,    c.k,      c.stride,
                                      c.pad};
        const size_t xs = static_cast<size_t>(c.batch) * c.in_ch * c.ih * c.iw;
        const size_t ys = static_cast<size_t>(c.batch) * c.out_ch * g.oh() *
            g.ow();
        const size_t ws =
            static_cast<size_t>(c.out_ch) * (c.in_ch / c.groups) * c.k * c.k;
        const auto x = random_vec(xs, rng);
        auto w = random_vec(ws, rng);
        for (size_t i = 0; i < ws; i += 3)
            w[i] = 0.0f;  // Zero taps are skipped, not multiplied.
        const auto bias = random_vec(static_cast<size_t>(c.out_ch), rng);
        const auto dy = random_vec(ys, rng);
        const auto dw0 = random_vec(ws, rng);  // Backward accumulates.
        const auto db0 = random_vec(bias.size(), rng);

        struct Pass
        {
            std::vector<float> y, dx, dw, db;
        };
        auto run = [&](KernelArch arch, bool with_dx,
                       kernels::ConvScratch &scratch) {
            kernels::set_kernel_arch(arch);
            Pass p{std::vector<float>(ys), std::vector<float>(xs), dw0, db0};
            kernels::conv_direct(g, x.data(), w.data(), bias.data(),
                                 p.y.data(), scratch);
            kernels::conv_direct_backward(g, x.data(), w.data(), dy.data(),
                                          p.dw.data(), p.db.data(),
                                          with_dx ? p.dx.data() : nullptr,
                                          scratch);
            return p;
        };

        kernels::ConvScratch fresh;
        const Pass ref = run(KernelArch::Scalar, true, fresh);
        for (KernelArch arch : kernels::supported_kernel_archs()) {
            SCOPED_TRACE(::testing::Message()
                         << kernels::kernel_arch_name(arch) << " B="
                         << c.batch << " " << c.in_ch << "->" << c.out_ch
                         << " g=" << c.groups << " " << c.ih << "x" << c.iw
                         << " k=" << c.k << " s=" << c.stride
                         << " p=" << c.pad);
            const Pass got = run(arch, true, shared);
            EXPECT_EQ(got.y, ref.y);
            EXPECT_EQ(got.dx, ref.dx);
            EXPECT_EQ(got.dw, ref.dw);
            EXPECT_EQ(got.db, ref.db);

            const Pass first = run(arch, false, shared);
            EXPECT_EQ(first.dw, got.dw);
            EXPECT_EQ(first.db, got.db);
        }
    }
}

/**
 * LSTM forward/backward agree across variants within tolerance, at a
 * small shape, at the model's two layers (B = 2 and 16, where the
 * recurrent step GEMMs take different paths) and at T = B = 1.
 */
TEST(LstmParity, ForwardBackwardParity)
{
    ArchGuard guard;

    struct Shape
    {
        int time, batch, in, hidden;
    };
    auto run = [&](KernelArch arch, const Shape &s, bool seq) {
        kernels::set_kernel_arch(arch);
        Lstm layer(s.in, s.hidden, seq);
        Rng rng(49);
        layer.init_weights(rng);
        Tensor x({s.time, s.batch, s.in});
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform(-1, 1));
        Tensor y = layer.forward(x);
        layer.zero_grad();
        Tensor dx = layer.backward(y);
        std::vector<float> flat(y.vec().begin(), y.vec().end());
        flat.insert(flat.end(), dx.vec().begin(), dx.vec().end());
        for (Tensor *g : layer.grads())
            flat.insert(flat.end(), g->vec().begin(), g->vec().end());
        return flat;
    };

    for (const Shape &s : {Shape{4, 3, 5, 7}, Shape{8, 2, 26, 48},
                           Shape{8, 16, 48, 48}, Shape{1, 1, 26, 48}}) {
        for (bool seq : {false, true}) {
            const auto scalar = run(KernelArch::Scalar, s, seq);
            const auto simd = run(kernels::best_kernel_arch(), s, seq);
            expect_rel_close(scalar, simd, 1e-4,
                             seq ? "lstm-seq" : "lstm-last");
        }
    }
}

/** im2col of a 1x1/s1/p0 conv is the identity; col2im inverts it. */
TEST(Im2Col, PointwiseIdentityAndRoundTrip)
{
    Rng rng(50);
    const int ch = 3, ih = 5, iw = 4;
    const auto x = random_vec(static_cast<size_t>(ch) * ih * iw, rng);
    std::vector<float> col(x.size(), 0.0f);
    kernels::im2col(x.data(), ch, ih, iw, 1, 1, 0, col.data(), ih * iw);
    EXPECT_EQ(std::vector<float>(col.begin(), col.end()), x);

    // col2im_add of an im2col'ed buffer counts each input tap once per
    // kernel window covering it; for k=1 that is exactly once.
    std::vector<float> back(x.size(), 0.0f);
    kernels::col2im_add(col.data(), ch, ih, iw, 1, 1, 0, back.data(),
                        ih * iw);
    EXPECT_EQ(back, x);
}

/** Padded taps in the column buffer are exact zeros. */
TEST(Im2Col, PaddingIsZero)
{
    Rng rng(51);
    const int ch = 1, ih = 3, iw = 3, k = 3, pad = 1;
    std::vector<float> x(9);
    for (auto &v : x)
        v = 1.0f + static_cast<float>(rng.uniform(0, 1));
    std::vector<float> col(static_cast<size_t>(k) * k * 9, -1.0f);
    kernels::im2col(x.data(), ch, ih, iw, k, 1, pad, col.data(), 9);
    // Top-left output pixel, top-left kernel tap reads x[-1,-1]: zero.
    EXPECT_EQ(col[0], 0.0f);
    // Center tap (ky=1, kx=1) at output (0,0) is x[0,0]: no padding.
    EXPECT_EQ(col[(1 * 3 + 1) * 9 + 0], x[0]);
}

/**
 * A row stride ld > oh * ow embeds one sample's columns in a wider
 * batch matrix: im2col writes exactly the dense buffer's values into
 * its own column block and touches no other column, and col2im_add
 * folds that block back to what the dense buffer folds to.
 */
TEST(Im2Col, RowStrideEmbedsSampleInWideBuffer)
{
    Rng rng(52);
    const int ch = 2, ih = 7, iw = 6, k = 3, stride = 2, pad = 1;
    const int oh = kernels::conv_out_size(ih, k, stride, pad);
    const int ow = kernels::conv_out_size(iw, k, stride, pad);
    const size_t ospatial = static_cast<size_t>(oh) * ow;
    const size_t patch = static_cast<size_t>(ch) * k * k;
    const size_t ld = 3 * ospatial;  // Sample 1 of a batch of 3.
    const auto x = random_vec(static_cast<size_t>(ch) * ih * iw, rng);

    std::vector<float> dense(patch * ospatial);
    kernels::im2col(x.data(), ch, ih, iw, k, stride, pad, dense.data(),
                    ospatial);
    const float sentinel = -7.0f;
    std::vector<float> wide(patch * ld, sentinel);
    kernels::im2col(x.data(), ch, ih, iw, k, stride, pad,
                    wide.data() + ospatial, ld);
    for (size_t r = 0; r < patch; ++r) {
        for (size_t j = 0; j < ld; ++j) {
            const float got = wide[r * ld + j];
            if (j >= ospatial && j < 2 * ospatial)
                ASSERT_EQ(got, dense[r * ospatial + j - ospatial])
                    << "row " << r << " col " << j;
            else
                ASSERT_EQ(got, sentinel) << "row " << r << " col " << j;
        }
    }

    std::vector<float> from_dense(x.size(), 0.0f), from_wide(x.size(), 0.0f);
    kernels::col2im_add(dense.data(), ch, ih, iw, k, stride, pad,
                        from_dense.data(), ospatial);
    kernels::col2im_add(wide.data() + ospatial, ch, ih, iw, k, stride, pad,
                        from_wide.data(), ld);
    EXPECT_EQ(from_wide, from_dense);
}

/** The env override is visible through the arch API. */
TEST(ArchSelection, SetArchClampsAndReports)
{
    ArchGuard guard;
    EXPECT_EQ(kernels::set_kernel_arch(KernelArch::Scalar),
              KernelArch::Scalar);
    EXPECT_EQ(kernels::current_kernel_arch(), KernelArch::Scalar);
    // A supported request installs exactly that variant; an unsupported
    // one clamps to the widest the box can run — never a crash.
    for (KernelArch arch : {KernelArch::Scalar, KernelArch::Avx2,
                            KernelArch::Avx512}) {
        const KernelArch got = kernels::set_kernel_arch(arch);
        if (kernels::kernel_arch_supported(arch))
            EXPECT_EQ(got, arch) << kernels::kernel_arch_name(arch);
        else
            EXPECT_EQ(got, kernels::best_kernel_arch())
                << kernels::kernel_arch_name(arch);
        EXPECT_EQ(kernels::current_kernel_arch(), got);
    }
}

/**
 * AUTOFL_KERNEL_ARCH resolution never crashes: unknown names (including
 * "neon", which names no variant), empty and null requests, and ISA
 * requests the box cannot honor (e.g. "avx512" on a non-AVX-512 host)
 * all fall back to the best supported variant.
 */
TEST(ArchSelection, EnvResolutionFallsBackToBest)
{
    const KernelArch best = kernels::best_kernel_arch();
    EXPECT_EQ(kernels::resolve_kernel_arch_request(nullptr), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request(""), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("auto"), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("best"), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("sse9000"), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("neon"), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("AVX2 "), best);
    for (KernelArch arch : {KernelArch::Scalar, KernelArch::Avx2,
                            KernelArch::Avx512}) {
        const KernelArch got = kernels::resolve_kernel_arch_request(
            kernels::kernel_arch_name(arch));
        if (kernels::kernel_arch_supported(arch))
            EXPECT_EQ(got, arch) << kernels::kernel_arch_name(arch);
        else
            EXPECT_EQ(got, best) << kernels::kernel_arch_name(arch);
    }
}

/** Every advertised variant actually installs and computes. */
TEST(ArchSelection, SupportedArchsAllRun)
{
    ArchGuard guard;
    const auto archs = kernels::supported_kernel_archs();
    std::vector<KernelArch> expected;
    for (KernelArch arch : {KernelArch::Scalar, KernelArch::Avx2,
                            KernelArch::Avx512})
        if (kernels::kernel_arch_supported(arch))
            expected.push_back(arch);
    EXPECT_EQ(archs, expected);
    ASSERT_FALSE(archs.empty());
    EXPECT_EQ(archs.front(), KernelArch::Scalar);
    EXPECT_EQ(archs.back(), kernels::best_kernel_arch());
    for (KernelArch arch : archs) {
        ASSERT_EQ(kernels::set_kernel_arch(arch), arch);
        const float a = 2.0f, b = 3.0f;
        float out = -1.0f;
        kernels::gemm(1, 1, 1, &a, 1, &b, 1, &out, 1);
        EXPECT_EQ(out, 6.0f) << kernels::kernel_arch_name(arch);
    }
}

/**
 * Each kernel family honors the parity tier its table declares:
 * `exact` families must match the scalar baseline bit-for-bit, and
 * `tolerance` families within 1e-4 relative — for EVERY variant the box
 * can run, not just the widest.
 */
TEST(ParityTier, FamiliesHonorDeclaredTier)
{
    ArchGuard guard;
    Rng rng(52);
    const int m = 17, k = 67, n = 33;
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const size_t vn = 515;
    const auto x = random_vec(vn, rng);
    const int batch = 5, hidden = 19;
    const auto z0 = random_vec(static_cast<size_t>(batch) * 4 * hidden, rng);
    const auto cp = random_vec(static_cast<size_t>(batch) * hidden, rng);

    kernels::set_kernel_arch(KernelArch::Scalar);
    std::vector<float> gemm_ref(static_cast<size_t>(m) * n);
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, gemm_ref.data(), n);
    std::vector<float> axpy_ref = x;
    kernels::axpy(vn, 0.37f, x.data(), axpy_ref.data());
    const float amax_ref = kernels::absmax(vn, x.data());
    std::vector<int8_t> q_ref(vn);
    kernels::quantize_i8(vn, x.data(), 127.0f / amax_ref, q_ref.data());
    std::vector<float> z_ref = z0;
    std::vector<float> c_ref(static_cast<size_t>(batch) * hidden);
    std::vector<float> h_ref(c_ref.size());
    kernels::lstm_gate_forward(batch, hidden, z_ref.data(), cp.data(),
                               c_ref.data(), h_ref.data());

    for (KernelArch arch : kernels::supported_kernel_archs()) {
        kernels::set_kernel_arch(arch);
        const kernels::KernelParity &tier = kernels::kernel_parity(arch);
        const char *name = kernels::kernel_arch_name(arch);

        std::vector<float> gemm_v(gemm_ref.size());
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, gemm_v.data(), n);
        if (tier.gemm == kernels::ParityTier::Exact)
            EXPECT_EQ(gemm_ref, gemm_v) << name;
        else
            expect_rel_close(gemm_ref, gemm_v, 1e-4, name);

        // The elementwise and codec families are Exact on every table
        // shipped today; a future Tolerance-tier table would relax the
        // assertion here rather than silently failing.
        std::vector<float> axpy_v = x;
        kernels::axpy(vn, 0.37f, x.data(), axpy_v.data());
        std::vector<int8_t> q_v(vn);
        kernels::quantize_i8(vn, x.data(), 127.0f / amax_ref, q_v.data());
        ASSERT_EQ(tier.elementwise, kernels::ParityTier::Exact) << name;
        ASSERT_EQ(tier.codec, kernels::ParityTier::Exact) << name;
        EXPECT_EQ(axpy_ref, axpy_v) << name;
        EXPECT_EQ(amax_ref, kernels::absmax(vn, x.data())) << name;
        EXPECT_EQ(q_ref, q_v) << name;

        std::vector<float> z_v = z0, c_v(c_ref.size()), h_v(h_ref.size());
        kernels::lstm_gate_forward(batch, hidden, z_v.data(), cp.data(),
                                   c_v.data(), h_v.data());
        if (tier.transcendental == kernels::ParityTier::Exact) {
            EXPECT_EQ(z_ref, z_v) << name;
            EXPECT_EQ(h_ref, h_v) << name;
        } else {
            expect_rel_close(z_ref, z_v, 1e-4, name);
            expect_rel_close(h_ref, h_v, 1e-4, name);
        }
    }
}

/**
 * Force the packed-panel driver across ragged shapes straddling the
 * 6x16 and 8x32 register tiles (MR-1/MR/MR+1 and the NR edges, plus a
 * large-prime K that never divides the kc blocks) and check it against
 * the scalar reference in both accumulate modes, for all three operand
 * layouts.
 */
TEST(PackedGemmPath, RaggedShapesMatchScalar)
{
    if (!has_simd())
        GTEST_SKIP() << "no SIMD variant on this CPU";
    ArchGuard guard;
    const kernels::GemmPath saved =
        kernels::set_gemm_path(kernels::GemmPath::Packed);
    const int ms[] = {1, 5, 6, 7, 8, 9, 33};
    const int ns[] = {1, 15, 16, 17, 31, 32, 33};
    const int ks[] = {1, 48, 509};
    Rng rng(53);
    for (int m : ms) {
        for (int n : ns) {
            for (int k : ks) {
                const auto a = random_vec(static_cast<size_t>(m) * k, rng);
                const auto at = random_vec(static_cast<size_t>(k) * m, rng);
                const auto b = random_vec(static_cast<size_t>(k) * n, rng);
                const auto bt = random_vec(static_cast<size_t>(n) * k, rng);
                const auto base = random_vec(static_cast<size_t>(m) * n,
                                             rng);
                for (bool acc : {false, true}) {
                    auto run = [&](KernelArch arch) {
                        kernels::set_kernel_arch(arch);
                        std::vector<float> nn = base, tn = base, nt = base;
                        kernels::gemm(m, n, k, a.data(), k, b.data(), n,
                                      nn.data(), n, acc);
                        kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n,
                                         tn.data(), n, acc);
                        kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k,
                                         nt.data(), n, acc);
                        nn.insert(nn.end(), tn.begin(), tn.end());
                        nn.insert(nn.end(), nt.begin(), nt.end());
                        return nn;
                    };
                    const auto s = run(KernelArch::Scalar);
                    const auto v = run(kernels::best_kernel_arch());
                    expect_rel_close(s, v, 1e-4, "packed gemm");
                    if (::testing::Test::HasFailure())
                        FAIL() << "shape m=" << m << " n=" << n
                               << " k=" << k << " acc=" << acc;
                }
            }
        }
    }
    kernels::set_gemm_path(saved);
}

/**
 * Prepacked operand handles reproduce the dispatcher: bit-identically
 * where the handle degraded to a contiguous copy (scalar arch), within
 * the gemm tolerance tier where it panel-packed — including the
 * transposed gathers that serve the gemm_tn / gemm_nt call sites. A B
 * handle follows gemm()'s own path choice for its row count, so it is
 * bit-identical to gemm() / gemm_nt() under either path policy, panels
 * or borrowed.
 */
TEST(PackedGemmPath, PrepackedOperandsMatchGemm)
{
    ArchGuard guard;
    Rng rng(54);
    const int m = 37, k = 129, n = 53;
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto at = random_vec(static_cast<size_t>(k) * m, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto bt = random_vec(static_cast<size_t>(n) * k, rng);
    const auto base = random_vec(static_cast<size_t>(m) * n, rng);

    for (KernelArch arch : kernels::supported_kernel_archs()) {
        kernels::set_kernel_arch(arch);
        const char *name = kernels::kernel_arch_name(arch);
        auto check = [&](const std::vector<float> &ref,
                         const std::vector<float> &got, bool packed) {
            if (packed)
                expect_rel_close(ref, got, 1e-4, name);
            else
                EXPECT_EQ(ref, got) << name;
        };

        for (bool acc : {false, true}) {
            std::vector<float> ref = base, got = base;

            const auto pa = kernels::pack_gemm_a(m, k, a.data(), k);
            EXPECT_EQ(pa.rows(), m);
            EXPECT_EQ(pa.cols(), k);
            EXPECT_EQ(pa.packed(), arch != KernelArch::Scalar);
            kernels::gemm(m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                          acc);
            kernels::gemm_packed_a(pa, n, b.data(), n, got.data(), n, acc);
            check(ref, got, pa.packed());

            const auto pat =
                kernels::pack_gemm_a(m, k, at.data(), m, true);
            ref = base;
            got = base;
            kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n, ref.data(),
                             n, acc);
            kernels::gemm_packed_a(pat, n, b.data(), n, got.data(), n, acc);
            check(ref, got, pat.packed());

            for (kernels::GemmPath path :
                 {kernels::GemmPath::Auto, kernels::GemmPath::Packed}) {
                const kernels::GemmPath saved = kernels::set_gemm_path(path);
                const auto pb = kernels::pack_gemm_b(m, k, n, b.data(), n);
                EXPECT_EQ(pb.rows(), k);
                EXPECT_EQ(pb.cols(), n);
                if (path == kernels::GemmPath::Packed) {
                    EXPECT_EQ(pb.packed(), arch != KernelArch::Scalar);
                }
                ref = base;
                got = base;
                kernels::gemm(m, n, k, a.data(), k, b.data(), n, ref.data(),
                              n, acc);
                kernels::gemm_packed_b(m, a.data(), k, pb, got.data(), n,
                                       acc);
                EXPECT_EQ(ref, got) << name;

                const auto pbt =
                    kernels::pack_gemm_b(m, k, n, bt.data(), k, true);
                EXPECT_EQ(pbt.packed(), pb.packed());
                ref = base;
                got = base;
                kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k,
                                 ref.data(), n, acc);
                kernels::gemm_packed_b(m, a.data(), k, pbt, got.data(), n,
                                       acc);
                EXPECT_EQ(ref, got) << name;
                kernels::set_gemm_path(saved);
            }
        }
    }
}

/**
 * Panels hold the same floats whatever the source layout, so under the
 * packed path gemm(A, B), gemm_tn(A^T) and gemm_nt(B^T), with the
 * transposes materialized, are bit-identical, and so are the prepacked
 * handles of either layout. Shapes straddle both register tiles, the
 * 8-wide packing vectors and the kc blocks (k = 509), in both
 * accumulate modes.
 */
TEST(PackedGemmPath, OperandLayoutsPackIdentically)
{
    if (!has_simd())
        GTEST_SKIP() << "no SIMD variant on this CPU";
    ArchGuard guard;
    const kernels::GemmPath saved =
        kernels::set_gemm_path(kernels::GemmPath::Packed);
    const int ms[] = {1, 5, 6, 7, 8, 9, 17, 33};
    const int ns[] = {1, 15, 16, 17, 31, 32, 33};
    const int ks[] = {1, 7, 8, 9, 48, 257, 509};
    Rng rng(55);
    for (KernelArch arch : kernels::supported_kernel_archs()) {
        if (arch == KernelArch::Scalar)
            continue;
        kernels::set_kernel_arch(arch);
        int cases = 0;
        int differ = 0;
        for (int m : ms) {
            for (int n : ns) {
                for (int k : ks) {
                    const auto a =
                        random_vec(static_cast<size_t>(m) * k, rng);
                    const auto b =
                        random_vec(static_cast<size_t>(k) * n, rng);
                    const auto base =
                        random_vec(static_cast<size_t>(m) * n, rng);
                    std::vector<float> at(a.size()), bt(b.size());
                    for (int i = 0; i < m; ++i)
                        for (int kk = 0; kk < k; ++kk)
                            at[static_cast<size_t>(kk) * m + i] =
                                a[static_cast<size_t>(i) * k + kk];
                    for (int kk = 0; kk < k; ++kk)
                        for (int j = 0; j < n; ++j)
                            bt[static_cast<size_t>(j) * k + kk] =
                                b[static_cast<size_t>(kk) * n + j];
                    const auto pa = kernels::pack_gemm_a(m, k, a.data(), k);
                    const auto pat =
                        kernels::pack_gemm_a(m, k, at.data(), m, true);
                    const auto pb =
                        kernels::pack_gemm_b(m, k, n, b.data(), n);
                    const auto pbt =
                        kernels::pack_gemm_b(m, k, n, bt.data(), k, true);
                    for (bool acc : {false, true}) {
                        std::vector<float> ref = base;
                        kernels::gemm(m, n, k, a.data(), k, b.data(), n,
                                      ref.data(), n, acc);
                        std::vector<std::vector<float>> got(6, base);
                        kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n,
                                         got[0].data(), n, acc);
                        kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k,
                                         got[1].data(), n, acc);
                        kernels::gemm_packed_a(pa, n, b.data(), n,
                                               got[2].data(), n, acc);
                        kernels::gemm_packed_a(pat, n, b.data(), n,
                                               got[3].data(), n, acc);
                        kernels::gemm_packed_b(m, a.data(), k, pb,
                                               got[4].data(), n, acc);
                        kernels::gemm_packed_b(m, a.data(), k, pbt,
                                               got[5].data(), n, acc);
                        ++cases;
                        for (size_t g = 0; g < got.size(); ++g) {
                            if (got[g] == ref)
                                continue;
                            ++differ;
                            ADD_FAILURE()
                                << kernels::kernel_arch_name(arch)
                                << " form " << g << " m=" << m << " n=" << n
                                << " k=" << k << " acc=" << acc;
                            break;
                        }
                    }
                }
            }
        }
        EXPECT_EQ(differ, 0) << kernels::kernel_arch_name(arch) << ": "
                             << differ << " of " << cases << " cases";
    }
    kernels::set_gemm_path(saved);
}

} // namespace
} // namespace autofl
