/**
 * @file
 * Kernel and nn-layer probes of the traced runs: each times one public
 * entry point (kernels::gemm, encode_delta, Sequential::forward,
 * backward and infer) from outside at a shape the workloads run, and
 * reports the median of many short repetitions.
 */
#include <vector>

#include "data/synthetic.h"
#include "kernels/kernels.h"
#include "nn/models.h"
#include "ps/compression.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace autofl;

namespace {

constexpr double kProbeBudgetS = 0.15;
constexpr int kBatch = 16;  ///< The training batch B (setting S3).

/** Median seconds of one call of @p fn, timed in groups of @p group. */
template <typename Fn>
double
per_call_s(int group, Fn &&fn)
{
    return median(repeat_for(kProbeBudgetS, 5,
                             [&] {
                                 for (int i = 0; i < group; ++i)
                                     fn();
                             })) /
        group;
}

double
gemm_gflops(int m, int n, int k)
{
    std::vector<float> a(static_cast<size_t>(m) * k, 0.5f);
    std::vector<float> b(static_cast<size_t>(k) * n, 0.25f);
    std::vector<float> c(static_cast<size_t>(m) * n);
    const double s = per_call_s(20, [&] {
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    });
    return 2.0 * m * n * k / s * 1e-9;
}

Tensor
batch_of(Workload w, int n)
{
    SyntheticConfig dc;
    dc.train_samples = 16;
    dc.test_samples = 16;
    dc.seed = 5;
    const Dataset test = make_dataset(w, dc).test;
    std::vector<int> idx;
    for (int i = 0; i < n; ++i)
        idx.push_back(i % 16);
    return test.batch_x(idx);
}

/**
 * Forward and backward of one B-batch. Backward needs the forward's
 * caches, so it is timed as forward + backward minus the forward.
 */
void
train_probe(Report &rep, Workload w, const std::string &tag)
{
    Sequential model = make_model(w);
    Rng rng(7);
    model.init_weights(rng);
    const Tensor x = batch_of(w, kBatch);
    const Tensor grad({kBatch, model_num_classes(w)}, 0.01f);
    const double fwd = per_call_s(5, [&] { model.forward(x); });
    const double both = per_call_s(5, [&] {
        model.forward(x);
        model.backward(grad);
    });
    rep.metric("nn.fwd_ms." + tag, fwd * 1e3, "ms");
    rep.metric("nn.bwd_ms." + tag, (both - fwd) * 1e3, "ms");
}

/** Inference-only forward at batch 1 and B on a served model. */
void
infer_probe(Report &rep, Workload w, const std::string &tag)
{
    Sequential model = make_model(w);
    Rng rng(9);
    model.init_weights(rng);
    for (int b : {1, kBatch}) {
        const Tensor x = batch_of(w, b);
        rep.metric("nn.infer_ms.b" + std::to_string(b) + "." + tag,
                   per_call_s(10, [&] { model.infer(x); }) * 1e3, "ms");
    }
}

} // namespace

void
layer_probes(Report &rep, int lstm_rows)
{
    // CNN conv2 (8 -> 16 channels, 3x3, 6x6 map) batch-wide over B:
    // W {16, 72} x col {72, 36 * B}.
    rep.metric("kernels.gemm_gflops.conv", gemm_gflops(16, 36 * kBatch, 72),
               "GFLOP/s");
    // LSTM layer-2 step projection: [x|h] {rows, 96} x W {96, 192}.
    rep.metric("kernels.gemm_gflops.lstm", gemm_gflops(kBatch, 192, 96),
               "GFLOP/s");
    if (lstm_rows > 0)
        rep.metric("kernels.gemm_gflops.lstm_coalesced",
                   gemm_gflops(lstm_rows, 192, 96), "GFLOP/s");

    Sequential lstm = make_model(Workload::LstmShakespeare);
    Rng rng(3);
    lstm.init_weights(rng);
    const std::vector<float> delta = lstm.flat_weights();
    CompressionConfig int8;
    int8.mode = Compression::Int8;
    const double enc = per_call_s(10, [&] { encode_delta(int8, delta); });
    rep.metric("kernels.int8_encode_mb_s",
               delta.size() * sizeof(float) / enc * 1e-6, "MB/s");

    train_probe(rep, Workload::CnnMnist, "cnn");
    train_probe(rep, Workload::LstmShakespeare, "lstm");
    infer_probe(rep, Workload::LstmShakespeare, "lstm");
    infer_probe(rep, Workload::MobileNetImageNet, "mobilenet");
}

} // namespace perfbench
