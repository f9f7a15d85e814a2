/**
 * @file
 * Serving-plane tests: snapshot-handle semantics (versioning, refresh,
 * lifetime under concurrent pipelined training — the TSan target), and
 * the batched InferenceEngine's parity contract against the per-sample
 * path (bit-identical on the scalar arch, 1e-4 relative on SIMD;
 * deterministic evaluation at any fan-out).
 */
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/system.h"
#include "kernels/arch.h"
#include "ps/ps_server.h"
#include "serve/model_service.h"
#include "test_util.h"

namespace autofl {
namespace {

using testing::random_weights;
using testing::ScopedKernelArch;
using testing::small_test_set;

/** Handle weights materialized for vector comparisons (the handle
 *  itself exposes a span view since the artifact-backed source). */
std::vector<float>
as_vec(const SnapshotHandle &h)
{
    const auto w = h.weights();
    return {w.begin(), w.end()};
}

// ------------------------------------------------------ model service --

TEST(ModelService, PublishVersionsOnlyRealChanges)
{
    ModelService ms(Workload::CnnMnist);
    EXPECT_FALSE(ms.store_backed());
    EXPECT_FALSE(ms.acquire().valid());  // Nothing published yet.

    std::vector<float> w = random_weights(Workload::CnnMnist, 1);
    EXPECT_EQ(ms.publish(w), 1u);
    EXPECT_EQ(ms.publish(w), 1u);  // Identical re-publish: same version.
    w[0] += 1.0f;
    EXPECT_EQ(ms.publish(w), 2u);
    EXPECT_EQ(ms.latest_epoch(), 2u);

    const SnapshotHandle h = ms.acquire();
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(h.epoch(), 2u);
    EXPECT_EQ(as_vec(h), w);
}

TEST(ModelService, RefreshHonorsMaxSnapshotLag)
{
    ServeConfig cfg;
    cfg.max_snapshot_lag = 2;
    ModelService ms(Workload::CnnMnist, cfg);
    std::vector<float> w = random_weights(Workload::CnnMnist, 2);

    SnapshotHandle h;
    ms.publish(w);
    EXPECT_TRUE(ms.refresh(h));  // Invalid handles always refresh.
    EXPECT_EQ(h.epoch(), 1u);

    // Two more versions: lag 2 is still within the configured bound.
    w[0] += 1.0f;
    ms.publish(w);
    w[0] += 1.0f;
    ms.publish(w);
    EXPECT_FALSE(ms.refresh(h));
    EXPECT_EQ(h.epoch(), 1u);

    // A third version exceeds the lag: the handle swaps to latest.
    w[0] += 1.0f;
    ms.publish(w);
    EXPECT_TRUE(ms.refresh(h));
    EXPECT_EQ(h.epoch(), 4u);
}

TEST(ModelService, HandleKeepsOldVersionAliveAfterNewPublishes)
{
    ModelService ms(Workload::CnnMnist);
    std::vector<float> w = random_weights(Workload::CnnMnist, 3);
    ms.publish(w);
    const SnapshotHandle old = ms.acquire();
    const std::vector<float> expect = as_vec(old);

    for (int i = 0; i < 4; ++i) {
        w[static_cast<size_t>(i)] += 1.0f;
        ms.publish(w);
    }
    // The old handle still reads its own immutable version.
    EXPECT_EQ(old.epoch(), 1u);
    EXPECT_EQ(as_vec(old), expect);
    EXPECT_EQ(ms.latest_epoch(), 5u);
}

TEST(ModelService, StoreAttachVisibleToConcurrentAcquire)
{
    // The store_ pointer is written once by attach_store and read by
    // every acquire()/store_backed() without the service mutex; the
    // TSan target for that pairing. Readers spin on acquire() while
    // the main thread attaches: they must transition from the invalid
    // local source to the store's epoch-0 snapshot, never tearing.
    const std::vector<float> w = random_weights(Workload::CnnMnist, 21);
    ShardedStore store(w, 4);
    ModelService ms(Workload::CnnMnist);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                const SnapshotHandle h = ms.acquire();
                if (h.valid()) {
                    ASSERT_EQ(h.weights().size(), w.size());
                    ASSERT_EQ(as_vec(h), w);
                }
            }
        });
    }
    ms.attach_store(&store);
    // Every reader must observe the attached store promptly.
    while (!ms.acquire().valid()) {
    }
    EXPECT_TRUE(ms.store_backed());
    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();
    EXPECT_EQ(as_vec(ms.acquire()), w);
}

// ------------------------------------------------- batched inference --

/** Batched and per-sample logits for the same samples. */
struct ParityLogits
{
    Tensor batched;                   ///< {n, classes}.
    std::vector<Tensor> per_sample;   ///< n x {1, classes}.
};

ParityLogits
parity_logits(Workload w, int n)
{
    ParityLogits out;
    const Dataset test = small_test_set(w, n);
    ServeConfig cfg;
    cfg.batch_size = n;
    cfg.workers = 1;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 7));
    const SnapshotHandle h = ms.acquire();

    std::vector<int> all(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        all[static_cast<size_t>(i)] = i;
    out.batched = ms.engine().forward(h, test.batch_x(all));
    for (int i = 0; i < n; ++i)
        out.per_sample.push_back(ms.engine().forward(h, test.batch_x({i})));
    return out;
}

TEST(InferenceEngine, BatchedMatchesPerSampleBitwiseOnScalar)
{
    ScopedKernelArch scalar(kernels::KernelArch::Scalar);
    for (Workload w : all_workloads()) {
        const int n = 17;  // Odd: exercises no special batch shape.
        const ParityLogits p = parity_logits(w, n);
        const int classes = p.batched.dim(1);
        for (int i = 0; i < n; ++i) {
            for (int c = 0; c < classes; ++c) {
                EXPECT_EQ(p.batched.at2(i, c),
                          p.per_sample[static_cast<size_t>(i)].at2(0, c))
                    << workload_name(w) << " sample " << i << " class "
                    << c;
            }
        }
    }
}

TEST(InferenceEngine, BatchedMatchesPerSampleWithin1e4OnAnyArch)
{
    // Runs on whatever the dispatch selected (AVX2 where available):
    // GEMM variants may tile rows differently per batch shape, so the
    // contract is the kernels' cross-variant tolerance, not bits.
    for (Workload w : all_workloads()) {
        const int n = 13;
        const ParityLogits p = parity_logits(w, n);
        const int classes = p.batched.dim(1);
        for (int i = 0; i < n; ++i) {
            for (int c = 0; c < classes; ++c) {
                const float a = p.batched.at2(i, c);
                const float b =
                    p.per_sample[static_cast<size_t>(i)].at2(0, c);
                const float tol = 1e-4f *
                    std::max(1.0f, std::max(std::fabs(a), std::fabs(b)));
                EXPECT_NEAR(a, b, tol)
                    << workload_name(w) << " sample " << i;
            }
        }
    }
}

TEST(InferenceEngine, InferMatchesForwardBitwiseOnScalar)
{
    // On the scalar arch infer() reduces every output element in the
    // same order as forward() — dropping the backward caches, widening
    // the conv GEMM across the batch and the inference gate kernel all
    // preserve the bits.
    ScopedKernelArch scalar(kernels::KernelArch::Scalar);
    for (Workload w : all_workloads()) {
        Sequential a = make_model(w);
        Sequential b = make_model(w);
        Rng rng(11);
        a.init_weights(rng);
        b.set_flat_weights(a.flat_weights());

        const Dataset test = small_test_set(w, 9);
        std::vector<int> idx = {0, 1, 2, 3, 4, 5, 6, 7, 8};
        Tensor y_fwd = a.forward(test.batch_x(idx));
        Tensor y_inf = b.infer(test.batch_x(idx));
        ASSERT_EQ(y_fwd.shape(), y_inf.shape());
        for (size_t i = 0; i < y_fwd.size(); ++i)
            ASSERT_EQ(y_fwd[i], y_inf[i]) << workload_name(w);
    }
}

TEST(InferenceEngine, InferMatchesForwardWithin1e4OnAnyArch)
{
    // SIMD variants may tile the batched conv GEMM differently and run
    // the polynomial-exp gate kernel, so cross-path agreement on any
    // arch is the kernels' 1e-4 relative contract.
    for (Workload w : all_workloads()) {
        Sequential a = make_model(w);
        Sequential b = make_model(w);
        Rng rng(11);
        a.init_weights(rng);
        b.set_flat_weights(a.flat_weights());

        const Dataset test = small_test_set(w, 9);
        std::vector<int> idx = {0, 1, 2, 3, 4, 5, 6, 7, 8};
        Tensor y_fwd = a.forward(test.batch_x(idx));
        Tensor y_inf = b.infer(test.batch_x(idx));
        ASSERT_EQ(y_fwd.shape(), y_inf.shape());
        for (size_t i = 0; i < y_fwd.size(); ++i) {
            const float tol = 1e-4f *
                std::max(1.0f, std::max(std::fabs(y_fwd[i]),
                                        std::fabs(y_inf[i])));
            ASSERT_NEAR(y_fwd[i], y_inf[i], tol) << workload_name(w);
        }
    }
}

TEST(InferenceEngine, EvaluateStampsEpochOnlyForValidHandles)
{
    const Dataset test = small_test_set(Workload::CnnMnist, 12);
    ServeConfig cfg;
    cfg.workers = 1;
    ModelService ms(Workload::CnnMnist, cfg);

    // Invalid handle: nothing ran, and the epoch stays 0 — a garbage
    // epoch stamp would make this indistinguishable from a real
    // epoch-N score of zero samples.
    const EvalStats none = ms.evaluate(ms.acquire(), test);
    EXPECT_EQ(none.samples, 0);
    EXPECT_EQ(none.epoch, 0u);

    // Valid handle: the scored snapshot's epoch is stamped, including
    // through epoch bumps.
    std::vector<float> w = random_weights(Workload::CnnMnist, 19);
    ms.publish(w);
    w[0] += 1.0f;
    ms.publish(w);
    const SnapshotHandle h = ms.acquire();
    const EvalStats real = ms.evaluate(h, test);
    EXPECT_EQ(real.samples, 12);
    EXPECT_EQ(real.epoch, 2u);
    EXPECT_EQ(real.epoch, h.epoch());
}

TEST(InferenceEngine, EvaluateDeterministicAcrossFanOutAndSlots)
{
    const Dataset test = small_test_set(Workload::CnnMnist, 230);
    ServeConfig cfg;
    cfg.batch_size = 32;
    cfg.workers = 4;
    ModelService ms(Workload::CnnMnist, cfg);
    ms.publish(random_weights(Workload::CnnMnist, 5));
    const SnapshotHandle h = ms.acquire();

    const EvalStats serial = ms.evaluate(h, test, 1);
    const EvalStats wide = ms.evaluate(h, test, 4);
    EXPECT_EQ(serial.samples, 230);
    EXPECT_EQ(serial.correct, wide.correct);
    EXPECT_DOUBLE_EQ(serial.accuracy, wide.accuracy);
    EXPECT_DOUBLE_EQ(serial.mean_loss, wide.mean_loss);
    EXPECT_EQ(serial.epoch, h.epoch());

    // Accuracy agrees with explicit per-sample argmax classification.
    std::vector<int> all(static_cast<size_t>(test.size()));
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<int>(i);
    const std::vector<int> cls = ms.classify(h, test, all);
    int correct = 0;
    for (size_t i = 0; i < all.size(); ++i)
        correct += cls[i] == test.y[i] ? 1 : 0;
    EXPECT_EQ(serial.correct, correct);
}

TEST(InferenceEngine, ScalarAccuracyIndependentOfBatchSize)
{
    // On the scalar arch logits are bit-identical across batch shapes,
    // so the accuracy count cannot move with batch_size.
    ScopedKernelArch scalar(kernels::KernelArch::Scalar);
    const Dataset test = small_test_set(Workload::LstmShakespeare, 120);
    const std::vector<float> w =
        random_weights(Workload::LstmShakespeare, 17);

    auto accuracy_at = [&](int batch_size) {
        ServeConfig cfg;
        cfg.batch_size = batch_size;
        cfg.workers = 1;
        ModelService ms(Workload::LstmShakespeare, cfg);
        ms.publish(w);
        return ms.evaluate(ms.acquire(), test).correct;
    };
    const int per_sample = accuracy_at(1);
    EXPECT_EQ(per_sample, accuracy_at(32));
    EXPECT_EQ(per_sample, accuracy_at(120));
}

// ------------------------------------- snapshot lifetime under load --

FlSystemConfig
pipelined_system()
{
    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 1, 6};
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 180;
    cfg.data.test_samples = 60;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = 6;
    cfg.seed = 31;
    cfg.threads = 4;
    cfg.ps.mode = SyncMode::SemiAsync;
    cfg.ps.staleness_bound = 1;
    cfg.ps.shards = 5;
    cfg.ps.pipeline_depth = 3;
    cfg.serve.batch_size = 16;
    cfg.serve.workers = 2;
    return cfg;
}

TEST(SnapshotLifetime, ConcurrentReadersSurviveStripedCommitWaves)
{
    // The TSan target: reader threads acquire/refresh/serve snapshot
    // handles while the pipelined runtime streams striped commit waves
    // underneath. Epochs must be monotone per reader and every held
    // handle must stay readable after training has moved on (the
    // refcount, not the store, owns the weights).
    constexpr int kRounds = 6;
    constexpr int kReaders = 3;
    FlSystem fl(pipelined_system());
    ASSERT_TRUE(fl.pipelined());
    ModelService &serve = fl.serve();

    const SnapshotHandle init = serve.acquire();
    ASSERT_TRUE(init.valid());
    EXPECT_EQ(init.epoch(), 0u);
    const std::vector<float> init_weights = as_vec(init);

    std::atomic<bool> stop{false};
    std::atomic<int> queries{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    const std::vector<int> probe = {0, 3, 7, 11, 19, 23};
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            SnapshotHandle h;
            uint64_t last_epoch = 0;
            while (!stop.load(std::memory_order_acquire)) {
                serve.refresh(h);
                ASSERT_TRUE(h.valid());
                ASSERT_GE(h.epoch(), last_epoch)
                    << "epoch rolled back under reader " << r;
                last_epoch = h.epoch();
                const std::vector<int> cls =
                    serve.classify(h, fl.test_set(), probe);
                ASSERT_EQ(cls.size(), probe.size());
                for (int c : cls)
                    ASSERT_GE(c, 0);
                queries.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    const std::vector<int> ids = {0, 1, 2, 3, 4, 5};
    for (int round = 0; round < kRounds; ++round)
        fl.submit_round(ids, static_cast<uint64_t>(round), nullptr);
    fl.drain();
    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();

    EXPECT_GT(queries.load(), 0);
    // Training committed real epochs past the readers' starting point.
    EXPECT_GT(serve.latest_epoch(), 0u);
    // The initial handle still reads epoch 0's exact weights.
    EXPECT_EQ(init.epoch(), 0u);
    EXPECT_EQ(as_vec(init), init_weights);
    for (float v : init.weights())
        ASSERT_TRUE(std::isfinite(v));
}

TEST(SnapshotLifetime, DestructionWithoutDrainIsSafe)
{
    // ~FlSystem tears the pipeline down with eval closures still
    // queued; those closures call into the serving plane, so the
    // ModelService must outlive the pipeline drain (destruction-order
    // regression test — fails as a use-after-free under TSan if the
    // members are re-ordered).
    FlSystem fl(pipelined_system());
    const std::vector<int> ids = {0, 1, 2, 3, 4, 5};
    for (int round = 0; round < 3; ++round)
        fl.submit_round(ids, static_cast<uint64_t>(round), nullptr);
    // No drain() — destruction does it.
}

TEST(SnapshotLifetime, StoreBackedServiceTracksCommitEpochs)
{
    FlSystem fl(pipelined_system());
    ModelService &serve = fl.serve();
    EXPECT_TRUE(serve.store_backed());

    const std::vector<int> ids = {0, 1, 2, 3, 4, 5};
    std::vector<uint64_t> final_epochs;
    std::mutex mu;
    for (int round = 0; round < 4; ++round) {
        fl.submit_round(ids, static_cast<uint64_t>(round),
                        [&](const PsRoundResult &res) {
                            std::lock_guard<std::mutex> lk(mu);
                            final_epochs.push_back(res.final_epoch);
                        });
    }
    fl.drain();
    ASSERT_EQ(final_epochs.size(), 4u);
    // After drain the latest snapshot is the last round's final commit.
    EXPECT_EQ(serve.latest_epoch(), final_epochs.back());
    // And FlSystem::evaluate scores exactly that snapshot.
    const double acc = fl.evaluate();
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(SnapshotLifetime, ClassicPsRuntimesServeTheirBarrierRounds)
{
    // The classic (depth 1) ps runtimes complete rounds at the same
    // barrier as Sync, so every round's model reaches the serving
    // plane — not only the driver's accuracy callback.
    const std::vector<int> ids = {0, 1, 2, 3, 4, 5};
    for (SyncMode mode : {SyncMode::SemiAsync, SyncMode::Async}) {
        FlSystemConfig cfg = pipelined_system();
        cfg.ps.mode = mode;
        cfg.ps.staleness_bound = 0;
        cfg.ps.pipeline_depth = 1;
        FlSystem fl(cfg);
        ASSERT_FALSE(fl.pipelined());
        for (int round = 0; round < 3; ++round)
            fl.submit_round(ids, static_cast<uint64_t>(round), nullptr);
        fl.drain();

        const uint64_t epoch = fl.serve().latest_epoch();
        EXPECT_GT(epoch, 0u) << sync_mode_name(mode);
        const InferenceReply reply =
            fl.serve().query(fl.test_set().batch_x({0, 1}));
        EXPECT_EQ(reply.status, ReplyStatus::Ok)
            << sync_mode_name(mode) << ": "
            << reply_status_name(reply.status);
        EXPECT_EQ(reply.epoch, epoch) << sync_mode_name(mode);
    }
}

} // namespace
} // namespace autofl
