/**
 * @file
 * Request-scheduling tests for the serving plane: the free-slot engine
 * claim (waiters progress on any freed slot), dynamic-batching
 * coalescing and deadline semantics, admission control under overload
 * (both shed policies), shutdown typing, and the determinism property —
 * same requests, same predictions, at any concurrency (bit-exact on the
 * scalar arch however timing composes the batches). Runs under TSan in
 * CI together with pipelined training.
 */
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/system.h"
#include "kernels/arch.h"
#include "ps/ps_server.h"
#include "serve/dynamic_batcher.h"
#include "serve/model_service.h"
#include "test_util.h"

namespace autofl {
namespace {

using testing::random_weights;
using testing::ScopedKernelArch;
using testing::small_test_set;

// ------------------------------------------------ free-slot claiming --

TEST(EngineClaim, WaitersProgressOnAnyFreedSlot)
{
    // Regression for the all-slots-busy fallback that parked every
    // waiter on one deterministic slot: with one of two slots pinned
    // for the whole test, N > slots concurrent forwards must all
    // complete through the other slot (the old code deadlocked the
    // waiters whose round-robin start landed on the pinned slot).
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 16);
    ServeConfig cfg;
    cfg.workers = 2;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 3));
    const SnapshotHandle h = ms.acquire();

    InferenceEngine::Lease pin(ms.engine(), h);  // Occupies slot 1 of 2.
    constexpr int kWaiters = 8;
    std::atomic<int> done{0};
    std::vector<std::thread> ts;
    ts.reserve(kWaiters);
    for (int i = 0; i < kWaiters; ++i) {
        ts.emplace_back([&, i] {
            Tensor logits = ms.engine().forward(h, test.batch_x({i}));
            ASSERT_EQ(logits.dim(0), 1);
            done.fetch_add(1);
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(done.load(), kWaiters);
}

// ------------------------------------------------ dynamic batching --

TEST(DynamicBatcher, CoalescesConcurrentSubmissionsIntoOneBatch)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 8);
    ServeConfig cfg;
    cfg.batch_size = 8;
    cfg.workers = 1;              // One dispatcher: one batch stream.
    cfg.batch_timeout_us = 100000;  // Plenty to gather all 8.
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 5));

    std::vector<std::future<InferenceReply>> futs;
    for (int i = 0; i < 8; ++i)
        futs.push_back(ms.submit(test.batch_x({i}), true));
    for (auto &f : futs) {
        const InferenceReply r = f.get();
        ASSERT_TRUE(r.ok()) << reply_status_name(r.status);
        EXPECT_EQ(r.epoch, 1u);
        EXPECT_EQ(r.logits.dim(0), 1);
        ASSERT_EQ(r.classes.size(), 1u);
        // All 8 single-row submissions ran as ONE coalesced pass.
        EXPECT_EQ(r.batch_rows, 8);
    }
    const ServeStats st = ms.serving_stats();
    EXPECT_EQ(st.submitted, 8u);
    EXPECT_EQ(st.admitted, 8u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.completed, 8u);
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.batched_rows, 8u);
    EXPECT_DOUBLE_EQ(st.mean_batch_rows(), 8.0);
}

TEST(DynamicBatcher, DeadlineClosesPartialBatch)
{
    // batch_size is far larger than the offered work: the deadline must
    // dispatch the partial batch instead of waiting for peers forever.
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 4);
    ServeConfig cfg;
    cfg.batch_size = 64;
    cfg.workers = 1;
    cfg.batch_timeout_us = 1000;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 6));

    auto f0 = ms.submit(test.batch_x({0}));
    auto f1 = ms.submit(test.batch_x({1}));
    const InferenceReply r0 = f0.get();
    const InferenceReply r1 = f1.get();
    ASSERT_TRUE(r0.ok());
    ASSERT_TRUE(r1.ok());
    EXPECT_LT(r0.batch_rows, 64);
    EXPECT_LT(r1.batch_rows, 64);
}

TEST(DynamicBatcher, MeasuredServiceTimeCapsTheCoalescingWait)
{
    // Until a batch has been timed, a lone request waits the whole
    // batch_timeout_us for peers. Afterwards an idle dispatcher waits at
    // most one batch's service time (milliseconds here), far less.
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 2);
    ServeConfig cfg;
    cfg.batch_size = 64;
    cfg.workers = 1;
    cfg.batch_timeout_us = 600000;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 6));

    using Clock = std::chrono::steady_clock;
    const auto timed_query = [&](int i) {
        const auto t0 = Clock::now();
        const InferenceReply r = ms.query(test.batch_x({i}));
        EXPECT_TRUE(r.ok()) << reply_status_name(r.status);
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    EXPECT_GE(timed_query(0), 0.6);  // No estimate yet: the full wait.
    EXPECT_LT(timed_query(1), 0.3);
    EXPECT_EQ(ms.serving_stats().batches, 2u);
}

TEST(DynamicBatcher, SplitsMultiRowSubmissionsExactly)
{
    // Mixed-size submissions coalesce into one pass and split back per
    // request; on the scalar arch the split slices must equal a direct
    // engine forward of the same rows bit-for-bit.
    ScopedKernelArch scalar(kernels::KernelArch::Scalar);
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 16);
    ServeConfig cfg;
    cfg.batch_size = 16;
    cfg.workers = 1;
    cfg.batch_timeout_us = 100000;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 7));
    const SnapshotHandle h = ms.acquire();

    const std::vector<std::vector<int>> groups = {
        {0}, {1, 2, 3}, {4, 5}, {6, 7, 8, 9, 10}};
    std::vector<std::future<InferenceReply>> futs;
    for (const auto &g : groups)
        futs.push_back(ms.submit(test.batch_x(g)));
    for (size_t gi = 0; gi < groups.size(); ++gi) {
        const InferenceReply r = futs[gi].get();
        ASSERT_TRUE(r.ok());
        const Tensor direct =
            ms.engine().forward(h, test.batch_x(groups[gi]));
        ASSERT_EQ(r.logits.shape(), direct.shape());
        for (size_t i = 0; i < direct.size(); ++i)
            ASSERT_EQ(r.logits[i], direct[i]) << "group " << gi;
    }
}

TEST(DynamicBatcher, CoalescesTimeMajorLstmAlongTheBatchAxis)
{
    // The LSTM's batch_x layout is time-major {seq, batch, vocab}:
    // coalescing must concatenate along axis 1, not axis 0 (which
    // would build one garbage longer "sequence" and misindex the
    // logits). Regression: each coalesced reply must equal a direct
    // engine forward of the same samples bit-for-bit on scalar.
    ScopedKernelArch scalar(kernels::KernelArch::Scalar);
    const Workload w = Workload::LstmShakespeare;
    const Dataset test = small_test_set(w, 12);
    ServeConfig cfg;
    cfg.batch_size = 12;
    cfg.workers = 1;
    cfg.batch_timeout_us = 100000;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 8));
    const SnapshotHandle h = ms.acquire();

    const std::vector<std::vector<int>> groups = {
        {0}, {1, 2, 3}, {4, 5}, {6}};
    std::vector<std::future<InferenceReply>> futs;
    for (const auto &g : groups)
        futs.push_back(ms.submit(test.batch_x(g), true));
    for (size_t gi = 0; gi < groups.size(); ++gi) {
        const InferenceReply r = futs[gi].get();
        ASSERT_TRUE(r.ok()) << reply_status_name(r.status);
        EXPECT_EQ(r.batch_rows, 7);  // All four submissions coalesced.
        ASSERT_EQ(r.classes.size(), groups[gi].size());
        const Tensor direct =
            ms.engine().forward(h, test.batch_x(groups[gi]));
        ASSERT_EQ(r.logits.shape(), direct.shape());
        for (size_t i = 0; i < direct.size(); ++i)
            ASSERT_EQ(r.logits[i], direct[i]) << "group " << gi;
    }
}

TEST(DynamicBatcher, NoPublishedModelRepliesTyped)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.batch_timeout_us = 0;
    ModelService ms(Workload::CnnMnist, cfg);
    const Dataset test = small_test_set(Workload::CnnMnist, 1);
    const InferenceReply r = ms.query(test.batch_x({0}));
    EXPECT_EQ(r.status, ReplyStatus::NoModel);
    EXPECT_EQ(r.epoch, 0u);
}

TEST(DynamicBatcher, WrongShapeRepliesBadRequestBeforeQueueing)
{
    // Coalescing concatenates raw buffers, so a tensor that does not
    // fit the served model must fail typed at submit — wrong rank,
    // wrong per-sample dims, zero samples, or another workload's
    // layout must never reach a dispatcher memcpy.
    ModelService ms(Workload::CnnMnist);
    ms.publish(random_weights(Workload::CnnMnist, 14));

    EXPECT_EQ(ms.query(Tensor({4})).status, ReplyStatus::BadRequest);
    EXPECT_EQ(ms.query(Tensor({1, 1, 7, 7})).status,
              ReplyStatus::BadRequest);
    EXPECT_EQ(ms.query(Tensor({0, 1, 12, 12})).status,
              ReplyStatus::BadRequest);
    const Dataset lstm = small_test_set(Workload::LstmShakespeare, 1);
    EXPECT_EQ(ms.query(lstm.batch_x({0})).status,
              ReplyStatus::BadRequest);
    // A correctly shaped request still serves.
    const Dataset test = small_test_set(Workload::CnnMnist, 1);
    EXPECT_TRUE(ms.query(test.batch_x({0})).ok());
    const ServeStats st = ms.serving_stats();
    EXPECT_EQ(st.submitted, 5u);
    EXPECT_EQ(st.admitted, 1u);
}

// ------------------------------------------------ admission control --

TEST(AdmissionControl, RejectNewShedsBeyondQueueDepth)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 32);
    ServeConfig cfg;
    cfg.batch_size = 4;
    cfg.workers = 1;
    cfg.queue_depth = 4;
    cfg.batch_timeout_us = 50000;
    cfg.shed = ShedPolicy::RejectNew;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 9));
    const SnapshotHandle h = ms.acquire();

    std::vector<std::future<InferenceReply>> futs;
    {
        // Pin the only slot: the dispatcher can gather one in-flight
        // batch but never run it, so the queue must fill and shed.
        InferenceEngine::Lease pin(ms.engine(), h);
        for (int i = 0; i < 32; ++i)
            futs.push_back(ms.submit(test.batch_x({i % 32})));
        // Everything beyond one in-flight batch + queue_depth is shed
        // by the time the flood ends; shed futures are already ready.
        const ServeStats mid = ms.serving_stats();
        EXPECT_GE(mid.shed,
                  static_cast<uint64_t>(32 - cfg.queue_depth -
                                        cfg.batch_size));
        // Pin released here: the dispatcher drains the admitted work.
    }
    int ok = 0, shed = 0;
    for (auto &f : futs) {
        const InferenceReply r = f.get();
        if (r.ok()) {
            ++ok;
            EXPECT_EQ(r.epoch, 1u);
        } else {
            EXPECT_EQ(r.status, ReplyStatus::Shed);
            ++shed;
        }
    }
    EXPECT_EQ(ok + shed, 32);
    // At most one gathered batch + a full queue were admitted; at
    // least a full queue was (the dispatcher may not have opened a
    // batch before the flood ended).
    EXPECT_LE(ok, cfg.queue_depth + cfg.batch_size);
    EXPECT_GE(ok, cfg.queue_depth);
    const ServeStats st = ms.serving_stats();
    EXPECT_EQ(st.submitted, 32u);
    EXPECT_EQ(st.shed, static_cast<uint64_t>(shed));
    EXPECT_EQ(st.completed, static_cast<uint64_t>(ok));
    EXPECT_EQ(st.admitted, static_cast<uint64_t>(ok));
}

TEST(AdmissionControl, DropOldestEvictsHeadAndServesFreshest)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 12);
    ServeConfig cfg;
    cfg.batch_size = 4;
    cfg.workers = 1;
    cfg.queue_depth = 4;
    cfg.batch_timeout_us = 50000;
    cfg.shed = ShedPolicy::DropOldest;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 10));
    const SnapshotHandle h = ms.acquire();

    std::vector<std::future<InferenceReply>> futs;
    {
        InferenceEngine::Lease pin(ms.engine(), h);
        for (int i = 0; i < 12; ++i)
            futs.push_back(ms.submit(test.batch_x({i})));
    }
    int ok = 0, shed = 0;
    for (auto &f : futs) {
        const InferenceReply r = f.get();
        (r.ok() ? ok : shed)++;
        if (!r.ok()) {
            EXPECT_EQ(r.status, ReplyStatus::Shed);
        }
    }
    EXPECT_EQ(ok + shed, 12);
    EXPECT_GT(shed, 0);
    const ServeStats st = ms.serving_stats();
    EXPECT_EQ(st.submitted, 12u);
    EXPECT_EQ(st.shed, static_cast<uint64_t>(shed));
    // Every submission was admitted (evictions made room), so admitted
    // counts all 12 while shed counts the evicted head requests.
    EXPECT_EQ(st.admitted, 12u);
}

TEST(AdmissionControl, DropOldestServesTheLastSubmission)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 12);
    ServeConfig cfg;
    cfg.batch_size = 2;
    cfg.workers = 1;
    cfg.queue_depth = 2;
    cfg.batch_timeout_us = 20000;
    cfg.shed = ShedPolicy::DropOldest;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 11));
    const SnapshotHandle h = ms.acquire();

    std::future<InferenceReply> last;
    {
        InferenceEngine::Lease pin(ms.engine(), h);
        for (int i = 0; i < 11; ++i)
            ms.submit(test.batch_x({i}));
        last = ms.submit(test.batch_x({11}));
    }
    EXPECT_TRUE(last.get().ok());
}

// ------------------------------------------------------- shutdown --

TEST(Shutdown, StopServingFailsLaterSubmitsTyped)
{
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 2);
    ModelService ms(w);
    ms.publish(random_weights(w, 12));

    EXPECT_TRUE(ms.query(test.batch_x({0})).ok());
    ms.stop_serving();
    ms.stop_serving();  // Idempotent.
    const InferenceReply r = ms.query(test.batch_x({1}));
    EXPECT_EQ(r.status, ReplyStatus::Shutdown);
    // Direct engine reads keep working after the batcher stops.
    EXPECT_GT(ms.evaluate(ms.acquire(), test).samples, 0);
}

TEST(Shutdown, PendingRequestsCompleteOnStop)
{
    // Liveness: stopping while requests are queued and a batch is
    // blocked on a pinned slot must not hang once the pin is released,
    // and every future completes with a typed status.
    const Workload w = Workload::CnnMnist;
    const Dataset test = small_test_set(w, 8);
    ServeConfig cfg;
    cfg.batch_size = 2;
    cfg.workers = 1;
    cfg.queue_depth = 8;
    cfg.batch_timeout_us = 1000;
    ModelService ms(w, cfg);
    ms.publish(random_weights(w, 13));
    const SnapshotHandle h = ms.acquire();

    std::vector<std::future<InferenceReply>> futs;
    auto pin = std::make_unique<InferenceEngine::Lease>(ms.engine(), h);
    for (int i = 0; i < 8; ++i)
        futs.push_back(ms.submit(test.batch_x({i})));
    std::thread stopper([&] { ms.stop_serving(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pin.reset();  // Unblock the in-flight batch; shutdown completes.
    stopper.join();
    int ok = 0, down = 0;
    for (auto &f : futs) {
        const InferenceReply r = f.get();
        ASSERT_TRUE(r.status == ReplyStatus::Ok ||
                    r.status == ReplyStatus::Shutdown)
            << reply_status_name(r.status);
        (r.ok() ? ok : down)++;
    }
    EXPECT_EQ(ok + down, 8);
}

// ---------------------------------------------------- determinism --

TEST(Determinism, SamePredictionsAtAnyConcurrency)
{
    // The acceptance property: on the scalar arch, inference logits are
    // bit-identical for any batch shape, so however timing coalesces
    // concurrent submissions the predicted classes cannot move.
    ScopedKernelArch scalar(kernels::KernelArch::Scalar);
    const Workload w = Workload::LstmShakespeare;
    constexpr int kRequests = 48;
    const Dataset test = small_test_set(w, kRequests);
    const std::vector<float> weights = random_weights(w, 17);

    const auto run = [&](int threads) {
        ServeConfig cfg;
        cfg.batch_size = 8;
        cfg.workers = 2;
        cfg.batch_timeout_us = threads > 1 ? 500 : 0;
        ModelService ms(w, cfg);
        ms.publish(weights);
        std::vector<int> classes(kRequests, -1);
        std::vector<std::thread> ts;
        ts.reserve(static_cast<size_t>(threads));
        for (int t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                for (int i = t; i < kRequests; i += threads) {
                    const InferenceReply r =
                        ms.query(test.batch_x({i}), true);
                    ASSERT_TRUE(r.ok());
                    classes[static_cast<size_t>(i)] = r.classes[0];
                }
            });
        }
        for (auto &t : ts)
            t.join();
        return classes;
    };

    const std::vector<int> serial = run(1);
    const std::vector<int> wide = run(12);
    EXPECT_EQ(serial, wide);
    for (int c : serial)
        EXPECT_GE(c, 0);
}

TEST(Determinism, SubmitServesDuringPipelinedTraining)
{
    // The production shape under TSan: dynamic-batched submissions
    // acquire store snapshots while striped commit waves stream
    // underneath. Replies must be typed Ok with epochs from the store.
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
    cfg.serve.batch_size = 8;
    cfg.serve.workers = 2;
    cfg.serve.batch_timeout_us = 200;
    FlSystem fl(cfg);
    ASSERT_TRUE(fl.pipelined());
    ModelService &serve = fl.serve();

    std::atomic<bool> stop{false};
    std::atomic<int> served{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            uint64_t last_epoch = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const InferenceReply r = serve.query(
                    fl.test_set().batch_x({c, c + 7}), true);
                ASSERT_TRUE(r.ok()) << reply_status_name(r.status);
                ASSERT_GE(r.epoch, last_epoch);
                last_epoch = r.epoch;
                ASSERT_EQ(r.classes.size(), 2u);
                served.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    const std::vector<int> ids = {0, 1, 2, 3, 4, 5};
    for (int round = 0; round < 5; ++round)
        fl.submit_round(ids, static_cast<uint64_t>(round), nullptr);
    fl.drain();
    stop.store(true, std::memory_order_release);
    for (auto &t : clients)
        t.join();

    EXPECT_GT(served.load(), 0);
    const ServeStats st = serve.serving_stats();
    EXPECT_EQ(st.completed, static_cast<uint64_t>(served.load()));
    EXPECT_GE(st.mean_batch_rows(), 2.0);  // >= one 2-row request each.
}

} // namespace
} // namespace autofl
