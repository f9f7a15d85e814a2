/**
 * @file
 * Parameter-server runtime tests: ShardedStore shard math and
 * versioning, PsExecutor scheduling, and the aggregation-equivalence
 * guarantees — SemiAsync with staleness bound 0 reproduces synchronous
 * FedAvg bit-for-bit, and results never depend on thread count.
 */
#include <atomic>
#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "fl/system.h"
#include "ps/executor.h"
#include "ps/ps_server.h"
#include "ps/sharded_store.h"

namespace autofl {
namespace {

// ------------------------------------------------------- ShardedStore --

TEST(ShardedStore, PartitionCoversEveryIndexExactlyOnce)
{
    ShardedStore store(std::vector<float>(103, 0.0f), 8);
    ASSERT_EQ(store.num_shards(), 8);
    ASSERT_EQ(store.dim(), 103u);

    size_t covered = 0;
    for (int s = 0; s < store.num_shards(); ++s) {
        EXPECT_EQ(store.shard_begin(s), covered) << "gap before shard " << s;
        EXPECT_GT(store.shard_end(s), store.shard_begin(s));
        covered = store.shard_end(s);
    }
    EXPECT_EQ(covered, store.dim());
}

TEST(ShardedStore, ShardSizesDifferByAtMostOne)
{
    ShardedStore store(std::vector<float>(103, 0.0f), 8);
    size_t min_size = store.dim(), max_size = 0;
    for (int s = 0; s < store.num_shards(); ++s) {
        const size_t size = store.shard_end(s) - store.shard_begin(s);
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
    }
    EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardedStore, ShardOfInvertsTheRanges)
{
    ShardedStore store(std::vector<float>(101, 0.0f), 7);
    for (size_t i = 0; i < store.dim(); ++i) {
        const int s = store.shard_of(i);
        EXPECT_GE(i, store.shard_begin(s));
        EXPECT_LT(i, store.shard_end(s));
    }
}

TEST(ShardedStore, ClampsShardCountToDimension)
{
    ShardedStore tiny(std::vector<float>(3, 0.0f), 16);
    EXPECT_EQ(tiny.num_shards(), 3);
    ShardedStore one(std::vector<float>(5, 0.0f), 0);
    EXPECT_EQ(one.num_shards(), 1);
}

TEST(ShardedStore, ReadReturnsWrittenData)
{
    std::vector<float> init(37);
    for (size_t i = 0; i < init.size(); ++i)
        init[i] = static_cast<float>(i) * 0.25f;
    ShardedStore store(init, 4);
    EXPECT_EQ(store.read(), init);

    std::vector<float> next(init.size(), -1.5f);
    store.write(next);
    EXPECT_EQ(store.read(), next);
}

TEST(ShardedStore, VersionsCountWritesPerShard)
{
    ShardedStore store(std::vector<float>(32, 0.0f), 4);
    for (uint64_t v : store.versions())
        EXPECT_EQ(v, 0u);

    store.write(std::vector<float>(32, 1.0f));
    for (uint64_t v : store.versions())
        EXPECT_EQ(v, 1u);

    store.apply_delta(std::vector<float>(32, 0.5f), 2.0);
    for (int s = 0; s < store.num_shards(); ++s)
        EXPECT_EQ(store.shard_version(s), 2u);
    for (float w : store.read())
        EXPECT_FLOAT_EQ(w, 2.0f);
}

// --------------------------------------------------------- PsExecutor --

TEST(PsExecutor, RunsEveryJobOnce)
{
    PsExecutor exec(4);
    EXPECT_EQ(exec.threads(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        exec.submit([&count](int) { ++count; });
    exec.wait_idle();
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(exec.completed(), 100u);
}

TEST(PsExecutor, WorkerIndicesStayInRange)
{
    PsExecutor exec(3);
    std::atomic<int> bad{0};
    for (int i = 0; i < 60; ++i)
        exec.submit([&bad](int worker) {
            if (worker < 0 || worker >= 3)
                ++bad;
        });
    exec.wait_idle();
    EXPECT_EQ(bad.load(), 0);
}

TEST(PsExecutor, WaitIdleOnEmptyPoolReturns)
{
    PsExecutor exec(2);
    exec.wait_idle();  // Must not hang.
    EXPECT_EQ(exec.completed(), 0u);
}

// ------------------------------------------------- runtime equivalence --

FlSystemConfig
ps_system(SyncMode mode, int staleness_bound, int threads,
          Algorithm alg = Algorithm::FedAvg)
{
    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 1, 6};
    cfg.algorithm = alg;
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 240;
    cfg.data.test_samples = 80;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = 12;
    cfg.seed = 23;
    cfg.threads = threads;
    cfg.ps.mode = mode;
    cfg.ps.staleness_bound = staleness_bound;
    cfg.ps.shards = 5;
    return cfg;
}

const std::vector<int> kRoundIds = {0, 3, 5, 7, 9, 11};

TEST(PsRuntime, SemiAsyncZeroBoundMatchesSyncBitForBit)
{
    FlSystem sync(ps_system(SyncMode::Sync, 0, 4));
    FlSystem semi(ps_system(SyncMode::SemiAsync, 0, 4));

    for (uint64_t round = 0; round < 3; ++round) {
        const PsRoundStats sync_stats = sync.run_round(kRoundIds, round);
        const PsRoundStats semi_stats = semi.run_round(kRoundIds, round);
        EXPECT_EQ(sync_stats.applied, semi_stats.applied);
        EXPECT_EQ(semi_stats.evicted, 0);
        EXPECT_EQ(semi_stats.commits, 1);
        EXPECT_EQ(semi_stats.max_staleness, 0);

        const auto &a = sync.server().global_weights();
        const auto &b = semi.server().global_weights();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "round " << round << " index " << i;
    }
}

TEST(PsRuntime, SemiAsyncZeroBoundMatchesSyncFedNova)
{
    FlSystem sync(ps_system(SyncMode::Sync, 0, 4, Algorithm::FedNova));
    FlSystem semi(ps_system(SyncMode::SemiAsync, 0, 4, Algorithm::FedNova));

    for (uint64_t round = 0; round < 2; ++round) {
        sync.run_round(kRoundIds, round);
        semi.run_round(kRoundIds, round);
        const auto &a = sync.server().global_weights();
        const auto &b = semi.server().global_weights();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "round " << round << " index " << i;
    }
}

TEST(PsRuntime, WeightsIndependentOfThreadCount)
{
    // Serial vs parallel, for the synchronous path and the ps runtime
    // at S=0, S=1 and in Async mode: the client seed derives from
    // (seed, device, round), never from the worker thread, and ps
    // batches are structural — every job pulls its round's launch
    // snapshot and an update's staleness is its batch index — so
    // neither the weights nor the reported staleness depend on how
    // many threads train.
    struct Runtime
    {
        const char *name;
        SyncMode mode;
        int bound;
    };
    const std::vector<Runtime> runtimes = {
        {"Sync", SyncMode::Sync, 0},
        {"SemiAsync S=0", SyncMode::SemiAsync, 0},
        {"SemiAsync S=1", SyncMode::SemiAsync, 1},
        {"Async", SyncMode::Async, 0},
    };
    std::vector<float> sync_weights;
    for (const Runtime &rt : runtimes) {
        FlSystem serial(ps_system(rt.mode, rt.bound, 1));
        std::vector<std::unique_ptr<FlSystem>> parallel;
        for (int threads : {4, 8})
            parallel.push_back(std::make_unique<FlSystem>(
                ps_system(rt.mode, rt.bound, threads)));
        for (uint64_t round = 0; round < 2; ++round) {
            const PsRoundStats a = serial.run_round(kRoundIds, round);
            for (auto &fl : parallel) {
                const PsRoundStats b = fl->run_round(kRoundIds, round);
                EXPECT_EQ(a.commits, b.commits) << rt.name;
                EXPECT_EQ(a.applied, b.applied) << rt.name;
                EXPECT_EQ(a.mean_staleness, b.mean_staleness)
                    << rt.name << " round " << round;
                EXPECT_EQ(a.max_staleness, b.max_staleness) << rt.name;
            }
        }
        for (auto &fl : parallel) {
            EXPECT_TRUE(serial.server().global_weights() ==
                        fl->server().global_weights())
                << rt.name << ": 1 vs " << fl->config().threads
                << " threads";
        }
        if (rt.mode == SyncMode::Sync) {
            sync_weights = serial.server().global_weights();
        } else if (rt.mode == SyncMode::SemiAsync && rt.bound == 0) {
            EXPECT_TRUE(serial.server().global_weights() == sync_weights)
                << rt.name << " vs Sync";
        }
    }
}

TEST(PsRuntime, SemiAsyncAccountsForEveryPush)
{
    FlSystem fl(ps_system(SyncMode::SemiAsync, 1, 4));
    for (uint64_t round = 0; round < 3; ++round) {
        const PsRoundStats st = fl.run_round(kRoundIds, round);
        EXPECT_EQ(st.pushed, static_cast<int>(kRoundIds.size()));
        EXPECT_EQ(st.applied + st.evicted, st.pushed);
        EXPECT_GE(st.commits, 1);
        EXPECT_LE(st.max_staleness, 1);
    }
    for (float w : fl.server().global_weights())
        ASSERT_TRUE(std::isfinite(w));
}

TEST(PsRuntime, AsyncModeCommitsPerUpdateAndStaysFinite)
{
    FlSystem fl(ps_system(SyncMode::Async, 0, 4));
    ASSERT_NE(fl.ps(), nullptr);
    const PsRoundStats st = fl.run_round(kRoundIds, 0);
    EXPECT_EQ(st.pushed, static_cast<int>(kRoundIds.size()));
    EXPECT_EQ(st.evicted, 0);  // Async never evicts.
    EXPECT_EQ(st.commits, st.pushed);
    EXPECT_EQ(st.applied, st.pushed);
    EXPECT_EQ(fl.ps()->aggregator().clock(),
              static_cast<uint64_t>(st.commits));
    for (float w : fl.server().global_weights())
        ASSERT_TRUE(std::isfinite(w));
}

TEST(PsRuntime, FedlFallsBackToSynchronousRuntime)
{
    FlSystem fl(ps_system(SyncMode::SemiAsync, 0, 2, Algorithm::Fedl));
    EXPECT_EQ(fl.ps(), nullptr);
    const PsRoundStats st = fl.run_round(kRoundIds, 0);
    EXPECT_EQ(st.applied, static_cast<int>(kRoundIds.size()));
}

TEST(PsRuntime, StoreVersionsAdvanceWithCommits)
{
    FlSystem fl(ps_system(SyncMode::SemiAsync, 0, 2));
    ASSERT_NE(fl.ps(), nullptr);
    fl.run_round(kRoundIds, 0);
    // One commit per round at S=0: every shard took exactly one write.
    for (int s = 0; s < fl.ps()->store().num_shards(); ++s)
        EXPECT_EQ(fl.ps()->store().shard_version(s), 1u);
}

} // namespace
} // namespace autofl
