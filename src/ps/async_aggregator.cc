#include "async_aggregator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "fl/aggregation.h"

namespace autofl {

namespace {

/** Staleness damping exponent: updates weigh 1/(1+s)^alpha. */
constexpr double kStalenessAlpha = 0.5;

/** Extra damping of each single-update commit in Async mode. */
constexpr double kAsyncMix = 0.25;

} // namespace

AsyncAggregator::AsyncAggregator(ShardedStore &store, Algorithm alg,
                                 const PsConfig &cfg)
    : store_(store), alg_(alg), cfg_(cfg)
{
    assert(alg_ != Algorithm::Fedl);  // FEDL needs a synchronous phase.
}

size_t
AsyncAggregator::threshold_for(int expected_updates) const
{
    if (cfg_.mode == SyncMode::Async)
        return 1;
    // SemiAsync: ceil(K / (S+1)) so a round spans at most S+1 commits;
    // S=0 makes the threshold the whole round (one commit of all-fresh
    // updates == synchronous FedAvg).
    const int s = std::max(0, cfg_.staleness_bound);
    return static_cast<size_t>(
        std::max(1, (expected_updates + s) / (s + 1)));
}

void
AsyncAggregator::set_hooks(SnapshotHook on_snapshot, RetireHook on_retire)
{
    std::lock_guard<std::mutex> lk(mu_);
    on_snapshot_ = std::move(on_snapshot);
    on_retire_ = std::move(on_retire);
}

RoundPlan
AsyncAggregator::register_round(uint64_t round, int expected_updates)
{
    // Empty rounds never reach the aggregator: callers retire them on
    // the spot without consuming commit clocks.
    assert(expected_updates > 0);

    std::lock_guard<std::mutex> lk(mu_);
    RoundPlan plan;
    plan.round = round;
    plan.expected = expected_updates;
    plan.threshold = threshold_for(expected_updates);
    plan.num_batches = static_cast<int>(
        (static_cast<size_t>(expected_updates) + plan.threshold - 1) /
        plan.threshold);
    plan.base_clock = next_base_clock_;
    next_base_clock_ += static_cast<uint64_t>(plan.num_batches);

    RoundCtx ctx;
    ctx.plan = plan;
    ctx.buckets.resize(static_cast<size_t>(plan.num_batches));
    rounds_.emplace(round, std::move(ctx));
    return plan;
}

void
AsyncAggregator::push_pipelined(uint64_t round, PsPush p)
{
    deposit(round, p.seq, &p);
}

void
AsyncAggregator::drop(uint64_t round, uint64_t seq)
{
    deposit(round, seq, nullptr);
}

void
AsyncAggregator::deposit(uint64_t round, uint64_t seq, PsPush *p)
{
    std::unique_lock<std::mutex> lk(mu_);
    auto it = rounds_.find(round);
    assert(it != rounds_.end());
    RoundCtx &ctx = it->second;

    const int bidx = static_cast<int>(seq / ctx.plan.threshold);
    assert(bidx >= 0 && bidx < ctx.plan.num_batches);
    Bucket &bucket = ctx.buckets[static_cast<size_t>(bidx)];
    if (p) {
        ++ctx.stats.pushed;
        bucket.arrived.push_back(std::move(*p));
    } else {
        ++bucket.dropped;
    }

    // Sequence-contiguous batches: batch b is seqs [bT, (b+1)T) and
    // closes when its last member is accounted for — composition is
    // structural, never a race.
    const size_t begin = static_cast<size_t>(bidx) * ctx.plan.threshold;
    const size_t end =
        std::min(static_cast<size_t>(ctx.plan.expected),
                 begin + ctx.plan.threshold);
    if (bucket.arrived.size() + static_cast<size_t>(bucket.dropped) ==
        end - begin)
        form_commit_locked(ctx, bidx);
    pump(lk);
}

void
AsyncAggregator::form_commit_locked(RoundCtx &ctx, int batch_index)
{
    Bucket &bucket = ctx.buckets[static_cast<size_t>(batch_index)];
    auto &arrived = bucket.arrived;
    std::sort(arrived.begin(), arrived.end(),
              [](const PsPush &a, const PsPush &b) { return a.seq < b.seq; });

    PendingCommit pc;
    pc.clock = ctx.plan.base_clock + static_cast<uint64_t>(batch_index);
    pc.round = ctx.plan.round;
    // At most two of a round's epochs are ever read: the last commit
    // (retirement-time eval, and the next round's pull at depth 1) and,
    // when pipelined, the first (the next round's pull). Other
    // commits, and every commit when nobody consumes snapshots, skip
    // the snapshot copy entirely.
    pc.publish = on_snapshot_ &&
        (batch_index == ctx.plan.num_batches - 1 ||
         (batch_index == 0 && cfg_.pipeline_depth > 1));

    // Round-local staleness: every job of the round pulled the round's
    // launch snapshot, so batch b commits b own-round commits after its
    // pull. With T = ceil(K / (S+1)) this never exceeds the bound — the
    // guard below only fires if a round was registered with a batch
    // count beyond S+1. A batch with no applied update (evicted, or
    // every member dropped) still consumes its commit slot (an empty
    // commit) so the structural clock arithmetic holds.
    ctx.stats.evicted += bucket.dropped;
    const int s = batch_index;
    if (cfg_.mode == SyncMode::SemiAsync && s > cfg_.staleness_bound) {
        ctx.stats.evicted += static_cast<int>(arrived.size());
    } else if (!arrived.empty()) {
        pc.updates.reserve(arrived.size());
        pc.factors.reserve(arrived.size());
        for (auto &p : arrived) {
            pc.factors.push_back(std::pow(1.0 + s, -kStalenessAlpha));
            ctx.staleness_sum += s;
            ctx.stats.max_staleness = std::max(ctx.stats.max_staleness, s);
            lifetime_max_staleness_ = std::max(lifetime_max_staleness_, s);
            pc.updates.push_back(std::move(p.update));
        }
        ctx.stats.applied += static_cast<int>(arrived.size());
        ++ctx.stats.commits;
    }
    bucket = Bucket{};
    ready_.emplace(pc.clock, std::move(pc));
}

void
AsyncAggregator::pump(std::unique_lock<std::mutex> &lk)
{
    for (;;) {
        auto it = ready_.find(next_claim_);
        if (it == ready_.end())
            return;
        PendingCommit pc = std::move(it->second);
        ready_.erase(it);
        ++next_claim_;

        // Apply outside the lock: the wave blocks on per-shard turns
        // and later pushes must be able to keep forming batches. A
        // concurrent thread claiming the next clock chases this wave
        // through the stripes.
        lk.unlock();
        apply_commit(pc);
        lk.lock();

        clock_ = std::max(clock_, pc.clock + 1);
        auto rit = rounds_.find(pc.round);
        assert(rit != rounds_.end());
        RoundCtx &ctx = rit->second;
        ++ctx.batches_applied;
        std::optional<std::pair<PsRoundStats, uint64_t>> retired;
        if (ctx.batches_applied == ctx.plan.num_batches) {
            if (ctx.stats.applied > 0)
                ctx.stats.mean_staleness =
                    ctx.staleness_sum / ctx.stats.applied;
            retired = {ctx.stats,
                       ctx.plan.base_clock +
                           static_cast<uint64_t>(ctx.plan.num_batches)};
            rounds_.erase(rit);
        }
        if (retired && on_retire_) {
            const uint64_t round = pc.round;
            lk.unlock();
            on_retire_(round, retired->first, retired->second);
            lk.lock();
        }
    }
}

void
AsyncAggregator::apply_commit(PendingCommit &pc)
{
    std::shared_ptr<std::vector<float>> snap;
    if (pc.publish)
        snap = std::make_shared<std::vector<float>>(store_.dim());
    if (pc.updates.empty()) {
        // Nothing to apply: a no-op commit that still advances every
        // shard's turn (and snapshots the unchanged content when this
        // epoch is a consumed one).
        for (int s = 0; s < store_.num_shards(); ++s)
            store_.update_shard_in_turn(s, pc.clock, nullptr, snap.get());
    } else {
        apply_batch_striped(pc.updates, pc.factors, pc.clock, snap.get());
    }
    if (!pc.publish)
        return;
    const uint64_t epoch = pc.clock + 1;
    store_.set_latest_snapshot(epoch, snap);
    if (on_snapshot_)
        on_snapshot_(StoreSnapshot{epoch, std::move(snap)});
}

void
AsyncAggregator::apply_batch_striped(const std::vector<LocalUpdate> &updates,
                                     const std::vector<double> &factors,
                                     uint64_t turn,
                                     std::vector<float> *snap_out)
{
    if (alg_ == Algorithm::FedNova) {
        const FedNovaPlan plan = fednova_plan(updates, &factors);
        for (int s = 0; s < store_.num_shards(); ++s) {
            store_.update_shard_in_turn(
                s, turn,
                [&](float *w, size_t begin, size_t end) {
                    fednova_apply_range(w, updates, plan, begin, end);
                },
                snap_out);
        }
        return;
    }

    const FedAvgPlan plan = fedavg_plan(updates, &factors);
    double lambda = plan.lambda;
    if (cfg_.mode == SyncMode::Async)
        lambda *= kAsyncMix;

    std::vector<float> staging;
    for (int s = 0; s < store_.num_shards(); ++s) {
        const size_t begin = store_.shard_begin(s);
        const size_t end = store_.shard_end(s);
        // Stage the shard's slice of the batch average outside the
        // stripe lock; only the blend holds the shard.
        staging.resize(end - begin);
        fedavg_combine_range(updates, plan, begin, end, staging.data());
        store_.update_shard_in_turn(
            s, turn,
            [&](float *w, size_t b, size_t e) {
                if (lambda >= 1.0) {
                    // All-fresh batch: lambda is exactly 1.0 and the
                    // blend degenerates to the average itself. Writing
                    // it unblended keeps bit-parity with the
                    // synchronous Server.
                    std::copy(staging.begin(), staging.end(), w + b);
                } else {
                    for (size_t i = b; i < e; ++i)
                        w[i] = static_cast<float>(
                            (1.0 - lambda) * w[i] +
                            lambda * staging[i - b]);
                }
            },
            snap_out);
    }
}

uint64_t
AsyncAggregator::clock() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return clock_;
}

int
AsyncAggregator::lifetime_max_applied_staleness() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return lifetime_max_staleness_;
}

} // namespace autofl
