#include "ps/round_pipeline.h"

#include <algorithm>
#include <cassert>

namespace autofl {

RoundPipeline::RoundPipeline(PsExecutor &exec, PsExecutor *eval_exec,
                             AsyncAggregator &agg, const ShardedStore &store,
                             const PsConfig &cfg, TrainFn train)
    : exec_(exec), eval_exec_(eval_exec), agg_(agg), cfg_(cfg),
      train_(std::move(train))
{
    // Seed the epoch history with the store's initial snapshot so round
    // 0 (pull epoch 0) can launch immediately.
    const StoreSnapshot init = store.latest_snapshot();
    history_[init.epoch] = init.weights;

    agg_.set_hooks(
        [this](const StoreSnapshot &s) { on_snapshot(s); },
        [this](uint64_t round, const PsRoundStats &stats,
               uint64_t final_epoch) {
            on_retired(round, stats, final_epoch);
        });
}

RoundPipeline::~RoundPipeline()
{
    drain();
}

void
RoundPipeline::set_eval_fn(EvalFn fn)
{
    std::lock_guard<std::mutex> lk(pmu_);
    eval_fn_ = std::move(fn);
}

void
RoundPipeline::set_checkpoint_hook(CheckpointFn fn)
{
    std::lock_guard<std::mutex> lk(pmu_);
    checkpoint_fn_ = std::move(fn);
}

uint64_t
RoundPipeline::pull_epoch_for_locked() const
{
    // Launch trigger: the previous round's first commit when
    // pipelined, its last commit at depth 1. The epoch is structural,
    // so the pulled weights are a pure function of the round layout,
    // never of thread timing. Pipelined, in-order retirement means this
    // snapshot already contains every commit of rounds before the
    // previous one — training overlap spans exactly two rounds; at
    // depth 1 rounds never overlap. This is also the history-pruning
    // floor: no future round can pull below the *next* submission's
    // epoch.
    if (submitted_ == 0)
        return 0;
    const int batches = cfg_.pipeline_depth > 1
        ? std::min(last_plan_.num_batches, 1)
        : last_plan_.num_batches;
    return last_plan_.base_clock + static_cast<uint64_t>(batches);
}

void
RoundPipeline::submit(std::vector<int> device_ids, uint64_t round,
                      PsRoundCallback cb, bool evaluate)
{
    const int expected = static_cast<int>(device_ids.size());

    RoundPlan plan;
    if (expected > 0) {
        plan = agg_.register_round(round, expected);
    } else {
        // Empty rounds never touch the aggregator: they retire on the
        // spot (accuracy -1: there is no new snapshot to score) and
        // leave the commit-clock chain untouched.
        std::lock_guard<std::mutex> lk(pmu_);
        plan.round = round;
        plan.base_clock = last_plan_.base_clock +
            static_cast<uint64_t>(last_plan_.num_batches);
    }

    std::unique_lock<std::mutex> lk(pmu_);
    auto e = std::make_shared<Entry>();
    e->round = round;
    e->device_ids = std::move(device_ids);
    e->cb = std::move(cb);
    e->plan = plan;
    e->pull_epoch = pull_epoch_for_locked();
    e->want_eval = evaluate;
    e->final_epoch = plan.base_clock;
    if (expected == 0)
        e->done = true;
    order_.push_back(e);

    last_plan_ = plan;
    ++submitted_;

    try_launch_locked();
    prune_history_locked();
    deliver_ready(lk);  // Covers the empty-round fast path.
}

void
RoundPipeline::try_launch_locked()
{
    // Launches are in submission order: a later round never jumps an
    // earlier one, which keeps the executor's FIFO queue aligned with
    // the commit order (the deadlock-freedom invariant: a blocked
    // commit wave's predecessor jobs are always already dequeued).
    for (auto &e : order_) {
        if (e->launched || e->plan.expected == 0)
            continue;
        auto it = history_.find(e->pull_epoch);
        if (it == history_.end())
            return;
        e->launched = true;
        launch_locked(*e);
    }
}

void
RoundPipeline::launch_locked(Entry &e)
{
    std::shared_ptr<const std::vector<float>> weights =
        history_.at(e.pull_epoch);
    const uint64_t round = e.round;
    for (size_t seq = 0; seq < e.device_ids.size(); ++seq) {
        const int dev = e.device_ids[seq];
        exec_.submit([this, dev, seq, round, weights](
                         int worker) {
            LocalUpdate u = train_(worker, dev, *weights, round);
            agg_.push_pipelined(
                round, PsPush{std::move(u), static_cast<uint64_t>(seq)});
        });
    }
}

void
RoundPipeline::on_snapshot(const StoreSnapshot &snap)
{
    std::unique_lock<std::mutex> lk(pmu_);
    history_[snap.epoch] = snap.weights;
    try_launch_locked();
    prune_history_locked();
}

void
RoundPipeline::on_retired(uint64_t round, const PsRoundStats &stats,
                          uint64_t final_epoch)
{
    std::unique_lock<std::mutex> lk(pmu_);
    std::shared_ptr<Entry> entry;
    for (auto &e : order_) {
        if (e->round == round) {
            entry = e;
            break;
        }
    }
    assert(entry);
    entry->stats = stats;
    entry->final_epoch = final_epoch;
    entry->retired = true;

    auto it = history_.find(final_epoch);
    std::shared_ptr<const std::vector<float>> snap =
        it != history_.end() ? it->second : nullptr;
    assert(snap);

    if (checkpoint_fn_ && snap) {
        // Persistence rides retirement. Rounds retire in order, but
        // hooks of consecutive rounds may interleave (the writer drops
        // a late older round). The history snapshot crosses zero-copy.
        // Invoked with the lock released (hook style: see
        // AsyncAggregator) — the writer only enqueues, but no pipeline
        // lock is ever held across foreign code.
        const CheckpointFn fn = checkpoint_fn_;
        lk.unlock();
        fn(round, final_epoch, snap);
        lk.lock();
    }

    if (eval_exec_ && eval_fn_ && snap && entry->want_eval) {
        // Score the retired round's snapshot concurrently; the shared
        // snapshot keeps the weights alive past any history pruning.
        EvalFn fn = eval_fn_;
        eval_exec_->submit([this, round, fn, snap, final_epoch](int) {
            finalize(round, fn(StoreSnapshot{final_epoch, snap}));
        });
        return;
    }
    entry->done = true;
    deliver_ready(lk);
}

void
RoundPipeline::finalize(uint64_t round, double accuracy)
{
    std::unique_lock<std::mutex> lk(pmu_);
    for (auto &e : order_) {
        if (e->round == round) {
            e->accuracy = accuracy;
            e->done = true;
            break;
        }
    }
    deliver_ready(lk);
}

void
RoundPipeline::deliver_ready(std::unique_lock<std::mutex> &lk)
{
    if (delivering_)
        return;  // Another thread is already draining, in order.
    delivering_ = true;
    while (!order_.empty() && order_.front()->done) {
        std::shared_ptr<Entry> e = order_.front();
        order_.pop_front();
        PsRoundResult res;
        res.round = e->round;
        res.stats = e->stats;
        res.accuracy = e->accuracy;
        res.final_epoch = e->final_epoch;
        PsRoundCallback cb = std::move(e->cb);
        lk.unlock();
        if (cb)
            cb(res);
        lk.lock();
    }
    delivering_ = false;
    drain_cv_.notify_all();
}

void
RoundPipeline::prune_history_locked()
{
    // Future rounds always pull at or above the next submission's
    // epoch; launched rounds hold their pull snapshot via shared_ptr,
    // but an unretired round still needs its *final* epoch in the
    // history for retirement-time evaluation. Everything below the
    // floor is garbage.
    uint64_t floor = pull_epoch_for_locked();
    for (const auto &e : order_) {
        if (e->plan.expected == 0)
            continue;
        if (!e->launched)
            floor = std::min(floor, e->pull_epoch);
        if (!e->retired) {
            floor = std::min(
                floor, e->plan.base_clock +
                           static_cast<uint64_t>(e->plan.num_batches));
        }
    }
    history_.erase(history_.begin(), history_.lower_bound(floor));
}

void
RoundPipeline::drain()
{
    std::unique_lock<std::mutex> lk(pmu_);
    drain_cv_.wait(lk, [this] {
        return order_.empty() && !delivering_;
    });
}

} // namespace autofl
