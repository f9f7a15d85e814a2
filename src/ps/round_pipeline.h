/**
 * @file
 * RoundPipeline: the in-process round scheduler — out-of-order
 * execution, in-order commit. Every in-process ps round runs through
 * it, at any PsConfig::pipeline_depth.
 *
 * At depth 1 a round launches once the previous round's last commit
 * publishes: rounds never overlap, and each trains on the fully
 * committed previous model. Above 1 the pipeline streams: round r+1's
 * jobs are submitted to the executor as soon as round r's first commit
 * publishes a store snapshot, so workers fill a straggler's shadow
 * with the next round's training while the aggregator retires commits
 * in strict round order.
 *
 * Determinism contract. Every scheduling decision is *structural* — a
 * function of the round layout, never of thread timing:
 *
 * - Every job of round r pulls the same published snapshot, taken at
 *   the round's launch epoch: E_r = base_{r-1} + 1 (the previous
 *   round's first commit) when streaming, the previous round's final
 *   epoch at depth 1. Pulls wait for that exact epoch.
 * - Batches are sequence-contiguous and commits retire in (round,
 *   batch) order (see AsyncAggregator), so the store content at every
 *   epoch is a pure function of the seed.
 * - Results are delivered through a reorder buffer in round order.
 *
 * A corollary of the first-commit trigger: when round r launches,
 * every round before r-1 has fully committed, so streaming training
 * overlap structurally spans two rounds — the previous round's
 * straggler tail and the current round. Beyond turning streaming on,
 * PsConfig::pipeline_depth bounds how far results (and the driver's
 * observations) may lag behind submissions, not how many rounds train
 * at once.
 *
 * Hence SemiAsync(S=0) is bit-for-bit the synchronous path at any
 * depth, and two runs with the same seed produce identical weights at
 * any depth, bound and thread count — the property tests enforce both.
 *
 * Evaluation rides the same snapshots: when a round retires, its final
 * snapshot is handed to a concurrent eval pool; accuracy lands in the
 * round's result without ever blocking training.
 */
#ifndef AUTOFL_PS_ROUND_PIPELINE_H
#define AUTOFL_PS_ROUND_PIPELINE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "ps/async_aggregator.h"
#include "ps/executor.h"
#include "ps/ps_config.h"
#include "ps/sharded_store.h"

namespace autofl {

/** Streaming round scheduler over the executor + aggregator + store. */
class RoundPipeline
{
  public:
    /**
     * Runs one device's client job against the given pulled weights
     * (FlSystem passes train_client_job over its per-worker trainers).
     */
    using TrainFn = std::function<LocalUpdate(
        int worker, int device_id, const std::vector<float> &weights,
        uint64_t round)>;

    /**
     * Scores an epoch-tagged snapshot (test accuracy). The serving
     * plane wraps the snapshot in a SnapshotHandle, so concurrent eval
     * workers ride the same versioned consumption path as online
     * inference (see serve/ModelService).
     */
    using EvalFn = std::function<double(const StoreSnapshot &snap)>;

    /**
     * Receives a retired round's final snapshot — the persistence
     * hook. Invoked in retirement (= round) order with the pipeline
     * lock released, sharing the pipeline's own history snapshot
     * zero-copy; the receiver (store::CheckpointWriter) must only
     * enqueue, never block on IO.
     */
    using CheckpointFn = std::function<void(
        uint64_t round, uint64_t final_epoch,
        std::shared_ptr<const std::vector<float>> weights)>;

    /**
     * @param exec Training executor (jobs are launched onto it in round
     *        order — the FIFO queue is what lets blocked commit waves
     *        always find their predecessor jobs already running).
     * @param eval_exec Concurrent eval pool; null disables evaluation.
     * @param agg Aggregator; the pipeline installs its hooks.
     * @param cfg Pipeline depth and latency knobs.
     * @param train Job runner (pull -> local SGD), thread-safe per
     *        worker index.
     */
    RoundPipeline(PsExecutor &exec, PsExecutor *eval_exec,
                  AsyncAggregator &agg, const ShardedStore &store,
                  const PsConfig &cfg, TrainFn train);

    /** Drains all in-flight rounds. */
    ~RoundPipeline();

    RoundPipeline(const RoundPipeline &) = delete;
    RoundPipeline &operator=(const RoundPipeline &) = delete;

    /** Install the snapshot scorer (called before the first submit). */
    void set_eval_fn(EvalFn fn);

    /** Install the persistence hook (called before the first submit). */
    void set_checkpoint_hook(CheckpointFn fn);

    /**
     * Enqueue one round. Returns immediately; jobs launch once the
     * round's pull epoch publishes, and @p cb fires (from a pipeline
     * thread) once the round has retired and — when @p evaluate — its
     * snapshot is scored (callers that discard the accuracy pass false
     * and skip the test-set inference). Not thread-safe against
     * itself: one driver thread submits, in increasing round order.
     */
    void submit(std::vector<int> device_ids, uint64_t round,
                PsRoundCallback cb, bool evaluate = true);

    /** Block until every submitted round's callback has returned. */
    void drain();

  private:
    struct Entry
    {
        uint64_t round = 0;
        std::vector<int> device_ids;
        PsRoundCallback cb;
        RoundPlan plan;
        uint64_t pull_epoch = 0;
        bool want_eval = true;
        bool launched = false;
        bool retired = false;
        bool done = false;
        PsRoundStats stats;
        double accuracy = -1.0;
        uint64_t final_epoch = 0;
    };

    PsExecutor &exec_;
    PsExecutor *eval_exec_;
    AsyncAggregator &agg_;
    PsConfig cfg_;
    TrainFn train_;
    EvalFn eval_fn_;
    CheckpointFn checkpoint_fn_;

    mutable std::mutex pmu_;
    std::condition_variable drain_cv_;
    std::deque<std::shared_ptr<Entry>> order_;  ///< Undelivered, in order.
    std::map<uint64_t, std::shared_ptr<const std::vector<float>>> history_;
    RoundPlan last_plan_;   ///< Most recently submitted round's plan.
    size_t submitted_ = 0;
    bool delivering_ = false;

    void on_snapshot(const StoreSnapshot &snap);
    void on_retired(uint64_t round, const PsRoundStats &stats,
                    uint64_t final_epoch);
    void try_launch_locked();
    void launch_locked(Entry &e);
    void finalize(uint64_t round, double accuracy);
    void deliver_ready(std::unique_lock<std::mutex> &lk);
    void prune_history_locked();

    /**
     * The structural launch epoch of the *next* submission: the last
     * submitted round's first commit (0 before any submission). Also
     * the history-pruning floor.
     */
    uint64_t pull_epoch_for_locked() const;
};

} // namespace autofl

#endif // AUTOFL_PS_ROUND_PIPELINE_H
