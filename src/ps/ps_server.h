/**
 * @file
 * PsServer: the parameter-server runtime facade. Owns the sharded model
 * store, the bounded-staleness aggregator and the RoundPipeline every
 * round runs through, plus — when PsConfig::pipeline_depth > 1 — a
 * concurrent snapshot-eval pool. The training pool, the client job and
 * the checkpoint hook are FlSystem's, passed in; round completion
 * (persistence, evaluation, serving publication) is FlSystem's too.
 * The wrapped synchronous Server keeps model init; its global weights
 * are re-synced from the store whenever the runtime drains.
 */
#ifndef AUTOFL_PS_PS_SERVER_H
#define AUTOFL_PS_PS_SERVER_H

#include <atomic>
#include <memory>
#include <vector>

#include "fl/server.h"
#include "ps/async_aggregator.h"
#include "ps/executor.h"
#include "ps/ps_config.h"
#include "ps/round_pipeline.h"
#include "ps/sharded_store.h"

namespace autofl {

/** Parameter-server runtime wrapping a synchronous Server. */
class PsServer
{
  public:
    /**
     * @param server Aggregation server holding the initialized model;
     *        must outlive this object. Its weights seed the store.
     * @param alg Aggregation algorithm (not FEDL, whose gradient
     *        exchange is inherently synchronous).
     * @param cfg Runtime knobs.
     * @param exec Training pool; must outlive this object (the
     *        destructor drains the pipeline's jobs on it).
     * @param train The client job, run on @p exec once per device;
     *        its update passes through the push-compression step
     *        before the aggregator sees it.
     * @param checkpoint Pipelined mode's persistence hook, invoked as
     *        each round retires; may be empty. Unused at depth 1,
     *        where FlSystem checkpoints at its round barrier.
     */
    PsServer(Server &server, Algorithm alg, const PsConfig &cfg,
             PsExecutor &exec, RoundPipeline::TrainFn train,
             RoundPipeline::CheckpointFn checkpoint);

    ~PsServer();

    /** Whether rounds overlap (pipeline_depth > 1). */
    bool pipelined() const { return cfg_.pipeline_depth > 1; }

    /**
     * Install the snapshot scorer used by the concurrent eval workers
     * (pipelined mode; never called otherwise). Must be thread-safe.
     */
    void set_eval_fn(RoundPipeline::EvalFn fn);

    /**
     * Run one round of @p device_ids to completion: submit it through
     * the pipeline, block until it retires and write the store back
     * into the wrapped Server. At depth 1 the round launches at the
     * previous round's last commit, so rounds never overlap and each
     * trains on the fully committed previous model; deeper pipelines
     * are correct here too, just sequential — callers wanting overlap
     * use submit_round.
     */
    PsRoundStats run_round(const std::vector<int> &device_ids,
                           uint64_t round);

    /**
     * Streaming entry (pipelined mode only): enqueue the round and
     * return immediately. The callback fires in round order once the
     * round has retired and its final snapshot is scored.
     */
    void submit_round(const std::vector<int> &device_ids, uint64_t round,
                      PsRoundCallback cb);

    /**
     * Block until every submitted round has been delivered, then sync
     * the wrapped Server's weights from the store.
     */
    void drain();

    const ShardedStore &store() const { return store_; }
    AsyncAggregator &aggregator() { return agg_; }

    /**
     * Push-path wire bytes this in-process runtime would have moved:
     * the sum of each update's encoded payload size under
     * cfg.compression — raw f32 bytes for None.
     */
    uint64_t push_payload_bytes() const;

  private:
    Server &server_;
    PsConfig cfg_;
    ShardedStore store_;
    PsExecutor &exec_;
    AsyncAggregator agg_;
    ErrorFeedback error_feedback_;   ///< Push-compression residuals.
    std::atomic<uint64_t> push_payload_bytes_{0};

    // Declared after the components they use so the pipeline drains
    // (and the eval pool joins) before any of them is torn down.
    std::unique_ptr<PsExecutor> eval_exec_;  ///< Pipelined mode only.
    std::unique_ptr<RoundPipeline> pipeline_;

    /** Wait until every submitted round is delivered and the pool idle. */
    void quiesce();
};

} // namespace autofl

#endif // AUTOFL_PS_PS_SERVER_H
