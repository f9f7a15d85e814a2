/**
 * @file
 * PsServer: the parameter-server runtime facade. Owns the sharded model
 * store, the executor pool, the bounded-staleness aggregator and — when
 * PsConfig::pipeline_depth > 1 — the streaming RoundPipeline plus a
 * concurrent snapshot-eval pool. The wrapped synchronous Server keeps
 * model init; its global weights are re-synced from the store whenever
 * the runtime drains.
 */
#ifndef AUTOFL_PS_PS_SERVER_H
#define AUTOFL_PS_PS_SERVER_H

#include <atomic>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"
#include "fl/server.h"
#include "ps/async_aggregator.h"
#include "ps/executor.h"
#include "ps/ps_config.h"
#include "ps/round_pipeline.h"
#include "ps/sharded_store.h"
#include "store/checkpoint_writer.h"

namespace autofl {

/** One client job: a device and its local shard. */
struct PsRoundJob
{
    int device_id = -1;
    const Dataset *shard = nullptr;
};

/** Parameter-server runtime wrapping a synchronous Server. */
class PsServer
{
  public:
    /**
     * @param server Aggregation server holding the initialized model;
     *        must outlive this object. Its weights seed the store.
     * @param params,hyper,alg,seed The FL job settings (alg must not be
     *        FEDL, whose gradient exchange is inherently synchronous).
     * @param cfg Runtime knobs; cfg.executor_threads of 0 falls back to
     *        @p default_threads.
     */
    PsServer(Server &server, Workload workload, const FlGlobalParams &params,
             const TrainHyper &hyper, Algorithm alg, uint64_t seed,
             const PsConfig &cfg, int default_threads);

    ~PsServer();

    /** Whether the streaming pipeline (depth > 1) is active. */
    bool pipelined() const { return pipeline_ != nullptr; }

    /**
     * Install the snapshot scorer used by the concurrent eval workers
     * (pipelined mode; ignored otherwise). Must be thread-safe.
     */
    void set_eval_fn(RoundPipeline::EvalFn fn);

    /**
     * Run one round to completion.
     *
     * Classic mode (pipeline_depth == 1): submit every job (in order —
     * submission order is the deterministic aggregation order), wait
     * for the stream to drain, flush the aggregator and write the store
     * back into the wrapped Server. Jobs pull the freshest
     * per-shard-consistent weights when they *start*, so with more jobs
     * than executor threads later jobs train on mid-round commits — the
     * semi-async pipeline.
     *
     * Pipelined mode: submit through the pipeline and block for this
     * round's result — correct but sequential; callers wanting overlap
     * use submit_round.
     */
    PsRoundStats run_round(const std::vector<PsRoundJob> &jobs,
                           uint64_t round);

    /**
     * Streaming entry: enqueue the round and return immediately. The
     * callback fires in round order once the round has retired and its
     * final snapshot is scored. In classic mode this degrades to a
     * synchronous run_round + inline evaluation before @p cb returns.
     */
    void submit_round(const std::vector<PsRoundJob> &jobs, uint64_t round,
                      PsRoundCallback cb);

    /**
     * Block until every submitted round has been delivered, then sync
     * the wrapped Server's weights from the store.
     */
    void drain();

    const ShardedStore &store() const { return store_; }
    AsyncAggregator &aggregator() { return agg_; }

    /**
     * Push-path wire bytes this runtime would have moved (classic mode,
     * in-process): the sum of each update's encoded payload size under
     * cfg.compression — raw f32 bytes for None.
     */
    uint64_t push_payload_bytes() const;

    /**
     * The snapshot persistence writer (null unless cfg.snapshot_dir is
     * set). Owned here so the checkpoint cadence rides this runtime's
     * commit path: pipelined rounds persist through the RoundPipeline
     * retirement hook (zero-copy history snapshot), classic rounds at
     * their barrier. Callers flush() it to wait for artifacts on disk.
     */
    store::CheckpointWriter *checkpoint_writer() { return ckpt_.get(); }

  private:
    Server &server_;
    FlGlobalParams params_;
    TrainHyper hyper_;
    Algorithm alg_;
    uint64_t seed_;
    PsConfig cfg_;
    ShardedStore store_;
    PsExecutor exec_;
    AsyncAggregator agg_;
    std::vector<std::unique_ptr<LocalTrainer>> trainers_;  ///< Per worker.
    RoundPipeline::EvalFn eval_fn_;  ///< Classic-mode inline scoring.
    ErrorFeedback error_feedback_;   ///< Push-compression residuals.
    std::atomic<uint64_t> push_payload_bytes_{0};

    /**
     * Snapshot persistence (cfg.snapshot_dir). Declared before the
     * pipeline: the pipeline's retirement hook enqueues into the
     * writer, so the pipeline must drain (be destroyed) first.
     */
    std::unique_ptr<store::CheckpointWriter> ckpt_;

    // Pipelined mode only. Declared after the components they use so
    // the pipeline drains (and the eval pool joins) before any of them
    // is torn down.
    std::unique_ptr<PsExecutor> eval_exec_;
    std::unique_ptr<RoundPipeline> pipeline_;
};

} // namespace autofl

#endif // AUTOFL_PS_PS_SERVER_H
