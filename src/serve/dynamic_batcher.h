/**
 * @file
 * DynamicBatcher: the multi-model scheduling core of the serving plane
 * — shared dispatcher slots, weighted slot sharing, deadline-aware
 * batching.
 *
 * Callers submit model-ready input rows (tagged with a deadline and a
 * priority class) and get a future; `workers` dispatcher threads pull
 * requests off per-model RequestQueues, run ONE inference pass over
 * the coalesced rows on the model's engine against its latest
 * snapshot, and split the logits back per request. N concurrent 1-row
 * callers therefore pay ~1/batch_size of a forward pass each instead
 * of a full pass per call.
 *
 * Batch closing: a dispatcher back from a batch takes what queued
 * meanwhile at once; an idle one woken by an arrival waits for
 * batch_size rows, at most batch_timeout_us and at most the model's
 * observed batch service time (see dispatch_loop).
 *
 * Scheduling (the SLO machinery):
 *
 *  - **Weighted slot sharing.** Model i is guaranteed
 *    max(1, floor(workers * w_i / sum_w)) dispatcher slots whenever it
 *    has queued work. A free dispatcher always serves a below-guarantee
 *    model with work first; only when none exists may a model borrow
 *    beyond its guarantee (work-conserving), so one overloaded model
 *    cannot starve another — isolation the tab_serve_latency bench
 *    gates on.
 *  - **Priority + EDF.** Within a model, batches are built
 *    earliest-deadline-first within strict priority classes, FIFO at
 *    equal deadlines, with a starvation bound (see RequestQueue).
 *  - **Deadline-aware shedding.** A request whose deadline has passed
 *    at arrival, or provably cannot be met given the model's observed
 *    (EWMA) batch service time at dispatch, completes as
 *    ReplyStatus::DeadlineExceeded *without ever executing* — the plane
 *    never spends a forward pass on an answer it then throws away.
 *
 * Under overload the bounded queues shed typed rejections instead of
 * growing without bound, so admitted requests keep a bounded p99.
 *
 * Determinism: on the scalar kernel arch, inference logits are
 * bit-identical for any batch shape, so the same requests produce the
 * same predictions at ANY concurrency — however timing composes them
 * into batches. SIMD archs agree within the kernels' 1e-4 cross-variant
 * contract.
 */
#ifndef AUTOFL_SERVE_DYNAMIC_BATCHER_H
#define AUTOFL_SERVE_DYNAMIC_BATCHER_H

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/request_queue.h"
#include "serve/serve_config.h"

namespace autofl {

class ModelService;

/** Multi-model request-scheduling layer over shared dispatcher slots. */
class DynamicBatcher
{
  public:
    /**
     * Multi-model construction: @p workers shared dispatcher slots.
     * Register models with add_model(), then call start().
     */
    explicit DynamicBatcher(int workers);

    /**
     * Single-model convenience (the ModelService private batcher):
     * add_model(service, cfg) + start() with cfg.workers slots.
     */
    DynamicBatcher(ModelService &service, const ServeConfig &cfg);

    /** Shuts down (joining dispatchers) if still running. */
    ~DynamicBatcher();

    DynamicBatcher(const DynamicBatcher &) = delete;
    DynamicBatcher &operator=(const DynamicBatcher &) = delete;

    /**
     * Register @p service before start(). @p cfg supplies the model's
     * batching knobs, queue bound, slot weight and default SLOs
     * (validated). @p service must outlive the batcher (or its
     * shutdown). @return The model id to submit against.
     */
    int add_model(ModelService &service, const ServeConfig &cfg);

    /**
     * Compute slot guarantees and spawn the dispatcher threads.
     * add_model() is rejected afterwards.
     */
    void start();

    /**
     * Submit @p rows (>= 1 sample along the workload's batch axis,
     * layout per Dataset::batch_x) for batched inference against model
     * @p model's latest snapshot at dispatch time. Never blocks: under
     * overload the future completes immediately with ReplyStatus::Shed
     * per the model's shed policy, and an expired deadline completes as
     * DeadlineExceeded without queuing. opts.deadline_us == 0 picks up
     * the model's cfg.default_deadline_us (when set).
     * @param want_classes Also fill per-sample argmax classes.
     */
    std::future<InferenceReply> submit(int model, Tensor rows,
                                       bool want_classes,
                                       SubmitOptions opts = {});

    /**
     * Stop serving: close the queues, fail queued requests with
     * ReplyStatus::Shutdown, finish in-flight batches and join the
     * dispatchers. Idempotent, and serialized — every caller returns
     * only once the shutdown has fully completed. Subsequent submits
     * complete as Shutdown.
     */
    void shutdown();

    /** Snapshot of one model's serving counters. */
    ServeStats stats(int model) const;

    /** Registered models. */
    int model_count() const;

    /** Shared dispatcher slots. */
    int workers() const { return workers_; }

  private:
    /** Everything the scheduler knows about one registered model. */
    struct Model
    {
        Model(ModelService &svc, const ServeConfig &c, int axis, int rank);

        ModelService &service;
        ServeConfig cfg;
        const int batch_axis;  ///< Workload's sample dimension (cached).
        const int batch_rank;  ///< Workload's input rank (cached).
        RequestQueue queue;    ///< Guarded by the batcher's mu_.
        ServeStats stats;      ///< Guarded by mu_.
        uint64_t ewma_us = 0;  ///< Observed batch service time (mu_).
        int running = 0;       ///< Dispatchers currently on this model.
        int guarantee = 1;     ///< Weighted slot guarantee (start()).
    };

    void dispatch_loop();
    void dispatch(Model &m, std::vector<InferenceRequest> &batch);
    /** Next model a free dispatcher should serve; -1 when none has
     *  work. Guarantee-entitled models always win over borrowers. */
    int pick_model() const;  // Requires mu_.

    const int workers_;
    std::vector<std::unique_ptr<Model>> models_;

    mutable std::mutex mu_;  ///< Queues, stats, scheduling state.
    std::condition_variable work_cv_;
    bool started_ = false;  ///< Guarded by mu_.
    bool closed_ = false;   ///< Guarded by mu_.

    std::mutex shutdown_mu_;  ///< Serializes shutdown end to end.
    bool stopped_ = false;    ///< Guarded by shutdown_mu_.

    std::vector<std::thread> dispatchers_;  ///< Joined in shutdown().
};

} // namespace autofl

#endif // AUTOFL_SERVE_DYNAMIC_BATCHER_H
