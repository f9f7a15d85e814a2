/**
 * @file
 * ModelService: the serving-plane facade — one model-consumption path
 * for everything that *reads* the global model while training writes
 * it.
 *
 * The unit of consumption is the SnapshotHandle: a refcounted,
 * epoch-tagged view of one immutable weight vector. Acquiring a handle
 * is one mutex-guarded shared_ptr copy; every read through it after
 * that is lock-free and safe while striped commit waves keep mutating
 * the live store — the store publishes fresh snapshots, it never
 * touches old ones, and the handle's refcount keeps its vector alive
 * for as long as any consumer holds it. Epochs are monotone, so a
 * consumer can reason about model freshness ("how many commits behind
 * am I serving?") without ever blocking a commit.
 *
 * Three snapshot sources share the facade:
 *
 *  - **Store-backed** (attach_store): the pipelined ps runtime, whose
 *    commit waves publish epoch-tagged snapshots as a side effect of
 *    committing. Serving rides those snapshots with zero extra copies.
 *  - **Self-published** (publish): the synchronous runtimes, whose
 *    commit point is the round barrier. The barrier publishes the new
 *    global weights; identical re-publishes keep their epoch, so the
 *    epoch really counts model versions.
 *  - **Artifact-backed** (attach_artifact): a serving-only process
 *    cold-starting from an on-disk snapshot (store::MappedSnapshot) —
 *    no ps store, no training run. The handle views the mmap'd pages
 *    directly, so weights are shared read-only across every process
 *    serving the same artifact.
 *
 * Inference goes through the owned InferenceEngine: batched forward
 * passes on worker slots with per-snapshot weight caching. Concurrent
 * online queries go through submit(), the dynamic-batching entry point:
 * a bounded RequestQueue plus DynamicBatcher coalesce them into full
 * engine batches and shed typed rejections under overload. See
 * src/serve/README.md for the full API contract.
 */
#ifndef AUTOFL_SERVE_MODEL_SERVICE_H
#define AUTOFL_SERVE_MODEL_SERVICE_H

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "ps/sharded_store.h"
#include "serve/inference_engine.h"
#include "serve/request_queue.h"
#include "serve/serve_config.h"
#include "store/mapped_snapshot.h"

namespace autofl {

class DynamicBatcher;

/** Parameter-server facade over model consumption. */
class ModelService
{
  public:
    /**
     * @param workload Model architecture served.
     * @param cfg Serving knobs (validated; throws on nonsense).
     */
    explicit ModelService(Workload workload, ServeConfig cfg = {});
    ~ModelService();

    ModelService(const ModelService &) = delete;
    ModelService &operator=(const ModelService &) = delete;

    /**
     * Source snapshots from @p store (which must outlive every
     * consumer; see stop_serving): acquire() returns the store's
     * latest published snapshot. Set-once-before-use: call exactly
     * once (asserted), and strictly before publish() is ever called —
     * concurrent acquire() calls are safe (the pointer is an atomic
     * with release/acquire ordering), but the service must never
     * switch sources mid-flight. Only the pipelined runtime publishes
     * store snapshots past epoch 0.
     */
    void attach_store(const ShardedStore *store);

    /** Whether acquire() reads a live store. */
    bool
    store_backed() const
    {
        return store_.load(std::memory_order_acquire) != nullptr;
    }

    /**
     * Source snapshots from an mmap'd on-disk artifact — the serving
     * cold-start path: no ps store, no training run, weights read
     * straight from the (validated) mapped file and shared read-only
     * with any other process serving it. Set-once-before-use like
     * attach_store, exclusive with the other two sources. Throws
     * std::invalid_argument when the artifact's dimension or topology
     * hash does not match the served architecture — a wrong-model
     * artifact must fail loudly at attach, not scatter weights at
     * first query. acquire() then yields handles tagged with the
     * artifact's commit epoch.
     */
    void
    attach_artifact(std::shared_ptr<const store::MappedSnapshot> artifact);

    /** Whether acquire() reads an attached artifact. */
    bool
    artifact_backed() const
    {
        return artifact_.load(std::memory_order_acquire) != nullptr;
    }

    /**
     * Publish @p weights as the newest model version (self-published
     * source only). Re-publishing bitwise-identical weights keeps the
     * current epoch — the epoch counts model versions, not calls.
     * @return The epoch now serving.
     */
    uint64_t publish(const std::vector<float> &weights);

    /** Handle on the latest snapshot (epoch 0 before any publish). */
    SnapshotHandle acquire() const;

    /**
     * Re-acquire only when @p h trails the latest epoch by more than
     * cfg.max_snapshot_lag (an invalid handle always refreshes).
     * @return True when @p h was swapped to a newer snapshot.
     */
    bool refresh(SnapshotHandle &h) const;

    /** Epoch of the latest snapshot. */
    uint64_t latest_epoch() const { return acquire().epoch(); }

    /**
     * Batched test-set scoring of a snapshot — the one evaluation body
     * behind FlSystem::evaluate(), the pipeline's concurrent eval
     * workers and the harness accuracy path. Deterministic for any
     * fan-out (see InferenceEngine::evaluate).
     */
    EvalStats evaluate(const SnapshotHandle &h, const Dataset &test,
                       int fan_out = 0)
    {
        return engine_.evaluate(h, test, fan_out);
    }

    /** Batched class predictions for selected samples of a dataset. */
    std::vector<int> classify(const SnapshotHandle &h, const Dataset &data,
                              const std::vector<int> &indices)
    {
        return engine_.classify(h, data, indices);
    }

    /**
     * Submit @p rows (layout per Dataset::batch_x, >= 1 sample along
     * the workload's batch axis) to the dynamic batcher: concurrent
     * submissions coalesce into one engine batch (closed at
     * cfg.batch_size samples or the coalescing deadline; see
     * ServeConfig::batch_timeout_us)
     * against the latest snapshot at dispatch time. Never blocks —
     * under overload the future completes immediately with
     * ReplyStatus::Shed per cfg.shed (bounded queue, bounded p99).
     * @param want_classes Also argmax each sample into reply.classes.
     */
    std::future<InferenceReply> submit(Tensor rows,
                                       bool want_classes = false);

    /**
     * Submit with explicit SLO fields: an absolute deadline
     * (opts.deadline_us on the serve_now_us() clock; expired or
     * infeasible requests complete as ReplyStatus::DeadlineExceeded
     * without executing) and a priority class (strict priority with a
     * starvation bound, EDF within the class). opts.deadline_us == 0
     * picks up cfg.default_deadline_us when configured.
     */
    std::future<InferenceReply> submit(Tensor rows, bool want_classes,
                                       SubmitOptions opts);

    /** Synchronous convenience wrapper: submit and wait. */
    InferenceReply
    query(Tensor rows, bool want_classes = false)
    {
        return submit(std::move(rows), want_classes).get();
    }

    /** Microseconds now on the deadline clock (see SubmitOptions). */
    static uint64_t now_us() { return serve_now_us(); }

    /**
     * Stop the dynamic batcher (idempotent): queued requests complete
     * as ReplyStatus::Shutdown, in-flight batches finish, dispatcher
     * threads join, and later submits complete as Shutdown. Owners of
     * a store-backed service MUST call this before the attached store
     * dies — dispatchers acquire store snapshots. Direct engine calls
     * (evaluate/classify/forward) keep working.
     */
    void stop_serving();

    /** Serving counters (zeros before the first submit()). */
    ServeStats serving_stats() const;

    /** The batched inference engine (raw forward access). */
    InferenceEngine &engine() { return engine_; }

    const ServeConfig &config() const { return cfg_; }
    Workload workload() const { return workload_; }

  private:
    Workload workload_;
    ServeConfig cfg_;
    InferenceEngine engine_;

    /**
     * Store-backed source. Written once by attach_store() before any
     * consumer runs; atomic because acquire()/store_backed() read it
     * from serving threads without taking mu_ (release store pairs
     * with acquire loads).
     */
    std::atomic<const ShardedStore *> store_{nullptr};

    /**
     * Artifact-backed source, same set-once-before-use discipline as
     * store_: the atomic pointer gates readers (release store pairs
     * with acquire loads), artifact_owner_ holds the mapping alive and
     * is never written again after attach, so lock-free shared_ptr
     * copies from serving threads are safe.
     */
    std::atomic<const store::MappedSnapshot *> artifact_{nullptr};
    std::shared_ptr<const store::MappedSnapshot> artifact_owner_;

    mutable std::mutex mu_;  ///< Guards the self-published slot.
    StoreSnapshot local_;    ///< Self-published source.
    uint64_t next_epoch_ = 1;

    mutable std::mutex batcher_mu_;  ///< Guards lazy batcher creation.
    bool serving_stopped_ = false;   ///< stop_serving() is permanent.
    // Declared last: the batcher's dispatchers use engine_ and the
    // snapshot sources above, so it must be destroyed (joined) first.
    std::unique_ptr<DynamicBatcher> batcher_;
};

} // namespace autofl

#endif // AUTOFL_SERVE_MODEL_SERVICE_H
