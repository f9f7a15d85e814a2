/**
 * @file
 * Serving-plane configuration. Kept free of other serve/ includes so
 * fl/system.h and harness/experiment.h can embed a ServeConfig without
 * pulling in the ModelService machinery.
 */
#ifndef AUTOFL_SERVE_SERVE_CONFIG_H
#define AUTOFL_SERVE_SERVE_CONFIG_H

#include <cstdint>
#include <string>

namespace autofl {

/**
 * What the request queue does with new work once queue_depth requests
 * are already waiting (admission control under overload).
 */
enum class ShedPolicy {
    /**
     * Reject the incoming request with ReplyStatus::Shed. Admitted
     * requests keep their latency bound; late arrivals fail fast.
     */
    RejectNew,
    /**
     * Evict the oldest queued request (completing it with
     * ReplyStatus::Shed) and admit the new one. Serves the freshest
     * traffic; long-waiting requests are the ones sacrificed.
     */
    DropOldest,
};

/**
 * Request priority class. Scheduling is strict-priority with a
 * starvation bound: within a class the earliest deadline dispatches
 * first (FIFO at equal deadlines); a lower class that has been passed
 * over ServeConfig::starvation_limit times gets the next dispatch
 * regardless, so sustained high-priority load cannot starve it.
 */
enum class Priority : uint8_t {
    High = 0,
    Normal = 1,
    Low = 2,
};

/** Number of Priority classes (array-sizing constant). */
inline constexpr int kPriorityClasses = 3;

/**
 * Per-request SLO fields, defaulted from ServeConfig when a caller
 * submits without options.
 */
struct SubmitOptions
{
    /**
     * Absolute completion deadline in microseconds on the serving
     * plane's steady clock (see ModelService::now_us()). 0 = no
     * deadline. A request whose deadline already passed — or provably
     * cannot be met given the model's observed batch service time — is
     * shed as ReplyStatus::DeadlineExceeded *before* any inference
     * work runs on it.
     */
    uint64_t deadline_us = 0;

    /** Scheduling class (see Priority). */
    Priority priority = Priority::Normal;
};

/** Configuration of the model-serving plane (src/serve/). */
struct ServeConfig
{
    /**
     * Rows per batched forward pass. Inference folds this many samples
     * into each layer call, so the Dense/LSTM projections run as one
     * GEMM instead of batch_size GEMV-shaped calls. 1 reproduces the
     * per-sample path (the bench's baseline). The default sits at the
     * cache knee: larger batches keep growing the GEMMs but push
     * conv activations out of L1/L2 (see BENCH_serve_throughput.json).
     */
    int batch_size = 16;

    /**
     * Inference worker slots. Each slot owns a scratch model whose
     * loaded weights are cached by snapshot identity, so repeated
     * queries against the same snapshot skip the weight reload. Also
     * the default evaluation fan-out.
     */
    int workers = 4;

    /**
     * How many epochs a cached SnapshotHandle may trail the latest
     * snapshot before ModelService::refresh() swaps it. 0 always
     * serves the freshest snapshot; a positive lag amortizes the
     * snapshot lookup across queries while training streams commits.
     */
    int max_snapshot_lag = 0;

    /**
     * Bound on requests waiting in the dynamic-batching queue (the
     * admission-control knob). Once the queue holds this many requests
     * the shed policy applies: overload produces typed Shed replies
     * with bounded latency for admitted work instead of an unbounded
     * backlog. In-flight batches (already claimed by a dispatcher) do
     * not count against the bound.
     */
    int queue_depth = 256;

    /**
     * Deadline (microseconds) for closing a partially filled batch: an
     * idle dispatcher stops waiting for more rows this long (or one
     * observed batch service time, if shorter) after an arrival opened
     * the batch, so a lone request never waits for peers that may not
     * come. Rows queued while every slot was busy never wait. 0
     * dispatches whatever is queued immediately (no coalescing wait).
     */
    int batch_timeout_us = 200;

    /** Overload behavior once queue_depth requests wait (see above). */
    ShedPolicy shed = ShedPolicy::RejectNew;

    /**
     * Model registry directory (see store::ModelRegistry). When set on
     * an FlSystemConfig/ExperimentConfig, training publishes its
     * checkpoints as registry versions under model_name instead of
     * writing a bare ps.snapshot_dir, and a ServingGateway can serve
     * every registered model from a cold start. Empty = no registry
     * (single-model legacy paths).
     */
    std::string registry_dir;

    /**
     * Registry name this system trains/serves. Empty defaults to the
     * workload's workload_name() at publish time.
     */
    std::string model_name;

    /**
     * Relative slot-pool weight of this model under a ServingGateway.
     * Model i is guaranteed max(1, floor(workers * w_i / sum_w))
     * dispatcher slots when it has queued work; idle capacity is shared
     * work-conserving. Must be > 0.
     */
    double weight = 1.0;

    /**
     * Default relative deadline (microseconds from submit) applied when
     * a request carries SubmitOptions::deadline_us == 0. 0 = requests
     * without an explicit deadline have none.
     */
    uint64_t default_deadline_us = 0;

    /** Default scheduling class for option-less submissions. */
    Priority default_priority = Priority::Normal;

    /**
     * Starvation bound: after a priority class's head request has been
     * passed over this many times by higher-class dispatches, it wins
     * the next dispatch regardless of class. Must be >= 1.
     */
    int starvation_limit = 8;

    /**
     * Validate the knobs, throwing std::invalid_argument with an
     * actionable message. @p who names the owning config in messages
     * (e.g. "FlSystemConfig::serve").
     */
    void validate(const char *who) const;
};

} // namespace autofl

#endif // AUTOFL_SERVE_SERVE_CONFIG_H
