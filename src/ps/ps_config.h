/**
 * @file
 * Configuration knobs and round statistics for the parameter-server
 * runtime (src/ps/). Kept free of other fl/ includes so fl/system.h can
 * embed a PsConfig without an include cycle.
 */
#ifndef AUTOFL_PS_PS_CONFIG_H
#define AUTOFL_PS_PS_CONFIG_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/net_config.h"
#include "ps/compression.h"

namespace autofl {

/**
 * How the server consumes client updates.
 *
 * - Sync: the classic round barrier — every included participant trains
 *   on the same broadcast weights and one aggregation commits them all.
 * - SemiAsync: bounded-staleness pipeline. The aggregator commits a
 *   partial batch as soon as ceil(K / (S+1)) updates are buffered;
 *   updates observed staler than the bound S are evicted (the
 *   parameter-server re-expression of FedAvg's straggler drop). S = 0
 *   degenerates to Sync bit-for-bit under a fixed seed.
 * - Async: every update commits on arrival with no staleness bound,
 *   damped by the staleness factor and the async mixing rate.
 */
enum class SyncMode { Sync, SemiAsync, Async };

/** Display name: "Sync", "SemiAsync" or "Async". */
std::string sync_mode_name(SyncMode m);

/** Parameter-server runtime configuration. */
struct PsConfig
{
    SyncMode mode = SyncMode::Sync;

    /** Lock stripes in the sharded model store. */
    int shards = 8;

    /**
     * Staleness bound S (SemiAsync only): a round commits in at most
     * S+1 sequence-contiguous batches and an update's staleness is its
     * batch index, so none exceeds S. 0 reproduces synchronous FedAvg
     * exactly.
     */
    int staleness_bound = 1;

    /**
     * Streaming switch. 1 (the default) drains every round at its
     * barrier — the classic runtime: a round launches at the previous
     * round's last commit. Above 1, round t+1's jobs are
     * launched as soon as round t's first commit publishes a store
     * snapshot, so training structurally overlaps two rounds (the
     * previous round's straggler tail plus the current round) while
     * commits retire in round order, keeping the result stream
     * deterministic (see RoundPipeline). Values above 2 do not deepen
     * training overlap; in the experiment harness they bound how many
     * rounds the driver may submit ahead of the results it has
     * observed.
     */
    int pipeline_depth = 1;

    /**
     * Concurrent evaluation workers scoring retired-round snapshots
     * (pipelined mode only). Evaluation overlaps later rounds' training;
     * results are still delivered in round order.
     */
    int eval_workers = 2;

    /**
     * Simulated per-device latency (seconds) injected into each local
     * training job, scaled 0.5x-2x by device id. 0 disables. Used by the
     * throughput bench so rounds/sec measures the runtime's ability to
     * overlap device latency rather than raw single-core arithmetic.
     */
    double sim_device_latency_s = 0.0;

    /**
     * The job's simulated latency: base scaled by a deterministic
     * 0.5x-2x per-device heterogeneity. One definition shared by the
     * Sync and ps paths so bench rows compare runtimes, not sleep
     * schedules.
     */
    double sim_latency_for(int device_id) const
    {
        return sim_device_latency_s * (0.5 + 0.5 * (device_id % 4));
    }

    /**
     * Distributed transport (src/net/). net.listen == "" keeps the
     * classic in-process runtime; "loopback" routes rounds through
     * LoopbackVan endpoints, and a socket scheme runs real worker
     * processes. See NetConfig.
     */
    NetConfig net;

    /**
     * Push-path update compression (see ps/compression.h). Client
     * pushes carry encoded deltas instead of raw f32 weights — over
     * the cluster as PushDelta wire messages, in-process as an
     * encode/decode round trip before the aggregator — with per-client
     * error feedback. None keeps the bit-for-bit uncompressed runtime.
     * Compressed modes require the ps runtime (mode != Sync) at
     * pipeline_depth 1: the residual sequence is deterministic only
     * when a device trains at most once concurrently.
     */
    CompressionConfig compression;

    /**
     * Snapshot persistence (src/store/). Non-empty: the runtime owns a
     * store::CheckpointWriter and durably writes the post-round model
     * (temp + fsync + atomic rename; "latest.snap" always names a
     * complete artifact) without ever blocking training. Empty (the
     * default) disables checkpointing.
     */
    std::string snapshot_dir;

    /**
     * Checkpoint cadence: persist after every Nth retired round's
     * commits (for single-batch rounds — Sync, SemiAsync(S=0) — one
     * round is one store epoch, so this is snapshot-every-N-epochs).
     * 1 checkpoints every round. Only meaningful with snapshot_dir.
     */
    int snapshot_every_epochs = 1;

    /**
     * Checkpoint retention: keep the newest K "model-r<N>.snap"
     * artifacts (plus any registry-pinned rounds) and delete older
     * ones, counting deletions in the writer's stats. 0 (the default)
     * keeps everything. Only meaningful with snapshot_dir.
     */
    int snapshot_keep_last = 0;

    /**
     * Rounds retention must never delete — the registry's pinned
     * versions. FlSystem fills this from the registry manifest when
     * publishing through one; set by hand otherwise. Ignored when
     * snapshot_keep_last == 0.
     */
    std::vector<uint64_t> snapshot_pinned;

    /**
     * Path of an artifact to restore before training starts (the
     * crash-resume flag). The run continues from the artifact's round:
     * for single-batch rounds, resuming at round R and re-running is
     * bit-identical to the uninterrupted run — the same determinism
     * contract as SemiAsync(S=0) == Sync. With S > 0 the resumed run
     * is a valid continuation but not bit-exact (a final-state
     * artifact cannot reproduce an intra-round first-commit pull).
     * Empty disables. Incompatible with push compression (per-client
     * error-feedback residuals are not persisted).
     */
    std::string resume_from;

    /** Whether the round just retired is a checkpoint point. */
    bool snapshot_due(uint64_t round) const
    {
        return !snapshot_dir.empty() &&
               (round + 1) %
                       static_cast<uint64_t>(snapshot_every_epochs) ==
                   0;
    }

    /**
     * Validate the knobs, throwing std::invalid_argument with an
     * actionable message. @p who names the owning config in messages
     * (e.g. "FlSystemConfig::ps").
     */
    void validate(const char *who) const;
};

/** Outcome statistics of one training round under the ps runtime. */
struct PsRoundStats
{
    int pushed = 0;    ///< Updates handed to the aggregator.
    int applied = 0;   ///< Updates folded into the global model.
    int evicted = 0;   ///< Updates dropped for exceeding the bound.
    int commits = 0;   ///< Aggregation commits this round.
    double mean_staleness = 0.0;  ///< Mean staleness of applied updates.
    int max_staleness = 0;        ///< Max staleness of applied updates.
};

/** One retired round's result, delivered by the streaming pipeline. */
struct PsRoundResult
{
    uint64_t round = 0;
    PsRoundStats stats;

    /**
     * Test accuracy of the store snapshot taken right after the round's
     * last commit, scored by a concurrent eval worker; -1 when no eval
     * function is configured.
     */
    double accuracy = -1.0;

    /** Store epoch (commit clock) after the round's last commit. */
    uint64_t final_epoch = 0;
};

/** Round-ordered completion callback for pipelined round submission. */
using PsRoundCallback = std::function<void(const PsRoundResult &)>;

} // namespace autofl

#endif // AUTOFL_PS_PS_CONFIG_H
