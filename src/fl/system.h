/**
 * @file
 * FlSystem: the complete training-side FL stack — per-device shards, the
 * aggregation server, and (multithreaded) local training — independent of
 * any scheduling policy. Policies decide *who* trains; FlSystem does the
 * actual learning so accuracy dynamics (IID vs non-IID, straggler drops)
 * are real, not modeled.
 */
#ifndef AUTOFL_FL_SYSTEM_H
#define AUTOFL_FL_SYSTEM_H

#include <memory>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/server.h"
#include "ps/ps_config.h"
#include "serve/serve_config.h"
#include "store/checkpoint_writer.h"

namespace autofl {

class PsServer;
class PsExecutor;
class ModelService;
class FlCluster;

/** Configuration of one FL training job. */
struct FlSystemConfig
{
    Workload workload = Workload::CnnMnist;
    FlGlobalParams params;                 ///< (B, E, K).
    Algorithm algorithm = Algorithm::FedAvg;
    TrainHyper hyper;
    SyntheticConfig data;                  ///< Dataset generation.
    PartitionConfig partition;             ///< Shard assignment.
    uint64_t seed = 1234;                  ///< Weight init + client RNG.
    int threads = 8;                       ///< Parallel local training.
    PsConfig ps;                           ///< Parameter-server runtime.
    ServeConfig serve;                     ///< Model-serving plane.

    /**
     * Check the runtime knobs, throwing std::invalid_argument with an
     * actionable message on the first violation. FlSystem's
     * constructor calls this before building anything.
     */
    void validate() const;
};

/**
 * One client job, the only place a device trains under every runtime
 * (the Sync barrier, the classic and pipelined ps runtimes, cluster
 * workers): sleep for the device's simulated latency, derive its
 * (seed, device, round) RNG stream, run local SGD from @p weights on
 * @p shard and stamp the device id. The update is a pure function of
 * (seed, device, round, weights), so where a job runs never shows in
 * the trained weights.
 * @param fedl_correction FEDL's per-weight linear-term coefficients
 *        (empty for every other algorithm).
 */
LocalUpdate train_client_job(LocalTrainer &trainer, const FlSystemConfig &cfg,
                             int device_id, uint64_t round,
                             const std::vector<float> &weights,
                             const Dataset &shard,
                             const std::vector<float> &fedl_correction = {});

/** Complete FL training stack for one job. */
class FlSystem
{
  public:
    explicit FlSystem(const FlSystemConfig &cfg);
    ~FlSystem();

    /** Number of devices holding shards. */
    int num_devices() const { return static_cast<int>(shards_.size()); }

    /** A device's local dataset. */
    const Dataset &shard(int device_id) const;

    /** Distinct label classes on a device (the S_Data feature input). */
    int classes_on_device(int device_id) const;

    /** Whether the partitioner made the device non-IID. */
    bool device_non_iid(int device_id) const;

    /** Global held-out test set. */
    const Dataset &test_set() const { return data_.test; }

    /** The aggregation server. */
    Server &server() { return server_; }
    const Server &server() const { return server_; }

    /**
     * Run local training on the selected devices, parallel across the
     * system's training pool (one train_client_job per device).
     * Updates are returned in @p device_ids order and are a pure
     * function of (seed, device, round), never of job placement.
     * FEDL's two-phase gradient exchange happens inside when
     * configured.
     * @param round Round index (decorrelates per-round client RNG).
     */
    std::vector<LocalUpdate> run_local_round(
        const std::vector<int> &device_ids, uint64_t round);

    /** Aggregate the given (included) updates into the global model. */
    void aggregate(const std::vector<LocalUpdate> &updates);

    /**
     * Unified round entry dispatching on the runtime: the synchronous
     * barrier (run_local_round + aggregate), the parameter-server
     * runtime (concurrent jobs, bounded-staleness aggregation) or the
     * cluster. FEDL always takes the synchronous path — its gradient
     * exchange is a barrier by construction. Every runtime except the
     * pipelined one (which checkpoints from its retirement hook)
     * requests its checkpoint here, at the one barrier point.
     */
    PsRoundStats run_round(const std::vector<int> &device_ids,
                           uint64_t round);

    /**
     * Streaming round entry: enqueue the round and return. Under the
     * pipelined ps runtime (cfg.ps.pipeline_depth > 1) up to depth
     * rounds overlap and @p cb fires in round order — with the round's
     * test accuracy scored by a concurrent eval worker from the round's
     * final store snapshot — once the round retires. Under any other
     * runtime the round runs inline (run_round, then evaluate(), then
     * @p cb) before this returns, so drivers can use one code path.
     * Submit from one driver thread, in increasing round order.
     */
    void submit_round(const std::vector<int> &device_ids, uint64_t round,
                      PsRoundCallback cb);

    /** Wait until every submitted round's callback has returned. */
    void drain();

    /** Whether submit_round actually overlaps rounds. */
    bool pipelined() const;

    /** The ps runtime, or null when running synchronously. */
    PsServer *ps() { return ps_.get(); }

    /**
     * The distributed cluster runtime (cfg.ps.net.listen != ""), or
     * null. Started lazily at the first round; rounds route through it
     * instead of the in-process runtimes.
     */
    FlCluster *cluster() { return cluster_.get(); }

    /**
     * The serving plane: versioned snapshot handles over this job's
     * global model plus the batched inference engine. Safe to query
     * from any thread, concurrently with (pipelined) training.
     */
    ModelService &serve() { return *serve_; }

    /**
     * Test accuracy of the current global model — a thin call into the
     * serving plane (acquire the latest snapshot, batched engine eval).
     */
    double evaluate();

    /** Job configuration. */
    const FlSystemConfig &config() const { return cfg_; }

    /** Structural profile of the trained model. */
    const NnProfile &profile() const { return profile_; }

    /**
     * Whether cfg.ps.resume_from restored an artifact into the server
     * before any runtime was built. All runtimes seed from the
     * server's weights (PsServer's store, the cluster, the sync
     * barrier), so a resumed system continues from the artifact state
     * no matter which path trains.
     */
    bool resumed() const { return resumed_; }

    /**
     * The restored artifact's round (meaningless unless resumed()).
     * Drivers continue the round sequence at resume_round() + 1; for
     * single-batch rounds the continuation is bit-identical to the
     * uninterrupted run (see PsConfig::resume_from).
     */
    uint64_t resume_round() const { return resume_round_; }

    /**
     * The snapshot persistence writer, one for every runtime; null
     * when cfg.ps.snapshot_dir is unset. Callers flush() it to wait
     * for artifacts on disk.
     */
    store::CheckpointWriter *checkpoint_writer();

  private:
    FlSystemConfig cfg_;
    TrainTestSplit data_;
    Partition partition_;
    std::vector<Dataset> shards_;
    Server server_;
    NnProfile profile_;

    bool resumed_ = false;
    uint64_t resume_round_ = 0;
    uint64_t resume_epoch_ = 0;  ///< The restored artifact's epoch.

    // Everything the ps runtime's pipeline calls into is declared
    // before ps_, so it is destroyed after ~PsServer drains the
    // pipeline: queued eval closures call serve_, retirement hooks
    // enqueue into ckpt_, and in-flight jobs run on exec_ with
    // trainers_.
    std::unique_ptr<ModelService> serve_;  ///< The serving plane.

    /** Snapshot persistence for every runtime (null when off). */
    std::unique_ptr<store::CheckpointWriter> ckpt_;

    // The training pool, one LocalTrainer per worker: created on first
    // use (eagerly when the ps runtime needs it), then reused for every
    // round by the Sync barrier and the ps runtime alike.
    std::vector<std::unique_ptr<LocalTrainer>> trainers_;
    std::unique_ptr<PsExecutor> exec_;

    std::unique_ptr<PsServer> ps_;  ///< Non-null when cfg.ps.mode != Sync.
    std::unique_ptr<FlCluster> cluster_;  ///< Non-null when ps.net set.

    /** Ensure exec_/trainers_ exist. */
    PsExecutor &training_pool();

    /**
     * The artifact epoch a barrier round stamps: the ps commit clock
     * (continuing from a resumed artifact's epoch, as the pipelined
     * retirement hook's stamps do), or completed rounds (round + 1)
     * for the Sync and cluster barriers — for single-commit rounds,
     * the same number.
     */
    uint64_t barrier_epoch(uint64_t round);

    /** Barrier checkpoint point (no-op without ckpt_ or off-cadence). */
    void maybe_checkpoint(uint64_t round, uint64_t epoch);
};

} // namespace autofl

#endif // AUTOFL_FL_SYSTEM_H
