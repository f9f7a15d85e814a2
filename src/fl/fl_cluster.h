/**
 * @file
 * FlCluster: the FL system's face of the distributed transport
 * (src/net/). Owns a ClusterServer built from the job's global model
 * and, depending on cfg.ps.net.listen, either a fleet of in-process
 * loopback workers (deterministic; the bit-parity fast case) or real
 * worker processes over Unix/TCP sockets (spawned from
 * cfg.ps.net.spawn_cmd, or attached externally).
 *
 * Rounds route through ClusterServer::run_round and the trained store
 * is synced back into the Server after every round, so evaluate() and
 * the serving plane work unchanged — a cluster-backed FlSystem commits
 * the same bits as the classic (depth-1) in-process one at every
 * staleness bound, just with the workers elsewhere.
 */
#ifndef AUTOFL_FL_FL_CLUSTER_H
#define AUTOFL_FL_FL_CLUSTER_H

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/process.h"
#include "net/worker.h"
#include "ps/ps_config.h"

namespace autofl {

class FlSystem;
struct FlSystemConfig;

/** Cluster-backed round runtime of one FlSystem. */
class FlCluster
{
  public:
    /** Binds to @p sys; nothing starts until start(). */
    explicit FlCluster(FlSystem &sys);

    /** Shuts down if still running. */
    ~FlCluster();

    FlCluster(const FlCluster &) = delete;
    FlCluster &operator=(const FlCluster &) = delete;

    /**
     * Bring the cluster up: build the server from the current global
     * weights, then — loopback — spawn cfg.ps.net.workers in-process
     * worker threads, or — socket schemes — listen, spawn the
     * configured worker processes (when spawn_cmd is set) and accept
     * them. False with @p err set when the fleet cannot assemble.
     */
    bool start(std::string *err);

    /** Whether start() has completed successfully. */
    bool started() const { return cluster_ != nullptr; }

    /**
     * Run one round of @p device_ids through the cluster and sync the
     * store back into the Server. Dead workers' jobs surface as
     * `evicted`, never as a hang.
     */
    PsRoundStats run_round(const std::vector<int> &device_ids,
                           uint64_t round);

    /** Graceful stop: cluster shutdown, join threads / reap processes. */
    void shutdown();

    net::ClusterServer &server() { return *cluster_; }

    /**
     * Loopback worker @p i (0-based spawn order), for fault injection
     * in tests; null in socket mode or out of range.
     */
    net::ClusterWorker *loopback_worker(int i);

    /** Process fleet handle (chaos injection); null in loopback mode. */
    net::WorkerProcessGroup *processes() { return procs_.get(); }

    /** Exit records collected by shutdown() (socket mode). */
    const std::vector<net::WorkerExit> &worker_exits() const
    {
        return exits_;
    }

  private:
    struct LoopWorker
    {
        std::unique_ptr<net::ClusterWorker> worker;
        std::thread thread;
    };

    FlSystem &sys_;
    std::unique_ptr<net::ClusterServer> cluster_;
    std::vector<std::unique_ptr<LoopWorker>> loop_workers_;
    std::unique_ptr<net::WorkerProcessGroup> procs_;
    std::vector<net::WorkerExit> exits_;
    bool shut_ = false;
};

/**
 * Entry point of a worker process: rebuild the datasets
 * deterministically from @p cfg (no data ships over the wire), dial
 * @p addr, join, and serve rounds until the server says Shutdown.
 * Returns a process exit code: 0 clean shutdown, 1 could not join,
 * 2 transport died mid-run.
 */
int run_cluster_worker(const FlSystemConfig &cfg, const std::string &addr);

} // namespace autofl

#endif // AUTOFL_FL_FL_CLUSTER_H
