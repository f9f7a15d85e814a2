/**
 * @file
 * ClusterServer: the server node of the distributed parameter-server
 * runtime. Owns the ShardedStore and the bounded-staleness
 * AsyncAggregator (the same commit engine as the in-process runtime),
 * and speaks the wire.h protocol to worker nodes over any Transport —
 * loopback Vans, Unix sockets or TCP.
 *
 * Round protocol. run_round registers the round with the aggregator
 * (the same structural batching as the in-process RoundPipeline),
 * takes the round's launch snapshot — the fully committed previous
 * model — and assigns jobs round-robin over the alive workers
 * (RoundAssign carries (device, seq) pairs; seq fixes the job's batch,
 * so composition is structural and results are independent of worker
 * placement and timing). Every PullReq of the round, ranged or full,
 * is served from the launch snapshot, and a PushDelta decodes against
 * it: it is exactly the base every worker pulled. Pushes go straight
 * into the aggregator, and the round completes on its retire hook.
 *
 * Failure semantics. The Monitor declares a silent worker dead
 * (heartbeat timeout), a closed transport declares one dead
 * immediately, and the optional round deadline declares heartbeating
 * stragglers dead — in every case the node's in-flight jobs are
 * dropped from their batches (AsyncAggregator::drop), counted in
 * PsRoundStats::evicted, and the round completes without them. A dead
 * client costs one round's contribution, never a hang.
 */
#ifndef AUTOFL_NET_CLUSTER_H
#define AUTOFL_NET_CLUSTER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/monitor.h"
#include "net/postoffice.h"
#include "net/van.h"
#include "ps/async_aggregator.h"
#include "ps/ps_config.h"
#include "ps/sharded_store.h"

namespace autofl::net {

/** One client job of a distributed round. */
struct ClusterJob
{
    int device_id = -1;
};

/** Server node of the distributed ps runtime. */
class ClusterServer
{
  public:
    /**
     * @param init_weights Initial global model; fixes the store dim.
     * @param alg Aggregation algorithm (FEDL is rejected upstream).
     * @param cfg Runtime knobs: mode/staleness/shards plus cfg.net
     *        (heartbeats, timeouts). The monitor starts immediately.
     */
    ClusterServer(std::vector<float> init_weights, Algorithm alg,
                  const PsConfig &cfg);

    /** Shuts the cluster down if still running. */
    ~ClusterServer();

    ClusterServer(const ClusterServer &) = delete;
    ClusterServer &operator=(const ClusterServer &) = delete;

    /**
     * Register a worker over an established transport (the loopback
     * path). Assigns the node id and starts its receive thread.
     * Returns the id.
     */
    int add_worker(std::unique_ptr<Transport> van);

    /** Bind cfg.net.listen (socket schemes). False with @p err set. */
    bool start_listening(std::string *err);

    /**
     * Accept and register @p n workers within @p timeout_ms. Returns
     * the number accepted (== n on success).
     */
    int accept_workers(int n, int timeout_ms);

    /**
     * Run one round of @p jobs across the alive workers. Blocks until
     * the round retires, every job arrived or dropped; returns the
     * aggregator's stats, dead-worker losses counted in `evicted`.
     * With no alive workers the round completes immediately, fully
     * evicted.
     */
    PsRoundStats run_round(const std::vector<ClusterJob> &jobs,
                           uint64_t round);

    /**
     * Membership-wide sync point: broadcast Barrier and wait for every
     * alive worker's ack (deaths shrink the quorum). False on timeout.
     */
    bool barrier(int timeout_ms);

    /**
     * Graceful stop: barrier (bounded), broadcast Shutdown, close
     * every transport and join the receive threads. Idempotent.
     */
    void shutdown();

    ShardedStore &store() { return store_; }
    const ShardedStore &store() const { return store_; }
    Postoffice &postoffice() { return po_; }
    AsyncAggregator &aggregator() { return agg_; }

    /** Total jobs evicted because their worker died or timed out. */
    uint64_t dead_evictions() const { return dead_evictions_; }

    /**
     * Server-side wire bytes received on the push path (Push +
     * PushDelta frames, summed over every registered worker) — the
     * uplink traffic push compression is allowed to shrink. Pull
     * responses are deliberately excluded.
     */
    uint64_t push_bytes_received() const;

  private:
    struct Peer
    {
        int id = -1;
        std::unique_ptr<Transport> van;
        std::thread rx;
    };

    PsConfig cfg_;
    ShardedStore store_;
    AsyncAggregator agg_;
    Postoffice po_;
    Monitor monitor_;
    std::unique_ptr<Listener> listener_;
    std::vector<std::unique_ptr<Peer>> peers_;  ///< Index id-1.
    std::atomic<bool> shutting_down_{false};
    bool shut_ = false;
    std::atomic<uint64_t> dead_evictions_{0};

    // Round state. The aggregator's retire hook takes round_mu_, so
    // no call into the aggregator is made with it held.
    mutable std::mutex round_mu_;
    std::condition_variable round_cv_;
    bool round_retired_ = false;
    uint64_t current_round_ = 0;
    PsRoundStats round_stats_;  ///< Set by the retire hook.
    std::map<int, std::vector<uint64_t>> outstanding_;  ///< node -> seqs.

    /**
     * The weights every pull is served from and every PushDelta
     * decodes against: the store as the latest round launched (the
     * initial weights before the first round).
     */
    std::shared_ptr<const std::vector<float>> launch_;

    // Barrier state.
    std::condition_variable barrier_cv_;

    void rx_loop(Peer *peer);
    void handle(Peer *peer, Message &&m);
    bool send_to(int id, Message m);

    /**
     * Commit one validated Push (@p delta null: the update's weights
     * are m.floats) or PushDelta (the weights are the launch snapshot
     * plus @p delta): claim the (peer, seq) job from the active
     * round's outstanding set — a late push from an evicted or stale
     * round is dropped — then hand the update to the aggregator.
     */
    void accept_push(int peer, Message &m, const std::vector<float> *delta);

    /**
     * Drop @p id's in-flight jobs from the round and wake the barrier
     * waiter. The caller owns the Alive -> Dead transition
     * (Postoffice::mark_dead), so this runs at most once per node.
     */
    void evict_node(int id, const char *why, int silent_ms);
};

} // namespace autofl::net

#endif // AUTOFL_NET_CLUSTER_H
