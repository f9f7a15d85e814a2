/**
 * @file
 * ClusterWorker: the worker node of the distributed parameter-server
 * runtime. Joins the server, heartbeats on a background thread, and
 * processes RoundAssign jobs sequentially: pull the round's weights,
 * invoke the caller's train function, push the update with its
 * provenance.
 *
 * The worker is deliberately policy-free: it knows nothing about
 * datasets or training — the JobFn owns all of that — so net/ stays
 * usable from tests and benches without dragging the FL system in.
 *
 * Fault injection: halt_after_jobs(n) wedges the worker after its n-th
 * completed job — heartbeats stop and no further message is ever sent,
 * but the transport stays OPEN. That exercises the Monitor's
 * heartbeat-timeout path (the hard failure mode), not the easy
 * closed-connection path.
 */
#ifndef AUTOFL_NET_WORKER_H
#define AUTOFL_NET_WORKER_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fl/fl_types.h"
#include "net/net_config.h"
#include "net/van.h"
#include "ps/compression.h"

namespace autofl::net {

/** One assigned job, as handed to the train function. */
struct WorkerJob
{
    int device_id = -1;
    uint64_t round = 0;
    uint64_t seq = 0;             ///< Driver-assigned; aggregator sort key.
    std::vector<float> weights;   ///< Pulled global model.
};

/** Trains one job; the returned update is pushed verbatim. */
using JobFn = std::function<LocalUpdate(const WorkerJob &)>;

/** Worker node endpoint over any Transport. */
class ClusterWorker
{
  public:
    /**
     * @param van Established connection to the server.
     * @param cfg Heartbeat cadence and join timeout.
     * @param compression Push-delta codec; when enabled, updates leave
     *        as PushDelta messages (delta against the pulled weights,
     *        with this worker's per-device error feedback) instead of
     *        raw Push. Must match the server's PsConfig::compression.
     */
    ClusterWorker(std::unique_ptr<Transport> van, NetConfig cfg,
                  CompressionConfig compression = {});

    /** Stops the heartbeat thread and closes the transport. */
    ~ClusterWorker();

    ClusterWorker(const ClusterWorker &) = delete;
    ClusterWorker &operator=(const ClusterWorker &) = delete;

    /**
     * Join handshake: send Join, wait for JoinAck (bounded by
     * cfg.join_timeout_ms), start heartbeating. Messages the server
     * sends ahead of the ack are stashed, not lost. False with @p err
     * set on timeout or a broken transport.
     */
    bool join(std::string *err);

    /** Node id assigned by the server (-1 before join). */
    int id() const { return id_; }

    /**
     * Serve rounds until the server says Shutdown. Returns true on a
     * clean shutdown, false if the transport closed or errored first.
     * A halted (fault-injected) worker keeps draining its socket
     * silently and returns false once the server tears it down.
     */
    bool run(const JobFn &fn);

    /**
     * Fault injection: complete @p n more jobs, then go silent with
     * the transport open (see file comment). Negative disables.
     */
    void halt_after_jobs(int n) { halt_after_jobs_ = n; }

    /** Graceful leave: announce Bye and stop heartbeating. */
    void leave();

    Transport &van() { return *van_; }

  private:
    std::unique_ptr<Transport> van_;
    NetConfig cfg_;
    CompressionConfig compression_;
    ErrorFeedback error_feedback_;  ///< Per-device residuals, this node.
    int id_ = -1;
    std::deque<Message> pending_;  ///< Stashed during join()/pull().

    std::thread hb_;
    std::mutex hb_mu_;
    std::condition_variable hb_cv_;
    bool hb_stop_ = false;

    std::atomic<int> halt_after_jobs_{-1};
    int jobs_done_ = 0;
    bool halted_ = false;

    void start_heartbeat();
    void stop_heartbeat();
    void heartbeat_loop();

    /** Next message, pending_ first. Ok/Timeout/Closed/Error. */
    RecvStatus next_message(Message *out, int timeout_ms);

    /**
     * Pull the weights for (round, seq). Blocks until the matching
     * PullResp arrives, stashing unrelated messages. False if the
     * transport dies first.
     */
    bool pull(uint64_t round, uint64_t seq, WorkerJob *job);

    void enter_halt();
};

} // namespace autofl::net

#endif // AUTOFL_NET_WORKER_H
