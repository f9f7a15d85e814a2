#include "cluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

#include "kernels/kernels.h"

namespace autofl::net {

ClusterServer::ClusterServer(std::vector<float> init_weights, Algorithm alg,
                             const PsConfig &cfg)
    : cfg_(cfg), store_(std::move(init_weights), cfg.shards),
      agg_(store_, alg, cfg),
      monitor_(po_, cfg.net.heartbeat_timeout_ms,
               [this](int node, int silent_ms) {
                   evict_node(node, "heartbeat timeout", silent_ms);
               }),
      launch_(std::make_shared<const std::vector<float>>(store_.read()))
{
    agg_.set_hooks(nullptr, [this](uint64_t, const PsRoundStats &stats,
                                   uint64_t) {
        std::lock_guard<std::mutex> lk(round_mu_);
        round_stats_ = stats;
        round_retired_ = true;
        round_cv_.notify_all();
    });
    monitor_.start();
}

ClusterServer::~ClusterServer()
{
    shutdown();
}

int
ClusterServer::add_worker(std::unique_ptr<Transport> van)
{
    const int id = po_.add_worker("");
    auto peer = std::make_unique<Peer>();
    peer->id = id;
    peer->van = std::move(van);
    Peer *p = peer.get();
    peers_.push_back(std::move(peer));
    assert(static_cast<int>(peers_.size()) == id);
    monitor_.note_alive(id);  // The join itself is a sign of life.
    p->rx = std::thread([this, p] { rx_loop(p); });
    return id;
}

bool
ClusterServer::start_listening(std::string *err)
{
    const NetAddress addr = NetAddress::parse(cfg_.net.listen);
    if (!addr.socket_scheme()) {
        if (err)
            *err = "listen address '" + cfg_.net.listen +
                "' is not a socket scheme";
        return false;
    }
    listener_ = Listener::listen(addr, err);
    return listener_ != nullptr;
}

int
ClusterServer::accept_workers(int n, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    int accepted = 0;
    while (accepted < n && listener_) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0)
            break;
        auto van = listener_->accept(static_cast<int>(left));
        if (!van)
            continue;
        add_worker(std::move(van));
        ++accepted;
    }
    return accepted;
}

void
ClusterServer::rx_loop(Peer *peer)
{
    for (;;) {
        Message m;
        const RecvStatus rs = peer->van->recv(&m, -1);
        if (rs == RecvStatus::Ok) {
            monitor_.note_alive(peer->id);
            handle(peer, std::move(m));
            continue;
        }
        if (rs == RecvStatus::Timeout)
            continue;
        // Closed or Error: the node is gone. During shutdown that is
        // the expected teardown; otherwise it is a failure detected
        // faster than any heartbeat timeout.
        if (!shutting_down_ && po_.mark_dead(peer->id)) {
            const std::string why = rs == RecvStatus::Error ?
                "protocol error: " + peer->van->last_error() :
                "connection closed";
            evict_node(peer->id, why.c_str(), 0);
        }
        return;
    }
}

void
ClusterServer::handle(Peer *peer, Message &&m)
{
    switch (m.type) {
      case MsgType::Join: {
          Message ack;
          ack.type = MsgType::JoinAck;
          ack.from = Postoffice::kServerId;
          ack.seq = static_cast<uint64_t>(peer->id);
          peer->van->send(std::move(ack));
          return;
      }
      case MsgType::Heartbeat: {
          Message ack;
          ack.type = MsgType::HeartbeatAck;
          ack.from = Postoffice::kServerId;
          peer->van->send(std::move(ack));
          return;
      }
      case MsgType::PullReq: {
          std::shared_ptr<const std::vector<float>> base;
          {
              std::lock_guard<std::mutex> lk(round_mu_);
              base = launch_;
          }
          Message resp;
          resp.type = MsgType::PullResp;
          resp.from = Postoffice::kServerId;
          resp.round = m.round;
          resp.seq = m.seq;
          if (m.ints.size() == 2) {
              // Ranged pull: shard interval [lo, hi) in store stripes.
              const int lo = m.ints[0], hi = m.ints[1];
              if (lo < 0 || hi <= lo || hi > store_.num_shards())
                  return;  // Malformed range; drop, peer will time out.
              const auto [begin, _lo_end] = Postoffice::shard_range(
                  lo, store_.dim(), store_.num_shards());
              const auto [_hi_begin, end] = Postoffice::shard_range(
                  hi - 1, store_.dim(), store_.num_shards());
              resp.ints = {static_cast<int32_t>(begin),
                           static_cast<int32_t>(end)};
              resp.floats.assign(base->begin() + static_cast<long>(begin),
                                 base->begin() + static_cast<long>(end));
          } else {
              resp.ints = {0, static_cast<int32_t>(store_.dim())};
              resp.floats = *base;
          }
          peer->van->send(std::move(resp));
          return;
      }
      case MsgType::Push: {
          if (m.floats.size() != store_.dim() || m.ints.size() != 3 ||
              m.doubles.size() != 2) {
              std::fprintf(stderr,
                           "[net] worker %d push malformed "
                           "(%zu floats, dim %zu); dropping\n",
                           peer->id, m.floats.size(), store_.dim());
              return;
          }
          accept_push(peer->id, m, nullptr);
          return;
      }
      case MsgType::PushDelta: {
          // Full validation before any commit: every malformed frame —
          // wrong section sizes, unknown codec, truncated scale table,
          // NaN scales, bad sparse indices — is a typed drop, never a
          // crash. Late deltas from evicted rounds fall out of the
          // acceptance check exactly like raw pushes.
          std::vector<float> delta;
          const WireStatus ws = decode_push_delta(m, store_.dim(), &delta);
          if (ws != WireStatus::Ok) {
              std::fprintf(stderr,
                           "[net] worker %d push-delta rejected (%s); "
                           "dropping\n",
                           peer->id, wire_status_name(ws));
              return;
          }
          accept_push(peer->id, m, &delta);
          return;
      }
      case MsgType::BarrierAck: {
          po_.barrier_ack(peer->id, m.seq);
          std::lock_guard<std::mutex> lk(round_mu_);
          barrier_cv_.notify_all();
          return;
      }
      case MsgType::Bye: {
          po_.mark_left(peer->id);
          // A leave with jobs in flight still evicts them — the work
          // is gone either way; Left just records it was voluntary.
          evict_node(peer->id, "left", 0);
          return;
      }
      default:
          return;  // Worker-bound types are ignored on the server.
    }
}

void
ClusterServer::accept_push(int peer, Message &m,
                           const std::vector<float> *delta)
{
    std::shared_ptr<const std::vector<float>> base;
    {
        std::lock_guard<std::mutex> lk(round_mu_);
        auto it = outstanding_.find(peer);
        if (m.round != current_round_ || it == outstanding_.end())
            return;  // Late push from an evicted/stale round.
        auto &seqs = it->second;
        auto sit = std::find(seqs.begin(), seqs.end(), m.seq);
        if (sit == seqs.end())
            return;
        seqs.erase(sit);
        base = launch_;
    }

    LocalUpdate u;
    u.device_id = m.ints[0];
    u.num_steps = m.ints[1];
    u.num_samples = m.ints[2];
    u.train_loss = m.doubles[0];
    u.train_acc = m.doubles[1];
    if (!delta) {
        u.weights = std::move(m.floats);
    } else {
        // Reconstruct the absolute weights the worker trained to: the
        // launch snapshot it pulled plus the decoded delta — the same
        // floats the in-process runtime's decode-before-commit hands
        // its aggregator.
        u.weights = *base;
        kernels::vadd(u.weights.size(), delta->data(), u.weights.data());
    }
    agg_.push_pipelined(m.round, PsPush{std::move(u), m.seq});
}

bool
ClusterServer::send_to(int id, Message m)
{
    if (id < 1 || id > static_cast<int>(peers_.size()))
        return false;
    return peers_[static_cast<size_t>(id - 1)]->van->send(std::move(m));
}

void
ClusterServer::evict_node(int id, const char *why, int silent_ms)
{
    std::vector<uint64_t> seqs;
    uint64_t round = 0;
    {
        std::lock_guard<std::mutex> lk(round_mu_);
        auto it = outstanding_.find(id);
        if (it != outstanding_.end()) {
            seqs = std::move(it->second);
            outstanding_.erase(it);
        }
        round = current_round_;
        // Account before the drops below: the last of them retires the
        // round, run_round returns as soon as it does, and callers read
        // dead_evictions() right after.
        dead_evictions_ += seqs.size();
        barrier_cv_.notify_all();
    }
    for (uint64_t seq : seqs)
        agg_.drop(round, seq);
    std::fprintf(stderr,
                 "[net] worker %d gone (%s%s); evicting %zu in-flight "
                 "job%s as stale\n",
                 id, why,
                 silent_ms > 0 ?
                     (" after " + std::to_string(silent_ms) + " ms").c_str() :
                     "",
                 seqs.size(), seqs.size() == 1 ? "" : "s");
}

PsRoundStats
ClusterServer::run_round(const std::vector<ClusterJob> &jobs, uint64_t round)
{
    const int n = static_cast<int>(jobs.size());
    PsRoundStats stats;
    if (n == 0)
        return stats;  // Empty rounds never reach the aggregator.
    const std::vector<int> ids = po_.alive_workers();
    if (ids.empty()) {
        std::fprintf(stderr,
                     "[net] round %llu: no alive workers; evicting all %d "
                     "jobs\n",
                     static_cast<unsigned long long>(round), n);
        stats.evicted = n;
        dead_evictions_ += static_cast<uint64_t>(n);
        return stats;
    }

    agg_.register_round(round, n);
    auto launch = std::make_shared<const std::vector<float>>(store_.read());
    std::map<int, std::vector<int32_t>> assign;  // node -> [dev, seq, ...].
    {
        std::lock_guard<std::mutex> lk(round_mu_);
        round_retired_ = false;
        current_round_ = round;
        launch_ = std::move(launch);
        outstanding_.clear();
        for (int i = 0; i < n; ++i) {
            const int w = ids[static_cast<size_t>(i) % ids.size()];
            outstanding_[w].push_back(static_cast<uint64_t>(i));
            auto &list = assign[w];
            list.push_back(jobs[static_cast<size_t>(i)].device_id);
            list.push_back(i);
        }
    }
    for (auto &[w, list] : assign) {
        Message m;
        m.type = MsgType::RoundAssign;
        m.from = Postoffice::kServerId;
        m.round = round;
        m.ints = std::move(list);
        if (!send_to(w, std::move(m)) && po_.mark_dead(w))
            evict_node(w, "send failed", 0);
    }

    std::unique_lock<std::mutex> lk(round_mu_);
    const auto retired = [&] { return round_retired_; };
    if (cfg_.net.round_timeout_ms > 0 &&
        !round_cv_.wait_for(
            lk, std::chrono::milliseconds(cfg_.net.round_timeout_ms),
            retired)) {
        // Deadline backstop: whoever still owes jobs is a straggler
        // beyond tolerance — declare dead, evict.
        std::vector<int> late;
        for (const auto &[w, seqs] : outstanding_)
            if (!seqs.empty())
                late.push_back(w);
        lk.unlock();
        for (int w : late)
            if (po_.mark_dead(w))
                evict_node(w, "round deadline", 0);
        lk.lock();
    }
    round_cv_.wait(lk, retired);
    return round_stats_;
}

bool
ClusterServer::barrier(int timeout_ms)
{
    const uint64_t id = po_.open_barrier();
    for (int w : po_.alive_workers()) {
        Message m;
        m.type = MsgType::Barrier;
        m.from = Postoffice::kServerId;
        m.seq = id;
        send_to(w, std::move(m));
    }
    std::unique_lock<std::mutex> lk(round_mu_);
    return barrier_cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                                [&] { return po_.barrier_done(); });
}

uint64_t
ClusterServer::push_bytes_received() const
{
    uint64_t bytes = 0;
    for (const auto &p : peers_) {
        bytes += p->van->bytes_received(MsgType::Push) +
            p->van->bytes_received(MsgType::PushDelta);
    }
    return bytes;
}

void
ClusterServer::shutdown()
{
    if (shut_)
        return;
    shut_ = true;

    // Sync point first so workers drain their queues before the
    // Shutdown lands; a dead worker shrinks the quorum, and a timeout
    // just means we proceed to the hard stop.
    if (!peers_.empty())
        barrier(std::max(1000, cfg_.net.heartbeat_timeout_ms));

    shutting_down_ = true;
    for (auto &p : peers_) {
        Message m;
        m.type = MsgType::Shutdown;
        m.from = Postoffice::kServerId;
        p->van->send(std::move(m));
    }
    if (listener_)
        listener_->close();
    for (auto &p : peers_)
        p->van->close();
    for (auto &p : peers_)
        if (p->rx.joinable())
            p->rx.join();
    monitor_.stop();
}

} // namespace autofl::net
