#include "worker.h"

#include <chrono>
#include <cstdio>

#include "kernels/kernels.h"

namespace autofl::net {

ClusterWorker::ClusterWorker(std::unique_ptr<Transport> van, NetConfig cfg,
                             CompressionConfig compression)
    : van_(std::move(van)), cfg_(std::move(cfg)), compression_(compression)
{
}

ClusterWorker::~ClusterWorker()
{
    stop_heartbeat();
    if (van_)
        van_->close();
}

bool
ClusterWorker::join(std::string *err)
{
    Message hello;
    hello.type = MsgType::Join;
    if (!van_->send(std::move(hello))) {
        if (err)
            *err = "join: transport broken before handshake";
        return false;
    }
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(cfg_.join_timeout_ms);
    for (;;) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (left <= 0) {
            if (err)
                *err = "join: no JoinAck within " +
                    std::to_string(cfg_.join_timeout_ms) + " ms";
            return false;
        }
        Message m;
        const RecvStatus rs = van_->recv(&m, static_cast<int>(left));
        if (rs == RecvStatus::Timeout)
            continue;
        if (rs != RecvStatus::Ok) {
            if (err)
                *err = std::string("join: transport ") +
                    recv_status_name(rs) +
                    (van_->last_error().empty() ?
                         "" :
                         " (" + van_->last_error() + ")");
            return false;
        }
        if (m.type == MsgType::JoinAck) {
            id_ = static_cast<int>(m.seq);
            start_heartbeat();
            return true;
        }
        // The server may race real traffic ahead of the ack over a
        // loopback pair registered before we looked; keep it.
        pending_.push_back(std::move(m));
    }
}

void
ClusterWorker::start_heartbeat()
{
    std::lock_guard<std::mutex> lk(hb_mu_);
    if (hb_.joinable())
        return;
    hb_stop_ = false;
    hb_ = std::thread([this] { heartbeat_loop(); });
}

void
ClusterWorker::stop_heartbeat()
{
    {
        std::lock_guard<std::mutex> lk(hb_mu_);
        hb_stop_ = true;
        hb_cv_.notify_all();
    }
    if (hb_.joinable())
        hb_.join();
}

void
ClusterWorker::heartbeat_loop()
{
    const auto period = std::chrono::milliseconds(
        std::max(1, cfg_.heartbeat_interval_ms));
    std::unique_lock<std::mutex> lk(hb_mu_);
    while (!hb_stop_) {
        if (hb_cv_.wait_for(lk, period, [this] { return hb_stop_; }))
            return;
        lk.unlock();
        Message beat;
        beat.type = MsgType::Heartbeat;
        beat.from = id_;
        const bool ok = van_->send(std::move(beat));
        lk.lock();
        if (!ok)
            return;  // Transport gone; run() will observe it too.
    }
}

RecvStatus
ClusterWorker::next_message(Message *out, int timeout_ms)
{
    if (!pending_.empty()) {
        *out = std::move(pending_.front());
        pending_.pop_front();
        return RecvStatus::Ok;
    }
    return van_->recv(out, timeout_ms);
}

bool
ClusterWorker::pull(uint64_t round, uint64_t seq, WorkerJob *job)
{
    Message req;
    req.type = MsgType::PullReq;
    req.from = id_;
    req.round = round;
    req.seq = seq;
    if (!van_->send(std::move(req)))
        return false;
    for (;;) {
        Message m;
        const RecvStatus rs = next_message(&m, -1);
        if (rs == RecvStatus::Timeout)
            continue;
        if (rs != RecvStatus::Ok)
            return false;
        if (m.type == MsgType::PullResp && m.seq == seq &&
            m.round == round) {
            job->weights = std::move(m.floats);
            return true;
        }
        if (m.type == MsgType::HeartbeatAck)
            continue;  // Liveness noise; nothing to keep.
        pending_.push_back(std::move(m));
    }
}

void
ClusterWorker::enter_halt()
{
    halted_ = true;
    stop_heartbeat();
    std::fprintf(stderr,
                 "[net] worker %d halting after %d jobs (fault "
                 "injection; transport stays open)\n",
                 id_, jobs_done_);
}

bool
ClusterWorker::run(const JobFn &fn)
{
    for (;;) {
        Message m;
        const RecvStatus rs = next_message(&m, -1);
        if (rs == RecvStatus::Timeout)
            continue;
        if (rs != RecvStatus::Ok)
            return false;
        if (halted_)
            continue;  // Wedged: drain the socket, answer nothing.
        switch (m.type) {
          case MsgType::RoundAssign: {
              // Pairs of (device_id, seq), processed sequentially —
              // one worker is one device at a time, like the serial
              // executor lane of the in-process runtime.
              for (size_t i = 0; i + 1 < m.ints.size(); i += 2) {
                  WorkerJob job;
                  job.device_id = m.ints[i];
                  job.round = m.round;
                  job.seq = static_cast<uint64_t>(m.ints[i + 1]);
                  if (!pull(m.round, job.seq, &job))
                      return false;
                  LocalUpdate u = fn(job);
                  Message push;
                  if (compression_.enabled() &&
                      u.weights.size() == job.weights.size()) {
                      // Ship the delta against the pulled weights;
                      // error feedback folds in whatever previous
                      // rounds' quantizers dropped for this device.
                      std::vector<float> delta = std::move(u.weights);
                      kernels::vsub(delta.size(), job.weights.data(),
                                    delta.data());
                      push = make_push_delta(
                          u.device_id, static_cast<int>(u.num_steps),
                          static_cast<int>(u.num_samples), u.train_loss,
                          u.train_acc,
                          error_feedback_.encode(compression_, u.device_id,
                                                 std::move(delta)));
                  } else {
                      push.type = MsgType::Push;
                      push.ints = {u.device_id,
                                   static_cast<int32_t>(u.num_steps),
                                   static_cast<int32_t>(u.num_samples)};
                      push.doubles = {u.train_loss, u.train_acc};
                      push.floats = std::move(u.weights);
                  }
                  push.from = id_;
                  push.round = m.round;
                  push.seq = job.seq;
                  if (!van_->send(std::move(push)))
                      return false;
                  ++jobs_done_;
                  const int halt_at = halt_after_jobs_.load();
                  if (halt_at >= 0 && jobs_done_ >= halt_at) {
                      enter_halt();
                      break;
                  }
              }
              break;
          }
          case MsgType::Barrier: {
              Message ack;
              ack.type = MsgType::BarrierAck;
              ack.from = id_;
              ack.seq = m.seq;
              if (!van_->send(std::move(ack)))
                  return false;
              break;
          }
          case MsgType::Shutdown:
              stop_heartbeat();
              return true;
          case MsgType::HeartbeatAck:
          default:
              break;  // Server-bound or noise; ignore.
        }
    }
}

void
ClusterWorker::leave()
{
    stop_heartbeat();
    Message bye;
    bye.type = MsgType::Bye;
    bye.from = id_;
    van_->send(std::move(bye));
}

} // namespace autofl::net
