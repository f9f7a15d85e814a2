#include "ps_server.h"

#include <cassert>
#include <condition_variable>
#include <stdexcept>

namespace autofl {

std::string
sync_mode_name(SyncMode m)
{
    switch (m) {
      case SyncMode::Sync:
        return "Sync";
      case SyncMode::SemiAsync:
        return "SemiAsync";
      case SyncMode::Async:
        return "Async";
    }
    return "unknown";
}

void
PsConfig::validate(const char *who) const
{
    const std::string w(who);
    if (pipeline_depth < 1) {
        throw std::invalid_argument(
            w + ".pipeline_depth must be >= 1 (got " +
            std::to_string(pipeline_depth) +
            "): 1 drains every round at its barrier; values above 1 "
            "stream that many rounds in flight");
    }
    if (staleness_bound < 0) {
        throw std::invalid_argument(
            w + ".staleness_bound must be >= 0 (got " +
            std::to_string(staleness_bound) +
            "): 0 reproduces synchronous FedAvg exactly; larger bounds "
            "admit staler updates");
    }
    if (eval_workers < 1) {
        throw std::invalid_argument(
            w + ".eval_workers must be >= 1 (got " +
            std::to_string(eval_workers) +
            "): the pipelined runtime needs at least one concurrent "
            "snapshot-eval worker");
    }
    if (shards < 1) {
        throw std::invalid_argument(
            w + ".shards must be >= 1 (got " + std::to_string(shards) +
            "): the model store needs at least one lock stripe");
    }
    if (snapshot_every_epochs < 1) {
        throw std::invalid_argument(
            w + ".snapshot_every_epochs must be >= 1 (got " +
            std::to_string(snapshot_every_epochs) +
            "): 1 checkpoints after every round; larger values thin "
            "the artifact cadence");
    }
    if (snapshot_keep_last < 0) {
        throw std::invalid_argument(
            w + ".snapshot_keep_last must be >= 0 (got " +
            std::to_string(snapshot_keep_last) +
            "): 0 keeps every artifact; K keeps the newest K plus "
            "pinned rounds");
    }
    if (snapshot_keep_last != 0 && snapshot_dir.empty()) {
        throw std::invalid_argument(
            w + ".snapshot_keep_last is set but " + w +
            ".snapshot_dir is empty: retention without a directory "
            "prunes nothing; set snapshot_dir to enable persistence");
    }
    if (snapshot_every_epochs != 1 && snapshot_dir.empty()) {
        throw std::invalid_argument(
            w + ".snapshot_every_epochs is set but " + w +
            ".snapshot_dir is empty: a cadence without a directory "
            "silently checkpoints nothing; set snapshot_dir to enable "
            "persistence (or leave the cadence at its default)");
    }
    net.validate((w + ".net").c_str());
    compression.validate((w + ".compression").c_str());
    if (!resume_from.empty() && compression.enabled()) {
        throw std::invalid_argument(
            w + ".resume_from cannot be combined with push compression: "
            "artifacts persist the global weights but not the "
            "per-client error-feedback residuals, so a resumed "
            "compressed run would silently diverge; resume "
            "uncompressed or restart the compressed run from scratch");
    }
    if (compression.enabled()) {
        if (mode == SyncMode::Sync) {
            throw std::invalid_argument(
                w + ".compression: push-delta compression runs on the "
                "parameter-server push path; use mode SemiAsync with "
                "staleness_bound 0 for synchronous semantics, or Async");
        }
        if (pipeline_depth != 1) {
            throw std::invalid_argument(
                w + ".compression requires pipeline_depth == 1 (got " +
                std::to_string(pipeline_depth) +
                "): the error-feedback residual sequence is "
                "deterministic only when a device trains at most once "
                "concurrently");
        }
    }
    if (net.enabled()) {
        if (mode == SyncMode::Sync) {
            throw std::invalid_argument(
                w + ".net: the distributed transport runs on the "
                "parameter-server runtime; use mode SemiAsync with "
                "staleness_bound 0 for synchronous semantics (it is "
                "bit-identical to Sync), or Async");
        }
        if (pipeline_depth != 1) {
            throw std::invalid_argument(
                w + ".net requires pipeline_depth == 1 (got " +
                std::to_string(pipeline_depth) +
                "): streaming round overlap is not yet wired through "
                "the transport");
        }
    }
}

PsServer::PsServer(Server &server, Algorithm alg, const PsConfig &cfg,
                   PsExecutor &exec, RoundPipeline::TrainFn train,
                   RoundPipeline::CheckpointFn checkpoint)
    : server_(server), cfg_(cfg), store_(server.global_weights(), cfg.shards),
      exec_(exec), agg_(store_, alg, cfg)
{
    if (pipelined())
        eval_exec_ = std::make_unique<PsExecutor>(cfg_.eval_workers);
    // The in-process push "wire": encode the delta against the pulled
    // weights and hand the aggregator the decoded reconstruction —
    // exactly what a cluster server commits. None is a pure byte
    // count, zero float ops (bit parity).
    RoundPipeline::TrainFn job =
        [this, train = std::move(train)](int worker, int dev,
                                         const std::vector<float> &weights,
                                         uint64_t round) {
            LocalUpdate u = train(worker, dev, weights, round);
            push_payload_bytes_.fetch_add(
                error_feedback_.compress_update(cfg_.compression, dev,
                                                weights.data(), u.weights),
                std::memory_order_relaxed);
            return u;
        };
    pipeline_ = std::make_unique<RoundPipeline>(
        exec_, eval_exec_.get(), agg_, store_, cfg_, std::move(job));
    if (checkpoint && pipelined())
        pipeline_->set_checkpoint_hook(std::move(checkpoint));
}

PsServer::~PsServer()
{
    // The training pool outlives this runtime; no job of it may still
    // be inside the aggregator or the store when they are torn down.
    quiesce();
}

void
PsServer::set_eval_fn(RoundPipeline::EvalFn fn)
{
    pipeline_->set_eval_fn(std::move(fn));
}

PsRoundStats
PsServer::run_round(const std::vector<int> &device_ids, uint64_t round)
{
    // It returns stats only, so the round is submitted unevaluated —
    // no discarded test-set inference.
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    PsRoundStats stats;
    pipeline_->submit(device_ids, round,
                      [&](const PsRoundResult &res) {
                          std::lock_guard<std::mutex> lk(mu);
                          stats = res.stats;
                          ready = true;
                          cv.notify_one();
                      },
                      /*evaluate=*/false);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return ready; });
    server_.set_global_weights(store_.read());
    return stats;
}

void
PsServer::submit_round(const std::vector<int> &device_ids, uint64_t round,
                       PsRoundCallback cb)
{
    assert(pipelined());
    pipeline_->submit(device_ids, round, std::move(cb));
}

uint64_t
PsServer::push_payload_bytes() const
{
    return push_payload_bytes_.load(std::memory_order_relaxed);
}

void
PsServer::quiesce()
{
    // The job that retires a round delivers it from inside the
    // aggregator and only then returns out of it, so the pipeline
    // draining is not enough: the pool must go idle too.
    pipeline_->drain();
    exec_.wait_idle();
}

void
PsServer::drain()
{
    quiesce();
    server_.set_global_weights(store_.read());
}

} // namespace autofl
