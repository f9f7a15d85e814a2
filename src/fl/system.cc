#include "system.h"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "fl/fl_cluster.h"
#include "ps/executor.h"
#include "ps/ps_server.h"
#include "serve/model_service.h"
#include "store/model_registry.h"
#include "util/rng.h"

namespace autofl {

void
FlSystemConfig::validate() const
{
    if (threads < 1) {
        throw std::invalid_argument(
            "FlSystemConfig.threads must be >= 1 (got " +
            std::to_string(threads) +
            "): local training needs at least one worker");
    }
    ps.validate("FlSystemConfig.ps");
    serve.validate("FlSystemConfig.serve");
    if (!serve.registry_dir.empty() && !ps.snapshot_dir.empty()) {
        throw std::invalid_argument(
            "FlSystemConfig.serve.registry_dir and "
            "FlSystemConfig.ps.snapshot_dir are both set: registry "
            "publication derives the artifact directory from the "
            "registry (registry_dir/<model>), so a bare snapshot_dir "
            "would be silently ignored; set exactly one");
    }
    if (ps.net.enabled() && algorithm == Algorithm::Fedl) {
        throw std::invalid_argument(
            "FlSystemConfig.ps.net cannot run FEDL: its two-phase "
            "global-gradient exchange is a synchronous barrier the "
            "cluster round protocol does not speak; use FedAvg or "
            "FedProx");
    }
}

namespace {

/** Validate-then-copy so bad configs throw before any member builds. */
FlSystemConfig
validated(FlSystemConfig cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

LocalUpdate
train_client_job(LocalTrainer &trainer, const FlSystemConfig &cfg,
                 int device_id, uint64_t round,
                 const std::vector<float> &weights, const Dataset &shard,
                 const std::vector<float> &fedl_correction)
{
    if (cfg.ps.sim_device_latency_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            cfg.ps.sim_latency_for(device_id)));
    }
    Rng rng = client_rng(cfg.seed, device_id, round);
    LocalUpdate u = trainer.train(weights, shard, cfg.params, cfg.hyper,
                                  cfg.algorithm, fedl_correction, rng);
    u.device_id = device_id;
    return u;
}

FlSystem::FlSystem(const FlSystemConfig &cfg)
    : cfg_(validated(cfg)),
      data_(make_dataset(cfg_.workload, cfg_.data)),
      partition_(partition_dataset(data_.train, cfg_.partition)),
      server_(cfg_.workload, cfg_.algorithm, cfg_.hyper, cfg_.seed),
      profile_(model_profile(cfg_.workload))
{
    shards_.reserve(partition_.shards.size());
    for (const auto &indices : partition_.shards)
        shards_.push_back(data_.train.subset(indices));

    const uint64_t topology = store::model_topology_hash(
        workload_name(cfg_.workload), server_.global_weights().size());

    // Registry publication: register (or re-open) this system's model
    // in the configured registry and redirect checkpointing into the
    // model's registry directory — every artifact the run writes
    // becomes a servable name@version the moment its rename lands.
    // Must precede the checkpoint writer below, which reads
    // ps.snapshot_dir.
    if (!cfg_.serve.registry_dir.empty()) {
        store::ModelRegistry registry(cfg_.serve.registry_dir);
        const std::string name = cfg_.serve.model_name.empty()
            ? workload_name(cfg_.workload)
            : cfg_.serve.model_name;
        std::string dir;
        const store::RegistryStatus rs = registry.publish_dir(
            name, workload_name(cfg_.workload), &dir);
        if (rs != store::RegistryStatus::Ok) {
            throw std::runtime_error(
                "FlSystem: cannot publish model '" + name +
                "' into registry '" + cfg_.serve.registry_dir +
                "': " + store::registry_status_name(rs) +
                (rs == store::RegistryStatus::BadManifest
                     ? " (the name is already bound to a different "
                       "workload, or its manifest is corrupt)"
                     : ""));
        }
        cfg_.ps.snapshot_dir = dir;
        // Registry-pinned versions join the retention pins so keep-last
        // pruning never deletes a version someone pinned.
        store::RegistryModel m;
        if (registry.lookup(name, &m) == store::RegistryStatus::Ok) {
            for (uint64_t r : m.pinned)
                cfg_.ps.snapshot_pinned.push_back(r);
        }
    }

    if (!cfg_.ps.resume_from.empty()) {
        // Restore BEFORE any runtime is built: PsServer's store, the
        // cluster and the sync barrier all seed from the server's
        // weights, so setting them here resumes every runtime alike.
        // The topology hash covers workload name + dimension, so a
        // wrong-model artifact fails typed (BadTopology), not by
        // scattering weights.
        store::SnapshotData snap;
        const store::SnapshotStatus st = store::read_snapshot_file(
            cfg_.ps.resume_from, &snap, topology);
        if (st != store::SnapshotStatus::Ok) {
            throw std::runtime_error(
                "FlSystem: cannot resume from '" + cfg_.ps.resume_from +
                "': " + store::snapshot_status_name(st) +
                " (artifacts are written by store::CheckpointWriter; "
                "point resume_from at <snapshot_dir>/latest.snap)");
        }
        assert(snap.weights.size() == server_.global_weights().size());
        server_.set_global_weights(std::move(snap.weights));
        resumed_ = true;
        resume_round_ = snap.meta.round;
        resume_epoch_ = snap.meta.epoch;
    }

    // Persistence, one writer for every runtime: the barrier runtimes
    // request at run_round's barrier, the pipelined runtime from the
    // retirement hook handed to PsServer below.
    if (!cfg_.ps.snapshot_dir.empty()) {
        store::RetentionPolicy retention;
        retention.keep_last = cfg_.ps.snapshot_keep_last;
        retention.pinned = cfg_.ps.snapshot_pinned;
        ckpt_ = std::make_unique<store::CheckpointWriter>(
            cfg_.ps.snapshot_dir, topology,
            static_cast<uint32_t>(cfg_.ps.shards), std::move(retention));
    }

    if (cfg_.ps.net.enabled()) {
        // Distributed transport: the cluster owns the store and the
        // aggregator; it assembles its worker fleet lazily at the
        // first round so constructing a system stays cheap.
        cluster_ = std::make_unique<FlCluster>(*this);
    } else if (cfg_.ps.mode != SyncMode::Sync &&
               cfg_.algorithm != Algorithm::Fedl) {
        RoundPipeline::CheckpointFn hook;
        if (ckpt_) {
            // Persistence rides retirement: the hook shares the
            // pipeline's own history snapshot zero-copy and the writer
            // only enqueues — a slow disk thins artifacts, it never
            // slows a commit wave.
            hook = [this](uint64_t round, uint64_t epoch,
                          std::shared_ptr<const std::vector<float>> w) {
                if (cfg_.ps.snapshot_due(round))
                    ckpt_->request(round, resume_epoch_ + epoch,
                                   std::move(w));
            };
        }
        ps_ = std::make_unique<PsServer>(
            server_, cfg_.algorithm, cfg_.ps, training_pool(),
            [this](int worker, int dev, const std::vector<float> &w,
                   uint64_t round) {
                return train_client_job(
                    *trainers_[static_cast<size_t>(worker)], cfg_, dev,
                    round, w, shard(dev));
            },
            std::move(hook));
    }

    // The serving plane. Pipelined mode sources snapshots straight from
    // the store (commit waves publish them) and scores retired rounds
    // on the concurrent eval pool, one snapshot per call; every other
    // runtime publishes at its round barrier, in evaluate(). Slot count
    // covers the eval pool so its workers never serialize on a shared
    // scratch model.
    ServeConfig scfg = cfg_.serve;
    if (pipelined())
        scfg.workers = std::max(scfg.workers, cfg_.ps.eval_workers);
    serve_ = std::make_unique<ModelService>(cfg_.workload, scfg);
    if (pipelined()) {
        serve_->attach_store(&ps_->store());
        ps_->set_eval_fn([this](const StoreSnapshot &snap) {
            return serve_->evaluate(SnapshotHandle(snap), data_.test, 1)
                .accuracy;
        });
    }
}

FlSystem::~FlSystem()
{
    // The dynamic batcher's dispatcher threads acquire store snapshots,
    // and the store dies with ps_ (destroyed before serve_, which must
    // outlive the pipeline drain). Stop serving first so no dispatcher
    // touches the store after it; queued online requests complete as
    // Shutdown, the pipeline's queued eval closures still run — they
    // call the engine directly, not the batcher.
    if (serve_)
        serve_->stop_serving();
}

const Dataset &
FlSystem::shard(int device_id) const
{
    assert(device_id >= 0 && device_id < num_devices());
    return shards_[static_cast<size_t>(device_id)];
}

int
FlSystem::classes_on_device(int device_id) const
{
    return partition_.classes_per_device[static_cast<size_t>(device_id)];
}

bool
FlSystem::device_non_iid(int device_id) const
{
    return partition_.non_iid[static_cast<size_t>(device_id)];
}

PsExecutor &
FlSystem::training_pool()
{
    if (!exec_) {
        exec_ = std::make_unique<PsExecutor>(cfg_.threads);
        trainers_.reserve(static_cast<size_t>(exec_->threads()));
        for (int t = 0; t < exec_->threads(); ++t)
            trainers_.push_back(
                std::make_unique<LocalTrainer>(cfg_.workload));
    }
    return *exec_;
}

std::vector<LocalUpdate>
FlSystem::run_local_round(const std::vector<int> &device_ids, uint64_t round)
{
    const size_t n = device_ids.size();
    std::vector<LocalUpdate> updates(n);
    PsExecutor &exec = training_pool();

    // FEDL phase 1: clients report full local gradients at the current
    // global weights; the server averages them into its global-gradient
    // estimate used by every client's correction term.
    std::vector<std::vector<float>> fedl_grads;
    if (server_.wants_full_gradients()) {
        fedl_grads.resize(n);
        for (size_t i = 0; i < n; ++i) {
            exec.submit([this, &fedl_grads, &device_ids, i](int worker) {
                fedl_grads[i] =
                    trainers_[static_cast<size_t>(worker)]->full_gradient(
                        server_.global_weights(), shard(device_ids[i]));
            });
        }
        exec.wait_idle();
        server_.update_global_gradient(fedl_grads);
    }

    // One executor job per client. Placement is dynamic, but each
    // update is a pure function of (seed, device, round) — never of
    // the worker running it — so the trained weights are identical at
    // any thread count (same contract the seed's striped loop had).
    for (size_t i = 0; i < n; ++i) {
        exec.submit([this, &updates, &device_ids, &fedl_grads, round,
                     i](int worker) {
            const int dev = device_ids[i];
            std::vector<float> correction;
            if (server_.wants_full_gradients())
                correction = server_.fedl_correction(fedl_grads[i]);
            updates[i] = train_client_job(
                *trainers_[static_cast<size_t>(worker)], cfg_, dev, round,
                server_.global_weights(), shard(dev), correction);
        });
    }
    exec.wait_idle();
    return updates;
}

void
FlSystem::aggregate(const std::vector<LocalUpdate> &updates)
{
    server_.aggregate(updates);
}

PsRoundStats
FlSystem::run_round(const std::vector<int> &device_ids, uint64_t round)
{
    if (pipelined())
        return ps_->run_round(device_ids, round);  // Hook checkpoints.
    PsRoundStats stats;
    if (cluster_) {
        if (!cluster_->started()) {
            std::string err;
            if (!cluster_->start(&err))
                throw std::runtime_error("FlSystem: cluster start "
                                         "failed: " +
                                         err);
        }
        stats = cluster_->run_round(device_ids, round);
    } else if (ps_) {
        stats = ps_->run_round(device_ids, round);
    } else {
        auto updates = run_local_round(device_ids, round);
        aggregate(updates);
        stats.pushed = static_cast<int>(updates.size());
        stats.applied = stats.pushed;
        stats.commits = updates.empty() ? 0 : 1;
    }
    // Every barrier runtime has synced the server's weights by now, so
    // they ARE the post-round state; the copy crosses to the writer
    // thread and training moves on.
    maybe_checkpoint(round, barrier_epoch(round));
    return stats;
}

void
FlSystem::submit_round(const std::vector<int> &device_ids, uint64_t round,
                       PsRoundCallback cb)
{
    if (pipelined()) {
        ps_->submit_round(device_ids, round, std::move(cb));
        return;
    }
    // Every other runtime: the round and its evaluation run inline and
    // the callback fires before we return.
    PsRoundResult res;
    res.round = round;
    res.stats = run_round(device_ids, round);
    res.final_epoch = barrier_epoch(round);
    res.accuracy = evaluate();
    if (cb)
        cb(res);
}

void
FlSystem::drain()
{
    if (ps_)
        ps_->drain();
}

bool
FlSystem::pipelined() const
{
    return ps_ && ps_->pipelined();
}

store::CheckpointWriter *
FlSystem::checkpoint_writer()
{
    return ckpt_.get();
}

uint64_t
FlSystem::barrier_epoch(uint64_t round)
{
    return ps_ ? resume_epoch_ + ps_->aggregator().clock() : round + 1;
}

void
FlSystem::maybe_checkpoint(uint64_t round, uint64_t epoch)
{
    if (ckpt_ && cfg_.ps.snapshot_due(round)) {
        ckpt_->request(round, epoch,
                       std::make_shared<const std::vector<float>>(
                           server_.global_weights()));
    }
}

double
FlSystem::evaluate()
{
    // One consumption path for every runtime: snapshot handle in,
    // batched engine eval out. Store-backed services (pipelined mode)
    // already hold the latest commit snapshot; every other runtime
    // publishes the current global weights as a model version first (a
    // no-op when the weights haven't changed).
    if (!serve_->store_backed())
        serve_->publish(server_.global_weights());
    return serve_->evaluate(serve_->acquire(), data_.test).accuracy;
}

} // namespace autofl
