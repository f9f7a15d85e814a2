#include "fl_cluster.h"

#include <cstdio>
#include <thread>

#include "fl/client.h"
#include "fl/system.h"

namespace autofl {

FlCluster::FlCluster(FlSystem &sys) : sys_(sys)
{
}

FlCluster::~FlCluster()
{
    shutdown();
}

bool
FlCluster::start(std::string *err)
{
    if (cluster_)
        return true;
    const FlSystemConfig &cfg = sys_.config();
    const NetConfig &ncfg = cfg.ps.net;
    auto cluster = std::make_unique<net::ClusterServer>(
        sys_.server().global_weights(), cfg.algorithm, cfg.ps);

    const net::NetAddress addr = net::NetAddress::parse(ncfg.listen);
    if (addr.scheme == net::NetAddress::Scheme::Loopback) {
        for (int i = 0; i < ncfg.workers; ++i) {
            auto [server_end, worker_end] = net::make_loopback_pair();
            cluster->add_worker(std::move(server_end));
            auto lw = std::make_unique<LoopWorker>();
            lw->worker = std::make_unique<net::ClusterWorker>(
                std::move(worker_end), ncfg, cfg.ps.compression);
            net::ClusterWorker *w = lw->worker.get();
            lw->thread = std::thread([this, w, &cfg] {
                std::string join_err;
                if (!w->join(&join_err)) {
                    std::fprintf(stderr, "[net] loopback worker: %s\n",
                                 join_err.c_str());
                    return;
                }
                LocalTrainer trainer(cfg.workload);
                w->run([this, &trainer, &cfg](const net::WorkerJob &job) {
                    return train_client_job(trainer, cfg, job.device_id,
                                            job.round, job.weights,
                                            sys_.shard(job.device_id));
                });
            });
            loop_workers_.push_back(std::move(lw));
        }
        cluster_ = std::move(cluster);
        return true;
    }

    if (!addr.socket_scheme()) {
        if (err)
            *err = "ps.net.listen '" + ncfg.listen +
                "' is not a cluster scheme";
        return false;
    }
    cluster_ = std::move(cluster);
    if (!cluster_->start_listening(err)) {
        cluster_.reset();
        return false;
    }
    if (!ncfg.spawn_cmd.empty()) {
        procs_ = std::make_unique<net::WorkerProcessGroup>();
        const int spawned =
            procs_->spawn(ncfg.workers, ncfg.spawn_cmd, ncfg.listen);
        if (spawned < ncfg.workers) {
            if (err)
                *err = "spawned only " + std::to_string(spawned) + " of " +
                    std::to_string(ncfg.workers) + " worker processes";
            shutdown();
            return false;
        }
    }
    const int joined =
        cluster_->accept_workers(ncfg.workers, ncfg.join_timeout_ms);
    if (joined < ncfg.workers) {
        if (err)
            *err = "only " + std::to_string(joined) + " of " +
                std::to_string(ncfg.workers) + " workers joined within " +
                std::to_string(ncfg.join_timeout_ms) + " ms";
        shutdown();
        return false;
    }
    return true;
}

PsRoundStats
FlCluster::run_round(const std::vector<int> &device_ids, uint64_t round)
{
    std::vector<net::ClusterJob> jobs;
    jobs.reserve(device_ids.size());
    for (int dev : device_ids)
        jobs.push_back(net::ClusterJob{dev});
    PsRoundStats stats = cluster_->run_round(jobs, round);
    // Same barrier contract as the classic runtime: after the round the
    // Server's weights ARE the store, so evaluate() and the serving
    // plane consume cluster rounds unchanged.
    sys_.server().set_global_weights(cluster_->store().read());
    return stats;
}

void
FlCluster::shutdown()
{
    if (shut_)
        return;
    shut_ = true;
    if (cluster_)
        cluster_->shutdown();
    for (auto &lw : loop_workers_)
        if (lw->thread.joinable())
            lw->thread.join();
    if (procs_) {
        const FlSystemConfig &cfg = sys_.config();
        exits_ = procs_->wait_all(
            std::max(5000, cfg.ps.net.heartbeat_timeout_ms * 2));
        procs_.reset();
    }
}

net::ClusterWorker *
FlCluster::loopback_worker(int i)
{
    if (i < 0 || i >= static_cast<int>(loop_workers_.size()))
        return nullptr;
    return loop_workers_[static_cast<size_t>(i)]->worker.get();
}

int
run_cluster_worker(const FlSystemConfig &cfg, const std::string &addr_str)
{
    // Rebuild the data plane exactly as the server did: make_dataset and
    // the partitioner are deterministic in (workload, data, partition),
    // so both sides hold identical shards without a byte of data on the
    // wire.
    TrainTestSplit data = make_dataset(cfg.workload, cfg.data);
    Partition partition = partition_dataset(data.train, cfg.partition);
    std::vector<Dataset> shards;
    shards.reserve(partition.shards.size());
    for (const auto &indices : partition.shards)
        shards.push_back(data.train.subset(indices));

    const net::NetAddress addr = net::NetAddress::parse(addr_str);
    std::string err;
    auto van = net::dial(addr, cfg.ps.net.connect_retry,
                         cfg.ps.net.connect_retry_delay_ms, &err);
    if (!van) {
        std::fprintf(stderr, "[net] worker: dial %s failed: %s\n",
                     addr_str.c_str(), err.c_str());
        return 1;
    }
    net::ClusterWorker worker(std::move(van), cfg.ps.net,
                              cfg.ps.compression);
    if (!worker.join(&err)) {
        std::fprintf(stderr, "[net] worker: %s\n", err.c_str());
        return 1;
    }
    LocalTrainer trainer(cfg.workload);
    const bool clean =
        worker.run([&](const net::WorkerJob &job) {
            return train_client_job(
                trainer, cfg, job.device_id, job.round, job.weights,
                shards.at(static_cast<size_t>(job.device_id)));
        });
    return clean ? 0 : 2;
}

} // namespace autofl
