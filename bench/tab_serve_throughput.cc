/**
 * @file
 * Serving-plane throughput: batched vs per-sample inference on every
 * workload, plus serving QPS measured *while* a pipelined training run
 * streams striped commit waves into the store, written to
 * BENCH_serve_throughput.json.
 *
 * The headline gate is the batching win: the batched InferenceEngine
 * must clear 2x the per-sample (batch_size = 1) eval throughput on the
 * LSTM workload, where the per-step projections collapse from
 * batch_size GEMV-shaped calls into one GEMM. The serving-under-load
 * phase records QPS and mean snapshot lag with no gate beyond liveness
 * (at least one query per training round must land).
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench_common.h"
#include "data/synthetic.h"
#include "fl/system.h"
#include "kernels/kernels.h"
#include "ps/ps_server.h"
#include "serve/model_service.h"

using namespace autofl;
using namespace autofl::bench;

namespace {

constexpr int kTestSamples = 384;
constexpr int kBatchedBatch = 16;  // ServeConfig default: the cache knee.

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Samples/sec of repeated full-testset evaluation at one batch size. */
double
eval_samples_per_sec(Workload w, const Dataset &test,
                     const std::vector<float> &weights, int batch_size)
{
    ServeConfig cfg;
    cfg.batch_size = batch_size;
    cfg.workers = 1;  // Isolate batching: one slot, fan-out 1.
    ModelService ms(w, cfg);
    ms.publish(weights);
    const SnapshotHandle h = ms.acquire();

    ms.evaluate(h, test, 1);  // Warm the slot (weight load, caches).
    // Calibrate rep count for a stable >= 0.25 s measurement.
    double t0 = now_s();
    ms.evaluate(h, test, 1);
    const double once = std::max(1e-6, now_s() - t0);
    const int reps = std::max(1, static_cast<int>(0.25 / once));

    t0 = now_s();
    for (int r = 0; r < reps; ++r)
        ms.evaluate(h, test, 1);
    const double elapsed = now_s() - t0;
    return static_cast<double>(test.size()) * reps / elapsed;
}

struct WorkloadRow
{
    Workload workload;
    double per_sample_sps = 0.0;
    double batched_sps = 0.0;
    double speedup() const
    {
        return per_sample_sps > 0.0 ? batched_sps / per_sample_sps : 0.0;
    }
};

WorkloadRow
measure_workload(Workload w)
{
    SyntheticConfig dcfg;
    dcfg.train_samples = 16;
    dcfg.test_samples = kTestSamples;
    dcfg.seed = kBenchSeed;
    const Dataset test = make_dataset(w, dcfg).test;

    Sequential model = make_model(w);
    Rng rng(kBenchSeed);
    model.init_weights(rng);
    const std::vector<float> weights = model.flat_weights();

    WorkloadRow row;
    row.workload = w;
    row.per_sample_sps = eval_samples_per_sec(w, test, weights, 1);
    row.batched_sps = eval_samples_per_sec(w, test, weights, kBatchedBatch);
    return row;
}

struct ServingUnderLoad
{
    double qps = 0.0;
    double rounds_per_sec = 0.0;
    double mean_lag = 0.0;       ///< Mean epochs behind latest at query.
    uint64_t final_epoch = 0;
    int queries = 0;
    double first_acc = 0.0;
    double last_acc = 0.0;
};

/** Serve from two threads while a pipelined SemiAsync run streams. */
ServingUnderLoad
measure_serving_under_load()
{
    constexpr int kDevices = 8;
    constexpr int kRounds = 10;
    constexpr int kServers = 2;

    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 1, kDevices};
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 240;
    cfg.data.test_samples = 96;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = kDevices;
    cfg.seed = kBenchSeed;
    cfg.threads = 4;
    cfg.ps.mode = SyncMode::SemiAsync;
    cfg.ps.staleness_bound = 1;
    cfg.ps.pipeline_depth = 4;
    cfg.ps.sim_device_latency_s = 0.02;
    cfg.serve.batch_size = kBatchedBatch;
    cfg.serve.workers = kServers;
    cfg.serve.max_snapshot_lag = 1;
    FlSystem fl(cfg);
    ModelService &serve = fl.serve();

    std::vector<int> ids(kDevices);
    for (int d = 0; d < kDevices; ++d)
        ids[static_cast<size_t>(d)] = d;

    ServingUnderLoad out;
    std::atomic<bool> stop{false};
    std::atomic<int> queries{0};
    std::mutex acc_mu;
    double lag_sum = 0.0;
    bool first_recorded = false;

    std::vector<std::thread> servers;
    servers.reserve(kServers);
    for (int s = 0; s < kServers; ++s) {
        servers.emplace_back([&] {
            SnapshotHandle h;
            while (!stop.load(std::memory_order_acquire)) {
                serve.refresh(h);
                const double lag = static_cast<double>(
                    serve.latest_epoch() - h.epoch());
                const EvalStats st = serve.evaluate(h, fl.test_set(), 1);
                queries.fetch_add(1, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lk(acc_mu);
                lag_sum += lag;
                if (!first_recorded) {
                    out.first_acc = st.accuracy;
                    first_recorded = true;
                }
                out.last_acc = st.accuracy;
            }
        });
    }

    const double t0 = now_s();
    for (int round = 0; round < kRounds; ++round)
        fl.submit_round(ids, static_cast<uint64_t>(round), nullptr);
    fl.drain();
    const double train_elapsed = now_s() - t0;
    stop.store(true, std::memory_order_release);
    for (auto &t : servers)
        t.join();

    out.queries = queries.load();
    out.qps = out.queries / train_elapsed;
    out.rounds_per_sec = kRounds / train_elapsed;
    out.mean_lag = out.queries > 0 ? lag_sum / out.queries : 0.0;
    out.final_epoch = serve.latest_epoch();
    return out;
}

} // namespace

int
main()
{
    print_banner(std::cout,
                 "Serving-plane throughput: batched (" +
                     std::to_string(kBatchedBatch) +
                     ") vs per-sample inference, " +
                     std::to_string(kTestSamples) + " test samples");

    std::vector<WorkloadRow> rows;
    for (Workload w : all_workloads())
        rows.push_back(measure_workload(w));

    TextTable t;
    t.set_header({"workload", "per-sample (samples/s)",
                  "batched (samples/s)", "speedup"});
    for (const auto &r : rows) {
        t.add_row({workload_name(r.workload),
                   TextTable::num(r.per_sample_sps, 0),
                   TextTable::num(r.batched_sps, 0),
                   ratio(r.batched_sps, r.per_sample_sps)});
    }
    t.render(std::cout);

    double lstm_speedup = 0.0, mobilenet_speedup = 0.0;
    for (const auto &r : rows) {
        if (r.workload == Workload::LstmShakespeare)
            lstm_speedup = r.speedup();
        if (r.workload == Workload::MobileNetImageNet)
            mobilenet_speedup = r.speedup();
    }
    const bool batching_ok = lstm_speedup >= 2.0;
    std::cout << "LSTM batched vs per-sample: "
              << TextTable::num(lstm_speedup, 2) << "x ("
              << (batching_ok ? "PASS" : "FAIL") << " >= 2x)\n";
    // Batching must never LOSE throughput: convolve() packs each of
    // MobileNet's pointwise W once per batch, and its depthwise layers
    // run the direct grouped convolution, whose cost per sample is the
    // same at any batch.
    const bool mobilenet_ok = mobilenet_speedup >= 1.0;
    std::cout << "MobileNet batched vs per-sample: "
              << TextTable::num(mobilenet_speedup, 2) << "x ("
              << (mobilenet_ok ? "PASS" : "FAIL") << " >= 1x)\n\n";

    const ServingUnderLoad load = measure_serving_under_load();
    print_banner(std::cout, "Serving while pipelined training streams");
    TextTable s;
    s.set_header({"serving QPS", "train rounds/s", "mean snapshot lag",
                  "queries", "acc first->last"});
    s.add_row({TextTable::num(load.qps, 1),
               TextTable::num(load.rounds_per_sec, 2),
               TextTable::num(load.mean_lag, 2),
               std::to_string(load.queries),
               TextTable::num(load.first_acc * 100.0, 1) + "% -> " +
                   TextTable::num(load.last_acc * 100.0, 1) + "%"});
    s.render(std::cout);
    const bool serving_ok = load.queries >= 10;  // >= 1 query per round.
    std::cout << "Serving liveness under training load: " << load.queries
              << " queries (" << (serving_ok ? "PASS" : "FAIL")
              << " >= 10)\n";

    std::ofstream json("BENCH_serve_throughput.json");
    json << "{\n  \"kernel_arch\": \""
         << kernels::kernel_arch_name(kernels::current_kernel_arch())
         << "\",\n"
         << "  \"hardware_threads\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"test_samples\": " << kTestSamples << ",\n"
         << "  \"batched_batch_size\": " << kBatchedBatch << ",\n"
         << "  \"lstm_batched_speedup\": " << lstm_speedup << ",\n"
         << "  \"mobilenet_batched_speedup\": " << mobilenet_speedup
         << ",\n"
         << "  \"workloads\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        json << "    {\"workload\": \"" << workload_name(r.workload)
             << "\", \"per_sample_sps\": " << r.per_sample_sps
             << ", \"batched_sps\": " << r.batched_sps
             << ", \"speedup\": " << r.speedup() << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"serving_under_load\": {\"qps\": " << load.qps
         << ", \"train_rounds_per_sec\": " << load.rounds_per_sec
         << ", \"mean_snapshot_lag\": " << load.mean_lag
         << ", \"queries\": " << load.queries
         << ", \"final_epoch\": " << load.final_epoch << "}\n}\n";
    std::cout << "wrote BENCH_serve_throughput.json\n";
    return batching_ok && mobilenet_ok && serving_ok ? 0 : 1;
}
