/**
 * @file
 * perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one named workload, checks its outputs and prints, as the last
 * stdout line, {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics (--trace 0) or the per-layer metrics of the
 * traced run (--trace 1). Every metric a workload measures, under the
 * names perfbench/README.md defines, is printed on the "metrics:" line
 * before it. Exits non-zero without a result on bad arguments or when
 * the workload throws.
 */
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

/** The gated end-to-end metrics and their units: every workload reports
 * each one. */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"quality", "fraction"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics of the traced runs and their units. */
const std::vector<MetricSpec> kPerLayer = {
    {"kernels.gemm_gflops.conv", "GFLOP/s"},
    {"kernels.gemm_gflops.lstm", "GFLOP/s"},
    {"kernels.gemm_gflops.lstm_coalesced", "GFLOP/s"},
    {"kernels.int8_encode_mb_s", "MB/s"},
    {"nn.fwd_ms.cnn", "ms"},
    {"nn.bwd_ms.cnn", "ms"},
    {"nn.fwd_ms.lstm", "ms"},
    {"nn.bwd_ms.lstm", "ms"},
    {"nn.infer_ms.b1.lstm", "ms"},
    {"nn.infer_ms.b16.lstm", "ms"},
    {"nn.infer_ms.b1.mobilenet", "ms"},
    {"nn.infer_ms.b16.mobilenet", "ms"},
    {"fl.local_round_ms", "ms"},
    {"fl.aggregate_ms", "ms"},
    {"fl.updates_per_round", "count"},
    {"core.select_us", "us"},
    {"core.observe_us", "us"},
    {"core.warmup_ms", "ms"},
    {"core.q_entries", "count"},
    {"sim.round_us", "us"},
    {"serve.evaluate_ms", "ms"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.batch_rows_mean.lstm", "rows"},
    {"serve.batch_rows_mean.mobilenet", "rows"},
    {"serve.engine_forward_ms.b1.lstm", "ms"},
    {"serve.engine_forward_ms.b1.mobilenet", "ms"},
    {"serve.shed", "count"},
    {"serve.deadline_shed", "count"},
    {"serve.epoch_lag_mean", "epochs"},
    {"serve.generator_late_ms.max", "ms"},
    {"serve.generator_late_ms.p99", "ms"},
    {"ps.round_ms_p50", "ms"},
    {"ps.round_ms_p90", "ms"},
    {"ps.applied_ratio", "fraction"},
    {"ps.mean_staleness", "rounds"},
    {"ps.commits_per_round", "count"},
    {"store.ckpt_written_ratio", "fraction"},
    {"store.ckpt_dropped", "count"},
    {"store.snapshot_write_ms", "ms"},
    {"store.registry_open_ms", "ms"},
    {"net.push_bytes_per_round", "B"},
    {"net.overhead_share", "fraction"},
    {"trace.rounds_per_s", "1/s"},
    {"trace.round_ms", "ms"},
    {"trace.overhead.rounds_per_s", "1/s"},
    {"trace.overhead.query_ms_p50", "ms"},
    {"trace.unattributed_share", "fraction"},
};

struct Workload
{
    void (*run)(const Options &, Report &);
    /** Which workload metric each gated end-to-end metric reads. */
    const char *throughput;
    const char *latency;
    const char *quality;
};

const std::map<std::string, Workload> kWorkloads = {
    {"train-cnn-sync",
     {train_cnn_sync, "rounds_per_s", "round_ms", "accuracy_final"}},
    {"train-lstm-pipeline-serve",
     {train_lstm_pipeline_serve, "rounds_per_s", "query_ms_p50",
      "ok_share"}},
    {"serve-gateway-mix",
     {serve_gateway_mix, "capacity_qps", "query_ms_p50", "ok_share"}},
    {"train-lstm-loopback-int8",
     {train_lstm_loopback_int8, "rounds_per_s", "round_ms",
      "update_applied_share"}},
};

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:";
    for (const auto &[name, w] : kWorkloads)
        std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            if (!opt.trace && std::strcmp(v, "0") != 0)
                return usage("--trace takes 0 or 1");
        } else {
            return usage(("unknown argument " + a).c_str());
        }
        if (end && (*end || end == v))
            return usage(("bad number for " + a).c_str());
    }
    auto it = kWorkloads.find(opt.workload);
    if (it == kWorkloads.end())
        return usage("unknown or missing --workload");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");

    Report rep;
    const CpuTimes cpu0 = cpu_times();
    try {
        it->second.run(opt, rep);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    rep.note("cpu_steal_share: " +
             std::to_string(steal_share(cpu0, cpu_times())));
    if (!opt.trace) {
        const struct
        {
            const char *gated, *from, *unit;
        } alias[] = {
            {"throughput_per_s", it->second.throughput, "1/s"},
            {"latency_ms_p50", it->second.latency, "ms"},
            {"quality", it->second.quality, "fraction"},
        };
        for (const auto &a : alias) {
            const double *v = rep.value(a.from);
            rep.check(v != nullptr && *v > 0.0,
                      std::string(a.from) + " was not measured");
            if (v)
                rep.metric(a.gated, *v, a.unit);
        }
    }
    rep.print(opt.trace ? kPerLayer : kEndToEnd);
    return 0;
}
