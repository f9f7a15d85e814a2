/**
 * @file
 * The two run_experiment workloads (train-cnn-sync,
 * train-lstm-loopback-int8) and the replica round loop their traced
 * runs use.
 *
 * End to end, a workload calls run_experiment, the highest stable
 * entry point. The traced run cannot see inside it, so it drives the
 * same round through the layer functions run_experiment composes —
 * SelectionPolicy::select/observe_outcome, simulate_round,
 * FlSystem::run_local_round/aggregate (or run_round on the ps and
 * cluster runtimes) and FlSystem::evaluate — timing each call. The
 * replica must be the same program: its per-round accuracy, simulated
 * energy and tier selections are compared bit for bit with
 * run_experiment's, and any mismatch fails the run.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "fl/fl_cluster.h"
#include "harness/experiment.h"
#include "net/cluster.h"
#include "ps/ps_server.h"
#include "sim/scale.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {

using namespace autofl;

namespace {

/** Rounds every train-cnn-sync run trains (the target is unreachable). */
constexpr int kCnnRounds = 100;
/** Rounds every train-lstm-loopback-int8 run trains. */
constexpr int kLoopbackRounds = 200;
/** Training samples of the loopback workload (1/10 of the default). */
constexpr int kLoopbackTrainSamples = 400;
/** Rounds the end-to-end run replays for its parity check. */
constexpr int kParityRounds = 5;
/** Set-up is repeated for this long (at least 5 times); setup_s is
 *  steady_time() of the repetitions. */
constexpr double kSetupBudgetS = 0.5;
/**
 * Training threads of both workloads (and loopback worker nodes): half
 * of a 4-core box. With all four, a Sync barrier waits on whichever
 * core a neighbour on the shared host slows, and the round time of a
 * run swung by a third with the host's load.
 */
constexpr int kTrainThreads = 2;
/**
 * Timed runs train the first 1/kTimedShare of the job's rounds, so a
 * run's time budget holds many of them for steady_rate(); the full job
 * runs once, untimed, for accuracy and as the reference the timed
 * prefixes must repeat.
 */
constexpr int kTimedShare = 5;
/** Accuracy no model reaches: every run trains the full round count. */
constexpr double kUnreachableTarget = 2.0;

ExperimentConfig
cnn_sync_config(uint64_t seed)
{
    ExperimentConfig c;
    c.workload = Workload::CnnMnist;
    c.setting = ParamSetting::S3;
    c.variance = VarianceScenario::Combined;
    c.policy = PolicyKind::AutoFl;
    c.sync_mode = SyncMode::Sync;
    c.threads = kTrainThreads;
    c.max_rounds = kCnnRounds;
    c.target_accuracy = kUnreachableTarget;
    c.seed = seed;
    return c;
}

ExperimentConfig
loopback_config(uint64_t seed, bool loopback)
{
    ExperimentConfig c;
    c.workload = Workload::LstmShakespeare;
    c.setting = ParamSetting::S3;
    c.variance = VarianceScenario::Combined;
    c.policy = PolicyKind::AutoFl;
    c.sync_mode = SyncMode::SemiAsync;
    c.staleness_bound = 0;
    c.compression.mode = Compression::Int8;
    if (loopback) {
        c.net.listen = "loopback";
        c.net.workers = kTrainThreads;
    }
    c.threads = kTrainThreads;
    c.train_samples = kLoopbackTrainSamples;
    c.max_rounds = kLoopbackRounds;
    c.target_accuracy = kUnreachableTarget;
    c.seed = seed;
    return c;
}

/** What the parity check compares, per round. */
struct RoundFacts
{
    double accuracy = 0.0;
    double round_s = 0.0;
    double energy_global_j = 0.0;
    int high = 0, mid = 0, low = 0;
    bool operator==(const RoundFacts &) const = default;
};

RoundFacts
facts_of(const RoundRecord &r)
{
    return {r.accuracy,     r.round_s,      r.energy_global_j,
            r.selected_high, r.selected_mid, r.selected_low};
}

/** Counters the replica collects besides its spans. */
struct ReplicaResult
{
    std::vector<RoundFacts> rounds;
    int pushed = 0, applied = 0, commits = 0, updates = 0;
    double staleness_sum = 0.0;
    uint64_t push_bytes = 0;
    size_t q_entries = 0;
};

// run_experiment's per-workload sizing and hyperparameters (harness/
// experiment.cc keeps them file-local); the parity check proves the
// copies still match.
void
size_and_tune(Workload w, FlSystemConfig &f)
{
    switch (w) {
      case Workload::CnnMnist:
        f.data.train_samples = 4000;
        f.data.test_samples = 600;
        f.hyper.lr = 0.03;
        f.data.noise = 0.95;
        break;
      case Workload::LstmShakespeare:
        f.data.train_samples = 4000;
        f.data.test_samples = 320;
        f.hyper.lr = 0.8;
        f.hyper.momentum = 0.9;
        f.data.noise = 0.0;
        break;
      case Workload::MobileNetImageNet:
        f.data.train_samples = 2400;
        f.data.test_samples = 300;
        f.hyper.lr = 0.06;
        f.hyper.momentum = 0.5;
        f.data.noise = 0.55;
        break;
    }
}

FlSystemConfig
system_config(const ExperimentConfig &cfg)
{
    FlSystemConfig f;
    f.workload = cfg.workload;
    f.params = global_params_for(cfg.setting);
    f.algorithm = cfg.algorithm;
    size_and_tune(cfg.workload, f);
    if (cfg.train_samples > 0)
        f.data.train_samples = cfg.train_samples;
    if (cfg.test_samples > 0)
        f.data.test_samples = cfg.test_samples;
    f.data.seed = cfg.seed * 31 + 7;
    f.partition.num_devices = cfg.fleet_mix.total();
    f.partition.distribution = cfg.distribution;
    f.partition.seed = cfg.seed * 17 + 3;
    f.seed = cfg.seed;
    f.threads = cfg.threads;
    f.ps.mode = cfg.sync_mode;
    f.ps.staleness_bound = cfg.staleness_bound;
    f.ps.shards = cfg.ps_shards;
    f.ps.pipeline_depth = cfg.pipeline_depth;
    f.ps.eval_workers = cfg.eval_workers;
    f.ps.net = cfg.net;
    f.ps.compression = cfg.compression;
    f.serve = cfg.serve;
    return f;
}

std::vector<LocalObservation>
observe_fleet(const Fleet &fleet, FlSystem &fl, int total_classes)
{
    std::vector<LocalObservation> locals(static_cast<size_t>(fleet.size()));
    for (int d = 0; d < fleet.size(); ++d) {
        auto &l = locals[static_cast<size_t>(d)];
        l.state = fleet.device(d).state();
        l.data_classes = fl.classes_on_device(d);
        l.total_classes = total_classes;
    }
    return locals;
}

/**
 * run_experiment for AutoFL on a non-pipelined runtime, one layer call
 * at a time, each timed into @p spans.
 */
ReplicaResult
replica(const ExperimentConfig &cfg, Spans &spans)
{
    const FlGlobalParams params = global_params_for(cfg.setting);
    FlSystem fl(system_config(cfg));
    const bool ps_mode = fl.ps() != nullptr || fl.cluster() != nullptr;
    RoundSimConfig round_sim = cfg.round_sim;
    if (ps_mode)
        round_sim.deadline_multiple = 0.0;
    Fleet fleet(cfg.fleet_mix, cfg.variance, cfg.seed * 13 + 5);
    AutoFlConfig acfg = cfg.autofl;
    acfg.seed ^= cfg.seed;
    AutoFlPolicy policy(fleet, acfg);

    GlobalObservation gobs;
    gobs.profile = fl.profile();
    gobs.params = params;
    const double mem_frac = gobs.profile.mem_bound_frac;
    const int total_classes = model_num_classes(cfg.workload);

    spans.time("core.warmup", [&] {
        policy.scheduler().set_epsilon(0.3);
        double synth_acc = 20.0;
        const int quota = std::max(1, static_cast<int>(fl.shard(0).size()));
        for (int w = 0; w < cfg.autofl_warmup_rounds; ++w) {
            fleet.begin_round();
            auto locals = observe_fleet(fleet, fl, total_classes);
            auto plans = policy.select(gobs, locals, params.k);
            std::vector<ComputeProfile> profiles(
                plans.size(),
                ComputeProfile{static_cast<double>(params.epochs) * quota *
                                   gobs.profile.flops_per_sample *
                                   kTrainFlopFactor,
                               mem_frac, gobs.profile.model_bytes,
                               params.batch_size});
            RoundExec exec = simulate_round(fleet, plans, profiles, round_sim);
            double coverage = 0.0;
            for (const auto &p : plans)
                coverage += static_cast<double>(
                                fl.classes_on_device(p.device_id)) /
                    total_classes;
            coverage /= std::max<size_t>(1, plans.size());
            synth_acc += (60.0 / std::max(1, cfg.autofl_warmup_rounds)) *
                (0.3 + 1.2 * coverage);
            policy.observe_outcome(exec, synth_acc);
        }
        policy.scheduler().set_epsilon(0.05);
    });

    ReplicaResult out;
    SlidingWindow stale_window(
        static_cast<size_t>(std::max(1, cfg.staleness_window)));
    for (int round = 0; round < cfg.max_rounds; ++round) {
        const auto r0 = Clock::now();
        fleet.begin_round();
        auto locals = observe_fleet(fleet, fl, total_classes);
        auto plans = spans.time("core.select", [&] {
            return policy.select(gobs, locals, params.k);
        });
        std::vector<ComputeProfile> profiles;
        profiles.reserve(plans.size());
        for (const auto &p : plans) {
            ComputeProfile prof;
            prof.train_flops = static_cast<double>(params.epochs) *
                static_cast<double>(fl.shard(p.device_id).size()) *
                gobs.profile.flops_per_sample * kTrainFlopFactor;
            prof.mem_bound_frac = mem_frac;
            prof.payload_bytes = gobs.profile.model_bytes;
            prof.batch_size = params.batch_size;
            if (cfg.compression.enabled())
                prof.uplink_bytes = static_cast<double>(encoded_delta_bytes(
                    cfg.compression,
                    static_cast<size_t>(gobs.profile.model_bytes / 4.0)));
            profiles.push_back(prof);
        }
        RoundExec exec = spans.time("sim.round", [&] {
            return simulate_round(fleet, plans, profiles, round_sim);
        });

        std::vector<int> ids;
        PsRoundStats stats;
        if (ps_mode) {
            std::vector<DeviceExec> ordered = exec.participants;
            std::stable_sort(ordered.begin(), ordered.end(),
                             [](const DeviceExec &a, const DeviceExec &b) {
                                 return a.completion_s() < b.completion_s();
                             });
            for (const auto &e : ordered)
                ids.push_back(e.device_id);
            stats = spans.time("ps.round", [&] {
                return fl.run_round(ids, static_cast<uint64_t>(round));
            });
        } else {
            for (const auto &e : exec.participants)
                if (e.included)
                    ids.push_back(e.device_id);
            auto updates = spans.time("fl.local_round", [&] {
                return fl.run_local_round(ids, static_cast<uint64_t>(round));
            });
            spans.time("fl.aggregate", [&] { fl.aggregate(updates); });
            stats.pushed = stats.applied = static_cast<int>(updates.size());
            stats.commits = updates.empty() ? 0 : 1;
        }
        const double acc =
            spans.time("serve.evaluate", [&] { return fl.evaluate(); });
        spans.time("core.observe",
                   [&] { policy.observe_outcome(exec, acc * 100.0); });
        stale_window.add(stats.mean_staleness);
        gobs.observed_staleness = stale_window.mean();
        spans.add("round", secs(r0, Clock::now()));

        RoundRecord rec;
        rec.accuracy = acc;
        rec.round_s = exec.round_s;
        rec.energy_global_j = exec.energy_global_j();
        for (const auto &p : plans) {
            const Tier t = fleet.device(p.device_id).tier();
            (t == Tier::High ? rec.selected_high
             : t == Tier::Mid ? rec.selected_mid
                              : rec.selected_low)++;
        }
        out.rounds.push_back(facts_of(rec));
        out.pushed += stats.pushed;
        out.applied += stats.applied;
        out.commits += stats.commits;
        out.staleness_sum += stats.mean_staleness;
        out.updates += static_cast<int>(ids.size());
    }
    fl.drain();
    if (fl.cluster() && fl.cluster()->started())
        out.push_bytes = fl.cluster()->server().push_bytes_received();
    else if (fl.ps())
        out.push_bytes = fl.ps()->push_payload_bytes();
    out.q_entries = policy.scheduler().total_entries();
    return out;
}

/** Compare the replica's rounds with run_experiment's, bit for bit. */
void
check_parity(Report &rep, const ExperimentResult &res,
             const ReplicaResult &rep_rounds, int rounds)
{
    bool same = static_cast<int>(res.rounds.size()) >= rounds &&
                static_cast<int>(rep_rounds.rounds.size()) >= rounds;
    int first_bad = -1;
    for (int i = 0; same && i < rounds; ++i) {
        if (!(facts_of(res.rounds[static_cast<size_t>(i)]) ==
              rep_rounds.rounds[static_cast<size_t>(i)])) {
            same = false;
            first_bad = i;
        }
    }
    rep.check(same, "replica round loop diverges from run_experiment"
                    " (first mismatch at round " +
                        std::to_string(first_bad) + ")");
    rep.note("parity: replica == run_experiment over " +
             std::to_string(rounds) + " rounds: " + (same ? "yes" : "NO"));
}

/** Simulated time until the default target is first reached; 0 if never. */
double
sim_convergence_s(const ExperimentResult &res, Workload w)
{
    const double target = default_target_accuracy(w);
    double t = 0.0;
    for (const auto &r : res.rounds) {
        t += r.round_s;
        if (r.accuracy >= target)
            return t;
    }
    return 0.0;
}

/**
 * The shared shape of both run_experiment workloads. End to end:
 * set-up (0 rounds) repeated for kSetupBudgetS, a parity prefix, the
 * full job once, then prefixes of it until the time budget is spent,
 * each checked to repeat the full job's rounds exactly. Traced: the layer probes, then untraced runs
 * alternating with replicas, each replica matching its twin round for
 * round.
 */
void
experiment_workload(const Options &opt, Report &rep, ExperimentConfig cfg,
                    bool convergence, bool pair_in_process)
{
    const int rounds = cfg.max_rounds;
    ExperimentConfig setup_cfg = cfg;
    setup_cfg.max_rounds = 0;

    if (!opt.trace) {
        auto setups = repeat_for(kSetupBudgetS, 5,
                                 [&] { run_experiment(setup_cfg); });

        ExperimentConfig parity_cfg = cfg;
        parity_cfg.max_rounds = kParityRounds;
        Spans unused;
        check_parity(rep, run_experiment(parity_cfg),
                     replica(parity_cfg, unused), kParityRounds);

        // The full job warms the process (allocator, page cache, thread
        // start-up) and is the reference every timed prefix must repeat
        // round for round; it is not timed.
        const ExperimentResult res = run_experiment(cfg);
        ExperimentConfig timed_cfg = cfg;
        timed_cfg.max_rounds = rounds / kTimedShare;
        std::vector<double> times, rss;
        bool repeats = true;
        const auto start = Clock::now();
        while (times.size() < 5 || secs(start, Clock::now()) < opt.seconds) {
            reset_peak_rss();
            const auto t0 = Clock::now();
            const ExperimentResult r = run_experiment(timed_cfg);
            times.push_back(secs(t0, Clock::now()));
            rss.push_back(peak_rss_mb());
            repeats = repeats && static_cast<int>(r.rounds.size()) ==
                                     timed_cfg.max_rounds;
            for (size_t i = 0; repeats && i < r.rounds.size(); ++i)
                repeats = facts_of(r.rounds[i]) == facts_of(res.rounds[i]);
            // A set-up between timed runs too, so setup_s samples the
            // whole run, not only its first half second.
            const auto s0 = Clock::now();
            run_experiment(setup_cfg);
            setups.push_back(secs(s0, Clock::now()));
        }
        const double setup_s = steady_time(setups);
        std::vector<double> rps;
        for (double t : times)
            rps.push_back(timed_cfg.max_rounds / std::max(1e-9, t - setup_s));
        rep.check(repeats, "timed runs differ from the reference job's rounds");
        rep.check(static_cast<int>(res.rounds.size()) == rounds,
                  "run did not train the fixed round count");
        rep.check(res.final_accuracy > 0.0 && std::isfinite(res.ppw_round()),
                  "no accuracy or PPW produced");
        rep.count(static_cast<uint64_t>(rounds) +
                      static_cast<uint64_t>(timed_cfg.max_rounds) * times.size(),
                  0);
        std::ostringstream n;
        n << "timed runs: " << times.size() << " x " << timed_cfg.max_rounds
          << " rounds, rounds_per_s per run:";
        for (double r : rps)
            n << " " << r;
        rep.note(n.str());

        rep.metric("setup_s", setup_s, "s");
        rep.metric("rounds_per_s", steady_rate(rps), "1/s");
        rep.metric("round_ms", 1e3 / steady_rate(rps), "ms");
        rep.metric("accuracy_final", res.final_accuracy, "fraction");
        rep.metric("ppw_global", res.ppw_round(), "work/J");
        double applied = 0.0, pushed = 0.0;
        for (const auto &r : res.rounds) {
            applied += r.included;
            pushed += r.included + r.evicted;
        }
        rep.metric("update_applied_share", applied / std::max(1.0, pushed),
                   "fraction");
        if (convergence) {
            const double conv = sim_convergence_s(res, cfg.workload);
            if (conv > 0.0)
                rep.metric("sim_convergence_s", conv, "s");
            else
                rep.note("sim_convergence_s: target not reached in " +
                         std::to_string(rounds) + " rounds");
        }
        rep.metric("peak_rss_mb", median(rss), "MB");
        return;
    }

    // Untraced and traced runs alternate, so drift over the run hits
    // both alike; the replica must match its untraced twin exactly.
    layer_probes(rep, 0);
    const double setup_s =
        repeat_for(0.0, 1, [&] { run_experiment(setup_cfg); }).front();
    Spans spans;
    ReplicaResult rr;
    std::vector<double> untraced_rps, traced_rps;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        const ExperimentResult res = run_experiment(cfg);
        untraced_rps.push_back(
            rounds / std::max(1e-9, secs(t0, Clock::now()) - setup_s));
        const double before = spans.total_s("round");
        rr = replica(cfg, spans);
        traced_rps.push_back(
            rounds / std::max(1e-9, spans.total_s("round") - before));
        check_parity(rep, res, rr, rounds);
        rep.count(static_cast<uint64_t>(rounds), 0);
    } while (secs(start, Clock::now()) < opt.seconds * 0.7);

    const double round_s = spans.total_s("round");
    rep.metric("trace.rounds_per_s", median(traced_rps), "1/s");
    rep.metric("trace.overhead.rounds_per_s",
               median(traced_rps) - median(untraced_rps), "1/s");
    double attributed = 0.0;
    for (const char *s : {"core.select", "sim.round", "fl.local_round",
                          "fl.aggregate", "ps.round", "serve.evaluate",
                          "core.observe"})
        attributed += spans.total_s(s);
    rep.metric("trace.unattributed_share",
               (round_s - attributed) / std::max(1e-12, round_s), "fraction");
    rep.metric("trace.round_ms", spans.median_s("round") * 1e3, "ms");

    rep.metric("core.select_us", spans.median_s("core.select") * 1e6, "us");
    rep.metric("core.observe_us", spans.median_s("core.observe") * 1e6, "us");
    rep.metric("core.warmup_ms", spans.median_s("core.warmup") * 1e3, "ms");
    rep.metric("core.q_entries", static_cast<double>(rr.q_entries), "count");
    rep.metric("sim.round_us", spans.median_s("sim.round") * 1e6, "us");
    rep.metric("serve.evaluate_ms", spans.median_s("serve.evaluate") * 1e3,
               "ms");
    rep.metric("fl.updates_per_round", static_cast<double>(rr.updates) / rounds,
               "count");
    if (spans.samples("fl.local_round")) {
        rep.metric("fl.local_round_ms",
                   spans.median_s("fl.local_round") * 1e3, "ms");
        rep.metric("fl.aggregate_ms", spans.median_s("fl.aggregate") * 1e3,
                   "ms");
    }
    if (spans.samples("ps.round")) {
        rep.metric("ps.round_ms_p50", spans.median_s("ps.round") * 1e3, "ms");
        rep.metric("ps.round_ms_p90", spans.pct_s("ps.round", 0.9) * 1e3,
                   "ms");
        rep.metric("ps.applied_ratio",
                   rr.applied / std::max(1.0, static_cast<double>(rr.pushed)),
                   "fraction");
        rep.metric("ps.commits_per_round",
                   static_cast<double>(rr.commits) / rounds, "count");
        rep.metric("ps.mean_staleness", rr.staleness_sum / rounds, "rounds");
    }
    if (pair_in_process) {
        rep.metric("net.push_bytes_per_round",
                   static_cast<double>(rr.push_bytes) / rounds, "B");
        // The same rounds in process: what the transport adds.
        Spans local;
        ExperimentConfig in_proc = cfg;
        in_proc.net = NetConfig{};
        const ReplicaResult lr = replica(in_proc, local);
        // Not a contract: int8 error feedback differs between the two
        // transports, so the rounds need not match bit for bit.
        rep.note(std::string("loopback rounds == in-process rounds: ") +
                 (lr.rounds == rr.rounds ? "yes" : "no"));
        const double loop_ms = spans.median_s("ps.round");
        const double local_ms = local.median_s("ps.round");
        rep.metric("net.overhead_share",
                   (loop_ms - local_ms) / std::max(1e-12, loop_ms),
                   "fraction");
    }
}

} // namespace

void
train_cnn_sync(const Options &opt, Report &rep)
{
    rep.note(context_line(opt, {kTrainThreads, 0}, "."));
    experiment_workload(opt, rep, cnn_sync_config(opt.seed), true, false);
}

void
train_lstm_loopback_int8(const Options &opt, Report &rep)
{
    rep.note(context_line(opt, {kTrainThreads, 0}, "."));
    experiment_workload(opt, rep, loopback_config(opt.seed, true), false,
                        true);
}

} // namespace perfbench
