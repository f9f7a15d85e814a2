#include "experiment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "sim/scale.h"
#include "util/stats.h"

namespace autofl {

void
ExperimentConfig::validate() const
{
    // Delegate the ps-runtime knobs that map 1:1 onto PsConfig (same
    // field names, so the messages read "ExperimentConfig.<knob>").
    // ps_shards is checked here because its name differs from
    // PsConfig::shards.
    PsConfig ps_view;
    ps_view.mode = sync_mode;
    ps_view.pipeline_depth = pipeline_depth;
    ps_view.staleness_bound = staleness_bound;
    ps_view.eval_workers = eval_workers;
    ps_view.net = net;
    ps_view.compression = compression;
    ps_view.snapshot_dir = snapshot_dir;
    ps_view.snapshot_every_epochs = snapshot_every_epochs;
    ps_view.snapshot_keep_last = snapshot_keep_last;
    ps_view.resume_from = resume_from;
    // Registry publication supplies the snapshot directory itself, so
    // cadence/retention knobs must stay valid without a bare
    // snapshot_dir; validate against the directory the run will use.
    if (!serve.registry_dir.empty() && ps_view.snapshot_dir.empty())
        ps_view.snapshot_dir = serve.registry_dir;
    ps_view.validate("ExperimentConfig");
    if (!serve.registry_dir.empty() && !snapshot_dir.empty()) {
        throw std::invalid_argument(
            "ExperimentConfig.serve.registry_dir and "
            "ExperimentConfig.snapshot_dir are both set: registry "
            "publication derives the artifact directory from the "
            "registry; set exactly one");
    }
    if (ps_shards < 1) {
        throw std::invalid_argument(
            "ExperimentConfig.ps_shards must be >= 1 (got " +
            std::to_string(ps_shards) +
            "): the model store needs at least one lock stripe");
    }
    if (threads < 1) {
        throw std::invalid_argument(
            "ExperimentConfig.threads must be >= 1 (got " +
            std::to_string(threads) +
            "): local training needs at least one worker");
    }
    serve.validate("ExperimentConfig.serve");
}

std::string
policy_kind_name(PolicyKind k)
{
    switch (k) {
      case PolicyKind::FedAvgRandom:
        return "FedAvg-Random";
      case PolicyKind::Power:
        return "Power";
      case PolicyKind::Performance:
        return "Performance";
      case PolicyKind::StaticCluster:
        return "StaticCluster";
      case PolicyKind::OracleParticipant:
        return "O_participant";
      case PolicyKind::OracleFl:
        return "O_FL";
      case PolicyKind::AutoFl:
        return "AutoFL";
    }
    return "unknown";
}

double
default_target_accuracy(Workload w)
{
    switch (w) {
      case Workload::CnnMnist:
        return 0.82;
      case Workload::LstmShakespeare:
        return 0.25;
      case Workload::MobileNetImageNet:
        return 0.50;
    }
    return 0.8;
}

double
ExperimentResult::ppw_round() const
{
    return total_energy_j > 0.0 ? total_work_flops / total_energy_j : 0.0;
}

double
ExperimentResult::ppw_local() const
{
    return participant_energy_j > 0.0 ?
        total_work_flops / participant_energy_j : 0.0;
}

double
ExperimentResult::ppw_convergence() const
{
    if (!converged() || energy_to_target_j <= 0.0)
        return 0.0;
    return 1.0 / energy_to_target_j;
}

double
ExperimentResult::avg_round_s() const
{
    return rounds.empty() ? 0.0 :
        total_time_s / static_cast<double>(rounds.size());
}

std::array<double, 3>
ExperimentResult::tier_mix() const
{
    std::array<double, 3> mix{};
    double total = 0.0;
    for (const auto &r : rounds) {
        mix[0] += r.selected_high;
        mix[1] += r.selected_mid;
        mix[2] += r.selected_low;
        total += r.selected_high + r.selected_mid + r.selected_low;
    }
    if (total > 0.0)
        for (auto &m : mix)
            m /= total;
    return mix;
}

std::array<double, 6>
ExperimentResult::action_mix() const
{
    std::array<double, 6> mix{};
    double total = 0.0;
    for (const auto &r : rounds) {
        for (size_t a = 0; a < mix.size(); ++a) {
            mix[a] += r.action_counts[a];
            total += r.action_counts[a];
        }
    }
    if (total > 0.0)
        for (auto &m : mix)
            m /= total;
    return mix;
}

namespace {

/** Default dataset sizing per workload, balancing fidelity and runtime. */
void
default_data_sizes(Workload w, int &train, int &test)
{
    switch (w) {
      case Workload::CnnMnist:
        train = 4000;
        test = 600;
        break;
      case Workload::LstmShakespeare:
        train = 4000;
        test = 320;
        break;
      case Workload::MobileNetImageNet:
        train = 2400;
        test = 300;
        break;
    }
}

/** Per-workload training hyperparameters and data-noise calibration. */
void
default_training_setup(Workload w, TrainHyper &hyper, double &noise)
{
    switch (w) {
      case Workload::CnnMnist:
        hyper.lr = 0.03;
        noise = 0.95;
        break;
      case Workload::LstmShakespeare:
        hyper.lr = 0.8;
        hyper.momentum = 0.9;  // Plain SGD barely moves the gates.
        noise = 0.0;  // Text difficulty comes from the Markov chain.
        break;
      case Workload::MobileNetImageNet:
        hyper.lr = 0.06;
        hyper.momentum = 0.5;
        noise = 0.55;
        break;
    }
}

std::unique_ptr<SelectionPolicy>
build_policy(const ExperimentConfig &cfg, const Fleet &fleet,
             const std::vector<bool> *iid_flags)
{
    const uint64_t pseed = cfg.seed ^ 0xfeedULL;
    switch (cfg.policy) {
      case PolicyKind::FedAvgRandom:
        return make_random_policy(fleet, pseed);
      case PolicyKind::Power:
        return make_power_policy(fleet, pseed);
      case PolicyKind::Performance:
        return make_performance_policy(fleet, pseed);
      case PolicyKind::StaticCluster:
        return std::make_unique<StaticClusterPolicy>(
            fleet, cfg.static_cluster, StaticExecSettings{}, pseed);
      case PolicyKind::OracleParticipant:
      case PolicyKind::OracleFl: {
        auto oracle = std::make_unique<OraclePolicy>(
            fleet, cfg.oracle_spec,
            policy_kind_name(cfg.policy), pseed);
        if (cfg.oracle_prefers_iid && iid_flags)
            oracle->set_preferred(*iid_flags);
        return oracle;
      }
      case PolicyKind::AutoFl: {
        AutoFlConfig acfg = cfg.autofl;
        acfg.seed ^= cfg.seed;
        return std::make_unique<AutoFlPolicy>(fleet, acfg);
      }
    }
    return nullptr;
}

void
count_selection(const Fleet &fleet, const std::vector<ParticipantPlan> &plans,
                RoundRecord &rec)
{
    for (const auto &p : plans) {
        switch (fleet.device(p.device_id).tier()) {
          case Tier::High:
            ++rec.selected_high;
            break;
          case Tier::Mid:
            ++rec.selected_mid;
            break;
          case Tier::Low:
            ++rec.selected_low;
            break;
        }
        Action a;
        a.target = p.target;
        a.dvfs = p.dvfs;
        ++rec.action_counts[static_cast<size_t>(encode_action(a))];
    }
}

/**
 * Every device's observation this round: its runtime state and the
 * label classes on its shard (@p fl null: every device is taken to
 * hold all @p total_classes, as in the training-free characterization).
 */
std::vector<LocalObservation>
observe_fleet(const Fleet &fleet, const FlSystem *fl, int total_classes)
{
    std::vector<LocalObservation> locals(static_cast<size_t>(fleet.size()));
    for (int d = 0; d < fleet.size(); ++d) {
        auto &l = locals[static_cast<size_t>(d)];
        l.state = fleet.device(d).state();
        l.data_classes = fl ? fl->classes_on_device(d) : total_classes;
        l.total_classes = total_classes;
    }
    return locals;
}

/**
 * The simulated compute profile of one participant training on
 * @p samples local samples; under push compression the uplink shrinks
 * to the codec's encoded delta size while the downlink stays the full
 * f32 model.
 */
ComputeProfile
participant_profile(const ExperimentConfig &cfg, const FlGlobalParams &params,
                    const NnProfile &profile, double samples)
{
    ComputeProfile prof;
    prof.train_flops = static_cast<double>(params.epochs) * samples *
        profile.flops_per_sample * kTrainFlopFactor;
    prof.mem_bound_frac = profile.mem_bound_frac;
    prof.payload_bytes = profile.model_bytes;
    prof.batch_size = params.batch_size;
    if (cfg.compression.enabled()) {
        prof.uplink_bytes = static_cast<double>(encoded_delta_bytes(
            cfg.compression, static_cast<size_t>(profile.model_bytes / 4.0)));
    }
    return prof;
}

} // namespace

ExperimentResult
run_experiment(const ExperimentConfig &cfg)
{
    cfg.validate();
    const FlGlobalParams params = global_params_for(cfg.setting);
    const double target = cfg.target_accuracy > 0.0 ?
        cfg.target_accuracy : default_target_accuracy(cfg.workload);

    // FL training stack.
    FlSystemConfig fcfg;
    fcfg.workload = cfg.workload;
    fcfg.params = params;
    fcfg.algorithm = cfg.algorithm;
    default_data_sizes(cfg.workload, fcfg.data.train_samples,
                       fcfg.data.test_samples);
    if (cfg.train_samples > 0)
        fcfg.data.train_samples = cfg.train_samples;
    if (cfg.test_samples > 0)
        fcfg.data.test_samples = cfg.test_samples;
    default_training_setup(cfg.workload, fcfg.hyper, fcfg.data.noise);
    fcfg.data.seed = cfg.seed * 31 + 7;
    fcfg.partition.num_devices = cfg.fleet_mix.total();
    fcfg.partition.distribution = cfg.distribution;
    fcfg.partition.seed = cfg.seed * 17 + 3;
    fcfg.seed = cfg.seed;
    fcfg.threads = cfg.threads;
    fcfg.ps.mode = cfg.sync_mode;
    fcfg.ps.staleness_bound = cfg.staleness_bound;
    fcfg.ps.shards = cfg.ps_shards;
    fcfg.ps.pipeline_depth = cfg.pipeline_depth;
    fcfg.ps.eval_workers = cfg.eval_workers;
    fcfg.ps.net = cfg.net;
    fcfg.ps.compression = cfg.compression;
    fcfg.ps.snapshot_dir = cfg.snapshot_dir;
    fcfg.ps.snapshot_every_epochs = cfg.snapshot_every_epochs;
    fcfg.ps.snapshot_keep_last = cfg.snapshot_keep_last;
    fcfg.ps.resume_from = cfg.resume_from;
    fcfg.serve = cfg.serve;
    FlSystem fl(fcfg);
    const bool ps_mode = fl.ps() != nullptr || fl.cluster() != nullptr;

    // Under the ps runtime stragglers are evicted by the staleness
    // bound at aggregation time, not dropped at a simulated deadline.
    RoundSimConfig round_sim = cfg.round_sim;
    if (ps_mode)
        round_sim.deadline_multiple = 0.0;

    // Device population.
    Fleet fleet(cfg.fleet_mix, cfg.variance, cfg.seed * 13 + 5);

    // Policy (oracles may be told which devices hold IID shards).
    std::vector<bool> iid_flags(static_cast<size_t>(fleet.size()), false);
    for (int d = 0; d < fleet.size(); ++d)
        iid_flags[static_cast<size_t>(d)] = !fl.device_non_iid(d);
    auto policy = build_policy(cfg, fleet, &iid_flags);

    GlobalObservation gobs;
    gobs.profile = fl.profile();
    gobs.params = params;

    const double mem_frac = gobs.profile.mem_bound_frac;
    const int total_classes = model_num_classes(cfg.workload);

    ExperimentResult res;
    res.policy_name = policy->name();

    // Energy-driven RL warmup: scheduling + simulation only (no NN
    // training), with a slowly improving synthetic accuracy so the
    // reward stays on its success branch and ranks actions by energy.
    if (cfg.policy == PolicyKind::AutoFl && cfg.autofl_warmup_rounds > 0) {
        // Wider exploration while pre-training the tables, then the
        // paper's epsilon for the measured run.
        auto *afl = dynamic_cast<AutoFlPolicy *>(policy.get());
        afl->scheduler().set_epsilon(0.3);
        double synth_acc = 20.0;
        const int quota =
            std::max(1, static_cast<int>(fl.shard(0).size()));
        for (int w = 0; w < cfg.autofl_warmup_rounds; ++w) {
            fleet.begin_round();
            auto plans = policy->select(
                gobs, observe_fleet(fleet, &fl, total_classes), params.k);
            std::vector<ComputeProfile> profiles(
                plans.size(),
                ComputeProfile{static_cast<double>(params.epochs) * quota *
                                   gobs.profile.flops_per_sample *
                                   kTrainFlopFactor,
                               mem_frac, gobs.profile.model_bytes,
                               params.batch_size});
            RoundExec exec =
                simulate_round(fleet, plans, profiles, round_sim);
            // Keep the synthetic accuracy strictly increasing for the
            // whole warmup so the reward stays on its success branch
            // (the failure branch carries no energy/time signal). The
            // per-round gain scales with the participants' label-class
            // coverage, encoding the convergence physics of Figure 6
            // (non-IID participants slow convergence) so the warmup also
            // pre-trains the S_Data-conditioned preferences.
            double coverage = 0.0;
            for (const auto &p : plans) {
                coverage += static_cast<double>(
                                fl.classes_on_device(p.device_id)) /
                    total_classes;
            }
            coverage /= std::max<size_t>(1, plans.size());
            synth_acc += (60.0 / std::max(1, cfg.autofl_warmup_rounds)) *
                (0.3 + 1.2 * coverage);
            policy->observe_outcome(exec, synth_acc);
        }
        afl->scheduler().set_epsilon(0.05);
    }

    // Streaming round loop. Everything below speaks the submit/callback
    // protocol; under the classic runtimes submit_round completes (and
    // its callback fires) inline, so depth_limit 1 reproduces the old
    // blocking loop exactly. Under the pipelined ps runtime up to
    // pipeline_depth rounds stay in flight: the scheduler selects and
    // submits round t+1 while round t is still draining, and observes
    // each round's outcome — evaluated concurrently from the round's
    // final store snapshot — with a lag of up to depth rounds.
    const int depth_limit =
        fl.pipelined() ? std::max(1, cfg.pipeline_depth) : 1;

    // Scheduling context retained until the round's result arrives.
    struct InFlight
    {
        int round = 0;
        RoundExec exec;
        std::vector<ParticipantPlan> plans;
    };
    std::deque<InFlight> inflight;

    std::mutex res_mu;
    std::condition_variable res_cv;
    std::deque<PsRoundResult> arrived;
    auto on_result = [&](const PsRoundResult &r) {
        std::lock_guard<std::mutex> lk(res_mu);
        arrived.push_back(r);
        res_cv.notify_one();
    };

    // Windowed runtime statistics: S_Stale buckets from the sliding
    // mean, so one odd round cannot flip the scheduler's state while a
    // sustained shift shows up within a window.
    SlidingWindow stale_window(
        static_cast<size_t>(std::max(1, cfg.staleness_window)));

    bool stop = false;
    auto process_one = [&]() {
        PsRoundResult r;
        {
            std::unique_lock<std::mutex> lk(res_mu);
            res_cv.wait(lk, [&] { return !arrived.empty(); });
            r = arrived.front();
            arrived.pop_front();
        }
        assert(!inflight.empty());
        InFlight ctx = std::move(inflight.front());
        inflight.pop_front();
        assert(static_cast<uint64_t>(ctx.round) == r.round);
        if (stop)
            return;  // Past the target: drain without recording.
        // Empty rounds (no participants) deliver accuracy -1 — there
        // is no new snapshot to score — so carry the last known value,
        // or evaluate the untouched initial model if nothing completed
        // yet.
        const double acc = r.accuracy >= 0.0 ? r.accuracy :
            res.rounds.empty() ? fl.evaluate() : res.final_accuracy;

        policy->observe_outcome(ctx.exec, acc * 100.0);
        stale_window.add(r.stats.mean_staleness);
        gobs.observed_staleness = stale_window.mean();

        RoundRecord rec;
        rec.round = ctx.round;
        rec.accuracy = acc;
        rec.round_s = ctx.exec.round_s;
        rec.energy_global_j = ctx.exec.energy_global_j();
        rec.energy_participants_j = ctx.exec.energy_participants_j;
        rec.work_flops = ctx.exec.work_flops;
        rec.included =
            ps_mode ? r.stats.applied : ctx.exec.included_count();
        rec.evicted = r.stats.evicted;
        rec.mean_staleness = r.stats.mean_staleness;
        rec.window_staleness = stale_window.mean();
        count_selection(fleet, ctx.plans, rec);
        if (auto *afl = dynamic_cast<AutoFlPolicy *>(policy.get()))
            rec.mean_reward = afl->scheduler().last_mean_reward();
        res.rounds.push_back(rec);

        res.total_time_s += ctx.exec.round_s;
        res.total_energy_j += ctx.exec.energy_global_j();
        res.total_work_flops += ctx.exec.work_flops;
        res.participant_energy_j += ctx.exec.energy_participants_j;
        res.final_accuracy = acc;

        if (res.rounds_to_target < 0 && acc >= target) {
            res.rounds_to_target = ctx.round + 1;
            res.time_to_target_s = res.total_time_s;
            res.energy_to_target_j = res.total_energy_j;
            stop = true;  // Converged: drain the pipeline and finish.
        }
    };

    // A resumed run continues the round sequence where the artifact
    // left off: round indices drive the per-round client RNG and the
    // fleet simulation, so keeping them global (not restarting at 0)
    // is what makes the continuation match the uninterrupted run.
    const int start_round =
        fl.resumed() ? static_cast<int>(fl.resume_round()) + 1 : 0;

    for (int round = start_round; round < cfg.max_rounds && !stop;
         ++round) {
        fleet.begin_round();
        auto plans = policy->select(
            gobs, observe_fleet(fleet, &fl, total_classes), params.k);

        std::vector<ComputeProfile> profiles;
        profiles.reserve(plans.size());
        for (const auto &p : plans) {
            profiles.push_back(participant_profile(
                cfg, params, gobs.profile,
                static_cast<double>(fl.shard(p.device_id).size())));
        }

        RoundExec exec = simulate_round(fleet, plans, profiles, round_sim);

        // Synchronous runtime: train only the participants whose
        // gradients survive the deadline; dropped stragglers burn
        // energy but contribute nothing (which is what hurts baseline
        // accuracy). Ps runtime: every participant trains, submitted in
        // simulated completion order so simulated stragglers arrive
        // last and are the ones the staleness machinery damps.
        std::vector<int> round_ids;
        if (ps_mode) {
            std::vector<DeviceExec> ordered = exec.participants;
            std::stable_sort(ordered.begin(), ordered.end(),
                             [](const DeviceExec &a, const DeviceExec &b) {
                                 return a.completion_s() < b.completion_s();
                             });
            for (const auto &e : ordered)
                round_ids.push_back(e.device_id);
        } else {
            for (const auto &e : exec.participants)
                if (e.included)
                    round_ids.push_back(e.device_id);
        }

        inflight.push_back(InFlight{round, exec, std::move(plans)});
        fl.submit_round(round_ids, static_cast<uint64_t>(round), on_result);

        while (static_cast<int>(inflight.size()) >= depth_limit)
            process_one();
    }
    while (!inflight.empty())
        process_one();
    fl.drain();
    // A resume so late that no rounds remain still reports the
    // restored model's real accuracy, not the 0.0 default.
    if (res.rounds.empty())
        res.final_accuracy = fl.evaluate();
    return res;
}

std::vector<ExperimentResult>
run_sync_mode_sweep(const ExperimentConfig &cfg,
                    const std::vector<SyncModeScenario> &scenarios)
{
    std::vector<ExperimentResult> results;
    results.reserve(scenarios.size());
    for (const auto &sc : scenarios) {
        ExperimentConfig run_cfg = cfg;
        run_cfg.sync_mode = sc.mode;
        run_cfg.staleness_bound = sc.staleness_bound;
        ExperimentResult res = run_experiment(run_cfg);
        res.policy_name += "/" + sync_mode_name(sc.mode);
        if (sc.mode == SyncMode::SemiAsync)
            res.policy_name += "-" + std::to_string(sc.staleness_bound);
        if (sc.mode != SyncMode::Sync && run_cfg.pipeline_depth > 1)
            res.policy_name += "-p" + std::to_string(run_cfg.pipeline_depth);
        results.push_back(std::move(res));
    }
    return results;
}

ExperimentResult
run_characterization(const ExperimentConfig &cfg, int rounds)
{
    const FlGlobalParams params = global_params_for(cfg.setting);
    Fleet fleet(cfg.fleet_mix, cfg.variance, cfg.seed * 13 + 5);
    auto policy = build_policy(cfg, fleet, nullptr);

    GlobalObservation gobs;
    gobs.profile = model_profile(cfg.workload);
    gobs.params = params;

    int train_samples = 0, test_samples = 0;
    default_data_sizes(cfg.workload, train_samples, test_samples);
    if (cfg.train_samples > 0)
        train_samples = cfg.train_samples;
    const int quota = std::max(1, train_samples / fleet.size());
    const int total_classes = model_num_classes(cfg.workload);

    ExperimentResult res;
    res.policy_name = policy->name();

    for (int round = 0; round < rounds; ++round) {
        fleet.begin_round();
        auto plans = policy->select(
            gobs, observe_fleet(fleet, nullptr, total_classes), params.k);
        const std::vector<ComputeProfile> profiles(
            plans.size(),
            participant_profile(cfg, params, gobs.profile, quota));
        RoundExec exec = simulate_round(fleet, plans, profiles,
                                        cfg.round_sim);

        RoundRecord rec;
        rec.round = round;
        rec.round_s = exec.round_s;
        rec.energy_global_j = exec.energy_global_j();
        rec.energy_participants_j = exec.energy_participants_j;
        rec.work_flops = exec.work_flops;
        rec.included = exec.included_count();
        count_selection(fleet, plans, rec);
        res.rounds.push_back(rec);

        res.total_time_s += exec.round_s;
        res.total_energy_j += exec.energy_global_j();
        res.total_work_flops += exec.work_flops;
        res.participant_energy_j += exec.energy_participants_j;
    }
    return res;
}

} // namespace autofl
