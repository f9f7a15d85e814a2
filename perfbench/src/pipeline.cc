/**
 * @file
 * train-lstm-pipeline-serve: LSTM training on the pipelined ps runtime
 * (SemiAsync S=1, two rounds in flight, a checkpoint every round)
 * while one generator thread sends open-loop single-sample queries to
 * the same job's serving plane. Training writes (commits, snapshots,
 * checkpoint files) run beside serving reads whose per-snapshot weight
 * cache keeps missing, so a gain on one side that costs the other
 * shows here. The query stream must not change what training computes:
 * the final accuracy with and without it must be identical.
 */
#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "fl/system.h"
#include "loadgen.h"
#include "serve/model_service.h"
#include "store/snapshot.h"
#include "workloads.h"

namespace perfbench {

using namespace autofl;

namespace {

constexpr int kRounds = 60;
constexpr int kDevices = 200;
constexpr int kPerRound = 20;
constexpr int kDepth = 2;
constexpr int kTrainThreads = 2;
constexpr int kEvalWorkers = 1;
constexpr int kServeSlots = 1;
constexpr int kKeepLast = 2;
/** Offered query rate: low, far below one slot's capacity. */
constexpr double kQueryRate = 2000.0;
/**
 * Queries per run: under 10000, so the tail is read at p99 with 40
 * samples beyond it; at 2 k/s the stream lasts 2 s, inside training
 * (about 2.5 s on a 4-core x86-64 box).
 */
constexpr size_t kQueries = 4000;
/** Distinct single-sample inputs the queries draw from. */
constexpr int kProbeRows = 64;
constexpr double kSetupBudgetS = 0.5;

FlSystemConfig
pipe_config(uint64_t seed, const std::string &ckpt_dir)
{
    FlSystemConfig f;
    f.workload = Workload::LstmShakespeare;
    f.params = global_params_for(ParamSetting::S3);
    f.hyper.lr = 0.8;
    f.hyper.momentum = 0.9;
    f.data.train_samples = 4000;
    f.data.test_samples = 320;
    f.data.noise = 0.0;
    f.data.seed = seed * 31 + 7;
    f.partition.num_devices = kDevices;
    f.partition.seed = seed * 17 + 3;
    f.seed = seed;
    f.threads = kTrainThreads;
    f.ps.mode = SyncMode::SemiAsync;
    f.ps.staleness_bound = 1;
    f.ps.pipeline_depth = kDepth;
    f.ps.eval_workers = kEvalWorkers;
    f.ps.snapshot_dir = ckpt_dir;
    f.ps.snapshot_every_epochs = 1;
    f.ps.snapshot_keep_last = kKeepLast;
    f.serve.workers = kServeSlots;
    return f;
}

/** kPerRound distinct devices of kDevices per round (partial shuffle). */
std::vector<std::vector<int>>
participant_schedule(uint64_t seed)
{
    std::mt19937_64 rng(seed ^ 0x5c4ed11eULL);
    std::vector<int> ids(kDevices);
    std::vector<std::vector<int>> out(kRounds);
    for (auto &round : out) {
        for (int d = 0; d < kDevices; ++d)
            ids[static_cast<size_t>(d)] = d;
        for (int j = 0; j < kPerRound; ++j) {
            const auto k = static_cast<size_t>(j) +
                uniform_below(rng, static_cast<uint64_t>(kDevices - j));
            std::swap(ids[static_cast<size_t>(j)], ids[k]);
        }
        round.assign(ids.begin(), ids.begin() + kPerRound);
    }
    return out;
}

struct QueryPlan
{
    std::vector<double> due;
    std::vector<int> row;  ///< Index into the probe rows per request.
};

QueryPlan
query_plan(uint64_t seed)
{
    QueryPlan q;
    q.due = poisson_arrivals(seed ^ 0xa441ULL, kQueryRate, kQueries);
    std::mt19937_64 rng(seed ^ 0x7075ULL);
    for (size_t i = 0; i < kQueries; ++i)
        q.row.push_back(static_cast<int>(uniform_below(rng, kProbeRows)));
    return q;
}

struct PipeRun
{
    double train_s = 0.0;
    double accuracy = -1.0;
    std::vector<double> round_ms;  ///< submit_round to callback (traced).
    int pushed = 0, applied = 0, commits = 0;
    double staleness_sum = 0.0;
    store::CheckpointStats ckpt;
    PhaseResult queries;
    double lag_sum = 0.0;
    size_t lag_n = 0;
    ServeStats serve;
    double snapshot_write_ms = 0.0;
    double peak_rss_mb = 0.0;  ///< High-water mark of this job alone.
};

/**
 * One training job of kRounds rounds, with the query stream beside it
 * when @p plan is non-null. @p traced adds the per-round and per-reply
 * accounting of the traced run.
 */
PipeRun
run_job(const FlSystemConfig &cfg,
        const std::vector<std::vector<int>> &schedule, const QueryPlan *plan,
        bool traced)
{
    PipeRun out;
    reset_peak_rss();
    FlSystem fl(cfg);
    ModelService &ms = fl.serve();
    std::vector<Tensor> rows;
    for (int i = 0; i < kProbeRows; ++i)
        rows.push_back(fl.test_set().batch_x({i}));

    // Declared after fl, so it is joined before fl goes away, on every
    // path out of this function.
    std::jthread generator;
    if (plan) {
        generator = std::jthread([&] {
            out.queries = open_loop(
                plan->due, false,
                [&](size_t i) {
                    return ms.submit(rows[static_cast<size_t>(plan->row[i])]);
                },
                [&](size_t, const InferenceReply &r) {
                    if (traced && r.ok()) {
                        out.lag_sum += static_cast<double>(ms.latest_epoch() -
                                                           r.epoch);
                        ++out.lag_n;
                    }
                });
        });
    }

    std::mutex mu;
    std::condition_variable cv;
    int retired = 0;
    std::vector<Clock::time_point> submitted(kRounds);
    out.round_ms.assign(kRounds, 0.0);
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
        if (traced)
            submitted[static_cast<size_t>(r)] = Clock::now();
        fl.submit_round(schedule[static_cast<size_t>(r)],
                        static_cast<uint64_t>(r),
                        [&, traced](const PsRoundResult &res) {
                            const auto now = Clock::now();
                            std::lock_guard<std::mutex> lk(mu);
                            if (traced)
                                out.round_ms[res.round] =
                                    secs(submitted[res.round], now) * 1e3;
                            out.pushed += res.stats.pushed;
                            out.applied += res.stats.applied;
                            out.commits += res.stats.commits;
                            out.staleness_sum += res.stats.mean_staleness;
                            out.accuracy = res.accuracy;
                            ++retired;
                            cv.notify_all();
                        });
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return r + 1 - retired < kDepth; });
    }
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return retired == kRounds; });
    }
    fl.drain();
    out.train_s = secs(t0, Clock::now());
    if (generator.joinable())
        generator.join();
    out.serve = ms.serving_stats();
    out.peak_rss_mb = peak_rss_mb();
    store::CheckpointWriter *w = fl.checkpoint_writer();
    if (w) {
        w->flush();
        out.ckpt = w->stats();
    }
    if (traced) {
        // One more artifact of the final model into the same directory.
        const SnapshotHandle h = ms.acquire();
        store::SnapshotMeta meta;
        meta.epoch = h.epoch();
        meta.round = kRounds;
        meta.dim = h.weights().size();
        meta.topology_hash = store::model_topology_hash(
            workload_name(cfg.workload), meta.dim);
        meta.shard_count = static_cast<uint32_t>(cfg.ps.shards);
        const auto shards = store::even_shard_ranges(meta.dim, meta.shard_count);
        const std::string path = cfg.ps.snapshot_dir + "/probe.snap";
        std::vector<double> ms_write;
        for (int i = 0; i < 5; ++i) {
            const auto s0 = Clock::now();
            store::write_snapshot_file(path, meta, shards, h.weights().data());
            ms_write.push_back(secs(s0, Clock::now()) * 1e3);
        }
        out.snapshot_write_ms = median(ms_write);
    }
    return out;
}

double
p50_ms(const PhaseResult &q)
{
    return nearest_rank(q.latency_ms, 0.5);
}

} // namespace

void
train_lstm_pipeline_serve(const Options &opt, Report &rep)
{
    WorkDir work("pipeline-serve");
    rep.note(context_line(opt, {kTrainThreads + kEvalWorkers + kServeSlots, 1},
                          work.path()));
    const FlSystemConfig cfg = pipe_config(opt.seed, work.sub("ckpt"));
    const auto schedule = participant_schedule(opt.seed);
    const QueryPlan plan = query_plan(opt.seed);

    auto note_run = [&](const char *what, const PipeRun &r) {
        std::ostringstream o;
        o << what << ": rounds/s " << kRounds / r.train_s << " accuracy "
          << r.accuracy << " ckpt requested " << r.ckpt.requested
          << " written " << r.ckpt.written << " dropped " << r.ckpt.dropped;
        if (r.queries.sent) {
            const Tail t = tail_of(r.queries.latency_ms);
            o << " | queries " << r.queries.counts() << " p50 "
              << p50_ms(r.queries) << " ms " << t.label() << " "
              << t.value << " ms (" << t.beyond << " of " << t.samples
              << " beyond) generator late max " << r.queries.late.max_ms
              << " ms";
        }
        rep.note(o.str());
    };
    auto check_run = [&](const PipeRun &r) {
        rep.check(r.accuracy >= 0.0, "a round retired without accuracy");
        rep.check(r.ckpt.last_status == store::SnapshotStatus::Ok &&
                      r.ckpt.written > 0,
                  "checkpoints not written");
        rep.check(r.queries.sent == 0 || r.queries.ok == r.queries.sent,
                  "queries beside training were not all answered");
        rep.count(kRounds + r.queries.sent, r.queries.misses());
    };

    if (!opt.trace) {
        auto build = [&] { FlSystem fl(cfg); };
        auto setups = repeat_for(kSetupBudgetS, 5, build);
        // The first job warms the process (allocator, page cache, thread
        // start-up) and is not timed; its accuracy is checked like the
        // others'.
        const PipeRun warm = run_job(cfg, schedule, &plan, false);
        note_run("warm-up, with queries", warm);
        check_run(warm);
        std::vector<PipeRun> runs;
        const auto t0 = Clock::now();
        do {
            runs.push_back(run_job(cfg, schedule, &plan, false));
            note_run("with queries", runs.back());
            check_run(runs.back());
            // Set-ups between jobs too, so setup_s samples the whole
            // run, not only its first half second.
            for (double t : repeat_for(kSetupBudgetS / 10, 5, build))
                setups.push_back(t);
        } while (runs.size() < 4 || secs(t0, Clock::now()) < opt.seconds * 0.7);
        const PipeRun alone = run_job(cfg, schedule, nullptr, false);
        note_run("without queries", alone);
        check_run(alone);

        rep.check(warm.accuracy == alone.accuracy,
                  "final accuracy differs with the query stream");
        std::vector<double> rps, p50, tail, rss;
        size_t ok = 0, sent = 0;
        for (const auto &r : runs) {
            rep.check(r.accuracy == alone.accuracy,
                      "final accuracy differs with the query stream");
            rps.push_back(kRounds / r.train_s);
            rss.push_back(r.peak_rss_mb);
            p50.push_back(p50_ms(r.queries));
            tail.push_back(tail_of(r.queries.latency_ms).value);
            ok += r.queries.ok;
            sent += r.queries.sent;
        }
        rep.metric("setup_s", steady_time(setups), "s");
        rep.metric("rounds_per_s", steady_rate(rps), "1/s");
        rep.metric("accuracy_final", alone.accuracy, "fraction");
        rep.metric("query_ms_p50", steady_time(p50), "ms");
        rep.metric("query_ms_tail", median(tail), "ms");
        rep.metric("ok_share", static_cast<double>(ok) / sent, "fraction");
        rep.metric("fail_share", 1.0 - static_cast<double>(ok) / sent,
                   "fraction");
        rep.metric("peak_rss_mb", median(rss), "MB");
        return;
    }

    layer_probes(rep, 0);
    const PipeRun plain = run_job(cfg, schedule, &plan, false);
    note_run("untraced, with queries", plain);
    check_run(plain);
    const PipeRun traced = run_job(cfg, schedule, &plan, true);
    note_run("traced, with queries", traced);
    check_run(traced);
    const PipeRun alone = run_job(cfg, schedule, nullptr, false);
    note_run("without queries", alone);
    check_run(alone);
    rep.check(plain.accuracy == alone.accuracy &&
                  traced.accuracy == alone.accuracy,
              "final accuracy differs with the query stream");

    rep.metric("trace.rounds_per_s", kRounds / traced.train_s, "1/s");
    rep.metric("trace.overhead.rounds_per_s",
               kRounds / traced.train_s - kRounds / plain.train_s, "1/s");
    rep.metric("trace.overhead.query_ms_p50",
               p50_ms(traced.queries) - p50_ms(plain.queries), "ms");
    double round_sum = 0.0;
    for (double m : traced.round_ms)
        round_sum += m;
    // Rounds overlap, so their spans cover more than the wall time; the
    // unattributed share is the wall time no round was in flight.
    rep.metric("trace.unattributed_share",
               std::max(0.0, 1.0 - round_sum / kDepth /
                                       (traced.train_s * 1e3)),
               "fraction");
    rep.metric("trace.round_ms", median(traced.round_ms), "ms");
    rep.metric("ps.round_ms_p50", median(traced.round_ms), "ms");
    rep.metric("ps.round_ms_p90", nearest_rank(traced.round_ms, 0.9), "ms");
    rep.metric("ps.applied_ratio",
               traced.applied / std::max(1.0, double(traced.pushed)),
               "fraction");
    rep.metric("ps.mean_staleness", traced.staleness_sum / kRounds, "rounds");
    rep.metric("ps.commits_per_round", double(traced.commits) / kRounds,
               "count");
    rep.metric("fl.updates_per_round", double(traced.pushed) / kRounds,
               "count");
    rep.metric("store.ckpt_written_ratio",
               double(traced.ckpt.written) /
                   std::max<uint64_t>(1, traced.ckpt.requested),
               "fraction");
    rep.metric("store.ckpt_dropped", double(traced.ckpt.dropped), "count");
    rep.metric("store.snapshot_write_ms", traced.snapshot_write_ms, "ms");
    rep.metric("serve.epoch_lag_mean",
               traced.lag_sum / std::max<size_t>(1, traced.lag_n), "epochs");
    rep.metric("serve.generator_late_ms.max", traced.queries.late.max_ms, "ms");
    rep.metric("serve.generator_late_ms.p99", traced.queries.late.p99_ms, "ms");
    rep.metric("serve.shed", double(traced.serve.shed), "count");
    rep.metric("serve.deadline_shed", double(traced.serve.deadline_shed),
               "count");
    rep.metric("serve.batch_rows_mean", traced.serve.mean_batch_rows(), "rows");
}

} // namespace perfbench
