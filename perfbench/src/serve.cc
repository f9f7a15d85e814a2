/**
 * @file
 * serve-gateway-mix: serving only. A ServingGateway with two slots
 * cold-starts from a registry holding an LSTM and a MobileNet model
 * (written during un-timed preparation) and serves a seeded open-loop
 * arrival stream in a fixed 3:1 LSTM:MobileNet mix, then a fixed rate
 * ladder for the highest rate meeting the SLO, then a one-thread
 * closed-loop capacity probe. It exercises the queue, EDF, coalescing,
 * the slot pool, engine infer with an always-warm weight cache and the
 * mmap cold start; no training layer runs. LSTM coalesces well and
 * MobileNet hardly at all, so the mix has both.
 *
 * Rates are absolute constants, chosen once on a 4-core x86-64 VM
 * (AVX-512 kernels): the nominal rate is a sixth to a quarter of the
 * closed-loop capacity measured there (at half of it the median swung
 * 3x between runs on that shared host), the SLO limit sits above its
 * idle tail noise. They are never derived per run, so a faster build faces the
 * same load.
 */
#include <algorithm>
#include <cmath>
#include <sstream>

#include "data/synthetic.h"
#include "fl/system.h"
#include "loadgen.h"
#include "serve/serving_gateway.h"
#include "store/model_registry.h"
#include "workloads.h"

namespace perfbench {

using namespace autofl;

namespace {

constexpr int kSlots = 2;
constexpr int kBatch = 16;
constexpr int kQueueDepth = 256;
constexpr int kBatchTimeoutUs = 200;
/** Per-request deadline: a request not served by then is a miss. */
constexpr uint64_t kDeadlineUs = 50000;
/** Nominal offered rate of the mixed stream (requests per second). */
constexpr double kNominalRate = 8000.0;
/** Requests per nominal phase (under 10000: the tail is p99). Short
 *  phases, so a run holds many for steady_time(). */
constexpr size_t kNominalRequests = 3000;
/** Nominal phases: at least this many, for this share of --seconds. */
constexpr size_t kNominalPhases = 6;
constexpr double kNominalShare = 0.4;
/** Unmeasured requests that warm a fresh gateway before a phase. */
constexpr size_t kWarmupRequests = 1000;
/** The SLO on query_ms_tail. */
constexpr double kSloTailMs = 20.0;
/** Rate ladder: kLadderBase * kLadderStep^i, i < kLadderRungs. */
constexpr double kLadderBase = 4000.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 67;  ///< Up to ~100 k/s.
/** Requests per ladder rung (p99 with 40 beyond). */
constexpr size_t kRungRequests = 4000;
constexpr int kLadderSearches = 3;
/** Closed-loop capacity probe: outstanding window and duration. */
constexpr int kWindow = 192;
constexpr double kProbeSeconds = 0.3;
/** Capacity probes: at least this many, for this share of --seconds. */
constexpr size_t kProbes = 5;
constexpr double kProbeShare = 0.25;
constexpr double kSetupBudgetS = 0.5;
/** Distinct single-sample inputs per model. */
constexpr int kProbeRows = 64;
/** Replies per model whose logits the output check recomputes. */
constexpr int kCheckedReplies = 16;
/** The GEMM parity tier: SIMD variants agree within 1e-4 relative. */
constexpr double kLogitTolerance = 1e-4;

const char *const kModels[2] = {"lstm", "mobilenet"};
constexpr Workload kWorkloads[2] = {Workload::LstmShakespeare,
                                    Workload::MobileNetImageNet};

/** Train a small job into the registry: versions 0..rounds-1. */
void
publish(const std::string &registry, int m, uint64_t seed)
{
    FlSystemConfig cfg;
    cfg.workload = kWorkloads[m];
    cfg.params = {8, 1, 4};
    cfg.data.train_samples = 192;
    cfg.data.test_samples = 64;
    cfg.data.seed = seed * 7 + static_cast<uint64_t>(m);
    cfg.partition.num_devices = 8;
    cfg.threads = kSlots;
    cfg.seed = seed;
    cfg.serve.registry_dir = registry;
    cfg.serve.model_name = kModels[m];
    FlSystem fl(cfg);
    for (int r = 0; r < 3; ++r)
        fl.run_round({0, 1, 2, 3}, static_cast<uint64_t>(r));
    fl.drain();
    fl.checkpoint_writer()->flush();
}

ServeConfig
gateway_config(const std::string &registry)
{
    ServeConfig c;
    c.workers = kSlots;
    c.batch_size = kBatch;
    c.queue_depth = kQueueDepth;
    c.batch_timeout_us = kBatchTimeoutUs;
    c.registry_dir = registry;
    return c;
}

/** The seeded request stream: model and input row per request. */
struct Stream
{
    std::vector<int> model;
    std::vector<int> row;
};

/** Exactly 3 LSTM : 1 MobileNet in every block of four, shuffled. */
Stream
make_stream(uint64_t seed, size_t n)
{
    std::mt19937_64 rng(seed);
    Stream s;
    for (size_t i = 0; i < n; i += 4) {
        const size_t mobile = uniform_below(rng, 4);
        for (size_t j = 0; j < 4 && i + j < n; ++j) {
            s.model.push_back(j == mobile ? 1 : 0);
            s.row.push_back(static_cast<int>(uniform_below(rng, kProbeRows)));
        }
    }
    return s;
}

struct Probe
{
    std::vector<Tensor> rows[2];
};

Probe
make_probe(uint64_t seed)
{
    Probe p;
    for (int m = 0; m < 2; ++m) {
        SyntheticConfig dc;
        dc.train_samples = 16;
        dc.test_samples = kProbeRows;
        dc.seed = seed * 11 + static_cast<uint64_t>(m);
        const Dataset test = make_dataset(kWorkloads[m], dc).test;
        for (int i = 0; i < kProbeRows; ++i)
            p.rows[m].push_back(test.batch_x({i}));
    }
    return p;
}

/** Submit request i of @p s with a deadline kDeadlineUs after now. */
std::future<InferenceReply>
send(ServingGateway &gw, const Probe &p, const Stream &s, size_t i)
{
    const int m = s.model[i % s.model.size()];
    SubmitOptions o;
    o.deadline_us = serve_now_us() + kDeadlineUs;
    return gw.submit(kModels[m],
                     p.rows[m][static_cast<size_t>(s.row[i % s.row.size()])],
                     false, o);
}

/** Cold start: gateway from the registry to the first OK per model. */
double
cold_start(const std::string &registry, const Probe &p,
           std::unique_ptr<ServingGateway> *keep)
{
    const auto t0 = Clock::now();
    auto gw = std::make_unique<ServingGateway>(gateway_config(registry));
    if (gw->load_registry() != store::RegistryStatus::Ok)
        return -1.0;
    gw->start();
    for (int m = 0; m < 2; ++m)
        if (!gw->query(kModels[m], p.rows[m][0]).ok())
            return -1.0;
    const double s = secs(t0, Clock::now());
    if (keep)
        *keep = std::move(gw);
    return s;
}

struct Phase
{
    PhaseResult r;
    double p50 = 0.0;
    Tail tail;
    double peak_rss_mb = 0.0;  ///< Cold start + phase, on its own.
};

Phase
open_phase(ServingGateway &gw, const Probe &p, const Stream &s,
           uint64_t seed, double rate, size_t n,
           const std::function<void(size_t, const InferenceReply &)> &on = {})
{
    Phase ph;
    ph.r = open_loop(poisson_arrivals(seed, rate, n), true,
                     [&](size_t i) { return send(gw, p, s, i); }, on);
    ph.p50 = nearest_rank(ph.r.latency_ms, 0.5);
    ph.tail = tail_of(ph.r.latency_ms);
    return ph;
}

double
finite_ms(double v)
{
    return std::isfinite(v) ? v : 1e9;
}

double
ladder_rate(int i)
{
    return kLadderBase * std::pow(kLadderStep, i);
}

} // namespace

void
serve_gateway_mix(const Options &opt, Report &rep)
{
    WorkDir work("gateway-mix");
    // Two dispatcher slots plus the generator, which spins between sends.
    rep.note(context_line(opt, {kSlots, 1}, work.path()));
    const std::string registry = work.sub("registry");
    for (int m = 0; m < 2; ++m)
        publish(registry, m, opt.seed);
    const Probe probe = make_probe(opt.seed);
    const Stream stream = make_stream(opt.seed ^ 0x3a1ULL, 1 << 16);

    std::vector<double> setups;
    const auto t_setup = Clock::now();
    while (setups.size() < 5 || secs(t_setup, Clock::now()) < kSetupBudgetS)
        setups.push_back(cold_start(registry, probe, nullptr));
    std::unique_ptr<ServingGateway> gw;
    cold_start(registry, probe, &gw);
    rep.check(gw != nullptr && *std::min_element(setups.begin(),
                                                 setups.end()) > 0.0,
              "gateway cold start from the registry failed");
    if (!gw)
        return;

    // The served version must be the registry's newest.
    store::ModelRegistry reg(registry);
    for (int m = 0; m < 2; ++m) {
        store::RegistryModel rm;
        reg.lookup(kModels[m], &rm);
        rep.check(gw->version(kModels[m]) == rm.newest() && rm.newest() > 0,
                  std::string("served version of ") + kModels[m] +
                      " is not the registry's newest");
    }

    // Sampled replies for the output check.
    std::vector<std::pair<size_t, InferenceReply>> sampled[2];
    const std::function<void(size_t, const InferenceReply &)> sample =
        [&](size_t i, const InferenceReply &r) {
        const int m = stream.model[i];
        if (r.ok() && sampled[m].size() < kCheckedReplies)
            sampled[m].emplace_back(i, r);
    };
    auto check_outputs = [&](ServingGateway &g) {
        for (int m = 0; m < 2; ++m) {
            ModelService *svc = g.service(kModels[m]);
            const SnapshotHandle h = svc->acquire();
            bool match = sampled[m].size() == kCheckedReplies;
            for (const auto &[i, r] : sampled[m]) {
                const Tensor want = svc->engine().forward(
                    h, probe.rows[m][static_cast<size_t>(stream.row[i])]);
                match = match && r.epoch == h.epoch() &&
                        want.size() == r.logits.size();
                for (size_t j = 0; match && j < want.size(); ++j)
                    match = std::abs(want[j] - r.logits[j]) <=
                        kLogitTolerance * std::max(1.0f, std::abs(want[j]));
            }
            rep.check(match, std::string("served logits of ") + kModels[m] +
                                 " differ from InferenceEngine::forward");
        }
    };
    auto note_phase = [&](const std::string &what, const Phase &ph) {
        std::ostringstream o;
        o << what << ": " << ph.r.counts() << " p50 " << ph.p50 << " ms "
          << ph.tail.label() << " " << ph.tail.value << " ms ("
          << ph.tail.beyond << " of " << ph.tail.samples
          << " beyond) generator late max " << ph.r.late.max_ms << " p99 "
          << ph.r.late.p99_ms << " ms";
        rep.note(o.str());
    };
    // One nominal phase on a freshly cold-started gateway: its
    // dispatcher threads are placed anew, so the median over phases
    // does not hang on one placement. Slots and caches are warmed (not
    // measured) first. @p on sees every reply; @p after runs on the
    // gateway before it is torn down.
    using OnReply = std::function<void(size_t, const InferenceReply &)>;
    auto nominal = [&](int k, const OnReply &on,
                       const std::function<void(ServingGateway &)> &after) {
        std::unique_ptr<ServingGateway> g;
        reset_peak_rss();
        // Each phase's cold start is one more set-up sample, so setup_s
        // samples the whole run, not only its first half second.
        setups.push_back(cold_start(registry, probe, &g));
        rep.check(g != nullptr, "gateway cold start from the registry failed");
        if (!g)
            return Phase{};
        open_phase(*g, probe, stream, opt.seed ^ (0x77ULL + k), kNominalRate,
                   kWarmupRequests);
        Phase ph = open_phase(*g, probe, stream, opt.seed + 1000003ULL * k,
                              kNominalRate, kNominalRequests, on);
        ph.peak_rss_mb = peak_rss_mb();
        if (after)
            after(*g);
        note_phase("nominal " + std::to_string(std::lround(kNominalRate)) +
                       "/s",
                   ph);
        rep.count(ph.r.sent, ph.r.misses());
        return ph;
    };

    std::vector<Phase> phases;
    const auto t_nominal = Clock::now();
    do {
        const int k = static_cast<int>(phases.size());
        phases.push_back(nominal(k, k == 0 ? sample : OnReply{},
                                 k == 0 ? check_outputs
                                        : std::function<void(ServingGateway &)>{}));
    } while (!opt.trace &&
             (phases.size() < kNominalPhases ||
              secs(t_nominal, Clock::now()) < kNominalShare * opt.seconds));

    if (!opt.trace) {
        std::vector<double> p50, tail, best, rss;
        size_t ok = 0, sent = 0;
        for (const auto &ph : phases) {
            p50.push_back(ph.p50);
            rss.push_back(ph.peak_rss_mb);
            tail.push_back(ph.tail.value);
            ok += ph.r.ok;
            sent += ph.r.sent;
        }
        const SloLimits slo{kSloTailMs, 0.01};
        for (int s = 0; s < kLadderSearches; ++s) {
            const int hi = highest_passing(kLadderRungs, [&](int i) {
                const Phase ph = open_phase(
                    *gw, probe, stream, opt.seed * 7919 + 131 * s + i,
                    ladder_rate(i), kRungRequests);
                const RungResult rr{ladder_rate(i), ph.tail.value,
                                    ph.r.fail_share(), ph.r.late.growing};
                std::ostringstream o;
                o << "ladder search " << s << " rung " << i << " ("
                  << ladder_rate(i) << "/s): " << ph.r.counts() << " "
                  << ph.tail.label() << " " << ph.tail.value
                  << " ms, generator end-late " << ph.r.late.end_ms
                  << " ms -> " << (rung_passes(rr, slo) ? "pass" : "fail");
                rep.note(o.str());
                return rung_passes(rr, slo);
            });
            best.push_back(hi < 0 ? 0.0 : ladder_rate(hi));
        }
        std::vector<double> cap;
        const auto t_probe = Clock::now();
        while (cap.size() < kProbes ||
               secs(t_probe, Clock::now()) < kProbeShare * opt.seconds) {
            const PhaseResult c = closed_loop(kWindow, kProbeSeconds,
                                              [&](size_t i) {
                                                  return send(*gw, probe,
                                                              stream, i);
                                              });
            rep.note("capacity probe: " + c.counts());
            rep.count(c.sent, c.misses());
            cap.push_back(static_cast<double>(c.ok) / c.elapsed_s);
        }
        rep.metric("setup_s", steady_time(setups), "s");
        rep.metric("query_ms_p50", finite_ms(steady_time(p50)), "ms");
        rep.metric("query_ms_tail", finite_ms(median(tail)), "ms");
        rep.metric("max_qps_under_slo", median(best), "1/s");
        rep.metric("capacity_qps", steady_rate(cap), "1/s");
        rep.metric("ok_share", static_cast<double>(ok) / sent, "fraction");
        rep.metric("fail_share", 1.0 - static_cast<double>(ok) / sent,
                   "fraction");
        rep.metric("peak_rss_mb", median(rss), "MB");
        gw->stop_serving();
        return;
    }

    // Traced: a second nominal phase whose replies are recorded one by
    // one (the per-request span: rows of the batch each was served in);
    // its p50 against the untraced phase is the tracing overhead. Then
    // the serving counters, engine forward and registry open timed from
    // outside, and the layer probes.
    gw->stop_serving();
    std::vector<int> reply_rows;
    reply_rows.reserve(kNominalRequests);
    int coalesced = 1;
    const Phase traced = nominal(
        1,
        [&](size_t, const InferenceReply &r) { reply_rows.push_back(r.batch_rows); },
        [&](ServingGateway &g) {
            ServeStats total;
            for (int m = 0; m < 2; ++m) {
                const ServeStats st = g.stats(kModels[m]);
                rep.metric(std::string("serve.batch_rows_mean.") + kModels[m],
                           st.mean_batch_rows(), "rows");
                total.shed += st.shed;
                total.deadline_shed += st.deadline_shed;
                total.batches += st.batches;
                total.batched_rows += st.batched_rows;
                ModelService *svc = g.service(kModels[m]);
                const SnapshotHandle h = svc->acquire();
                const std::vector<double> fwd = repeat_for(0.1, 5, [&] {
                    svc->engine().forward(h, probe.rows[m][0]);
                });
                rep.metric(std::string("serve.engine_forward_ms.b1.") +
                               kModels[m],
                           median(fwd) * 1e3, "ms");
            }
            rep.metric("serve.batch_rows_mean", total.mean_batch_rows(),
                       "rows");
            rep.metric("serve.shed", static_cast<double>(total.shed), "count");
            rep.metric("serve.deadline_shed",
                       static_cast<double>(total.deadline_shed), "count");
            coalesced = std::max(
                1, static_cast<int>(std::lround(
                       g.stats(kModels[0]).mean_batch_rows())));
        });
    rep.check(reply_rows.size() == traced.r.sent,
              "traced phase lost replies");
    rep.metric("trace.overhead.query_ms_p50",
               finite_ms(traced.p50) - finite_ms(phases.front().p50), "ms");
    rep.metric("serve.generator_late_ms.max", traced.r.late.max_ms, "ms");
    rep.metric("serve.generator_late_ms.p99", traced.r.late.p99_ms, "ms");

    std::vector<double> opens;
    for (int k = 0; k < 10; ++k) {
        for (int m = 0; m < 2; ++m) {
            std::shared_ptr<const store::MappedSnapshot> snap;
            const auto t0 = Clock::now();
            const auto st = reg.open({kModels[m], 0}, &snap);
            opens.push_back(secs(t0, Clock::now()) * 1e3);
            rep.check(st == store::RegistryStatus::Ok, "registry open failed");
        }
    }
    rep.metric("store.registry_open_ms", median(opens), "ms");
    layer_probes(rep, coalesced);
}

} // namespace perfbench
