/**
 * @file
 * Pure measurement helpers of the benchmark: order statistics, the tail
 * percentile rule, open-loop generator lateness and the SLO ladder
 * search. No timing or threading here, so every rule is unit-tested
 * against synthetic inputs (tests/test_stats.cc).
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the smallest sample with at least
 * ceil(p * n) samples at or below it. @p p is a fraction in (0, 1].
 * 0 when empty.
 */
double nearest_rank(std::vector<double> v, double p);

/**
 * A timing repeated within one run, as reported: the lower quartile
 * (nearest-rank p25) of its repetitions. On a shared host a
 * neighbour's load only ever slows a repetition down, and it comes
 * and goes within seconds, so the faster quartile of many short
 * repetitions repeats from run to run where their median does not.
 * 0 when empty.
 */
double steady_time(const std::vector<double> &times);

/** A rate repeated within one run: the upper quartile (p75), the
 *  counterpart of steady_time. 0 when empty. */
double steady_rate(const std::vector<double> &rates);

/** A tail latency together with the percentile it was read at. */
struct Tail
{
    double value = 0.0;    ///< The percentile's sample value.
    double pct = 0.0;      ///< Percentile, e.g. 99.9.
    size_t beyond = 0;     ///< Samples ranked above it.
    size_t samples = 0;    ///< Sample count it was read from.
    std::string label() const;  ///< "p99.9", "p99", ...
};

/** Samples a tail must leave beyond it to be reported. */
constexpr size_t kTailMinBeyond = 10;

/**
 * The highest of p99.9, p99, p90 and p50 that leaves at least
 * kTailMinBeyond samples ranked beyond it (p99.9 from 10000 samples,
 * p99 from 1000). With fewer than 20 samples the maximum is returned
 * as "p100" — the caller reports the sample count alongside.
 */
Tail tail_of(const std::vector<double> &samples);

/**
 * How far an open-loop generator ran behind its schedule. Request i
 * was due at due[i] and actually handed to the system at sent[i]
 * (seconds on one clock). Latencies are measured from due, so a late
 * generator shows up in them; this summary says how much of that was
 * the generator itself.
 */
struct Lateness
{
    double max_ms = 0.0;
    double p99_ms = 0.0;       ///< Nearest-rank p99 of sent - due.
    double end_ms = 0.0;       ///< Median lateness of the last tenth.
    bool growing = false;      ///< end_ms above kBacklogSlackMs.
};

/**
 * Lateness the generator may still carry at the end of a phase before
 * the phase counts as a growing backlog: a sleeping thread's wake-up
 * jitter is tens of microseconds, a generator that cannot keep up
 * falls further behind with every request.
 */
constexpr double kBacklogSlackMs = 2.0;

/** Summarize generator lateness; @p due and @p sent are parallel. */
Lateness lateness_of(const std::vector<double> &due,
                     const std::vector<double> &sent);

/** Outcome of one open-loop phase at a fixed offered rate. */
struct RungResult
{
    double rate = 0.0;        ///< Offered requests per second.
    double tail_ms = 0.0;     ///< tail_of() over every request.
    double fail_share = 0.0;  ///< Non-OK replies / requests sent.
    bool backlog = false;     ///< Generator backlog grew (Lateness).
};

/** The three SLO conditions a rung must meet. */
struct SloLimits
{
    double tail_ms = 0.0;           ///< Limit on the tail latency.
    double max_fail_share = 0.01;   ///< At most 1% non-OK replies.
};

bool rung_passes(const RungResult &r, const SloLimits &slo);

/**
 * Highest index of an ascending rate ladder whose rung passes, by
 * binary search (latency rises with the rate, so passing is taken to
 * be monotone: once a rung fails, higher rungs are not tried). Each
 * probe is run at most once. -1 when rung 0 fails.
 */
int highest_passing(int rungs, const std::function<bool(int)> &passes);

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secs(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
