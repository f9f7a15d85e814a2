/**
 * @file
 * The one-thread load generator both serving workloads use, and the
 * seeded input streams it replays.
 */
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <functional>
#include <future>
#include <random>
#include <vector>

#include "serve/request_queue.h"
#include "stats.h"

namespace perfbench {

/** Portable uniform double in [0, 1) from a 64-bit engine. */
inline double
uniform01(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/** Portable uniform integer in [0, n). */
inline uint64_t
uniform_below(std::mt19937_64 &rng, uint64_t n)
{
    return static_cast<uint64_t>(uniform01(rng) * static_cast<double>(n));
}

/**
 * Poisson arrival offsets (seconds from the phase start) of @p n
 * requests at @p rate per second.
 */
std::vector<double> poisson_arrivals(uint64_t seed, double rate, size_t n);

/** One request's outcome, as the generator saw it. */
struct Outcome
{
    autofl::ReplyStatus status = autofl::ReplyStatus::Shutdown;
    double latency_ms = 0.0;  ///< Completion minus due time.
};

/** Summary of one open-loop phase. */
struct PhaseResult
{
    size_t sent = 0, ok = 0, shed = 0, deadline = 0, failed = 0;
    std::vector<double> latency_ms;  ///< Per request; misses are +inf.
    Lateness late;
    double elapsed_s = 0.0;

    size_t misses() const { return shed + deadline + failed; }
    double fail_share() const
    {
        return sent ? static_cast<double>(misses()) / sent : 0.0;
    }
    /** "sent=.. ok=.. shed=.. deadline=.. failed=.." for the notes. */
    std::string counts() const;
};

/**
 * Open loop from the calling thread: request i is handed to @p submit
 * at phase start + @p due[i], whether or not earlier ones finished.
 * Replies are collected as they complete (between sends, and after
 * the last send), @p on_reply seeing each one, so latency is measured
 * from the due time via the reply's completion stamp.
 *
 * With @p spin the thread polls the clock between sends instead of
 * sleeping: it then counts as a busy thread, but it never waits on its
 * own wake-up, which on a virtual machine with a contended host can
 * take longer than the serving plane's reply.
 */
PhaseResult open_loop(
    const std::vector<double> &due, bool spin,
    const std::function<std::future<autofl::InferenceReply>(size_t)> &submit,
    const std::function<void(size_t, const autofl::InferenceReply &)>
        &on_reply = {});

/**
 * Closed loop from the calling thread with @p window requests
 * outstanding for @p seconds: each completion (oldest first) is
 * replaced by the next request. The thread polls for completions
 * (a busy thread, as with a spinning open loop). Returns OK replies per second and the
 * counts.
 */
PhaseResult closed_loop(
    int window, double seconds,
    const std::function<std::future<autofl::InferenceReply>(size_t)> &submit);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
