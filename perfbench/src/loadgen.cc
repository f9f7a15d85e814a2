#include "loadgen.h"

#include <cmath>
#include <deque>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

using autofl::InferenceReply;
using autofl::ReplyStatus;

std::vector<double>
poisson_arrivals(uint64_t seed, double rate, size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<double> due(n);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        due[i] = t;
        t += -std::log1p(-uniform01(rng)) / rate;
    }
    return due;
}

std::string
PhaseResult::counts() const
{
    std::ostringstream o;
    o << "sent=" << sent << " ok=" << ok << " shed=" << shed
      << " deadline=" << deadline << " failed=" << failed;
    return o.str();
}

namespace {

void
tally(PhaseResult &r, const InferenceReply &rep, double latency_ms)
{
    switch (rep.status) {
      case ReplyStatus::Ok:
        ++r.ok;
        break;
      case ReplyStatus::Shed:
        ++r.shed;
        break;
      case ReplyStatus::DeadlineExceeded:
        ++r.deadline;
        break;
      default:
        ++r.failed;
        break;
    }
    r.latency_ms.push_back(rep.ok() ? latency_ms
                                    : std::numeric_limits<double>::infinity());
}

} // namespace

PhaseResult
open_loop(const std::vector<double> &due, bool spin,
          const std::function<std::future<InferenceReply>(size_t)> &submit,
          const std::function<void(size_t, const InferenceReply &)> &on_reply)
{
    struct Pending
    {
        size_t i;
        Clock::time_point due;
        std::future<InferenceReply> fut;
    };
    PhaseResult r;
    std::deque<Pending> pending;
    std::vector<double> sent_s(due.size());
    const auto t0 = Clock::now();
    auto collect = [&](const Pending &p, const InferenceReply &rep) {
        tally(r, rep,
              std::chrono::duration<double, std::milli>(rep.completed_at -
                                                        p.due)
                  .count());
        if (on_reply)
            on_reply(p.i, rep);
    };
    auto harvest_ready = [&] {
        while (!pending.empty() &&
               pending.front().fut.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            const InferenceReply rep = pending.front().fut.get();
            collect(pending.front(), rep);
            pending.pop_front();
        }
    };
    for (size_t i = 0; i < due.size(); ++i) {
        const auto when =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due[i]));
        harvest_ready();
        if (spin) {
            while (Clock::now() < when)
                harvest_ready();
        } else {
            std::this_thread::sleep_until(when);
        }
        const auto now = Clock::now();
        sent_s[i] = secs(t0, now);
        pending.push_back(Pending{i, when, submit(i)});
        ++r.sent;
    }
    for (auto &p : pending) {
        const InferenceReply rep = p.fut.get();
        collect(p, rep);
    }
    r.elapsed_s = secs(t0, Clock::now());
    r.late = lateness_of(due, sent_s);
    return r;
}

PhaseResult
closed_loop(int window, double seconds,
            const std::function<std::future<InferenceReply>(size_t)> &submit)
{
    PhaseResult r;
    std::deque<std::pair<Clock::time_point, std::future<InferenceReply>>>
        inflight;
    size_t next = 0;
    const auto t0 = Clock::now();
    const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    auto send = [&] {
        inflight.emplace_back(Clock::now(), submit(next++));
        ++r.sent;
    };
    for (int i = 0; i < window; ++i)
        send();
    while (!inflight.empty()) {
        auto [at, fut] = std::move(inflight.front());
        inflight.pop_front();
        // Poll, like the spinning open loop: the probe measures the
        // serving plane, not this thread's wake-up.
        while (fut.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
        }
        const InferenceReply rep = fut.get();
        tally(r, rep,
              std::chrono::duration<double, std::milli>(rep.completed_at - at)
                  .count());
        if (Clock::now() < stop)
            send();
    }
    r.elapsed_s = secs(t0, Clock::now());
    return r;
}

} // namespace perfbench
