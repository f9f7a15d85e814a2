#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

namespace {

/** 1-based nearest rank of fraction p over n samples. */
size_t
rank_of(size_t n, double p)
{
    // The epsilon keeps 0.999 * 10000 at rank 9990, not 9991.
    const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

} // namespace

double
nearest_rank(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const size_t k = rank_of(v.size(), p) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
steady_time(const std::vector<double> &times)
{
    return nearest_rank(times, 0.25);
}

double
steady_rate(const std::vector<double> &rates)
{
    return nearest_rank(rates, 0.75);
}

std::string
Tail::label() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "p%g", pct);
    return buf;
}

Tail
tail_of(const std::vector<double> &samples)
{
    Tail t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    for (double pct : {99.9, 99.0, 90.0, 50.0}) {
        const size_t beyond =
            samples.size() - rank_of(samples.size(), pct / 100.0);
        if (beyond >= kTailMinBeyond) {
            t.pct = pct;
            t.beyond = beyond;
            t.value = nearest_rank(samples, pct / 100.0);
            return t;
        }
    }
    t.pct = 100.0;
    t.value = *std::max_element(samples.begin(), samples.end());
    return t;
}

Lateness
lateness_of(const std::vector<double> &due, const std::vector<double> &sent)
{
    Lateness l;
    const size_t n = std::min(due.size(), sent.size());
    if (n == 0)
        return l;
    std::vector<double> late(n);
    for (size_t i = 0; i < n; ++i)
        late[i] = std::max(0.0, sent[i] - due[i]) * 1e3;
    l.max_ms = *std::max_element(late.begin(), late.end());
    l.p99_ms = nearest_rank(late, 0.99);
    const size_t tenth = std::max<size_t>(1, n / 10);
    l.end_ms = median(std::vector<double>(late.end() - static_cast<long>(tenth),
                                          late.end()));
    l.growing = l.end_ms > kBacklogSlackMs;
    return l;
}

bool
rung_passes(const RungResult &r, const SloLimits &slo)
{
    return r.tail_ms <= slo.tail_ms && r.fail_share <= slo.max_fail_share &&
           !r.backlog;
}

int
highest_passing(int rungs, const std::function<bool(int)> &passes)
{
    int lo = -1, hi = rungs;  // lo passes (or none), hi fails (or past end)
    while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        if (passes(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace perfbench
