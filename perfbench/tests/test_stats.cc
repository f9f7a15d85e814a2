/**
 * @file
 * Unit tests of the benchmark's measurement rules: the steady
 * repetition estimators, tail-percentile selection, generator lateness
 * accounting and the SLO ladder search.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "stats.h"

using namespace perfbench;

namespace {

/** 1, 2, ..., n as doubles. */
std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Median, OddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(NearestRank, MatchesDefinition)
{
    EXPECT_DOUBLE_EQ(nearest_rank(ramp(100), 0.99), 99.0);
    EXPECT_DOUBLE_EQ(nearest_rank(ramp(100), 1.0), 100.0);
    EXPECT_DOUBLE_EQ(nearest_rank(ramp(10000), 0.999), 9990.0);
    EXPECT_DOUBLE_EQ(nearest_rank(ramp(3), 0.01), 1.0);
}

TEST(Steady, QuartileOnTheFastSide)
{
    // Times: the lower quartile; rates: the upper one. A few slowed
    // repetitions (large times, small rates) do not move either.
    EXPECT_DOUBLE_EQ(steady_time(ramp(8)), 2.0);
    EXPECT_DOUBLE_EQ(steady_rate(ramp(8)), 6.0);
    std::vector<double> t = {1.0, 1.1, 1.0, 1.05, 1.02, 1.01, 1.03, 1.04};
    const double clean = steady_time(t);
    t[1] = t[6] = 9.0;
    EXPECT_DOUBLE_EQ(steady_time(t), clean);
    EXPECT_DOUBLE_EQ(steady_time({}), 0.0);
    EXPECT_DOUBLE_EQ(steady_rate({}), 0.0);
}

TEST(TailOf, PicksP999AtTenThousandSamples)
{
    const Tail t = tail_of(ramp(10000));
    EXPECT_DOUBLE_EQ(t.pct, 99.9);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.value, 9990.0);
    EXPECT_EQ(t.label(), "p99.9");
}

TEST(TailOf, FallsBackToP99BelowTenThousand)
{
    // 9999 samples leave only 9 beyond p99.9.
    const Tail t = tail_of(ramp(9999));
    EXPECT_DOUBLE_EQ(t.pct, 99.0);
    EXPECT_GE(t.beyond, kTailMinBeyond);
    EXPECT_EQ(t.label(), "p99");
}

TEST(TailOf, SmallSamplesUseLowerPercentiles)
{
    EXPECT_DOUBLE_EQ(tail_of(ramp(1000)).pct, 99.0);
    EXPECT_DOUBLE_EQ(tail_of(ramp(999)).pct, 90.0);
    EXPECT_DOUBLE_EQ(tail_of(ramp(100)).pct, 90.0);
    EXPECT_DOUBLE_EQ(tail_of(ramp(99)).pct, 50.0);
    const Tail tiny = tail_of(ramp(5));
    EXPECT_DOUBLE_EQ(tiny.pct, 100.0);
    EXPECT_DOUBLE_EQ(tiny.value, 5.0);
    EXPECT_EQ(tail_of({}).samples, 0u);
}

TEST(TailOf, IgnoresOrder)
{
    std::vector<double> v = ramp(2000);
    std::reverse(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(tail_of(v).value, 1980.0);
}

TEST(Lateness, OnScheduleGeneratorHasNoBacklog)
{
    std::vector<double> due, sent;
    for (int i = 0; i < 1000; ++i) {
        due.push_back(i * 1e-3);
        // 50 us wake-up jitter, one 5 ms hiccup in the middle.
        sent.push_back(i * 1e-3 + (i == 500 ? 5e-3 : 50e-6));
    }
    const Lateness l = lateness_of(due, sent);
    EXPECT_NEAR(l.max_ms, 5.0, 1e-9);
    EXPECT_NEAR(l.p99_ms, 0.05, 1e-9);
    EXPECT_NEAR(l.end_ms, 0.05, 1e-9);
    EXPECT_FALSE(l.growing);
}

TEST(Lateness, GeneratorFallingBehindIsGrowing)
{
    // The generator needs 1.1 ms per request on a 1 ms schedule.
    std::vector<double> due, sent;
    for (int i = 0; i < 1000; ++i) {
        due.push_back(i * 1e-3);
        sent.push_back(i * 1.1e-3);
    }
    const Lateness l = lateness_of(due, sent);
    EXPECT_NEAR(l.max_ms, 99.9, 1e-6);
    EXPECT_GT(l.end_ms, 90.0);
    EXPECT_TRUE(l.growing);
}

TEST(Lateness, EarlySendsCountAsZero)
{
    const Lateness l = lateness_of({1.0, 2.0}, {0.5, 2.0});
    EXPECT_DOUBLE_EQ(l.max_ms, 0.0);
    EXPECT_FALSE(l.growing);
}

TEST(Slo, EachConditionFailsTheRung)
{
    const SloLimits slo{20.0, 0.01};
    EXPECT_TRUE(rung_passes({1000, 19.0, 0.01, false}, slo));
    EXPECT_FALSE(rung_passes({1000, 21.0, 0.0, false}, slo));
    EXPECT_FALSE(rung_passes({1000, 1.0, 0.02, false}, slo));
    EXPECT_FALSE(rung_passes({1000, 1.0, 0.0, true}, slo));
}

TEST(Ladder, FindsKneeOfSyntheticLatencyCurve)
{
    // M/M/1-shaped tail: 1 ms service, capacity 10 k/s, 20 ms limit.
    // tail(rate) = 1 / (1 - rate / cap) ms crosses 20 ms at 9.5 k/s.
    std::vector<double> ladder;
    for (double r = 1000; r <= 16000; r *= 1.1)
        ladder.push_back(r);
    const SloLimits slo{20.0, 0.01};
    int probes = 0;
    auto passes = [&](int i) {
        ++probes;
        const double rate = ladder[static_cast<size_t>(i)];
        RungResult r;
        r.rate = rate;
        r.tail_ms = rate < 10000 ? 1.0 / (1.0 - rate / 10000) : 1e9;
        r.fail_share = rate < 10000 ? 0.0 : 0.5;
        return rung_passes(r, slo);
    };
    const int best = highest_passing(static_cast<int>(ladder.size()), passes);
    ASSERT_GE(best, 0);
    EXPECT_LE(ladder[static_cast<size_t>(best)], 9500.0);
    ASSERT_LT(best + 1, static_cast<int>(ladder.size()));
    EXPECT_GT(ladder[static_cast<size_t>(best) + 1], 9500.0);
    // Binary search: logarithmic in the ladder length.
    EXPECT_LE(probes, static_cast<int>(std::ceil(std::log2(ladder.size() + 1))));
}

TEST(Ladder, AllPassAndNonePass)
{
    EXPECT_EQ(highest_passing(8, [](int) { return true; }), 7);
    EXPECT_EQ(highest_passing(8, [](int) { return false; }), -1);
    EXPECT_EQ(highest_passing(0, [](int) { return true; }), -1);
}
