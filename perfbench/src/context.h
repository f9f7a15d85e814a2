/**
 * @file
 * What every workload shares: the run options, the result being built
 * (metrics, checks, request counts), the context stamp that keeps
 * numbers from different boxes or disks apart, and a small span
 * recorder for the traced runs.
 */
#ifndef PERFBENCH_CONTEXT_H
#define PERFBENCH_CONTEXT_H

#include <cstdint>
#include <map>
#include <type_traits>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** A metric of the result line: its name and the unit it is printed in. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The result of one run, printed as the last line of stdout. */
class Report
{
  public:
    /** Record an output check; a failed one makes the run incorrect. */
    void check(bool ok, const std::string &what);

    /** Set a metric (later calls for the same name overwrite). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A human-readable line printed before the result. */
    void note(const std::string &line);

    /** Operations the run attempted and those that failed. */
    void count(uint64_t attempted, uint64_t failed);

    bool correct() const { return failures_.empty(); }

    /** A recorded metric's value; nullptr when never set. */
    const double *value(const std::string &name) const;

    /**
     * Print the notes, the failed checks (stderr) and every recorded
     * metric (a "metrics:" line), then the result object on the last
     * stdout line, restricted to @p specs in that order and printed in
     * their units. A listed metric the workload does not measure is
     * printed as 0 and named in a "not_applicable" note; one recorded
     * in another unit fails the run's checks.
     */
    void print(const std::vector<MetricSpec> &specs);

  private:
    struct Value
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Threads a workload runs: the program's own busy threads and the
 * load generator's (the sum stays within nproc).
 */
struct ThreadUse
{
    int program = 0;
    int generator = 0;
};

/**
 * One line stamping the run's context: seed, nproc, threads used,
 * kernel arch from the dispatch table, build type and the filesystem
 * type of @p work_dir (where checkpoints and registries live).
 */
std::string context_line(const Options &opt, ThreadUse threads,
                         const std::string &work_dir);

/**
 * A fresh scratch directory for checkpoints and registries, under the
 * current directory (the checkout), removed by the destructor.
 */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &tag);
    ~WorkDir();
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;
    const std::string &path() const { return path_; }
    /** A child path (not created). */
    std::string sub(const std::string &name) const;

  private:
    std::string path_;
};

/**
 * Process memory high-water mark in MB since the last reset_peak_rss()
 * (VmHWM; the process lifetime peak where the kernel has no reset).
 */
double peak_rss_mb();

/** Machine-wide CPU time counters from /proc/stat (jiffies). */
struct CpuTimes
{
    uint64_t steal = 0;  ///< Time the hypervisor ran something else.
    uint64_t total = 0;
};

CpuTimes cpu_times();

/**
 * Share of CPU time stolen by the hypervisor between two readings: how
 * contended the host was while the run measured (0 on bare metal).
 */
double steal_share(const CpuTimes &from, const CpuTimes &to);

/**
 * Restart the high-water mark at the current resident size, so one
 * repetition of a job can be measured on its own.
 */
void reset_peak_rss();

/**
 * Named duration samples for the traced runs: each layer call the
 * benchmark wraps adds one sample (seconds) under the layer's name.
 */
class Spans
{
  public:
    /** Time @p fn and record it under @p name; returns fn's result. */
    template <typename Fn>
    auto
    time(const std::string &name, Fn &&fn)
    {
        const auto t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            add(name, secs(t0, Clock::now()));
        } else {
            auto r = fn();
            add(name, secs(t0, Clock::now()));
            return r;
        }
    }

    void add(const std::string &name, double s) { spans_[name].push_back(s); }

    /** Median of a span's samples (0 when never recorded). */
    double median_s(const std::string &name) const;

    /** Nearest-rank percentile of a span's samples. */
    double pct_s(const std::string &name, double p) const;

    /** Sum of a span's samples. */
    double total_s(const std::string &name) const;

    size_t samples(const std::string &name) const;

  private:
    std::map<std::string, std::vector<double>> spans_;
};

/**
 * Run @p fn repeatedly until @p budget_s seconds have passed (at least
 * @p min_reps times) and return each repetition's duration. Sized so a
 * microbenchmark reports the median of many short repetitions.
 */
template <typename Fn>
std::vector<double>
repeat_for(double budget_s, int min_reps, Fn &&fn)
{
    std::vector<double> out;
    const auto start = Clock::now();
    while (static_cast<int>(out.size()) < min_reps ||
           secs(start, Clock::now()) < budget_s) {
        const auto t0 = Clock::now();
        fn();
        out.push_back(secs(t0, Clock::now()));
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_CONTEXT_H
