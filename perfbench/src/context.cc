#include "context.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "kernels/arch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace fs = std::filesystem;

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
}

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_[name] = Value{value, unit};
}

const double *
Report::value(const std::string &name) const
{
    auto it = metrics_.find(name);
    return it == metrics_.end() ? nullptr : &it->second.value;
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Report::count(uint64_t attempted, uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

namespace {

/** A JSON number with all its digits (17 significant). */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::print(const std::vector<MetricSpec> &specs)
{
    std::string missing;
    std::ostringstream m;
    bool first = true;
    for (const auto &spec : specs) {
        auto it = metrics_.find(spec.name);
        const double v = it == metrics_.end() ? 0.0 : it->second.value;
        if (it == metrics_.end())
            missing += (missing.empty() ? "" : " ") + spec.name;
        else
            check(it->second.unit == spec.unit,
                  spec.name + " was measured in '" + it->second.unit +
                      "', not '" + spec.unit + "'");
        m << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
          << num(v) << ", \"unit\": \"" << spec.unit << "\"}";
        first = false;
    }
    for (const auto &n : notes_)
        std::cout << n << "\n";
    for (const auto &f : failures_)
        std::cerr << "CHECK FAILED: " << f << "\n";
    std::ostringstream all;
    for (const auto &[name, v] : metrics_)
        all << (all.tellp() > 0 ? ", " : "") << "\"" << name
            << "\": {\"value\": " << num(v.value) << ", \"unit\": \""
            << v.unit << "\"}";
    std::cout << "metrics: {" << all.str() << "}\n";
    if (!missing.empty())
        std::cout << "not_applicable: " << missing << "\n";
    std::cout << "{\"correct\": " << (correct() ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": {"
              << m.str() << "}}" << std::endl;
}

namespace {

std::string
fs_type_name(const std::string &path)
{
    struct statfs sf{};
    if (statfs(path.c_str(), &sf) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(sf.f_type)) {
      case 0xEF53UL:
        return "ext4";
      case 0x58465342UL:
        return "xfs";
      case 0x9123683EUL:
        return "btrfs";
      case 0x01021994UL:
        return "tmpfs";
      case 0x794C7630UL:
        return "overlayfs";
      case 0x6969UL:
        return "nfs";
      case 0x65735546UL:
        return "fuse";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%lx",
                      static_cast<unsigned long>(sf.f_type));
        return buf;
      }
    }
}

} // namespace

std::string
context_line(const Options &opt, ThreadUse threads,
             const std::string &work_dir)
{
    namespace k = autofl::kernels;
    std::ostringstream o;
    o << "context: {\"workload\": \"" << opt.workload
      << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"program_threads\": " << threads.program
      << ", \"generator_threads\": " << threads.generator
      << ", \"kernel_arch\": \""
      << k::kernel_arch_name(k::current_kernel_arch())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"work_dir_fs\": \"" << fs_type_name(work_dir) << "\"}";
    return o.str();
}

WorkDir::WorkDir(const std::string &tag)
{
    path_ = (fs::current_path() / ".bench_work" /
             (tag + "-" + std::to_string(::getpid())))
                .string();
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_);
}

WorkDir::~WorkDir()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
    // Leave no empty parent behind either (fails harmlessly while a
    // concurrent run still uses it).
    fs::remove(fs::path(path_).parent_path(), ec);
}

std::string
WorkDir::sub(const std::string &name) const
{
    return (fs::path(path_) / name).string();
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes
cpu_times()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    CpuTimes t;
    uint64_t v = 0;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so it is not summed again.
    for (int i = 0; i < 8 && stat >> v; ++i) {
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
steal_share(const CpuTimes &from, const CpuTimes &to)
{
    const uint64_t total = to.total - from.total;
    return total ? static_cast<double>(to.steal - from.steal) /
            static_cast<double>(total)
                 : 0.0;
}

void
reset_peak_rss()
{
    // Hand freed heap back first, so the new mark starts from what is
    // live rather than from what earlier repetitions left cached.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
Spans::median_s(const std::string &name) const
{
    auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : median(it->second);
}

double
Spans::pct_s(const std::string &name, double p) const
{
    auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : nearest_rank(it->second, p);
}

double
Spans::total_s(const std::string &name) const
{
    auto it = spans_.find(name);
    double t = 0.0;
    if (it != spans_.end())
        for (double s : it->second)
            t += s;
    return t;
}

size_t
Spans::samples(const std::string &name) const
{
    auto it = spans_.find(name);
    return it == spans_.end() ? 0 : it->second.size();
}

} // namespace perfbench
