#include "arch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "kernels/kernel_table.h"

namespace autofl::kernels {

namespace {

/** Every variant, in KernelArch's narrow-to-wide declaration order. */
constexpr KernelArch kAllArchs[] = {KernelArch::Scalar, KernelArch::Avx2,
                                    KernelArch::Avx512};

/**
 * "This binary and this CPU can run the variant." The table pointer is
 * null when the TU was built without the ISA (wrong target or missing
 * compiler support), so "binary supports it" is part of the check, not
 * just cpuid.
 */
bool
arch_supported(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
        return true;
      case KernelArch::Avx2:
#if defined(__x86_64__) || defined(_M_X64)
        return avx2_kernel_table() != nullptr &&
               __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
      case KernelArch::Avx512:
#if defined(__x86_64__) || defined(_M_X64)
        return avx512_kernel_table() != nullptr &&
               __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }
    return false;
}

KernelArch
detect_best()
{
    for (auto it = std::rbegin(kAllArchs); it != std::rend(kAllArchs); ++it)
        if (arch_supported(*it))
            return *it;
    return KernelArch::Scalar;
}

std::atomic<KernelArch> &
arch_slot()
{
    static std::atomic<KernelArch> arch{
        resolve_kernel_arch_request(std::getenv("AUTOFL_KERNEL_ARCH"))};
    return arch;
}

} // namespace

KernelArch
best_kernel_arch()
{
    static const KernelArch best = detect_best();
    return best;
}

bool
kernel_arch_supported(KernelArch arch)
{
    return arch_supported(arch);
}

std::vector<KernelArch>
supported_kernel_archs()
{
    std::vector<KernelArch> archs;
    for (const KernelArch arch : kAllArchs)
        if (arch_supported(arch))
            archs.push_back(arch);
    return archs;
}

KernelArch
current_kernel_arch()
{
    return arch_slot().load(std::memory_order_relaxed);
}

KernelArch
set_kernel_arch(KernelArch arch)
{
    if (!arch_supported(arch))
        arch = best_kernel_arch();
    arch_slot().store(arch, std::memory_order_relaxed);
    return arch;
}

KernelArch
resolve_kernel_arch_request(const char *request)
{
    const KernelArch best = best_kernel_arch();
    if (request == nullptr || request[0] == '\0' ||
        std::strcmp(request, "auto") == 0 ||
        std::strcmp(request, "best") == 0)
        return best;
    bool known = false;
    for (const KernelArch arch : kAllArchs) {
        if (std::strcmp(request, kernel_arch_name(arch)) != 0)
            continue;
        known = true;
        if (arch_supported(arch))
            return arch;
        break;
    }
    if (known)
        std::fprintf(stderr,
                     "AUTOFL_KERNEL_ARCH=%s unsupported here; using %s\n",
                     request, kernel_arch_name(best));
    else
        std::fprintf(stderr,
                     "unknown AUTOFL_KERNEL_ARCH=\"%s\"; using %s\n",
                     request, kernel_arch_name(best));
    return best;
}

const char *
kernel_arch_name(KernelArch arch)
{
    switch (arch) {
      case KernelArch::Scalar:
        return "scalar";
      case KernelArch::Avx2:
        return "avx2";
      case KernelArch::Avx512:
        return "avx512";
    }
    return "unknown";
}

const char *
parity_tier_name(ParityTier tier)
{
    switch (tier) {
      case ParityTier::Exact:
        return "exact";
      case ParityTier::Tolerance:
        return "tolerance";
    }
    return "unknown";
}

} // namespace autofl::kernels
