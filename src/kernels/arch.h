/**
 * @file
 * Runtime CPU-architecture selection for the compute kernels.
 *
 * The library ships one binary containing every kernel variant; the
 * variant actually executed is chosen once at startup from cpuid (and
 * can be overridden). Selection order:
 *
 *   1. `set_kernel_arch()` — explicit programmatic override (tests and
 *      benches flip variants in-process for parity/speedup checks).
 *   2. `AUTOFL_KERNEL_ARCH` environment variable: "scalar", "avx2",
 *      "avx512" or "auto". Requests the hardware (or this binary)
 *      cannot honor, and unknown names, fall back to the best
 *      supported variant with a stderr note — never a crash.
 *   3. cpuid: the widest variant this CPU supports.
 *
 * Each variant has a fixed reduction order, so results are bitwise
 * deterministic per (variant, input). How tightly variants agree with
 * each other is the per-family parity tier (KernelParity below) — see
 * src/kernels/README.md for the full determinism contract.
 */
#ifndef AUTOFL_KERNELS_ARCH_H
#define AUTOFL_KERNELS_ARCH_H

#include <vector>

namespace autofl::kernels {

/**
 * Kernel instruction-set variants, widest last. Off x86-64 only Scalar
 * runs: the AVX translation units compile to null tables there.
 */
enum class KernelArch {
    Scalar,  ///< Portable C++; bit-identical to the seed loops.
    Avx2,    ///< AVX2 + FMA (x86-64), 8-lane float vectors.
    Avx512,  ///< AVX-512F + FMA (x86-64), 16-lane float vectors.
};

/**
 * Cross-variant agreement promised by one kernel family on one arch.
 * `Exact` families are bit-identical to the scalar table (and hence to
 * every other variant); `Tolerance` families agree within the 1e-4
 * relative class that tests/test_kernels.cc asserts.
 */
enum class ParityTier {
    Exact,      ///< Bit-identical across all variants.
    Tolerance,  ///< 1e-4 relative agreement; bitwise only per variant.
};

/** Per-family parity tiers for one kernel arch. */
struct KernelParity
{
    ParityTier gemm = ParityTier::Exact;
    ParityTier elementwise = ParityTier::Exact;
    ParityTier codec = ParityTier::Exact;
    ParityTier transcendental = ParityTier::Exact;
};

/** Widest variant this CPU (and this binary) supports. */
KernelArch best_kernel_arch();

/**
 * True when @p arch can run here: its table was compiled into this
 * binary and cpuid reports the ISA.
 */
bool kernel_arch_supported(KernelArch arch);

/** Every runnable variant, narrowest (Scalar) first. */
std::vector<KernelArch> supported_kernel_archs();

/** The variant kernels dispatch to right now. */
KernelArch current_kernel_arch();

/**
 * Override the dispatch variant (clamped to the widest supported
 * variant when the request cannot run here). Returns the variant
 * actually installed. Thread-safe, but callers flipping variants
 * mid-run own the ordering with in-flight kernels.
 */
KernelArch set_kernel_arch(KernelArch arch);

/**
 * Resolve an AUTOFL_KERNEL_ARCH-style request string to the variant
 * that would be installed: "scalar"/"avx2"/"avx512" pick that
 * variant when supported, anything else (including unsupported
 * requests, unknown names, null and "") falls back to
 * best_kernel_arch() with a stderr note. Pure lookup + clamp — exposed
 * so tests can drive the negative paths without re-execing.
 */
KernelArch resolve_kernel_arch_request(const char *request);

/** Lower-case variant name ("scalar", "avx2", "avx512"). */
const char *kernel_arch_name(KernelArch arch);

/** Lower-case tier name ("exact", "tolerance"). */
const char *parity_tier_name(ParityTier tier);

} // namespace autofl::kernels

#endif // AUTOFL_KERNELS_ARCH_H
