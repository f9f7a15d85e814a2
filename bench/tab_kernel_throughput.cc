/**
 * @file
 * Kernel-dispatch compute backend throughput, written to
 * BENCH_kernel_throughput.json with the kernel arch + hardware recorded
 * so trajectories across machines are comparable.
 *
 * Three measurements:
 *  - GEMM micro: 512x512x512, the seed's scalar triple loop (inlined
 *    here as the frozen reference) vs the dispatched kernel at the
 *    scalar and best arch variants.
 *  - Conv micro: one Conv2D forward+backward (im2col + GEMM path) at
 *    scalar vs best variant.
 *  - End to end: pipelined SemiAsync rounds/sec on CnnMnist with zero
 *    simulated device latency (pure compute), scalar vs best variant —
 *    the scalar variant is bit- and speed-compatible with the PR 2
 *    baseline path, so this ratio is the round-time win on this
 *    machine.
 *
 * Also measured: a GEMM row per supported kernel arch (scalar, avx2,
 * avx512 — whatever this box can run), and the packed-panel
 * driver vs the direct blocked kernels at a deep-K shape
 * (256x256x4096, the conv-backward / LSTM regime packing exists for).
 *
 * Exit-code gates (skipped with a note when the CPU has no vector
 * variant): vectorized GEMM >= 3x the seed scalar loop, the
 * end-to-end pipelined round time must improve (>= 1.05x), and on
 * AVX2-capable boxes the packed path must beat the direct AVX2
 * kernels by >= 1.25x at the deep-K shape.
 */
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "kernels/kernels.h"
#include "nn/conv2d.h"
#include "ps/ps_server.h"
#include "util/rng.h"

using namespace autofl;
using namespace autofl::bench;

namespace {

constexpr int kGemmDim = 512;
constexpr int kDevices = 8;
constexpr int kRounds = 6;
constexpr int kPipelineDepth = 4;

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The seed's matmul triple loop, frozen as the reference baseline. */
void
seed_matmul(int m, int n, int k, const float *pa, const float *pb, float *po)
{
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const float av = pa[static_cast<size_t>(i) * k + kk];
            if (av == 0.0f)
                continue;
            const float *brow = pb + static_cast<size_t>(kk) * n;
            float *orow = po + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j)
                orow[j] += av * brow[j];
        }
    }
}

/** Best-of-@p iters wall time of @p fn (one warmup call first). */
template <typename Fn>
double
time_best(int iters, Fn &&fn)
{
    fn();
    double best = 1e30;
    for (int it = 0; it < iters; ++it) {
        const double t0 = now_s();
        fn();
        best = std::min(best, now_s() - t0);
    }
    return best;
}

double
gemm_gflops(double seconds)
{
    const double flops = 2.0 * kGemmDim * kGemmDim * kGemmDim;
    return flops / seconds / 1e9;
}

FlSystemConfig
e2e_config()
{
    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 1, kDevices};
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 240;
    cfg.data.test_samples = 40;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = kDevices;
    cfg.seed = kBenchSeed;
    cfg.threads = 8;
    cfg.ps.mode = SyncMode::SemiAsync;
    cfg.ps.staleness_bound = 1;
    cfg.ps.pipeline_depth = kPipelineDepth;
    cfg.ps.sim_device_latency_s = 0.0;  // Pure compute: kernels visible.
    return cfg;
}

/** Pipelined rounds/sec under the currently selected kernel arch. */
double
e2e_rounds_per_sec()
{
    FlSystem fl(e2e_config());
    if (fl.ps() != nullptr)
        fl.ps()->set_eval_fn(nullptr);
    std::vector<int> ids(kDevices);
    for (int d = 0; d < kDevices; ++d)
        ids[static_cast<size_t>(d)] = d;

    fl.submit_round(ids, 0, nullptr);  // Warm caches.
    fl.drain();
    const double t0 = now_s();
    for (int round = 1; round <= kRounds; ++round)
        fl.submit_round(ids, static_cast<uint64_t>(round), nullptr);
    fl.drain();
    return kRounds / (now_s() - t0);
}

} // namespace

int
main()
{
    using kernels::KernelArch;
    const KernelArch best = kernels::best_kernel_arch();
    const bool vectorized = best != KernelArch::Scalar;
    const unsigned hw_threads = std::thread::hardware_concurrency();

    print_banner(std::cout,
                 std::string("Kernel backend throughput (best arch: ") +
                     kernels::kernel_arch_name(best) + ", " +
                     std::to_string(hw_threads) + " hw threads)");

    // ------------------------------------------------------ GEMM micro
    Rng rng(kBenchSeed);
    const size_t elems = static_cast<size_t>(kGemmDim) * kGemmDim;
    std::vector<float> a(elems), b(elems), c(elems, 0.0f);
    for (auto &v : a)
        v = static_cast<float>(rng.uniform(-1, 1));
    for (auto &v : b)
        v = static_cast<float>(rng.uniform(-1, 1));

    // Best-of-5 keeps the ratio stable on noisy shared (or 1-core)
    // machines; the CI job additionally allows one retry.
    const double t_naive = time_best(5, [&] {
        std::fill(c.begin(), c.end(), 0.0f);
        seed_matmul(kGemmDim, kGemmDim, kGemmDim, a.data(), b.data(),
                    c.data());
    });
    kernels::set_kernel_arch(KernelArch::Scalar);
    const double t_scalar = time_best(5, [&] {
        kernels::gemm(kGemmDim, kGemmDim, kGemmDim, a.data(), kGemmDim,
                      b.data(), kGemmDim, c.data(), kGemmDim);
    });
    kernels::set_kernel_arch(best);
    const double t_simd = time_best(5, [&] {
        kernels::gemm(kGemmDim, kGemmDim, kGemmDim, a.data(), kGemmDim,
                      b.data(), kGemmDim, c.data(), kGemmDim);
    });
    const double gemm_speedup = t_naive / t_simd;

    // One GEMM row per variant the box can run (Auto path policy, like
    // the production call sites).
    std::vector<std::pair<KernelArch, double>> arch_rows;
    for (KernelArch arch : kernels::supported_kernel_archs()) {
        kernels::set_kernel_arch(arch);
        const double t = time_best(5, [&] {
            kernels::gemm(kGemmDim, kGemmDim, kGemmDim, a.data(), kGemmDim,
                          b.data(), kGemmDim, c.data(), kGemmDim);
        });
        arch_rows.emplace_back(arch, gemm_gflops(t));
    }

    // -------------------------------------------- packed vs direct path
    // Deep-K shape where panel reuse pays; measured on the AVX2 table
    // specifically so the ratio is comparable across boxes whose best
    // arch differs.
    constexpr int kPackM = 256, kPackN = 256, kPackK = 4096;
    const bool has_avx2 = kernels::kernel_arch_supported(KernelArch::Avx2);
    double packed_ratio = 0.0;
    if (has_avx2) {
        kernels::set_kernel_arch(KernelArch::Avx2);
        std::vector<float> pa(static_cast<size_t>(kPackM) * kPackK);
        std::vector<float> pb(static_cast<size_t>(kPackK) * kPackN);
        std::vector<float> pc(static_cast<size_t>(kPackM) * kPackN);
        for (auto &v : pa)
            v = static_cast<float>(rng.uniform(-1, 1));
        for (auto &v : pb)
            v = static_cast<float>(rng.uniform(-1, 1));
        const auto deep_gemm = [&] {
            kernels::gemm(kPackM, kPackN, kPackK, pa.data(), kPackK,
                          pb.data(), kPackN, pc.data(), kPackN);
        };
        kernels::set_gemm_path(kernels::GemmPath::Direct);
        const double t_direct = time_best(5, deep_gemm);
        kernels::set_gemm_path(kernels::GemmPath::Packed);
        const double t_packed = time_best(5, deep_gemm);
        kernels::set_gemm_path(kernels::GemmPath::Auto);
        packed_ratio = t_direct / t_packed;
    }
    kernels::set_kernel_arch(best);

    // ------------------------------------------------------ conv micro
    // CnnMnist's first 5x5 conv shape, batch 16. Setup (layer, weights,
    // input) stays outside the timed region: only fwd+bwd is measured.
    Conv2D conv(1, 8, 5, 1, 2);
    Rng crng(kBenchSeed);
    conv.init_weights(crng);
    Tensor conv_x({16, 1, 28, 28});
    for (size_t i = 0; i < conv_x.size(); ++i)
        conv_x[i] = static_cast<float>(crng.uniform(-1, 1));
    const auto conv_pass = [&] {
        Tensor y = conv.forward(conv_x);
        conv.zero_grad();
        conv.backward(y);
    };
    kernels::set_kernel_arch(KernelArch::Scalar);
    const double t_conv_scalar = time_best(3, conv_pass);
    kernels::set_kernel_arch(best);
    const double t_conv_simd = time_best(3, conv_pass);
    const double conv_speedup = t_conv_scalar / t_conv_simd;

    // ------------------------------------------------------ end to end
    kernels::set_kernel_arch(KernelArch::Scalar);
    const double rps_scalar = e2e_rounds_per_sec();
    kernels::set_kernel_arch(best);
    const double rps_simd = e2e_rounds_per_sec();
    const double e2e_speedup = rps_simd / rps_scalar;

    TextTable t;
    t.set_header({"measure", "scalar", "best-arch", "speedup",
                  "seed-naive"});
    t.add_row({"gemm-512 (GFLOP/s)", TextTable::num(gemm_gflops(t_scalar), 2),
               TextTable::num(gemm_gflops(t_simd), 2),
               ratio(t_naive, t_simd), TextTable::num(gemm_gflops(t_naive), 2)});
    t.add_row({"conv fwd+bwd (ms)", TextTable::num(t_conv_scalar * 1e3, 2),
               TextTable::num(t_conv_simd * 1e3, 2),
               ratio(t_conv_scalar, t_conv_simd), "-"});
    t.add_row({"pipelined rounds/s", TextTable::num(rps_scalar, 2),
               TextTable::num(rps_simd, 2), ratio(rps_simd, rps_scalar),
               "-"});
    t.render(std::cout);

    TextTable ta;
    ta.set_header({"arch", "gemm-512 GFLOP/s", "parity: gemm",
                   "elementwise", "codec", "transcendental"});
    for (const auto &[arch, gflops] : arch_rows) {
        const kernels::KernelParity &p = kernels::kernel_parity(arch);
        ta.add_row({kernels::kernel_arch_name(arch),
                    TextTable::num(gflops, 2),
                    kernels::parity_tier_name(p.gemm),
                    kernels::parity_tier_name(p.elementwise),
                    kernels::parity_tier_name(p.codec),
                    kernels::parity_tier_name(p.transcendental)});
    }
    ta.render(std::cout);

    bool gemm_ok = true, e2e_ok = true, packed_ok = true;
    if (vectorized) {
        gemm_ok = gemm_speedup >= 3.0;
        e2e_ok = e2e_speedup >= 1.05;
        std::cout << "vectorized GEMM vs seed scalar loop: "
                  << TextTable::num(gemm_speedup, 2) << "x ("
                  << (gemm_ok ? "PASS" : "FAIL") << " >= 3x)\n";
        std::cout << "pipelined round time vs scalar backend: "
                  << TextTable::num(e2e_speedup, 2) << "x ("
                  << (e2e_ok ? "PASS" : "FAIL") << " >= 1.05x)\n";
    } else {
        std::cout << "no vector variant on this CPU; speedup gates "
                     "skipped\n";
    }
    if (has_avx2) {
        packed_ok = packed_ratio >= 1.25;
        std::cout << "packed-panel vs direct AVX2 GEMM (256x256x4096): "
                  << TextTable::num(packed_ratio, 2) << "x ("
                  << (packed_ok ? "PASS" : "FAIL") << " >= 1.25x)\n";
    } else {
        std::cout << "no AVX2 on this CPU; packed-path gate skipped\n";
    }

    std::ofstream json("BENCH_kernel_throughput.json");
    json << "{\n"
         << "  \"kernel_arch\": \""
         << kernels::kernel_arch_name(best) << "\",\n"
         << "  \"hardware_threads\": " << hw_threads << ",\n"
         << "  \"gemm_dim\": " << kGemmDim << ",\n"
         << "  \"gemm_naive_gflops\": " << gemm_gflops(t_naive) << ",\n"
         << "  \"gemm_scalar_gflops\": " << gemm_gflops(t_scalar) << ",\n"
         << "  \"gemm_best_gflops\": " << gemm_gflops(t_simd) << ",\n"
         << "  \"gemm_speedup_vs_naive\": " << gemm_speedup << ",\n"
         << "  \"gemm_arch_gflops\": {";
    for (size_t i = 0; i < arch_rows.size(); ++i)
        json << (i != 0 ? ", " : "") << "\""
             << kernels::kernel_arch_name(arch_rows[i].first)
             << "\": " << arch_rows[i].second;
    json << "},\n"
         << "  \"packed_gemm_shape\": [" << kPackM << ", " << kPackN << ", "
         << kPackK << "],\n"
         << "  \"packed_vs_direct_avx2\": " << packed_ratio << ",\n"
         << "  \"conv_speedup\": " << conv_speedup << ",\n"
         << "  \"e2e_pipeline_depth\": " << kPipelineDepth << ",\n"
         << "  \"e2e_rounds_per_sec_scalar\": " << rps_scalar << ",\n"
         << "  \"e2e_rounds_per_sec_best\": " << rps_simd << ",\n"
         << "  \"e2e_speedup\": " << e2e_speedup << "\n"
         << "}\n";
    std::cout << "wrote BENCH_kernel_throughput.json\n";
    return gemm_ok && e2e_ok ? 0 : 1;
}
