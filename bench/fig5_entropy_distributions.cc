/**
 * @file
 * Fig. 5 — window-entropy distribution of all 16 benchmarks plus the
 * two individually-plotted kernels (SRAD2-K1, DWT2D-K1). Bits used
 * for channel/bank selection (8-13 under the Hynix map) are marked.
 * Each profile is one popcount pass over the workload's trace planes,
 * computed fresh on every run.
 */

#include "bench_util.hh"

using namespace valley;

namespace {

void
printProfile(const std::string &label, const EntropyProfile &p)
{
    std::printf("--- %s (requests: %s)\n", label.c_str(),
                TextTable::big(p.weight).c_str());
    std::printf("%s", p.chart(29, 6).c_str());
    std::printf("bit: ");
    for (int b = 29; b >= 6; --b)
        std::printf("%5d", b);
    std::printf("\n  H*:");
    for (int b = 29; b >= 6; --b)
        std::printf("%5.2f", p.perBit[b]);
    std::printf("\n      ");
    for (int b = 29; b >= 6; --b)
        std::printf("%5s", (b >= 8 && b <= 13) ? "^^^" : "");
    std::printf("   (^^^ = channel/bank bits)\n\n");
}

} // namespace

int
main()
{
    bench::printHeader(
        "Figure 5",
        "entropy distributions, 16 benchmarks + 2 kernels (w = 12)");
    const double scale = bench::envScale();
    workloads::ProfileOptions po; // window 12 = #SMs

    for (const std::string &a : workloads::allSet()) {
        const auto wl = workloads::make(a, scale);
        printProfile(a + (wl->info().entropyValley
                              ? "  [entropy valley]"
                              : "  [non-valley]"),
                     workloads::profileWorkload(*wl, po));
    }

    // The two kernel-level profiles of Fig. 5h / 5j.
    {
        const auto srad2 = workloads::make("SRAD2", scale);
        printProfile("SRAD2-K1 (first gradient kernel)",
                     workloads::profileKernel(srad2->kernels().front(),
                                              po));
        const auto dwt = workloads::make("DWT2D", scale);
        printProfile("DWT2D-K1 (first horizontal pass)",
                     workloads::profileKernel(dwt->kernels().front(),
                                              po));
    }

    std::printf("Paper take-away reproduced: every benchmark has "
                "high-entropy bits, but their\nposition is "
                "application-dependent; the top-ten group shows "
                "valleys overlapping\nthe channel/bank bits, the "
                "bottom six concentrate entropy in low-order "
                "bits.\n");
    return 0;
}
