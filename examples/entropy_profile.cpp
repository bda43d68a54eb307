/**
 * @file
 * Profile a workload's window-based address-bit entropy (Section III
 * of the paper) and report where its valley sits relative to the
 * channel/bank bits — the analysis a memory-system architect would
 * run before choosing an address mapping.
 *
 *   ./build/examples/entropy_profile [workload] [window] [scale] [threads]
 *
 * Profiling runs on the trace planes: each TB's addresses are
 * transposed 64 at a time into one bit plane per address bit, a
 * plane's popcount gives the bit's BVR, and TB ranges fan out over
 * worker threads (threads: 0 = one per hardware thread, 1 = serial;
 * the result is bit-identical either way).
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/spec.hh"
#include "workloads/profiler.hh"

using namespace valley;

namespace {

/** Print why a positional argument is malformed and exit 1. */
[[noreturn]] void
badArg(const char *what, const char *text)
{
    std::fprintf(stderr, "entropy_profile: %s, got \"%s\"\n", what, text);
    std::exit(1);
}

/** Positional argument `i` as an unsigned in [lo, UINT_MAX]. */
unsigned
unsignedArg(int argc, char **argv, int i, unsigned fallback, unsigned lo,
            const char *what)
{
    if (argc <= i)
        return fallback;
    const std::optional<std::uint64_t> v = spec::parseU64(argv[i]);
    if (!v || *v < lo || *v > std::numeric_limits<unsigned>::max())
        badArg(what, argv[i]);
    return static_cast<unsigned>(*v);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "LU";
    const unsigned window =
        unsignedArg(argc, argv, 2, 12, 1, "window must be an integer >= 1");
    double scale = 1.0;
    if (argc > 3) {
        const std::optional<double> v = spec::parseF64(argv[3]);
        if (!v || !(*v > 0.0 && *v <= 1.0))
            badArg("scale must be a number in (0, 1]", argv[3]);
        scale = *v;
    }
    const unsigned threads =
        unsignedArg(argc, argv, 4, 0, 0, "threads must be an integer >= 0");

    std::unique_ptr<Workload> wl;
    try {
        wl = workloads::make(workload, scale);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "entropy_profile: %s\n", e.what());
        return 1;
    }
    const AddressLayout layout = AddressLayout::hynixGddr5();

    workloads::ProfileOptions po;
    po.window = window;
    po.threads = threads;
    const EntropyProfile p = workloads::profileWorkload(*wl, po);

    std::printf("%s — window-based entropy, w = %u TBs\n\n",
                wl->info().name.c_str(), window);
    std::printf("%s\n", p.chart(29, 6).c_str());

    const double ch = p.meanOver(layout.channelBits());
    const double bank = p.meanOver(layout.bankBits());
    const double row = p.meanOver(layout.rowBits());
    std::printf("mean entropy: channel bits %.2f | bank bits %.2f | "
                "row bits %.2f\n",
                ch, bank, row);

    if (ch < 0.5 || bank < 0.5) {
        std::printf("\n=> entropy valley overlaps the channel/bank "
                    "bits: this workload will\n   serialize on a few "
                    "channels/banks under the baseline map. A Broad\n"
                    "   scheme (PAE/FAE) can harvest the high-entropy "
                    "bits elsewhere in the\n   address.\n");
    } else {
        std::printf("\n=> no entropy valley: address mapping will "
                    "have minor impact here.\n");
    }

    // Per-kernel variation (the paper's DWT2D observation).
    if (wl->numKernels() > 1) {
        const EntropyProfile k0 =
            workloads::profileKernel(wl->kernels().front(), po);
        std::printf("\nfirst kernel only (%s): channel-bit entropy "
                    "%.2f vs %.2f for the whole app\n",
                    wl->kernels().front().name().c_str(),
                    k0.meanOver(layout.channelBits()), ch);
    }
    return 0;
}
