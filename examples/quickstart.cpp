/**
 * @file
 * Quickstart: simulate one workload under BASE and PAE and print the
 * headline metrics. This is the 60-second tour of the public API.
 *
 *   ./build/examples/quickstart [workload] [scale]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/spec.hh"
#include "harness/experiment.hh"

using namespace valley;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "MT";
    double scale = 1.0;
    if (argc > 2) {
        const std::optional<double> v = spec::parseF64(argv[2]);
        if (!v || !(*v > 0.0 && *v <= 1.0)) {
            std::fprintf(stderr,
                         "quickstart: scale must be a number in (0, 1], "
                         "got \"%s\"\n",
                         argv[2]);
            return 1;
        }
        scale = *v;
    }

    // 1. The machine: Table I of the paper (12 SMs, 4-channel GDDR5).
    const SimConfig cfg = SimConfig::paperBaseline();
    std::printf("machine : %s\n", cfg.layout.describe().c_str());

    // 2. The workload: a Table II benchmark reproduction.
    std::unique_ptr<Workload> wl;
    try {
        wl = workloads::make(workload, scale);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "quickstart: %s\n", e.what());
        return 1;
    }
    std::printf("workload: %s (%s), %u kernels\n",
                wl->info().name.c_str(), wl->info().abbrev.c_str(),
                wl->numKernels());

    // 3. Two address mappers: the Hynix baseline and the paper's
    //    power-efficient Page Address Entropy scheme.
    const auto base = mapping::makeMapper(mapping::kBase, cfg.layout);
    const auto pae = mapping::makeMapper(mapping::kPae, cfg.layout, 1);

    // 4. Simulate.
    for (const AddressMapper *m : {base.get(), pae.get()}) {
        GpuSystem sim(cfg, *m);
        const RunResult r = sim.run(*wl);
        std::printf(
            "\n%-4s: %10llu cycles  (%.3f ms simulated)\n"
            "      row-buffer hit %.1f%%   LLC miss %.1f%%   NoC "
            "latency %.0f cyc\n"
            "      DRAM %.1f W   system %.1f W   perf/W %.3f 1/(s*W)\n",
            m->name().c_str(),
            static_cast<unsigned long long>(r.cycles),
            r.seconds * 1e3, r.rowBufferHitRate * 100,
            r.llcMissRate * 100, r.nocLatencySmCycles,
            r.dramPower.totalW(), r.systemPowerW,
            r.performancePerWatt());
    }

    std::printf("\nPAE harvests entropy from the DRAM page-address "
                "bits and concentrates it\ninto the channel/bank "
                "bits — run the bench/ binaries for the full "
                "evaluation.\n");
    return 0;
}
