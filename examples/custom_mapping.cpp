/**
 * @file
 * Build a *custom* BIM-based address mapping scheme and evaluate it
 * against the paper's schemes on one workload — the workflow for
 * anyone extending this library with their own mapping ideas.
 */

#include <cstdio>
#include <memory>

#include "bim/bim_builder.hh"
#include "harness/experiment.hh"

using namespace valley;

int
main()
{
    const SimConfig cfg = SimConfig::paperBaseline();
    const AddressLayout &layout = cfg.layout;

    // A hand-crafted "wide PM": each channel/bank bit XORs *four*
    // donors spread across row and column bits — broader than PM's
    // single donor, narrower than PAE's random page rows.
    BitMatrix m = BitMatrix::identity(layout.addrBits);
    const std::vector<unsigned> targets = layout.randomizeTargets();
    const unsigned donors[6][4] = {
        {14, 18, 22, 26}, {15, 19, 23, 27}, {16, 20, 24, 28},
        {17, 21, 25, 29}, {14, 20, 26, 7},  {15, 21, 27, 6},
    };
    for (unsigned i = 0; i < targets.size(); ++i)
        for (unsigned d : donors[i])
            m.set(targets[i], d, true);

    if (!m.invertible()) {
        std::printf("custom matrix is singular — aborting\n");
        return 1;
    }
    const auto custom =
        std::make_unique<AddressMapper>("WIDE-PM", layout, m);
    std::printf("custom scheme: %u XOR gates, depth %u\n\n",
                custom->matrix().xorGateCount(),
                custom->matrix().xorTreeDepth());

    // Evaluate against BASE / PM / PAE on the transpose workload.
    const auto wl = workloads::make("MT", 0.5);
    const auto base = mapping::makeMapper(mapping::kBase, layout);
    const auto pm = mapping::makeMapper(mapping::kPm, layout);
    const auto pae = mapping::makeMapper(mapping::kPae, layout, 1);

    double base_seconds = 0.0;
    std::printf("%-8s %12s %10s %10s %10s\n", "scheme", "cycles",
                "speedup", "rb-hit", "dram W");
    for (const AddressMapper *mp :
         {base.get(), pm.get(), custom.get(), pae.get()}) {
        GpuSystem sim(cfg, *mp);
        const RunResult r = sim.run(*wl);
        if (mp == base.get())
            base_seconds = r.seconds;
        std::printf("%-8s %12llu %9.2fx %9.1f%% %10.1f\n",
                    mp->name().c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    base_seconds / r.seconds,
                    r.rowBufferHitRate * 100, r.dramPower.totalW());
    }

    std::printf("\nAnything expressible with AND/XOR can be plugged "
                "in this way — the BIM\nabstraction covers all "
                "one-to-one mappings of that family (Section IV).\n");
    return 0;
}
