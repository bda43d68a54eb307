/**
 * @file
 * Ablation study of the Broad-scheme design choices (not a paper
 * figure; DESIGN.md §5):
 *
 *  1. Input-range ablation: where may the BIM harvest entropy from?
 *     narrow PM donors -> page bits (PAE) -> +columns (FAE) ->
 *     rewrite everything (ALL), plus the two extra Remap baselines
 *     (minimalist open-page, profile-driven remap).
 *  2. Tap-count ablation: PAE with a minimum of 1/2/4/8 taps per
 *     generated row — how much "broadness" is actually needed?
 *
 * Run on three representative valley workloads at VALLEY_SCALE
 * (default 0.5).
 */

#include "bench_util.hh"
#include "bim/bim_builder.hh"

using namespace valley;

namespace {

const std::vector<std::string> kWorkloads = {"MT", "LU", "SC"};

double
hmeanSpeedup(const SimConfig &cfg, const AddressMapper &mapper,
             const std::vector<RunResult> &base, double scale)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
        const auto wl = workloads::make(kWorkloads[i], scale);
        GpuSystem sim(cfg, mapper);
        const RunResult r = sim.run(*wl);
        v.push_back(base[i].seconds / r.seconds);
    }
    return harmonicMean(v);
}

} // namespace

int
main()
{
    bench::printHeader("Ablation",
                       "Broad-scheme design choices (MT+LU+SC hmean)");
    const double scale = bench::envScale(0.5);
    const SimConfig cfg = SimConfig::paperBaseline();
    const AddressLayout &l = cfg.layout;

    std::vector<RunResult> base;
    for (const auto &w : kWorkloads)
        base.push_back(harness::runOneCached(cfg, "map:base", w, scale));

    // --- 1. input-range ablation ------------------------------------
    TextTable t1;
    t1.setHeader({"mapper", "input range", "hmean speedup"});
    const auto add = [&](const AddressMapper &m, const char *range) {
        t1.addRow({m.name(), range,
                   TextTable::num(hmeanSpeedup(cfg, m, base, scale),
                                  2)});
    };
    add(*mapping::makeScheme(Scheme::PM, l), "1 row bit per target");
    add(*mapping::makeMinimalistOpenPage(l), "lowest row bits (remap)");
    add(*mapping::makeScheme(Scheme::RMP, l), "global top-entropy bits");
    add(*mapping::makeScheme(Scheme::PAE, l, 1), "page address bits");
    add(*mapping::makeScheme(Scheme::FAE, l, 1), "full address");
    add(*mapping::makeScheme(Scheme::ALL, l, 1),
        "full address, all outputs");
    std::printf("%s\n", t1.toString().c_str());

    // --- 2. tap-count ablation (PAE) ---------------------------------
    TextTable t2;
    t2.setHeader({"min taps/row", "avg taps", "xor gates",
                  "hmean speedup"});
    for (unsigned taps : {1u, 2u, 4u, 8u}) {
        XorShiftRng rng(100 + taps);
        const BitMatrix m = bim::randomBroad(
            l.addrBits, l.randomizeTargets(), l.pageMask(), rng, taps);
        const auto mapper = mapping::makeCustom(
            "PAE-t" + std::to_string(taps), l, m);
        double total_taps = 0;
        for (unsigned b : l.randomizeTargets())
            total_taps += std::popcount(m.row(b));
        t2.addRow({std::to_string(taps),
                   TextTable::num(total_taps /
                                      l.randomizeTargets().size(),
                                  1),
                   std::to_string(m.xorGateCount()),
                   TextTable::num(
                       hmeanSpeedup(cfg, *mapper, base, scale), 2)});
    }
    std::printf("%s\n", t2.toString().c_str());
    std::printf(
        "Reading: performance grows with the width of the harvested "
        "input range\n(the paper's Broad thesis); a handful of taps "
        "per row already captures most\nof the benefit, which is why "
        "random BIMs work (Fig. 19). VALLEY_SCALE=%.2f\n",
        scale);
    return 0;
}
