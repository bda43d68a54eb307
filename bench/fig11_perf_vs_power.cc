/**
 * @file
 * Fig. 11 — normalized execution time vs normalized DRAM power for
 * the six schemes, averaged over the entropy-valley benchmarks.
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Figure 11",
                       "performance vs DRAM power (valley set)");
    const harness::Grid g = bench::valleyGrid();

    TextTable t;
    t.setHeader({"scheme", "norm. DRAM power", "norm. exec time",
                 "hmean speedup"});
    for (const std::string &s : mapping::paperMappers())
        t.addRow({mapping::displayName(s),
                  TextTable::num(g.meanDramPowerNorm(s), 3),
                  TextTable::num(g.meanExecTimeNorm(s), 3),
                  TextTable::num(g.hmeanSpeedup(s), 2)});
    std::printf("%s\n", t.toString().c_str());

    std::printf(
        "Paper: PAE 1.52x speedup at +3%% DRAM power; FAE 1.56x at "
        "+35%%; ALL 1.54x at\n+45%%; PM 1.16x at +8%%; RMP 1.21x at "
        "+16%%. Shape to check: PAE sits closest to\nthe origin "
        "(fast AND power-frugal); FAE/ALL are fast but burn "
        "activate power;\nPM/RMP are dominated.\n");
    return 0;
}
