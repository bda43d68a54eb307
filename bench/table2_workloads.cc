/**
 * @file
 * Table II — benchmark characteristics: LLC APKI, LLC MPKI, kernel
 * launches and dynamic instruction counts, measured on the BASE
 * configuration, next to the paper's reported values.
 */

#include "bench_util.hh"

using namespace valley;

namespace {

struct PaperRow
{
    const char *abbrev;
    double apki, mpki;
    unsigned kernels;
    double insnsB;
};

const PaperRow kPaper[] = {
    {"MT", 7.44, 5.69, 4, 0.19},   {"LU", 12.32, 1.97, 1022, 2.22},
    {"GS", 9.09, 0.01, 510, 0.43}, {"NW", 5.25, 5.12, 255, 0.21},
    {"LPS", 2.27, 1.66, 2, 2.33},  {"SC", 4.24, 3.58, 50, 1.71},
    {"SRAD2", 3.29, 1.85, 4, 2.43},{"DWT2D", 1.56, 1.21, 10, 0.33},
    {"HS", 0.71, 0.08, 1, 1.3},    {"SP", 2.17, 2.16, 1, 0.12},
    {"FWT", 2.69, 1.38, 22, 4.38}, {"NN", 2.33, 0.2, 4, 0.31},
    {"SPMV", 5.95, 2.75, 50, 0.19},{"LM", 18.23, 0.01, 1, 2.11},
    {"MUM", 25.63, 22.53, 2, 0.23},{"BFS", 26.92, 18.14, 24, 0.46},
};

} // namespace

int
main()
{
    bench::printHeader("Table II",
                       "GPU-compute benchmarks (measured vs paper)");
    const double scale = bench::envScale();
    const SimConfig cfg = SimConfig::paperBaseline();

    TextTable t;
    t.setHeader({"bench", "APKI", "MPKI", "#Knls", "#Insns",
                 "(paper", "APKI", "MPKI", "#Knls", "#Insns)"});
    for (const PaperRow &p : kPaper) {
        const RunResult r =
            harness::runOneCached(cfg, "map:base", p.abbrev, scale);
        const auto wl = workloads::make(p.abbrev, scale);
        t.addRow({p.abbrev, TextTable::num(r.apki(), 2),
                  TextTable::num(r.mpki(), 2),
                  std::to_string(wl->numKernels()),
                  TextTable::num(r.instructions / 1e9, 3) + " B", "",
                  TextTable::num(p.apki, 2), TextTable::num(p.mpki, 2),
                  std::to_string(p.kernels),
                  TextTable::num(p.insnsB, 2) + " B"});
    }
    std::printf("%s\n", t.toString().c_str());
    std::printf(
        "Notes: problem sizes are scaled for a 1 GB / 12 SM machine, "
        "so absolute\ninstruction counts are smaller than the paper's "
        "(scale factor VALLEY_SCALE=%.2f).\nAPKI/MPKI differ where the "
        "scaled working sets change cache behavior; the\nrelative "
        "intensity ordering follows Table II. See src/workloads/suite.cc.\n",
        scale);
    return 0;
}
