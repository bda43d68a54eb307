/**
 * @file
 * Fig. 12 — per-benchmark speedup over BASE for the entropy-valley
 * set, plus the harmonic mean. Extends the paper's six schemes with
 * SBIM, the profile-driven searched BIM (`search::BimSearch`), so the
 * automated Section IV-B methodology is evaluated side by side with
 * the paper's hand-derived mappings.
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Figure 12",
                       "per-benchmark speedup over BASE (valley set)");

    // The shared Fig. 11-17 grid plus the searched scheme; the common
    // cells come from (and land in) the same result cache.
    std::vector<std::string> with_sbim = mapping::paperMappers();
    with_sbim.push_back(mapping::kSbim);
    const harness::Grid g =
        bench::valleyGrid(1.0, std::move(with_sbim));
    const std::vector<std::string> &mappers = g.options().mappers;

    TextTable t;
    std::vector<std::string> header = {"bench"};
    for (const std::string &s : mappers)
        header.push_back(mapping::displayName(s));
    t.setHeader(header);
    for (const auto &w : g.options().workloads) {
        std::vector<std::string> row = {w};
        for (const std::string &s : mappers)
            row.push_back(TextTable::num(g.speedup(w, s), 2));
        t.addRow(row);
    }
    t.addRule();
    std::vector<std::string> hm = {"HMEAN"};
    for (const std::string &s : mappers)
        hm.push_back(TextTable::num(g.hmeanSpeedup(s), 2));
    t.addRow(hm);
    std::printf("%s\n", t.toString().c_str());

    std::printf("Paper HMEAN: BASE 1.00, PM 1.16, RMP 1.21, PAE 1.52, "
                "FAE 1.56, ALL 1.54;\nMT and LU reach up to ~7.5x "
                "under the Broad schemes.\nSBIM is this repo's "
                "searched per-workload BIM (no paper counterpart).\n");
    return 0;
}
