/**
 * @file
 * Fig. 20 — the non-entropy-valley benchmarks: address mapping must
 * not hurt workloads whose channel/bank bits already carry entropy.
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Figure 20",
                       "non-entropy-valley benchmark speedups");
    const harness::Grid g = bench::nonValleyGrid();

    TextTable t;
    std::vector<std::string> header = {"bench"};
    for (const std::string &s : mapping::paperMappers())
        header.push_back(mapping::displayName(s));
    t.setHeader(header);
    for (const auto &w : g.options().workloads) {
        std::vector<std::string> row = {w};
        for (const std::string &s : mapping::paperMappers())
            row.push_back(TextTable::num(g.speedup(w, s), 2));
        t.addRow(row);
    }
    t.addRule();
    std::vector<std::string> hm = {"HMEAN"};
    for (const std::string &s : mapping::paperMappers())
        hm.push_back(TextTable::num(g.hmeanSpeedup(s), 2));
    t.addRow(hm);
    std::printf("%s\n", t.toString().c_str());
    std::printf("Paper shape: address mapping has a relatively minor "
                "impact on these (still\nmemory-intensive) "
                "benchmarks; PAE and FAE give small average "
                "improvements.\n");
    return 0;
}
