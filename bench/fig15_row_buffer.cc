/**
 * @file
 * Fig. 15 — DRAM row buffer hit rate per benchmark and scheme.
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Figure 15", "DRAM row buffer hit rate");
    const harness::Grid g = bench::valleyGrid();

    TextTable t;
    std::vector<std::string> header = {"bench"};
    for (const std::string &s : mapping::paperMappers())
        header.push_back(mapping::displayName(s));
    t.setHeader(header);
    for (const auto &w : g.options().workloads) {
        std::vector<std::string> row = {w};
        for (const std::string &s : mapping::paperMappers())
            row.push_back(
                TextTable::num(g.at(w, s).rowBufferHitRate * 100, 1) +
                "%");
        t.addRow(row);
    }
    t.addRule();
    std::vector<std::string> avg = {"AVG"};
    for (const std::string &s : mapping::paperMappers())
        avg.push_back(
            TextTable::num(g.mean(s,
                                  [](const RunResult &r) {
                                      return r.rowBufferHitRate;
                                  }) *
                               100,
                           1) +
            "%");
    t.addRow(avg);
    std::printf("%s\n", t.toString().c_str());
    std::printf("Paper shape: PAE achieves the highest row buffer hit "
                "rate (it balances load\nwhile keeping good-locality "
                "requests in the same bank); FAE and ALL degrade\nrow "
                "buffer locality by scattering page hits across "
                "banks.\n");
    return 0;
}
