/**
 * @file
 * Fig. 14 — memory-level parallelism: (a) LLC-level, (b) channel-
 * level and (c) bank-level (banks per busy channel), sampled per
 * cycle when at least one request is outstanding.
 */

#include "bench_util.hh"

using namespace valley;

namespace {

void
printMetric(const harness::Grid &g, const char *title,
            double (RunResult::*field))
{
    TextTable t;
    std::vector<std::string> header = {"bench"};
    for (const std::string &s : mapping::paperMappers())
        header.push_back(mapping::displayName(s));
    t.setHeader(header);
    for (const auto &w : g.options().workloads) {
        std::vector<std::string> row = {w};
        for (const std::string &s : mapping::paperMappers())
            row.push_back(TextTable::num(g.at(w, s).*field, 2));
        t.addRow(row);
    }
    t.addRule();
    std::vector<std::string> avg = {"AVG"};
    for (const std::string &s : mapping::paperMappers())
        avg.push_back(TextTable::num(
            g.mean(s, [field](const RunResult &r) { return r.*field; }),
            2));
    t.addRow(avg);
    std::printf("%s\n%s\n", title, t.toString().c_str());
}

} // namespace

int
main()
{
    bench::printHeader("Figure 14", "memory-level parallelism");
    const harness::Grid g = bench::valleyGrid();
    printMetric(g, "(a) LLC-level parallelism [busy slices | >=1]",
                &RunResult::llcParallelism);
    printMetric(g, "(b) channel-level parallelism [busy channels | >=1]",
                &RunResult::channelParallelism);
    printMetric(g, "(c) bank-level parallelism [busy banks per busy channel]",
                &RunResult::bankParallelism);
    std::printf(
        "Paper shape: under BASE, MT/LU serialize on one LLC slice "
        "(parallelism ~1);\nPAE/FAE/ALL raise parallelism at every "
        "level, with the multiplier effect of\nchannel x bank "
        "parallelism.\n");
    return 0;
}
