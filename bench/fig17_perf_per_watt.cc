/**
 * @file
 * Fig. 17 — normalized performance per Watt considering total system
 * (GPU + DRAM) power.
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader(
        "Figure 17",
        "performance per Watt, total system power (valley set)");
    const harness::Grid g = bench::valleyGrid();

    TextTable t;
    std::vector<std::string> header = {"bench"};
    for (const std::string &s : mapping::paperMappers())
        header.push_back(mapping::displayName(s));
    t.setHeader(header);
    for (const auto &w : g.options().workloads) {
        std::vector<std::string> row = {w};
        for (const std::string &s : mapping::paperMappers())
            row.push_back(TextTable::num(g.perfPerWattNorm(w, s), 2));
        t.addRow(row);
    }
    t.addRule();
    std::vector<std::string> hm = {"HMEAN"};
    for (const std::string &s : mapping::paperMappers())
        hm.push_back(TextTable::num(g.hmeanPerfPerWattNorm(s), 2));
    t.addRow(hm);
    std::printf("%s\n", t.toString().c_str());

    TextTable sys;
    sys.setHeader({"scheme", "norm. system power"});
    for (const std::string &s : mapping::paperMappers())
        sys.addRow({mapping::displayName(s),
                    TextTable::num(g.meanSystemPowerNorm(s), 3)});
    std::printf("%s\n", sys.toString().c_str());

    std::printf("Paper: system power increases by 9%%/15%%/18%% under "
                "PAE/FAE/ALL; perf/Watt\nimproves 1.39x/1.36x/1.31x — "
                "PAE is the most power-efficient scheme\n(1.25x over "
                "state-of-the-art PM).\n");
    return 0;
}
