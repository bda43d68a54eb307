/**
 * @file
 * Fig. 13 — (a) average NoC packet latency and (b) LLC miss rate,
 * per benchmark and scheme.
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Figure 13",
                       "NoC packet latency and LLC miss rate");
    const harness::Grid g = bench::valleyGrid();

    TextTable lat;
    TextTable miss;
    std::vector<std::string> header = {"bench"};
    for (const std::string &s : mapping::paperMappers())
        header.push_back(mapping::displayName(s));
    lat.setHeader(header);
    miss.setHeader(header);

    for (const auto &w : g.options().workloads) {
        std::vector<std::string> lrow = {w}, mrow = {w};
        for (const std::string &s : mapping::paperMappers()) {
            lrow.push_back(
                TextTable::num(g.at(w, s).nocLatencySmCycles, 0));
            mrow.push_back(
                TextTable::num(g.at(w, s).llcMissRate * 100, 1) + "%");
        }
        lat.addRow(lrow);
        miss.addRow(mrow);
    }
    lat.addRule();
    miss.addRule();
    std::vector<std::string> lavg = {"AVG"}, mavg = {"AVG"};
    for (const std::string &s : mapping::paperMappers()) {
        lavg.push_back(TextTable::num(
            g.mean(s, [](const RunResult &r) {
                return r.nocLatencySmCycles;
            }),
            0));
        mavg.push_back(
            TextTable::num(g.mean(s,
                                  [](const RunResult &r) {
                                      return r.llcMissRate;
                                  }) *
                               100,
                           1) +
            "%");
    }
    lat.addRow(lavg);
    miss.addRow(mavg);

    std::printf("(a) avg NoC packet latency [SM cycles]\n%s\n",
                lat.toString().c_str());
    std::printf("(b) LLC miss rate\n%s\n", miss.toString().c_str());
    std::printf("Paper shape: PAE/FAE/ALL dramatically reduce NoC "
                "latency (BASE up to ~200+\ncycles) and substantially "
                "reduce the LLC miss rate by spreading requests "
                "over\nall slices.\n");
    return 0;
}
