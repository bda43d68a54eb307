/**
 * @file
 * Fig. 16 — DRAM power breakdown into background / activate / read /
 * write components per benchmark and scheme.
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Figure 16", "DRAM power breakdown [W]");
    const harness::Grid g = bench::valleyGrid();

    TextTable t;
    t.setHeader({"bench", "scheme", "background", "activate", "read",
                 "write", "total"});
    for (const auto &w : g.options().workloads) {
        for (const std::string &s : mapping::paperMappers()) {
            const DramPowerBreakdown &p = g.at(w, s).dramPower;
            t.addRow({w, mapping::displayName(s),
                      TextTable::num(p.backgroundW, 1),
                      TextTable::num(p.activateW, 1),
                      TextTable::num(p.readW, 1),
                      TextTable::num(p.writeW, 1),
                      TextTable::num(p.totalW(), 1)});
        }
        t.addRule();
    }
    for (const std::string &s : mapping::paperMappers()) {
        const auto mean = [&](double (DramPowerBreakdown::*f)) {
            return g.mean(s, [f](const RunResult &r) {
                return r.dramPower.*f;
            });
        };
        t.addRow({"AVG", mapping::displayName(s),
                  TextTable::num(mean(&DramPowerBreakdown::backgroundW), 1),
                  TextTable::num(mean(&DramPowerBreakdown::activateW), 1),
                  TextTable::num(mean(&DramPowerBreakdown::readW), 1),
                  TextTable::num(mean(&DramPowerBreakdown::writeW), 1),
                  TextTable::num(g.mean(s,
                                        [](const RunResult &r) {
                                            return r.dramPower.totalW();
                                        }),
                                 1)});
    }
    std::printf("%s\n", t.toString().c_str());
    std::printf("Paper shape: address mapping primarily affects the "
                "activate component; FAE and\nALL increase activate "
                "power substantially (+35%%/+45%% total DRAM power), "
                "PAE only\nmarginally (+3%%).\n");
    return 0;
}
