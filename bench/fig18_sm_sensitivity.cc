/**
 * @file
 * Fig. 18 — sensitivity to the number of SMs (12/24/48, conventional
 * GDDR5) and to 3D-stacked memory (64 SMs, 4 stacks x 16 vaults).
 *
 * Runs at VALLEY_SCALE (default 0.5 here: 4 machine configurations x
 * 10 workloads x 6 schemes).
 */

#include "bench_util.hh"

using namespace valley;

int
main()
{
    bench::printHeader(
        "Figure 18",
        "speedup sensitivity: SM count and 3D-stacked memory");
    const double scale = bench::envScale(0.5);

    std::vector<SimConfig> configs = {
        SimConfig::withSms(12), SimConfig::withSms(24),
        SimConfig::withSms(48), SimConfig::stacked3d()};

    TextTable t;
    std::vector<std::string> header = {"configuration"};
    for (const std::string &s : mapping::paperMappers())
        header.push_back(mapping::displayName(s));
    t.setHeader(header);

    for (const SimConfig &cfg : configs) {
        harness::GridOptions o;
        o.config = cfg;
        o.workloads = workloads::valleySet();
        o.scale = scale;
        o.useCache = true;
        o.progress = true;
        const harness::Grid g = harness::runGrid(std::move(o));
        std::vector<std::string> row = {cfg.name};
        for (const std::string &s : mapping::paperMappers())
            row.push_back(TextTable::num(g.hmeanSpeedup(s), 2));
        t.addRow(row);
    }
    std::printf("%s\n", t.toString().c_str());
    std::printf(
        "Paper shape: PAE/FAE/ALL consistently improve performance "
        "across SM counts\n(somewhat lower at 48 SMs due to memory "
        "saturation) and on 3D-stacked memory;\nRMP performs close to "
        "BASE on the 3D configuration. (VALLEY_SCALE=%.2f)\n",
        scale);
    return 0;
}
