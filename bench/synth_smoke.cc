/**
 * @file
 * Synth smoke — a tiny-scale end-to-end pass over the synthetic
 * scenario subsystem, run by CI next to `perf_snapshot`:
 *
 *  1. three synth specs (two valley shapes, one near-flat) run
 *     through the full harness grid under BASE and SBIM — i.e.
 *     spec parse → trace generation → profile → BIM search →
 *     simulation → normalized metrics;
 *  2. the searched mapping's entropy on its target bits is compared
 *     against BASE for each spec;
 *  3. everything lands in BENCH_synth.json.
 *
 * Exit status is non-zero unless every search at least matches the
 * identity mapping and at least one synth workload strictly beats
 * BASE mapping entropy — the acceptance bar for the scenario
 * generator feeding the mapping service.
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "search/searched_bim.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Synth smoke",
                       "scenario generator x {BASE, SBIM} grid");

    const std::vector<std::string> specs = bench::envWorkloads({
        "synth:strided",
        "synth:stencil3d",
        "synth:hash_shuffle,fmb=64,tbs=32",
    });
    const double scale = bench::envScale(0.25);

    harness::GridOptions o;
    o.workloads = specs;
    o.mappers = {mapping::kBase, mapping::kSbim};
    o.scale = scale;
    o.useCache = true;
    o.progress = true;
    const harness::Grid g = harness::runGrid(std::move(o));

    const AddressLayout layout = AddressLayout::hynixGddr5();
    const std::vector<unsigned> targets = layout.randomizeTargets();

    bench::JsonEmitter json("BENCH_synth.json");
    json.field("scale", scale);
    json.field("specs", static_cast<std::uint64_t>(specs.size()));

    TextTable t;
    t.setHeader({"spec", "dims", "speedup", "H* targets BASE",
                 "H* targets SBIM", "search gain"});

    bool all_non_regressing = true;
    bool any_strict_gain = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string &spec = specs[i];
        const auto wl = workloads::make(spec, scale);

        search::SearchOptions so =
            search::defaultOptions(layout);
        so.threads = 1;
        const search::SetSearchResult r = search::searchSet(
            workloads::WorkloadSet({wl->info().abbrev}), layout, so,
            scale);

        const double base_h = r.identityProfiles[0].meanOver(targets);
        const double sbim_h = r.searchedProfiles[0].meanOver(targets);
        const double speedup = g.speedup(spec, mapping::kSbim);
        const double gain = r.annealed.gain();

        all_non_regressing = all_non_regressing && gain >= 0.0;
        any_strict_gain = any_strict_gain || (gain > 1e-9 &&
                                              sbim_h > base_h);

        t.addRow({spec, wl->info().dims, TextTable::num(speedup, 3),
                  TextTable::num(base_h, 3), TextTable::num(sbim_h, 3),
                  TextTable::num(gain, 4)});

        const std::string key = "spec" + std::to_string(i);
        json.field(key, spec);
        json.field(key + "_speedup", speedup);
        json.field(key + "_base_target_entropy", base_h);
        json.field(key + "_sbim_target_entropy", sbim_h);
        json.field(key + "_search_gain", gain);
    }
    json.field("all_non_regressing", all_non_regressing);
    json.field("any_strict_gain", any_strict_gain);

    std::printf("%s\n", t.toString().c_str());
    std::printf("search never regresses vs identity: %s; at least one "
                "spec strictly improves: %s\n",
                all_non_regressing ? "yes" : "NO",
                any_strict_gain ? "yes" : "NO");
    return all_non_regressing && any_strict_gain ? 0 : 1;
}
