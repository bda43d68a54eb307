/**
 * @file
 * Fig. 10 — MT's entropy distribution under the six address mapping
 * schemes plus SBIM (this repo's searched BIM): PAE and FAE must
 * remove the valley in the channel/bank bits; ALL removes all
 * valleys; SBIM should match the Broad schemes on its target bits.
 *
 * Profiles are memoized in the profile cache, keyed by scheme name
 * plus BIM seed (a miss profiles MT's trace planes under the scheme's
 * matrix; SBIM keys on the searched matrix's hash).
 */

#include "bench_util.hh"
#include "harness/profile_cache.hh"
#include "search/searched_bim.hh"

using namespace valley;

int
main()
{
    // VALLEY_WORKLOADS (first entry) swaps the profiled workload —
    // synth specs included — so Fig. 10's scheme comparison runs on
    // any scenario, not only MT.
    const std::string which =
        bench::envWorkloads({"MT"}).front();
    bench::printHeader(
        "Figure 10",
        which + " entropy distribution per address mapping scheme");
    const double scale = bench::envScale();
    const auto wl = workloads::make(which, scale);
    const AddressLayout layout = AddressLayout::hynixGddr5();

    TextTable summary;
    summary.setHeader({"scheme", "mean H* ch bits (8-9)",
                       "mean H* bank bits (10-13)",
                       "min H* ch/bank"});

    const std::uint64_t bim_seed = 1;
    std::vector<std::string> mappers = mapping::paperMappers();
    mappers.push_back(mapping::kSbim); // this repo's searched mapping
    for (const std::string &s : mappers) {
        const std::string name = mapping::displayName(s);
        EntropyProfile p;
        if (s == mapping::kSbim) {
            // The searched mapping depends on the workload's own
            // profile, so it comes from the search front-end, whose
            // result carries the profile of the searched matrix
            // (computed from the already-extracted bit planes and
            // stored in the profile cache under the matrix hash).
            search::SearchOptions so = search::defaultOptions(layout);
            so.seed = bim_seed;
            p = search::searchSet(workloads::WorkloadSet({which}),
                                  layout, so, scale)
                    .searchedProfiles[0];
        } else {
            const auto mapper =
                mapping::makeMapper(s, layout, bim_seed);
            workloads::ProfileOptions po;
            po.mapper = s == mapping::kBase ? nullptr : mapper.get();
            p = harness::profileWorkloadCached(
                *wl, po, scale,
                s == mapping::kBase
                    ? ""
                    : name + "-" + std::to_string(bim_seed));
        }

        std::printf("--- %s\n%s", name.c_str(),
                    p.chart(29, 6).c_str());
        std::printf("  H*:");
        for (int b = 29; b >= 6; --b)
            std::printf("%5.2f", p.perBit[b]);
        std::printf("\n\n");

        summary.addRow(
            {name, TextTable::num(p.meanOver({8, 9}), 3),
             TextTable::num(p.meanOver({10, 11, 12, 13}), 3),
             TextTable::num(p.minOver({8, 9, 10, 11, 12, 13}), 3)});
    }
    std::printf("%s\n", summary.toString().c_str());
    std::printf("Paper: BASE has a clear valley at channel bits 8-9 "
                "and bank bit 10; PM and RMP\ncannot remove it; PAE "
                "and FAE remove it; ALL removes all valleys.\n");
    return 0;
}
