/**
 * @file
 * Joint smoke — a tiny-scale end-to-end pass over the workload-set
 * ("global BIM") machinery, run by CI next to `synth_smoke`:
 *
 *  1. a 3-member synth set runs through the full harness grid under
 *     {BASE, SBIM, GBIM} — i.e. set canonicalization → per-cell
 *     simulation where SBIM searches per workload and GBIM anneals
 *     ONE matrix jointly against the whole set (shared via the
 *     searched-BIM cache across cells);
 *  2. the joint matrix's entropy on the target bits is compared per
 *     member against BASE and against that member's own SBIM — the
 *     specialization price of serving the whole set with one BIM;
 *  3. everything lands in BENCH_joint.json.
 *
 * Exit status is non-zero unless the joint BIM strictly beats the
 * identity mapping's mean target entropy across the set — the
 * acceptance bar for the workload-set refactor of the mapping
 * service.
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "search/searched_bim.hh"
#include "workloads/workload_set.hh"

using namespace valley;

int
main()
{
    bench::printHeader("Joint smoke",
                       "one global BIM x {BASE, SBIM, GBIM} grid");

    const std::vector<std::string> members = bench::envWorkloads({
        "synth:strided",
        "synth:stencil3d",
        "synth:hash_shuffle,fmb=64,tbs=32",
    });
    const double scale = bench::envScale(0.25);
    const workloads::WorkloadSet set(members);

    harness::GridOptions o;
    // Grid rows use the canonical member names: the grid is indexed
    // by whatever strings it is given, and a VALLEY_WORKLOADS
    // spelling with reordered spec params would otherwise not be
    // findable under set.members() below.
    o.workloads = set.members();
    o.mappers = {mapping::kBase, mapping::kSbim, mapping::kGbim};
    o.scale = scale;
    o.useCache = true;
    o.progress = true;
    const harness::Grid g = harness::runGrid(std::move(o));

    const AddressLayout layout = AddressLayout::hynixGddr5();
    const std::vector<unsigned> targets = layout.randomizeTargets();

    // The joint search itself (hits the searched-BIM cache the grid
    // just warmed) for the entropy view of the one shared matrix.
    search::SearchOptions so = search::defaultOptions(layout);
    so.threads = 1;
    const search::SetSearchResult joint =
        search::searchSet(set, layout, so, scale);

    bench::JsonEmitter json("BENCH_joint.json");
    json.field("set_id", set.shortId());
    json.field("members", static_cast<std::uint64_t>(set.size()));
    json.field("scale", scale);
    json.field("combine",
               search::combinerName(so.combiner));
    json.field("joint_cost", joint.annealed.cost);
    json.field("joint_identity_cost", joint.annealed.identityCost);
    json.field("joint_gain", joint.annealed.gain());
    json.field("joint_xor_gates",
               joint.annealed.bim.xorGateCount());

    TextTable t;
    t.setHeader({"member", "speedup SBIM", "speedup GBIM",
                 "H* BASE", "H* SBIM", "H* GBIM"});

    double id_mean = 0.0, joint_mean = 0.0;
    bool all_members_non_regressing = true;
    for (std::size_t m = 0; m < set.size(); ++m) {
        const std::string &w = set.members()[m];
        // The member's own specialized mapping, for the
        // one-BIM-for-all vs one-BIM-each comparison (served from the
        // caches the SBIM grid column already filled).
        const search::SetSearchResult own = search::searchSet(
            workloads::WorkloadSet({w}), layout, so, scale);

        const double base_h = joint.identityProfiles[m].meanOver(targets);
        const double joint_h =
            joint.searchedProfiles[m].meanOver(targets);
        const double own_h = own.searchedProfiles[0].meanOver(targets);
        id_mean += base_h;
        joint_mean += joint_h;
        // Tolerance: an already-flat member (H* ~ 1.0) may measure a
        // few 1e-5 lower under the joint matrix; that is measurement
        // granularity, not a regression.
        all_members_non_regressing =
            all_members_non_regressing && joint_h >= base_h - 1e-4;

        t.addRow({w, TextTable::num(g.speedup(w, mapping::kSbim), 3),
                  TextTable::num(g.speedup(w, mapping::kGbim), 3),
                  TextTable::num(base_h, 3), TextTable::num(own_h, 3),
                  TextTable::num(joint_h, 3)});

        const std::string key = "member" + std::to_string(m);
        json.field(key, w);
        json.field(key + "_speedup_sbim",
                   g.speedup(w, mapping::kSbim));
        json.field(key + "_speedup_gbim",
                   g.speedup(w, mapping::kGbim));
        json.field(key + "_base_target_entropy", base_h);
        json.field(key + "_sbim_target_entropy", own_h);
        json.field(key + "_gbim_target_entropy", joint_h);
    }
    id_mean /= static_cast<double>(set.size());
    joint_mean /= static_cast<double>(set.size());

    const bool joint_beats_identity = joint_mean > id_mean;
    json.field("mean_base_target_entropy", id_mean);
    json.field("mean_gbim_target_entropy", joint_mean);
    json.field("joint_beats_identity", joint_beats_identity);
    json.field("all_members_non_regressing",
               all_members_non_regressing);
    json.field("hmean_speedup_sbim", g.hmeanSpeedup(mapping::kSbim));
    json.field("hmean_speedup_gbim", g.hmeanSpeedup(mapping::kGbim));

    std::printf("%s\n", t.toString().c_str());
    std::printf("one joint BIM, mean H* targets: %.3f -> %.3f "
                "(beats identity: %s; no member regresses: %s)\n",
                id_mean, joint_mean,
                joint_beats_identity ? "yes" : "NO",
                all_members_non_regressing ? "yes" : "NO");
    return joint_beats_identity ? 0 : 1;
}
