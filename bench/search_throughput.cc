/**
 * @file
 * Search-throughput bench: owns `BENCH_search.json`.
 *
 * Measures `BimSearch` candidate-evaluation throughput on a fixed
 * synth joint set at a small and a large scale.
 *
 * Three full anneal legs (identical trajectories asserted):
 *
 *  - **scalar oracle**: `PlaneOptions::forceScalar` planes, per-move
 *    from-scratch scoring (`SearchOptions::planeCache = false`);
 *  - **simd oracle**: dispatched SIMD kernels, from-scratch scoring;
 *  - **cached** (headline `evaluations_per_second`): SIMD kernels
 *    plus the incremental plane cache and each chain's mask memo
 *    (`memo_hits` counts the evaluations the memo answered).
 *
 * `speedup_vs_baseline` is cached over scalar oracle: both run the
 * same trajectory in the same process, so the ratio measures the
 * SIMD kernels plus the plane cache and nothing else.
 *
 * The joint-vs-independent comparison that used to live in
 * perf_snapshot is carried over with its `joint_*` fields, including
 * the `joint_deterministic` re-run check CI asserts on. Exit code is
 * non-zero on any identity failure.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/bitops.hh"
#include "common/metrics.hh"
#include "search/searched_bim.hh"
#include "workloads/workload_set.hh"

using namespace valley;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- anneal legs ----------------------------------------------------------

/** One scoring configuration's annealed run. */
struct Leg
{
    search::SearchResult result;
    double seconds = 0.0;

    double
    evalsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(
                                   result.stats.evaluations) /
                                   seconds
                             : 0.0;
    }
};

/** Non-owning member pointers for the search constructor. */
std::vector<const workloads::TracePlanes *>
ptrsOf(const std::vector<workloads::TracePlanes> &planes)
{
    std::vector<const workloads::TracePlanes *> out;
    out.reserve(planes.size());
    for (const workloads::TracePlanes &p : planes)
        out.push_back(&p);
    return out;
}

/** Results that must be bit-identical across scoring configs. */
bool
sameResult(const search::SearchResult &a, const search::SearchResult &b)
{
    return a.bim == b.bim && a.cost == b.cost &&
           a.stats.evaluations == b.stats.evaluations &&
           a.targetEntropy == b.targetEntropy;
}

Leg
runLeg(const AddressLayout &layout,
       const std::vector<workloads::TracePlanes> &planes,
       const search::SearchOptions &so)
{
    const search::BimSearch s(layout, ptrsOf(planes), so);
    Leg leg;
    const auto start = Clock::now();
    leg.result = s.anneal();
    leg.seconds = secondsSince(start);
    return leg;
}

} // namespace

int
main()
{
    bench::printHeader("Search throughput",
                       "incremental plane cache + SIMD dispatch + "
                       "arena planes");

    const AddressLayout layout = AddressLayout::hynixGddr5();
    const workloads::WorkloadSet jset(
        {"synth:strided", "synth:stencil3d"});
    std::printf("simd level: %s (dispatched)\n\n",
                bits::simdOps().name);

    bench::JsonEmitter json("BENCH_search.json");
    json.field("set_members", static_cast<std::uint64_t>(jset.size()));
    json.field("set_id", jset.shortId());
    json.field("simd_level", bits::simdOps().name);

    bool ok = true;

    // ---- evals/sec at small and large scale -------------------------------
    const double small_scale = 0.25;
    const double large_scale = bench::envScale(1.0);
    json.field("scale", small_scale);
    json.field("large_scale", large_scale);

    double small_evals_per_sec = 0.0;
    for (const double scale : {small_scale, large_scale}) {
        const bool small = scale == small_scale;
        const char *tag = small ? "" : "large_";

        const auto wls = jset.build(scale);
        workloads::PlaneOptions scalar_po{layout.addrBits, 1, true};
        workloads::PlaneOptions simd_po{layout.addrBits, 1, false};
        std::vector<workloads::TracePlanes> scalar_planes;
        std::vector<workloads::TracePlanes> simd_planes;
        for (const auto &w : wls) {
            scalar_planes.emplace_back(*w, scalar_po);
            simd_planes.emplace_back(*w, simd_po);
        }
        std::uint64_t plane_bytes = 0;
        for (const workloads::TracePlanes &p : simd_planes)
            plane_bytes += p.planeBytes();

        search::SearchOptions so = search::defaultOptions(layout);
        so.threads = 1;
        so.restarts = 2;
        so.iterations = 600;

        search::SearchOptions oracle_so = so;
        oracle_so.planeCache = false;

        const Leg scalar_leg =
            runLeg(layout, scalar_planes, oracle_so);
        const Leg simd_leg = runLeg(layout, simd_planes, oracle_so);
        const Leg cached = runLeg(layout, simd_planes, so);

        const bool simd_identical =
            sameResult(scalar_leg.result, simd_leg.result);
        const bool cached_identical =
            sameResult(scalar_leg.result, cached.result);
        ok = ok && simd_identical && cached_identical;

        const double speedup =
            scalar_leg.evalsPerSec() > 0.0
                ? cached.evalsPerSec() / scalar_leg.evalsPerSec()
                : 0.0;
        if (small)
            small_evals_per_sec = cached.evalsPerSec();

        json.field(std::string(tag) + "plane_bytes", plane_bytes);
        json.field(std::string(tag) +
                       "scalar_oracle_evaluations_per_second",
                   scalar_leg.evalsPerSec());
        json.field(std::string(tag) +
                       "simd_oracle_evaluations_per_second",
                   simd_leg.evalsPerSec());
        json.field(std::string(tag) + "evaluations_per_second",
                   cached.evalsPerSec());
        json.field(std::string(tag) + "speedup_vs_baseline", speedup);
        json.field(std::string(tag) + "simd_identical",
                   simd_identical);
        json.field(std::string(tag) + "cached_identical",
                   cached_identical);
        json.field(std::string(tag) + "plane_toggles",
                   cached.result.stats.planeToggles);
        json.field(std::string(tag) + "plane_xors",
                   cached.result.stats.planeXors);
        json.field(std::string(tag) + "plane_rebuilds",
                   cached.result.stats.planeRebuilds);
        json.field(std::string(tag) + "memo_hits",
                   cached.result.stats.memoHits);

        std::printf(
            "scale %.2f (%.1f MiB planes): scalar-oracle %.0f evals/s, "
            "simd-oracle %.0f, cached %.0f (%.1fx vs scalar oracle), "
            "identical=%s\n",
            scale,
            static_cast<double>(plane_bytes) / (1024.0 * 1024.0),
            scalar_leg.evalsPerSec(), simd_leg.evalsPerSec(),
            cached.evalsPerSec(), speedup,
            simd_identical && cached_identical ? "yes" : "NO");
    }

    // ---- joint search vs N independent searches ---------------------------
    bool joint_ok = true;
    {
        // The workload-set question: serving an N-member set used to
        // mean N independent annealing runs (one matrix each); the
        // joint search anneals ONE matrix against all members over
        // their shared trace planes. Record both wall clocks plus the
        // joint run's per-phase breakdown so the plane-sharing win
        // lands in the perf trajectory.
        const double jscale = 0.25;
        search::SearchOptions so = search::defaultOptions(layout);
        so.threads = 1;
        so.restarts = 2;
        so.iterations = 600;

        const auto wls = jset.build(jscale);
        std::vector<workloads::TracePlanes> planes;
        planes.reserve(wls.size());
        for (const auto &w : wls)
            planes.emplace_back(
                *w, workloads::PlaneOptions{layout.addrBits, 1});

        auto start = Clock::now();
        double independent_cost = 0.0;
        for (const workloads::TracePlanes &p : planes) {
            const search::BimSearch s(layout, {&p}, so);
            independent_cost += s.anneal().cost;
        }
        const double independent_sec = secondsSince(start);

        const search::BimSearch js(layout, ptrsOf(planes), so);
        start = Clock::now();
        const search::SearchResult jr = js.anneal();
        const double joint_sec = secondsSince(start);
        // Same seed, same planes: a second joint run must reproduce
        // the exact matrix (the determinism contract of BimSearch).
        joint_ok = js.anneal().bim == jr.bim;
        ok = ok && joint_ok;

        json.field("independent_seconds", independent_sec);
        json.field("independent_cost_sum", independent_cost);
        json.field("joint_seconds", joint_sec);
        json.field("joint_cost", jr.cost);
        json.field("joint_gain", jr.gain());
        json.field("independent_over_joint_seconds",
                   joint_sec > 0.0 ? independent_sec / joint_sec
                                   : 0.0);
        json.field("joint_evaluations", jr.stats.evaluations);
        json.field("joint_setup_seconds", jr.stats.setupSeconds);
        json.field("joint_anneal_seconds", jr.stats.annealSeconds);
        json.field("joint_polish_seconds", jr.stats.polishSeconds);
        json.field("joint_setup_evaluations",
                   jr.stats.setupEvaluations);
        json.field("joint_anneal_evaluations",
                   jr.stats.annealEvaluations);
        json.field("joint_polish_evaluations",
                   jr.stats.polishEvaluations);
        json.field("joint_deterministic", joint_ok);
        std::printf("joint search (%zu members): independent %.3fs, "
                    "joint %.3fs (%.2fx), deterministic=%s\n",
                    jset.size(), independent_sec, joint_sec,
                    joint_sec > 0.0 ? independent_sec / joint_sec
                                    : 0.0,
                    joint_ok ? "yes" : "NO");
    }

    // Registry attribution: search.evals_per_sec / search.plane_*
    // counters and the search.plane_bytes gauge (zero here — every
    // TracePlanes above has been destroyed, so a leak shows up as a
    // nonzero residue).
    json.rawField("metrics", metrics::snapshotJson(1));

    std::printf("\nheadline: %.0f evaluations/sec (small scale, "
                "cached+%s)\n",
                small_evals_per_sec, bits::simdOps().name);
    return ok ? 0 : 1;
}
