/**
 * @file
 * `valley_search` — the long-running "mapping service" front-end of
 * the profile-driven BIM search (ROADMAP item; paper Section IV-B as
 * an online tool).
 *
 * Two modes share one pipeline:
 *
 *  - `--workload A`: per-workload search (the SBIM of Figs. 10/12) —
 *    anneal one invertible BIM against a single workload's entropy
 *    valley;
 *  - `--set a,b,c`: joint ("global") search — anneal ONE invertible
 *    BIM against every member of a workload set at once, the
 *    profile-driven counterpart of the paper's global RMP. Members
 *    mix Table II abbreviations and `synth:` specs; the set identity
 *    is order-insensitive, so every spelling of the list searches
 *    the same set.
 *
 * It opens no cache: every run searches, so the JSON's search
 * statistics always describe the run that wrote it.
 *
 * Emits the result as JSON: the matrix rows, the cost breakdown
 * against the identity and greedy baselines (per member for sets),
 * and the compiled 8x256 lookup table in exactly the form the
 * simulator's `CompiledTransform` fast path consumes.
 *
 * The --help text below is pinned by README.md's usage block; CI
 * fails if the two drift (`tools/check_help_drift.sh`).
 */

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bim/compiled_transform.hh"
#include "cli_args.hh"
#include "common/bitops.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "common/trace_span.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "synth/registry.hh"
#include "workloads/workload.hh"
#include "workloads/workload_set.hh"

using namespace valley;
using namespace valley::cli;

void
cli::usageError(const std::string &msg)
{
    std::fprintf(stderr, "valley_search: %s\n(try --help)\n",
                 msg.c_str());
    std::exit(1);
}

namespace {

const char *kHelp =
    R"(valley_search — profile-driven BIM search (the "mapping service")

Searches for an invertible bit-matrix (BIM) address mapping that
flattens a workload's entropy valley: simulated annealing plus a
greedy baseline over the workload's bit-plane trace profile, scored
by the entropy-flatness objective (paper Section IV-B). With --set,
one BIM is annealed jointly against every member of a workload set
(the "global" searched mapping, GBIM).

Usage: valley_search --workload ABBREV [options]
       valley_search --set A,B,C [options]

Options:
  --workload A    Table II benchmark abbreviation (MT, LU, GS, NW,
                  LPS, SC, SRAD2, DWT2D, HS, SP, FWT, NN, SPMV, LM,
                  MUM, BFS) or a synth:FAMILY[,key=value...] scenario
                  spec (see valley_gen --list); required unless
                  --set or --list is given
  --set A,B,C     joint search over a workload set: comma-separated
                  members, each a Table II abbreviation or synth:
                  spec (spec key=value parameters attach to the
                  preceding synth: member). Order-insensitive;
                  the search minimizes the members' mean cost.
  --list          print the known workloads and synth families, exit
  --list-mappers  print the registered map: mapper families with
                  their parameters, exit
  --list-layouts  print the registered layout: presets, exit
  --scale S       problem-size scale in (0, 1]; default 0.25
  --layout L      DRAM layout preset: a key or layout: spec from
                  --list-layouts (e.g. layout:hbm2_4gb); default
                  gddr5_1gb
  --seed N        search seed (the "BIM-N" of Fig. 19); default 1
  --restarts N    annealing restarts; default 4
  --iters N       moves per restart; default 1200
  --window W      TB window w (#SMs, Section III-A); default 12
  --threads N     worker threads (0 = all cores, 1 = serial);
                  default 0; results are identical at any count
  --out FILE      write the searched BIM as JSON (matrix rows, cost
                  breakdown, per-member entropy for sets, and the
                  compiled 8x256 LUT)
  --trace FILE    record Chrome trace-event spans (the search
                  phases) and write them to FILE — loadable in
                  Perfetto / chrome://tracing (VALLEY_TRACE=FILE
                  does the same)
  --metrics FILE  write the metrics-registry snapshot (counters,
                  per-phase evals/seconds, latency histograms) to
                  FILE as stable, diffable JSON
  --help          print this help and exit

Environment:
  VALLEY_TRACE=FILE    same as --trace FILE
  VALLEY_NO_SIMD=1     pin the scalar kernels (bit-identical; for
                       benchmarking and SIMD triage)

Exit status: 0 if the searched BIM strictly beats the identity
mapping's entropy-flatness objective (and, for --set, does not
regress mean target entropy across members), 2 otherwise, 1 on
usage errors.
)";

struct CliOptions
{
    std::string workload;
    std::string set;
    std::string out;
    std::string tracePath;
    std::string metricsPath;
    double scale = 0.25;
    std::string layout = "gddr5_1gb";
    bool list = false;
    bool listMappers = false;
    bool listLayouts = false;
    search::SearchOptions search;
};

/** --list-mappers: every mapper family with its schema. */
void
listMappers()
{
    for (const mapping::MapperFamily &f : mapping::mapperFamilies()) {
        std::printf("map:%-6s %s%s\n", f.name.c_str(), f.summary.c_str(),
                    f.needsProfiles
                        ? " [profile-driven: built by the search]"
                        : "");
        for (const auto &p : f.params)
            std::printf("    %s=%s  %s\n", p.key.c_str(),
                        p.def.empty() ? "<required>" : p.def.c_str(),
                        p.help.c_str());
    }
}

/** --list-layouts: every DRAM organization preset. */
void
listLayouts()
{
    for (const mapping::DramOrganization &org : mapping::layoutPresets())
        std::printf("layout:%-14s %s — %s\n", org.key.c_str(),
                    org.displayName.c_str(), org.summary.c_str());
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions o;
    const auto need = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            std::fputs(kHelp, stdout);
            std::exit(0);
        } else if (a == "--list") {
            o.list = true;
        } else if (a == "--list-mappers") {
            o.listMappers = true;
        } else if (a == "--list-layouts") {
            o.listLayouts = true;
        } else if (a == "--workload") {
            o.workload = need(i, "--workload");
        } else if (a == "--set") {
            o.set = need(i, "--set");
        } else if (a == "--scale") {
            o.scale = realArg("--scale", need(i, "--scale"));
            if (o.scale <= 0.0 || o.scale > 1.0)
                usageError("--scale must be in (0, 1]");
        } else if (a == "--layout") {
            o.layout = need(i, "--layout");
        } else if (a == "--seed") {
            o.search.seed =
                intArg("--seed", need(i, "--seed"), UINT64_MAX);
        } else if (a == "--restarts") {
            o.search.restarts = static_cast<unsigned>(
                intArg("--restarts", need(i, "--restarts"),
                       search::kMaxRestarts));
            if (o.search.restarts == 0)
                usageError("--restarts must be >= 1");
        } else if (a == "--iters") {
            o.search.iterations = static_cast<unsigned>(
                intArg("--iters", need(i, "--iters"),
                       search::kMaxIterations));
        } else if (a == "--window") {
            o.search.window = static_cast<unsigned>(
                intArg("--window", need(i, "--window")));
            if (o.search.window == 0)
                usageError("--window must be >= 1");
        } else if (a == "--threads") {
            o.search.threads = static_cast<unsigned>(
                intArg("--threads", need(i, "--threads")));
        } else if (a == "--out") {
            o.out = need(i, "--out");
        } else if (a == "--trace") {
            o.tracePath = need(i, "--trace");
        } else if (a == "--metrics") {
            o.metricsPath = need(i, "--metrics");
        } else {
            usageError("unknown option " + a);
        }
    }
    return o;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
    return buf;
}

/** Common JSON tail: cost breakdown, matrix rows, compiled LUT. */
void
writeJsonTail(std::ofstream &out, const search::SetSearchResult &r)
{
    const BitMatrix &m = r.annealed.bim;
    const CompiledTransform compiled(m);

    out << "  \"identity_cost\": " << r.annealed.identityCost
        << ",\n";
    out << "  \"greedy_cost\": " << r.greedyBaseline.cost << ",\n";
    out << "  \"cost\": " << r.annealed.cost << ",\n";
    out << "  \"gain\": " << r.annealed.gain() << ",\n";
    out << "  \"target_entropy\": [";
    for (std::size_t i = 0; i < r.annealed.targetEntropy.size(); ++i)
        out << (i ? ", " : "") << r.annealed.targetEntropy[i];
    out << "],\n";
    out << "  \"xor_gates\": " << m.xorGateCount() << ",\n";
    out << "  \"xor_tree_depth\": " << m.xorTreeDepth() << ",\n";
    out << "  \"evaluations\": " << r.annealed.stats.evaluations
        << ",\n";

    // Matrix rows, output bit 0 first: bit c of rows[r] is M[r][c].
    out << "  \"rows\": [";
    for (unsigned row = 0; row < m.size(); ++row)
        out << (row ? ", " : "") << '"' << hex64(m.row(row)) << '"';
    out << "],\n";

    // The byte-sliced LUT: lut[s][v] is the XOR contribution of input
    // byte slice s holding value v — the exact tables
    // CompiledTransform::apply reads (8 loads + 7 XORs per address).
    out << "  \"lut\": [\n";
    const auto &tables = compiled.tables();
    for (std::size_t s = 0; s < tables.size(); ++s) {
        out << "    [";
        for (std::size_t v = 0; v < tables[s].size(); ++v)
            out << (v ? ", " : "") << '"' << hex64(tables[s][v])
                << '"';
        out << (s + 1 < tables.size() ? "],\n" : "]\n");
    }
    out << "  ]\n}\n";
    out.flush();
}

/**
 * Emit the search result as JSON; false if the file could not be
 * written. Hand-rolled: the repo's `bench::JsonEmitter` is flat
 * key/value only, and the LUT and member arrays need nesting.
 */
bool
writeJson(const std::string &path, const CliOptions &o,
          const AddressLayout &layout,
          const workloads::WorkloadSet &set,
          const search::SearchOptions &so,
          const search::SetSearchResult &r)
{
    std::ofstream out(path);
    out.precision(17);
    out << "{\n";
    if (set.size() == 1) {
        out << "  \"workload\": \"" << set.members()[0] << "\",\n";
    } else {
        out << "  \"members\": [";
        for (std::size_t m = 0; m < set.size(); ++m)
            out << (m ? ", " : "") << '"' << set.members()[m] << '"';
        out << "],\n";
        out << "  \"set_id\": \"" << set.shortId() << "\",\n";
    }
    out << "  \"layout\": \"" << mapping::layoutIdentity(layout)
        << "\",\n";
    out << "  \"scale\": " << o.scale << ",\n";
    out << "  \"seed\": " << so.seed << ",\n";
    out << "  \"window\": " << so.window << ",\n";
    out << "  \"address_bits\": " << r.annealed.bim.size() << ",\n";

    out << "  \"targets\": [";
    for (std::size_t i = 0; i < so.targets.size(); ++i)
        out << (i ? ", " : "") << so.targets[i];
    out << "],\n";

    if (set.size() > 1) {
        out << "  \"member_costs\": [";
        for (std::size_t m = 0; m < r.annealed.memberCosts.size(); ++m)
            out << (m ? ", " : "") << r.annealed.memberCosts[m];
        out << "],\n";
        out << "  \"member_target_entropy\": [\n";
        for (std::size_t m = 0;
             m < r.annealed.memberTargetEntropy.size(); ++m) {
            out << "    [";
            const auto &ent = r.annealed.memberTargetEntropy[m];
            for (std::size_t i = 0; i < ent.size(); ++i)
                out << (i ? ", " : "") << ent[i];
            out << (m + 1 < r.annealed.memberTargetEntropy.size()
                        ? "],\n"
                        : "]\n");
        }
        out << "  ],\n";
    }

    writeJsonTail(out, r);
    return out.good();
}

void
printSearchStats(const search::SearchResult &r)
{
    std::printf("search: %" PRIu64 " row evaluations, %" PRIu64
                " accepted moves, %" PRIu64
                " singular rejections, best restart %u\n",
                r.stats.evaluations, r.stats.accepted,
                r.stats.rejectedSingular,
                r.bestRestart);
    std::printf("phases: setup %.3fs, anneal %.3fs, polish %.3fs "
                "(chain-seconds; wall %.3fs)\n",
                r.stats.setupSeconds, r.stats.annealSeconds,
                r.stats.polishSeconds, r.stats.totalSeconds);
    std::printf("phase evals: setup %" PRIu64 ", anneal %" PRIu64
                ", polish %" PRIu64 "\n",
                r.stats.setupEvaluations, r.stats.annealEvaluations,
                r.stats.polishEvaluations);
    const double secs = r.stats.totalSeconds;
    const std::uint64_t kernels =
        r.stats.kernelsRescored + r.stats.kernelsReused;
    // Walk evaluations and memo hits both count every member of each
    // scored proposal, so their ratio is the share of proposals.
    const std::uint64_t walk_evals =
        r.stats.annealEvaluations + r.stats.polishEvaluations;
    const auto percent = [](std::uint64_t part, std::uint64_t whole) {
        return whole > 0 ? 100.0 * static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0;
    };
    std::printf("throughput: %.0f evals/s (simd %s); plane cache: %"
                PRIu64 " toggles, %" PRIu64 " xors, %" PRIu64
                " rebuilds, %.1f%% of kernels reused, %.1f%% of "
                "proposals answered from the memo\n",
                secs > 0.0
                    ? static_cast<double>(r.stats.evaluations) / secs
                    : 0.0,
                bits::simdOps().name, r.stats.planeToggles,
                r.stats.planeXors, r.stats.planeRebuilds,
                percent(r.stats.kernelsReused, kernels),
                percent(r.stats.memoHits, walk_evals));
}

/** Mean of `p.meanOver(targets)` across member profiles. */
double
meanTargetEntropy(const std::vector<EntropyProfile> &profiles,
                  const std::vector<unsigned> &targets)
{
    double sum = 0.0;
    for (const EntropyProfile &p : profiles)
        sum += p.meanOver(targets);
    return profiles.empty() ? 0.0
                            : sum / static_cast<double>(profiles.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions o = parseArgs(argc, argv);
    if (o.list) {
        for (const std::string &w : workloads::allSet())
            std::printf("%s\n", w.c_str());
        for (const auto &f : synth::families())
            std::printf("synth:%s\n", f.name.c_str());
        return 0;
    }
    if (o.listMappers || o.listLayouts) {
        if (o.listMappers)
            listMappers();
        if (o.listLayouts)
            listLayouts();
        return 0;
    }
    if (o.workload.empty() && o.set.empty())
        usageError("--workload or --set is required");
    if (!o.workload.empty() && !o.set.empty())
        usageError("--workload and --set are mutually exclusive");

    std::unique_ptr<workloads::WorkloadSet> set;
    try {
        set = std::make_unique<workloads::WorkloadSet>(
            o.set.empty()
                ? workloads::WorkloadSet({o.workload})
                : workloads::WorkloadSet::parse(o.set));
    } catch (const std::exception &e) {
        usageError(e.what());
    }
    AddressLayout layout;
    try {
        layout = mapping::makeLayout(o.layout);
    } catch (const std::exception &e) {
        usageError(e.what()); // lists the presets
    }
    if (!o.tracePath.empty())
        trace::enable(o.tracePath);

    search::SearchOptions so = o.search;
    const search::SearchOptions defaults = search::defaultOptions(layout);
    so.targets = defaults.targets;
    so.candidateMask = defaults.candidateMask;

    const bool joint = set->size() > 1;
    const std::string label =
        joint ? set->shortId() + " {" + set->key() + "}"
              : set->members()[0];
    std::printf("valley_search: %s (%s, scale %.3g, seed %" PRIu64
                ", %u restarts x %u iters)\n\n",
                label.c_str(),
                mapping::layoutIdentity(layout).c_str(), o.scale,
                so.seed, so.restarts, so.iterations);

    const search::SetSearchResult r =
        search::searchSet(*set, layout, so, o.scale);

    const std::vector<unsigned> &targets = so.targets;
    const std::string searched_name = search::jointMapperName(*set);

    if (!joint) {
        const unsigned hi = layout.addrBits - 1;
        std::printf("--- BASE (identity) entropy\n%s\n",
                    r.identityProfiles[0].chart(hi, 6).c_str());
        std::printf("--- SBIM (searched) entropy\n%s\n",
                    r.searchedProfiles[0].chart(hi, 6).c_str());
    }

    // Per-member breakdown: what the one searched matrix does to each
    // member's target bits, next to that member's identity baseline.
    TextTable members;
    members.setHeader({"member", "H* targets BASE",
                       "H* targets " + searched_name, "min H*",
                       "member cost"});
    for (std::size_t m = 0; m < set->size(); ++m) {
        members.addRow(
            {set->members()[m],
             TextTable::num(r.identityProfiles[m].meanOver(targets), 3),
             TextTable::num(r.searchedProfiles[m].meanOver(targets), 3),
             TextTable::num(r.searchedProfiles[m].minOver(targets), 3),
             m < r.annealed.memberCosts.size()
                 ? TextTable::num(r.annealed.memberCosts[m], 4)
                 : "-"});
    }
    std::printf("%s\n", members.toString().c_str());

    TextTable t;
    t.setHeader({"mapping", "objective", "mean H* targets",
                 "min H* targets", "XOR gates", "depth"});
    const double id_mean = meanTargetEntropy(r.identityProfiles,
                                             targets);
    const double searched_mean =
        meanTargetEntropy(r.searchedProfiles, targets);
    const auto minOverMembers =
        [&](const std::vector<EntropyProfile> &profiles) {
            double mn = 1.0;
            for (const EntropyProfile &p : profiles)
                mn = std::min(mn, p.minOver(targets));
            return mn;
        };
    t.addRow({"BASE", TextTable::num(r.annealed.identityCost, 4),
              TextTable::num(id_mean, 3),
              TextTable::num(minOverMembers(r.identityProfiles), 3),
              "0", "0"});
    t.addRow({"greedy", TextTable::num(r.greedyBaseline.cost, 4), "-",
              "-",
              std::to_string(r.greedyBaseline.bim.xorGateCount()),
              std::to_string(r.greedyBaseline.bim.xorTreeDepth())});
    t.addRow({searched_name, TextTable::num(r.annealed.cost, 4),
              TextTable::num(searched_mean, 3),
              TextTable::num(minOverMembers(r.searchedProfiles), 3),
              std::to_string(r.annealed.bim.xorGateCount()),
              std::to_string(r.annealed.bim.xorTreeDepth())});
    std::printf("%s\n", t.toString().c_str());

    printSearchStats(r.annealed);

    if (trace::enabled() && !trace::flush())
        std::fprintf(stderr,
                     "valley_search: warning: failed to write trace\n");
    if (!o.metricsPath.empty() &&
        !metrics::writeSnapshotFile(o.metricsPath))
        std::fprintf(stderr,
                     "valley_search: warning: failed to write %s\n",
                     o.metricsPath.c_str());

    if (!o.out.empty()) {
        if (!writeJson(o.out, o, layout, *set, so, r)) {
            std::fprintf(stderr, "valley_search: cannot write %s\n",
                         o.out.c_str());
            return 1;
        }
        std::printf("wrote %s\n", o.out.c_str());
    }

    // The documented --set contract keys on the flag, not the set
    // size: `--set MT` (or a list that dedups to one member) still
    // must not regress identity mean target entropy to exit 0. The
    // 1e-4 tolerance absorbs measurement granularity on
    // already-flat sets (same epsilon as bench/joint_smoke).
    const bool objective_improved =
        r.annealed.cost < r.annealed.identityCost;
    const bool mean_ok =
        o.set.empty() || searched_mean > id_mean - 1e-4;
    if (objective_improved && mean_ok) {
        std::printf("objective improved: %.4f -> %.4f (gain %.4f"
                    "%s)\n",
                    r.annealed.identityCost, r.annealed.cost,
                    r.annealed.gain(),
                    joint ? (", mean H* " + TextTable::num(id_mean, 3)
                             + " -> " + TextTable::num(searched_mean,
                                                       3))
                                .c_str()
                          : "");
        return 0;
    }
    if (!objective_improved)
        std::printf("objective NOT improved over identity\n");
    else
        std::printf("objective improved but mean target entropy "
                    "regressed: %.4f -> %.4f\n",
                    id_mean, searched_mean);
    return 2;
}
