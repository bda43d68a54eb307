/**
 * @file
 * `valley_gen` — the synthetic scenario generator front-end.
 *
 * Lists the registered pattern families with their parameter schemas,
 * resolves a `synth:` spec string (round-tripping it to canonical
 * form and the stable cache hash), prints the resulting kernel/TB
 * geometry and request counts, optionally profiles the workload's
 * per-bit window entropy, and dumps everything as JSON for scripting.
 * Table II abbreviations are accepted wherever a spec is, so the tool
 * doubles as a workload inspector for the fixed suite.
 *
 * The --help text below is pinned by README.md's usage block; CI
 * fails if the two drift (`tools/check_help_drift.sh`).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "common/spec.hh"
#include "common/table.hh"
#include "synth/registry.hh"
#include "workloads/profiler.hh"

using namespace valley;
using namespace valley::cli;

void
cli::usageError(const std::string &msg)
{
    std::fprintf(stderr, "valley_gen: %s\n(try --help)\n",
                 msg.c_str());
    std::exit(1);
}

namespace {

const char *kHelp =
    R"(valley_gen — synthetic scenario generator (unlimited workloads)

Builds parameterized synthetic workloads from spec strings of the form
synth:FAMILY[,key=value...] (e.g. synth:stencil3d,n=96,halo=1), prints
the resolved parameters, kernel/TB geometry and request counts, and
optionally the per-bit window-entropy profile. Spec strings run
everywhere a Table II abbreviation does: workloads::make, the harness
grid, the entropy profiler, the BIM search and valley_search.

Usage: valley_gen --list | valley_gen --spec SPEC [options]

Options:
  --list          print every family with its parameter schema and exit
  --spec S        synth spec string (canonical or not; Table II
                  abbreviations are also accepted)
  --scale S       external problem-size scale in (0, 1], multiplied
                  into the spec's own scale parameter; default 1
  --entropy       profile the workload and print the per-bit entropy
                  chart plus a channel/bank-bit summary
  --window W      TB window w for --entropy (#SMs); default 12
  --kernels N     print at most N per-kernel geometry rows; default 8
  --json FILE     dump the resolved spec, geometry, request counts and
                  (with --entropy) the per-bit profile as JSON
  --help          print this help and exit

Exit status: 0 on success, 1 on usage errors (unknown family or
parameter, value out of range, malformed spec).
)";

struct CliOptions
{
    std::string spec;
    std::string json;
    double scale = 1.0;
    unsigned window = 12;
    unsigned maxKernels = 8;
    bool list = false;
    bool entropy = false;
};

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
        } else if (a == "--spec") {
            o.spec = need(i, "--spec");
        } else if (a == "--scale") {
            o.scale = realArg("--scale", need(i, "--scale"));
            if (o.scale <= 0.0 || o.scale > 1.0)
                usageError("--scale must be in (0, 1]");
        } else if (a == "--entropy") {
            o.entropy = true;
        } else if (a == "--window") {
            o.window = static_cast<unsigned>(
                intArg("--window", need(i, "--window")));
            if (o.window == 0)
                usageError("--window must be >= 1");
        } else if (a == "--kernels") {
            o.maxKernels = static_cast<unsigned>(
                intArg("--kernels", need(i, "--kernels")));
        } else if (a == "--json") {
            o.json = need(i, "--json");
        } else {
            usageError("unknown option " + a);
        }
    }
    return o;
}

void
printFamilies()
{
    for (const synth::FamilyInfo &f : synth::families()) {
        std::printf("synth:%s — %s%s\n", f.name.c_str(),
                    f.summary.c_str(),
                    f.typicallyValley ? " [valley]" : "");
        TextTable t;
        t.setHeader({"param", "type", "default", "description"});
        for (const spec::Param &p : f.params) {
            std::string kind = p.kind == spec::Kind::U64   ? "int"
                               : p.kind == spec::Kind::F64 ? "float"
                                                           : "choice";
            std::string help = p.help;
            if (!p.choices.empty()) {
                help += " (";
                for (std::size_t i = 0; i < p.choices.size(); ++i)
                    help += (i ? "|" : "") + p.choices[i];
                help += ")";
            }
            t.addRow({p.key, kind, p.def, help});
        }
        std::printf("%s\n", t.toString().c_str());
    }
}

/** Aggregate trace statistics of one workload. */
struct TraceStats
{
    std::uint64_t requests = 0;
    std::uint64_t writes = 0;
    std::uint64_t instrs = 0;
    std::uint64_t tbs = 0;
};

TraceStats
traceStats(const Workload &wl)
{
    TraceStats s;
    for (const Kernel &k : wl.kernels()) {
        s.tbs += k.numTbs();
        for (TbId tb = 0; tb < k.numTbs(); ++tb) {
            const TbTrace t = k.trace(tb);
            for (const auto &w : t.warps)
                for (const auto &i : w.instrs) {
                    ++s.instrs;
                    s.requests += i.lines.size();
                    if (i.write)
                        s.writes += i.lines.size();
                }
        }
    }
    return s;
}

bool
writeJson(const std::string &path, const CliOptions &o,
          const Workload &wl, const synth::ResolvedSpec *spec,
          const TraceStats &stats, const EntropyProfile *profile)
{
    std::ofstream out(path);
    out.precision(17);
    out << "{\n";
    out << "  \"workload\": \"" << wl.info().abbrev << "\",\n";
    if (spec) {
        out << "  \"canonical\": \"" << spec->canonical() << "\",\n";
        char hash[32];
        std::snprintf(hash, sizeof hash, "%016" PRIx64, spec->hash());
        out << "  \"spec_hash\": \"" << hash << "\",\n";
        out << "  \"params\": {";
        const auto &vals = spec->values();
        for (std::size_t i = 0; i < vals.size(); ++i)
            out << (i ? ", " : "") << '"' << vals[i].first << "\": \""
                << vals[i].second << '"';
        out << "},\n";
    }
    out << "  \"suite\": \"" << wl.info().suite << "\",\n";
    out << "  \"dims\": \"" << wl.info().dims << "\",\n";
    out << "  \"entropy_valley\": "
        << (wl.info().entropyValley ? "true" : "false") << ",\n";
    out << "  \"scale\": " << o.scale << ",\n";
    out << "  \"kernels\": " << wl.numKernels() << ",\n";
    out << "  \"thread_blocks\": " << stats.tbs << ",\n";
    out << "  \"warp_instructions\": " << stats.instrs << ",\n";
    out << "  \"requests\": " << stats.requests << ",\n";
    out << "  \"writes\": " << stats.writes;
    if (profile) {
        out << ",\n  \"entropy_window\": " << o.window << ",\n";
        out << "  \"entropy_per_bit\": [";
        for (std::size_t b = 0; b < profile->perBit.size(); ++b)
            out << (b ? ", " : "") << profile->perBit[b];
        out << "]";
    }
    out << "\n}\n";
    out.flush();
    return out.good();
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions o = parseArgs(argc, argv);
    if (o.list) {
        printFamilies();
        return 0;
    }
    if (o.spec.empty())
        usageError("--spec (or --list) is required");

    // Resolve first so spec errors carry their precise message; keep
    // the resolved form around for the canonical/hash report.
    std::unique_ptr<synth::ResolvedSpec> resolved;
    std::unique_ptr<Workload> wl;
    try {
        if (synth::isSynthSpec(o.spec))
            resolved = std::make_unique<synth::ResolvedSpec>(
                synth::resolve(o.spec));
        wl = workloads::make(o.spec, o.scale);
    } catch (const std::exception &e) {
        usageError(e.what());
    }

    const WorkloadInfo &info = wl->info();
    std::printf("workload: %s (%s, %s)\n", info.abbrev.c_str(),
                info.name.c_str(), info.suite.c_str());
    if (resolved) {
        std::printf("canonical: %s\n", resolved->canonical().c_str());
        std::printf("spec hash: %016" PRIx64 "\n", resolved->hash());
        TextTable params;
        params.setHeader({"param", "value"});
        for (const auto &[k, v] : resolved->values())
            params.addRow({k, v});
        std::printf("%s", params.toString().c_str());
    }
    std::printf("dims: %s  scale: %.3g  valley: %s\n",
                info.dims.c_str(), o.scale,
                info.entropyValley ? "yes" : "no");

    const TraceStats stats = traceStats(*wl);
    std::printf("\nkernels: %u  TBs: %" PRIu64 "  requests: %" PRIu64
                " (%.1f%% writes)\n",
                wl->numKernels(), stats.tbs, stats.requests,
                stats.requests
                    ? 100.0 * static_cast<double>(stats.writes) /
                          static_cast<double>(stats.requests)
                    : 0.0);

    TextTable t;
    t.setHeader({"kernel", "TBs", "warps/TB", "requests"});
    unsigned shown = 0;
    for (const Kernel &k : wl->kernels()) {
        if (shown++ >= o.maxKernels) {
            t.addRow({"... (" +
                          std::to_string(wl->numKernels() - shown + 1) +
                          " more)",
                      "", "", ""});
            break;
        }
        t.addRow({k.name(), std::to_string(k.numTbs()),
                  std::to_string(k.warpsPerTb()),
                  std::to_string(k.countRequests())});
    }
    std::printf("%s", t.toString().c_str());

    EntropyProfile profile;
    if (o.entropy) {
        workloads::ProfileOptions po;
        po.window = o.window;
        profile = workloads::profileWorkload(*wl, po);
        const unsigned hi = profile.numBits() - 1;
        std::printf("\n--- window entropy (w = %u)\n%s", o.window,
                    profile.chart(hi, 6).c_str());
        std::printf("mean H* channel bits (8-9): %.3f   bank bits "
                    "(10-13): %.3f   bits 14+: %.3f\n",
                    profile.meanOver({8, 9}),
                    profile.meanOver({10, 11, 12, 13}), [&] {
                        std::vector<unsigned> hi_bits;
                        for (unsigned b = 14; b < profile.numBits();
                             ++b)
                            hi_bits.push_back(b);
                        return profile.meanOver(hi_bits);
                    }());
    }

    if (!o.json.empty()) {
        if (!writeJson(o.json, o, *wl, resolved.get(), stats,
                       o.entropy ? &profile : nullptr)) {
            std::fprintf(stderr, "valley_gen: cannot write %s\n",
                         o.json.c_str());
            return 1;
        }
        std::printf("\nwrote %s\n", o.json.c_str());
    }
    return 0;
}
