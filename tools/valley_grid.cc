/**
 * @file
 * `valley_grid` — self-healing grid runner: the unattended-execution
 * front-end of `harness::runGrid` (checkpoints, retries, poisoning,
 * deadlines) plus the `--supervise` crash-restart wrapper.
 *
 * The plain mode runs one workloads x schemes grid with every
 * robustness knob exposed as a flag; `--supervise` re-execs the same
 * invocation as a child process under `harness::supervise`, so a
 * crashed grid (SIGKILL, `_Exit`, OOM) restarts itself and resumes
 * from the checkpoint journal — the CI drill "inject a kill at cell
 * k, supervise, diff against the fault-free grid" runs through this
 * binary.
 *
 * The --help text below is pinned by README.md's usage block; CI
 * fails if the two drift (`tools/check_help_drift.sh`).
 */

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common/cancellation.hh"
#include "common/metrics.hh"
#include "common/spec.hh"
#include "common/trace_span.hh"
#include "harness/experiment.hh"
#include "harness/grid_journal.hh"
#include "harness/result_cache.hh"
#include "harness/supervisor.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"

using namespace valley;

namespace {

const char *kHelp =
    R"(valley_grid — self-healing workloads x schemes grid runner

Runs one harness grid (every workload under every mapping scheme)
with the robustness stack exposed: per-cell checkpoint/resume, bounded
retries with deterministic backoff, poisoned-cell quarantine, a
wall-clock deadline that degrades instead of overrunning, and an
optional crash-restart supervisor that re-execs the grid after a
SIGKILL-grade loss and resumes from the journal.

Usage: valley_grid --workloads A,B,C [options]

Options:
  --workloads A,B   comma-separated workloads: Table II abbreviations
                    (MT, LU, GS, NW, LPS, SC, SRAD2, DWT2D, HS, SP,
                    FWT, NN, SPMV, LM, MUM, BFS) and/or
                    synth:FAMILY[,key=value...] specs; required
  --schemes S,S     comma-separated mappings: legacy scheme names
                    (BASE, PM, RMP, PAE, FAE, ALL, SBIM, GBIM) and/or
                    map:FAMILY[,key=value...] registry specs (see
                    valley_search --list-mappers; spec key=value
                    parameters attach to the preceding map: entry);
                    default all six paper schemes
  --layouts L,L     comma-separated DRAM layout presets, each a key
                    or layout: spec (see valley_search
                    --list-layouts); the grid runs once per layout;
                    default: the gddr5_1gb baseline
  --scale S         problem-size scale in (0, 1]; default 0.25
  --seed N          BIM seed (the "BIM-N" of Fig. 19); default 1
  --threads N       worker threads (0 = all cores, 1 = serial);
                    default 0; results are identical at any count
  --checkpoint      journal every finished cell and resume a rerun
                    of the same grid bit-identically
                    (VALLEY_CHECKPOINT=1 does the same)
  --max-attempts N  simulation attempts per cell before giving up on
                    it; default 1
  --retry-backoff-ms N  base of the exponential backoff between
                    attempts (N, 2N, 4N... ms); default 0
  --poison          quarantine a cell that fails every attempt
                    (journaled; skipped on resume) and keep going
                    instead of aborting the grid
  --deadline-ms N   wall-clock budget for the whole grid; on expiry
                    unstarted cells are skipped and reported as
                    deadline-missed (VALLEY_DEADLINE_MS does the
                    same); default 0 = unlimited
  --report          write the ranked cache/grid_report_<id>.json
                    outcome artifact (includes a metrics snapshot)
  --cache           memoize finished cells in the on-disk result
                    cache and reuse matching cells from prior runs
                    (VALLEY_CACHE=0 still disables all caches)
  --trace FILE      record Chrome trace-event spans (grid cells,
                    search phases, cache lookups) and write them to
                    FILE — loadable in Perfetto / chrome://tracing
                    (VALLEY_TRACE=FILE does the same)
  --metrics FILE    write the metrics-registry snapshot (counters,
                    gauges, latency histograms) to FILE as stable,
                    diffable JSON
  --out FILE        write per-cell results (workload|scheme|payload
                    lines, grid order; with --layouts a leading
                    layout| field is prepended) — byte-identical
                    across runs that computed the same cells
  --progress        log per-cell progress to stderr
  --supervise       run the grid as a supervised child process:
                    crashes (signals, _Exit) restart it with resume
                    from the journal; implies --checkpoint
  --max-restarts N  supervised crash restarts before giving up;
                    default 16
  --restart-backoff-ms N  base supervisor restart backoff (doubling,
                    capped at 5s); default 100; 0 disables
  --help            print this help and exit

Environment:
  VALLEY_CACHE=0        disable the on-disk result/profile caches
  VALLEY_CACHE_DIR=D    cache directory (default: ./cache)
  VALLEY_CHECKPOINT=1   same as --checkpoint
  VALLEY_DEADLINE_MS=N  same as --deadline-ms N
  VALLEY_TRACE=FILE     same as --trace FILE
  VALLEY_FAULT_INJECT=site:N[:throw|:kill][:every=K]
                        deterministic fault injection (CI drills)

Exit status: 0 grid complete; 4 complete but degraded (poisoned or
deadline-missed cells — see the grid report); 3 grid failed with an
error; 5 supervisor restart budget exhausted; 130 interrupted
(SIGINT/SIGTERM; journal flushed); 1 on usage errors.
)";

struct CliOptions
{
    harness::GridOptions grid;
    std::string out;
    std::string tracePath;
    std::string metricsPath;
    bool supervise = false;
    unsigned maxRestarts = 16;
    unsigned restartBackoffMs = 100;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "valley_grid: %s\n(see valley_grid --help)\n",
                 msg.c_str());
    std::exit(1);
}

/** A comma list flag's members (`spec::splitList`); usage error if bad. */
std::vector<std::string>
listArg(const char *flag, const char *value)
{
    try {
        return spec::splitList(value);
    } catch (const std::exception &e) {
        usageError(std::string(flag) + ": " + e.what());
    }
}

/**
 * One --schemes token to a canonical mapper spec: a `map:` spec is
 * schema-validated as-is, anything else must be the display name of
 * a paper mapper or of a searched one (BASE ... ALL, SBIM, GBIM).
 */
std::string
parseMapper(const std::string &name)
{
    try {
        if (mapping::isMapperSpec(name))
            return mapping::canonicalMapperSpec(name);
    } catch (const std::exception &e) {
        usageError(e.what()); // lists the registered families
    }
    std::vector<std::string> named = mapping::paperMappers();
    named.push_back(mapping::kSbim);
    named.push_back(mapping::kGbim);
    for (const std::string &spec : named)
        if (mapping::displayName(spec) == name)
            return spec;
    usageError("unknown scheme: " + name);
}

/** Our own executable, for the supervised re-exec. */
std::string
selfExe(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

// SIGINT/SIGTERM: one async-signal-safe atomic store each. The grid
// stops at the next cell boundary; every finished cell is already on
// disk (the journal appends as it goes), so "flush and exit cleanly"
// is simply "stop starting cells and return".
CancelToken g_token;                       // constructed before main
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void
onSignal(int)
{
    g_interrupted = 1;
    g_token.cancel();
}

int
runChild(CliOptions cli)
{
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    cli.grid.cancel = &g_token;
    if (!cli.tracePath.empty())
        trace::enable(cli.tracePath);

    const bool multi_layout = !cli.grid.layouts.empty();
    const std::vector<harness::LayoutGrid> grids = [&] {
        try {
            return harness::runGrids(cli.grid);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "valley_grid: grid failed: %s\n",
                         e.what());
            std::exit(3);
        }
    }();

    if (!cli.out.empty()) {
        // Grid order is fixed by the options, so two runs that
        // computed the same cells emit byte-identical files — the
        // comparison artifact of the CI supervisor drill. Without
        // --layouts the format is the legacy 3-field one.
        std::ofstream out(cli.out);
        if (!out)
            usageError("cannot write --out file: " + cli.out);
        for (const harness::LayoutGrid &lg : grids) {
            const auto &opts = lg.grid.options();
            for (const auto &w : opts.workloads)
                for (const auto &m : opts.mappers) {
                    if (multi_layout)
                        out << lg.layout << '|';
                    out << w << '|' << mapping::displayName(m) << '|'
                        << harness::serializeResult(lg.grid.at(w, m))
                        << '\n';
                }
        }
    }

    bool degraded = false;
    for (const harness::LayoutGrid &lg : grids) {
        const harness::GridReport &report = lg.grid.report();
        std::printf("grid %s: %zu cells — %zu ok, %zu resumed, %zu "
                    "retried, %zu poisoned, %zu deadline-missed\n",
                    report.gridId.c_str(), report.cells.size(),
                    report.ok, report.resumed, report.retried,
                    report.poisoned, report.deadlineMissed);
        degraded = degraded || report.degraded();
    }
    // Observability artifacts are written on every exit path —
    // including the interrupted one, where a partial trace is the
    // most useful kind.
    if (trace::enabled() && !trace::flush())
        std::fprintf(stderr,
                     "valley_grid: warning: failed to write trace\n");
    if (!cli.metricsPath.empty() &&
        !metrics::writeSnapshotFile(cli.metricsPath))
        std::fprintf(stderr,
                     "valley_grid: warning: failed to write %s\n",
                     cli.metricsPath.c_str());
    if (g_interrupted)
        return 130;
    return degraded ? 4 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.grid.scale = 0.25;

    // Args forwarded to the supervised child: everything except the
    // supervisor's own flags (the child must not supervise again).
    std::vector<std::string> child_args;

    const auto need = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " needs a value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const int arg_index = i;
        bool forward = true;
        if (arg == "--help") {
            std::fputs(kHelp, stdout);
            return 0;
        } else if (arg == "--workloads") {
            cli.grid.workloads =
                listArg("--workloads", need(i, "--workloads"));
        } else if (arg == "--schemes") {
            cli.grid.mappers.clear();
            for (const std::string &s :
                 listArg("--schemes", need(i, "--schemes")))
                cli.grid.mappers.push_back(parseMapper(s));
        } else if (arg == "--layouts") {
            cli.grid.layouts.clear();
            for (const std::string &l :
                 listArg("--layouts", need(i, "--layouts"))) {
                try {
                    cli.grid.layouts.push_back(
                        mapping::canonicalLayoutSpec(l));
                } catch (const std::exception &e) {
                    usageError(e.what()); // lists registered presets
                }
            }
        } else if (arg == "--scale") {
            cli.grid.scale = std::atof(need(i, "--scale"));
        } else if (arg == "--seed") {
            cli.grid.bimSeed = std::strtoull(need(i, "--seed"),
                                             nullptr, 10);
        } else if (arg == "--threads") {
            cli.grid.threads = static_cast<unsigned>(
                std::strtoul(need(i, "--threads"), nullptr, 10));
        } else if (arg == "--checkpoint") {
            cli.grid.checkpoint = true;
        } else if (arg == "--max-attempts") {
            cli.grid.maxAttempts = static_cast<unsigned>(
                std::strtoul(need(i, "--max-attempts"), nullptr, 10));
        } else if (arg == "--retry-backoff-ms") {
            cli.grid.retryBackoffMs = static_cast<unsigned>(
                std::strtoul(need(i, "--retry-backoff-ms"), nullptr,
                             10));
        } else if (arg == "--poison") {
            cli.grid.poison = true;
        } else if (arg == "--deadline-ms") {
            cli.grid.deadlineMs = std::strtoull(
                need(i, "--deadline-ms"), nullptr, 10);
        } else if (arg == "--report") {
            cli.grid.report = true;
        } else if (arg == "--cache") {
            cli.grid.useCache = true;
        } else if (arg == "--trace") {
            cli.tracePath = need(i, "--trace");
        } else if (arg == "--metrics") {
            cli.metricsPath = need(i, "--metrics");
        } else if (arg == "--out") {
            cli.out = need(i, "--out");
        } else if (arg == "--progress") {
            cli.grid.progress = true;
        } else if (arg == "--supervise") {
            cli.supervise = true;
            forward = false;
        } else if (arg == "--max-restarts") {
            cli.maxRestarts = static_cast<unsigned>(
                std::strtoul(need(i, "--max-restarts"), nullptr, 10));
            forward = false;
        } else if (arg == "--restart-backoff-ms") {
            cli.restartBackoffMs = static_cast<unsigned>(
                std::strtoul(need(i, "--restart-backoff-ms"), nullptr,
                             10));
            forward = false;
        } else {
            usageError("unknown option: " + arg);
        }
        if (forward)
            for (int j = arg_index; j <= i; ++j)
                child_args.push_back(argv[j]);
    }

    if (cli.grid.workloads.empty())
        usageError("--workloads is required");
    if (cli.grid.mappers.empty())
        usageError("--schemes must name at least one scheme");
    try {
        harness::normalizeGridAxes(cli.grid);
    } catch (const std::exception &e) {
        usageError(e.what()); // a mapper named twice
    }
    if (!(cli.grid.scale > 0.0) || cli.grid.scale > 1.0)
        usageError("--scale must be in (0, 1]");

    if (!cli.supervise)
        return runChild(std::move(cli));

    // Supervised mode: re-exec ourselves as the grid child, with the
    // supervisor flags stripped and --checkpoint forced — resume from
    // the journal is what makes the restart loop converge.
    std::vector<std::string> child_argv;
    child_argv.push_back(selfExe(argv[0]));
    child_argv.insert(child_argv.end(), child_args.begin(),
                      child_args.end());
    if (!cli.grid.checkpoint)
        child_argv.push_back("--checkpoint");

    harness::SupervisorOptions sup;
    sup.maxRestarts = cli.maxRestarts;
    sup.backoffMs = cli.restartBackoffMs;
    const harness::SuperviseOutcome outcome =
        harness::supervise(child_argv, sup);
    if (outcome.exhausted) {
        std::fprintf(stderr,
                     "valley_grid: supervision exhausted after %u "
                     "restart(s) (last exit %d)\n",
                     outcome.restarts, outcome.exitCode);
        return 5;
    }
    if (outcome.restarts > 0)
        std::fprintf(stderr,
                     "valley_grid: recovered after %u crash "
                     "restart(s)\n",
                     outcome.restarts);
    return outcome.exitCode;
}
