/**
 * @file
 * Resume smoke — the end-to-end drill of the mega-grid resilience
 * layer, run by CI next to `synth_smoke`/`joint_smoke`:
 *
 *  1. a reference grid runs uninterrupted (no checkpointing);
 *  2. the same grid runs with checkpointing on and an armed fault
 *     (`grid_cell:N:throw`) that kills it mid-grid — the throw is
 *     caught here, exactly like a crash the journal must survive;
 *  3. the grid runs again with checkpointing on: the journaled cells
 *     are skipped, the rest simulate, and every cell must be
 *     BIT-IDENTICAL to the reference (compared via the journal's own
 *     precision-17 serialization);
 *  4. the same interrupt/resume cycle repeats in parallel mode.
 *
 * The result cache stays off throughout: the journal alone must
 * carry the resumed state. Everything lands in BENCH_resume.json;
 * exit status is non-zero unless both resumes are bit-identical and
 * the interrupted runs actually journaled partial progress.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/fault_inject.hh"
#include "harness/grid_journal.hh"
#include "harness/result_cache.hh"

using namespace valley;

namespace {

harness::GridOptions
gridOptions(bool checkpoint, unsigned threads, double scale,
            const std::vector<std::string> &workloads)
{
    harness::GridOptions o;
    o.workloads = workloads;
    o.mappers = {mapping::kBase, mapping::kPm, mapping::kPae};
    o.scale = scale;
    o.useCache = false; // the journal alone carries resumed state
    o.checkpoint = checkpoint;
    o.threads = threads;
    o.progress = true;
    return o;
}

/** Count cells that differ between two grids (0 = bit-identical). */
std::size_t
countMismatches(const harness::Grid &a, const harness::Grid &b)
{
    std::size_t bad = 0;
    for (const auto &w : a.options().workloads)
        for (const std::string &s : a.options().mappers)
            if (harness::serializeResult(a.at(w, s)) !=
                harness::serializeResult(b.at(w, s))) {
                std::fprintf(stderr, "MISMATCH %s/%s after resume\n",
                             w.c_str(),
                             mapping::displayName(s).c_str());
                ++bad;
            }
    return bad;
}

/** Journal entries currently recorded for this grid's journal. */
std::size_t
journalEntries()
{
    std::size_t total = 0;
    const std::string dir = harness::cacheDir();
    if (!std::filesystem::exists(dir))
        return 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().rfind("grid_journal_", 0) ==
            0)
            total += harness::GridJournal(e.path().string())
                         .load()
                         .size();
    return total;
}

/** One interrupt-then-resume drill; returns mismatch count. */
std::size_t
drill(const char *label, unsigned threads, double scale,
      const std::vector<std::string> &workloads,
      const harness::Grid &reference, bench::JsonEmitter &json,
      std::size_t &journaled_at_interrupt)
{
    // Interrupt at the 2nd freshly-simulated cell. Serial mode dies
    // with exactly one journaled cell; parallel mode may journal a
    // few more (in-flight cells run to completion), which is exactly
    // the semantics a real crash has.
    fault::configure("grid_cell:2:throw");
    bool interrupted = false;
    try {
        harness::runGrid(
            gridOptions(true, threads, scale, workloads));
    } catch (const fault::Injected &e) {
        interrupted = true;
        std::printf("[%s] interrupted as planned: %s\n", label,
                    e.what());
    }
    fault::configure("");
    journaled_at_interrupt = journalEntries();
    std::printf("[%s] journal holds %zu cell(s) at interrupt\n",
                label, journaled_at_interrupt);

    const harness::Grid resumed = harness::runGrid(
        gridOptions(true, threads, scale, workloads));
    const std::size_t mismatches = countMismatches(reference, resumed);

    json.field(std::string(label) + "_interrupted", interrupted);
    json.field(std::string(label) + "_journaled_at_interrupt",
               static_cast<std::uint64_t>(journaled_at_interrupt));
    json.field(std::string(label) + "_mismatches",
               static_cast<std::uint64_t>(mismatches));
    return interrupted ? mismatches : mismatches + 1;
}

} // namespace

int
main()
{
    bench::printHeader("Resume smoke",
                       "interrupted checkpointed grid resumes "
                       "bit-identically");

    const double scale = bench::envScale(0.25);
    const std::vector<std::string> workloads = bench::envWorkloads({
        "synth:strided",
        "synth:stencil3d",
    });

    bench::JsonEmitter json("BENCH_resume.json");
    json.field("scale", scale);
    json.field("cells",
               static_cast<std::uint64_t>(workloads.size() * 3));

    // Reference: same grid, no checkpointing, no faults.
    const harness::Grid reference =
        harness::runGrid(gridOptions(false, 1, scale, workloads));

    std::size_t journaled_serial = 0, journaled_parallel = 0;
    const std::size_t serial_bad =
        drill("serial", 1, scale, workloads, reference, json,
              journaled_serial);

    // Parallel drill on a fresh journal (different thread count, same
    // grid identity — wipe so the interrupt actually interrupts).
    for (const auto &e : std::filesystem::directory_iterator(
             harness::cacheDir()))
        if (e.path().filename().string().rfind("grid_journal_", 0) ==
            0)
            std::filesystem::remove(e.path());
    const std::size_t parallel_bad =
        drill("parallel", 4, scale, workloads, reference, json,
              journaled_parallel);

    const bool partial_progress_persisted =
        journaled_serial > 0 && journaled_parallel > 0;
    const bool ok = serial_bad == 0 && parallel_bad == 0 &&
                    partial_progress_persisted;
    json.field("partial_progress_persisted",
               partial_progress_persisted);
    json.field("bit_identical", serial_bad + parallel_bad == 0);
    json.field("ok", ok);

    std::printf("\nresume smoke: %s (serial mismatches %zu, parallel "
                "mismatches %zu)\n",
                ok ? "bit-identical resume in both modes" : "FAILED",
                serial_bad, parallel_bad);
    return ok ? 0 : 1;
}
