/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper.
 * Results are memoized under harness::cacheDir() (cache/ by default,
 * VALLEY_CACHE_DIR to relocate) so the benches that share the
 * Fig. 11-17 grid only simulate it once (VALLEY_CACHE=0 disables).
 * VALLEY_SCALE (0 < s <= 1) scales the workload problem sizes for
 * quick runs; any other value is an error (`envScale`).
 */

#ifndef VALLEY_BENCH_BENCH_UTIL_HH
#define VALLEY_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/json.hh"
#include "common/spec.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "mapping/layout_registry.hh"
#include "workloads/profiler.hh"

// Set by CMake for every bench binary: the BENCH_*.json provenance.
#ifndef VALLEY_BENCH_BUILD_TYPE
#define VALLEY_BENCH_BUILD_TYPE "unknown"
#endif

namespace valley {
namespace bench {

/**
 * Minimal machine-readable bench output: a flat, ordered JSON object
 * written on destruction. Used for the BENCH_*.json perf-trajectory
 * files that later PRs compare against. Every file leads with its
 * provenance (`compiler`, `build_type`, `simd_level`), except a key
 * the bench writes itself.
 */
class JsonEmitter
{
  public:
    explicit JsonEmitter(std::string path) : path(std::move(path)) {}

    ~JsonEmitter() { write(); }

    JsonEmitter(const JsonEmitter &) = delete;
    JsonEmitter &operator=(const JsonEmitter &) = delete;

    void
    field(const std::string &key, double v)
    {
        std::ostringstream out;
        out.precision(17);
        out << v;
        fields.emplace_back(key, out.str());
    }

    void
    field(const std::string &key, std::uint64_t v)
    {
        fields.emplace_back(key, std::to_string(v));
    }

    void
    field(const std::string &key, unsigned v)
    {
        field(key, static_cast<std::uint64_t>(v));
    }

    void
    field(const std::string &key, bool v)
    {
        fields.emplace_back(key, v ? "true" : "false");
    }

    void
    field(const std::string &key, const std::string &v)
    {
        fields.emplace_back(key, '"' + v + '"');
    }

    /** Keep string literals out of the bool overload. */
    void
    field(const std::string &key, const char *v)
    {
        field(key, std::string(v));
    }

    /**
     * Embed a pre-rendered JSON value verbatim (e.g. the metrics
     * registry snapshot, itself a nested object). The caller is
     * responsible for `json` being valid JSON; render it at nesting
     * depth 1 if it is multiline, so the indentation lines up.
     */
    void
    rawField(const std::string &key, std::string json)
    {
        fields.emplace_back(key, std::move(json));
    }

    void
    write() const
    {
        std::vector<std::pair<std::string, std::string>> all;
        for (const auto &[key, value] :
             {std::pair<std::string, std::string>{"compiler", __VERSION__},
              {"build_type", VALLEY_BENCH_BUILD_TYPE},
              {"simd_level", bits::simdOps().name}})
            if (std::none_of(fields.begin(), fields.end(),
                             [&](const auto &f) { return f.first == key; }))
                all.emplace_back(key, '"' + jsonEscape(value) + '"');
        all.insert(all.end(), fields.begin(), fields.end());

        std::ofstream out(path);
        out << "{\n";
        for (std::size_t i = 0; i < all.size(); ++i)
            out << "  \"" << all[i].first << "\": " << all[i].second
                << (i + 1 < all.size() ? ",\n" : "\n");
        out << "}\n";
    }

  private:
    std::string path;
    std::vector<std::pair<std::string, std::string>> fields;
};

/**
 * Problem-size scale from VALLEY_SCALE; unset or empty keeps
 * `fallback`. A value that is not a number in (0, 1] ends the process
 * with exit status 1: a silent fallback would run a typo like `0,05`
 * at full scale.
 */
inline double
envScale(double fallback = 1.0)
{
    const char *s = std::getenv("VALLEY_SCALE");
    if (!s || !*s)
        return fallback;
    const std::optional<double> v = spec::parseF64(s);
    if (!v || !(*v > 0.0 && *v <= 1.0)) {
        std::fprintf(stderr,
                     "VALLEY_SCALE must be a number in (0, 1], got "
                     "\"%s\"\n",
                     s);
        std::exit(1);
    }
    return *v;
}

/**
 * Workload axis override: VALLEY_WORKLOADS is a ';'-separated list of
 * Table II abbreviations and/or `synth:` spec strings (';' because
 * spec parameters use ','). Empty/unset keeps `fallback` — so every
 * grid bench can be pointed at a synthetic set without recompiling:
 *
 *   VALLEY_WORKLOADS='synth:stencil3d;synth:strided' ./build/fig12_speedup
 */
inline std::vector<std::string>
envWorkloads(std::vector<std::string> fallback)
{
    const char *s = std::getenv("VALLEY_WORKLOADS");
    if (!s || !*s)
        return fallback;
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(s);
    while (std::getline(in, item, ';'))
        if (!item.empty())
            out.push_back(item);
    return out.empty() ? fallback : out;
}

/**
 * Layout axis override: VALLEY_LAYOUT names a registered DRAM
 * organization preset (a key like `hbm2_4gb` or a `layout:` spec —
 * see `valley_search --list-layouts`). Unset keeps the bench's
 * config default (the paper's GDDR5 baseline), so any fig grid can
 * be rerun on another organization without recompiling:
 *
 *   VALLEY_LAYOUT=hbm2_4gb ./build/fig12_speedup
 */
inline AddressLayout
envLayout(AddressLayout fallback)
{
    const char *s = std::getenv("VALLEY_LAYOUT");
    if (!s || !*s)
        return fallback;
    return mapping::makeLayout(s); // throws on unknown presets
}

inline void
printHeader(const std::string &experiment, const std::string &what)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s — %s\n", experiment.c_str(), what.c_str());
    std::printf("Get Out of the Valley (ISCA'18) reproduction; see "
                "EXPERIMENTS.md\n");
    std::printf("==================================================="
                "=========================\n\n");
}

/**
 * The Fig. 11-17 grid: valley set x `mappers`, Table I machine.
 * Benches that add columns (fig12's SBIM) pass an extended mapper
 * list; the shared cells still come from the same result cache.
 * VALLEY_WORKLOADS swaps the workload axis (synth specs included).
 */
inline harness::Grid
valleyGrid(double scale = 1.0,
           std::vector<std::string> mappers = mapping::paperMappers())
{
    harness::GridOptions o;
    o.workloads = envWorkloads(workloads::valleySet());
    o.mappers = std::move(mappers);
    o.config.layout = envLayout(o.config.layout);
    o.scale = envScale(scale);
    o.useCache = true;
    o.progress = true;
    return harness::runGrid(std::move(o));
}

/** The Fig. 20 grid: non-valley set x the paper's mappers. */
inline harness::Grid
nonValleyGrid(double scale = 1.0)
{
    harness::GridOptions o;
    o.workloads = envWorkloads(workloads::nonValleySet());
    o.config.layout = envLayout(o.config.layout);
    o.scale = envScale(scale);
    o.useCache = true;
    o.progress = true;
    return harness::runGrid(std::move(o));
}

} // namespace bench
} // namespace valley

#endif // VALLEY_BENCH_BENCH_UTIL_HH
