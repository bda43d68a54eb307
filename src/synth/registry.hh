/**
 * @file
 * The table of synthetic scenario families.
 *
 * Each family is a parameterized pattern primitive — `stream`,
 * `strided`, `tiled2d`, `stencil3d`, `csr_gather`, `attention`,
 * `hash_shuffle`, `pipeline` — with a declared parameter schema
 * (keys, types, defaults, help text). A spec string is resolved
 * against the schema into a `ResolvedSpec`: every parameter gets a
 * validated, canonically formatted value, so two spec strings that
 * mean the same workload (reordered keys, redundant defaults,
 * `n=096` vs `n=96`) resolve to the same canonical form and the same
 * stable hash — the property the on-disk result cache keys on.
 *
 * `workloads::make()` falls through to `synth::make()` for any name
 * with the `synth:` prefix, so spec strings run everywhere a Table II
 * abbreviation does: the harness grid, the entropy profiler, the BIM
 * search, the figure benches and the CLIs.
 */

#ifndef VALLEY_SYNTH_REGISTRY_HH
#define VALLEY_SYNTH_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/spec.hh"
#include "workloads/workload.hh"

namespace valley {
namespace synth {

/** True iff `name` is a `synth:` spec string (by prefix). */
bool isSynthSpec(const std::string &name);

struct FamilyInfo;

/** A spec validated against its family schema (`common/spec.hh`). */
using ResolvedSpec = spec::Resolved<FamilyInfo>;

/** One scenario family of the table. */
struct FamilyInfo
{
    static constexpr const char *kPrefix = "synth:";

    std::string name;           ///< e.g. "stencil3d"
    std::string summary;        ///< one-line description
    bool typicallyValley = false; ///< default-parameter entropy shape
    std::vector<spec::Param> params;
    /** The generator (synth/patterns.hh), given the caller's scale. */
    std::unique_ptr<Workload> (*make)(const ResolvedSpec &,
                                      double scale) = nullptr;
};

/** Every family, in listing order; the table is immutable. */
const std::vector<FamilyInfo> &families();

/**
 * Parse a spec string and resolve it against its family schema.
 * Throws `std::invalid_argument` (naming the spec) on a grammar
 * error, an unknown family or key, a value that fails to parse for
 * its kind, or a shared parameter out of range: `warps` outside
 * [1, 32], `gap` above 65535, any other integer but `seed` above
 * 2^32 - 1 (generators read them as 32 bits), `ipr` <= 0 or `scale`
 * outside (0, 1].
 */
ResolvedSpec resolve(const std::string &spec_string);

/**
 * Build the workload of a spec string. `scale` multiplies the spec's
 * own `scale` parameter (both in (0, 1]); the workload's
 * `WorkloadInfo::abbrev` is the canonical spec (without the external
 * `scale`, which callers pass alongside, mirroring Table II usage).
 * Throws like `resolve`, and names the spec when the generator
 * rejects a parameter combination (e.g. `ipt` outside [1, 4096]).
 */
std::unique_ptr<Workload> make(const std::string &spec_string,
                               double scale = 1.0);

} // namespace synth
} // namespace valley

#endif // VALLEY_SYNTH_REGISTRY_HH
