/**
 * @file
 * The string-keyed address-mapper registry: one fixed table of
 * mapper families.
 *
 * A mapper *family* is keyed by a spec-string name, and the spec
 * string is the only name of a mapper — `harness::runOne`/`runGrid`,
 * the cache keys, the CLIs, the benches and the tests all speak
 * specs:
 *
 *     map:FAMILY[,key=value]...
 *     e.g.  map:base   map:pae,seed=3   map:perm,order=RoCoBaCh
 *
 * A family owns a parameter schema (defaults + canonical formatting),
 * a display name, and a build function from (resolved spec, layout,
 * rng) to a BIM. `ResolvedMapperSpec` is a spec validated against its
 * family's schema; its `canonical()` form (non-default parameters
 * only, schema order) and FNV-1a `hash()` are the stable identities
 * the on-disk result cache keys on. The grammar, schema resolution and
 * canonical form are the one copy `synth:` workloads share
 * (`common/spec.hh`).
 *
 * `kBase` ... `kGbim` name the built-in families' canonical specs and
 * `paperMappers()` lists the paper's six in its order.
 *
 * Profile-dependent families (sbim, gbim) carry `needsProfiles`;
 * `makeMapper` cannot build them from a layout alone and the harness
 * routes them through `search::` instead.
 *
 * The table (`mapperFamilies`) is defined in builtin_mappers.cc; a
 * new family is one more entry there.
 */

#ifndef VALLEY_MAPPING_MAPPER_REGISTRY_HH
#define VALLEY_MAPPING_MAPPER_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bim/bit_matrix.hh"
#include "common/rng.hh"
#include "common/spec.hh"
#include "mapping/address_mapper.hh"

namespace valley {
namespace mapping {

/** True iff `name` is a `map:` spec string (by prefix). */
bool isMapperSpec(const std::string &name);

struct MapperFamily;

/**
 * A mapper spec validated against its family's schema
 * (`common/spec.hh`): every parameter resolved to canonical text,
 * defaults filled in. Its `canonical()` form is the cache identity.
 */
using ResolvedMapperSpec = spec::Resolved<MapperFamily>;

/** One mapper family of the table. */
struct MapperFamily
{
    static constexpr const char *kPrefix = "map:";

    std::string name;    ///< table key, [a-z0-9_]+
    std::string summary; ///< one-liner for --list-mappers

    /**
     * True for searched mappers (sbim/gbim) that are built by the
     * search service from workload profiles; `makeMapper` throws for
     * them and the harness routes through `search::` instead.
     */
    bool needsProfiles = false;

    /**
     * Seed-stream tag mixed with the user seed into the family's RNG
     * (see `mapperSeed`). The built-in tags are pinned by
     * tests/mapper_oracle_test.cc's golden BIM hashes, because every
     * BIM draw, and with it every cache key, depends on them; new
     * families pick any unused value.
     */
    std::uint64_t seedTag = 0;

    std::vector<spec::Param> params;

    /**
     * Display name of the built mapper — `AddressMapper::name()`,
     * which lands in `RunResult::scheme` and the figure columns. Must
     * contain no whitespace and none of `,;|%` (it is embedded in
     * space-separated result rows and '|'-separated cache records).
     */
    std::function<std::string(const ResolvedMapperSpec &)> displayName;

    /**
     * Build the family's BIM. `rng` is pre-seeded from (seedTag,
     * effective seed); deterministic families simply never draw.
     * Absent for needsProfiles families.
     */
    std::function<BitMatrix(const ResolvedMapperSpec &,
                            const AddressLayout &layout,
                            XorShiftRng &rng)>
        build;
};

/** Every family, in listing order; the table is immutable. */
const std::vector<MapperFamily> &mapperFamilies();

/**
 * Parse + schema-validate a spec string. Throws
 * `std::invalid_argument` on grammar errors, an unknown family (the
 * diagnostic lists every registered family), an unknown parameter
 * key (diagnostic lists the family's keys), a missing required
 * parameter, or a value failing its kind/validator.
 */
ResolvedMapperSpec resolveMapperSpec(const std::string &spec);

/** Shorthand for `resolveMapperSpec(spec).canonical()`. */
std::string canonicalMapperSpec(const std::string &spec);

/** RNG seed stream of a family: its `seedTag` mixed with the user seed. */
std::uint64_t mapperSeed(const MapperFamily &family, std::uint64_t seed);

/**
 * Build a mapper from a spec string.
 *
 * @param seed BIM instantiation seed, used when the family draws
 *             randomness and the spec does not pin `seed=` itself
 *             ("BIM-1..3" in Fig. 19 are seeds 1..3).
 * @throws std::invalid_argument on any resolve error, or for
 *         needsProfiles families (route those through `search::`).
 */
std::unique_ptr<AddressMapper> makeMapper(const std::string &spec,
                                          const AddressLayout &layout,
                                          std::uint64_t seed = 1);

/**
 * Display name of a spec's mapper — `AddressMapper::name()` and the
 * `RunResult::scheme` label, e.g. "PAE" or "PERM-RoCoBaCh". Throws
 * like `resolveMapperSpec`.
 */
std::string displayName(const std::string &spec);

/** Canonical specs of the built-in families. */
inline constexpr const char *kBase = "map:base";
inline constexpr const char *kPm = "map:pm";
inline constexpr const char *kRmp = "map:rmp";
inline constexpr const char *kPae = "map:pae";
inline constexpr const char *kFae = "map:fae";
inline constexpr const char *kAll = "map:all";
inline constexpr const char *kSbim = "map:sbim";
inline constexpr const char *kGbim = "map:gbim";

/** The paper's six mappers (Section VI), in its presentation order. */
const std::vector<std::string> &paperMappers();

} // namespace mapping
} // namespace valley

#endif // VALLEY_MAPPING_MAPPER_REGISTRY_HH
