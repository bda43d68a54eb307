/**
 * @file
 * String-keyed, self-registering address-mapper registry.
 *
 * A mapper *family* registers under a spec-string key (the Ramulator
 * `RAMULATOR_REGISTER_IMPLEMENTATION` idiom), and the spec string is
 * the only name of a mapper — `harness::runOne`/`runGrid`, the cache
 * keys, the CLIs, the benches and the tests all speak specs:
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
 * Profile-dependent families (sbim, gbim) register with
 * `needsProfiles`; `makeMapper` cannot build them from a layout alone
 * and the harness routes them through `search::` instead, as before.
 *
 * Registration idiom for a new out-of-tree family (in any linked TU):
 *
 *     VALLEY_REGISTER_MAPPER([] {
 *         MapperFamily f;
 *         f.name = "myfam";
 *         ...
 *         return f;
 *     }());
 *
 * Built-in families live in builtin_mappers.cc; the registry pins
 * that translation unit via an anchor symbol so static-library
 * linking cannot strip its registrations.
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

/** A registered mapper family. */
struct MapperFamily
{
    static constexpr const char *kPrefix = "map:";

    std::string name;    ///< registry key, [a-z0-9_]+
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

/**
 * Register a family. Throws `std::invalid_argument` on a duplicate
 * or malformed name, a malformed parameter schema, or a missing
 * build function (unless `needsProfiles`). Thread-safe; handles
 * returned by `findMapperFamily` stay valid across registrations.
 */
void registerMapper(MapperFamily family);

/** All registered families, registration order. */
std::vector<const MapperFamily *> mapperFamilies();

/** Find a family by name; nullptr if unknown. */
const MapperFamily *findMapperFamily(const std::string &name);

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

namespace detail {

/**
 * No-op defined in builtin_mappers.cc; calling it forces that TU
 * into the link so its self-registrations run (static-archive
 * stripping guard — a data anchor would be constant-folded away,
 * an out-of-line call cannot be without LTO).
 */
void linkBuiltinMappers();

/** Load-time registration helper for VALLEY_REGISTER_MAPPER. */
bool registerMapperAtLoad(MapperFamily family);

} // namespace detail
} // namespace mapping
} // namespace valley

#define VALLEY_MAPPER_CONCAT_INNER(a, b) a##b
#define VALLEY_MAPPER_CONCAT(a, b) VALLEY_MAPPER_CONCAT_INNER(a, b)

/** Self-register a MapperFamily at program load. */
#define VALLEY_REGISTER_MAPPER(family_expr)                                \
    static const bool VALLEY_MAPPER_CONCAT(valley_mapper_registered_,      \
                                           __COUNTER__) =                  \
        ::valley::mapping::detail::registerMapperAtLoad((family_expr))

#endif // VALLEY_MAPPING_MAPPER_REGISTRY_HH
