#include "mapping/mapper_registry.hh"

#include <memory>
#include <stdexcept>

namespace valley {
namespace mapping {

bool
isMapperSpec(const std::string &name)
{
    return name.rfind(MapperFamily::kPrefix, 0) == 0;
}

ResolvedMapperSpec
resolveMapperSpec(const std::string &text)
{
    return spec::resolve(text, mapperFamilies());
}

std::string
canonicalMapperSpec(const std::string &spec)
{
    return resolveMapperSpec(spec).canonical();
}

std::uint64_t
mapperSeed(const MapperFamily &family, std::uint64_t seed)
{
    // Load-bearing for every cached result: tests/mapper_oracle_test.cc
    // pins the BIMs this mix draws.
    return (seed + 1) * 0x9E3779B97F4A7C15ull ^
           (family.seedTag + 1) * 0xBF58476D1CE4E5B9ull;
}

std::unique_ptr<AddressMapper>
makeMapper(const std::string &spec, const AddressLayout &layout,
           std::uint64_t seed)
{
    const ResolvedMapperSpec resolved = resolveMapperSpec(spec);
    const MapperFamily &family = resolved.family();
    if (family.needsProfiles)
        throw std::invalid_argument(
            "makeMapper: " + resolved.canonical() +
            " requires workload profiles; use the search:: mappers");

    // A spec-pinned `seed=` overrides the caller's seed so the spec
    // string alone names the exact matrix; 0 (the default) inherits.
    std::uint64_t effective = seed;
    for (const auto &p : family.params)
        if (p.key == "seed" && resolved.u("seed") != 0)
            effective = resolved.u("seed");

    XorShiftRng rng(mapperSeed(family, effective));
    BitMatrix m = family.build(resolved, layout, rng);
    return std::make_unique<AddressMapper>(family.displayName(resolved),
                                           layout, std::move(m));
}

std::string
displayName(const std::string &spec)
{
    const ResolvedMapperSpec r = resolveMapperSpec(spec);
    return r.family().displayName(r);
}

const std::vector<std::string> &
paperMappers()
{
    static const std::vector<std::string> order = {kBase, kPm,  kRmp,
                                                   kPae,  kFae, kAll};
    return order;
}

} // namespace mapping
} // namespace valley
