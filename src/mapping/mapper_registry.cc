#include "mapping/mapper_registry.hh"

#include <memory>
#include <mutex>
#include <stdexcept>

namespace valley {
namespace mapping {

namespace {

struct Registry
{
    std::mutex mu;
    // unique_ptr keeps `const MapperFamily *` handles stable across
    // later registrations.
    std::vector<std::unique_ptr<const MapperFamily>> families;

    void
    add(MapperFamily f)
    {
        if (!spec::validKey(f.name))
            throw std::invalid_argument("bad mapper family name '" +
                                        f.name + "': want [a-z0-9_]+");
        if (!f.build && !f.needsProfiles)
            throw std::invalid_argument("mapper family '" + f.name +
                                        "' has no build function");
        if (!f.displayName)
            throw std::invalid_argument("mapper family '" + f.name +
                                        "' has no display name");
        for (const auto &p : f.params)
            if (!spec::validKey(p.key))
                throw std::invalid_argument(
                    "mapper family '" + f.name +
                    "' has a bad parameter key '" + p.key + "'");
        std::lock_guard<std::mutex> lock(mu);
        for (const auto &existing : families)
            if (existing->name == f.name)
                throw std::invalid_argument(
                    "duplicate mapper family '" + f.name + "'");
        families.push_back(
            std::make_unique<const MapperFamily>(std::move(f)));
    }

    static Registry &
    instance()
    {
        static Registry r;
        return r;
    }
};

/** Force builtin_mappers.cc to link before any registry lookup. */
void
ensureBuiltins()
{
    detail::linkBuiltinMappers();
}

} // namespace

bool
isMapperSpec(const std::string &name)
{
    return name.rfind(MapperFamily::kPrefix, 0) == 0;
}

void
registerMapper(MapperFamily family)
{
    Registry::instance().add(std::move(family));
}

std::vector<const MapperFamily *>
mapperFamilies()
{
    ensureBuiltins();
    Registry &r = Registry::instance();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<const MapperFamily *> out;
    out.reserve(r.families.size());
    for (const auto &f : r.families)
        out.push_back(f.get());
    return out;
}

const MapperFamily *
findMapperFamily(const std::string &name)
{
    ensureBuiltins();
    Registry &r = Registry::instance();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &f : r.families)
        if (f->name == name)
            return f.get();
    return nullptr;
}

ResolvedMapperSpec
resolveMapperSpec(const std::string &text)
{
    const spec::Spec parsed = spec::Spec::parse(MapperFamily::kPrefix, text);
    const MapperFamily *family = findMapperFamily(parsed.family);
    if (!family) {
        std::string known;
        for (const MapperFamily *f : mapperFamilies())
            known += (known.empty() ? "" : ", ") + f->name;
        spec::error(text, "unknown family '" + parsed.family +
                              "'; registered families are " + known);
    }
    return ResolvedMapperSpec(
        family, spec::resolveValues(text, parsed, family->name,
                                    family->params));
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

namespace detail {

bool
registerMapperAtLoad(MapperFamily family)
{
    registerMapper(std::move(family));
    return true;
}

} // namespace detail
} // namespace mapping
} // namespace valley
