#include "mapping/mapper_registry.hh"

#include <cctype>
#include <charconv>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/fnv.hh"

namespace valley {
namespace mapping {

namespace {

bool
validKey(const std::string &k)
{
    if (k.empty())
        return false;
    for (char c : k)
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
            return false;
    return true;
}

/** Canonical text of a value under its parameter kind; throws. */
std::string
canonicalValue(const MapperParamSpec &p, const std::string &value,
               const std::string &spec_text)
{
    std::string out = value;
    if (p.kind == MapperParamKind::U64) {
        // ASCII digits only: from_chars takes no sign or whitespace
        // for an unsigned type and reports overflow instead of
        // wrapping.
        std::uint64_t v = 0;
        const char *end = value.data() + value.size();
        const auto [ptr, ec] = std::from_chars(value.data(), end, v);
        if (ec != std::errc() || ptr != end)
            throw std::invalid_argument(
                "bad mapper spec '" + spec_text + "': parameter '" +
                p.key + "' wants an unsigned integer, got '" + value +
                "'");
        out = std::to_string(v);
    }
    if (p.validate)
        p.validate(out);
    return out;
}

struct Registry
{
    std::mutex mu;
    // unique_ptr keeps `const MapperFamily *` handles stable across
    // later registrations.
    std::vector<std::unique_ptr<const MapperFamily>> families;

    void
    add(MapperFamily f)
    {
        if (!validKey(f.name))
            throw std::invalid_argument("bad mapper family name '" +
                                        f.name + "': want [a-z0-9_]+");
        if (!f.build && !f.needsProfiles)
            throw std::invalid_argument("mapper family '" + f.name +
                                        "' has no build function");
        if (!f.displayName)
            throw std::invalid_argument("mapper family '" + f.name +
                                        "' has no display name");
        for (const auto &p : f.params)
            if (!validKey(p.key))
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

const std::string &
ResolvedMapperSpec::value(const std::string &key) const
{
    for (std::size_t i = 0; i < family_->params.size(); ++i)
        if (family_->params[i].key == key)
            return values_[i];
    throw std::invalid_argument("mapper family '" + family_->name +
                                "' has no parameter '" + key + "'");
}

std::uint64_t
ResolvedMapperSpec::u64(const std::string &key) const
{
    return std::stoull(value(key));
}

std::string
ResolvedMapperSpec::canonical() const
{
    std::string out = std::string(kMapperPrefix) + family_->name;
    for (std::size_t i = 0; i < family_->params.size(); ++i)
        if (values_[i] != family_->params[i].def)
            out += "," + family_->params[i].key + "=" + values_[i];
    return out;
}

std::uint64_t
ResolvedMapperSpec::hash() const
{
    return bits::fnv1a(canonical());
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
resolveMapperSpec(const std::string &spec)
{
    const MapperSpec parsed = MapperSpec::parse(spec);

    const MapperFamily *family = findMapperFamily(parsed.family);
    if (!family) {
        std::string known;
        for (const MapperFamily *f : mapperFamilies())
            known += (known.empty() ? "" : ", ") + f->name;
        throw std::invalid_argument(
            "bad mapper spec '" + spec + "': unknown family '" +
            parsed.family + "'; registered families are " + known);
    }

    // Every written parameter must exist in the schema.
    for (const auto &[key, value] : parsed.params) {
        bool known = false;
        for (const auto &p : family->params)
            known = known || p.key == key;
        if (!known) {
            std::string keys;
            for (const auto &p : family->params)
                keys += (keys.empty() ? "" : ", ") + p.key;
            throw std::invalid_argument(
                "bad mapper spec '" + spec + "': family '" +
                family->name + "' has no parameter '" + key +
                "'; known parameters are " +
                (keys.empty() ? std::string("(none)") : keys));
        }
    }

    // Fill schema order: written value (canonicalized) or default.
    std::vector<std::string> values;
    values.reserve(family->params.size());
    for (const auto &p : family->params) {
        const std::string *written = parsed.find(p.key);
        if (!written && p.def.empty())
            throw std::invalid_argument(
                "bad mapper spec '" + spec + "': family '" +
                family->name + "' requires parameter '" + p.key + "'");
        values.push_back(
            written ? canonicalValue(p, *written, spec) : p.def);
    }
    return ResolvedMapperSpec(family, std::move(values));
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
        if (p.key == "seed" && resolved.u64("seed") != 0)
            effective = resolved.u64("seed");

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
