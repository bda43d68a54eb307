/**
 * @file
 * The one spec grammar behind `synth:` workloads and `map:` mappers.
 *
 * Both evaluation axes name their members with spec strings
 *
 *     PREFIX FAMILY[,key=value]...
 *     e.g.  synth:stencil3d,n=96,halo=1   map:perm,order=RoCoBaCh
 *
 * and both resolve them the same way: against the family's parameter
 * schema, into a canonical string (schema order, canonically
 * re-printed values, default-valued parameters dropped) whose FNV-1a
 * hash keys every on-disk cache. This module is the single copy of
 * that machinery: `Spec::parse` (grammar only), the `Param` schema
 * entry, `resolveValues` (schema checks and canonicalisation),
 * `Resolved<Family>` (typed access, canonical form, hash), `resolve`
 * (the lookup of a spec's family in a table of families), `validKey`,
 * `splitList` (comma lists whose members are specs), and `parseU64`
 * and `parseF64`, the number rules spec values and the command-line
 * tools' numeric flags share.
 *
 * Grammar (no whitespace, no escaping):
 *
 *     spec   := PREFIX family ("," param)*
 *     param  := key "=" value
 *     family := key
 *     key    := [a-z0-9_]+
 *     value  := one or more characters up to the next ','
 *
 * Every grammar or schema error is a `std::invalid_argument` whose
 * message starts `bad spec '<text>': `, so a diagnostic always names
 * the spec that caused it.
 */

#ifndef VALLEY_COMMON_SPEC_HH
#define VALLEY_COMMON_SPEC_HH

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv.hh"

namespace valley {
namespace spec {

/**
 * key=value pairs: in written order after parsing, in schema order
 * after resolution.
 */
using Values = std::vector<std::pair<std::string, std::string>>;

/** True iff `key` is a non-empty [a-z0-9_]+ identifier. */
bool validKey(const std::string &key);

/**
 * `text` as an unsigned integer: ASCII digits only (no sign, no
 * whitespace) that fit in 64 bits; nullopt otherwise.
 */
std::optional<std::uint64_t> parseU64(const std::string &text);

/**
 * `text` as a real: the whole text must be one finite number as
 * `strtod` reads it (so a sign and leading whitespace pass); nullopt
 * for anything else, including NaN, infinities and overflow.
 */
std::optional<double> parseF64(const std::string &text);

/** Throw `std::invalid_argument("bad spec '<text>': <why>")`. */
[[noreturn]] void error(const std::string &text, const std::string &why);

/** Raw parse of one spec string (grammar only, no schema checks). */
struct Spec
{
    std::string family;
    Values params; ///< written order; duplicate keys rejected

    /**
     * Parse `text`, which must start with `prefix`. Throws on a
     * missing prefix, a bad family name, a malformed parameter (no
     * '=', bad key characters, empty value) or a duplicate key.
     */
    static Spec parse(const std::string &prefix, const std::string &text);

    /** Value of `key`, or nullptr if absent. */
    const std::string *find(const std::string &key) const;
};

/** Parameter value type; drives canonicalisation. */
enum class Kind
{
    U64, ///< ASCII digits that fit in 64 bits; re-printed in decimal
    F64, ///< finite real; re-printed with 17 significant digits
    Str, ///< text kept verbatim (no ','; limited to `choices` if set)
};

/** One schema entry of a family. */
struct Param
{
    std::string key; ///< [a-z0-9_]+
    Kind kind = Kind::U64;
    /**
     * Canonical default text; empty means the parameter is required.
     * The canonical spec omits parameters equal to their default.
     */
    std::string def;
    std::string help; ///< one-liner for the --list outputs
    std::vector<std::string> choices; ///< Str: allowed values, if any
    /** Extra check of the canonical value; throws invalid_argument. */
    std::function<void(const std::string &value)> validate = nullptr;
};

/**
 * Resolve a parsed spec against `family`'s schema: reject keys the
 * schema lacks, fill in defaults, reject a missing required
 * parameter, and canonicalise every written value (a `validate`
 * failure is rethrown with `text` added). Returns every schema key
 * with its canonical value, in schema order.
 */
Values resolveValues(const std::string &text, const Spec &parsed,
                     const std::string &family,
                     const std::vector<Param> &schema);

/**
 * The members of a comma list whose members may be specs, in input
 * order. Commas also separate a spec's parameters, so a fragment that
 * contains '=' and no ':' is a parameter cut off a spec: it is glued
 * back onto the preceding member, which must contain ':' (else this
 * throws `std::invalid_argument`). Empty fragments are dropped.
 *
 *     "MT,synth:stream,wr=0.75,LU" -> {MT, synth:stream,wr=0.75, LU}
 */
std::vector<std::string> splitList(const std::string &list);

/**
 * A spec validated against its family's schema: every schema key is
 * present with a canonically formatted value. `Family` provides
 * `name`, `params` (a `std::vector<Param>`) and a static `kPrefix`.
 */
template <typename Family>
class Resolved
{
  public:
    Resolved(const Family *family, Values values)
        : family_(family), values_(std::move(values))
    {
    }

    const Family &family() const { return *family_; }

    /** All (key, canonical value) pairs in schema order. */
    const Values &values() const { return values_; }

    /** Typed accessors; the key must exist in the schema. */
    std::uint64_t
    u(const std::string &key) const
    {
        return std::strtoull(s(key).c_str(), nullptr, 10);
    }

    double
    d(const std::string &key) const
    {
        return std::strtod(s(key).c_str(), nullptr);
    }

    const std::string &
    s(const std::string &key) const
    {
        for (const auto &[k, v] : values_)
            if (k == key)
                return v;
        throw std::logic_error(family_->name + " has no parameter '" +
                               key + "'");
    }

    /**
     * Canonical spec string: the prefix and family plus only the
     * parameters that differ from their defaults, in schema order.
     * Resolving it yields an identical `Resolved` (round trip), so it
     * is the stable identity every cache keys on.
     */
    std::string
    canonical() const
    {
        std::string out = Family::kPrefix + family_->name;
        for (std::size_t i = 0; i < values_.size(); ++i)
            if (values_[i].second != family_->params[i].def)
                out += "," + values_[i].first + "=" + values_[i].second;
        return out;
    }

    /** FNV-1a hash of `canonical()`, stable across runs and platforms. */
    std::uint64_t hash() const { return bits::fnv1a(canonical()); }

  private:
    const Family *family_;
    Values values_;
};

/**
 * Parse `text` and resolve it against the member of `families` its
 * family name picks (`resolveValues`). `Family` is as for `Resolved`;
 * the returned value points into `families`, so the table must
 * outlive it. An unknown family throws with a diagnostic listing
 * every family of the table, in table order.
 */
template <typename Family>
Resolved<Family>
resolve(const std::string &text, const std::vector<Family> &families)
{
    const Spec parsed = Spec::parse(Family::kPrefix, text);
    for (const Family &f : families)
        if (f.name == parsed.family)
            return Resolved<Family>(
                &f, resolveValues(text, parsed, f.name, f.params));
    std::string known;
    for (const Family &f : families)
        known += (known.empty() ? "" : ", ") + f.name;
    error(text, "unknown family '" + parsed.family +
                    "'; registered families are " + known);
}

} // namespace spec
} // namespace valley

#endif // VALLEY_COMMON_SPEC_HH
