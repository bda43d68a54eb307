#include "common/spec.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <sstream>

namespace valley {
namespace spec {

namespace {

/** Canonical text of a written value under its parameter kind. */
std::string
canonicalValue(const std::string &text, const Param &p,
               const std::string &value)
{
    const std::string what = "parameter '" + p.key + "' value '" + value;
    switch (p.kind) {
    case Kind::U64:
        if (const std::optional<std::uint64_t> v = parseU64(value))
            return std::to_string(*v);
        error(text, what + "' is not a non-negative integer");
    case Kind::F64:
        if (const std::optional<double> v = parseF64(value)) {
            std::ostringstream out;
            out.precision(17);
            out << *v;
            return out.str();
        }
        error(text, what + "' is not a finite number");
    case Kind::Str:
        if (p.choices.empty())
            return value;
        for (const std::string &c : p.choices)
            if (c == value)
                return value;
        error(text, what + "' is not one of its " +
                        std::to_string(p.choices.size()) + " choices");
    }
    error(text, "unreachable");
}

} // namespace

std::optional<std::uint64_t>
parseU64(const std::string &text)
{
    // from_chars takes no sign or whitespace for an unsigned type and
    // reports overflow instead of wrapping.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

std::optional<double>
parseF64(const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    // NaN would pass every later range check (it compares false).
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        !std::isfinite(v))
        return std::nullopt;
    return v;
}

bool
validKey(const std::string &key)
{
    if (key.empty())
        return false;
    for (char c : key)
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
            return false;
    return true;
}

void
error(const std::string &text, const std::string &why)
{
    throw std::invalid_argument("bad spec '" + text + "': " + why);
}

Spec
Spec::parse(const std::string &prefix, const std::string &text)
{
    if (text.rfind(prefix, 0) != 0)
        error(text, "missing '" + prefix + "' prefix");

    // Split on ',': the grammar has no escaping, so values cannot
    // contain commas.
    std::vector<std::string> fields;
    const std::string body = text.substr(prefix.size());
    for (std::size_t pos = 0;;) {
        const std::size_t comma = body.find(',', pos);
        fields.push_back(body.substr(pos, comma - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }

    Spec out;
    out.family = fields.front();
    if (!validKey(out.family))
        error(text, "bad family name '" + out.family + "'");

    for (std::size_t i = 1; i < fields.size(); ++i) {
        const std::string &f = fields[i];
        const std::size_t eq = f.find('=');
        if (eq == std::string::npos)
            error(text, "parameter '" + f + "' has no '='");
        const std::string key = f.substr(0, eq);
        const std::string value = f.substr(eq + 1);
        if (!validKey(key))
            error(text, "bad parameter key '" + key + "'");
        if (value.empty())
            error(text, "parameter '" + key + "' has no value");
        if (out.find(key))
            error(text, "duplicate parameter '" + key + "'");
        out.params.emplace_back(key, value);
    }
    return out;
}

const std::string *
Spec::find(const std::string &key) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return &v;
    return nullptr;
}

Values
resolveValues(const std::string &text, const Spec &parsed,
              const std::string &family, const std::vector<Param> &schema)
{
    // Every written parameter must exist in the schema.
    for (const auto &[key, value] : parsed.params) {
        bool known = false;
        for (const Param &p : schema)
            known = known || p.key == key;
        if (!known) {
            std::string keys;
            for (const Param &p : schema)
                keys += (keys.empty() ? "" : ", ") + p.key;
            error(text, "family '" + family + "' has no parameter '" +
                            key + "'; known parameters are " +
                            (keys.empty() ? std::string("(none)") : keys));
        }
    }

    // Schema order: the written value, canonicalised, or the default.
    Values values;
    values.reserve(schema.size());
    for (const Param &p : schema) {
        const std::string *written = parsed.find(p.key);
        if (!written && p.def.empty())
            error(text, "family '" + family + "' requires parameter '" +
                            p.key + "'");
        std::string value =
            written ? canonicalValue(text, p, *written) : p.def;
        if (written && p.validate) {
            try {
                p.validate(value);
            } catch (const std::invalid_argument &e) {
                error(text, e.what());
            }
        }
        values.emplace_back(p.key, std::move(value));
    }
    return values;
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> members;
    for (std::size_t pos = 0;;) {
        const std::size_t comma = list.find(',', pos);
        const std::string f = list.substr(pos, comma - pos);
        if (f.find('=') != std::string::npos &&
            f.find(':') == std::string::npos) {
            if (members.empty() ||
                members.back().find(':') == std::string::npos)
                throw std::invalid_argument(
                    "bad list '" + list + "': parameter '" + f +
                    "' follows no spec");
            members.back() += ',' + f;
        } else if (!f.empty()) {
            members.push_back(f);
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return members;
}

} // namespace spec
} // namespace valley
