#include "synth/registry.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/fnv.hh"
#include "synth/patterns.hh"

namespace valley {
namespace synth {
namespace {

using MakeFn = std::unique_ptr<Workload> (*)(const ResolvedSpec &,
                                             double);

/** Family metadata + its generator, in listing order. */
struct Entry
{
    FamilyInfo info;
    MakeFn make;
};

/** Schema tail shared by every family (warp/issue shaping). */
std::vector<ParamSpec>
commonParams(unsigned warps, unsigned gap, const char *ipr)
{
    return {
        {"warps", ParamKind::U64, std::to_string(warps),
         "warps per thread block (1-32)", {}},
        {"gap", ParamKind::U64, std::to_string(gap),
         "SM cycles between a warp's accesses", {}},
        {"ipr", ParamKind::F64, ipr,
         "dynamic instructions per memory request", {}},
        {"scale", ParamKind::F64, "1",
         "problem-size scale in (0, 1]", {}},
    };
}

std::vector<ParamSpec>
withCommon(std::vector<ParamSpec> params, unsigned warps, unsigned gap,
           const char *ipr)
{
    for (auto &p : commonParams(warps, gap, ipr))
        params.push_back(std::move(p));
    return params;
}

const std::vector<Entry> &
entries()
{
    static const std::vector<Entry> e = {
        {{"stream",
          "sequential streaming; tstride sets per-warp coalescing",
          false,
          withCommon({{"n", ParamKind::U64, "1048576",
                       "elements streamed (quantized by 4096)", {}},
                      {"tstride", ParamKind::U64, "4",
                       "bytes per thread: 4 = coalesced, >=128 = "
                       "32-line scatter", {}},
                      {"wr", ParamKind::F64, "0.25",
                       "write fraction of the access stream", {}},
                      {"ipt", ParamKind::U64, "64",
                       "instructions per warp per TB", {}}},
                     8, 8, "350")},
         &makeStream},
        {{"strided",
          "column-block walk over a pitched array (partition camping)",
          true,
          withCommon({{"rows", ParamKind::U64, "4096",
                       "array rows (quantized by 256)", {}},
                      {"pitch", ParamKind::U64, "2048",
                       "row pitch in bytes (multiple of 128); sets "
                       "the valley width", {}},
                      {"rpt", ParamKind::U64, "256",
                       "rows walked per TB", {}}},
                     8, 8, "300")},
         &makeStrided},
        {{"tiled2d",
          "2D tile copy; order=col pins the x-block (valley) bits",
          true,
          withCommon({{"nx", ParamKind::U64, "1024",
                       "row length (multiple of 32)", {}},
                      {"ny", ParamKind::U64, "512",
                       "rows (quantized by 64)", {}},
                      {"tile", ParamKind::U64, "32",
                       "rows per TB tile (divides ny)", {}},
                      {"order", ParamKind::Str, "col",
                       "TB allocation order",
                       {"col", "row"}}},
                     8, 8, "400")},
         &makeTiled2d},
        {{"stencil3d",
          "halo-exchange stencil over an n^3 grid (LPS generalized)",
          true,
          withCommon({{"nx", ParamKind::U64, "256",
                       "xy plane dimension (pow2 in [64, 1024])", {}},
                      {"n", ParamKind::U64, "32",
                       "z planes (quantized by 4; scale applies here)",
                       {}},
                      {"halo", ParamKind::U64, "1",
                       "neighbor reach in y/z (1-4)", {}}},
                     4, 10, "440")},
         &makeStencil3d},
        {{"csr_gather",
          "CSR gather over a deterministic graph (Mosaic-style "
          "irregular)",
          false,
          withCommon({{"nodes", ParamKind::U64, "8192",
                       "graph nodes (quantized by 1024)", {}},
                      {"deg", ParamKind::U64, "8",
                       "edges per node (1-64)", {}},
                      {"xmb", ParamKind::U64, "16",
                       "feature-table footprint in MB (pow2 <= 32)",
                       {}},
                      {"loc", ParamKind::F64, "0.25",
                       "fraction of neighborhood-local edges", {}},
                      {"seed", ParamKind::U64, "1",
                       "graph/gather RNG seed", {}}},
                     8, 8, "170")},
         &makeCsrGather},
        {{"attention",
          "QK gather: dense Q reads + top-k random K-row gathers",
          false,
          withCommon({{"seq", ParamKind::U64, "2048",
                       "sequence length (quantized by 256)", {}},
                      {"dm", ParamKind::U64, "64",
                       "head dimension in floats (multiple of 32)",
                       {}},
                      {"topk", ParamKind::U64, "32",
                       "key rows gathered per query warp (1-256)", {}},
                      {"seed", ParamKind::U64, "1",
                       "gather RNG seed", {}}},
                     8, 6, "120")},
         &makeAttention},
        {{"hash_shuffle",
          "uniform random lines over a pow2 footprint (near-flat)",
          false,
          withCommon({{"fmb", ParamKind::U64, "256",
                       "footprint in MB (power of two <= 512)", {}},
                      {"rpw", ParamKind::U64, "16",
                       "random accesses per warp", {}},
                      {"tbs", ParamKind::U64, "64",
                       "thread blocks (quantized by 8)", {}},
                      {"wr", ParamKind::F64, "0.25",
                       "write fraction of the access stream", {}},
                      {"seed", ParamKind::U64, "1",
                       "shuffle RNG seed", {}}},
                     8, 5, "40")},
         &makeHashShuffle},
        {{"pipeline",
          "multi-kernel chain: produce -> transpose -> gather through "
          "shared regions",
          true,
          withCommon({{"stages", ParamKind::U64, "3",
                       "pipeline stages (2-4)", {}},
                      {"n", ParamKind::U64, "512",
                       "matrix dimension (quantized by 128, <= 2048)",
                       {}},
                      {"seed", ParamKind::U64, "1",
                       "gather RNG seed", {}}},
                     8, 8, "250")},
         &makePipeline},
    };
    return e;
}

[[noreturn]] void
resolveError(const std::string &family, const std::string &why)
{
    throw std::invalid_argument("synth:" + family + ": " + why);
}

const ParamSpec *
findParam(const FamilyInfo &fam, const std::string &key)
{
    for (const ParamSpec &p : fam.params)
        if (p.key == key)
            return &p;
    return nullptr;
}

std::uint64_t
parseU64(const FamilyInfo &fam, const ParamSpec &p,
         const std::string &text)
{
    // ASCII digits only: from_chars takes no sign or whitespace for an
    // unsigned type and reports overflow instead of wrapping.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        resolveError(fam.name, "parameter '" + p.key + "' value '" +
                                   text +
                                   "' is not a non-negative integer");
    return v;
}

double
parseF64(const FamilyInfo &fam, const ParamSpec &p,
         const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    // NaN would pass every later range check (it compares false).
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        !std::isfinite(v))
        resolveError(fam.name, "parameter '" + p.key + "' value '" +
                                   text + "' is not a finite number");
    return v;
}

/** Canonical text of a value (so `n=096` and `n=96` key the same). */
std::string
canonicalValue(const FamilyInfo &fam, const ParamSpec &p,
               const std::string &text)
{
    switch (p.kind) {
    case ParamKind::U64:
        return std::to_string(parseU64(fam, p, text));
    case ParamKind::F64: {
        std::ostringstream out;
        out.precision(17);
        out << parseF64(fam, p, text);
        return out.str();
    }
    case ParamKind::Str:
        for (const std::string &c : p.choices)
            if (c == text)
                return text;
        resolveError(fam.name, "parameter '" + p.key + "' value '" +
                                   text + "' is not one of its " +
                                   std::to_string(p.choices.size()) +
                                   " choices");
    }
    resolveError(fam.name, "unreachable");
}

} // namespace

ResolvedSpec::ResolvedSpec(
    const FamilyInfo *family,
    std::vector<std::pair<std::string, std::string>> values)
    : family_(family), values_(std::move(values))
{
}

const std::string &
ResolvedSpec::raw(const std::string &key) const
{
    for (const auto &[k, v] : values_)
        if (k == key)
            return v;
    throw std::logic_error("synth:" + family_->name +
                           ": no such parameter '" + key + "'");
}

std::uint64_t
ResolvedSpec::u(const std::string &key) const
{
    return std::strtoull(raw(key).c_str(), nullptr, 10);
}

double
ResolvedSpec::d(const std::string &key) const
{
    return std::strtod(raw(key).c_str(), nullptr);
}

const std::string &
ResolvedSpec::s(const std::string &key) const
{
    return raw(key);
}

std::string
ResolvedSpec::canonical() const
{
    std::string out = std::string(kSpecPrefix) + family_->name;
    for (const ParamSpec &p : family_->params) {
        const std::string &v = raw(p.key);
        if (v != p.def)
            out += "," + p.key + "=" + v;
    }
    return out;
}

std::uint64_t
ResolvedSpec::hash() const
{
    // FNV-1a over the canonical string: stable across runs and
    // platforms, so on-disk caches can key on it.
    return bits::fnv1a(canonical());
}

const std::vector<FamilyInfo> &
families()
{
    static const std::vector<FamilyInfo> f = [] {
        std::vector<FamilyInfo> v;
        for (const Entry &e : entries())
            v.push_back(e.info);
        return v;
    }();
    return f;
}

const FamilyInfo *
findFamily(const std::string &name)
{
    for (const Entry &e : entries())
        if (e.info.name == name)
            return &e.info;
    return nullptr;
}

ResolvedSpec
resolve(const SynthSpec &spec)
{
    const FamilyInfo *fam = findFamily(spec.family);
    if (!fam) {
        std::string known;
        for (const FamilyInfo &f : families())
            known += (known.empty() ? "" : ", ") + f.name;
        throw std::invalid_argument("unknown synth family '" +
                                    spec.family + "' (known: " + known +
                                    ")");
    }

    // Reject keys outside the schema.
    for (const auto &[k, v] : spec.params)
        if (!findParam(*fam, k))
            resolveError(fam->name, "unknown parameter '" + k + "'");

    // Canonicalize every schema key (given value or default).
    std::vector<std::pair<std::string, std::string>> values;
    values.reserve(fam->params.size());
    for (const ParamSpec &p : fam->params) {
        const std::string *given = spec.find(p.key);
        values.emplace_back(
            p.key, given ? canonicalValue(*fam, p, *given) : p.def);
    }
    ResolvedSpec r(fam, std::move(values));

    // Generic validation of the shared parameters.
    const std::uint64_t warps = r.u("warps");
    if (warps < 1 || warps > 32)
        resolveError(fam->name, "warps must be in [1, 32]");
    if (r.d("ipr") <= 0.0)
        resolveError(fam->name, "ipr must be > 0");
    const double s = r.d("scale");
    if (s <= 0.0 || s > 1.0)
        resolveError(fam->name, "scale must be in (0, 1]");
    return r;
}

ResolvedSpec
resolve(const std::string &spec_string)
{
    return resolve(SynthSpec::parse(spec_string));
}

std::unique_ptr<Workload>
make(const std::string &spec_string, double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw std::invalid_argument("workload scale must be in (0,1]");
    const ResolvedSpec spec = resolve(spec_string);
    for (const Entry &e : entries())
        if (e.info.name == spec.family().name)
            return e.make(spec, scale);
    throw std::logic_error("synth family without generator: " +
                           spec.family().name);
}

} // namespace synth
} // namespace valley
