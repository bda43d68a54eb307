#include "search/sbim_cache.hh"

#include <cinttypes>
#include <sstream>

#include "mapping/layout_registry.hh"

namespace valley {
namespace search {

std::string
SbimCodec::encode(const SearchResult &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.bim.size();
    for (unsigned row = 0; row < r.bim.size(); ++row)
        out << ' ' << std::hex << r.bim.row(row) << std::dec;
    out << ' ' << r.cost << ' ' << r.identityCost << ' '
        << r.targetEntropy.size();
    for (double e : r.targetEntropy)
        out << ' ' << e;
    return out.str();
}

std::optional<SearchResult>
SbimCodec::decode(const std::string &line)
{
    std::istringstream in(line);
    unsigned n = 0;
    in >> n;
    if (!in || n < 1 || n > 64)
        return std::nullopt;
    SearchResult r;
    r.bim = BitMatrix(n);
    for (unsigned row = 0; row < n; ++row) {
        std::uint64_t mask = 0;
        in >> std::hex >> mask >> std::dec;
        // A row reaching past the matrix is a corrupt line, not a
        // matrix: setRow only asserts that it fits.
        if (!in || (n < 64 && (mask >> n) != 0))
            return std::nullopt;
        r.bim.setRow(row, mask);
    }
    std::size_t targets = 0;
    in >> r.cost >> r.identityCost >> targets;
    if (!in || targets > 64)
        return std::nullopt;
    r.targetEntropy.resize(targets);
    for (double &e : r.targetEntropy)
        in >> e;
    if (!in || !r.bim.invertible())
        return std::nullopt; // corrupt line: treat as a miss
    std::string extra;
    if (in >> extra)
        return std::nullopt; // wrong field count for this schema
    return r;
}

harness::RecordCache<SbimCodec> &
sbimCache()
{
    static harness::RecordCache<SbimCodec> cache;
    return cache;
}

std::string
sbimCacheKey(const workloads::WorkloadSet &set, double scale,
             const AddressLayout &layout, const SearchOptions &opts)
{
    // set.key() is already member-wise escaped and ','-joined, and
    // layoutIdentity escapes a free-form layout name.
    std::ostringstream out;
    out.precision(17);
    out << kSbimCacheVersion << ';' << kSearchVersion << ';'
        << set.key() << ';' << scale << ';'
        << mapping::layoutIdentity(layout) << ';';
    out << 't';
    for (unsigned t : opts.targets)
        out << '.' << t;
    out << ";c" << std::hex << opts.candidateMask << std::dec << ';'
        << opts.window << ';' << static_cast<int>(opts.metric) << ';'
        << combinerName(opts.combiner) << ';' << opts.seed << ';'
        << opts.restarts << ';' << opts.iterations << ";e"
        << opts.maxEvaluations;
    // Weights shape the joint objective and hence the searched
    // matrix; empty (uniform) adds no field.
    if (!opts.memberWeights.empty()) {
        out << ";w";
        for (double w : opts.memberWeights)
            out << ',' << w;
    }
    return out.str();
}

} // namespace search
} // namespace valley
