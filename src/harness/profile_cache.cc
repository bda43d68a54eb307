#include "harness/profile_cache.hh"

#include <sstream>

namespace valley {
namespace harness {

std::string
ProfileCodec::encode(const EntropyProfile &p)
{
    std::ostringstream out;
    out.precision(17);
    out << p.weight << ' ' << p.perBit.size();
    for (double b : p.perBit)
        out << ' ' << b;
    return out.str();
}

std::optional<EntropyProfile>
ProfileCodec::decode(const std::string &line)
{
    std::istringstream in(line);
    EntropyProfile p;
    std::size_t nbits = 0;
    in >> p.weight >> nbits;
    if (!in || nbits > 64)
        return std::nullopt;
    p.perBit.resize(nbits);
    for (double &b : p.perBit)
        in >> b;
    if (!in)
        return std::nullopt;
    std::string extra;
    if (in >> extra)
        return std::nullopt; // wrong field count for this schema
    return p;
}

RecordCache<ProfileCodec> &
profileCache()
{
    static RecordCache<ProfileCodec> cache;
    return cache;
}

std::string
profileCacheKey(const std::string &workload,
                const std::string &mapper_id, unsigned window,
                unsigned nbits, EntropyMetric metric, double scale)
{
    std::ostringstream out;
    out.precision(17); // distinct scales must yield distinct keys
    out << kProfileCacheVersion << ';' << workload << ';'
        << (mapper_id.empty() ? "identity" : mapper_id) << ';'
        << window << ';' << nbits << ';' << static_cast<int>(metric)
        << ';' << scale;
    return out.str();
}

EntropyProfile
profileWorkloadCached(const Workload &workload,
                      const workloads::ProfileOptions &opts,
                      double scale, const std::string &mapper_id)
{
    const std::string key = profileCacheKey(
        workload.info().abbrev, mapper_id, opts.window, opts.numBits,
        opts.metric, scale);
    if (auto hit = profileCache().lookup(key))
        return *hit;
    EntropyProfile p = workloads::profileWorkload(workload, opts);
    profileCache().store(key, p);
    return p;
}

} // namespace harness
} // namespace valley
