#include "synth/registry.hh"

#include <stdexcept>

#include "synth/patterns.hh"

namespace valley {
namespace synth {
namespace {

/** Schema tail shared by every family (warp/issue shaping). */
std::vector<spec::Param>
commonParams(unsigned warps, unsigned gap, const char *ipr)
{
    return {
        {"warps", spec::Kind::U64, std::to_string(warps),
         "warps per thread block (1-32)", {}},
        {"gap", spec::Kind::U64, std::to_string(gap),
         "SM cycles between a warp's accesses", {}},
        {"ipr", spec::Kind::F64, ipr,
         "dynamic instructions per memory request", {}},
        {"scale", spec::Kind::F64, "1",
         "problem-size scale in (0, 1]", {}},
    };
}

std::vector<spec::Param>
withCommon(std::vector<spec::Param> params, unsigned warps, unsigned gap,
           const char *ipr)
{
    for (auto &p : commonParams(warps, gap, ipr))
        params.push_back(std::move(p));
    return params;
}

} // namespace

bool
isSynthSpec(const std::string &name)
{
    return name.rfind(FamilyInfo::kPrefix, 0) == 0;
}

const std::vector<FamilyInfo> &
families()
{
    static const std::vector<FamilyInfo> table = {
        {"stream",
         "sequential streaming; tstride sets per-warp coalescing",
         false,
         withCommon({{"n", spec::Kind::U64, "1048576",
                      "elements streamed (quantized by 4096)", {}},
                     {"tstride", spec::Kind::U64, "4",
                      "bytes per thread: 4 = coalesced, >=128 = "
                      "32-line scatter", {}},
                     {"wr", spec::Kind::F64, "0.25",
                      "write fraction of the access stream", {}},
                     {"ipt", spec::Kind::U64, "64",
                      "instructions per warp per TB", {}}},
                    8, 8, "350"),
         &makeStream},
        {"strided",
         "column-block walk over a pitched array (partition camping)",
         true,
         withCommon({{"rows", spec::Kind::U64, "4096",
                      "array rows (quantized by 256)", {}},
                     {"pitch", spec::Kind::U64, "2048",
                      "row pitch in bytes (multiple of 128); sets "
                      "the valley width", {}},
                     {"rpt", spec::Kind::U64, "256",
                      "rows walked per TB", {}}},
                    8, 8, "300"),
         &makeStrided},
        {"tiled2d",
         "2D tile copy; order=col pins the x-block (valley) bits",
         true,
         withCommon({{"nx", spec::Kind::U64, "1024",
                      "row length (multiple of 32)", {}},
                     {"ny", spec::Kind::U64, "512",
                      "rows (quantized by 64)", {}},
                     {"tile", spec::Kind::U64, "32",
                      "rows per TB tile (divides ny)", {}},
                     {"order", spec::Kind::Str, "col",
                      "TB allocation order",
                      {"col", "row"}}},
                    8, 8, "400"),
         &makeTiled2d},
        {"stencil3d",
         "halo-exchange stencil over an n^3 grid (LPS generalized)",
         true,
         withCommon({{"nx", spec::Kind::U64, "256",
                      "xy plane dimension (pow2 in [64, 1024])", {}},
                     {"n", spec::Kind::U64, "32",
                      "z planes (quantized by 4; scale applies here)",
                      {}},
                     {"halo", spec::Kind::U64, "1",
                      "neighbor reach in y/z (1-4)", {}}},
                    4, 10, "440"),
         &makeStencil3d},
        {"csr_gather",
         "CSR gather over a deterministic graph (Mosaic-style "
         "irregular)",
         false,
         withCommon({{"nodes", spec::Kind::U64, "8192",
                      "graph nodes (quantized by 1024)", {}},
                     {"deg", spec::Kind::U64, "8",
                      "edges per node (1-64)", {}},
                     {"xmb", spec::Kind::U64, "16",
                      "feature-table footprint in MB (pow2 <= 32)",
                      {}},
                     {"loc", spec::Kind::F64, "0.25",
                      "fraction of neighborhood-local edges", {}},
                     {"seed", spec::Kind::U64, "1",
                      "graph/gather RNG seed", {}}},
                    8, 8, "170"),
         &makeCsrGather},
        {"attention",
         "QK gather: dense Q reads + top-k random K-row gathers",
         false,
         withCommon({{"seq", spec::Kind::U64, "2048",
                      "sequence length (quantized by 256)", {}},
                     {"dm", spec::Kind::U64, "64",
                      "head dimension in floats (multiple of 32)",
                      {}},
                     {"topk", spec::Kind::U64, "32",
                      "key rows gathered per query warp (1-256)", {}},
                     {"seed", spec::Kind::U64, "1",
                      "gather RNG seed", {}}},
                    8, 6, "120"),
         &makeAttention},
        {"hash_shuffle",
         "uniform random lines over a pow2 footprint (near-flat)",
         false,
         withCommon({{"fmb", spec::Kind::U64, "256",
                      "footprint in MB (power of two <= 512)", {}},
                     {"rpw", spec::Kind::U64, "16",
                      "random accesses per warp", {}},
                     {"tbs", spec::Kind::U64, "64",
                      "thread blocks (quantized by 8)", {}},
                     {"wr", spec::Kind::F64, "0.25",
                      "write fraction of the access stream", {}},
                     {"seed", spec::Kind::U64, "1",
                      "shuffle RNG seed", {}}},
                    8, 5, "40"),
         &makeHashShuffle},
        {"pipeline",
         "multi-kernel chain: produce -> transpose -> gather through "
         "shared regions",
         true,
         withCommon({{"stages", spec::Kind::U64, "3",
                      "pipeline stages (2-4)", {}},
                     {"n", spec::Kind::U64, "512",
                      "matrix dimension (quantized by 128, <= 2048)",
                      {}},
                     {"seed", spec::Kind::U64, "1",
                      "gather RNG seed", {}}},
                    8, 8, "250"),
         &makePipeline},
    };
    return table;
}

ResolvedSpec
resolve(const std::string &spec_string)
{
    const ResolvedSpec r = spec::resolve(spec_string, families());

    // Shared checks. Generators read integers through `unsigned`
    // (the seed as 64 bits) and `MemInstr::gap` holds 16 bits, so a
    // larger value would alias a smaller one under a different
    // canonical identity.
    for (const spec::Param &p : r.family().params)
        if (p.kind == spec::Kind::U64 && p.key != "seed" &&
            r.u(p.key) > 0xFFFFFFFFull)
            spec::error(spec_string, p.key + " must be <= 4294967295");
    if (r.u("gap") > 0xFFFF)
        spec::error(spec_string, "gap must be <= 65535");
    const std::uint64_t warps = r.u("warps");
    if (warps < 1 || warps > 32)
        spec::error(spec_string, "warps must be in [1, 32]");
    if (r.d("ipr") <= 0.0)
        spec::error(spec_string, "ipr must be > 0");
    const double s = r.d("scale");
    if (s <= 0.0 || s > 1.0)
        spec::error(spec_string, "scale must be in (0, 1]");
    return r;
}

std::unique_ptr<Workload>
make(const std::string &spec_string, double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw std::invalid_argument("workload scale must be in (0,1]");
    const ResolvedSpec r = resolve(spec_string);
    try {
        return r.family().make(r, scale);
    } catch (const std::invalid_argument &err) {
        spec::error(spec_string, err.what());
    }
}

} // namespace synth
} // namespace valley
