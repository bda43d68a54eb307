/**
 * @file
 * The mapper family table (`mapperFamilies`): the paper's six
 * schemes, the searched SBIM/GBIM placeholders, the minimalist
 * open-page mapping, and the permutation-order family. Each builder
 * has the `MapperFamily::build` signature, so a table entry names it
 * directly.
 *
 * Every cache key depends on the BIMs built here: the golden BIM
 * hashes in tests/mapper_oracle_test.cc pin each family's matrix, so
 * edits must preserve draw order and seed tags.
 */

#include <stdexcept>

#include "bim/bim_builder.hh"
#include "mapping/mapper_registry.hh"

namespace valley {
namespace mapping {
namespace {

BitMatrix
buildBase(const ResolvedMapperSpec &, const AddressLayout &layout,
          XorShiftRng &)
{
    return BitMatrix::identity(layout.addrBits);
}

BitMatrix
buildPm(const ResolvedMapperSpec &, const AddressLayout &layout,
        XorShiftRng &)
{
    // Each channel/vault/bank bit XORed with a distinct least
    // significant row bit (Fig. 8): the narrow-range gather the Broad
    // schemes improve upon.
    const std::vector<unsigned> targets = layout.randomizeTargets();
    const std::vector<unsigned> row_bits = layout.rowBits();
    if (row_bits.size() < targets.size())
        throw std::invalid_argument("PM: not enough row bits");
    const std::vector<unsigned> donors(row_bits.begin(),
                                       row_bits.begin() + targets.size());
    return bim::permutationBased(layout.addrBits, targets, donors);
}

BitMatrix
buildRmp(const ResolvedMapperSpec &, const AddressLayout &layout,
         XorShiftRng &)
{
    // RMP routes the 6 bits with the highest *average* entropy across
    // all benchmarks into the channel/bank positions (Section IV-B).
    // Applying that methodology to this repository's workload suite
    // (see bench/fig05) selects bits 11-16 on the GDDR5 layout; other
    // layouts fall back to a generic above-column donor choice. Like
    // the paper's RMP, a static global choice cannot adapt to
    // per-application valleys — exactly the weakness the Broad
    // schemes fix.
    std::vector<unsigned> sources;
    if (layout.addrBits == 30 && layout.vault.width == 0) {
        sources = {11, 12, 13, 14, 15, 16};
    } else {
        const std::vector<unsigned> targets = layout.randomizeTargets();
        sources.assign(targets.begin(), targets.end() - 2);
        sources.push_back(layout.colHi.lo + 1);
        sources.push_back(layout.colHi.lo + 2);
    }
    return bim::remap(layout.addrBits, layout.randomizeTargets(), sources);
}

BitMatrix
buildPae(const ResolvedMapperSpec &, const AddressLayout &layout,
         XorShiftRng &rng)
{
    return bim::randomBroad(layout.addrBits, layout.randomizeTargets(),
                            layout.pageMask(), rng);
}

BitMatrix
buildFae(const ResolvedMapperSpec &, const AddressLayout &layout,
         XorShiftRng &rng)
{
    return bim::randomBroad(layout.addrBits, layout.randomizeTargets(),
                            layout.nonBlockMask(), rng);
}

BitMatrix
buildAll(const ResolvedMapperSpec &, const AddressLayout &layout,
         XorShiftRng &rng)
{
    // ALL rewrites every non-block bit. Bit 6 stays identity: the
    // memory hierarchy operates on 128 B transactions, so bits [6:0]
    // are intra-transaction offsets and remapping bit 6 would break
    // one-to-one mapping at transaction granularity (see DESIGN.md).
    const unsigned n = layout.addrBits;
    std::vector<unsigned> targets;
    std::uint64_t mask = layout.nonBlockMask() & ~(1ull << 6);
    for (unsigned b = 0; b < n; ++b)
        if ((mask >> b) & 1)
            targets.push_back(b);
    return bim::randomBroad(n, targets, mask, rng);
}

BitMatrix
buildMop(const ResolvedMapperSpec &, const AddressLayout &layout,
         XorShiftRng &)
{
    // The minimalist open-page mapping of Kaseridis et al. [7]:
    // donors are the bits directly above the high column field, i.e.
    // the lowest row bits — consecutive DRAM pages interleave across
    // banks and channels (good for CPU streams; the paper shows the
    // strategy cannot adapt to GPU valleys).
    const std::vector<unsigned> targets = layout.randomizeTargets();
    std::vector<unsigned> sources;
    for (unsigned i = 0; i < targets.size(); ++i)
        sources.push_back(layout.row.lo + i);
    return bim::remap(layout.addrBits, targets, sources);
}

/** A family with a fixed display name. */
MapperFamily
paperFamily(std::string name, std::string display, std::string summary,
            std::uint64_t seed_tag, std::vector<spec::Param> params,
            decltype(MapperFamily::build) build)
{
    MapperFamily f;
    f.name = std::move(name);
    f.summary = std::move(summary);
    f.seedTag = seed_tag;
    f.params = std::move(params);
    f.displayName = [display](const ResolvedMapperSpec &) {
        return display;
    };
    f.build = std::move(build);
    return f;
}

/** needsProfiles placeholder for the searched families. */
MapperFamily
searchedFamily(std::string name, std::string display,
               std::string summary, std::uint64_t seed_tag)
{
    MapperFamily f = paperFamily(std::move(name), std::move(display),
                                 std::move(summary), seed_tag, {},
                                 nullptr);
    f.needsProfiles = true;
    return f;
}

/** The `seed=` parameter of the randomized Broad families. */
spec::Param
seedParam()
{
    return {"seed", spec::Kind::U64, "0",
            "BIM instantiation seed; 0 inherits the harness seed", {}};
}

// --- the permutation-order family ----------------------------------

/** Field tokens of a `map:perm` order string, MSB first. */
const char *const kPermTokens[] = {"Ro", "Co", "Ch", "Va", "Ba"};

std::vector<std::string>
parseOrderTokens(const std::string &order)
{
    std::vector<std::string> tokens;
    for (std::size_t pos = 0; pos < order.size(); pos += 2) {
        const std::string tok = order.substr(pos, 2);
        bool known = false;
        for (const char *t : kPermTokens)
            known = known || tok == t;
        if (!known)
            throw std::invalid_argument(
                "bad perm order '" + order + "': unknown field token '" +
                tok + "' (want a sequence of Ro/Co/Ch/Va/Ba)");
        for (const auto &seen : tokens)
            if (seen == tok)
                throw std::invalid_argument("bad perm order '" + order +
                                            "': duplicate field token '" +
                                            tok + "'");
        tokens.push_back(tok);
    }
    if (tokens.empty())
        throw std::invalid_argument("bad perm order '" + order +
                                    "': empty");
    return tokens;
}

/** Input bit positions of one order token, ascending. */
std::vector<unsigned>
tokenBits(const std::string &tok, const AddressLayout &layout)
{
    const auto bitsOf = [](const BitField &f) {
        std::vector<unsigned> v;
        for (unsigned i = 0; i < f.width; ++i)
            v.push_back(f.lo + i);
        return v;
    };
    if (tok == "Ro")
        return bitsOf(layout.row);
    if (tok == "Ch")
        return bitsOf(layout.channel);
    if (tok == "Va")
        return bitsOf(layout.vault);
    if (tok == "Ba")
        return bitsOf(layout.bank);
    // Co: the merged column, low bits first.
    std::vector<unsigned> v = bitsOf(layout.colLo);
    for (unsigned b : bitsOf(layout.colHi))
        v.push_back(b);
    return v;
}

/**
 * Pure bit-permutation mapper: place the address fields above the
 * block offset in the requested MSB→LSB order. `order` must name
 * every field the layout actually has (Va only on 3D layouts, Co
 * only when there are column bits) exactly once.
 */
BitMatrix
buildPerm(const ResolvedMapperSpec &r, const AddressLayout &layout,
          XorShiftRng &)
{
    const std::string &order = r.s("order");
    const std::vector<std::string> tokens = parseOrderTokens(order);

    for (const char *t : kPermTokens) {
        const bool present = !tokenBits(t, layout).empty();
        bool named = false;
        for (const auto &tok : tokens)
            named = named || tok == t;
        if (present && !named)
            throw std::invalid_argument(
                "bad perm order '" + order + "' for layout '" +
                layout.name + "': missing field " + t);
        if (!present && named)
            throw std::invalid_argument(
                "bad perm order '" + order + "' for layout '" +
                layout.name + "': field " + t + " is absent here");
    }

    // Output positions above the block field, filled LSB first from
    // the reversed (LSB-first) token order.
    std::vector<unsigned> source_of_output(layout.addrBits);
    for (unsigned i = 0; i < layout.block.width; ++i)
        source_of_output[layout.block.lo + i] = layout.block.lo + i;

    unsigned out = layout.block.lo + layout.block.width;
    for (auto it = tokens.rbegin(); it != tokens.rend(); ++it)
        for (unsigned in : tokenBits(*it, layout))
            source_of_output[out++] = in;

    return bim::permutation(layout.addrBits, source_of_output);
}

MapperFamily
permFamily()
{
    MapperFamily f;
    f.name = "perm";
    f.summary = "pure field permutation; order= lists fields MSB to "
                "LSB from Ro/Co/Ch/Va/Ba";
    f.seedTag = 17; // never draws; tag only namespaces the seed stream
    f.params = {{"order", spec::Kind::Str, "",
                 "field order, MSB first, e.g. RoCoBaCh (required)", {},
                 [](const std::string &v) { parseOrderTokens(v); }}};
    f.displayName = [](const ResolvedMapperSpec &r) {
        return "PERM-" + r.s("order");
    };
    f.build = buildPerm;
    return f;
}

} // namespace

const std::vector<MapperFamily> &
mapperFamilies()
{
    // Seed tags: 0..7 for base..gbim, 16 for mop, 17 for perm. Only
    // pae, fae and all draw from their RNG, so their tags fix every
    // BIM they build: the golden BIM hashes of
    // tests/mapper_oracle_test.cc pin them, and
    // tests/mapper_registry_test.cc pins the tags of base..gbim.
    static const std::vector<MapperFamily> table = {
        paperFamily("base", "BASE",
                    "the native layout order (identity BIM)", 0, {},
                    buildBase),
        paperFamily("pm", "PM",
                    "permutation-based mapping: channel/bank bits XOR "
                    "low row bits",
                    1, {}, buildPm),
        paperFamily("rmp", "RMP",
                    "remap: globally highest-entropy bits into "
                    "channel/bank",
                    2, {}, buildRmp),
        paperFamily("pae", "PAE",
                    "Broad over the DRAM page address bits "
                    "(power-efficient)",
                    3, {seedParam()}, buildPae),
        paperFamily("fae", "FAE", "Broad over the full non-block address",
                    4, {seedParam()}, buildFae),
        paperFamily("all", "ALL",
                    "Broad rewriting every non-block bit (rows and "
                    "columns too)",
                    5, {seedParam()}, buildAll),
        searchedFamily("sbim", "SBIM",
                       "per-workload searched BIM (built by "
                       "search::setMapper)",
                       6),
        searchedFamily("gbim", "GBIM",
                       "joint workload-set searched BIM (built by "
                       "search::setMapper)",
                       7),
        paperFamily("mop", "MOP",
                    "minimalist open-page: lowest row bits remapped "
                    "into channel/bank",
                    16, {}, buildMop),
        permFamily(),
    };
    return table;
}

} // namespace mapping
} // namespace valley
