/**
 * @file
 * Unit tests for the memory coalescer and trace builder: the
 * coalescer against a sort + unique oracle, the flat `TbTrace`
 * layout's invariants, and golden hashes of the Table II and write
 * synth traces that pin every line, flag and gap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <type_traits>

#include "common/fnv.hh"
#include "common/rng.hh"
#include "workloads/trace.hh"
#include "workloads/workload.hh"

using namespace valley;

namespace {

/** The coalescer's specification: sorted, distinct a / 128 * 128. */
std::vector<Addr>
referenceLines(std::vector<Addr> addrs)
{
    for (Addr &a : addrs)
        a = a / 128 * 128;
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    return addrs;
}

/** Whether `view` lies inside `store` (a total pointer order). */
template <typename T>
bool
inside(std::span<const T> view, const std::vector<T> &store)
{
    const std::less_equal<const T *> le;
    return le(store.data(), view.data()) &&
           le(view.data() + view.size(), store.data() + store.size());
}

struct TraceDigest
{
    std::uint64_t lines = 0;
    std::uint64_t hash = bits::kFnvOffsetBasis;
};

/**
 * FNV-1a over a workload's whole trace: for each instruction, its
 * kernel, TB and warp index, write flag, gap and line count, then its
 * lines, in the warps -> instrs -> lines order every consumer walks.
 */
TraceDigest
traceDigest(const Workload &w)
{
    TraceDigest d;
    for (std::size_t k = 0; k < w.kernels().size(); ++k) {
        const Kernel &kernel = w.kernels()[k];
        for (TbId tb = 0; tb < kernel.numTbs(); ++tb) {
            const TbTrace t = kernel.trace(tb);
            for (std::size_t warp = 0; warp < t.warps.size(); ++warp)
                for (const MemInstr &instr : t.warps[warp].instrs) {
                    for (std::uint64_t v :
                         {std::uint64_t{k}, std::uint64_t{tb},
                          std::uint64_t{warp}, std::uint64_t{instr.write},
                          std::uint64_t{instr.gap},
                          std::uint64_t{instr.lines.size()}})
                        d.hash = bits::fnv1aU64(d.hash, v);
                    for (Addr line : instr.lines)
                        d.hash = bits::fnv1aU64(d.hash, line);
                    d.lines += instr.lines.size();
                }
        }
    }
    return d;
}

struct GoldenTrace
{
    const char *workload;
    double scale;
    std::uint64_t lines;
    std::uint64_t hash;
};

/**
 * Captured from the per-instruction-vector traces that preceded the
 * flat layout; a trace change that is meant re-captures them.
 */
constexpr GoldenTrace kGoldenTraces[] = {
    {"MT", 1.0, 270336u, 0x494dafe7a6235525ull},
    {"LU", 1.0, 1296624u, 0x6acd01d023895e61ull},
    {"GS", 1.0, 57014u, 0x53ed9afb7afb7522ull},
    {"NW", 1.0, 65533u, 0x32a167c050b95f07ull},
    {"LPS", 1.0, 384512u, 0x138d1af9f58f3e25ull},
    {"SC", 1.0, 102400u, 0x40b2fd78663f5625ull},
    {"SRAD2", 1.0, 65408u, 0x63e23f010c316ba5ull},
    {"DWT2D", 1.0, 218240u, 0xb6761c4c100fb9e5ull},
    {"HS", 1.0, 49152u, 0x4e47c82f7831f3a5ull},
    {"SP", 1.0, 131328u, 0x5d5d7fd001a40a25ull},
    {"FWT", 1.0, 270336u, 0x8af8e48a3b02a725ull},
    {"NN", 1.0, 139264u, 0xba797115cf1730a5ull},
    {"SPMV", 1.0, 643200u, 0x8683ed1e910902abull},
    {"LM", 1.0, 458752u, 0xe8d81da6156f07a5ull},
    {"MUM", 1.0, 100863u, 0x010053b36b480281ull},
    {"BFS", 1.0, 351896u, 0x6038de1cf89452e7ull},
    // benchmark/'s write_cells specs (hash_shuffle at seed 1).
    {"synth:stream,wr=0.75,n=4194304", 0.25, 57344u,
     0x883da5598e3e9625ull},
    {"synth:hash_shuffle,wr=0.5,tbs=128,seed=1", 0.25, 133119u,
     0x24067c1c2bdb90b4ull},
};

} // namespace

TEST(Coalesce, FullyCoalescedWarpIsOneLine)
{
    // 32 consecutive 4 B accesses span one 128 B line.
    std::vector<Addr> addrs;
    for (unsigned t = 0; t < 32; ++t)
        addrs.push_back(0x1000 + t * 4);
    ASSERT_EQ(coalesce(addrs, 128), 1u);
    EXPECT_EQ(addrs[0], 0x1000u);
}

TEST(Coalesce, MisalignedWarpSpansTwoLines)
{
    std::vector<Addr> addrs;
    for (unsigned t = 0; t < 32; ++t)
        addrs.push_back(0x1040 + t * 4);
    EXPECT_EQ(coalesce(addrs, 128), 2u);
}

TEST(Coalesce, StridedWarpScattersTo32Lines)
{
    // The Fig. 2 column-major pathology: stride = one matrix row.
    std::vector<Addr> addrs;
    for (unsigned t = 0; t < 32; ++t)
        addrs.push_back(Addr{t} * 2048);
    ASSERT_EQ(coalesce(addrs, 128), 32u);
    EXPECT_EQ(addrs[1] - addrs[0], 2048u);
}

TEST(Coalesce, DuplicateAddressesMerge)
{
    // Broadcast: all threads read the same word.
    std::vector<Addr> addrs(32, 0x4000);
    EXPECT_EQ(coalesce(addrs, 128), 1u);
}

TEST(Coalesce, OutputSortedUnique)
{
    std::vector<Addr> addrs = {0x300, 0x100, 0x300, 0x200};
    ASSERT_EQ(coalesce(addrs, 128), 3u);
    EXPECT_LT(addrs[0], addrs[1]);
    EXPECT_LT(addrs[1], addrs[2]);
}

TEST(Coalesce, MatchesSortUniqueOracleOnSeededWarps)
{
    // 10k thread-address sets: strided (zero, negative, sub-line and
    // scatter strides) or scattered over a window, 1, 2-32 or 33-64
    // threads, then maybe shuffled and padded with duplicates. Each
    // runs through the free function and through the builder.
    static constexpr std::int64_t kStrides[] = {0,    4,     -4,  8,
                                                128,  -128,  132, 2048,
                                                -2048, 4100};
    XorShiftRng rng(26);
    for (unsigned c = 0; c < 10000; ++c) {
        const unsigned threads = c % 8 == 0   ? 1
                                 : c % 8 == 1 ? 33 + rng.below(32)
                                              : 1 + rng.below(32);
        const unsigned kind = c / 8 % 4;
        const Addr base = (Addr{1} << 20) + rng.below(Addr{1} << 36);
        const bool strided = kind != 3;
        const std::int64_t stride =
            kind == 2 ? static_cast<std::int64_t>(rng.below(8192)) - 4096
                      : kStrides[rng.below(std::size(kStrides))];
        const Addr window = Addr{256} << rng.below(13);
        std::vector<Addr> addrs;
        for (unsigned t = 0; t < threads; ++t)
            addrs.push_back(strided ? base + t * stride
                                    : base + rng.below(window));
        const std::vector<Addr> expect = referenceLines(addrs);

        TraceBuilder b(2, 128, 0);
        if (strided)
            b.accessStrided(0, base, stride, threads, false);
        if (rng.coin())
            rng.shuffle(addrs);
        for (std::uint64_t d = rng.coin() ? rng.below(8) : 0; d > 0; --d)
            addrs.push_back(addrs[rng.below(addrs.size())]);
        b.access(1, addrs, true);

        const TbTrace tb = b.take();
        ASSERT_EQ(tb.warps[0].instrs.size(), strided ? 1u : 0u);
        if (strided) {
            EXPECT_TRUE(std::ranges::equal(tb.warps[0].instrs[0].lines,
                                           expect))
                << "case " << c;
        }
        ASSERT_EQ(tb.warps[1].instrs.size(), 1u);
        EXPECT_TRUE(std::ranges::equal(tb.warps[1].instrs[0].lines, expect))
            << "case " << c;

        const std::size_t n = coalesce(addrs, 128);
        EXPECT_TRUE(
            std::ranges::equal(std::span(addrs).first(n), expect))
            << "case " << c;
    }
}

TEST(TraceBuilder, AccessStridedGeneratesThreadAddresses)
{
    TraceBuilder b(2, 128, 4);
    b.accessStrided(0, 0x10000, 2048, 32, false);
    const TbTrace tb = b.take();
    ASSERT_EQ(tb.warps.size(), 2u);
    ASSERT_EQ(tb.warps[0].instrs.size(), 1u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines.size(), 32u);
    EXPECT_FALSE(tb.warps[0].instrs[0].write);
    EXPECT_TRUE(tb.warps[1].instrs.empty());
}

TEST(TraceBuilder, AccessLineAligns)
{
    TraceBuilder b(1, 128, 4);
    b.accessLine(0, 0x1234, true);
    const TbTrace tb = b.take();
    ASSERT_EQ(tb.warps[0].instrs.size(), 1u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines[0], 0x1200u);
    EXPECT_TRUE(tb.warps[0].instrs[0].write);
}

TEST(TraceBuilder, DefaultGapApplied)
{
    TraceBuilder b(1, 128, 7);
    b.accessLine(0, 0, false);
    b.accessLine(0, 128, false);
    const TbTrace tb = b.take();
    EXPECT_EQ(tb.warps[0].instrs[0].gap, 7u);
    EXPECT_EQ(tb.warps[0].instrs[1].gap, 7u);
}

TEST(TraceBuilder, ComputeDelayAddsToNextAccess)
{
    TraceBuilder b(1, 128, 4);
    b.computeDelay(0, 100);
    b.accessLine(0, 0, false);
    b.accessLine(0, 128, false);
    const TbTrace tb = b.take();
    EXPECT_EQ(tb.warps[0].instrs[0].gap, 104u);
    EXPECT_EQ(tb.warps[0].instrs[1].gap, 4u); // delay consumed
}

TEST(TraceBuilder, NegativeStrideSupported)
{
    TraceBuilder b(1, 128, 4);
    b.accessStrided(0, 0x10000, -2048, 4, false);
    const TbTrace tb = b.take();
    ASSERT_EQ(tb.warps[0].instrs.size(), 1u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines.size(), 4u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines.front(), 0x10000u - 3 * 2048);
}

TEST(TbTrace, RequestCountSumsAllLines)
{
    TraceBuilder b(2, 128, 4);
    b.accessStrided(0, 0, 128, 8, false); // 8 lines
    b.accessLine(1, 0x4000, true);        // 1 line
    const TbTrace tb = b.take();
    EXPECT_EQ(tb.requestCount(), 9u);
}

TEST(TraceBuilder, EmptyAccessIgnored)
{
    TraceBuilder b(1, 128, 4);
    b.access(0, {}, false);
    EXPECT_EQ(b.take().requestCount(), 0u);
}

TEST(TraceBuilder, RejectsLineSizesThatAreNotPowersOfTwo)
{
    EXPECT_THROW(TraceBuilder(1, 96, 4), std::invalid_argument);
    EXPECT_THROW(TraceBuilder(1, 0, 4), std::invalid_argument);
    EXPECT_NO_THROW(TraceBuilder(1, 64, 4));
}

static_assert(!std::is_copy_constructible_v<TbTrace>);
static_assert(!std::is_copy_assignable_v<TbTrace>);
static_assert(std::is_nothrow_move_constructible_v<TbTrace>);
static_assert(std::is_nothrow_move_assignable_v<TbTrace>);

TEST(TbTrace, FlatStoresHoldEveryWarpInIssueOrder)
{
    // Warps issue round-robin (not warp-major), warp 3 never issues,
    // and an empty access in between leaves no instruction.
    constexpr unsigned kRounds = 5;
    TraceBuilder b(4, 128, 2);
    for (unsigned round = 0; round < kRounds; ++round)
        for (unsigned w = 0; w < 3; ++w) {
            b.accessStrided(w, (Addr{w} + 1) << 24 | Addr{round} << 16,
                            128 * (w + 1), 4 + round, round % 2 == 1);
            b.access(w, {}, false);
        }
    TbTrace tb = b.take();

    ASSERT_EQ(tb.warps.size(), 4u);
    EXPECT_TRUE(tb.warps[3].instrs.empty());
    std::uint64_t line_sum = 0;
    const MemInstr *next = tb.instrs.data();
    for (unsigned w = 0; w < 4; ++w) {
        const auto instrs = tb.warps[w].instrs;
        EXPECT_TRUE(inside(instrs, tb.instrs));
        // Warp w's run starts where warp w - 1's ends.
        EXPECT_EQ(instrs.data(), next);
        next = instrs.data() + instrs.size();
        for (unsigned r = 0; r < instrs.size(); ++r) {
            const MemInstr &instr = instrs[r];
            EXPECT_TRUE(inside(instr.lines, tb.lines));
            ASSERT_EQ(instr.lines.size(), 4u + r) << "warp " << w;
            EXPECT_EQ(instr.lines.front(),
                      (Addr{w} + 1) << 24 | Addr{r} << 16);
            EXPECT_EQ(instr.write, r % 2 == 1);
            line_sum += instr.lines.size();
        }
        if (w < 3) {
            EXPECT_EQ(instrs.size(), kRounds);
        }
    }
    EXPECT_EQ(next, tb.instrs.data() + tb.instrs.size());
    EXPECT_EQ(tb.requestCount(), line_sum);
    EXPECT_EQ(tb.lines.size(), line_sum);

    // A move hands the buffers over: every span still reads them.
    const MemInstr *instrs = tb.warps[1].instrs.data();
    const Addr *lines = tb.warps[1].instrs[2].lines.data();
    TbTrace moved = std::move(tb);
    TbTrace slot;
    slot = std::move(moved);
    EXPECT_EQ(slot.warps[1].instrs.data(), instrs);
    EXPECT_EQ(slot.warps[1].instrs[2].lines.data(), lines);
    EXPECT_TRUE(inside(slot.warps[1].instrs, slot.instrs));
    EXPECT_TRUE(inside(slot.warps[1].instrs[2].lines, slot.lines));
    EXPECT_EQ(slot.warps[1].instrs[2].lines.front(),
              Addr{2} << 24 | Addr{2} << 16);
}

TEST(TraceGolden, TableIIAndWriteSynthTracesMatchPinnedHashes)
{
    const auto &table2 = workloads::allSet();
    ASSERT_GE(std::size(kGoldenTraces), table2.size());
    for (std::size_t i = 0; i < table2.size(); ++i)
        EXPECT_EQ(kGoldenTraces[i].workload, table2[i]);
    for (const GoldenTrace &g : kGoldenTraces) {
        const TraceDigest d =
            traceDigest(*workloads::make(g.workload, g.scale));
        EXPECT_EQ(d.lines, g.lines) << g.workload;
        EXPECT_EQ(d.hash, g.hash) << g.workload;
    }
}
