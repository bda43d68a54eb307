/**
 * @file
 * Randomized property tests: reference-model equivalence for the
 * cache, conservation laws for the NoC and DRAM controller, algebraic
 * properties of the BIM schemes across many seeds, and symmetry
 * properties of the entropy metrics.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>

#include "bim/bim_builder.hh"
#include "cache/set_assoc_cache.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "dram/memory_controller.hh"
#include "entropy/window_entropy.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "noc/crossbar.hh"

using namespace valley;

// --- BIM scheme properties over many seeds -------------------------------

class SchemeSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

TEST_P(SchemeSeeds, BroadSchemesAlwaysInvertible)
{
    const AddressLayout l = AddressLayout::hynixGddr5();
    for (const char *s : {mapping::kPae, mapping::kFae, mapping::kAll}) {
        const auto m = mapping::makeMapper(s, l, GetParam());
        EXPECT_TRUE(m->matrix().invertible()) << s;
    }
}

TEST_P(SchemeSeeds, PaePreservesDramPageMembership)
{
    // Two addresses in the same DRAM page (equal page bits) must stay
    // in the same page under PAE — the property behind its row-buffer
    // friendliness (paper Section VI-B).
    const AddressLayout l = AddressLayout::hynixGddr5();
    const auto m = mapping::makeMapper(mapping::kPae, l, GetParam());
    XorShiftRng rng(GetParam() * 31 + 7);
    for (int i = 0; i < 300; ++i) {
        const Addr page = rng.next() & l.pageMask();
        const Addr a = page | (rng.next() & ~l.pageMask() &
                               bits::mask(30));
        const Addr b = page | (rng.next() & ~l.pageMask() &
                               bits::mask(30));
        const DramCoord ca = m->coordOf(a);
        const DramCoord cb = m->coordOf(b);
        EXPECT_EQ(ca.channel, cb.channel);
        EXPECT_EQ(ca.bank, cb.bank);
        EXPECT_EQ(ca.row, cb.row);
    }
}

TEST_P(SchemeSeeds, FaeOnlyRewritesChannelBankBits)
{
    const AddressLayout l = AddressLayout::hynixGddr5();
    const auto m = mapping::makeMapper(mapping::kFae, l, GetParam());
    const std::uint64_t targets = l.channel.positionMask() |
                                  l.bank.positionMask();
    XorShiftRng rng(GetParam());
    for (int i = 0; i < 300; ++i) {
        const Addr a = rng.next() & bits::mask(30);
        EXPECT_EQ(m->map(a) & ~targets, a & ~targets);
    }
}

TEST_P(SchemeSeeds, CompositionOfInvertiblesIsInvertible)
{
    const AddressLayout l = AddressLayout::hynixGddr5();
    const auto a = mapping::makeMapper(mapping::kPae, l, GetParam());
    const auto b = mapping::makeMapper(mapping::kFae, l, GetParam() + 1);
    const BitMatrix prod = a->matrix().multiply(b->matrix());
    EXPECT_TRUE(prod.invertible());
    // And it equals sequential application.
    XorShiftRng rng(GetParam());
    for (int i = 0; i < 100; ++i) {
        const Addr x = rng.next() & bits::mask(30);
        EXPECT_EQ(prod.apply(x), a->map(b->map(x)));
    }
}

// --- Registry mappers x layout presets -----------------------------------

TEST_P(SchemeSeeds, EveryRegisteredMapperInvertsOnEveryLayoutPreset)
{
    // For each buildable registered family on each layout preset:
    // random address batches must map one-to-one (decode via the
    // inverse recovers the address), stay inside the address space,
    // and decode to in-range channel/bank/row coordinates.
    for (const auto &org : mapping::layoutPresets()) {
        const AddressLayout l = mapping::makeLayout(org.key);
        const std::uint64_t mask =
            (std::uint64_t{1} << l.addrBits) - 1;
        for (const auto &f : mapping::mapperFamilies()) {
            if (f.needsProfiles)
                continue; // searched families: covered by the oracle
            std::string spec = "map:" + f.name;
            if (f.name == "perm")
                // order must name exactly the layout's fields.
                spec += l.vault.width ? ",order=RoCoBaVaCh"
                                      : ",order=RoCoBaCh";
            const auto m =
                mapping::makeMapper(spec, l, GetParam());
            ASSERT_TRUE(m->matrix().invertible())
                << org.key << " " << spec;
            const auto inv = m->matrix().inverse();
            ASSERT_TRUE(inv.has_value());
            XorShiftRng rng(GetParam() * 17 + 5);
            for (int i = 0; i < 200; ++i) {
                const Addr a = rng.next() & mask;
                const Addr mapped = m->map(a);
                EXPECT_EQ(mapped & ~mask, 0u)
                    << org.key << " " << spec;
                EXPECT_EQ(inv->apply(mapped), a);
                const DramCoord c = m->coordOf(a);
                EXPECT_LT(c.channel, l.numChannels());
                EXPECT_LT(c.bank, l.numBanksPerChannel());
                EXPECT_LT(c.row, l.numRows());
                EXPECT_LT(c.column, l.numColumns());
            }
        }
    }
}

// --- Cache vs reference model ------------------------------------------------

namespace {

/** Minimal reference: per-set LRU list of lines. */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned ways) : sets(sets), ways(ways),
                                             lru(sets)
    {
    }

    bool
    contains(Addr line) const
    {
        const auto &l = lru[setOf(line)];
        return std::find(l.begin(), l.end(), line) != l.end();
    }

    void
    touch(Addr line)
    {
        auto &l = lru[setOf(line)];
        l.remove(line);
        l.push_front(line);
        if (l.size() > ways)
            l.pop_back();
    }

  private:
    unsigned setOf(Addr line) const { return (line / 128) % sets; }

    unsigned sets, ways;
    std::vector<std::list<Addr>> lru;
};

} // namespace

TEST(CacheProperty, MatchesReferenceLruModel)
{
    CacheConfig cfg{4096, 4, 128, 64, false}; // 8 sets x 4 ways
    SetAssocCache cache(cfg);
    RefCache ref(cfg.numSets(), cfg.ways);
    XorShiftRng rng(99);

    for (int i = 0; i < 20000; ++i) {
        const Addr line = (rng.next() % 64) * 128; // 64 hot lines
        const bool expect_hit = ref.contains(line);
        const auto r = cache.access(line, false, 1);
        if (expect_hit) {
            ASSERT_EQ(r.kind, CacheAccessResult::Kind::Hit)
                << "iteration " << i;
            ref.touch(line);
        } else {
            ASSERT_NE(r.kind, CacheAccessResult::Kind::Hit)
                << "iteration " << i;
            // Fill immediately (no outstanding-miss window).
            CacheAccessResult ev;
            cache.fill(line, ev);
            ref.touch(line);
        }
    }
}

TEST(CacheProperty, NoRequestLostUnderRandomTraffic)
{
    CacheConfig cfg{2048, 2, 128, 8, false};
    SetAssocCache cache(cfg);
    XorShiftRng rng(7);
    std::uint64_t waiter = 0;
    std::uint64_t hits = 0, misses = 0, merges = 0, stalls = 0;
    std::set<Addr> outstanding;

    for (int i = 0; i < 50000; ++i) {
        const Addr line = (rng.next() % 256) * 128;
        const auto r = cache.access(line, false, ++waiter);
        switch (r.kind) {
          case CacheAccessResult::Kind::Hit:
            ++hits;
            break;
          case CacheAccessResult::Kind::Miss:
            ++misses;
            outstanding.insert(line);
            break;
          case CacheAccessResult::Kind::MergedMiss:
            ++merges;
            break;
          case CacheAccessResult::Kind::Stall:
            ++stalls;
            break;
        }
        // Randomly fill an outstanding line.
        if (!outstanding.empty() && rng.coin()) {
            const Addr fill = *outstanding.begin();
            outstanding.erase(outstanding.begin());
            CacheAccessResult ev;
            cache.fill(fill, ev);
        }
    }
    // Every allocated MSHR is either filled or still tracked, and the
    // stats ledger matches what we observed.
    EXPECT_EQ(cache.mshrInUse(), outstanding.size());
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().misses, misses);
    EXPECT_EQ(cache.stats().mshrMerges, merges);
    EXPECT_EQ(cache.stats().mshrStalls, stalls);
    EXPECT_EQ(cache.stats().accesses, hits + misses + merges);
}

// --- NoC conservation ---------------------------------------------------------

TEST(NocProperty, AllInjectedPacketsDeliveredExactlyOnce)
{
    Crossbar xb(4, 4, 32, 16);
    XorShiftRng rng(123);
    std::map<std::uint64_t, unsigned> expected_output;
    std::vector<NocDelivery> done;
    std::uint64_t tag = 0;

    for (Cycle c = 0; c < 3000; ++c) {
        for (unsigned in = 0; in < 4; ++in) {
            if (tag < 500 && xb.canInject(in)) {
                const unsigned out =
                    static_cast<unsigned>(rng.below(4));
                const unsigned bytes =
                    rng.coin() ? 8 : 136;
                if (xb.inject(in, out, bytes, tag, c))
                    expected_output[tag++] = out;
            }
        }
        xb.tick(c, done);
    }
    ASSERT_EQ(done.size(), expected_output.size());
    std::set<std::uint64_t> seen;
    for (const auto &d : done) {
        EXPECT_TRUE(seen.insert(d.tag).second)
            << "duplicate " << d.tag;
        EXPECT_EQ(d.output, expected_output[d.tag]);
        EXPECT_GT(d.delivered, d.injected);
    }
}

// --- DRAM conservation ----------------------------------------------------------

TEST(DramProperty, EveryReadCompletesExactlyOnce)
{
    MemoryController mc(16, DramTiming::hynixGddr5(), 32);
    XorShiftRng rng(321);
    std::set<std::uint64_t> outstanding;
    std::vector<DramCompletion> done;
    std::uint64_t tag = 0;
    std::uint64_t writes = 0;

    Cycle now = 0;
    while (tag + writes < 2000 || !outstanding.empty()) {
        if (tag + writes < 2000 && mc.canAccept()) {
            DramRequest r;
            r.coord.bank = static_cast<unsigned>(rng.below(16));
            r.coord.row = static_cast<unsigned>(rng.below(64));
            r.write = rng.chance(1, 4);
            if (r.write) {
                ++writes;
            } else {
                r.tag = tag++;
                outstanding.insert(r.tag);
            }
            mc.enqueue(r, now);
        }
        mc.tick(++now, done);
        for (const auto &d : done) {
            ASSERT_EQ(outstanding.erase(d.tag), 1u)
                << "tag " << d.tag << " completed twice or never sent";
        }
        done.clear();
        ASSERT_LT(now, 10'000'000u) << "controller wedged";
    }
    EXPECT_EQ(mc.stats().reads, tag);
    EXPECT_EQ(mc.stats().writes, writes);
    EXPECT_EQ(mc.pending(), 0u);
}

TEST(DramProperty, ActivationsNeverExceedAccessesPlusConflicts)
{
    MemoryController mc(8, DramTiming::hynixGddr5());
    XorShiftRng rng(555);
    std::vector<DramCompletion> done;
    unsigned sent = 0;
    Cycle now = 0;
    while (sent < 1000) {
        if (mc.canAccept()) {
            DramRequest r;
            r.coord.bank = static_cast<unsigned>(rng.below(8));
            r.coord.row = static_cast<unsigned>(rng.below(4));
            r.tag = sent++;
            mc.enqueue(r, now);
        }
        mc.tick(++now, done);
        done.clear();
    }
    for (Cycle c = 0; c < 5000; ++c) {
        mc.tick(++now, done);
        done.clear();
    }
    const auto &s = mc.stats();
    EXPECT_LE(s.rowMisses, s.reads + s.writes);
    EXPECT_EQ(s.activations, s.rowMisses);
    EXPECT_LE(s.precharges, s.activations);
}

// --- Entropy symmetry ------------------------------------------------------------

TEST(EntropyProperty, BitComplementSymmetry)
{
    // H(p) == H(1-p): complementing every BVR leaves both window
    // metrics unchanged.
    XorShiftRng rng(777);
    std::vector<double> bvr(64), inv(64);
    for (std::size_t i = 0; i < bvr.size(); ++i) {
        bvr[i] = rng.uniform();
        inv[i] = 1.0 - bvr[i];
    }
    EXPECT_NEAR(windowBitEntropy(bvr, 12), windowBitEntropy(inv, 12),
                1e-9);
    EXPECT_NEAR(windowEntropy(bvr, 12), windowEntropy(inv, 12), 1e-9);
}

TEST(EntropyProperty, EntropyBoundedByOne)
{
    XorShiftRng rng(888);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> bvr(32);
        for (double &v : bvr)
            v = rng.uniform();
        for (unsigned w : {1u, 2u, 8u, 12u, 32u, 64u}) {
            const double h1 = windowEntropy(bvr, w);
            const double h2 = windowBitEntropy(bvr, w);
            EXPECT_GE(h1, 0.0);
            EXPECT_LE(h1, 1.0);
            EXPECT_GE(h2, 0.0);
            EXPECT_LE(h2, 1.0);
        }
    }
}

TEST(EntropyProperty, MappingCannotCreateEntropyFromConstants)
{
    // A constant address stream has zero entropy under any mapping —
    // BIMs redistribute information, they cannot create it.
    const AddressLayout l = AddressLayout::hynixGddr5();
    for (const std::string &s : mapping::paperMappers()) {
        const auto m = mapping::makeMapper(s, l, 3);
        BvrAccumulator acc(30);
        for (int i = 0; i < 100; ++i)
            acc.add(m->map(0x12345680));
        for (double b : acc.bvrs()) {
            EXPECT_TRUE(b == 0.0 || b == 1.0);
        }
    }
}
