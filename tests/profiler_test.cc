/**
 * @file
 * Tests for the batched parallel entropy profiler: the bit-sliced
 * pipeline must reproduce the scalar reference profile exactly, the
 * parallel run must be bit-identical to the serial one for every
 * suite workload, and the profile cache must round-trip profiles at
 * full precision.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/atomic_io.hh"
#include "harness/profile_cache.hh"
#include "harness/result_cache.hh"
#include "workloads/profiler.hh"

using namespace valley;

namespace {

/**
 * The scalar profiler the bit-sliced pipeline replaced: per-TB
 * `BvrAccumulator` walking every bit of every line, `map()` call per
 * line. Kept here as the oracle.
 */
EntropyProfile
scalarProfileKernel(const Kernel &kernel,
                    const workloads::ProfileOptions &opts)
{
    std::vector<std::vector<double>> tb_bvrs;
    tb_bvrs.reserve(kernel.numTbs());
    std::uint64_t requests = 0;
    for (TbId tb = 0; tb < kernel.numTbs(); ++tb) {
        BvrAccumulator acc(opts.numBits);
        const TbTrace trace = kernel.trace(tb);
        for (const WarpTrace &w : trace.warps)
            for (const MemInstr &instr : w.instrs)
                for (Addr line : instr.lines)
                    acc.add(opts.mapper ? opts.mapper->map(line)
                                        : line);
        requests += acc.requestCount();
        tb_bvrs.push_back(acc.bvrs());
    }
    return kernelProfile(tb_bvrs, opts.window, requests, opts.metric);
}

EntropyProfile
scalarProfileWorkload(const Workload &workload,
                      const workloads::ProfileOptions &opts)
{
    std::vector<EntropyProfile> per_kernel;
    for (const Kernel &k : workload.kernels())
        per_kernel.push_back(scalarProfileKernel(k, opts));
    return EntropyProfile::combine(per_kernel);
}

void
expectIdentical(const EntropyProfile &a, const EntropyProfile &b,
                const std::string &what)
{
    EXPECT_EQ(a.weight, b.weight) << what;
    ASSERT_EQ(a.perBit.size(), b.perBit.size()) << what;
    for (std::size_t i = 0; i < a.perBit.size(); ++i)
        ASSERT_EQ(a.perBit[i], b.perBit[i])
            << what << " bit " << i;
}

} // namespace

TEST(Profiler, SlicedMatchesScalarReferenceBitForBit)
{
    // The per-bit one-counts are exact integers on both paths, so the
    // profiles must agree exactly — with and without a remap.
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const auto mapper = mapping::makeScheme(Scheme::PAE, layout, 1);
    for (const char *abbrev : {"MT", "SPMV"}) {
        const auto wl = workloads::make(abbrev, 0.25);
        const AddressMapper *mappers[] = {nullptr, mapper.get()};
        for (const AddressMapper *m : mappers) {
            workloads::ProfileOptions po;
            po.mapper = m;
            po.threads = 1;
            expectIdentical(scalarProfileWorkload(*wl, po),
                            workloads::profileWorkload(*wl, po),
                            std::string(abbrev) +
                                (m ? "+PAE" : "+none"));
        }
    }
}

TEST(Profiler, ParallelIsBitIdenticalToSerialForEverySuiteWorkload)
{
    for (const std::string &abbrev : workloads::allSet()) {
        const auto wl = workloads::make(abbrev, 0.25);
        workloads::ProfileOptions serial;
        serial.threads = 1;
        workloads::ProfileOptions parallel;
        parallel.threads = 3; // forced pool even on 1-core hosts
        expectIdentical(workloads::profileWorkload(*wl, serial),
                        workloads::profileWorkload(*wl, parallel),
                        abbrev);
    }
}

TEST(Profiler, ParallelKernelProfileMatchesSerial)
{
    // Single kernels split across TB ranges instead of kernels.
    const auto wl = workloads::make("GS", 0.5);
    workloads::ProfileOptions serial;
    serial.threads = 1;
    workloads::ProfileOptions parallel;
    parallel.threads = 4;
    expectIdentical(
        workloads::profileKernel(wl->kernels().front(), serial),
        workloads::profileKernel(wl->kernels().front(), parallel),
        "GS-K0");
}

TEST(Profiler, BvrDistributionMetricAlsoIdentical)
{
    // The incremental windowEntropy path feeds this metric; parallel
    // and serial runs must still agree exactly.
    const auto wl = workloads::make("LU", 0.25);
    workloads::ProfileOptions serial;
    serial.metric = EntropyMetric::BvrDistribution;
    serial.threads = 1;
    workloads::ProfileOptions parallel = serial;
    parallel.threads = 3;
    expectIdentical(workloads::profileWorkload(*wl, serial),
                    workloads::profileWorkload(*wl, parallel),
                    "LU bvr-distribution");
}

TEST(ProfileCache, KeyDistinguishesAllInputs)
{
    const auto base = harness::profileCacheKey(
        "MT", "PAE-1", 12, 30, EntropyMetric::BitProbability, 1.0);
    EXPECT_NE(base, harness::profileCacheKey(
                        "LU", "PAE-1", 12, 30,
                        EntropyMetric::BitProbability, 1.0));
    EXPECT_NE(base, harness::profileCacheKey(
                        "MT", "FAE-1", 12, 30,
                        EntropyMetric::BitProbability, 1.0));
    EXPECT_NE(base, harness::profileCacheKey(
                        "MT", "PAE-1", 16, 30,
                        EntropyMetric::BitProbability, 1.0));
    EXPECT_NE(base, harness::profileCacheKey(
                        "MT", "PAE-1", 12, 24,
                        EntropyMetric::BitProbability, 1.0));
    EXPECT_NE(base, harness::profileCacheKey(
                        "MT", "PAE-1", 12, 30,
                        EntropyMetric::BvrDistribution, 1.0));
    EXPECT_NE(base, harness::profileCacheKey(
                        "MT", "PAE-1", 12, 30,
                        EntropyMetric::BitProbability, 0.5));
}

TEST(ProfileCache, DiskFormatParsesAtFullPrecision)
{
    // Append a line in the on-disk format *before* the cache loads
    // its file, so the first lookup must come from the deserializer
    // rather than the in-memory shard. This is the only test that
    // exercises the parse path a fresh process depends on, so it
    // deliberately pins the CSV format.
    const std::string key = harness::profileCacheKey(
        "DISKTEST", "X", 12, 3, EntropyMetric::BitProbability, 1.0);
    {
        std::ostringstream payload;
        payload.precision(17);
        payload << 123456789 << " 3 " << 1.0 / 3.0 << ' '
                << 0.91829583405448945 << " 5e-324";
        harness::atomicAppend(
            harness::profileCache().path(),
            harness::checksummedRecord(key, payload.str()));
    }
    const auto hit = harness::profileCache().lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->weight, 123456789u);
    ASSERT_EQ(hit->perBit.size(), 3u);
    EXPECT_EQ(hit->perBit[0], 1.0 / 3.0);
    EXPECT_EQ(hit->perBit[1], 0.91829583405448945);
    EXPECT_EQ(hit->perBit[2], 5e-324);
}

TEST(ProfileCache, StoreLookupRoundTripsAtFullPrecision)
{
    EntropyProfile p;
    p.perBit = {1.0 / 3.0, 0.0, 1.0, 0.91829583405448945, 5e-324};
    p.weight = 123456789;
    const std::string key = harness::profileCacheKey(
        "TESTONLY", "X", 12, 5, EntropyMetric::BitProbability, 1.0);
    harness::profileCache().store(key, p);
    const auto hit = harness::profileCache().lookup(key);
    ASSERT_TRUE(hit.has_value());
    expectIdentical(p, *hit, "cache round trip");
}

TEST(ProfileCache, CachedWorkloadProfileMatchesDirect)
{
    const auto wl = workloads::make("NN", 0.25);
    workloads::ProfileOptions po;
    const EntropyProfile direct =
        workloads::profileWorkload(*wl, po);
    // First call may miss or hit a previous run's entry; either way
    // the deterministic profile must come back bit-identical.
    expectIdentical(
        direct, harness::profileWorkloadCached(*wl, po, 0.25),
        "cached vs direct");
    expectIdentical(
        direct, harness::profileWorkloadCached(*wl, po, 0.25),
        "cached second hit");
}
