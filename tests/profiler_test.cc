/**
 * @file
 * Tests for the entropy profiler: its trace-plane profile must
 * reproduce the scalar reference profile exactly, and the parallel
 * run must be bit-identical to the serial one for every suite
 * workload.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "mapping/mapper_registry.hh"
#include "workloads/profiler.hh"

using namespace valley;

namespace {

/**
 * The scalar profiler the trace planes replaced: per-TB
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
    return kernelProfile(tb_bvrs, opts.window, requests);
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

TEST(Profiler, PlanesMatchScalarReferenceBitForBit)
{
    // The per-bit one-counts are exact integers on both paths, so the
    // profiles must agree exactly, with and without a remap. The synth
    // inputs pin the 64-request word packing: hash_shuffle with
    // rpw=63 / rpw=127 issues 2031 / 4094-4095 requests per TB
    // (several words plus a partial tail), and stencil3d at scale 0.25
    // issues 19-24 per TB (one partial word per TB). DWT2D at scale
    // 0.25 has two kernels whose TBs issue no requests at all (zero
    // words, an empty arena).
    struct Case
    {
        const char *workload;
        double scale;
    };
    const Case cases[] = {
        {"MT", 0.25},
        {"SPMV", 0.25},
        {"NN", 0.25},
        {"LU", 0.25},
        {"DWT2D", 0.25},
        {"synth:hash_shuffle,warps=1,tbs=8,rpw=63", 1.0},
        {"synth:hash_shuffle,warps=1,tbs=8,rpw=127", 1.0},
        {"synth:stencil3d", 0.25},
    };
    const AddressLayout layout = AddressLayout::hynixGddr5();
    const auto mapper = mapping::makeMapper(mapping::kPae, layout, 1);
    for (const Case &c : cases) {
        const auto wl = workloads::make(c.workload, c.scale);
        const AddressMapper *mappers[] = {nullptr, mapper.get()};
        for (const AddressMapper *m : mappers) {
            workloads::ProfileOptions po;
            po.mapper = m;
            po.threads = 1;
            expectIdentical(scalarProfileWorkload(*wl, po),
                            workloads::profileWorkload(*wl, po),
                            std::string(c.workload) +
                                (m ? "+PAE" : "+none"));
        }
    }
}

TEST(Profiler, MapperOfAnotherWidthThrows)
{
    // The mapper's matrix must match the tracked width: a 32-bit
    // 3D-stacked mapper over the default 30 bits is rejected, not
    // profiled on a truncated address.
    const auto wl = workloads::make("NN", 0.25);
    const auto mapper = mapping::makeMapper(
        mapping::kBase, AddressLayout::stacked3d(), 1);
    workloads::ProfileOptions po;
    po.mapper = mapper.get();
    ASSERT_NE(mapper->matrix().size(), po.numBits);
    EXPECT_THROW(workloads::profileWorkload(*wl, po),
                 std::invalid_argument);
    EXPECT_THROW(workloads::profileKernel(wl->kernels().front(), po),
                 std::invalid_argument);
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
