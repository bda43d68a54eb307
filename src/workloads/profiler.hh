/**
 * @file
 * Entropy profiling of workloads (paper Section III-B, Figs. 5 & 10).
 *
 * Bridges the workload trace generators and the window-entropy
 * metric: gathers per-TB BVR vectors over the coalesced request
 * addresses (optionally after an address mapper, for Fig. 10),
 * computes per-kernel profiles with the TB window, and combines them
 * weighted by request count.
 *
 * Both entry points are thin wrappers over `TracePlanes`, the one
 * engine that turns addresses into BVRs (`workloads/trace_planes.hh`):
 * build the planes of the kernels, then `profileFor` the mapper's
 * matrix (the identity when there is no mapper). Extraction fans TB
 * ranges out with `parallelFor` and every TB writes only its own
 * plane slot, so the profile is bit-identical at any thread count
 * and to the scalar `BvrAccumulator` path (see
 * `tests/profiler_test.cc`).
 */

#ifndef VALLEY_WORKLOADS_PROFILER_HH
#define VALLEY_WORKLOADS_PROFILER_HH

#include "entropy/window_entropy.hh"
#include "mapping/address_mapper.hh"
#include "workloads/workload.hh"

namespace valley {
namespace workloads {

/** Profiling knobs. */
struct ProfileOptions
{
    unsigned window = 12;   ///< TB window w = #SMs (Section III-A)
    unsigned numBits = 30;  ///< physical address bits
    /**
     * Optional remapping; its matrix must be `numBits` wide
     * (`std::invalid_argument` otherwise).
     */
    const AddressMapper *mapper = nullptr;
    EntropyMetric metric = EntropyMetric::BitProbability;

    /**
     * Worker threads for trace-plane extraction: 1 = serial, 0 = one
     * per hardware thread. Results are bit-identical at any thread
     * count.
     */
    unsigned threads = 0;
};

/** Per-bit entropy profile of a single kernel. */
EntropyProfile profileKernel(const Kernel &kernel,
                             const ProfileOptions &opts);

/**
 * Application-level profile: request-count weighted average of the
 * per-kernel profiles.
 */
EntropyProfile profileWorkload(const Workload &workload,
                               const ProfileOptions &opts);

} // namespace workloads
} // namespace valley

#endif // VALLEY_WORKLOADS_PROFILER_HH
