#include "workloads/profiler.hh"

#include <string>

#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "workloads/trace_planes.hh"

namespace valley {
namespace workloads {

namespace {

/** Profile `kernels` under the options' mapper through their planes. */
EntropyProfile
profileThroughPlanes(std::span<const Kernel> kernels,
                     const ProfileOptions &opts)
{
    const TracePlanes planes(kernels, {opts.numBits, opts.threads});
    EntropyProfile p = planes.profileFor(
        opts.mapper ? opts.mapper->matrix()
                    : BitMatrix::identity(opts.numBits),
        opts.window);
    metrics::counter("profiler.kernels_profiled").add(kernels.size());
    return p;
}

} // namespace

EntropyProfile
profileKernel(const Kernel &kernel, const ProfileOptions &opts)
{
    return profileThroughPlanes({&kernel, 1}, opts);
}

EntropyProfile
profileWorkload(const Workload &workload, const ProfileOptions &opts)
{
    trace::Span span(trace::enabled()
                         ? "profile " + workload.info().abbrev
                         : std::string(),
                     "profiler");
    return profileThroughPlanes(workload.kernels(), opts);
}

} // namespace workloads
} // namespace valley
