#include "workloads/trace_planes.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/metrics.hh"
#include "common/parallel_for.hh"

namespace valley {
namespace workloads {

namespace {

/** Extraction staging buffer for one TB (pre-arena). */
struct TbStage
{
    std::uint64_t requests = 0;
    std::uint32_t words = 0;
    std::uint64_t addrOr = 0; ///< OR of every address: nonzero strips
    std::vector<std::uint64_t> bits;
};

/**
 * Extract the bit planes of one TB: buffer 64 addresses, transpose
 * them with the selected kernel table, and append lane `b` to plane
 * `b`. The tail block is zero-padded, so pad lanes carry no one-bits
 * and the popcount-derived one-counts stay exact at any stream
 * length.
 */
void
extractTb(const Kernel &kernel, TbId tb, unsigned nbits,
          const bits::SimdOps &ops, TbStage &out)
{
    const TbTrace trace = kernel.trace(tb);
    const std::uint64_t requests = trace.requestCount();
    const std::uint32_t words =
        static_cast<std::uint32_t>((requests + 63) / 64);
    out.bits.assign(static_cast<std::size_t>(nbits) * words, 0);

    std::uint64_t block[64];
    unsigned fill = 0;
    std::uint32_t word = 0;
    std::uint64_t addr_or = 0;
    const auto flush = [&] {
        std::fill(block + fill, block + 64, 0);
        ops.transpose64(block);
        // After the transpose, bit r of block[c] is bit c of address
        // r: block[c] is the 64-request lane of address bit c.
        for (unsigned b = 0; b < nbits; ++b)
            out.bits[static_cast<std::size_t>(b) * words + word] =
                block[b];
        ++word;
        fill = 0;
    };
    for (const WarpTrace &w : trace.warps)
        for (const MemInstr &instr : w.instrs)
            for (Addr a : instr.lines) {
                addr_or |= a;
                block[fill] = a;
                if (++fill == 64)
                    flush();
            }
    if (fill > 0)
        flush();
    assert(word == words);
    out.requests = requests;
    out.words = words;
    out.addrOr = addr_or;
}

/** TB-range task granularity for splitting large kernels. */
constexpr unsigned kTbsPerTask = 256;

} // namespace

TracePlanes::TracePlanes(std::span<const Kernel> ks,
                         const PlaneOptions &opts)
    : nbits(opts.numBits),
      ops(opts.forceScalar ? &bits::scalarSimdOps() : &bits::simdOps())
{
    if (nbits == 0 || nbits > 64)
        throw std::invalid_argument("TracePlanes: bad bit width");

    kernels.resize(ks.size());

    // Stage 1: generate + transpose every TB trace into per-TB
    // staging buffers, one task per range of kTbsPerTask TBs of a
    // kernel. Traces are expensive to generate, so they are produced
    // exactly once; the arena pass below only copies words.
    std::vector<std::vector<TbStage>> staged(ks.size());
    std::vector<std::pair<std::size_t, TbId>> ranges; // (kernel, first TB)
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
        staged[ki].resize(ks[ki].numTbs());
        for (TbId lo = 0; lo < ks[ki].numTbs(); lo += kTbsPerTask)
            ranges.emplace_back(ki, lo);
    }
    parallelFor(
        ranges.size(), opts.threads,
        [&](std::size_t r) {
            const auto [ki, lo] = ranges[r];
            const TbId hi =
                std::min<TbId>(lo + kTbsPerTask, ks[ki].numTbs());
            for (TbId tb = lo; tb < hi; ++tb)
                extractTb(ks[ki], tb, nbits, *ops, staged[ki][tb]);
        },
        opts.cancel);
    // A fired token leaves ranges unextracted, so nothing below may
    // pack the staging.
    if (opts.cancel != nullptr && opts.cancel->cancelled())
        throw Cancelled("TracePlanes: plane extraction cancelled");

    // Stage 2 (serial): pack each kernel's staged planes into one
    // contiguous plane-major arena — bit b's strip holds every TB's
    // lane words in TB-id order, so incremental moves stream one
    // strip sequentially. Staging buffers are released as they are
    // copied, so the transient overhead shrinks TB by TB.
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
        KernelPlanes &k = kernels[ki];
        k.tbBase = tb_count;
        k.rowBase = plane_words;
        k.tbs.resize(staged[ki].size());
        k.uniform = !k.tbs.empty();
        std::uint64_t addr_or = 0;
        for (std::size_t t = 0; t < staged[ki].size(); ++t) {
            const TbStage &s = staged[ki][t];
            addr_or |= s.addrOr;
            TbView &v = k.tbs[t];
            v.requests = s.requests;
            v.words = s.words;
            v.rowOff = plane_words;
            k.kwords += s.words;
            k.uniform = k.uniform && s.words == 1;
            plane_words += s.words;
            k.requests += s.requests;
        }
        // Strip b is all zero iff no address of the kernel sets bit b
        // (pad lanes are zero).
        k.zeroMask = bits::mask(nbits) & ~addr_or;
        k.arena.resize(static_cast<std::size_t>(nbits) * k.kwords);
        for (std::size_t t = 0; t < staged[ki].size(); ++t) {
            TbStage &s = staged[ki][t];
            // A TB without requests has no words; its buffer (and, in
            // an all-empty kernel, the arena) may be null, which
            // memcpy must not see even for zero bytes.
            if (s.words == 0)
                continue;
            const std::size_t lo = k.tbs[t].rowOff - k.rowBase;
            for (unsigned b = 0; b < nbits; ++b)
                std::memcpy(
                    k.arena.data() +
                        static_cast<std::size_t>(b) * k.kwords + lo,
                    s.bits.data() +
                        static_cast<std::size_t>(b) * s.words,
                    s.words * sizeof(std::uint64_t));
            std::vector<std::uint64_t>().swap(s.bits);
        }
        tb_count += k.tbs.size();
        requests_ += k.requests;
    }
    // Each kernel's weight in the row entropy: its share of the
    // requests, the weight EntropyProfile::combine applies.
    if (requests_ != 0)
        for (KernelPlanes &k : kernels)
            k.weight = static_cast<double>(k.requests) /
                       static_cast<double>(requests_);

    metrics::gauge("search.plane_bytes")
        .add(static_cast<std::int64_t>(planeBytes()));
}

TracePlanes::TracePlanes(TracePlanes &&other) noexcept
    : nbits(other.nbits), requests_(other.requests_),
      tb_count(other.tb_count), plane_words(other.plane_words),
      ops(other.ops), kernels(std::move(other.kernels))
{
    // The arena merely changed owner; the resident-bytes gauge is
    // unchanged, and the moved-from side must no longer subtract.
    other.kernels.clear();
    other.tb_count = 0;
    other.plane_words = 0;
    other.requests_ = 0;
}

TracePlanes &
TracePlanes::operator=(TracePlanes &&other) noexcept
{
    if (this != &other) {
        releaseGauge();
        nbits = other.nbits;
        requests_ = other.requests_;
        tb_count = other.tb_count;
        plane_words = other.plane_words;
        ops = other.ops;
        kernels = std::move(other.kernels);
        other.kernels.clear();
        other.tb_count = 0;
        other.plane_words = 0;
        other.requests_ = 0;
    }
    return *this;
}

TracePlanes::~TracePlanes() { releaseGauge(); }

void
TracePlanes::releaseGauge() noexcept
{
    const std::uint64_t bytes = planeBytes();
    if (bytes != 0)
        metrics::gauge("search.plane_bytes")
            .add(-static_cast<std::int64_t>(bytes));
}

std::uint64_t
TracePlanes::planeBytes() const
{
    std::uint64_t bytes = 0;
    for (const KernelPlanes &k : kernels)
        bytes += k.arena.size() * sizeof(std::uint64_t);
    return bytes;
}

namespace {

/**
 * Gather the strip segment pointers a row mask taps for one TB —
 * plane `b` of the TB starts at `arena + b * kwords + local_off`.
 * Returns the tap count; `srcs` must hold 64 slots.
 */
inline std::size_t
gatherTaps(const std::uint64_t *arena, std::size_t local_off,
           std::size_t kwords, std::uint64_t row_mask,
           const std::uint64_t **srcs)
{
    std::size_t nsrc = 0;
    for (std::uint64_t m = row_mask; m != 0; m &= m - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        srcs[nsrc++] =
            arena + static_cast<std::size_t>(b) * kwords + local_off;
    }
    return nsrc;
}

/**
 * XOR-fold the tapped plane words of a one-word TB. The per-TB loops
 * below special-case `words == 1` through this instead of the
 * dispatched `SimdOps` kernels: with 64-request TBs (every synth
 * workload) a plane is a single word, and an indirect call per TB
 * costs more than the XOR+popcount it performs. Plain integer ops, so
 * the fast path is trivially bit-identical to the dispatched one.
 */
inline std::uint64_t
foldOneWord(const std::uint64_t *arena, std::size_t local_off,
            std::size_t kwords, std::uint64_t row_mask)
{
    std::uint64_t x = 0;
    for (std::uint64_t m = row_mask; m != 0; m &= m - 1)
        x ^= arena[static_cast<std::size_t>(
                       static_cast<unsigned>(std::countr_zero(m))) *
                       kwords +
                   local_off];
    return x;
}

} // namespace

void
TracePlanes::combineRow(std::uint64_t row_mask, std::uint64_t *plane,
                        std::uint64_t *ones) const
{
    assert((row_mask & ~bits::mask(nbits)) == 0 &&
           "row taps must be tracked bits");
    const std::uint64_t *srcs[64];
    for (const KernelPlanes &k : kernels) {
        const std::uint64_t *arena = k.arena.data();
        for (std::size_t t = 0; t < k.tbs.size(); ++t) {
            const TbView &v = k.tbs[t];
            const std::size_t lo = v.rowOff - k.rowBase;
            if (v.words == 1) {
                const std::uint64_t x =
                    foldOneWord(arena, lo, k.kwords, row_mask);
                plane[v.rowOff] = x;
                ones[k.tbBase + t] =
                    static_cast<std::uint64_t>(std::popcount(x));
                continue;
            }
            const std::size_t nsrc =
                gatherTaps(arena, lo, k.kwords, row_mask, srcs);
            ones[k.tbBase + t] = ops->xorPopcountN(
                srcs, nsrc, plane + v.rowOff, v.words);
        }
    }
}

void
TracePlanes::xorKernel(const KernelPlanes &k, const std::uint64_t *a,
                       const std::uint64_t *b, std::uint64_t *dst,
                       std::uint64_t *ones) const
{
    if (k.uniform) {
        // One-word TBs: XOR the whole kernel and drop the per-word
        // popcounts straight into the per-TB ones array.
        ops->xorPopcountEach(a, b, dst, ones, k.kwords);
        return;
    }
    for (std::size_t t = 0; t < k.tbs.size(); ++t) {
        const TbView &v = k.tbs[t];
        const std::size_t lo = v.rowOff - k.rowBase;
        if (v.words == 1) {
            const std::uint64_t x = a[lo] ^ b[lo];
            dst[lo] = x;
            ones[t] = static_cast<std::uint64_t>(std::popcount(x));
            continue;
        }
        ones[t] = ops->xorPopcount2(a + lo, b + lo, dst + lo, v.words);
    }
}

TracePlanes::KernelScore
TracePlanes::scoreKernel(const KernelPlanes &k, const std::uint64_t *ones,
                         unsigned window, EntropyMetric metric) const
{
    // Mirror the scalar oracle: kernelProfile's per-kernel window
    // entropy of the BVR series, the same operations in the same
    // order. Thread-local scratch: this runs for every rescored
    // kernel, where a heap allocation would rival the entropy math.
    static thread_local std::vector<double> series;
    series.resize(k.tbs.size());
    std::uint64_t any = 0;
    for (std::size_t t = 0; t < k.tbs.size(); ++t) {
        const TbView &v = k.tbs[t];
        any |= ones[t];
        series[t] = v.requests == 0
                        ? 0.0
                        : static_cast<double>(ones[t]) /
                              static_cast<double>(v.requests);
    }
    const double e = metric == EntropyMetric::BvrDistribution
                         ? windowEntropy(series, window)
                         : windowBitEntropy(series, window);
    return KernelScore{e, any == 0};
}

TracePlanes::Row::Row(const TracePlanes &planes)
    : plane_(planes.plane_words), ones_(planes.tb_count),
      kernels_(planes.kernels.size())
{
}

void
TracePlanes::seedRow(std::uint64_t row_mask, unsigned window,
                     EntropyMetric metric, Row &row) const
{
    assert(row.kernels_.size() == kernels.size() &&
           "row sized for these planes");
    row.window_ = window;
    row.metric_ = metric;
    combineRow(row_mask, row.plane_.data(), row.ones_.data());
    double combined = 0.0;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        row.kernels_[ki] =
            scoreKernel(k, row.ones_.data() + k.tbBase, window, metric);
        combined += k.weight * row.kernels_[ki].entropy;
    }
    row.entropy_ = requests_ == 0 ? 0.0 : combined;
}

template <typename Rescore>
double
TracePlanes::propose(const Row &base, Proposal &out,
                     Rescore rescore) const
{
    assert(base.kernels_.size() == kernels.size() &&
           out.row_.kernels_.size() == kernels.size() &&
           "rows sized for these planes");
    Row &cand = out.row_;
    out.rescored_.clear();
    out.base_ = &base;
    // The same kernel-order weighted sum as seedRow and
    // entropyFromOnes; a skipped kernel contributes base's entropy,
    // which is exactly what rescoring its unchanged one-counts gives.
    double combined = 0.0;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        double e = base.kernels_[ki].entropy;
        if (rescore(ki, k)) {
            cand.kernels_[ki] =
                scoreKernel(k, cand.ones_.data() + k.tbBase,
                            base.window_, base.metric_);
            e = cand.kernels_[ki].entropy;
            out.rescored_.push_back(static_cast<std::uint32_t>(ki));
        }
        combined += k.weight * e;
    }
    cand.entropy_ = requests_ == 0 ? 0.0 : combined;
    return cand.entropy_;
}

double
TracePlanes::proposeToggle(const Row &base, unsigned bit,
                           Proposal &out) const
{
    assert(bit < nbits && "toggled tap must be a tracked bit");
    Row &cand = out.row_;
    return propose(base, out, [&](std::size_t, const KernelPlanes &k) {
        if ((k.zeroMask >> bit) & 1)
            return false;
        xorKernel(k, base.plane_.data() + k.rowBase,
                  k.arena.data() + static_cast<std::size_t>(bit) * k.kwords,
                  cand.plane_.data() + k.rowBase,
                  cand.ones_.data() + k.tbBase);
        return true;
    });
}

double
TracePlanes::proposeXor(const Row &base, const Row &other,
                        Proposal &out) const
{
    assert(base.window_ == other.window_ &&
           base.metric_ == other.metric_ &&
           "XORed rows must be scored alike");
    Row &cand = out.row_;
    return propose(base, out, [&](std::size_t ki, const KernelPlanes &k) {
        if (other.kernels_[ki].zero)
            return false;
        xorKernel(k, base.plane_.data() + k.rowBase,
                  other.plane_.data() + k.rowBase,
                  cand.plane_.data() + k.rowBase,
                  cand.ones_.data() + k.tbBase);
        return true;
    });
}

void
TracePlanes::commit(const Proposal &p, Row &row) const
{
    assert(p.base_ == &row && "commit into the proposal's base row");
    const Row &cand = p.row_;
    for (const std::uint32_t ki : p.rescored_) {
        const KernelPlanes &k = kernels[ki];
        std::copy_n(cand.plane_.data() + k.rowBase, k.kwords,
                    row.plane_.data() + k.rowBase);
        std::copy_n(cand.ones_.data() + k.tbBase, k.tbs.size(),
                    row.ones_.data() + k.tbBase);
        row.kernels_[ki] = cand.kernels_[ki];
    }
    row.entropy_ = cand.entropy_;
}

double
TracePlanes::entropyFromOnes(const std::uint64_t *ones,
                             unsigned window,
                             EntropyMetric metric) const
{
    // Each kernel's window entropy, then EntropyProfile::combine's
    // request-weighted average over kernels, in kernel order —
    // bit-identical to the scalar oracle for this output bit.
    if (requests_ == 0)
        return 0.0;
    double combined = 0.0;
    for (const KernelPlanes &k : kernels)
        combined += k.weight *
                    scoreKernel(k, ones + k.tbBase, window, metric).entropy;
    return combined;
}

void
TracePlanes::rowOnes(std::uint64_t row_mask, std::uint64_t *ones) const
{
    assert((row_mask & ~bits::mask(nbits)) == 0 &&
           "row taps must be tracked bits");
    const std::uint64_t *srcs[64];
    for (const KernelPlanes &k : kernels) {
        const std::uint64_t *arena = k.arena.data();
        for (std::size_t t = 0; t < k.tbs.size(); ++t) {
            const TbView &v = k.tbs[t];
            const std::size_t lo = v.rowOff - k.rowBase;
            if (v.words == 1) {
                ones[k.tbBase + t] =
                    static_cast<std::uint64_t>(std::popcount(
                        foldOneWord(arena, lo, k.kwords, row_mask)));
                continue;
            }
            const std::size_t nsrc =
                gatherTaps(arena, lo, k.kwords, row_mask, srcs);
            ones[k.tbBase + t] =
                ops->xorPopcountN(srcs, nsrc, nullptr, v.words);
        }
    }
}

double
TracePlanes::rowEntropy(std::uint64_t row_mask, unsigned window,
                        EntropyMetric metric) const
{
    // From-scratch oracle: per-TB one-counts of the combined output
    // plane (no plane materialized), then the shared entropy tail.
    std::vector<std::uint64_t> ones(tb_count);
    rowOnes(row_mask, ones.data());
    return entropyFromOnes(ones.data(), window, metric);
}

void
TracePlanes::rowEntropyBatch(std::span<const std::uint64_t> masks,
                             unsigned window, EntropyMetric metric,
                             double *out) const
{
    const std::size_t n = masks.size();
    if (n == 0)
        return;
    // One shared one-count scratch for the whole batch: each mask
    // sweeps the plane-major strips (sequential reads that stay hot
    // across masks) and scores immediately — no per-candidate
    // allocation, unlike a rowEntropy loop.
    std::vector<std::uint64_t> ones(tb_count);
    for (std::size_t mi = 0; mi < n; ++mi) {
        rowOnes(masks[mi], ones.data());
        out[mi] = entropyFromOnes(ones.data(), window, metric);
    }
}

std::vector<double>
TracePlanes::rowEntropyBatch(std::span<const std::uint64_t> masks,
                             unsigned window,
                             EntropyMetric metric) const
{
    std::vector<double> out(masks.size());
    rowEntropyBatch(masks, window, metric, out.data());
    return out;
}

EntropyProfile
TracePlanes::profileFor(const BitMatrix &m, unsigned window,
                        EntropyMetric metric) const
{
    if (m.size() != nbits)
        throw std::invalid_argument(
            "TracePlanes: matrix size != tracked bits");
    EntropyProfile out;
    out.weight = requests_;
    out.perBit.resize(nbits);
    std::vector<std::uint64_t> masks(nbits);
    for (unsigned r = 0; r < nbits; ++r)
        masks[r] = m.row(r);
    rowEntropyBatch(masks, window, metric, out.perBit.data());
    return out;
}

} // namespace workloads
} // namespace valley
