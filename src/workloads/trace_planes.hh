/**
 * @file
 * Bit-plane trace representation: the one engine that turns a
 * workload's coalesced request addresses into per-TB Bit Value
 * Ratios (paper Section III-B).
 *
 * Two consumers start from the same data. The entropy profiler
 * (`workloads::profileWorkload`, Figs. 5 and 10) builds planes and
 * asks for one `profileFor` under the identity or a mapper's matrix.
 * The BIM search (Section IV-B's design-time methodology turned into
 * `search::BimSearch`) builds them once and scores thousands of
 * candidate matrices against them; re-profiling per candidate would
 * re-read every trace address each time. `TracePlanes` streams each
 * TB's coalesced request addresses through the dispatched 64x64
 * transpose (`bits::SimdOps::transpose64`) *once*, keeping the
 * transposed lanes: for every tracked address bit `b` and every TB,
 * one packed 64-requests-per-word bit plane.
 *
 * Because a BIM output bit is the XOR of the input bits its row taps,
 * the mapped output plane is just the XOR of the tapped input planes,
 * and its per-TB Bit Value Ratio is one popcount pass — no address is
 * ever touched again. A candidate row is scored in
 * O(taps x requests / 64 + #TBs) instead of O(requests x bits).
 *
 * ## Arena layout
 *
 * All planes of one kernel live in a single contiguous arena
 * allocation, **plane-major**: input bit `b`'s strip — every TB's
 * lane words for that bit, in TB-id order — is the contiguous range
 * `arena[b * kwords, (b + 1) * kwords)`, and a TB's segment sits at
 * the same local word offset in every strip (its row-plane offset
 * relative to the kernel). Incremental moves then stream: a
 * tap-toggle reads one whole strip sequentially instead of taking a
 * cache miss per TB (the strips of a large workload span megabytes,
 * so a TB-major layout made every per-TB plane read a fresh line),
 * and uniform one-word-per-TB kernels — every synth workload — XOR
 * and popcount the strip through one `SimdOps::xorPopcountEach`
 * call. Resident arena bytes are reported through the metrics
 * registry gauge `search.plane_bytes` (added on construction,
 * subtracted on destruction).
 *
 * ## Scoring
 *
 * `rowEntropy` is the one from-scratch scoring entry point: the
 * window entropy of one candidate row (XOR of its tapped planes,
 * per-TB one-counts, then each kernel's entropy, request-weighted).
 * `profileFor` is `rowEntropy` of every row of a matrix.
 *
 * The search scores its moves incrementally instead. It keeps its
 * current rows as `Row`s: the combined plane (`combineRow`), the
 * one-counts and each kernel's window entropy. `proposeToggle` (a
 * tap-toggle move, XOR one input strip) and `proposeXor` (a row-XOR
 * move, XOR two cached rows) score a candidate by rescoring only the
 * kernels whose one-counts the move changes, and `commit` copies just
 * those kernels back into the row.
 *
 * The skip rule rests on two facts. A kernel's entropy depends only
 * on its own one-counts. An XOR operand that is zero across a kernel
 * leaves those one-counts as they were. So a toggle of bit `b` skips
 * every kernel whose strip `b` is all zero (each kernel records these
 * bits as its zero mask while its arena is packed), and a row XOR
 * skips every kernel in which the other row has no one-bits. A
 * skipped kernel keeps the base row's entropy; the row entropy is
 * still the request-weighted sum over every kernel in kernel order,
 * so it is bit-identical to `rowEntropy` recomputed from scratch.
 *
 * The per-TB one-counts are exact integers and each BVR is the
 * quotient of one division (`bitValueRatio`, which reads it from a
 * table for TBs of at most 64 requests), so `profileFor` equals the
 * scalar path — a
 * `BvrAccumulator` per TB fed `AddressMapper::map` of every address,
 * then `kernelProfile` and `EntropyProfile::combine` — bit for bit
 * (the oracle kept in `tests/profiler_test.cc`).
 */

#ifndef VALLEY_WORKLOADS_TRACE_PLANES_HH
#define VALLEY_WORKLOADS_TRACE_PLANES_HH

#include <cstdint>
#include <span>
#include <vector>

#include "bim/bit_matrix.hh"
#include "common/bitops.hh"
#include "common/cancellation.hh"
#include "entropy/window_entropy.hh"
#include "workloads/workload.hh"

namespace valley {
namespace workloads {

/** Knobs for building a workload's bit planes. */
struct PlaneOptions
{
    unsigned numBits = 30; ///< physical address bits tracked
    /**
     * Worker threads for plane extraction: 1 = serial, 0 = one per
     * hardware thread. Every TB writes only its own preallocated
     * plane slot, so the result is bit-identical at any thread count.
     */
    unsigned threads = 0;
    /**
     * Pin this instance to the scalar kernel table regardless of CPU
     * and environment — the in-process oracle leg for SIMD identity
     * tests and benches. (All levels are bit-identical anyway; this
     * exists so one process can time both paths.)
     */
    bool forceScalar = false;
    /**
     * Optional cancellation token (non-owning; must outlive the
     * constructor), polled before each range of 256 TBs is
     * extracted; a fired token makes the constructor throw
     * `Cancelled` — half-extracted planes have no partial answer.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * A TB's Bit Value Ratio from its exact counts: `ones / requests`,
 * and 0 for a TB without requests. Every scoring path reads its BVRs
 * through this. For `requests <= 64` the quotient comes from a static
 * table of every `c / R` (2,144 doubles, filled by the same division),
 * so most TBs pay no division; the table is bit-identical to dividing.
 * Requires `ones <= requests`.
 */
double bitValueRatio(std::uint64_t ones, std::uint64_t requests);

/**
 * Transposed per-TB request planes of a run of kernels: a whole
 * workload, or the one kernel `profileKernel` profiles.
 *
 * Immutable after construction; the scoring entry points are const
 * and touch no shared mutable state, so one instance can be shared by
 * concurrent search restarts. Callers own their incremental `Row`s
 * and `Proposal`s.
 */
class TracePlanes
{
    /** One kernel's entropy and whether its one-counts are all 0. */
    struct KernelScore
    {
        double entropy = 0.0;
        bool zero = true;
    };

  public:
    /**
     * A cached candidate row: its combined output plane, exact per-TB
     * one-counts and each kernel's window entropy, under the window
     * and metric it was seeded with. Filled only by `seedRow` and
     * `commit`; see "Incremental scoring" above.
     */
    class Row
    {
      public:
        /** An unseeded row sized for the layout of `planes`. */
        explicit Row(const TracePlanes &planes);

        /** Bit-identical to `rowEntropy` of the row's mask. */
        double entropy() const { return entropy_; }

        /** The combined output plane, `planeWords()` words. */
        std::span<const std::uint64_t> plane() const { return plane_; }

        /** Exact per-TB one-counts, `tbCount()` entries. */
        std::span<const std::uint64_t> ones() const { return ones_; }

      private:
        friend class TracePlanes;

        std::vector<std::uint64_t> plane_;
        std::vector<std::uint64_t> ones_;
        std::vector<KernelScore> kernels_; ///< one per kernel
        double entropy_ = 0.0;
        unsigned window_ = 0;
        EntropyMetric metric_ = EntropyMetric::BitProbability;
    };

    /**
     * A scored move derived from a base `Row`. Only the kernels it
     * rescored hold valid plane words, one-counts and entropies;
     * `commit` copies exactly those into the base row.
     */
    class Proposal
    {
      public:
        /** Scratch sized for the layout of `planes`. */
        explicit Proposal(const TracePlanes &planes) : row_(planes) {}

        /** Kernels whose one-counts the move changed (rescored). */
        std::size_t kernelsRescored() const { return rescored_.size(); }

      private:
        friend class TracePlanes;

        Row row_;
        std::vector<std::uint32_t> rescored_; ///< kernel order
        const Row *base_ = nullptr;
    };

    /** Generate and transpose every TB trace of `kernels`. */
    TracePlanes(std::span<const Kernel> kernels,
                const PlaneOptions &opts);

    /** The planes of every kernel of `workload`, in launch order. */
    TracePlanes(const Workload &workload, const PlaneOptions &opts)
        : TracePlanes(workload.kernels(), opts)
    {
    }

    TracePlanes(const TracePlanes &) = delete;
    TracePlanes &operator=(const TracePlanes &) = delete;
    TracePlanes(TracePlanes &&other) noexcept;
    TracePlanes &operator=(TracePlanes &&other) noexcept;
    ~TracePlanes();

    /** Tracked address-bit width (matrix size the planes can score). */
    unsigned numBits() const { return nbits; }

    /** Total coalesced requests across all kernels. */
    std::uint64_t totalRequests() const { return requests_; }

    /** Number of kernels represented. */
    std::size_t numKernels() const { return kernels.size(); }

    /** Total TBs across all kernels (`ones` spans have this length). */
    std::size_t tbCount() const { return tb_count; }

    /**
     * 64-request words in one combined row plane — the concatenation
     * of every TB's lane, in (kernel, TB) order (the length of
     * `combineRow`'s `plane` buffer).
     */
    std::size_t planeWords() const { return plane_words; }

    /** Resident arena bytes (the `search.plane_bytes` gauge value). */
    std::uint64_t planeBytes() const;

    /**
     * Window entropy of the output bit produced by XOR-combining the
     * input bits selected by `row_mask` (a `BitMatrix` row), averaged
     * across kernels weighted by request count — the value a profile
     * under a matrix containing this row reports for that output bit.
     * Bits of `row_mask` at or above `numBits()` must be clear. The
     * one from-scratch scoring entry point: `profileFor` and the
     * search's identity cost loop over it, and the incremental moves
     * are tested against it.
     */
    double rowEntropy(std::uint64_t row_mask, unsigned window,
                      EntropyMetric metric) const;

    /**
     * Build the combined output plane of `row_mask` into
     * `plane[0, planeWords())` and its exact per-TB one-counts into
     * `ones[0, tbCount())`.
     */
    void combineRow(std::uint64_t row_mask, std::uint64_t *plane,
                    std::uint64_t *ones) const;

    /**
     * Seed `row` from `row_mask`: `combineRow` plus every kernel's
     * entropy under `window` and `metric`, which the row keeps for
     * the proposals derived from it.
     */
    void seedRow(std::uint64_t row_mask, unsigned window,
                 EntropyMetric metric, Row &row) const;

    /**
     * Score a tap-toggle move, `base ^ inputPlane(bit)`, into `out`
     * and return its entropy. Kernels whose strip `bit` is all zero
     * keep `base`'s entropy and are not touched.
     */
    double proposeToggle(const Row &base, unsigned bit,
                         Proposal &out) const;

    /**
     * Score a row-XOR move, `base ^ other`, into `out` and return its
     * entropy. Kernels in which `other` has no one-bits keep `base`'s
     * entropy and are not touched. Both rows must share a window and
     * metric.
     */
    double proposeXor(const Row &base, const Row &other,
                      Proposal &out) const;

    /**
     * Make `row` the row `p` proposed: copy the rescored kernels'
     * plane words, one-counts and entropies. `row` must be the base
     * `p` was derived from, unchanged since.
     */
    void commit(const Proposal &p, Row &row) const;

    /**
     * Full workload profile under matrix `m`: per output bit `r`,
     * `rowEntropy(m.row(r))`; `weight` is `totalRequests()`.
     *
     * @throws std::invalid_argument if `m.size() != numBits()`
     */
    EntropyProfile profileFor(const BitMatrix &m, unsigned window,
                              EntropyMetric metric) const;

  private:
    /** One TB's view into its kernel's arena. */
    struct TbView
    {
        std::uint64_t requests = 0;
        std::uint32_t words = 0; ///< 64-request words per bit plane
        std::size_t rowOff = 0;  ///< this TB's words in a row plane
    };

    /**
     * One kernel's TBs (TB-id order) over one contiguous plane-major
     * arena: bit `b`'s strip at `arena[b * kwords]`, TB `t`'s segment
     * at local offset `tbs[t].rowOff - rowBase` within every strip.
     */
    struct KernelPlanes
    {
        std::vector<TbView> tbs;
        std::vector<std::uint64_t> arena;
        std::uint64_t requests = 0; ///< combine() weight
        double weight = 0.0;        ///< requests / totalRequests()
        /** Input bits whose strip is all zero in this kernel. */
        std::uint64_t zeroMask = 0;
        std::size_t tbBase = 0;     ///< first global TB index
        std::size_t rowBase = 0;    ///< first word in a row plane
        std::size_t kwords = 0;     ///< words per strip (sum of TBs)
        bool uniform = false;       ///< every TB has words == 1
    };

    /** Exact per-TB one-counts of `row_mask`'s combined output plane. */
    void rowOnes(std::uint64_t row_mask, std::uint64_t *ones) const;

    /**
     * The entropy of a row whose per-TB one-counts are `ones` — the
     * tail of `rowEntropy`: every kernel's `scoreKernel`,
     * request-weighted in kernel order, the same sum `seedRow` and the
     * proposals make.
     */
    double entropyFromOnes(const std::uint64_t *ones, unsigned window,
                           EntropyMetric metric) const;

    /**
     * Window entropy of kernel `k`'s BVR series from its per-TB
     * one-counts `ones` (the kernel's first TB at `ones[0]`) — the
     * one per-kernel function every scoring path shares.
     */
    KernelScore scoreKernel(const KernelPlanes &k,
                            const std::uint64_t *ones, unsigned window,
                            EntropyMetric metric) const;

    /**
     * `dst = a ^ b` over kernel `k`'s words with its per-TB
     * one-counts; every pointer is kernel-local (word 0 / TB 0 of
     * `k`). `dst` may alias `a` or `b`.
     */
    void xorKernel(const KernelPlanes &k, const std::uint64_t *a,
                   const std::uint64_t *b, std::uint64_t *dst,
                   std::uint64_t *ones) const;

    /**
     * The proposal loop both move kinds share: for each kernel in
     * order, `rescore(k)` XORs the move into `out` and returns true,
     * or returns false to keep `base`'s entropy.
     */
    template <typename Rescore>
    double propose(const Row &base, Proposal &out,
                   Rescore rescore) const;

    void releaseGauge() noexcept;

    unsigned nbits;
    std::uint64_t requests_ = 0;
    std::size_t tb_count = 0;
    std::size_t plane_words = 0;
    const bits::SimdOps *ops; ///< kernel table (scalar if forced)
    std::vector<KernelPlanes> kernels;
};

} // namespace workloads
} // namespace valley

#endif // VALLEY_WORKLOADS_TRACE_PLANES_HH
