/**
 * @file
 * Window-based address-bit entropy (paper Section III).
 *
 * GPU memory requests from concurrent thread blocks interleave
 * unpredictably, so bit-flip-rate entropy estimators are unreliable.
 * The paper instead computes, per thread block, the Bit Value Ratio
 * (BVR) of every address bit — the fraction of 1-values across the
 * TB's requests — and then slides a window of `w` TBs (sorted by TB
 * id, approximating the TB scheduler) over the BVR sequence. The
 * entropy of the BVR multiset inside each window (Shannon entropy with
 * logarithm base = number of distinct BVR values, Eq. 1) is averaged
 * over all windows (Eq. 2). `w` is set to the number of SMs.
 */

#ifndef VALLEY_ENTROPY_WINDOW_ENTROPY_HH
#define VALLEY_ENTROPY_WINDOW_ENTROPY_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace valley {

/**
 * Shannon entropy of a discrete distribution using log base `v` where
 * `v` is the number of outcomes (paper Eq. 1). Returns a value in
 * [0, 1]; by convention the entropy of a single-outcome distribution
 * is 0. Probabilities must sum to ~1.
 */
double shannonEntropyBaseV(const std::vector<double> &probs);

/**
 * Per-thread-block accumulator of address-bit value counts.
 *
 * Feed it every memory request address issued by one TB; `bvrs()`
 * yields the per-bit fraction of 1-values (the BVR vector).
 */
class BvrAccumulator
{
  public:
    explicit BvrAccumulator(unsigned nbits);

    /** Account one request address. */
    void add(Addr a);

    /** Number of accumulated requests. */
    std::uint64_t requestCount() const { return total; }

    /** Bit width tracked. */
    unsigned numBits() const { return nbits; }

    /** Per-bit BVR in [0,1]; all zeros when no requests were added. */
    std::vector<double> bvrs() const;

  private:
    unsigned nbits;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> ones;
};

/**
 * Window-based entropy H* (Eq. 2) of a single address bit.
 *
 * @param bvr_per_tb BVR of this bit for each TB, ordered by TB id
 * @param window     TB window size `w` (heuristically, #SMs)
 *
 * BVR values are quantized to 2^-20 before comparison so that equal
 * ratios computed from different request counts compare equal. If
 * fewer than `window` TBs exist, a single window covering all TBs is
 * used. Each window is sorted to count its distinct values,
 * O(n * w log w). No profile or search computes this reading (see
 * `windowBitEntropy`); it serves Fig. 3 and the tests that contrast
 * the two readings.
 */
double windowEntropy(const std::vector<double> &bvr_per_tb,
                     unsigned window);

/**
 * Request-weighted window bit entropy.
 *
 * Eq. 2 computes the entropy of the *BVR-value distribution* inside
 * the window. On the paper's worked examples (Fig. 3 and footnote 1,
 * where BVRs are 0 or 1) this is identical to the binary entropy of
 * the probability that the bit is 1 across the window's requests,
 * p = mean(BVR). The two readings diverge for fractional BVRs: a
 * window of TBs that each sweep a bit uniformly (BVR 0.5 everywhere)
 * carries maximal information per request but has a single unique BVR
 * value. The figures (Fig. 5's non-valley benchmarks, Fig. 10 ALL)
 * reflect the request-weighted reading, so every profile and every
 * search computes it. See DESIGN.md, "Which window entropy profiles
 * compute".
 */
double windowBitEntropy(const std::vector<double> &bvr_per_tb,
                        unsigned window);

/**
 * Per-bit entropy profile of one kernel or one application, with the
 * weight used for cross-kernel aggregation (= #memory requests).
 */
struct EntropyProfile
{
    std::vector<double> perBit;  ///< entropy of each address bit
    std::uint64_t weight = 0;    ///< memory requests represented

    unsigned
    numBits() const
    {
        return static_cast<unsigned>(perBit.size());
    }

    /** Mean entropy over a set of bit positions. */
    double meanOver(const std::vector<unsigned> &positions) const;

    /** Minimum entropy over a set of bit positions. */
    double minOver(const std::vector<unsigned> &positions) const;

    /**
     * Weighted average of per-kernel profiles (weights = request
     * counts), the paper's application-level aggregation.
     */
    static EntropyProfile combine(const std::vector<EntropyProfile> &ps);

    /**
     * Render bits [hi..lo] as a coarse text bar chart (one column per
     * bit, most significant on the left, ten height levels) used by
     * the Fig. 5 / Fig. 10 benches.
     */
    std::string chart(unsigned hi, unsigned lo) const;
};

/**
 * Compute a kernel's entropy profile (`windowBitEntropy` of every
 * bit) from per-TB BVR vectors (ordered by TB id). `weight` should be
 * the kernel's total request count.
 */
EntropyProfile kernelProfile(
    const std::vector<std::vector<double>> &tb_bvrs, unsigned window,
    std::uint64_t weight);

/**
 * Bit-flip-rate entropy estimator used by prior work (Akin et al.,
 * Ghasempour et al.; paper Section VII): per bit, the fraction of
 * consecutive request pairs in which the bit toggles, fed through the
 * binary entropy function.
 *
 * The paper argues this estimator is unreliable for GPUs because
 * concurrent TBs interleave their requests in arbitrary ways — the
 * same request multiset can produce very different flip rates under
 * different interleavings, whereas the window-based metric is
 * order-free by construction. `tests/window_entropy_test.cc`
 * demonstrates exactly that.
 *
 * @param ordered_requests request addresses in observation order
 * @param nbits            address bits to profile
 */
EntropyProfile bitFlipProfile(std::span<const Addr> ordered_requests,
                              unsigned nbits);

} // namespace valley

#endif // VALLEY_ENTROPY_WINDOW_ENTROPY_HH
