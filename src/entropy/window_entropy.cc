#include "entropy/window_entropy.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>

namespace valley {

double
shannonEntropyBaseV(const std::vector<double> &probs)
{
    // One pass: count the support and accumulate -sum p ln p
    // together; the log-base division happens once at the end, which
    // also guards log(v) == 0 for single-outcome distributions here
    // instead of at every call site.
    std::size_t v = 0;
    double h_num = 0.0;
    for (double p : probs) {
        if (p > 0.0) {
            ++v;
            h_num -= p * std::log(p);
        }
    }
    if (v <= 1)
        return 0.0;
    // Clamp numeric noise.
    return std::min(1.0,
                    std::max(0.0,
                             h_num / std::log(static_cast<double>(v))));
}

BvrAccumulator::BvrAccumulator(unsigned nbits_)
    : nbits(nbits_), ones(nbits_, 0)
{
}

void
BvrAccumulator::add(Addr a)
{
    ++total;
    for (unsigned b = 0; b < nbits; ++b)
        ones[b] += (a >> b) & 1;
}

std::vector<double>
BvrAccumulator::bvrs() const
{
    std::vector<double> out(nbits, 0.0);
    if (!total)
        return out;
    for (unsigned b = 0; b < nbits; ++b)
        out[b] = static_cast<double>(ones[b]) / static_cast<double>(total);
    return out;
}

namespace {

/** Quantize a BVR so equal ratios from different counts compare equal. */
std::uint32_t
quantize(double bvr)
{
    return static_cast<std::uint32_t>(
        std::lround(bvr * static_cast<double>(1u << 20)));
}

/**
 * Binary entropy with the Eq. 1 log base: exactly the floating-point
 * operations of `shannonEntropyBaseV({p, 1.0 - p})`, in the same
 * order, without materializing the two-element vector. Bit-identical
 * to the vector form (asserted in tests/window_entropy_test.cc);
 * allocation-free because this runs once per window slide inside the
 * search's candidate-scoring tail, where a heap allocation per window
 * dominates once the plane sweep itself is fast.
 */
inline double
binaryEntropyBaseV(double p)
{
    std::size_t v = 0;
    double h_num = 0.0;
    if (p > 0.0) {
        ++v;
        h_num -= p * std::log(p);
    }
    const double q = 1.0 - p;
    if (q > 0.0) {
        ++v;
        h_num -= q * std::log(q);
    }
    if (v <= 1)
        return 0.0;
    return std::min(1.0,
                    std::max(0.0,
                             h_num / std::log(static_cast<double>(v))));
}

/**
 * One window's term of `windowBitEntropy`: `binaryEntropyBaseV(p)`
 * for `p = sum / w` inside (0, 1), and +0.0 otherwise — memoized in a
 * direct-mapped, thread-local table keyed on the exact bit pattern of
 * the window's BVR sum and on the window width `w`. A hit skips the
 * `sum / w` division as well as the two `std::log` calls, which are
 * what a candidate evaluation costs once the plane sweep is fast; a
 * miss computes and stores the term. Either way the result is a pure
 * function of (sum, w), so the memo cannot change any profile or
 * search trajectory. Adding the stored +0.0 of a window outside
 * (0, 1) is exact, since the caller's total starts at +0.0 and never
 * becomes -0.0.
 *
 * Window sums repeat massively: TB BVR series are periodic (tiled
 * synth kernels, repeated CTAs) and the search rescores the same
 * kernels under many candidate rows. The BIM search's other two
 * savings sit upstream of this memo: `TracePlanes` reads per-TB BVRs
 * `c / R` for `R <= 64` from a table instead of dividing (87% of the
 * TBs the search scores), and each annealing chain answers a row mask
 * it has scored before from its own mask memo (28% of scored
 * proposals). With 2^12 slots of 24 B (96 KiB per thread) this memo
 * answers 99.48% of the window terms; 2^13 and 2^14 slots would reach
 * 99.71% and 99.83%. All figures: one pass of the `search_joint`
 * benchmark, seed 1, 121M window terms.
 *
 * Collisions just overwrite. A zero-initialized slot never matches,
 * because every caller's window width is at least 1.
 */
double
windowTermMemo(double sum, std::size_t w)
{
    struct Entry
    {
        std::uint64_t sum; ///< bit pattern of the window's BVR sum
        std::uint64_t w;   ///< window width; 0 in an unused slot
        double h;          ///< the term, +0.0 for p outside (0, 1)
    };
    constexpr std::size_t kSlotBits = 12;
    static thread_local Entry memo[std::size_t{1} << kSlotBits];

    std::uint64_t pat;
    std::memcpy(&pat, &sum, sizeof pat);
    const std::size_t idx = static_cast<std::size_t>(
        ((pat ^ w) * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits));
    Entry &e = memo[idx];
    if (e.sum != pat || e.w != w) {
        const double p = sum / static_cast<double>(w);
        e.sum = pat;
        e.w = w;
        e.h = p > 0.0 && p < 1.0 ? binaryEntropyBaseV(p) : 0.0;
    }
    return e.h;
}

/** Entropy (Eq. 1) of one window of quantized BVRs; scratch is reused. */
double
oneWindow(const std::uint32_t *begin, std::size_t w,
          std::vector<std::uint32_t> &scratch)
{
    scratch.assign(begin, begin + w);
    std::sort(scratch.begin(), scratch.end());

    // Count distinct values and their multiplicities.
    std::size_t v = 0;
    double h_num = 0.0; // -sum p ln p
    std::size_t i = 0;
    while (i < w) {
        std::size_t j = i;
        while (j < w && scratch[j] == scratch[i])
            ++j;
        const double p =
            static_cast<double>(j - i) / static_cast<double>(w);
        h_num -= p * std::log(p);
        ++v;
        i = j;
    }
    if (v <= 1)
        return 0.0;
    const double h = h_num / std::log(static_cast<double>(v));
    return std::min(1.0, std::max(0.0, h));
}

} // namespace

double
windowEntropyReference(const std::vector<double> &bvr_per_tb,
                       unsigned window)
{
    const std::size_t n = bvr_per_tb.size();
    if (n == 0 || window == 0)
        return 0.0;

    std::vector<std::uint32_t> q(n);
    for (std::size_t i = 0; i < n; ++i)
        q[i] = quantize(bvr_per_tb[i]);

    const std::size_t w = std::min<std::size_t>(window, n);
    const std::size_t windows = n - w + 1;
    std::vector<std::uint32_t> scratch;
    double sum = 0.0;
    for (std::size_t i = 0; i < windows; ++i)
        sum += oneWindow(q.data() + i, w, scratch);
    return sum / static_cast<double>(windows);
}

double
windowEntropy(const std::vector<double> &bvr_per_tb, unsigned window)
{
    const std::size_t n = bvr_per_tb.size();
    if (n == 0 || window == 0)
        return 0.0;

    std::vector<std::uint32_t> q(n);
    for (std::size_t i = 0; i < n; ++i)
        q[i] = quantize(bvr_per_tb[i]);

    const std::size_t w = std::min<std::size_t>(window, n);
    const std::size_t windows = n - w + 1;

    // Incremental sliding multiset: a count map over the quantized
    // BVRs in the current window plus a running h_num = -sum p ln p
    // over its distinct values, both maintained under the add/evict
    // of one TB per slide — O(n) amortized instead of the reference's
    // per-window assign+sort. Since every probability is c/w for a
    // fixed w, the per-count terms are memoized so an add/evict pair
    // that restores a count contributes exactly +-the same double and
    // the running sum drifts by at most a few ulp per slide (the
    // oracle comparison lives in tests/window_entropy_test.cc).
    std::vector<double> term(w + 1, 0.0);
    for (std::size_t c = 1; c < w; ++c) {
        const double p =
            static_cast<double>(c) / static_cast<double>(w);
        term[c] = -p * std::log(p);
    }

    std::unordered_map<std::uint32_t, std::uint32_t> count;
    count.reserve(2 * w);
    double h_num = 0.0;
    const auto addTb = [&](std::uint32_t v) {
        std::uint32_t &c = count[v];
        h_num -= term[c];
        h_num += term[++c];
    };
    const auto evictTb = [&](std::uint32_t v) {
        const auto it = count.find(v);
        h_num -= term[it->second];
        if (--it->second == 0)
            count.erase(it);
        else
            h_num += term[it->second];
    };

    for (std::size_t i = 0; i < w; ++i)
        addTb(q[i]);
    double sum = 0.0;
    for (std::size_t i = 0;; ++i) {
        const std::size_t v = count.size();
        if (v > 1) {
            const double h =
                h_num / std::log(static_cast<double>(v));
            sum += std::min(1.0, std::max(0.0, h));
        }
        if (i + 1 >= windows)
            break;
        // Evict before adding so no count ever exceeds w (term[] has
        // exactly w+1 entries).
        evictTb(q[i]);
        addTb(q[i + w]);
    }
    return sum / static_cast<double>(windows);
}

double
windowBitEntropy(const std::vector<double> &bvr_per_tb, unsigned window)
{
    const std::size_t n = bvr_per_tb.size();
    if (n == 0 || window == 0)
        return 0.0;
    const std::size_t w = std::min<std::size_t>(window, n);
    const std::size_t windows = n - w + 1;

    // Sliding sum of BVRs; per window p = sum / w, H = H(p, 1-p).
    double sum_bvr = 0.0;
    for (std::size_t i = 0; i < w; ++i)
        sum_bvr += bvr_per_tb[i];
    double total = 0.0;
    for (std::size_t i = 0;; ++i) {
        total += windowTermMemo(sum_bvr, w);
        if (i + 1 >= windows)
            break;
        sum_bvr += bvr_per_tb[i + w] - bvr_per_tb[i];
    }
    return total / static_cast<double>(windows);
}

double
EntropyProfile::meanOver(const std::vector<unsigned> &positions) const
{
    if (positions.empty())
        return 0.0;
    double s = 0.0;
    for (unsigned p : positions)
        s += p < perBit.size() ? perBit[p] : 0.0;
    return s / static_cast<double>(positions.size());
}

double
EntropyProfile::minOver(const std::vector<unsigned> &positions) const
{
    double m = 1.0;
    for (unsigned p : positions)
        m = std::min(m, p < perBit.size() ? perBit[p] : 0.0);
    return m;
}

EntropyProfile
EntropyProfile::combine(const std::vector<EntropyProfile> &ps)
{
    EntropyProfile out;
    if (ps.empty())
        return out;
    out.perBit.assign(ps.front().perBit.size(), 0.0);
    std::uint64_t total = 0;
    for (const EntropyProfile &p : ps)
        total += p.weight;
    if (total == 0)
        return out;
    for (const EntropyProfile &p : ps) {
        assert(p.perBit.size() == out.perBit.size());
        const double w = static_cast<double>(p.weight) /
                         static_cast<double>(total);
        for (std::size_t b = 0; b < out.perBit.size(); ++b)
            out.perBit[b] += w * p.perBit[b];
    }
    out.weight = total;
    return out;
}

std::string
EntropyProfile::chart(unsigned hi, unsigned lo) const
{
    // 10 height levels; row 10 = entropy 1.0, row 1 = entropy 0.1.
    constexpr int levels = 10;
    std::ostringstream out;
    for (int level = levels; level >= 1; --level) {
        const double threshold =
            (static_cast<double>(level) - 0.5) / levels;
        out << (level == levels ? "1.0 |" :
                level == 5      ? "0.5 |" : "    |");
        for (unsigned b = hi + 1; b-- > lo;) {
            const double e = b < perBit.size() ? perBit[b] : 0.0;
            out << (e >= threshold ? '#' : ' ');
        }
        out << '\n';
    }
    out << "    +";
    for (unsigned b = hi + 1; b-- > lo;)
        out << '-';
    out << "\n     ";
    for (unsigned b = hi + 1; b-- > lo;)
        out << (b % 10 == 0
                    ? static_cast<char>('0' + b / 10 % 10)
                    : ' ');
    out << "\n     ";
    for (unsigned b = hi + 1; b-- > lo;)
        out << static_cast<char>('0' + b % 10);
    out << '\n';
    return out.str();
}

EntropyProfile
bitFlipProfile(std::span<const Addr> ordered_requests, unsigned nbits)
{
    EntropyProfile out;
    out.perBit.assign(nbits, 0.0);
    out.weight = ordered_requests.size();
    if (ordered_requests.size() < 2)
        return out;

    std::vector<std::uint64_t> flips(nbits, 0);
    for (std::size_t i = 1; i < ordered_requests.size(); ++i) {
        const Addr diff = ordered_requests[i] ^
                          ordered_requests[i - 1];
        for (unsigned b = 0; b < nbits; ++b)
            flips[b] += (diff >> b) & 1;
    }
    // Prior work uses the flip rate itself as the entropy proxy
    // (more toggles == more information); already in [0, 1].
    const double pairs =
        static_cast<double>(ordered_requests.size() - 1);
    for (unsigned b = 0; b < nbits; ++b)
        out.perBit[b] = static_cast<double>(flips[b]) / pairs;
    return out;
}

EntropyProfile
kernelProfile(const std::vector<std::vector<double>> &tb_bvrs,
              unsigned window, std::uint64_t weight, EntropyMetric metric)
{
    EntropyProfile out;
    out.weight = weight;
    if (tb_bvrs.empty())
        return out;
    const std::size_t nbits = tb_bvrs.front().size();
    out.perBit.assign(nbits, 0.0);

    // Transpose: the window metrics consume one bit across all TBs.
    std::vector<double> series(tb_bvrs.size());
    for (std::size_t b = 0; b < nbits; ++b) {
        for (std::size_t t = 0; t < tb_bvrs.size(); ++t) {
            assert(tb_bvrs[t].size() == nbits);
            series[t] = tb_bvrs[t][b];
        }
        out.perBit[b] = metric == EntropyMetric::BvrDistribution
                            ? windowEntropy(series, window)
                            : windowBitEntropy(series, window);
    }
    return out;
}

} // namespace valley
