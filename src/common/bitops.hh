/**
 * @file
 * Bit-manipulation helpers used by the BIM algebra, the address
 * layouts and the entropy analysis.
 */

#ifndef VALLEY_COMMON_BITOPS_HH
#define VALLEY_COMMON_BITOPS_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace valley {
namespace bits {

/** Return a mask with the `n` least significant bits set. */
constexpr std::uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/** Extract bits [hi:lo] (inclusive) of `v`, right-aligned. */
constexpr std::uint64_t
extract(std::uint64_t v, unsigned hi, unsigned lo)
{
    return (v >> lo) & mask(hi - lo + 1);
}

/** Extract single bit `pos` of `v`. */
constexpr unsigned
bit(std::uint64_t v, unsigned pos)
{
    return static_cast<unsigned>((v >> pos) & 1);
}

/** Return `v` with bits [hi:lo] replaced by the low bits of `field`. */
constexpr std::uint64_t
insert(std::uint64_t v, unsigned hi, unsigned lo, std::uint64_t field)
{
    const std::uint64_t m = mask(hi - lo + 1);
    return (v & ~(m << lo)) | ((field & m) << lo);
}

/** Return `v` with bit `pos` set to `b` (0/1). */
constexpr std::uint64_t
setBit(std::uint64_t v, unsigned pos, unsigned b)
{
    return (v & ~(std::uint64_t{1} << pos)) |
           (std::uint64_t{b & 1} << pos);
}

/** Parity (XOR-reduction) of all bits of `v`. */
constexpr unsigned
parity(std::uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v) & 1);
}

/** True iff `v` is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2Exact(std::uint64_t v)
{
    assert(isPow2(v));
    return static_cast<unsigned>(std::countr_zero(v));
}

/** Ceil of log2 (log2Ceil(1) == 0). */
constexpr unsigned
log2Ceil(std::uint64_t v)
{
    unsigned r = 0;
    std::uint64_t p = 1;
    while (p < v) { p <<= 1; ++r; }
    return r;
}

/**
 * One delta-swap pass of the 64x64 bit transpose: exchange the
 * `J`-aligned sub-blocks of every row pair (k, k+J) under `mask`.
 * `J` is a template parameter so each stage compiles with constant
 * shift counts — which lets the compiler unroll and vectorize the
 * pass (constant 64-bit shifts exist even in baseline SSE2).
 */
template <unsigned J>
inline void
transposeStage(std::uint64_t *rows, std::uint64_t mask)
{
    for (unsigned k0 = 0; k0 < 64; k0 += 2 * J) {
        for (unsigned k = k0; k < k0 + J; ++k) {
            const std::uint64_t t =
                ((rows[k] >> J) ^ rows[k + J]) & mask;
            rows[k] ^= t << J;
            rows[k + J] ^= t;
        }
    }
}

/**
 * In-place transpose of a 64x64 bit matrix held as 64 row words:
 * afterwards bit `c` of `rows[r]` equals bit `r` of the original
 * `rows[c]`. Recursive block-swap (Hacker's Delight 7-3): six passes
 * of masked delta-swaps, ~3 ops per word per pass, independent of the
 * matrix content. The trace planes use it to turn 64 buffered
 * addresses into one 64-bit lane per address bit, which then
 * accumulate via `popcount` instead of a per-address bit walk.
 *
 * This is the scalar reference implementation — always available, and
 * the oracle the SIMD variants are tested against. Callers go through
 * the runtime-dispatched `SimdOps::transpose64` below.
 */
inline void
transpose64Scalar(std::uint64_t rows[64])
{
    transposeStage<32>(rows, 0x00000000FFFFFFFFull);
    transposeStage<16>(rows, 0x0000FFFF0000FFFFull);
    transposeStage<8>(rows, 0x00FF00FF00FF00FFull);
    transposeStage<4>(rows, 0x0F0F0F0F0F0F0F0Full);
    transposeStage<2>(rows, 0x3333333333333333ull);
    transposeStage<1>(rows, 0x5555555555555555ull);
}

/**
 * ## Runtime SIMD dispatch (common/simd.cc)
 *
 * The trace planes (workloads/trace_planes.hh), which feed both the
 * profiler and the search, spend their time in a few word-level
 * kernels: the 64x64 transpose, bulk popcount, fused two-plane and
 * per-word XOR+popcount, and N-plane XOR-combine+popcount. `SimdOps`
 * is a function-pointer table with one implementation per ISA level;
 * `simdOps()` resolves the widest level the CPU supports exactly once
 * (thread-safe magic static, the std::once idiom) and every call
 * after that is one indirect call.
 *
 * All levels produce bit-identical results — the kernels compute
 * exact integer one-counts, so the choice of level can never change a
 * profile, a search trajectory, or a cached artifact. `VALLEY_NO_SIMD=1`
 * in the environment pins dispatch to the scalar table (read at first
 * resolution); `scalarSimdOps()` is always available in-process as
 * the test/bench oracle regardless of the environment.
 */
enum class SimdLevel
{
    Scalar = 0, ///< portable C++, no ISA assumptions
    Avx2 = 1,   ///< 256-bit: AVX2 transpose + Mula popcount
    Avx512 = 2, ///< 512-bit: AVX-512 transpose + VPOPCNTDQ kernels
};

/** Kernel table for one ISA level. All entries are non-null. */
struct SimdOps
{
    SimdLevel level;
    const char *name; ///< stable id: "scalar" / "avx2" / "avx512"

    /** In-place 64x64 bit transpose (see `transpose64Scalar`). */
    void (*transpose64)(std::uint64_t rows[64]);

    /**
     * dst[i] = a[i] ^ b[i] for i in [0, n); returns the popcount of
     * the combined words. `dst` may alias `a` or `b`. The fused
     * "score one incremental plane move" kernel.
     */
    std::uint64_t (*xorPopcount2)(const std::uint64_t *a,
                                  const std::uint64_t *b,
                                  std::uint64_t *dst, std::size_t n);

    /**
     * XOR-combine `nsrc` equal-length word runs; returns the popcount
     * of the combination and, when `dst` is non-null, stores it
     * there. `nsrc == 0` means the all-zero plane (popcount 0, `dst`
     * zero-filled). The "combine all tapped input planes" kernel.
     */
    std::uint64_t (*xorPopcountN)(const std::uint64_t *const *srcs,
                                  std::size_t nsrc, std::uint64_t *dst,
                                  std::size_t n);

    /**
     * dst[i] = a[i] ^ b[i] and counts[i] = popcount(dst[i]) for i in
     * [0, n) — per-word one-counts instead of a total. `dst` may
     * alias `a` or `b`. The "incremental move over a uniform
     * one-word-per-TB kernel" kernel: each word is one TB's 64-request
     * lane, so `counts` lands directly in the per-TB ones array.
     */
    void (*xorPopcountEach)(const std::uint64_t *a,
                            const std::uint64_t *b, std::uint64_t *dst,
                            std::uint64_t *counts, std::size_t n);
};

/**
 * The dispatched kernel table: widest ISA level this CPU supports,
 * resolved once on first use; `VALLEY_NO_SIMD=1` forces Scalar.
 */
const SimdOps &simdOps();

/** The scalar oracle table, independent of dispatch and environment. */
const SimdOps &scalarSimdOps();

/**
 * Table for an explicit level, or nullptr when this CPU (or build)
 * cannot run it. Scalar is never null. For tests and benches.
 */
const SimdOps *simdOpsFor(SimdLevel level);

} // namespace bits
} // namespace valley

#endif // VALLEY_COMMON_BITOPS_HH
