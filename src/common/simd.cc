/**
 * @file
 * Runtime-dispatched SIMD kernels behind `bits::simdOps()`.
 *
 * Two tables — scalar and AVX2 — both computing bit-identical integer
 * results for the word-level kernels the trace planes behind the
 * profiler and the BIM search reduce to (see bitops.hh). AVX2 support
 * is probed once via `__builtin_cpu_supports` (which also verifies OS
 * XSAVE state, so a kernel that masks AVX off degrades cleanly) and
 * the choice is cached in a thread-safe static; `VALLEY_NO_SIMD=1`
 * pins the process to the scalar table at first resolution.
 *
 * The AVX2 implementations are compiled with per-function `target`
 * attributes so the translation unit itself needs no -mavx2 flag and
 * the rest of the build keeps the default target ISA.
 *
 * AVX2 is the widest tier on purpose: an AVX-512 table (VPOPCNTDQ
 * popcount, an 8-ZMM transpose) ran no faster end to end on the
 * `search_joint` benchmark, so it was removed.
 *
 * Level notes:
 *  - AVX2 transpose: the six delta-swap stages of the scalar
 *    transpose, four of them on vector pairs (row strides 32/16/8/4
 *    span whole __m256i registers) and the last two (strides 2/1)
 *    in-register via permute4x64 + 32-bit blends. The whole 64-word
 *    matrix lives in the 16 YMM registers for all six stages.
 *  - AVX2 popcount: Mula's nibble-LUT (shuffle_epi8) with sad_epu8
 *    accumulation — exact integer counts, no float paths.
 */

#include "common/bitops.hh"

#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define VALLEY_X86 1
#include <immintrin.h>
#endif

namespace valley {
namespace bits {

namespace {

// ---- scalar kernels --------------------------------------------------------

std::uint64_t
xorPopcount2Scalar(const std::uint64_t *a, const std::uint64_t *b,
                   std::uint64_t *dst, std::size_t n)
{
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t x = a[i] ^ b[i];
        dst[i] = x;
        ones += static_cast<std::uint64_t>(std::popcount(x));
    }
    return ones;
}

std::uint64_t
xorPopcountNScalar(const std::uint64_t *const *srcs, std::size_t nsrc,
                   std::uint64_t *dst, std::size_t n)
{
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t x = 0;
        for (std::size_t s = 0; s < nsrc; ++s)
            x ^= srcs[s][i];
        if (dst != nullptr)
            dst[i] = x;
        ones += static_cast<std::uint64_t>(std::popcount(x));
    }
    return ones;
}

void
xorPopcountEachScalar(const std::uint64_t *a, const std::uint64_t *b,
                      std::uint64_t *dst, std::uint64_t *counts,
                      std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t x = a[i] ^ b[i];
        dst[i] = x;
        counts[i] = static_cast<std::uint64_t>(std::popcount(x));
    }
}

constexpr SimdOps kScalarOps = {
    SimdLevel::Scalar,  "scalar",           transpose64Scalar,
    xorPopcount2Scalar, xorPopcountNScalar, xorPopcountEachScalar,
};

#ifdef VALLEY_X86

// ---- AVX2 kernels ----------------------------------------------------------

/*
 * One delta-swap pass on a vector pair: the lock-step form of
 * bits::transposeStage for four row pairs at once. J is the bit shift
 * (== the row stride covered by the pairing of A and B).
 */
#define VALLEY_DELTA256(A, B, J, M)                                    \
    do {                                                               \
        const __m256i t_ = _mm256_and_si256(                           \
            _mm256_xor_si256(_mm256_srli_epi64((A), (J)), (B)), (M));  \
        (A) = _mm256_xor_si256((A), _mm256_slli_epi64(t_, (J)));       \
        (B) = _mm256_xor_si256((B), t_);                               \
    } while (0)

__attribute__((target("avx2"))) void
transpose64Avx2(std::uint64_t rows[64])
{
    __m256i v[16];
    for (int i = 0; i < 16; ++i)
        v[i] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(rows + 4 * i));

    const __m256i m32 = _mm256_set1_epi64x(0x00000000FFFFFFFFll);
    const __m256i m16 = _mm256_set1_epi64x(0x0000FFFF0000FFFFll);
    const __m256i m8 = _mm256_set1_epi64x(0x00FF00FF00FF00FFll);
    const __m256i m4 = _mm256_set1_epi64x(0x0F0F0F0F0F0F0F0Fll);
    const __m256i m2 = _mm256_set1_epi64x(0x3333333333333333ll);
    const __m256i m1 = _mm256_set1_epi64x(0x5555555555555555ll);

    // Stride 32: rows k and k+32 are vectors i and i+8.
    for (int i = 0; i < 8; ++i)
        VALLEY_DELTA256(v[i], v[i + 8], 32, m32);
    // Stride 16: within each half, vectors i and i+4.
    for (int g = 0; g < 16; g += 8)
        for (int i = 0; i < 4; ++i)
            VALLEY_DELTA256(v[g + i], v[g + i + 4], 16, m16);
    // Stride 8: within each quarter, vectors i and i+2.
    for (int g = 0; g < 16; g += 4)
        for (int i = 0; i < 2; ++i)
            VALLEY_DELTA256(v[g + i], v[g + i + 2], 8, m8);
    // Stride 4: adjacent vector pairs.
    for (int g = 0; g < 16; g += 2)
        VALLEY_DELTA256(v[g], v[g + 1], 4, m4);

    // Strides 2 and 1 pair lanes *within* one vector. For each
    // vector [r0 r1 r2 r3], compute the delta term against the
    // partner permutation; the term of pair (lo, hi) comes out in the
    // lo lane of one orientation and the hi lane of the other, so a
    // 32-bit blend assembles a full-term vector [t.. for every lane]
    // and one more blend applies `t << J` to lo lanes, `t` to hi.
    for (int i = 0; i < 16; ++i) {
        // Stride 2: pairs (r0,r2), (r1,r3); hi lanes are 2,3.
        __m256i p =
            _mm256_permute4x64_epi64(v[i], _MM_SHUFFLE(1, 0, 3, 2));
        __m256i tlo = _mm256_and_si256(
            _mm256_xor_si256(_mm256_srli_epi64(v[i], 2), p), m2);
        __m256i thi = _mm256_and_si256(
            _mm256_xor_si256(_mm256_srli_epi64(p, 2), v[i]), m2);
        __m256i t = _mm256_blend_epi32(tlo, thi, 0xF0);
        v[i] = _mm256_xor_si256(
            v[i],
            _mm256_blend_epi32(_mm256_slli_epi64(t, 2), t, 0xF0));

        // Stride 1: pairs (r0,r1), (r2,r3); hi lanes are 1,3.
        p = _mm256_permute4x64_epi64(v[i], _MM_SHUFFLE(2, 3, 0, 1));
        tlo = _mm256_and_si256(
            _mm256_xor_si256(_mm256_srli_epi64(v[i], 1), p), m1);
        thi = _mm256_and_si256(
            _mm256_xor_si256(_mm256_srli_epi64(p, 1), v[i]), m1);
        t = _mm256_blend_epi32(tlo, thi, 0xCC);
        v[i] = _mm256_xor_si256(
            v[i],
            _mm256_blend_epi32(_mm256_slli_epi64(t, 1), t, 0xCC));
    }

    for (int i = 0; i < 16; ++i)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(rows + 4 * i),
                            v[i]);
}

/*
 * Mula's byte-LUT popcount of one 256-bit vector, accumulated as four
 * 64-bit lane sums via sad_epu8 — exact at any accumulation length.
 */
#define VALLEY_POPCNT256(ACC, X)                                       \
    do {                                                               \
        const __m256i lo_ = _mm256_and_si256((X), nib_);               \
        const __m256i hi_ = _mm256_and_si256(                          \
            _mm256_srli_epi16((X), 4), nib_);                          \
        const __m256i cnt_ = _mm256_add_epi8(                          \
            _mm256_shuffle_epi8(lut_, lo_),                            \
            _mm256_shuffle_epi8(lut_, hi_));                           \
        (ACC) = _mm256_add_epi64(                                      \
            (ACC), _mm256_sad_epu8(cnt_, _mm256_setzero_si256()));     \
    } while (0)

#define VALLEY_POPCNT256_DECLS                                         \
    const __m256i lut_ = _mm256_setr_epi8(                             \
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,   \
        1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);                           \
    const __m256i nib_ = _mm256_set1_epi8(0x0F)

__attribute__((target("avx2"))) std::uint64_t
hsum256(__m256i acc)
{
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) std::uint64_t
xorPopcount2Avx2(const std::uint64_t *a, const std::uint64_t *b,
                 std::uint64_t *dst, std::size_t n)
{
    VALLEY_POPCNT256_DECLS;
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), x);
        VALLEY_POPCNT256(acc, x);
    }
    std::uint64_t ones = hsum256(acc);
    for (; i < n; ++i) {
        const std::uint64_t x = a[i] ^ b[i];
        dst[i] = x;
        ones += static_cast<std::uint64_t>(std::popcount(x));
    }
    return ones;
}

__attribute__((target("avx2"))) std::uint64_t
xorPopcountNAvx2(const std::uint64_t *const *srcs, std::size_t nsrc,
                 std::uint64_t *dst, std::size_t n)
{
    VALLEY_POPCNT256_DECLS;
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i x = _mm256_setzero_si256();
        for (std::size_t s = 0; s < nsrc; ++s)
            x = _mm256_xor_si256(
                x, _mm256_loadu_si256(
                       reinterpret_cast<const __m256i *>(srcs[s] + i)));
        if (dst != nullptr)
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                                x);
        VALLEY_POPCNT256(acc, x);
    }
    std::uint64_t ones = hsum256(acc);
    for (; i < n; ++i) {
        std::uint64_t x = 0;
        for (std::size_t s = 0; s < nsrc; ++s)
            x ^= srcs[s][i];
        if (dst != nullptr)
            dst[i] = x;
        ones += static_cast<std::uint64_t>(std::popcount(x));
    }
    return ones;
}

__attribute__((target("avx2"))) void
xorPopcountEachAvx2(const std::uint64_t *a, const std::uint64_t *b,
                    std::uint64_t *dst, std::uint64_t *counts,
                    std::size_t n)
{
    VALLEY_POPCNT256_DECLS;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), x);
        // sad_epu8 against zero sums each 8-byte group of the
        // per-byte LUT counts — exactly the four per-qword popcounts.
        const __m256i lo = _mm256_and_si256(x, nib_);
        const __m256i hi =
            _mm256_and_si256(_mm256_srli_epi16(x, 4), nib_);
        const __m256i cnt =
            _mm256_add_epi8(_mm256_shuffle_epi8(lut_, lo),
                            _mm256_shuffle_epi8(lut_, hi));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(counts + i),
            _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
    }
    for (; i < n; ++i) {
        const std::uint64_t x = a[i] ^ b[i];
        dst[i] = x;
        counts[i] = static_cast<std::uint64_t>(std::popcount(x));
    }
}

constexpr SimdOps kAvx2Ops = {
    SimdLevel::Avx2,  "avx2",           transpose64Avx2,
    xorPopcount2Avx2, xorPopcountNAvx2, xorPopcountEachAvx2,
};

bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2") != 0;
}

#endif // VALLEY_X86

const SimdOps &
resolveOps()
{
    if (const char *e = std::getenv("VALLEY_NO_SIMD"))
        if (e[0] != '\0' && !(e[0] == '0' && e[1] == '\0'))
            return kScalarOps;
#ifdef VALLEY_X86
    if (cpuHasAvx2())
        return kAvx2Ops;
#endif
    return kScalarOps;
}

} // namespace

const SimdOps &
simdOps()
{
    // Magic-static resolution: thread-safe once-init, then every call
    // is a load + indirect call through the chosen table.
    static const SimdOps &ops = resolveOps();
    return ops;
}

const SimdOps &
scalarSimdOps()
{
    return kScalarOps;
}

const SimdOps *
simdOpsFor(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return &kScalarOps;
#ifdef VALLEY_X86
    case SimdLevel::Avx2:
        return cpuHasAvx2() ? &kAvx2Ops : nullptr;
#else
    case SimdLevel::Avx2:
        return nullptr;
#endif
    }
    return nullptr;
}

} // namespace bits
} // namespace valley
