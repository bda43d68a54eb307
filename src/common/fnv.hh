/**
 * @file
 * FNV-1a hashing, shared by every cache-identity producer.
 *
 * One definition instead of per-module copies: synth spec hashes
 * (`ResolvedSpec::hash`), workload-set identities
 * (`WorkloadSet::hash`) and the cache records' checksums
 * (`harness::checksummedRecord`) all reach the on-disk cache, so their
 * hash loops must stay byte-for-byte in sync forever. The helpers here
 * reproduce the classic 64-bit FNV-1a exactly (offset basis
 * 0xCBF29CE484222325, prime 0x100000001B3), stable across runs and
 * platforms.
 */

#ifndef VALLEY_COMMON_FNV_HH
#define VALLEY_COMMON_FNV_HH

#include <cstdint>
#include <string_view>

namespace valley {
namespace bits {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/** Fold one byte into a running FNV-1a state. */
constexpr std::uint64_t
fnv1aByte(std::uint64_t h, unsigned char b)
{
    return (h ^ b) * kFnvPrime;
}

/** FNV-1a of a byte string (optionally continuing from `h`). */
constexpr std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = kFnvOffsetBasis)
{
    for (char c : s)
        h = fnv1aByte(h, static_cast<unsigned char>(c));
    return h;
}

/**
 * Fold a 64-bit value into a running FNV-1a state, least significant
 * byte first (endian-independent: byte order is defined by the
 * shifts, not by memory layout).
 */
constexpr std::uint64_t
fnv1aU64(std::uint64_t h, std::uint64_t v)
{
    for (unsigned byte = 0; byte < 8; ++byte)
        h = fnv1aByte(h,
                      static_cast<unsigned char>((v >> (8 * byte)) &
                                                 0xFF));
    return h;
}

} // namespace bits
} // namespace valley

#endif // VALLEY_COMMON_FNV_HH
