#ifndef MDES_SUPPORT_FNV_H
#define MDES_SUPPORT_FNV_H

/**
 * @file
 * FNV-1a 64-bit hashing, the content hash behind artifact keys, image
 * checksums and schedule fingerprints. The state after a prefix can be saved and continued, so a
 * hash over a fixed prefix (a built-in description's source) is paid
 * once.
 */

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mdes {

/** FNV-1a 64 offset basis: the state before any byte. */
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** Continue FNV-1a state @p h over @p n bytes at @p data. */
inline uint64_t
fnv1a64(const void *data, size_t n, uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Continue FNV-1a state @p h over the bytes of @p s. */
inline uint64_t
fnv1a64(std::string_view s, uint64_t h = kFnvOffset)
{
    return fnv1a64(s.data(), s.size(), h);
}

/** Continue FNV-1a state @p h over the eight bytes of @p v, least
 * significant first: the same on every host's endianness. */
inline uint64_t
fnvMix64(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace mdes

#endif // MDES_SUPPORT_FNV_H
