/**
 * @file
 * The repository's 64-bit mixers, both built on the splitmix64
 * finalizer, and hashWords, their fold over a word sequence. Run
 * fingerprints, protocol snapshot hashes and derived seeds all go
 * through these, so equal inputs hash equally in every tool.
 */

#ifndef PIMCACHE_COMMON_HASH_H_
#define PIMCACHE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace pim {

/** splitmix64: a bijective scramble of @p x. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Fold @p v into the running hash @p h (splitmix64 finalizer). */
inline std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** hashCombine fold of @p count words (protocol snapshot hashes). */
inline std::uint64_t
hashWords(const std::uint64_t* words, std::size_t count)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < count; ++i)
        h = hashCombine(h, words[i]);
    return h;
}

} // namespace pim

#endif // PIMCACHE_COMMON_HASH_H_
