// Per-segment fingerprint filters: a register-blocked Bloom filter minted
// once per segment at fold/flush time (O(1) per element) and stored next to
// the fence keys in snap::Segment.
//
// Why segments need them: fence keys prune a segment only when the probe key
// falls outside its [min_key, max_key] span. Under uniform-random feeds every
// tiered segment spans essentially the whole keyspace, fences prune nothing,
// and a point read pays one binary search per segment per level. A filter
// answers "definitely absent" for (1 - FPR) of the segments a fence cannot
// rule out, collapsing the expected probe count from `segs` to
// 1 + FPR * (segs - 1) (see dam/bounds.hpp::cola_filter_search_transfer_bound).
//
// Layout: the classic cache-line-blocked design. The filter is an array of
// 64-byte blocks (8 x u64), allocated on a cache-line boundary (Words), so
// every block is exactly one line. A key hashes once; the high half selects the
// block via the fastrange multiply-shift (no division), the low half seeds
// kProbes double-hashed bit positions inside that block's 512 bits. A lookup
// therefore touches exactly ONE 64-byte block regardless of k — the whole
// probe costs a hash, a block fetch, and six masked tests folded into one
// branch. A reader probing several segments for one key computes every
// block's address first (filter_block), issues all the loads
// (prefetch_block) and only then tests them (block_may_contain), so the
// blocks' cache misses overlap instead of forming a chain.
//
// Sizing: kBitsPerKey = 10 bits/key and kProbes = 6 give an ideal-Bloom FPR
// of (1 - e^(-6/10))^6 ~ 0.8%; confining probes to one 512-bit block costs
// accuracy for locality, landing measured FPR near kDesignFpr (~1.4%) —
// tests/kernel_test.cpp asserts this within tolerance, and check_invariants
// asserts the structural guarantee that makes filters safe to trust on the
// read path: NO false negatives, ever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <vector>

namespace costream::filt {

inline constexpr std::size_t kBlockWords = 8;    // 8 x u64 = one cache line
inline constexpr std::size_t kBlockBits = kBlockWords * 64;
inline constexpr std::size_t kBitsPerKey = 10;
inline constexpr int kProbes = 6;

inline constexpr std::size_t kLineBytes = kBlockWords * sizeof(std::uint64_t);

/// Allocates on a cache-line boundary, so a filter's blocks are its lines.
template <class T>
struct LineAllocator {
  using value_type = T;
  LineAllocator() = default;
  template <class U>
  LineAllocator(const LineAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kLineBytes}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kLineBytes});
  }
  friend bool operator==(const LineAllocator&, const LineAllocator&) noexcept {
    return true;
  }
};

/// A filter's words: whole blocks, line-aligned; empty = no filter.
using Words = std::vector<std::uint64_t, LineAllocator<std::uint64_t>>;

/// The FPR the (bits/key, probes, blocked) design point targets; the
/// measured-rate test and the DAM filter bound both reference this one
/// constant so design and validation cannot drift apart.
inline constexpr double kDesignFpr = 0.014;

/// splitmix64 finalizer: full-avalanche mixing so that dense integer keys
/// (the common benchmark feed) spread over blocks and probe bits.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Key types filters can hash deterministically: integrals, padding-free
/// trivially-copyable types (byte representation IS the value — padding
/// bytes would differ between equal keys and break the no-false-negative
/// guarantee), or anything with a usable std::hash. Other key types simply
/// never get filters minted (fences still work); the knob degrades, the
/// build does not break.
template <class K>
inline constexpr bool filter_hashable_v =
    std::is_integral_v<K> || std::has_unique_object_representations_v<K> ||
    std::is_invocable_r_v<std::size_t, std::hash<K>, const K&>;

/// One hash per key, shared by insert and lookup. Integral keys take the
/// mixer directly; padding-free types mix their bytes word-wise; the rest
/// route through std::hash when one exists.
template <class K>
inline std::uint64_t key_hash(const K& key) noexcept {
  if constexpr (std::is_integral_v<K>) {
    return mix64(static_cast<std::uint64_t>(key));
  } else if constexpr (std::has_unique_object_representations_v<K>) {
    unsigned char bytes[sizeof(K)];
    std::memcpy(bytes, &key, sizeof(K));
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    std::size_t i = 0;
    for (; i + 8 <= sizeof(K); i += 8) {
      std::uint64_t w;
      std::memcpy(&w, bytes + i, 8);
      h = mix64(h ^ w);
    }
    if (i < sizeof(K)) {
      std::uint64_t tail = 0;
      std::memcpy(&tail, bytes + i, sizeof(K) - i);
      h = mix64(h ^ tail);
    }
    return h;
  } else if constexpr (std::is_invocable_r_v<std::size_t, std::hash<K>,
                                             const K&>) {
    return mix64(static_cast<std::uint64_t>(std::hash<K>{}(key)));
  } else {
    return 0;  // unreachable at runtime: filters are never minted for such K
  }
}

/// Words needed for n keys at the design density, rounded up to whole
/// blocks (never zero blocks: an empty filter vector means "no filter").
inline std::size_t filter_words_for(std::size_t n) noexcept {
  const std::size_t bits = n * kBitsPerKey;
  const std::size_t blocks = bits == 0 ? 1 : (bits + kBlockBits - 1) / kBlockBits;
  return blocks * kBlockWords;
}

namespace detail {

/// fastrange: maps a 32-bit hash fragment uniformly onto [0, nblocks)
/// with one multiply and one shift — no modulo in the probe path.
inline std::size_t pick_block(std::uint64_t h, std::size_t nblocks) noexcept {
  const std::uint64_t hi = h >> 32;
  return static_cast<std::size_t>((hi * static_cast<std::uint64_t>(nblocks)) >> 32);
}

}  // namespace detail

/// Set the kProbes bits for hash h. `words` must hold filter_words_for-many
/// words (a whole number of blocks).
inline void filter_insert(std::uint64_t* words, std::size_t nwords,
                          std::uint64_t h) noexcept {
  const std::size_t block = detail::pick_block(h, nwords / kBlockWords);
  std::uint64_t* blk = words + block * kBlockWords;
  // Double hashing inside the block: bit_i = h1 + i*h2 (mod 512), h2 odd
  // so the probe sequence walks all residues.
  std::uint32_t h1 = static_cast<std::uint32_t>(h);
  const std::uint32_t h2 = static_cast<std::uint32_t>(h >> 13) | 1u;
  for (int i = 0; i < kProbes; ++i) {
    const std::uint32_t bit = h1 & (kBlockBits - 1);
    blk[bit >> 6] |= 1ull << (bit & 63);
    h1 += h2;
  }
}

/// The block hash h probes in a filter of `nwords` words.
inline const std::uint64_t* filter_block(const std::uint64_t* words, std::size_t nwords,
                                         std::uint64_t h) noexcept {
  return words + detail::pick_block(h, nwords / kBlockWords) * kBlockWords;
}

/// Start loading a block (one cache line of a Words filter) without
/// waiting for it.
inline void prefetch_block(const std::uint64_t* blk) noexcept { __builtin_prefetch(blk); }

/// Test the kProbes bits for hash h in its block, with no branch per
/// probe; false means DEFINITELY absent.
inline bool block_may_contain(const std::uint64_t* blk, std::uint64_t h) noexcept {
  std::uint32_t h1 = static_cast<std::uint32_t>(h);
  const std::uint32_t h2 = static_cast<std::uint32_t>(h >> 13) | 1u;
  std::uint64_t missing = 0;
  for (int i = 0; i < kProbes; ++i) {
    const std::uint32_t bit = h1 & (kBlockBits - 1);
    missing |= ~blk[bit >> 6] & (1ull << (bit & 63));
    h1 += h2;
  }
  return missing == 0;
}

/// Test the kProbes bits for hash h; false means DEFINITELY absent.
inline bool filter_may_contain(const std::uint64_t* words, std::size_t nwords,
                               std::uint64_t h) noexcept {
  return block_may_contain(filter_block(words, nwords, h), h);
}

/// Mint a filter over a dense key plane — the per-fold path: one pass,
/// one hash + one line write per key.
template <class K>
inline Words build_filter(const K* keys, std::size_t n) {
  Words words(filter_words_for(n), 0);
  for (std::size_t i = 0; i < n; ++i) {
    filter_insert(words.data(), words.size(), key_hash(keys[i]));
  }
  return words;
}

}  // namespace costream::filt
