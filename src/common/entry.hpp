// The element type shared by every dictionary in the library.
//
// The paper's experimental setup (Section 4) stores 64-bit keys and 64-bit
// values padded to 32 bytes per element, with some of the padding reused for
// lookahead-pointer bookkeeping. We keep Entry minimal (key + value) and let
// each structure add its own bookkeeping fields, which is equivalent and
// keeps the public API clean.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

namespace costream {

using Key = std::uint64_t;
using Value = std::uint64_t;

/// A key/value pair. Ordered by key only: dictionaries never compare values.
template <class K = Key, class V = Value>
struct Entry {
  K key{};
  V value{};

  friend constexpr bool operator==(const Entry& a, const Entry& b) noexcept {
    return a.key == b.key;
  }
  friend constexpr auto operator<=>(const Entry& a, const Entry& b) noexcept {
    return a.key <=> b.key;
  }
};

/// One operation of a mixed put/erase batch (apply_batch — contract in
/// api/dictionary.hpp). `erase` marks a blind delete: the value is ignored
/// and the write-optimized structures carry it as a tombstone. Ordered by
/// key only, like Entry, so batch normalization (sort_dedup_newest_wins)
/// applies to Op runs unchanged — the LAST op on a key within a batch wins,
/// whether it is a put or an erase.
template <class K = Key, class V = Value>
struct Op {
  K key{};
  V value{};
  bool erase = false;

  static constexpr Op put(const K& k, const V& v) { return Op{k, v, false}; }
  static constexpr Op del(const K& k) { return Op{k, V{}, true}; }
};

/// Compare an entry against a bare key (heterogeneous lookups).
struct EntryKeyLess {
  template <class K, class V>
  constexpr bool operator()(const Entry<K, V>& e, const K& k) const noexcept {
    return e.key < k;
  }
  template <class K, class V>
  constexpr bool operator()(const K& k, const Entry<K, V>& e) const noexcept {
    return k < e.key;
  }
};

namespace detail {

/// Stable MSD radix sort of [src, src + n) by an unsigned-integral `.key`,
/// with `buf` as the other buffer; returns whichever holds the sorted run.
/// The key range [lo, hi] is cut into about one bucket per element (at most
/// 2^kMaxBits) by the top bits of key - lo, and one stable counting scatter
/// moves the run into its buckets. A bucket of at most kInsertionMax
/// elements is then sorted by insertion, a larger one by recursing on its
/// own, narrower key range. Every level shrinks a bucket's range by at
/// least 2^5, so the recursion is at most 13 levels deep for 64-bit keys;
/// a bucket of one key value stops it at once. Each level keeps its bucket
/// ends in `ends` from index `base` on, so the levels share one heap
/// vector that grows to the deepest path's total and is reused by later
/// sorts.
template <class It>
It* msd_radix_sort(It* src, It* buf, std::size_t n, std::vector<std::uint32_t>& ends,
                   std::size_t base) {
  using KeyT = decltype(It::key);
  constexpr unsigned kMaxBits = 12;
  constexpr std::size_t kInsertionMax = 16;
  KeyT lo = src[0].key, hi = src[0].key;
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, src[i].key);
    hi = std::max(hi, src[i].key);
  }
  if (lo == hi) return src;
  const unsigned bits =
      std::min<unsigned>(static_cast<unsigned>(std::bit_width(n - 1)), kMaxBits);
  const auto span_bits =
      static_cast<unsigned>(std::bit_width(static_cast<KeyT>(hi - lo)));
  const unsigned shift = span_bits > bits ? span_bits - bits : 0;
  const auto bucket = [lo, shift](const KeyT& k) {
    return static_cast<std::size_t>(static_cast<KeyT>(k - lo) >> shift);
  };
  const std::size_t buckets = bucket(hi) + 1;  // <= 2^bits
  // end[b] counts bucket b - 1, then holds where bucket b begins, then
  // (after the scatter) where bucket b ends. A deeper level may grow
  // `ends`, so the bucket loop below indexes it rather than keep `end`.
  if (ends.size() < base + buckets + 1) ends.resize(base + buckets + 1);
  std::uint32_t* end = ends.data() + base;
  std::fill_n(end, buckets + 1, 0u);
  for (std::size_t i = 0; i < n; ++i) ++end[bucket(src[i].key) + 1];
  for (std::size_t b = 1; b < buckets; ++b) end[b] += end[b - 1];
  for (std::size_t i = 0; i < n; ++i) buf[end[bucket(src[i].key)]++] = std::move(src[i]);
  for (std::size_t b = 0, begin = 0; b < buckets; begin = ends[base + b++]) {
    It* const run = buf + begin;
    const std::size_t len = ends[base + b] - begin;
    if (len > kInsertionMax) {
      It* const out = msd_radix_sort(run, src + begin, len, ends, base + buckets + 1);
      if (out != run) std::move(out, out + len, run);
      continue;
    }
    for (std::size_t i = 1; i < len; ++i) {
      if (!(run[i].key < run[i - 1].key)) continue;
      It tmp = std::move(run[i]);
      std::size_t j = i;
      for (; j > 0 && tmp.key < run[j - 1].key; --j) run[j] = std::move(run[j - 1]);
      run[j] = std::move(tmp);
    }
  }
  return buf;
}

}  // namespace detail

/// Stable bottom-up merge sort by `.key`, using caller-provided scratch
/// instead of std::stable_sort's internal temporary buffer — the batch
/// normalization path stays allocation-free once `scratch` reaches its
/// high-water capacity. Ties keep input order.
///
/// The inner merge is branch-light (conditional select + pointer bumps
/// instead of a taken/not-taken branch per element): merge passes over
/// random keys are mispredict-bound, and this sort sits on every batch
/// normalization hot path in the library.
template <class It>
void stable_sort_by_key(std::vector<It>& v, std::vector<It>& scratch) {
  const std::size_t n = v.size();
  scratch.resize(n);
  It* src = v.data();
  It* dst = scratch.data();
  for (std::size_t width = 1; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      It* a = src + lo;
      It* ae = src + mid;
      It* b = ae;
      It* be = src + hi;
      It* w = dst + lo;
      while (a != ae && b != be) {
        const bool take_b = b->key < a->key;  // left run first on ties: stable
        It* pick = take_b ? b : a;            // pointer select: cmov, no branch
        *w++ = std::move(*pick);
        a += !take_b;
        b += take_b;
      }
      w = std::move(a, ae, w);
      std::move(b, be, w);
    }
    std::swap(src, dst);
  }
  if (src != v.data()) v.swap(scratch);
}

/// True when the run is already sorted by key ascending (duplicates
/// allowed). One O(n) pass — cheap insurance that lets presorted feeds
/// (log-structured sources, merge outputs, replication streams) skip the
/// merge sort entirely.
template <class It>
bool is_sorted_by_key(const std::vector<It>& v) noexcept {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].key < v[i - 1].key) return false;
  }
  return true;
}

/// Stable radix sort by an unsigned-integral `.key` (detail::msd_radix_sort):
/// zero comparisons on random keys, where it beats any merge sort — a few
/// linear passes on random keys, a few more per level on clustered or
/// duplicate-heavy ones, never quadratic. Ties keep input order, so
/// newest-wins dedup semantics are identical to the merge-sort path.
template <class It>
  requires std::unsigned_integral<decltype(It::key)>
void radix_sort_by_key(std::vector<It>& v, std::vector<It>& scratch) {
  if (v.size() < 2) return;
  scratch.resize(v.size());
  static thread_local std::vector<std::uint32_t> ends;  // bucket ends, all levels
  if (detail::msd_radix_sort(v.data(), scratch.data(), v.size(), ends, 0) != v.data()) {
    v.swap(scratch);
  }
}

/// Stable sort by key ascending with the fastest applicable algorithm —
/// duplicates KEPT, in input order (the stable tie rule newest-wins dedup
/// relies on). Presorted feeds are detected in O(n) and skip the sort
/// outright; unsigned-integral keys take the radix sort (whose MSD pass
/// beats the merge sort from two elements up), everything else the
/// branch-light merge sort. This is sort_dedup_newest_wins minus the
/// dedup pass — callers that dedup elsewhere (the SoA plane kernels in
/// cola/kernels.hpp dedup after widening) sort through here so both paths
/// share one algorithm-selection policy.
template <class It>
void sort_by_key(std::vector<It>& batch, std::vector<It>& scratch) {
  if (is_sorted_by_key(batch)) return;
  if constexpr (std::unsigned_integral<decltype(It::key)>) {
    radix_sort_by_key(batch, scratch);
  } else {
    stable_sort_by_key(batch, scratch);
  }
}

/// Normalize an ingest batch in place: stable-sort by key ascending and
/// collapse duplicate keys so the LAST occurrence in input order survives
/// (newest wins — matching repeated insert() calls). Works on any element
/// type with a `.key` member, so each structure can normalize batches of its
/// internal item type (tombstones ride along untouched). `scratch` is the
/// sort's merge buffer, reused across batches.
template <class It>
void sort_dedup_newest_wins(std::vector<It>& batch, std::vector<It>& scratch) {
  sort_by_key(batch, scratch);
  std::size_t w = 0;
  for (std::size_t r = 0; r < batch.size(); ++r) {
    if (r + 1 < batch.size() && batch[r + 1].key == batch[r].key) continue;
    if (w != r) batch[w] = std::move(batch[r]);
    ++w;
  }
  batch.resize(w);
}

}  // namespace costream
