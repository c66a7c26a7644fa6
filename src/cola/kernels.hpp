// Data-parallel run kernels for the tiered COLA's structure-of-arrays
// buffers: plane-form sorted runs (RunView/RunBuf), the newest-wins two-way
// merge behind every pairwise fold round, the vectorized newest-wins dedup
// behind batch normalization, the balanced pairwise run collapse, and the
// one serial fold kernel (collapse_spans) every tiered fold runs. The
// instruction-level primitives (prefix scans, lower bounds, runtime ISA
// dispatch) live one layer down in common/simd.hpp; this header is the
// run-shaped algebra cola.hpp composes folds from.
//
// Layout contract: a run is three parallel planes — keys (sorted), vals,
// flags — of equal length. Keys being dense is the point: the merge's
// bulk-advance scan and the dedup's adjacent-equal scan compare 4 keys per
// AVX2 register, where the 24-byte AoS item yielded 1 key per 24 bytes
// loaded. DAM accounting is untouched by the layout (cola.hpp still charges
// sizeof(snap::Item) bytes per logical element), so modeled transfers stay
// bit-identical to the AoS build; the planes pay off in measured wall time.
//
// Every kernel has a scalar reference (`*_ref`) with the same contract;
// tests/kernel_test.cpp drives each production kernel differentially
// against its reference across lengths, duplicate patterns, tombstones,
// and unaligned bases, at every dispatch tier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/loser_tree.hpp"
#include "common/simd.hpp"
#include "common/snapshot.hpp"

namespace costream::cola::kern {

/// Borrowed view of a sorted plane-form run (no ownership).
template <class K, class V>
struct RunView {
  const K* keys = nullptr;
  const V* vals = nullptr;
  const std::uint8_t* flags = nullptr;
  std::size_t n = 0;

  bool empty() const noexcept { return n == 0; }
};

/// Owning plane-form run buffer: the SoA replacement for vector<Item> in
/// the staging arena and every fold scratch. Parallel vectors, grown and
/// reused together; steady-state reuse keeps capacities at high water.
template <class K, class V>
struct RunBuf {
  std::vector<K> keys;
  std::vector<V> vals;
  std::vector<std::uint8_t> flags;

  std::size_t size() const noexcept { return keys.size(); }
  bool empty() const noexcept { return keys.empty(); }

  void clear() noexcept {
    keys.clear();
    vals.clear();
    flags.clear();
  }
  void resize(std::size_t n) {
    keys.resize(n);
    vals.resize(n);
    flags.resize(n);
  }
  void reserve(std::size_t n) {
    keys.reserve(n);
    vals.reserve(n);
    flags.reserve(n);
  }
  void push_back(const K& k, const V& v, std::uint8_t f) {
    keys.push_back(k);
    vals.push_back(v);
    flags.push_back(f);
  }
  void swap(RunBuf& o) noexcept {
    keys.swap(o.keys);
    vals.swap(o.vals);
    flags.swap(o.flags);
  }

  RunView<K, V> view() const noexcept {
    return RunView<K, V>{keys.data(), vals.data(), flags.data(), keys.size()};
  }
  /// View of elements [b, e).
  RunView<K, V> subview(std::size_t b, std::size_t e) const noexcept {
    return RunView<K, V>{keys.data() + b, vals.data() + b, flags.data() + b,
                         e - b};
  }

  void assign(RunView<K, V> v) {
    keys.assign(v.keys, v.keys + v.n);
    vals.assign(v.vals, v.vals + v.n);
    flags.assign(v.flags, v.flags + v.n);
  }
  void append(RunView<K, V> v) {
    keys.insert(keys.end(), v.keys, v.keys + v.n);
    vals.insert(vals.end(), v.vals, v.vals + v.n);
    flags.insert(flags.end(), v.flags, v.flags + v.n);
  }
};

namespace detail {

template <class K, class V>
inline void copy_planes(const K* k, const V* v, const std::uint8_t* f,
                        std::size_t n, K* ok, V* ov, std::uint8_t* of) {
  std::copy_n(k, n, ok);
  std::copy_n(v, n, ov);
  std::copy_n(f, n, of);
}

}  // namespace detail

/// Newest-wins two-way merge of sorted runs A (older) and B (newer) into
/// the output planes, which must hold an + bn elements. Key ties emit B's
/// element once and consume both — the older duplicate is dropped. Returns
/// the number of elements written (so an + bn - written = duplicates).
///
/// Shape: one conditional step resolves interleaved stretches; the moment
/// one side leads, the vector prefix scan (simd::prefix_less_keys) measures
/// the whole disjoint stretch in 4-key compares and it is copied plane-wise
/// in bulk — the common case in cascade folds, where an incoming run meets
/// a much larger, mostly-disjoint deeper segment.
template <class K, class V>
inline std::size_t merge_pair_newest_wins(
    const K* ak, const V* av, const std::uint8_t* af, std::size_t an,
    const K* bk, const V* bv, const std::uint8_t* bf, std::size_t bn, K* ok,
    V* ov, std::uint8_t* of, simd::Isa isa) {
  std::size_t i = 0, j = 0, w = 0;
  while (i < an && j < bn) {
    if (ak[i] < bk[j]) {
      const std::size_t m =
          1 + simd::prefix_less_keys(ak + i + 1, an - i - 1, bk[j], isa);
      detail::copy_planes(ak + i, av + i, af + i, m, ok + w, ov + w, of + w);
      i += m;
      w += m;
      continue;
    }
    if (bk[j] < ak[i]) {
      const std::size_t m =
          1 + simd::prefix_less_keys(bk + j + 1, bn - j - 1, ak[i], isa);
      detail::copy_planes(bk + j, bv + j, bf + j, m, ok + w, ov + w, of + w);
      j += m;
      w += m;
      continue;
    }
    // Equal keys: the newer side wins, the older copy is consumed silently.
    ok[w] = bk[j];
    ov[w] = bv[j];
    of[w] = bf[j];
    ++w;
    ++i;
    ++j;
  }
  detail::copy_planes(ak + i, av + i, af + i, an - i, ok + w, ov + w, of + w);
  w += an - i;
  detail::copy_planes(bk + j, bv + j, bf + j, bn - j, ok + w, ov + w, of + w);
  w += bn - j;
  return w;
}

/// Scalar reference for the merge: the textbook three-way branch loop.
/// Same contract, bit-identical output — the differential-test anchor.
template <class K, class V>
inline std::size_t merge_pair_newest_wins_ref(
    const K* ak, const V* av, const std::uint8_t* af, std::size_t an,
    const K* bk, const V* bv, const std::uint8_t* bf, std::size_t bn, K* ok,
    V* ov, std::uint8_t* of) {
  std::size_t i = 0, j = 0, w = 0;
  while (i < an && j < bn) {
    if (ak[i] < bk[j]) {
      ok[w] = ak[i];
      ov[w] = av[i];
      of[w] = af[i];
      ++i;
    } else if (bk[j] < ak[i]) {
      ok[w] = bk[j];
      ov[w] = bv[j];
      of[w] = bf[j];
      ++j;
    } else {
      ok[w] = bk[j];
      ov[w] = bv[j];
      of[w] = bf[j];
      ++i;
      ++j;
    }
    ++w;
  }
  for (; i < an; ++i, ++w) {
    ok[w] = ak[i];
    ov[w] = av[i];
    of[w] = af[i];
  }
  for (; j < bn; ++j, ++w) {
    ok[w] = bk[j];
    ov[w] = bv[j];
    of[w] = bf[j];
  }
  return w;
}

/// RunView/RunBuf convenience form of the merge (counter merges, tests):
/// b is the NEWER run; out is resized to the merged length. Returns the
/// number of duplicates dropped.
template <class K, class V>
inline std::size_t merge_into(RunView<K, V> a, RunView<K, V> b,
                              RunBuf<K, V>& out, simd::Isa isa) {
  out.resize(a.n + b.n);
  const std::size_t w = merge_pair_newest_wins(
      a.keys, a.vals, a.flags, a.n, b.keys, b.vals, b.flags, b.n,
      out.keys.data(), out.vals.data(), out.flags.data(), isa);
  out.resize(w);
  return a.n + b.n - w;
}

/// In-place newest-wins dedup of the SORTED tail [from, size): within each
/// equal-key group the LAST element (the newest — plane runs are built in
/// arrival order by a stable sort) survives. Returns the number dropped.
///
/// The vector scan (simd::prefix_distinct_keys) measures maximal
/// duplicate-free stretches 4 adjacent-pairs per compare; a stretch that
/// starts where writing left off moves nothing at all, so the common
/// duplicate-free batch costs one scan and zero stores.
template <class K, class V>
inline std::size_t dedup_newest_wins(RunBuf<K, V>& buf, std::size_t from,
                                     simd::Isa isa) {
  const std::size_t n = buf.size();
  K* k = buf.keys.data();
  V* v = buf.vals.data();
  std::uint8_t* f = buf.flags.data();
  std::size_t r = from, w = from;
  while (r < n) {
    const std::size_t m = simd::prefix_distinct_keys(k + r, n - r, isa);
    if (m != 0) {
      if (w != r) {
        std::copy(k + r, k + r + m, k + w);
        std::copy(v + r, v + r + m, v + w);
        std::copy(f + r, f + r + m, f + w);
      }
      w += m;
      r += m;
      if (r >= n) break;
    }
    // k[r] == k[r+1]: skip every leading member of the duplicate group; its
    // last member is distinct from its successor (or final) and is kept by
    // the next prefix scan.
    while (r + 1 < n && !(k[r] < k[r + 1]) && !(k[r + 1] < k[r])) ++r;
  }
  buf.resize(w);
  return n - w;
}

/// Scalar reference for the dedup: keep element i iff it is the last of its
/// equal-key group. Same contract as dedup_newest_wins.
template <class K, class V>
inline std::size_t dedup_newest_wins_ref(RunBuf<K, V>& buf, std::size_t from) {
  const std::size_t n = buf.size();
  std::size_t w = from;
  for (std::size_t r = from; r < n; ++r) {
    if (r + 1 < n && !(buf.keys[r] < buf.keys[r + 1]) &&
        !(buf.keys[r + 1] < buf.keys[r])) {
      continue;  // an equal successor shadows this copy
    }
    if (w != r) {
      buf.keys[w] = buf.keys[r];
      buf.vals[w] = buf.vals[r];
      buf.flags[w] = buf.flags[r];
    }
    ++w;
  }
  const std::size_t dropped = n - w;
  buf.resize(w);
  return dropped;
}

/// Collapse a plane buffer of sorted runs (oldest run leftmost, newest
/// rightmost; `run_list` holds each run's begin offset ascending) into one
/// sorted, newest-wins run left in `buf`. Balanced rounds of pairwise
/// merges — log2(#runs) passes — with the RIGHT (newer) run winning key
/// ties, which preserves the global recency order round over round.
///
/// When the collapse runs at least one round and `final_dups` is non-null,
/// it receives the LAST round's drop count: that round merges two runs that
/// each hold at most one copy per key, so the count approximates the number
/// of DISTINCT keys duplicated across the fold — the staleness estimator's
/// input in cola.hpp (a key hot enough to repeat many times counts once).
template <class K, class V>
inline void collapse_runs(RunBuf<K, V>& buf,
                          std::vector<std::uint32_t>& run_list,
                          RunBuf<K, V>& tmp,
                          std::vector<std::uint32_t>& tmp_runs, simd::Isa isa,
                          std::uint64_t* final_dups) {
  if (run_list.size() <= 1) return;
  RunBuf<K, V>* src = &buf;
  RunBuf<K, V>* dst = &tmp;
  std::vector<std::uint32_t>* runs = &run_list;
  std::vector<std::uint32_t>* next_runs = &tmp_runs;
  while (runs->size() > 1) {
    const bool final_round = runs->size() <= 2;
    const std::size_t in_size = src->size();
    dst->resize(in_size);
    next_runs->clear();
    std::size_t w = 0;
    for (std::size_t r = 0; r < runs->size(); r += 2) {
      next_runs->push_back(static_cast<std::uint32_t>(w));
      const std::uint32_t ab = (*runs)[r];
      const std::uint32_t ae = r + 1 < runs->size()
                                   ? (*runs)[r + 1]
                                   : static_cast<std::uint32_t>(in_size);
      if (r + 1 >= runs->size()) {  // odd run out: carry over
        detail::copy_planes(src->keys.data() + ab, src->vals.data() + ab,
                            src->flags.data() + ab, ae - ab,
                            dst->keys.data() + w, dst->vals.data() + w,
                            dst->flags.data() + w);
        w += ae - ab;
        break;
      }
      const std::uint32_t be = r + 2 < runs->size()
                                   ? (*runs)[r + 2]
                                   : static_cast<std::uint32_t>(in_size);
      w += merge_pair_newest_wins(
          src->keys.data() + ab, src->vals.data() + ab, src->flags.data() + ab,
          static_cast<std::size_t>(ae - ab), src->keys.data() + ae,
          src->vals.data() + ae, src->flags.data() + ae,
          static_cast<std::size_t>(be - ae), dst->keys.data() + w,
          dst->vals.data() + w, dst->flags.data() + w, isa);
    }
    dst->resize(w);
    if (final_round && final_dups != nullptr) *final_dups = in_size - w;
    std::swap(src, dst);
    std::swap(runs, next_runs);
  }
  if (src != &buf) buf.swap(*src);
  // Leave the boundary list describing the result (one run at offset 0),
  // not whichever round's stale offsets the ping-pong ended on.
  run_list.clear();
  if (!buf.empty()) run_list.push_back(0);
}

/// Folds of at least this many elements (~1.5 MiB of 24-byte items: past
/// L2) take collapse_spans' one-pass merge instead of pairwise rounds, and
/// are large enough to be worth range-partitioning across workers
/// (compact::fold_spans).
inline constexpr std::size_t kOnePassCutoff = std::size_t{1} << 16;

/// collapse_spans' reusable scratch: the pairwise rounds' ping-pong buffer
/// and run lists, and the one-pass merge's per-span positions and tree.
template <class K, class V>
struct CollapseScratch {
  RunBuf<K, V> tmp;
  std::vector<std::uint32_t> runs, runs_tmp;
  std::vector<std::size_t> pos;
  LoserTree<K> tree;
};

/// The serial fold kernel: newest-wins collapse of sorted, duplicate-free
/// spans (ordered oldest -> newest, `total` elements in all) into `out`.
/// A single span copies straight through. Below kOnePassCutoff, balanced
/// pairwise rounds — round zero merges adjacent span pairs straight from
/// their source locations, then collapse_runs. At or above it, one pass
/// through a cached-key loser tree reads and writes each element once (the
/// rounds would stream the whole fold through DRAM log2(#spans) times).
///
/// `final_dups` receives the staleness estimator's sample: the final
/// pairwise round's drop count, or in the one-pass merge the number of
/// DISTINCT keys that had an older copy dropped (copies of a key pop
/// adjacently there, newest first).
template <class K, class V>
void collapse_spans(const std::vector<RunView<K, V>>& spans, std::size_t total,
                    simd::Isa isa, RunBuf<K, V>& out, CollapseScratch<K, V>& s,
                    std::uint64_t& final_dups) {
  final_dups = 0;
  if (spans.size() == 1) {
    out.assign(spans[0]);
    return;
  }
  out.resize(total);
  K* ok = out.keys.data();
  V* ov = out.vals.data();
  std::uint8_t* of = out.flags.data();
  std::size_t w = 0;
  if (total >= kOnePassCutoff) {
    // LoserTree lets the SMALLER source index win key ties; spans run
    // oldest -> newest, so source i is span ns-1-i and the newest copy of a
    // key pops first — every later copy of it is an older duplicate.
    const std::size_t ns = spans.size();
    s.pos.assign(ns, 0);
    s.tree.reset(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      if (!spans[ns - 1 - i].empty()) s.tree.declare(i, spans[ns - 1 - i].keys[0]);
    }
    s.tree.build();
    bool key_dropped = false;
    while (s.tree.top_alive()) {
      const std::size_t src = s.tree.top();
      const RunView<K, V>& sp = spans[ns - 1 - src];
      std::size_t& p = s.pos[src];
      if (w == 0 || ok[w - 1] < s.tree.top_key()) {
        ok[w] = sp.keys[p];
        ov[w] = sp.vals[p];
        of[w] = sp.flags[p];
        ++w;
        key_dropped = false;
      } else if (!key_dropped) {
        ++final_dups;
        key_dropped = true;
      }
      const bool alive = ++p < sp.n;
      s.tree.replay(alive, sp.keys[alive ? p : p - 1]);
    }
    out.resize(w);
    return;
  }
  s.runs.clear();
  for (std::size_t i = 0; i < spans.size(); i += 2) {
    s.runs.push_back(static_cast<std::uint32_t>(w));
    const RunView<K, V>& a = spans[i];
    if (i + 1 >= spans.size()) {  // odd span out: carry over
      detail::copy_planes(a.keys, a.vals, a.flags, a.n, ok + w, ov + w, of + w);
      w += a.n;
      break;
    }
    const RunView<K, V>& b = spans[i + 1];
    w += merge_pair_newest_wins(a.keys, a.vals, a.flags, a.n, b.keys, b.vals,
                                b.flags, b.n, ok + w, ov + w, of + w, isa);
  }
  out.resize(w);
  // Two spans: the gather round above WAS the final round.
  if (spans.size() <= 2) final_dups = total - w;
  collapse_runs(out, s.runs, s.tmp, s.runs_tmp, isa, &final_dups);
}

/// Drop tombstones from `run` in place (a fold landing past all older data:
/// no older copy of the key can resurface). Returns the number dropped.
template <class K, class V>
std::size_t strip_tombstones(RunBuf<K, V>& run) {
  constexpr std::uint8_t kTomb = snap::Item<K, V>::kFlagTombstone;
  std::size_t w = 0;
  for (std::size_t r = 0; r < run.size(); ++r) {
    if ((run.flags[r] & kTomb) != 0) continue;
    run.keys[w] = run.keys[r];
    run.vals[w] = run.vals[r];
    run.flags[w] = run.flags[r];
    ++w;
  }
  const std::size_t dropped = run.size() - w;
  run.resize(w);
  return dropped;
}

}  // namespace costream::cola::kern
