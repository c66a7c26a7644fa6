// Snapshot-isolated reads: ref-counted immutable segments and the
// first-class Snapshot handle the read API is built on (contract in
// api/dictionary.hpp).
//
// A Segment is an immutable sorted run held by shared_ptr — the structure
// that produced it and every open Snapshot share ownership, so a fold that
// retires a segment from the live structure simply drops its reference: the
// segment is freed when the last snapshot pinning it goes away (deferred
// free via the refcount, no epoch lists or grace periods).
//
// Storage is STRUCTURE-OF-ARRAYS: three parallel planes (keys / vals /
// flags) instead of an array of 24-byte Item structs. Dense key planes are
// what make the read and fold paths data-parallel — a binary-search tail or
// a merge bulk-advance loads 4 consecutive keys in one AVX2 register, where
// the AoS layout wasted 2/3 of every cache line on values and flags the
// comparison never looks at (kernels in common/simd.hpp, cola/kernels.hpp).
// Item survives as the EXCHANGE type: batch normalization still sorts small
// cache-hot AoS runs, and DAM accounting still charges sizeof(Item) bytes
// per logical element at base_addr + i*sizeof(Item), so the transfer
// numbers are layout-independent and bit-identical to the AoS build.
//
// Segments also carry an optional per-segment fingerprint filter (blocked
// Bloom, common/filter.hpp), minted by the producer at fold/flush time and
// stored alongside the fence keys: fences prune a probe only when the key
// falls outside [min_key, max_key], the filter prunes (1 - FPR) of
// everything the fences let through. An empty filter vector means "not
// minted" — reads then probe as before, so filters are strictly optional.
//
// A SnapshotData is an ordered set of segment references — NEWEST FIRST,
// which is the priority order the loser-tree merge needs for newest-wins
// dedup and tombstone suppression — plus the mutation epoch it was stamped
// at. Snapshot is the value-semantic handle over that (a shared_ptr
// wrapper): copies are refcount bumps, and every read through it (find /
// cursor / for_each / range_for_each) sees exactly the stamped contents no
// matter what the source dictionary does afterwards.
//
// Thread safety: SnapshotData and Segments are immutable after
// construction and shared_ptr refcounts are atomic, so a Snapshot handle
// may be copied to and read from any thread concurrently with mutations of
// the source dictionary. Acquiring a snapshot (dictionary.snapshot()) is
// an owner-thread operation — it is the mutation barrier — but the handle
// it returns is free-threaded. SnapshotCursors are not shared between
// threads (use one per thread; creation is cheap and seeks reuse scratch).
//
// DAM accounting: segments carry the logical base address the owning
// structure assigned them, and a cursor OPTIONALLY carries a MemHook
// (context + function pointers) the owner installs to charge probe/stream
// traffic to its memory model. Detached snapshots handed across threads
// carry no hook — accounting is a property of the owner's read call, not
// of the shared data, which is what keeps concurrent snapshot reads free
// of writes to shared state. Accounted probes use the plain per-element
// binary search so every touch is charged; UNACCOUNTED probes (no hook, or
// a segment with no logical address) take the SIMD lower-bound kernel.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/entry.hpp"
#include "common/filter.hpp"
#include "common/loser_tree.hpp"
#include "common/simd.hpp"

namespace costream::snap {

/// Compact sorted-run element: key, value, and a tombstone flag. This is
/// the EXCHANGE type — the tiered COLA's batch-normalization item (cola.hpp
/// aliases it as TItem) and the unit DAM accounting charges per logical
/// element — segments themselves store planes, not Items.
template <class K = Key, class V = Value>
struct Item {
  K key{};
  V value{};
  std::uint32_t flags = 0;

  static constexpr std::uint32_t kFlagTombstone = 2u;

  bool is_tombstone() const noexcept { return (flags & kFlagTombstone) != 0; }
};

/// Process-wide count of live Segment objects (all instantiations) — the
/// leak oracle for the snapshot-churn tests: after every structure and
/// snapshot is destroyed the count must return to its starting value.
inline std::atomic<std::int64_t>& live_segment_count() noexcept {
  static std::atomic<std::int64_t> n{0};
  return n;
}

/// An immutable sorted run in structure-of-arrays layout: the unit of
/// snapshot pinning. Built once (mutable while the producer fills it), then
/// only ever read through `shared_ptr<const Segment>`.
template <class K = Key, class V = Value>
struct Segment {
  std::vector<K> keys;              // sorted, unique — the dense probe plane
  std::vector<V> vals;              // vals[i] belongs to keys[i]
  std::vector<std::uint8_t> flags;  // Item flag bits, narrowed (tombstone bit)
  filt::Words filter;               // blocked Bloom words; empty = no filter
  K min_key{}, max_key{};           // fence keys == keys.front/back
  std::uint32_t tombs = 0;          // tombstones among entries
  std::uint64_t id = 0;             // producer-assigned stable identity
  std::uint64_t base_addr = 0;      // logical address of element 0 (DAM); 0 = none
  std::uint64_t epoch = 0;          // mutation epoch the segment was created at

  std::size_t size() const noexcept { return keys.size(); }
  bool is_tombstone(std::size_t i) const noexcept {
    return (flags[i] & Item<K, V>::kFlagTombstone) != 0;
  }
  /// Reconstitute the exchange-type view of element i (spill observers,
  /// materialize round-trips).
  Item<K, V> item(std::size_t i) const noexcept {
    return Item<K, V>{keys[i], vals[i], flags[i]};
  }

  Segment() { live_segment_count().fetch_add(1, std::memory_order_relaxed); }
  ~Segment() { live_segment_count().fetch_sub(1, std::memory_order_relaxed); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;
};

template <class K = Key, class V = Value>
using SegmentRef = std::shared_ptr<const Segment<K, V>>;

/// Build a segment from sorted planes (fences and tombstone count derived).
/// The Bloom filter is `filter` when the producer minted one already (fold
/// jobs mint off the writer thread), else minted here when `with_filter`
/// is set — O(1) per element. Returns nullptr for an empty run — snapshots
/// never hold empty segments.
template <class K, class V>
SegmentRef<K, V> make_segment(std::vector<K>&& keys, std::vector<V>&& vals,
                              std::vector<std::uint8_t>&& flags,
                              std::uint64_t id, std::uint64_t base_addr = 0,
                              std::uint64_t epoch = 0,
                              bool with_filter = false, filt::Words&& filter = {}) {
  if (keys.empty()) return nullptr;
  auto seg = std::make_shared<Segment<K, V>>();
  seg->keys = std::move(keys);
  seg->vals = std::move(vals);
  seg->flags = std::move(flags);
  seg->min_key = seg->keys.front();
  seg->max_key = seg->keys.back();
  std::uint32_t tombs = 0;
  for (const std::uint8_t f : seg->flags) {
    tombs += (f & Item<K, V>::kFlagTombstone) != 0 ? 1u : 0u;
  }
  seg->tombs = tombs;
  seg->id = id;
  seg->base_addr = base_addr;
  seg->epoch = epoch;
  seg->filter = std::move(filter);
  if constexpr (filt::filter_hashable_v<K>) {
    if (with_filter && seg->filter.empty()) {
      seg->filter = filt::build_filter(seg->keys.data(), seg->keys.size());
    }
  }
  return seg;
}

/// Convenience overload from the AoS exchange form (copy-on-snapshot
/// materialization and other cold producers): widens into planes.
template <class K, class V>
SegmentRef<K, V> make_segment(std::vector<Item<K, V>>&& items, std::uint64_t id,
                              std::uint64_t base_addr = 0,
                              std::uint64_t epoch = 0,
                              bool with_filter = false) {
  if (items.empty()) return nullptr;
  std::vector<K> keys;
  std::vector<V> vals;
  std::vector<std::uint8_t> flags;
  keys.reserve(items.size());
  vals.reserve(items.size());
  flags.reserve(items.size());
  for (const Item<K, V>& it : items) {
    keys.push_back(it.key);
    vals.push_back(it.value);
    flags.push_back(static_cast<std::uint8_t>(it.flags));
  }
  items.clear();
  return make_segment<K, V>(std::move(keys), std::move(vals), std::move(flags),
                            id, base_addr, epoch, with_filter);
}

/// Owner-installed accounting callbacks for cursor reads: `touch` charges a
/// probe/stream of `bytes` at logical address `addr` to the owner's memory
/// model; `seg_skip` counts a fence-key segment skip. Either may be null.
/// Never installed on detached (cross-thread) snapshot reads.
struct MemHook {
  void* ctx = nullptr;
  void (*touch)(void* ctx, std::uint64_t addr, std::uint64_t bytes) = nullptr;
  void (*seg_skip)(void* ctx) = nullptr;
};

/// The frozen contents of one snapshot: segment references in PRIORITY
/// order (newest first — source index order is what breaks key ties in the
/// loser tree), the mutation epoch the snapshot was stamped at, and whether
/// fence-key pruning is enabled for reads against it.
template <class K = Key, class V = Value>
struct SnapshotData {
  std::vector<SegmentRef<K, V>> segs;
  std::uint64_t epoch = 0;
  bool fence_keys = true;
};

/// Point lookup against frozen contents: the newest entry for `key` wins
/// (tombstone = absent). A first pass over the segments issues the load of
/// the filter block of every segment the fence keys admit, so those misses
/// overlap; the second pass, newest first, tests each admitted segment's
/// block branch-free and runs the SIMD lower-bound kernel on the dense key
/// plane of each segment the filter admits (a segment with no filter is
/// always searched). Reads only the immutable data and writes nothing, so
/// it is safe from any thread for as long as the caller keeps `data` alive
/// — Snapshot::find co-owns it, the sharded facade's barrier-free find()
/// holds an epoch guard instead.
template <class K, class V>
std::optional<V> find_in(const SnapshotData<K, V>& data, const K& key) {
  const std::uint64_t h = filt::key_hash(key);
  const auto admits = [&](const Segment<K, V>& seg) {
    return !data.fence_keys || !(key < seg.min_key || seg.max_key < key);
  };
  const auto block = [h](const Segment<K, V>& seg) {
    return filt::filter_block(seg.filter.data(), seg.filter.size(), h);
  };
  for (const SegmentRef<K, V>& seg : data.segs) {
    if (!seg->filter.empty() && admits(*seg)) filt::prefetch_block(block(*seg));
  }
  const simd::Isa isa = simd::active_isa();
  for (const SegmentRef<K, V>& seg : data.segs) {  // newest first
    if (!admits(*seg)) continue;
    if (!seg->filter.empty() && !filt::block_may_contain(block(*seg), h)) {
      continue;  // definitely absent from this segment
    }
    const std::size_t n = seg->size();
    const std::size_t i = simd::lower_bound_keys(seg->keys.data(), n, key, isa);
    if (i != n && seg->keys[i] == key) {
      if (seg->is_tombstone(i)) return std::nullopt;
      return seg->vals[i];
    }
  }
  return std::nullopt;
}

/// Resumable ordered cursor over one snapshot (Dictionary cursor contract
/// in api/dictionary.hpp): seek positions at the first live key >= lo,
/// next/entry stream live contents ascending with newest-wins dedup and
/// tombstone suppression fused through a loser tree over the snapshot's
/// segments. The cursor shares ownership of the snapshot data, so it stays
/// valid across arbitrary mutations of the source dictionary; re-seeks and
/// attach() reuse its scratch (allocation-free once at high-water size).
template <class K = Key, class V = Value>
class SnapshotCursor {
 public:
  SnapshotCursor() = default;
  explicit SnapshotCursor(std::shared_ptr<const SnapshotData<K, V>> data)
      : data_(std::move(data)) {}

  /// Retarget the cursor at (possibly different) snapshot data; scratch is
  /// kept. Invalidates the current position — seek again.
  void attach(std::shared_ptr<const SnapshotData<K, V>> data) {
    if (data_ != data) data_ = std::move(data);
    valid_ = false;
  }

  /// Install (or clear, with {}) the owner's accounting hook.
  void set_mem_hook(const MemHook& hook) { hook_ = hook; }

  void seek(const K& lo) { do_seek(&lo, nullptr); }
  /// Bounded seek: entries past `hi` are never surfaced.
  void seek(const K& lo, const K& hi) {
    if (hi < lo) {
      valid_ = false;
      return;
    }
    do_seek(&lo, &hi);
  }
  /// Position at the smallest live key (no sentinel bound needed — see
  /// for_each's note in api/dictionary.hpp on numeric_limits sentinels).
  void seek_first() { do_seek(nullptr, nullptr); }

  bool valid() const { return valid_; }
  const Entry<K, V>& entry() const { return cur_; }

  void next() {
    if (!valid_) return;
    Src& s = srcs_[tree_.top()];
    advance(s);
    tree_.replay(s.at != s.end, s.at != s.end ? s.seg->keys[s.at] : K{});
    advance_to_live();
  }

  /// The epoch of the attached snapshot (0 when detached).
  std::uint64_t epoch() const {
    return data_ != nullptr ? data_->epoch : 0;
  }

 private:
  struct Src {
    const Segment<K, V>* seg = nullptr;
    std::size_t at = 0;
    std::size_t end = 0;
    std::uint64_t addr = 0;  // logical address of element `at` (0 = unaccounted)
  };

  void touch_at(std::uint64_t addr) const {
    if (hook_.touch != nullptr && addr != 0) {
      hook_.touch(hook_.ctx, addr, sizeof(Item<K, V>));
    }
  }

  void advance(Src& s) const {
    ++s.at;
    if (s.addr != 0) {
      s.addr += sizeof(Item<K, V>);
      if (s.at != s.end) touch_at(s.addr);
    }
  }

  void do_seek(const K* lo, const K* hi) {
    bounded_ = hi != nullptr;
    if (hi != nullptr) hi_ = *hi;
    have_last_ = false;
    valid_ = false;
    srcs_.clear();
    if (data_ != nullptr) {
      const bool fences = data_->fence_keys;
      const simd::Isa isa = simd::active_isa();
      for (const SegmentRef<K, V>& seg : data_->segs) {  // newest first
        const std::size_t n = seg->size();
        // Fence skips: the whole segment sorts before the seek point or
        // past the bound — never touched.
        if (fences && lo != nullptr && seg->max_key < *lo) {
          if (hook_.seg_skip != nullptr) hook_.seg_skip(hook_.ctx);
          continue;
        }
        if (fences && hi != nullptr && *hi < seg->min_key) {
          if (hook_.seg_skip != nullptr) hook_.seg_skip(hook_.ctx);
          continue;
        }
        std::size_t a = 0;
        const bool whole_at_or_past_lo =
            lo == nullptr || (fences && !(seg->min_key < *lo));
        if (!whole_at_or_past_lo) {
          const K* kb = seg->keys.data();
          if (hook_.touch == nullptr || seg->base_addr == 0) {
            // Unaccounted seek: the data-parallel probe kernel.
            a = simd::lower_bound_keys(kb, n, *lo, isa);
          } else {
            // Manual binary search so every probe is accounted.
            std::size_t x = 0, y = n;
            while (x < y) {
              const std::size_t mid = x + (y - x) / 2;
              touch_at(seg->base_addr + mid * sizeof(Item<K, V>));
              if (kb[mid] < *lo) {
                x = mid + 1;
              } else {
                y = mid;
              }
            }
            a = x;
          }
        }
        if (a == n) continue;
        const std::uint64_t addr =
            seg->base_addr != 0
                ? seg->base_addr +
                      static_cast<std::uint64_t>(a) * sizeof(Item<K, V>)
                : 0;
        touch_at(addr);
        srcs_.push_back(Src{seg.get(), a, n, addr});
      }
    }
    tree_.reset(srcs_.size());
    for (std::size_t i = 0; i < srcs_.size(); ++i) {
      tree_.declare(i, srcs_[i].seg->keys[srcs_[i].at]);
    }
    tree_.build();
    advance_to_live();
  }

  /// Pop merged heads until one is live: older duplicates of the last
  /// surfaced key and tombstoned keys are consumed silently (a tombstone
  /// records its key as "seen", which is what suppresses the shadowed
  /// older copies below it).
  void advance_to_live() {
    while (tree_.top_alive()) {
      Src& s = srcs_[tree_.top()];
      const K& k = s.seg->keys[s.at];
      if (bounded_ && hi_ < k) break;  // merged order: all done
      const bool dup = have_last_ && !(last_ < k);
      if (!dup) {
        last_ = k;
        have_last_ = true;
        if (!s.seg->is_tombstone(s.at)) {
          cur_.key = k;
          cur_.value = s.seg->vals[s.at];
          valid_ = true;
          return;
        }
      }
      advance(s);
      tree_.replay(s.at != s.end, s.at != s.end ? s.seg->keys[s.at] : K{});
    }
    valid_ = false;
  }

  std::shared_ptr<const SnapshotData<K, V>> data_;
  MemHook hook_{};
  std::vector<Src> srcs_;  // index order IS priority (newest first)
  LoserTree<K> tree_;
  Entry<K, V> cur_{};
  bool valid_ = false;
  bool bounded_ = false;
  K hi_{};
  K last_{};
  bool have_last_ = false;
};

/// The first-class snapshot handle (api::Snapshot): a point-in-time,
/// immutable view of a dictionary. Value semantics — copying is a refcount
/// bump — and every read sees exactly the stamped contents regardless of
/// concurrent mutations of the source. Default-constructed handles are
/// empty (epoch 0, no contents).
template <class K = Key, class V = Value>
class Snapshot {
 public:
  using Cursor = SnapshotCursor<K, V>;

  Snapshot() = default;
  explicit Snapshot(std::shared_ptr<const SnapshotData<K, V>> data)
      : data_(std::move(data)) {}

  explicit operator bool() const noexcept { return data_ != nullptr; }

  /// The mutation epoch this snapshot was stamped at.
  std::uint64_t epoch() const noexcept {
    return data_ != nullptr ? data_->epoch : 0;
  }

  /// Pinned segments, newest first (empty for an empty snapshot).
  const std::vector<SegmentRef<K, V>>& segments() const noexcept {
    static const std::vector<SegmentRef<K, V>> kEmpty;
    return data_ != nullptr ? data_->segs : kEmpty;
  }

  bool fence_keys() const noexcept {
    return data_ == nullptr || data_->fence_keys;
  }

  std::shared_ptr<const SnapshotData<K, V>> data() const noexcept {
    return data_;
  }

  /// Point lookup against the frozen view (find_in: fence keys, one
  /// overlapped pass over the filter blocks, then the SIMD lower-bound
  /// kernel). Touches only the pinned immutable segments and no memory
  /// hook, so it is safe from any thread.
  std::optional<V> find(const K& key) const {
    if (data_ == nullptr) return std::nullopt;
    return find_in(*data_, key);
  }

  /// Detached cursor over this snapshot (Dictionary cursor contract).
  Cursor make_cursor() const { return Cursor(data_); }

  /// Visit live entries with lo_key <= key <= hi_key ascending.
  template <class Fn>
  void range_for_each(const K& lo_key, const K& hi_key, Fn&& fn) const {
    if (hi_key < lo_key) return;
    Cursor c(data_);
    for (c.seek(lo_key, hi_key); c.valid(); c.next()) {
      const Entry<K, V>& e = c.entry();
      fn(e.key, e.value);
    }
  }

  /// Visit every live entry ascending.
  template <class Fn>
  void for_each(Fn&& fn) const {
    Cursor c(data_);
    for (c.seek_first(); c.valid(); c.next()) {
      const Entry<K, V>& e = c.entry();
      fn(e.key, e.value);
    }
  }

 private:
  std::shared_ptr<const SnapshotData<K, V>> data_;
};

/// Copy-on-snapshot for in-place structures (B-tree, PMA-based, shuttle…):
/// materialize the live contents — already deduplicated and tombstone-free,
/// since `d.for_each` only surfaces live entries — into one immutable
/// segment stamped at `epoch`. O(N) per call; the owners cache the result
/// per mutation epoch so repeated snapshots of an unmutated structure are
/// refcount bumps.
template <class K, class V, class D>
Snapshot<K, V> materialize(const D& d, std::uint64_t epoch) {
  auto data = std::make_shared<SnapshotData<K, V>>();
  data->epoch = epoch;
  std::vector<K> keys;
  std::vector<V> vals;
  d.for_each([&](const K& k, const V& v) {
    keys.push_back(k);
    vals.push_back(v);
  });
  std::vector<std::uint8_t> flags(keys.size(), 0);
  if (SegmentRef<K, V> seg =
          make_segment<K, V>(std::move(keys), std::move(vals), std::move(flags),
                             /*id=*/0, /*base_addr=*/0, epoch)) {
    data->segs.push_back(std::move(seg));
  }
  return Snapshot<K, V>(std::move(data));
}

}  // namespace costream::snap
