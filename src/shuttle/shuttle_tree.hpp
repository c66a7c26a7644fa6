// Shuttle tree — the paper's main result (Section 2).
//
// A strongly weight-balanced search tree (SWBST: for fanout parameter c and
// every node v, w(v) = Theta(c^h(v)), all leaves at the same depth) in which
// every internal node carries, per child pointer, a linked list of buffers
// of doubly-exponentially increasing sizes. An inserted element "shuttles"
// down the root-to-leaf path, pausing in buffers; a buffer that overflows
// pours its entire contents into the next buffer in the list, and the
// largest buffer pours into the child node. Elements therefore cross block
// boundaries only in bulk, giving inserts
// O((log_{B+1}N)/B^{Theta(1/(loglogB)^2)} + (log^2 N)/B) amortized transfers
// while searches stay O(log_{B+1} N).
//
// Buffer sizes follow the paper's Fibonacci-factor schedule: a node whose
// child height h has Fibonacci factor x(h) = F_k owns buffers of heights
// F_H(j), j <= k (layout/fibonacci.hpp). Two documented substitutions at
// laptop scale (DESIGN.md section 1.3):
//   * buffers are contiguous sorted arrays with capacity c^height instead of
//     recursive shuttle trees (same capacity schedule, same flush pattern);
//   * the buffer-height index uses the practical offset H(j) = j - delta
//     (delta = 2) because the paper's H(j) = j - ceil(2 log_phi j) only goes
//     positive for trees of height >= F_12 = 144;
//   * the vEB layout (Figure 1) is recomputed by relayout() every time the
//     element count doubles, instead of being maintained inside a PMA with
//     flexible rebalance windows. The PMA itself is built and validated
//     separately (pma/pma.hpp). Layout addresses drive the DAM accounting.
//
// With use_buffers = false this degenerates to the plain SWBST (the
// no-buffer ablation arm and the substrate the paper builds on).
//
// Extension beyond the paper: erase() is supported via tombstones that
// annihilate at the leaves; deletions do not rebalance (the paper analyzes
// inserts only), so the weight lower bound is maintained only under
// insert-dominated workloads.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/entry.hpp"
#include "common/loser_tree.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "dam/mem_model.hpp"
#include "layout/fibonacci.hpp"

namespace costream::shuttle {

struct ShuttleConfig {
  unsigned fanout = 4;     // the SWBST balance parameter c
  int buffer_delta = 2;    // practical buffer-height-index offset
  bool use_buffers = true; // false = plain SWBST
  std::uint64_t max_buffer_items = 1ULL << 22;  // safety clamp on c^F
  // Ingest growth factor g (default 2 = the paper's geometry): edge-buffer
  // capacities scale by g/2, so a g-tuned tree absorbs g/2 times more
  // entries per buffer tier before pouring — the shuttle-tree analogue of
  // the COLA's growth-factor lever. Search cost per buffer stays one binary
  // search; pours get bulkier and rarer.
  unsigned growth = 2;
};

struct ShuttleStats {
  std::uint64_t buffer_flushes = 0;
  std::uint64_t buffer_items_moved = 0;
  std::uint64_t leaf_batches = 0;
  std::uint64_t node_splits = 0;
  std::uint64_t root_grows = 0;
  std::uint64_t relayouts = 0;
};

template <class K = Key, class V = Value, class MM = dam::null_mem_model>
class ShuttleTree {
 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  explicit ShuttleTree(ShuttleConfig cfg = ShuttleConfig{}, MM mm = MM{})
      : cfg_(cfg), mm_(std::move(mm)) {
    if (cfg_.fanout < 2) throw std::invalid_argument("shuttle: fanout must be >= 2");
    if (cfg_.growth < 2) throw std::invalid_argument("shuttle: growth must be >= 2");
    root_ = new_node(/*height=*/1);
  }

  // -- observers --------------------------------------------------------------

  const ShuttleConfig& config() const noexcept { return cfg_; }
  const ShuttleStats& stats() const noexcept { return stats_; }
  MM& mm() noexcept { return mm_; }
  int height() const noexcept { return nodes_[root_].height; }

  /// Leaf-resident entries (items still in buffers are counted separately).
  std::uint64_t leaf_entries() const noexcept { return nodes_[root_].weight; }

  std::uint64_t buffered_items() const noexcept { return buffered_items_; }

  std::optional<V> find(const K& key) const {
    std::uint32_t id = root_;
    while (true) {
      const Node& n = nodes_[id];
      touch_node(id);
      if (n.height == 1) {
        const auto it = std::lower_bound(n.entries.begin(), n.entries.end(), key,
                                         EntryKeyLess{});
        if (it != n.entries.end() && it->key == key) return it->value;
        return std::nullopt;
      }
      const std::size_t e = edge_index(n, key);
      // Buffers from smallest (newest) to largest (oldest).
      for (const Buffer& b : n.ebufs[e]) {
        if (b.items.empty()) continue;
        touch_buffer(b, b.items.size());
        const auto it = std::lower_bound(
            b.items.begin(), b.items.end(), key,
            [](const Item& a, const K& k) { return a.key < k; });
        if (it != b.items.end() && it->key == key) {
          if (it->tombstone) return std::nullopt;
          return it->value;
        }
      }
      id = n.kids[e];
    }
  }

  /// Visit live entries in [lo, hi] ascending, newest copy per key — one
  /// code path with the cursor API (bounded seek on the dictionary-owned
  /// scratch cursor, allocation-free in steady state; the bound prunes
  /// whole subtrees at seek, like the old recursive collect did).
  template <class Fn>
  void range_for_each(const K& lo, const K& hi, Fn&& fn) const {
    if (hi < lo) return;
    Cursor c(this, &scan_state_);
    for (c.seek(lo, hi); c.valid(); c.next()) {
      const Entry<K, V>& e = c.entry();
      fn(e.key, e.value);
    }
  }

  /// Visit every live entry ascending. A dedicated unbounded scan rather
  /// than a range query with sentinel bounds: std::numeric_limits<K>::min()
  /// is the smallest POSITIVE value for floating-point K and a
  /// default-constructed object for composite keys, either of which would
  /// silently drop entries.
  template <class Fn>
  void for_each(Fn&& fn) const {
    Cursor c(this, &scan_state_);
    for (c.seek_first(); c.valid(); c.next()) {
      const Entry<K, V>& e = c.entry();
      fn(e.key, e.value);
    }
  }

  // -- mutators ---------------------------------------------------------------

  void insert(const K& key, const V& value) { put(Item{key, value, false}); }
  void erase(const K& key) { put(Item{key, V{}, true}); }

  /// Bulk upsert (batch contract in api/dictionary.hpp). The internals have
  /// always been batch-shaped — buffers pour whole contents downward — so
  /// this simply normalizes the run once and shuttles it down the edge
  /// buffers in a single root-to-leaf delivery instead of n of them.
  void insert_batch(Span<Entry<K, V>> run) {
    if (run.empty()) return;
    std::vector<Item>& batch = batch_scratch_;
    batch.clear();
    batch.reserve(run.size());
    for (const Entry<K, V>& e : run) {
      batch.push_back(Item{e.key, e.value, false});
    }
    sort_dedup_newest_wins(batch, put_scratch_);  // put() is idle here
    ingest(batch);
  }

  /// Bulk blind delete (batch contract in api/dictionary.hpp): the
  /// tombstones shuttle down the edge buffers exactly like insertions — one
  /// normalized run, one root-to-leaf delivery — and annihilate at the
  /// leaves. Duplicate keys in the run collapse to a single tombstone.
  void erase_batch(Span<K> keys) {
    if (keys.empty()) return;
    std::vector<Item>& batch = batch_scratch_;
    batch.clear();
    batch.reserve(keys.size());
    for (const K& k : keys) batch.push_back(Item{k, V{}, true});
    sort_dedup_newest_wins(batch, put_scratch_);
    ingest(batch);
  }

  /// Mixed put/erase batch: the LAST op on a key within the batch wins
  /// (put-vs-erase included); the normalized run — tombstones riding along —
  /// shuttles down in a single delivery with fused overflow pours.
  void apply_batch(Span<Op<K, V>> ops) {
    if (ops.empty()) return;
    std::vector<Item>& batch = batch_scratch_;
    batch.clear();
    batch.reserve(ops.size());
    for (const Op<K, V>& o : ops) {
      batch.push_back(Item{o.key, o.value, o.erase});
    }
    sort_dedup_newest_wins(batch, put_scratch_);
    ingest(batch);
  }

  /// Mutation epoch: bumped by every mutator (see snapshot()).
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

  /// Point-in-time snapshot (contract in api/dictionary.hpp). In-place
  /// structure: the live contents materialize into one immutable segment,
  /// cached per mutation epoch; the handle stays valid across mutations.
  snap::Snapshot<K, V> snapshot() const {
    if (snap_cache_ && snap_epoch_ == mutation_epoch_) return snap_cache_;
    snap_cache_ = snap::materialize<K, V>(*this, mutation_epoch_);
    snap_epoch_ = mutation_epoch_;
    return snap_cache_;
  }

  /// Recompute the Figure-1 recursive layout and reassign every node's and
  /// buffer's logical address (normally triggered automatically when the
  /// element count doubles; public for benches/tests).
  void relayout() {
    ++stats_.relayouts;
    layout_cursor_ = 0;
    for (Node& n : nodes_) {
      n.base = kNoAddr;
      for (auto& list : n.ebufs) {
        for (Buffer& b : list) b.base = kNoAddr;
      }
    }
    const int h = nodes_[root_].height;
    // Round the height up to a Fibonacci number for the top-level split.
    std::uint64_t f0 = 1;
    for (int k = 2; k <= layout::kMaxFibIndex; ++k) {
      if (layout::fib(k) >= static_cast<std::uint64_t>(h)) {
        f0 = layout::fib(k);
        break;
      }
    }
    std::vector<std::uint32_t> leaves, frontier;
    place(root_, f0, leaves, frontier);
    // Safety sweep: anything the recursion missed (height mismatches from
    // rounding) is appended at the end, preserving completeness.
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
      if (!alive_[id]) continue;
      if (nodes_[id].base == kNoAddr) assign_node(id);
      for (auto& list : nodes_[id].ebufs) {
        for (Buffer& b : list) {
          if (b.base == kNoAddr) assign_buffer(b);
        }
      }
    }
    fresh_base_ = layout_cursor_;
    last_layout_weight_ = std::max<std::uint64_t>(1, nodes_[root_].weight);
  }

  // -- verification -----------------------------------------------------------

  void check_invariants() const {
    std::uint64_t counted_buffered = 0;
    check_rec(root_, nodes_[root_].height, nullptr, nullptr, counted_buffered);
    if (counted_buffered != buffered_items_) {
      throw std::logic_error("shuttle: buffered item drift");
    }
  }

 private:
  static constexpr std::uint64_t kNoAddr = ~0ULL;

  struct Item {
    K key;
    V value;
    bool tombstone;
  };

  struct Buffer {
    std::uint64_t height = 0;       // shuttle-tree height this buffer stands for
    std::uint64_t capacity = 0;     // c^height (clamped)
    std::vector<Item> items;        // sorted, unique keys
    std::uint64_t base = kNoAddr;   // layout address
  };

  struct Node {
    int height = 1;
    std::uint64_t weight = 0;  // leaf-resident entries in subtree
    std::uint32_t parent = kNull;
    K min_key{};
    std::vector<std::uint32_t> kids;
    std::vector<K> routers;                 // routers.size() == kids.size()-1
    std::vector<std::vector<Buffer>> ebufs; // one list per edge, heights ascending
    std::vector<Entry<K, V>> entries;       // leaves only
    std::uint64_t base = kNoAddr;
  };

  // -- geometry ---------------------------------------------------------------

  std::uint64_t cpow(std::uint64_t e) const noexcept {
    std::uint64_t r = 1;
    for (std::uint64_t i = 0; i < e; ++i) {
      if (r > cfg_.max_buffer_items) return cfg_.max_buffer_items;
      r *= cfg_.fanout;
    }
    return std::min<std::uint64_t>(r, cfg_.max_buffer_items);
  }

  /// Edge-buffer capacity for a buffer standing for height `e`: the paper's
  /// c^e schedule scaled by the ingest growth factor (g/2; identity at the
  /// default g = 2). Multiply before dividing so odd factors scale too
  /// (g = 3 -> 1.5x, not a silent no-op); base <= 2^22 and g <= 2^32 keep
  /// the product well inside 64 bits.
  std::uint64_t buffer_cap(std::uint64_t e) const noexcept {
    const std::uint64_t base = cpow(e);
    const std::uint64_t scaled = base * static_cast<std::uint64_t>(cfg_.growth) / 2;
    return std::min<std::uint64_t>(std::max<std::uint64_t>(scaled, base),
                                   cfg_.max_buffer_items);
  }

  std::uint64_t weight_threshold(int height) const noexcept { return 2 * cpow(height); }
  std::size_t leaf_cap() const noexcept { return 2 * cfg_.fanout; }

  /// Fresh buffer list for an edge of a node at `parent_height`.
  std::vector<Buffer> make_edge_buffers(int parent_height) const {
    std::vector<Buffer> list;
    if (!cfg_.use_buffers || parent_height < 2) return list;
    for (std::uint64_t bh :
         layout::practical_buffer_heights(parent_height - 1, cfg_.buffer_delta)) {
      Buffer b;
      b.height = bh;
      b.capacity = buffer_cap(bh);
      list.push_back(std::move(b));
    }
    return list;
  }

  std::uint32_t new_node(int height) {
    const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    alive_.push_back(1);
    nodes_[id].height = height;
    nodes_[id].base = fresh_base_;
    fresh_base_ += 4096;  // fresh nodes park in the tail region until relayout
    return id;
  }

  std::size_t edge_index(const Node& n, const K& key) const {
    return static_cast<std::size_t>(
        std::upper_bound(n.routers.begin(), n.routers.end(), key) - n.routers.begin());
  }

  // -- DAM accounting ---------------------------------------------------------

  void touch_node(std::uint32_t id) const {
    mm_.touch(nodes_[id].base == kNoAddr ? 0 : nodes_[id].base, 256);
  }

  void touch_buffer(const Buffer& b, std::uint64_t items) const {
    mm_.touch(b.base == kNoAddr ? 0 : b.base, items * sizeof(Item));
  }

  void touch_buffer_write(const Buffer& b, std::uint64_t items) const {
    mm_.touch_write(b.base == kNoAddr ? 0 : b.base, items * sizeof(Item));
  }

  // -- insertion --------------------------------------------------------------

  void put(Item item) {
    // Reusable one-item batch: the single-op hot path allocates nothing in
    // steady state.
    std::vector<Item>& batch = put_scratch_;
    batch.clear();
    batch.push_back(std::move(item));
    ingest(batch);
  }

  /// Deliver a normalized batch tree-wide, then restore balance and layout
  /// invariants. `batch` contents are consumed; its storage is retained by
  /// the caller's scratch.
  void ingest(std::vector<Item>& batch) {
    ++mutation_epoch_;
    dirty_leaves_.clear();
    flush_depth_ = 0;
    push_batch(root_, batch.data(), batch.data() + batch.size());
    for (const std::uint32_t leaf : dirty_leaves_) fix_upward(leaf);
    // Amortized layout maintenance: rebuild when the tree doubles.
    if (nodes_[root_].weight >= 2 * last_layout_weight_ &&
        nodes_[root_].weight >= 64) {
      relayout();
    }
  }

  /// Carrier buffer for buffer-to-buffer pours. Two frames per recursion
  /// depth (a pour can read from one carrier while writing the next), reused
  /// so the cascade allocates nothing in steady state; deque-backed so
  /// references stay valid when deeper recursion grows the pool.
  std::vector<Item>& flush_frame(std::size_t slot) {
    while (slot >= flush_frames_.size()) flush_frames_.emplace_back();
    return flush_frames_[slot];
  }

  /// Deliver the sorted, unique-key run [first, last) (newest-wins already
  /// applied within it) to node `id`. Structural fixes are deferred to
  /// fix_upward.
  void push_batch(std::uint32_t id, Item* first, Item* last) {
    if (first == last) return;
    Node& n = nodes_[id];
    touch_node(id);
    if (n.height == 1) {
      apply_leaf(id, first, last);
      return;
    }
    // Partition by routers (the run is sorted, so slices are contiguous).
    Item* it = first;
    for (std::size_t e = 0; e < n.kids.size() && it != last; ++e) {
      Item* stop = last;
      if (e < n.routers.size()) {
        stop = std::lower_bound(it, last, n.routers[e],
                                [](const Item& a, const K& k) { return a.key < k; });
      }
      if (stop != it) deliver_to_edge(id, e, it, stop);
      it = stop;
    }
  }

  /// Number of keys present in both the run [first, last) and buffer `b`
  /// (read-only two-pointer scan).
  std::size_t count_dups(const Buffer& b, const Item* first, const Item* last) const {
    std::size_t dups = 0, o = 0;
    const Item* a = first;
    while (a != last && o < b.items.size()) {
      if (a->key < b.items[o].key) {
        ++a;
      } else if (b.items[o].key < a->key) {
        ++o;
      } else {
        ++dups;
        ++a;
        ++o;
      }
    }
    return dups;
  }

  /// Insert [first, last) (newer than everything in the edge's buffers)
  /// into the smallest buffer that keeps it; when a tier would overflow,
  /// merge that buffer and the incoming run straight into a carrier and keep
  /// cascading — the overflowing intermediate is never written back, so a
  /// run crossing j tiers costs one pass per tier (the same per-tier cost
  /// the single-op trickle pays) instead of three.
  void deliver_to_edge(std::uint32_t id, std::size_t e, Item* first, Item* last) {
    // Note: buffer flushes can trigger leaf applications deeper in the tree,
    // which only append to dirty_leaves_ (no structural changes here), so
    // iterating this node's edges in the caller stays valid.
    Node& n = nodes_[id];
    if (n.ebufs[e].empty()) {
      push_batch(n.kids[e], first, last);
      return;
    }
    const std::size_t tiers = n.ebufs[e].size();
    for (std::size_t level = 0; level < tiers; ++level) {
      Buffer& b = nodes_[id].ebufs[e][level];
      const std::size_t added = static_cast<std::size_t>(last - first);
      const std::size_t merged_n =
          b.items.size() + added - count_dups(b, first, last);
      if (merged_n <= b.capacity) {
        merge_into_buffer(b, first, last, merged_n);
        return;
      }
      // Overflow: pour buffer + run into a carrier and continue down.
      ++stats_.buffer_flushes;
      stats_.buffer_items_moved += b.items.size();
      buffered_items_ -= b.items.size();
      touch_buffer(b, b.items.size());
      touch_buffer_write(b, b.items.size());
      std::vector<Item>& carrier = flush_frame(2 * flush_depth_ + (level & 1));
      carrier.clear();
      carrier.reserve(merged_n);
      Item* a = first;
      std::size_t o = 0;
      while (a != last && o < b.items.size()) {
        if (a->key < b.items[o].key) {
          carrier.push_back(std::move(*a++));
        } else if (b.items[o].key < a->key) {
          carrier.push_back(std::move(b.items[o++]));
        } else {  // duplicate: the newer (incoming) copy wins
          carrier.push_back(std::move(*a++));
          ++o;
        }
      }
      while (a != last) carrier.push_back(std::move(*a++));
      while (o < b.items.size()) carrier.push_back(std::move(b.items[o++]));
      b.items.clear();  // keeps capacity for the refill
      first = carrier.data();
      last = first + carrier.size();
    }
    // Fell past the largest buffer: the run goes to the child.
    ++flush_depth_;  // deeper deliveries use their own carrier frames
    push_batch(nodes_[id].kids[e], first, last);
    --flush_depth_;
  }

  /// Merge the newer run [first, last) (sorted, unique keys) into buffer
  /// `b`, newest-wins on duplicates; `merged_n` is the precomputed merged
  /// size (old + added - dups, at most b.capacity). In-place backward merge:
  /// duplicates only shrink the contribution of the NEWER run, so merged_n
  /// is never below the old size and the writer can never overtake the
  /// unread older tail. Allocation-free once b.items reaches its high-water
  /// mark.
  void merge_into_buffer(Buffer& b, Item* first, Item* last, std::size_t merged_n) {
    if (first == last) return;
    touch_buffer(b, b.items.size());
    touch_buffer_write(b, merged_n);
    const std::size_t old_n = b.items.size();
    b.items.resize(merged_n);
    std::size_t w = merged_n, o = old_n;
    Item* a = last;
    while (a != first && o > 0) {
      if (b.items[o - 1].key < a[-1].key) {
        b.items[--w] = std::move(*--a);
      } else if (a[-1].key < b.items[o - 1].key) {
        --o;
        --w;
        if (w != o) b.items[w] = std::move(b.items[o]);
      } else {  // duplicate: the newer copy wins, the older one is dropped
        --o;
        b.items[--w] = std::move(*--a);
      }
    }
    while (a != first) b.items[--w] = std::move(*--a);
    // Any remaining older prefix is already in place (w == o here).
    buffered_items_ += merged_n - old_n;
  }

  /// Apply the sorted run [first, last) to a leaf: upserts replace or
  /// extend, tombstones annihilate. Updates weights/min keys up the path;
  /// records the leaf for the deferred split pass. The merge target is a
  /// reusable scratch (tombstones can shrink the result, which rules out the
  /// in-place backward merge the buffers use).
  void apply_leaf(std::uint32_t id, const Item* first, const Item* last) {
    ++stats_.leaf_batches;
    Node& leaf = nodes_[id];
    std::int64_t delta = 0;
    std::vector<Entry<K, V>>& merged = leaf_scratch_;
    merged.clear();
    merged.reserve(leaf.entries.size() + static_cast<std::size_t>(last - first));
    const Item* a = first;
    std::size_t o = 0;
    while (a != last && o < leaf.entries.size()) {
      if (a->key < leaf.entries[o].key) {
        if (!a->tombstone) {
          merged.push_back(Entry<K, V>{a->key, a->value});
          ++delta;
        }
        ++a;
      } else if (leaf.entries[o].key < a->key) {
        merged.push_back(std::move(leaf.entries[o++]));
      } else {
        if (a->tombstone) {
          --delta;  // annihilate
        } else {
          merged.push_back(Entry<K, V>{a->key, a->value});
        }
        ++a;
        ++o;
      }
    }
    for (; a != last; ++a) {
      if (!a->tombstone) {
        merged.push_back(Entry<K, V>{a->key, a->value});
        ++delta;
      }
    }
    for (; o < leaf.entries.size(); ++o) merged.push_back(std::move(leaf.entries[o]));
    mm_.touch_write(leaf.base == kNoAddr ? 0 : leaf.base, merged.size() * sizeof(Entry<K, V>));
    leaf.entries.assign(std::make_move_iterator(merged.begin()),
                        std::make_move_iterator(merged.end()));

    // Weight/min-key propagation.
    if (!leaf.entries.empty()) leaf.min_key = leaf.entries.front().key;
    std::uint32_t v = id;
    while (v != kNull) {
      Node& nv = nodes_[v];
      nv.weight = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(nv.weight) + delta);
      if (nv.height > 1 && !nv.kids.empty()) {
        nv.min_key = nodes_[nv.kids.front()].min_key;
      }
      v = nv.parent;
    }
    dirty_leaves_.push_back(id);
  }

  // -- balancing --------------------------------------------------------------

  bool over_threshold(std::uint32_t id) const {
    const Node& n = nodes_[id];
    if (n.height == 1) return n.entries.size() > leaf_cap();
    return n.weight > weight_threshold(n.height);
  }

  void fix_upward(std::uint32_t leaf) {
    std::uint32_t v = leaf;
    while (v != kNull) {
      const std::uint32_t parent = nodes_[v].parent;
      if (over_threshold(v)) {
        if (parent == kNull) {
          grow_root();
          // grow_root splits the old root under the new one; continue from
          // the new root.
          v = root_;
          continue;
        }
        const std::size_t ci = child_index_of(parent, v);
        split_until_ok(parent, ci);
      }
      v = parent;
    }
  }

  std::size_t child_index_of(std::uint32_t parent, std::uint32_t kid) const {
    const Node& p = nodes_[parent];
    for (std::size_t i = 0; i < p.kids.size(); ++i) {
      if (p.kids[i] == kid) return i;
    }
    throw std::logic_error("shuttle: broken parent pointer");
  }

  /// Split the child at `ci` (and the pieces it produces) until every piece
  /// satisfies its threshold.
  void split_until_ok(std::uint32_t parent, std::size_t ci) {
    std::size_t end = ci + 1;
    std::size_t i = ci;
    while (i < end) {
      if (over_threshold(nodes_[parent].kids[i]) &&
          splittable(nodes_[parent].kids[i])) {
        split_child(parent, i);
        ++end;
      } else {
        ++i;
      }
    }
  }

  bool splittable(std::uint32_t id) const {
    const Node& n = nodes_[id];
    return n.height == 1 ? n.entries.size() >= 2 : n.kids.size() >= 2;
  }

  void grow_root() {
    ++stats_.root_grows;
    const std::uint32_t old_root = root_;
    const std::uint32_t nr = new_node(nodes_[old_root].height + 1);
    Node& r = nodes_[nr];
    r.kids.push_back(old_root);
    r.ebufs.push_back(make_edge_buffers(r.height));
    r.weight = nodes_[old_root].weight;
    r.min_key = nodes_[old_root].min_key;
    nodes_[old_root].parent = nr;
    root_ = nr;
    split_until_ok(root_, 0);
  }

  /// Split child `ci` of `parent` into two siblings of the same height; edge
  /// buffers partition by the new router.
  void split_child(std::uint32_t parent, std::size_t ci) {
    ++stats_.node_splits;
    const std::uint32_t vid = nodes_[parent].kids[ci];
    const std::uint32_t wid = new_node(nodes_[vid].height);
    Node& v = nodes_[vid];
    Node& w = nodes_[wid];
    w.parent = parent;
    K router{};

    if (v.height == 1) {
      const std::size_t mid = v.entries.size() / 2;
      w.entries.assign(v.entries.begin() + static_cast<std::ptrdiff_t>(mid),
                       v.entries.end());
      v.entries.resize(mid);
      v.weight = v.entries.size();
      w.weight = w.entries.size();
      v.min_key = v.entries.front().key;
      w.min_key = w.entries.front().key;
      router = w.min_key;
    } else {
      // Split children at the weight midpoint.
      const std::uint64_t total = v.weight;
      std::uint64_t acc = 0;
      std::size_t m = 1;
      for (; m < v.kids.size() - 1; ++m) {
        acc += nodes_[v.kids[m - 1]].weight;
        if (acc * 2 >= total) break;
      }
      w.kids.assign(v.kids.begin() + static_cast<std::ptrdiff_t>(m), v.kids.end());
      w.routers.assign(v.routers.begin() + static_cast<std::ptrdiff_t>(m),
                       v.routers.end());
      w.ebufs.assign(std::make_move_iterator(v.ebufs.begin() + static_cast<std::ptrdiff_t>(m)),
                     std::make_move_iterator(v.ebufs.end()));
      router = v.routers[m - 1];
      v.kids.resize(m);
      v.routers.resize(m - 1);
      v.ebufs.resize(m);
      std::uint64_t vw = 0, ww = 0;
      for (std::uint32_t k : v.kids) vw += nodes_[k].weight;
      for (std::uint32_t k : w.kids) {
        ww += nodes_[k].weight;
        nodes_[k].parent = wid;
      }
      // Items still buffered on the moved edges stay with their edges; they
      // are not part of weight.
      v.weight = vw;
      w.weight = ww;
      w.min_key = nodes_[w.kids.front()].min_key;
      v.min_key = nodes_[v.kids.front()].min_key;
    }

    // Register the new sibling with the parent; the parent's edge buffers
    // for v split by the router.
    Node& p = nodes_[parent];
    p.routers.insert(p.routers.begin() + static_cast<std::ptrdiff_t>(ci), router);
    p.kids.insert(p.kids.begin() + static_cast<std::ptrdiff_t>(ci) + 1, wid);
    std::vector<Buffer> wlist;
    wlist.reserve(p.ebufs[ci].size());
    for (Buffer& b : p.ebufs[ci]) {
      Buffer nb;
      nb.height = b.height;
      nb.capacity = b.capacity;
      const auto split_at = std::lower_bound(
          b.items.begin(), b.items.end(), router,
          [](const Item& a, const K& k) { return a.key < k; });
      nb.items.assign(std::make_move_iterator(split_at),
                      std::make_move_iterator(b.items.end()));
      b.items.erase(split_at, b.items.end());
      wlist.push_back(std::move(nb));
    }
    p.ebufs.insert(p.ebufs.begin() + static_cast<std::ptrdiff_t>(ci) + 1,
                   std::move(wlist));
  }

  // -- cursors ----------------------------------------------------------------

  /// In-order successor leaf of `id` (kNull past the rightmost leaf): walk
  /// up to the first ancestor with a right sibling edge, then down its
  /// leftmost spine. Amortized O(1) hops per leaf over a full scan.
  std::uint32_t next_leaf(std::uint32_t id) const {
    std::uint32_t v = id;
    while (true) {
      const std::uint32_t p = nodes_[v].parent;
      if (p == kNull) return kNull;
      touch_node(p);
      const std::size_t ci = child_index_of(p, v);
      if (ci + 1 < nodes_[p].kids.size()) {
        std::uint32_t d = nodes_[p].kids[ci + 1];
        while (nodes_[d].height > 1) {
          touch_node(d);
          d = nodes_[d].kids.front();
        }
        touch_node(d);
        return d;
      }
      v = p;
    }
  }

  /// One source of a cursor's fused merge: an edge-buffer span, or (one per
  /// cursor) the leaf walker that streams the leaf entries in order across
  /// leaf boundaries.
  struct CurSrc {
    const Item* at = nullptr;
    const Item* end = nullptr;
    const ShuttleTree* walker = nullptr;  // set: this is the leaf walker
    std::uint32_t leaf = kNull;
    std::uint32_t idx = 0;

    bool alive() const { return walker != nullptr ? leaf != kNull : at != end; }
    const K& key() const {
      return walker != nullptr ? walker->nodes_[leaf].entries[idx].key : at->key;
    }
    const V& value() const {
      return walker != nullptr ? walker->nodes_[leaf].entries[idx].value
                               : at->value;
    }
    bool tomb() const { return walker == nullptr && at->tombstone; }
    void advance() {
      if (walker == nullptr) {
        ++at;
        return;
      }
      ++idx;
      while (leaf != kNull && idx >= walker->nodes_[leaf].entries.size()) {
        leaf = walker->next_leaf(leaf);
        idx = 0;
      }
    }
  };

  /// Reusable cursor scratch (high-water sized, allocation-free across
  /// seeks). Source order IS the newest-wins priority: pre-order DFS emits
  /// a node's edge buffers (smallest tier first — the newest) before its
  /// descendants', and any two sources that can hold the same key lie on
  /// one root-to-leaf path, where DFS order equals depth order; the leaf
  /// walker — the oldest data — comes last.
  struct CursorState {
    std::vector<CurSrc> srcs;
    LoserTree<K> tree;
    Entry<K, V> cur{};
    bool valid = false;
    bool bounded = false;
    K hi{};
    K last{};
    bool have_last = false;
  };

 public:
  /// Resumable ordered cursor (Dictionary cursor contract in
  /// api/dictionary.hpp): tombstones buffered on the path suppress the
  /// shadowed leaf entries below them, newest buffer copy wins per key. Any
  /// mutation invalidates the cursor until the next seek.
  class Cursor {
   public:
    Cursor() = default;

    void seek(const K& lo) { do_seek(&lo, nullptr); }
    void seek(const K& lo, const K& hi) {
      if (hi < lo) {
        st_->valid = false;
        return;
      }
      do_seek(&lo, &hi);
    }
    void seek_first() { do_seek(nullptr, nullptr); }

    bool valid() const { return st_->valid; }
    const Entry<K, V>& entry() const { return st_->cur; }

    void next() {
      CursorState& st = *st_;
      if (!st.valid) return;
      CurSrc& s = st.srcs[st.tree.top()];
      s.advance();
      st.tree.replay(s.alive(), s.alive() ? s.key() : K{});
      advance_to_live();
    }

   private:
    friend class ShuttleTree;
    explicit Cursor(const ShuttleTree* d)
        : d_(d), own_(std::make_unique<CursorState>()), st_(own_.get()) {}
    Cursor(const ShuttleTree* d, CursorState* st) : d_(d), st_(st) {}

    void do_seek(const K* lo, const K* hi) {
      CursorState& st = *st_;
      const ShuttleTree& d = *d_;
      st.bounded = hi != nullptr;
      if (hi != nullptr) st.hi = *hi;
      st.have_last = false;
      st.valid = false;
      st.srcs.clear();
      d.gather_buffer_sources(d.root_, lo, hi, st.srcs);
      // The leaf walker starts at the first leaf entry >= lo, found by one
      // router descent; later leaves only hold larger keys.
      std::uint32_t id = d.root_;
      while (d.nodes_[id].height > 1) {
        d.touch_node(id);
        id = d.nodes_[id]
                 .kids[lo != nullptr ? d.edge_index(d.nodes_[id], *lo) : 0];
      }
      d.touch_node(id);
      CurSrc w;
      w.walker = &d;
      w.leaf = id;
      if (lo != nullptr) {
        const auto& entries = d.nodes_[id].entries;
        w.idx = static_cast<std::uint32_t>(
            std::lower_bound(entries.begin(), entries.end(), *lo,
                             EntryKeyLess{}) -
            entries.begin());
      }
      while (w.leaf != kNull && w.idx >= d.nodes_[w.leaf].entries.size()) {
        w.leaf = d.next_leaf(w.leaf);
        w.idx = 0;
      }
      if (w.leaf != kNull) st.srcs.push_back(w);
      st.tree.reset(st.srcs.size());
      for (std::size_t i = 0; i < st.srcs.size(); ++i) {
        st.tree.declare(i, st.srcs[i].key());
      }
      st.tree.build();
      advance_to_live();
    }

    void advance_to_live() {
      CursorState& st = *st_;
      while (st.tree.top_alive()) {
        CurSrc& s = st.srcs[st.tree.top()];
        const K& k = s.key();
        if (st.bounded && st.hi < k) break;
        const bool dup = st.have_last && !(st.last < k);
        if (!dup) {
          st.last = k;
          st.have_last = true;
          if (!s.tomb()) {
            st.cur.key = k;
            st.cur.value = s.value();
            st.valid = true;
            return;
          }
        }
        s.advance();
        st.tree.replay(s.alive(), s.alive() ? s.key() : K{});
      }
      st.valid = false;
    }

    const ShuttleTree* d_ = nullptr;
    std::unique_ptr<CursorState> own_;
    CursorState* st_ = nullptr;
  };

  /// Detached cursor (Dictionary concept); creation allocates once, steady-
  /// state seeks and nexts allocate nothing.
  Cursor make_cursor() const { return Cursor(this); }

 private:
  /// Pre-order DFS gathering every nonempty edge buffer whose edge range
  /// intersects [lo, hi] as a positioned span source.
  void gather_buffer_sources(std::uint32_t id, const K* lo, const K* hi,
                             std::vector<CurSrc>& srcs) const {
    const Node& n = nodes_[id];
    touch_node(id);
    if (n.height == 1) return;
    for (std::size_t e = 0; e < n.kids.size(); ++e) {
      const K* clo = e == 0 ? nullptr : &n.routers[e - 1];
      const K* chi = e == n.routers.size() ? nullptr : &n.routers[e];
      if (clo != nullptr && hi != nullptr && *hi < *clo) continue;
      if (chi != nullptr && lo != nullptr && *chi <= *lo) continue;
      for (const Buffer& b : n.ebufs[e]) {  // smallest (newest) tier first
        if (b.items.empty()) continue;
        touch_buffer(b, b.items.size());
        const Item* bb = b.items.data();
        const Item* be = bb + b.items.size();
        if (lo != nullptr) {
          bb = std::lower_bound(
              bb, be, *lo, [](const Item& a, const K& k) { return a.key < k; });
        }
        if (bb != be) {
          CurSrc s;
          s.at = bb;
          s.end = be;
          srcs.push_back(s);
        }
      }
      gather_buffer_sources(n.kids[e], lo, hi, srcs);
    }
  }

  // -- layout (Figure 1) --------------------------------------------------------

  void assign_node(std::uint32_t id) {
    Node& n = nodes_[id];
    const std::uint64_t bytes =
        64 + n.entries.capacity() * sizeof(Entry<K, V>) + n.kids.size() * 16;
    n.base = layout_cursor_;
    layout_cursor_ += std::max<std::uint64_t>(bytes, 64);
  }

  void assign_buffer(Buffer& b) {
    b.base = layout_cursor_;
    layout_cursor_ += std::max<std::uint64_t>(b.capacity * sizeof(Item), 64);
  }

  /// Emit buffers of exactly `bh` on every edge of node `id`.
  void emit_buffers_of_height(std::uint32_t id, std::uint64_t bh) {
    if (bh == 0) return;
    for (auto& list : nodes_[id].ebufs) {
      for (Buffer& b : list) {
        if (b.height == bh && b.base == kNoAddr) assign_buffer(b);
      }
    }
  }

  /// Recursive Figure-1 placement of the height-f recursive subtree rooted
  /// at `id`. Appends the subtree's bottom nodes to `leaves` and their
  /// children to `frontier`.
  void place(std::uint32_t id, std::uint64_t f, std::vector<std::uint32_t>& leaves,
             std::vector<std::uint32_t>& frontier) {
    Node& n = nodes_[id];
    if (f <= 1 || n.height == 1) {
      if (n.base == kNoAddr) assign_node(id);
      // The very smallest buffers ride along with their node.
      for (auto& list : n.ebufs) {
        for (Buffer& b : list) {
          if (b.height <= 1 && b.base == kNoAddr) assign_buffer(b);
        }
      }
      leaves.push_back(id);
      for (std::uint32_t k : n.kids) frontier.push_back(k);
      return;
    }
    const std::uint64_t hs = layout::largest_fib_below(f);  // bottom height
    const std::uint64_t htop = f - hs;
    const int k = layout::fib_index_at_most(hs);

    std::vector<std::uint32_t> top_leaves, mid;
    place(id, htop, top_leaves, mid);
    // Height-F_H(k) buffers of the top subtree's leaves come right after it.
    const int top_tier = k - cfg_.buffer_delta;
    if (top_tier >= 1) {
      for (std::uint32_t v : top_leaves) {
        emit_buffers_of_height(v, layout::fib(top_tier));
      }
    }
    // Each bottom recursive subtree, followed by its leaves' next-tier
    // buffers.
    const int bot_tier = k + 1 - cfg_.buffer_delta;
    for (std::uint32_t m : mid) {
      std::vector<std::uint32_t> bl, bf;
      place(m, hs, bl, bf);
      if (bot_tier >= 1) {
        for (std::uint32_t v : bl) emit_buffers_of_height(v, layout::fib(bot_tier));
      }
      leaves.insert(leaves.end(), bl.begin(), bl.end());
      frontier.insert(frontier.end(), bf.begin(), bf.end());
    }
  }

  // -- invariants ---------------------------------------------------------------

  void check_rec(std::uint32_t id, int expect_height, const K* lo, const K* hi,
                 std::uint64_t& counted_buffered) const {
    const Node& n = nodes_[id];
    if (n.height != expect_height) throw std::logic_error("shuttle: ragged heights");
    if (n.height == 1) {
      if (!n.kids.empty() || !n.ebufs.empty()) {
        throw std::logic_error("shuttle: leaf with children/buffers");
      }
      if (n.weight != n.entries.size()) throw std::logic_error("shuttle: leaf weight");
      if (id != root_ && n.entries.size() > leaf_cap()) {
        throw std::logic_error("shuttle: overfull leaf");
      }
      for (std::size_t i = 0; i < n.entries.size(); ++i) {
        if (i > 0 && !(n.entries[i - 1].key < n.entries[i].key)) {
          throw std::logic_error("shuttle: leaf unsorted");
        }
        if (lo != nullptr && n.entries[i].key < *lo) throw std::logic_error("shuttle: leaf lo");
        if (hi != nullptr && !(n.entries[i].key < *hi)) throw std::logic_error("shuttle: leaf hi");
      }
      if (!n.entries.empty() && n.min_key > n.entries.front().key) {
        throw std::logic_error("shuttle: min_key overstated");
      }
      return;
    }
    if (n.kids.size() != n.routers.size() + 1) throw std::logic_error("shuttle: arity");
    if (n.ebufs.size() != n.kids.size()) throw std::logic_error("shuttle: edge buffers arity");
    if (id != root_ && n.weight > weight_threshold(n.height)) {
      throw std::logic_error("shuttle: overweight node");
    }
    std::uint64_t w = 0;
    for (std::size_t e = 0; e < n.kids.size(); ++e) {
      const K* clo = e == 0 ? lo : &n.routers[e - 1];
      const K* chi = e == n.routers.size() ? hi : &n.routers[e];
      const std::vector<Buffer>& list = n.ebufs[e];
      for (std::size_t bi = 0; bi < list.size(); ++bi) {
        const Buffer& b = list[bi];
        if (bi > 0 && !(list[bi - 1].height < b.height)) {
          throw std::logic_error("shuttle: buffer heights not ascending");
        }
        if (b.items.size() > b.capacity) throw std::logic_error("shuttle: overfull buffer");
        counted_buffered += b.items.size();
        for (std::size_t i = 0; i < b.items.size(); ++i) {
          if (i > 0 && !(b.items[i - 1].key < b.items[i].key)) {
            throw std::logic_error("shuttle: buffer unsorted");
          }
          if (clo != nullptr && b.items[i].key < *clo) {
            throw std::logic_error("shuttle: buffer item below range");
          }
          if (chi != nullptr && !(b.items[i].key < *chi)) {
            throw std::logic_error("shuttle: buffer item above range");
          }
        }
      }
      if (nodes_[n.kids[e]].parent != id) throw std::logic_error("shuttle: parent pointer");
      check_rec(n.kids[e], expect_height - 1, clo, chi, counted_buffered);
      w += nodes_[n.kids[e]].weight;
    }
    if (w != n.weight) throw std::logic_error("shuttle: weight drift");
    for (std::size_t i = 1; i < n.routers.size(); ++i) {
      if (!(n.routers[i - 1] < n.routers[i])) throw std::logic_error("shuttle: routers unsorted");
    }
  }

  ShuttleConfig cfg_;
  std::vector<Node> nodes_;
  std::vector<std::uint8_t> alive_;
  std::uint32_t root_ = kNull;
  std::uint64_t buffered_items_ = 0;
  std::vector<std::uint32_t> dirty_leaves_;
  // Reusable scratch: single-op batch, bulk batch, leaf merge target, and
  // per-recursion-depth pour carriers — the steady-state insert path
  // allocates nothing once these reach their high-water capacities.
  std::vector<Item> put_scratch_, batch_scratch_;
  std::vector<Entry<K, V>> leaf_scratch_;
  std::deque<std::vector<Item>> flush_frames_;
  std::size_t flush_depth_ = 0;
  // Dictionary-owned cursor scratch backing range_for_each/for_each.
  mutable CursorState scan_state_;
  // Snapshot cache: one materialized segment per mutation epoch (see snapshot()).
  std::uint64_t mutation_epoch_ = 0;
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  ShuttleStats stats_;
  mutable MM mm_;
  // Layout state.
  std::uint64_t layout_cursor_ = 0;
  std::uint64_t fresh_base_ = 1ULL << 44;  // park new nodes past the laid-out region
  std::uint64_t last_layout_weight_ = 1;
};

}  // namespace costream::shuttle
