// B+-tree baseline — the data structure the paper's Section 4 compares the
// COLA against ("Our B-tree implementation employs blocks of size 4KiB. Key
// and value sizes were each 64 bits").
//
// Nodes are sized to a block: a 4 KiB block holds 256 leaf entries (16-byte
// key/value pairs) or ~340 router/child slots. The DAM accounting treats one
// node access as one block touch at logical offset node_id * block_bytes,
// which is exactly how the paper's memory-mapped B-tree behaves.
//
// Supports upsert, delete with full rebalancing (borrow/merge), point
// lookup, range scans over leaf links, and sorted bulk-load. O(log_{B+1} N)
// transfers per operation — optimal for searching in the DAM model, which is
// why it is the right baseline for the insert/search tradeoff.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/entry.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "dam/mem_model.hpp"

namespace costream::btree {

struct BTreeStats {
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t borrows = 0;
};

template <class K = Key, class V = Value, class MM = dam::null_mem_model>
class BTree {
 public:
  using Ent = Entry<K, V>;
  static constexpr std::uint32_t kNull = 0xffffffffu;

  explicit BTree(std::uint64_t block_bytes = 4096, MM mm = MM{})
      : block_bytes_(block_bytes),
        leaf_cap_(std::max<std::size_t>(4, block_bytes / sizeof(Ent))),
        internal_cap_(std::max<std::size_t>(4, block_bytes / (sizeof(K) + sizeof(std::uint32_t)))),
        mm_(std::move(mm)) {
    root_ = new_node(/*leaf=*/true);
  }

  // -- observers --------------------------------------------------------------

  std::uint64_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  int height() const noexcept { return height_; }
  const BTreeStats& stats() const noexcept { return stats_; }
  MM& mm() noexcept { return mm_; }
  std::uint64_t block_bytes() const noexcept { return block_bytes_; }
  std::size_t leaf_capacity() const noexcept { return leaf_cap_; }
  std::size_t node_count() const noexcept { return nodes_.size() - free_.size(); }

  /// Mutation epoch: bumped by every mutator. Snapshots are stamped and
  /// cached against it.
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

  /// Point-in-time snapshot (contract in api/dictionary.hpp). In-place
  /// structure: the live contents materialize into one immutable segment —
  /// O(N) copy, cached per mutation epoch, so repeated acquisitions of an
  /// unmutated tree are refcount bumps. The handle (and cursors opened on
  /// it) stays valid across arbitrary later mutations.
  snap::Snapshot<K, V> snapshot() const {
    if (snap_cache_ && snap_epoch_ == mutation_epoch_) return snap_cache_;
    snap_cache_ = snap::materialize<K, V>(*this, mutation_epoch_);
    snap_epoch_ = mutation_epoch_;
    return snap_cache_;
  }

  std::optional<V> find(const K& key) const {
    std::uint32_t id = root_;
    while (true) {
      const Node& n = node(id);
      if (n.leaf) {
        const auto it = std::lower_bound(n.entries.begin(), n.entries.end(), key,
                                         EntryKeyLess{});
        if (it != n.entries.end() && it->key == key) return it->value;
        return std::nullopt;
      }
      id = n.kids[child_index(n, key)];
    }
  }

  /// Visit live entries with lo <= key <= hi in ascending order — one code
  /// path with the cursor API (bounded seek on the dictionary-owned scratch
  /// cursor; the leaf chain makes the B-tree cursor a trivial walk).
  template <class Fn>
  void range_for_each(const K& lo, const K& hi, Fn&& fn) const {
    if (hi < lo) return;
    Cursor c(this, &scan_state_);
    for (c.seek(lo, hi); c.valid(); c.next()) {
      const Ent& e = c.entry();
      fn(e.key, e.value);
    }
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    Cursor c(this, &scan_state_);
    for (c.seek_first(); c.valid(); c.next()) {
      const Ent& e = c.entry();
      fn(e.key, e.value);
    }
  }

  // -- cursor -----------------------------------------------------------------

  /// Cursor scratch: just a leaf-chain position (the in-place B-tree needs
  /// no merge, no suppression — one descent, then next() walks the chain).
  struct CursorState {
    std::uint32_t leaf = kNull;
    std::size_t idx = 0;
    bool valid = false;
    bool bounded = false;
    K hi{};
    Ent cur{};
  };

  /// Resumable ordered cursor (Dictionary cursor contract in
  /// api/dictionary.hpp). Any mutation invalidates the cursor (splits and
  /// merges relocate entries) until the next seek.
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
    const Ent& entry() const { return st_->cur; }

    void next() {
      CursorState& st = *st_;
      if (!st.valid) return;
      ++st.idx;
      settle();
    }

   private:
    friend class BTree;
    explicit Cursor(const BTree* d)
        : d_(d), own_(std::make_unique<CursorState>()), st_(own_.get()) {}
    Cursor(const BTree* d, CursorState* st) : d_(d), st_(st) {}

    void do_seek(const K* lo, const K* hi) {
      CursorState& st = *st_;
      const BTree& d = *d_;
      st.bounded = hi != nullptr;
      if (hi != nullptr) st.hi = *hi;
      st.valid = false;
      std::uint32_t id = d.root_;
      while (!d.node(id).leaf) {
        const Node& n = d.nodes_[id];
        id = n.kids[lo != nullptr ? d.child_index(n, *lo) : 0];
      }
      st.leaf = id;
      const auto& entries = d.nodes_[id].entries;
      st.idx = lo != nullptr
                   ? static_cast<std::size_t>(
                         std::lower_bound(entries.begin(), entries.end(), *lo,
                                          EntryKeyLess{}) -
                         entries.begin())
                   : 0;
      settle();
    }

    /// Hop leaves past exhausted positions, apply the bound, cache the
    /// current entry.
    void settle() {
      CursorState& st = *st_;
      const BTree& d = *d_;
      while (st.leaf != kNull && st.idx >= d.node(st.leaf).entries.size()) {
        st.leaf = d.nodes_[st.leaf].next;
        st.idx = 0;
      }
      if (st.leaf == kNull) {
        st.valid = false;
        return;
      }
      const Ent& e = d.nodes_[st.leaf].entries[st.idx];
      if (st.bounded && st.hi < e.key) {
        st.valid = false;
        return;
      }
      st.cur = e;
      st.valid = true;
    }

    const BTree* d_ = nullptr;
    std::unique_ptr<CursorState> own_;
    CursorState* st_ = nullptr;
  };

  /// Detached cursor (Dictionary concept).
  Cursor make_cursor() const { return Cursor(this); }

  // -- mutators ---------------------------------------------------------------

  /// Upsert: overwrite the value if the key exists.
  void insert(const K& key, const V& value) {
    ++mutation_epoch_;
    auto split = insert_rec(root_, key, value);
    if (split) {
      const std::uint32_t new_root = new_node(/*leaf=*/false);
      Node& r = node_mut(new_root);
      r.keys.push_back(split->separator);
      r.kids.push_back(root_);
      r.kids.push_back(split->right_id);
      root_ = new_root;
      ++height_;
    }
  }

  /// Bulk upsert (batch contract in api/dictionary.hpp): normalize the run
  /// once, then insert in ascending key order — successive inserts descend
  /// into the same nodes, so the root-to-leaf path stays block-cached and
  /// dedup happens once instead of via n upsert probes.
  void insert_batch(Span<Ent> batch) {
    if (batch.empty()) return;
    std::vector<Ent>& run = batch_scratch_;
    run.assign(batch.begin(), batch.end());
    sort_dedup_newest_wins(run, batch_sort_scratch_);
    for (const Ent& e : run) insert(e.key, e.value);
  }

  /// Bulk delete (batch contract in api/dictionary.hpp): sort the keys once
  /// and erase in ascending order, so successive descents reuse the same
  /// root-to-leaf path blocks; duplicate keys collapse to one erase. The
  /// in-place structure needs no tombstones — each erase rebalances fully.
  void erase_batch(Span<K> keys) {
    if (keys.empty()) return;
    std::vector<K>& ks = erase_scratch_;
    ks.assign(keys.begin(), keys.end());
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    for (const K& k : ks) erase(k);
  }

  /// Mixed put/erase batch: normalize once (the LAST op on a key wins,
  /// put-vs-erase included), then apply in ascending key order — upserts
  /// insert, deletes erase directly with full rebalancing.
  void apply_batch(Span<Op<K, V>> ops) {
    if (ops.empty()) return;
    std::vector<Op<K, V>>& run = op_scratch_;
    run.assign(ops.begin(), ops.end());
    sort_dedup_newest_wins(run, op_sort_scratch_);
    for (const Op<K, V>& o : run) {
      if (o.erase) {
        erase(o.key);
      } else {
        insert(o.key, o.value);
      }
    }
  }

  /// Remove `key`; returns true if it was present.
  bool erase(const K& key) {
    ++mutation_epoch_;
    const bool removed = erase_rec(root_, key);
    Node& r = node_mut(root_);
    if (!r.leaf && r.kids.size() == 1) {
      const std::uint32_t only = r.kids[0];
      free_node(root_);
      root_ = only;
      --height_;
    }
    return removed;
  }

  /// Build from entries sorted ascending by strictly increasing key;
  /// replaces the current contents. Leaves are packed full (the layout the
  /// paper used for the search experiment's pre-built B-tree).
  void bulk_load(const std::vector<Ent>& sorted) {
    ++mutation_epoch_;
    nodes_.clear();
    free_.clear();
    size_ = 0;
    height_ = 1;
    stats_ = BTreeStats{};
    root_ = new_node(true);
    if (sorted.empty()) return;

    // Level 0: packed leaves. The tail is balanced so the last leaf never
    // falls below the underflow threshold.
    std::vector<std::uint32_t> level;
    std::vector<K> level_min;
    free_node(root_);
    std::uint32_t prev = kNull;
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t take = std::min(leaf_cap_, sorted.size() - i);
      const std::size_t remaining = sorted.size() - i;
      if (remaining > leaf_cap_ && remaining - leaf_cap_ < min_leaf()) {
        take = remaining - min_leaf();
      }
      const std::uint32_t id = new_node(true);
      Node& n = node_mut(id);
      n.entries.assign(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                       sorted.begin() + static_cast<std::ptrdiff_t>(i + take));
      mm_.touch_write(offset(id), block_bytes_);
      if (prev != kNull) node_mut(prev).next = id;
      level.push_back(id);
      level_min.push_back(n.entries.front().key);
      prev = id;
      i += take;
    }
    size_ = sorted.size();

    // Upper levels until a single root remains.
    while (level.size() > 1) {
      std::vector<std::uint32_t> up;
      std::vector<K> up_min;
      for (std::size_t i = 0; i < level.size();) {
        std::size_t take = std::min(internal_cap_, level.size() - i);
        const std::size_t remaining = level.size() - i;
        if (remaining > internal_cap_ && remaining - internal_cap_ < min_internal()) {
          take = remaining - min_internal();
        }
        const std::uint32_t id = new_node(false);
        Node& n = node_mut(id);
        for (std::size_t j = 0; j < take; ++j) {
          n.kids.push_back(level[i + j]);
          if (j > 0) n.keys.push_back(level_min[i + j]);
        }
        mm_.touch_write(offset(id), block_bytes_);
        up.push_back(id);
        up_min.push_back(level_min[i]);
        i += take;
      }
      level = std::move(up);
      level_min = std::move(up_min);
      ++height_;
    }
    root_ = level[0];
  }

  // -- verification -----------------------------------------------------------

  /// Full structural check: sorted nodes, fanout bounds, uniform leaf depth,
  /// separator consistency, leaf-chain completeness. Throws on violation.
  void check_invariants() const {
    std::uint64_t counted = 0;
    int leaf_depth = -1;
    check_rec(root_, 1, nullptr, nullptr, leaf_depth, counted);
    if (counted != size_) throw std::logic_error("btree: size drift");
    // Leaf chain covers all entries in order.
    std::uint64_t chained = 0;
    const K* last = nullptr;
    K last_val{};
    for (std::uint32_t id = leftmost_leaf(); id != kNull; id = node(id).next) {
      for (const Ent& e : node(id).entries) {
        if (last != nullptr && !(last_val < e.key)) {
          throw std::logic_error("btree: leaf chain out of order");
        }
        last_val = e.key;
        last = &last_val;
        ++chained;
      }
    }
    if (chained != size_) throw std::logic_error("btree: leaf chain drift");
  }

 private:
  struct Node {
    bool leaf = true;
    std::vector<K> keys;             // internal: keys.size() + 1 == kids.size()
    std::vector<std::uint32_t> kids; // internal only
    std::vector<Ent> entries;        // leaf only
    std::uint32_t next = kNull;      // leaf chain
  };

  struct Split {
    K separator;
    std::uint32_t right_id;
  };

  std::uint64_t offset(std::uint32_t id) const noexcept {
    return static_cast<std::uint64_t>(id) * block_bytes_;
  }

  const Node& node(std::uint32_t id) const {
    mm_.touch(offset(id), block_bytes_);
    return nodes_[id];
  }

  Node& node_mut(std::uint32_t id) {
    mm_.touch_write(offset(id), block_bytes_);
    return nodes_[id];
  }

  std::uint32_t new_node(bool leaf) {
    std::uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      nodes_[id] = Node{};
    } else {
      id = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[id].leaf = leaf;
    return id;
  }

  void free_node(std::uint32_t id) {
    nodes_[id] = Node{};
    free_.push_back(id);
  }

  std::size_t child_index(const Node& n, const K& key) const {
    return static_cast<std::size_t>(
        std::upper_bound(n.keys.begin(), n.keys.end(), key) - n.keys.begin());
  }

  std::uint32_t leftmost_leaf() const {
    std::uint32_t id = root_;
    while (!node(id).leaf) id = node(id).kids.front();
    return id;
  }

  std::optional<Split> insert_rec(std::uint32_t id, const K& key, const V& value) {
    if (nodes_[id].leaf) {
      Node& n = node_mut(id);
      const auto it = std::lower_bound(n.entries.begin(), n.entries.end(), key,
                                       EntryKeyLess{});
      if (it != n.entries.end() && it->key == key) {
        it->value = value;  // upsert
        return std::nullopt;
      }
      n.entries.insert(it, Ent{key, value});
      ++size_;
      if (n.entries.size() <= leaf_cap_) return std::nullopt;
      return split_leaf(id);
    }
    const std::size_t ci = child_index(node(id), key);
    auto child_split = insert_rec(nodes_[id].kids[ci], key, value);
    if (!child_split) return std::nullopt;
    Node& n = node_mut(id);
    n.keys.insert(n.keys.begin() + static_cast<std::ptrdiff_t>(ci), child_split->separator);
    n.kids.insert(n.kids.begin() + static_cast<std::ptrdiff_t>(ci) + 1,
                  child_split->right_id);
    if (n.kids.size() <= internal_cap_) return std::nullopt;
    return split_internal(id);
  }

  Split split_leaf(std::uint32_t id) {
    ++stats_.splits;
    const std::uint32_t right = new_node(true);
    Node& l = node_mut(id);
    Node& r = node_mut(right);
    const std::size_t mid = l.entries.size() / 2;
    r.entries.assign(l.entries.begin() + static_cast<std::ptrdiff_t>(mid), l.entries.end());
    l.entries.resize(mid);
    r.next = l.next;
    l.next = right;
    return Split{r.entries.front().key, right};
  }

  Split split_internal(std::uint32_t id) {
    ++stats_.splits;
    const std::uint32_t right = new_node(false);
    Node& l = node_mut(id);
    Node& r = node_mut(right);
    const std::size_t mid = l.keys.size() / 2;
    const K sep = l.keys[mid];
    r.keys.assign(l.keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1, l.keys.end());
    r.kids.assign(l.kids.begin() + static_cast<std::ptrdiff_t>(mid) + 1, l.kids.end());
    l.keys.resize(mid);
    l.kids.resize(mid + 1);
    return Split{sep, right};
  }

  std::size_t min_leaf() const noexcept { return leaf_cap_ / 4; }
  std::size_t min_internal() const noexcept { return internal_cap_ / 4; }  // kids

  bool erase_rec(std::uint32_t id, const K& key) {
    if (nodes_[id].leaf) {
      Node& n = node_mut(id);
      const auto it = std::lower_bound(n.entries.begin(), n.entries.end(), key,
                                       EntryKeyLess{});
      if (it == n.entries.end() || it->key != key) return false;
      n.entries.erase(it);
      --size_;
      return true;
    }
    const std::size_t ci = child_index(node(id), key);
    const bool removed = erase_rec(nodes_[id].kids[ci], key);
    if (removed) fix_child(id, ci);
    return removed;
  }

  bool underfull(std::uint32_t id) const {
    const Node& n = nodes_[id];
    return n.leaf ? n.entries.size() < min_leaf() : n.kids.size() < min_internal();
  }

  /// Restore fanout bounds for child `ci` of internal node `id` by borrowing
  /// from or merging with an adjacent sibling.
  void fix_child(std::uint32_t id, std::size_t ci) {
    if (!underfull(nodes_[id].kids[ci])) return;
    Node& p = node_mut(id);
    const std::size_t left_i = ci > 0 ? ci - 1 : ci;
    const std::size_t right_i = left_i + 1;
    if (right_i >= p.kids.size()) return;  // root with single child: handled by caller
    const std::uint32_t lid = p.kids[left_i];
    const std::uint32_t rid = p.kids[right_i];
    Node& l = node_mut(lid);
    Node& r = node_mut(rid);
    K& sep = p.keys[left_i];

    if (l.leaf) {
      if (l.entries.size() + r.entries.size() <= leaf_cap_) {
        ++stats_.merges;
        l.entries.insert(l.entries.end(), r.entries.begin(), r.entries.end());
        l.next = r.next;
        free_node(rid);
        p.keys.erase(p.keys.begin() + static_cast<std::ptrdiff_t>(left_i));
        p.kids.erase(p.kids.begin() + static_cast<std::ptrdiff_t>(right_i));
      } else if (l.entries.size() < r.entries.size()) {
        ++stats_.borrows;
        l.entries.push_back(r.entries.front());
        r.entries.erase(r.entries.begin());
        sep = r.entries.front().key;
      } else {
        ++stats_.borrows;
        r.entries.insert(r.entries.begin(), l.entries.back());
        l.entries.pop_back();
        sep = r.entries.front().key;
      }
      return;
    }

    if (l.kids.size() + r.kids.size() <= internal_cap_) {
      ++stats_.merges;
      l.keys.push_back(sep);
      l.keys.insert(l.keys.end(), r.keys.begin(), r.keys.end());
      l.kids.insert(l.kids.end(), r.kids.begin(), r.kids.end());
      free_node(rid);
      p.keys.erase(p.keys.begin() + static_cast<std::ptrdiff_t>(left_i));
      p.kids.erase(p.kids.begin() + static_cast<std::ptrdiff_t>(right_i));
    } else if (l.kids.size() < r.kids.size()) {
      ++stats_.borrows;
      l.keys.push_back(sep);
      l.kids.push_back(r.kids.front());
      sep = r.keys.front();
      r.keys.erase(r.keys.begin());
      r.kids.erase(r.kids.begin());
    } else {
      ++stats_.borrows;
      r.keys.insert(r.keys.begin(), sep);
      r.kids.insert(r.kids.begin(), l.kids.back());
      sep = l.keys.back();
      l.keys.pop_back();
      l.kids.pop_back();
    }
  }

  void check_rec(std::uint32_t id, int depth, const K* lo, const K* hi, int& leaf_depth,
                 std::uint64_t& counted) const {
    const Node& n = nodes_[id];
    if (n.leaf) {
      if (leaf_depth == -1) leaf_depth = depth;
      if (depth != leaf_depth) throw std::logic_error("btree: ragged leaves");
      if (id != root_ && n.entries.size() < min_leaf()) {
        throw std::logic_error("btree: underfull leaf");
      }
      if (n.entries.size() > leaf_cap_) throw std::logic_error("btree: overfull leaf");
      for (std::size_t i = 0; i < n.entries.size(); ++i) {
        if (i > 0 && !(n.entries[i - 1].key < n.entries[i].key)) {
          throw std::logic_error("btree: unsorted leaf");
        }
        if (lo != nullptr && n.entries[i].key < *lo) throw std::logic_error("btree: range lo");
        if (hi != nullptr && !(n.entries[i].key < *hi)) throw std::logic_error("btree: range hi");
      }
      counted += n.entries.size();
      return;
    }
    if (n.kids.size() != n.keys.size() + 1) throw std::logic_error("btree: arity");
    if (id != root_ && n.kids.size() < min_internal()) {
      throw std::logic_error("btree: underfull internal");
    }
    if (n.kids.size() > internal_cap_) throw std::logic_error("btree: overfull internal");
    for (std::size_t i = 0; i + 1 < n.keys.size(); ++i) {
      if (!(n.keys[i] < n.keys[i + 1])) throw std::logic_error("btree: unsorted routers");
    }
    for (std::size_t i = 0; i < n.kids.size(); ++i) {
      const K* clo = i == 0 ? lo : &n.keys[i - 1];
      const K* chi = i == n.keys.size() ? hi : &n.keys[i];
      check_rec(n.kids[i], depth + 1, clo, chi, leaf_depth, counted);
    }
  }

  std::uint64_t block_bytes_;
  std::size_t leaf_cap_;
  std::size_t internal_cap_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t root_ = kNull;
  std::uint64_t size_ = 0;
  int height_ = 1;
  std::vector<Ent> batch_scratch_, batch_sort_scratch_;  // insert_batch staging, reused
  std::vector<K> erase_scratch_;                         // erase_batch staging, reused
  std::vector<Op<K, V>> op_scratch_, op_sort_scratch_;   // apply_batch staging, reused
  // Dictionary-owned cursor scratch backing range_for_each/for_each.
  mutable CursorState scan_state_;
  // Snapshot cache: one materialized segment per mutation epoch (see
  // snapshot()).
  std::uint64_t mutation_epoch_ = 0;
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  BTreeStats stats_;
  mutable MM mm_;
};

}  // namespace costream::btree
