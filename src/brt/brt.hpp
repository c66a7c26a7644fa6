// Buffered repository tree (BRT) — Buchsbaum, Goldwasser,
// Venkatasubramanian, Westbrook (reference [12] of the paper). The paper's
// COLA "matches the bounds for a (cache-aware) buffered repository tree":
// O((log N)/B) amortized transfers per insert, O(log N) per search. We build
// it as the cache-aware insert-optimized comparison point.
//
// Structure: a constant-fanout search tree whose leaves store the elements
// and whose every internal node carries an unsorted buffer of Theta(B)
// elements. Inserts append to the root buffer; a full buffer is flushed by
// distributing its elements to the children (paying O(1) transfers per block
// of buffer, hence O(1/B) amortized per element per level). Searches walk
// one root-to-leaf path and scan each buffer on it: O(log N) block transfers
// because the fanout is constant.
//
// Each node occupies two logical blocks: routers+metadata, then the buffer.
// Deletes are tombstones (annihilated when they reach a leaf), the same
// extension we give the COLA.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
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

namespace costream::brt {

struct BrtStats {
  std::uint64_t flushes = 0;
  std::uint64_t splits = 0;
  std::uint64_t buffered_elements_moved = 0;
};

template <class K = Key, class V = Value, class MM = dam::null_mem_model>
class Brt {
 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  /// `block_bytes` sizes the buffers (Theta(B) elements each); `fanout` is
  /// the BRT's constant degree bound.
  explicit Brt(std::uint64_t block_bytes = 4096, std::size_t fanout = 4, MM mm = MM{})
      : block_bytes_(block_bytes),
        fanout_(std::max<std::size_t>(2, fanout)),
        buf_cap_(std::max<std::size_t>(8, block_bytes / sizeof(Item))),
        leaf_cap_(buf_cap_),
        mm_(std::move(mm)) {
    root_ = new_node(/*leaf=*/true);
  }

  MM& mm() noexcept { return mm_; }
  const BrtStats& stats() const noexcept { return stats_; }

  /// Count of physical items (leaf entries + buffered operations). The live
  /// key count is not cheaply known under blind tombstones.
  std::uint64_t item_count() const noexcept { return items_; }

  void insert(const K& key, const V& value) { put(Item{key, value, /*tombstone=*/false}); }

  /// Blind delete: enqueues a tombstone that annihilates at the leaves.
  void erase(const K& key) { put(Item{key, V{}, /*tombstone=*/true}); }

  /// Bulk upsert (batch contract in api/dictionary.hpp): append the run to
  /// the root buffer a chunk at a time — one block touch per chunk instead
  /// of one per element — flushing whenever the buffer fills. Arrival order
  /// is preserved, so newest-wins matches repeated insert() exactly.
  void insert_batch(Span<Entry<K, V>> batch) {
    const Entry<K, V>* data = batch.data();
    apply_batch_impl(batch.size(), [data](std::size_t i) {
      return Item{data[i].key, data[i].value, /*tombstone=*/false};
    });
  }

  /// Bulk blind delete: the tombstones ride the same chunked root-buffer
  /// append as insert_batch (arrival order preserved — a later put of the
  /// same key wins) and annihilate at the leaves.
  void erase_batch(Span<K> batch) {
    const K* keys = batch.data();
    apply_batch_impl(batch.size(), [keys](std::size_t i) {
      return Item{keys[i], V{}, /*tombstone=*/true};
    });
  }

  /// Mixed put/erase batch, equivalent to replaying the ops with
  /// insert()/erase() one at a time at chunked-append cost.
  void apply_batch(Span<Op<K, V>> batch) {
    const Op<K, V>* ops = batch.data();
    apply_batch_impl(batch.size(), [ops](std::size_t i) {
      return Item{ops[i].key, ops[i].value, ops[i].erase};
    });
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

  std::optional<V> find(const K& key) const {
    std::uint32_t id = root_;
    while (true) {
      const Node& n = node(id);
      // Newest operations are at the back of each buffer, and buffers nearer
      // the root are newer than anything below them.
      touch_buffer(id, n.buffer.size());
      for (auto it = n.buffer.rbegin(); it != n.buffer.rend(); ++it) {
        if (it->key == key) {
          if (it->tombstone) return std::nullopt;
          return it->value;
        }
      }
      if (n.leaf) {
        const auto it = std::lower_bound(n.entries.begin(), n.entries.end(), key,
                                         EntryKeyLess{});
        if (it != n.entries.end() && it->key == key) return it->value;
        return std::nullopt;
      }
      id = n.kids[child_index(n, key)];
    }
  }

  /// Visit live entries with lo <= key <= hi ascending, newest value wins —
  /// one code path with the cursor API (bounded seek on the dictionary-owned
  /// scratch cursor, allocation-free in steady state).
  template <class Fn>
  void range_for_each(const K& lo, const K& hi, Fn&& fn) const {
    if (hi < lo) return;
    Cursor c(this, &scan_state_);
    for (c.seek(lo, hi); c.valid(); c.next()) {
      const Entry<K, V>& e = c.entry();
      fn(e.key, e.value);
    }
  }

  /// Visit every live entry ascending (dedicated unbounded scan; sentinel
  /// bounds would drop entries for floating-point or composite keys).
  template <class Fn>
  void for_each(Fn&& fn) const {
    Cursor c(this, &scan_state_);
    for (c.seek_first(); c.valid(); c.next()) {
      const Entry<K, V>& e = c.entry();
      fn(e.key, e.value);
    }
  }

  /// Structural checks for tests. Throws std::logic_error on violation.
  void check_invariants() const {
    std::uint64_t counted = 0;
    int leaf_depth = -1;
    check_rec(root_, 1, nullptr, nullptr, leaf_depth, counted);
    if (counted != items_) throw std::logic_error("brt: item count drift");
  }

 private:
  struct Item {
    K key;
    V value;
    bool tombstone;
  };

  struct Node {
    bool leaf = true;
    std::vector<Item> buffer;          // internal only; unsorted arrival order
    std::vector<K> keys;               // internal routers
    std::vector<std::uint32_t> kids;   // internal children
    std::vector<Entry<K, V>> entries;  // leaf payload, sorted
  };

  // -- cursors ----------------------------------------------------------------

  /// One source of a cursor's fused merge: a sorted, newest-wins-deduped
  /// COPY of one node buffer (buffers are unsorted arrival order, so a seek
  /// materializes them into pooled cursor scratch), or a span into one
  /// leaf's sorted entries.
  struct CurSrc {
    const Item* b_at = nullptr;
    const Item* b_end = nullptr;
    const Entry<K, V>* l_at = nullptr;
    const Entry<K, V>* l_end = nullptr;

    bool alive() const { return b_at != b_end || l_at != l_end; }
    const K& key() const { return b_at != b_end ? b_at->key : l_at->key; }
    const V& value() const { return b_at != b_end ? b_at->value : l_at->value; }
    bool tomb() const { return b_at != b_end && b_at->tombstone; }
    void advance() {
      if (b_at != b_end) {
        ++b_at;
      } else {
        ++l_at;
      }
    }
  };

  /// Reusable cursor scratch. The buffer-copy pool is indexed, not
  /// reallocated, so repeated seeks are allocation-free once every vector
  /// has seen its high-water size (inner vectors keep their heap buffers
  /// when the pool vector grows, so earlier spans stay valid). Source order
  /// IS the newest-wins priority: pre-order DFS emits a node's buffer before
  /// its descendants', and same-depth sources cover disjoint key ranges.
  struct CursorState {
    std::vector<CurSrc> srcs;
    LoserTree<K> tree;
    std::vector<std::vector<Item>> pool;
    std::size_t pool_used = 0;
    std::vector<Item> sort_scratch;
    Entry<K, V> cur{};
    bool valid = false;
    bool bounded = false;
    K hi{};
    K last{};
    bool have_last = false;
  };

 public:
  /// Resumable ordered cursor (Dictionary cursor contract in
  /// api/dictionary.hpp): buffered operations fuse with the leaves, newest
  /// op per key wins, tombstones suppress. Any mutation invalidates the
  /// cursor until the next seek.
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
    friend class Brt;
    explicit Cursor(const Brt* d)
        : d_(d), own_(std::make_unique<CursorState>()), st_(own_.get()) {}
    Cursor(const Brt* d, CursorState* st) : d_(d), st_(st) {}

    void do_seek(const K* lo, const K* hi) {
      CursorState& st = *st_;
      st.bounded = hi != nullptr;
      if (hi != nullptr) st.hi = *hi;
      st.have_last = false;
      st.valid = false;
      st.srcs.clear();
      st.pool_used = 0;
      // The sort may SWAP its scratch buffer into a pool slot (stable sort
      // ping-pong); keep the scratch at full buffer capacity so every swap
      // exchanges max-capacity buffers and steady state stays allocation-
      // free after one warm scan.
      st.sort_scratch.reserve(d_->buf_cap_);
      d_->gather_sources(d_->root_, lo, hi, st);
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

    const Brt* d_ = nullptr;
    std::unique_ptr<CursorState> own_;
    CursorState* st_ = nullptr;
  };

  /// Detached cursor (Dictionary concept); creation allocates once, steady-
  /// state seeks and nexts allocate nothing.
  Cursor make_cursor() const { return Cursor(this); }

 private:
  /// Pre-order DFS over the subtree intersecting [lo, hi]: each nonempty
  /// node buffer becomes one sorted pooled source, each leaf one entries
  /// span; router bounds prune whole subtrees.
  void gather_sources(std::uint32_t id, const K* lo, const K* hi,
                      CursorState& st) const {
    const Node& n = node(id);
    if (!n.buffer.empty()) {
      touch_buffer(id, n.buffer.size());
      if (st.pool_used >= st.pool.size()) st.pool.emplace_back();
      std::vector<Item>& vec = st.pool[st.pool_used];
      vec.clear();
      // A buffer never exceeds buf_cap_ items, so one reserve caps this
      // pool slot for good — differently-ranged scans can map any buffer
      // onto any slot without re-growing it.
      vec.reserve(buf_cap_);
      for (const Item& it : n.buffer) {  // arrival order kept: dedup = newest
        if (lo != nullptr && it.key < *lo) continue;
        if (hi != nullptr && *hi < it.key) continue;
        vec.push_back(it);
      }
      if (!vec.empty()) {
        sort_dedup_newest_wins(vec, st.sort_scratch);
        ++st.pool_used;
        CurSrc s;
        s.b_at = vec.data();
        s.b_end = vec.data() + vec.size();
        st.srcs.push_back(s);
      }
    }
    if (n.leaf) {
      const Entry<K, V>* b = n.entries.data();
      const Entry<K, V>* e = b + n.entries.size();
      if (lo != nullptr) b = std::lower_bound(b, e, *lo, EntryKeyLess{});
      if (b != e) {
        CurSrc s;
        s.l_at = b;
        s.l_end = e;
        st.srcs.push_back(s);
      }
      return;
    }
    for (std::size_t c = 0; c < n.kids.size(); ++c) {
      const K* clo = c == 0 ? nullptr : &n.keys[c - 1];
      const K* chi = c == n.keys.size() ? nullptr : &n.keys[c];
      if (clo != nullptr && hi != nullptr && *hi < *clo) continue;
      if (chi != nullptr && lo != nullptr && *chi <= *lo) continue;
      gather_sources(n.kids[c], lo, hi, st);
    }
  }

  // Two blocks per node: [routers][buffer].
  std::uint64_t offset(std::uint32_t id) const noexcept {
    return static_cast<std::uint64_t>(id) * 2 * block_bytes_;
  }

  const Node& node(std::uint32_t id) const {
    mm_.touch(offset(id), block_bytes_);
    return nodes_[id];
  }

  Node& node_mut(std::uint32_t id) {
    mm_.touch_write(offset(id), block_bytes_);
    return nodes_[id];
  }

  void touch_buffer(std::uint32_t id, std::size_t n_items) const {
    if (n_items == 0) return;
    mm_.touch(offset(id) + block_bytes_, n_items * sizeof(Item));
  }

  std::uint32_t new_node(bool leaf) {
    const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[id].leaf = leaf;
    return id;
  }

  std::size_t child_index(const Node& n, const K& key) const {
    return static_cast<std::size_t>(
        std::upper_bound(n.keys.begin(), n.keys.end(), key) - n.keys.begin());
  }

  bool overfull(std::uint32_t id) const {
    const Node& n = nodes_[id];
    return n.leaf ? n.entries.size() > leaf_cap_ : n.kids.size() > fanout_;
  }

  /// Chunked delivery shared by every batch mutator: `item_at(i)` yields the
  /// i-th operation as an Item (upsert or tombstone), appended in arrival
  /// order so newest-wins matches the op sequence exactly.
  template <class ItemAt>
  void apply_batch_impl(std::size_t n, ItemAt&& item_at) {
    if (n == 0) return;
    ++mutation_epoch_;
    std::size_t i = 0;
    while (i < n && nodes_[root_].leaf) {
      // Root still a leaf: deliver a leaf-capacity chunk and split before
      // continuing, so a bulk load of a fresh tree grows it instead of
      // quadratically re-inserting into one giant leaf. After the first
      // split the root is internal and the buffered path below takes over.
      std::vector<Item>& run = batch_scratch_;
      run.clear();
      const std::size_t take = std::min(leaf_cap_ + 1, n - i);
      run.reserve(take);
      for (std::size_t j = 0; j < take; ++j, ++i) run.push_back(item_at(i));
      items_ += take;
      apply_to_leaf(root_, run.data(), run.data() + run.size());
      maybe_split_root();
    }
    while (i < n) {
      Node& rn = node_mut(root_);
      const std::size_t room =
          buf_cap_ > rn.buffer.size() ? buf_cap_ - rn.buffer.size() : 0;
      const std::size_t take = std::min(room, n - i);
      if (take > 0) {
        touch_buffer(root_, take);
        for (std::size_t j = 0; j < take; ++j, ++i) rn.buffer.push_back(item_at(i));
        items_ += take;
      }
      if (nodes_[root_].buffer.size() >= buf_cap_) {
        flush(root_);
        maybe_split_root();
      }
    }
    maybe_split_root();
  }

  void put(Item item) {
    ++mutation_epoch_;
    ++items_;
    if (nodes_[root_].leaf) {
      apply_to_leaf(root_, &item, &item + 1);
    } else {
      touch_buffer(root_, 1);
      node_mut(root_).buffer.push_back(std::move(item));
      if (nodes_[root_].buffer.size() >= buf_cap_) flush(root_);
    }
    maybe_split_root();
  }

  /// Scratch for one flush invocation, indexed by recursion depth so nested
  /// flushes reuse storage instead of allocating fresh vectors per flush.
  /// Deque-backed: references stay valid when deeper recursion grows the
  /// frame pool.
  struct FlushFrame {
    std::vector<Item> buf;
    std::vector<std::vector<Item>> per_child;
  };

  FlushFrame& flush_frame() {
    while (flush_depth_ >= flush_frames_.size()) flush_frames_.emplace_back();
    return flush_frames_[flush_depth_];
  }

  /// Push every buffered element of internal node `id` one level down,
  /// recursively flushing children whose buffers overflow, then split any
  /// children that ended up overfull. May leave `id` itself overfull (its
  /// parent — or maybe_split_root — fixes that).
  void flush(std::uint32_t id) {
    {
      Node& n = node_mut(id);
      assert(!n.leaf);
      ++stats_.flushes;
      FlushFrame& f = flush_frame();
      f.buf.assign(std::make_move_iterator(n.buffer.begin()),
                   std::make_move_iterator(n.buffer.end()));
      n.buffer.clear();  // keeps capacity for the refill
      touch_buffer(id, f.buf.size());
      stats_.buffered_elements_moved += f.buf.size();

      // Partition in arrival order so per-child order stays newest-last.
      const std::size_t kid_count = n.kids.size();
      if (f.per_child.size() < kid_count) f.per_child.resize(kid_count);
      for (auto& chunk : f.per_child) chunk.clear();
      for (Item& it : f.buf) f.per_child[child_index(n, it.key)].push_back(std::move(it));

      // Note: `n` goes stale once recursion splits nodes; re-read through
      // nodes_[id] below.
      for (std::size_t c = 0; c < kid_count; ++c) {
        auto& chunk = f.per_child[c];
        if (chunk.empty()) continue;
        const std::uint32_t kid = nodes_[id].kids[c];
        if (nodes_[kid].leaf) {
          apply_to_leaf(kid, chunk.data(), chunk.data() + chunk.size());
        } else {
          Node& child = node_mut(kid);
          touch_buffer(kid, chunk.size());
          child.buffer.insert(child.buffer.end(),
                              std::make_move_iterator(chunk.begin()),
                              std::make_move_iterator(chunk.end()));
          if (child.buffer.size() >= buf_cap_) {
            ++flush_depth_;
            flush(kid);
            --flush_depth_;
          }
        }
      }
    }
    fix_children(id);
  }

  /// Split every overfull child of `id` (repeatedly; a big leaf batch can
  /// need more than one split). Child indices shift right as splits insert
  /// new siblings, which the loop handles by re-checking position c until it
  /// fits before advancing.
  void fix_children(std::uint32_t id) {
    for (std::size_t c = 0; c < nodes_[id].kids.size(); ++c) {
      while (overfull(nodes_[id].kids[c])) split_child(id, c);
    }
  }

  /// Split child `c` of `parent` into two halves; the right half becomes
  /// child c+1.
  void split_child(std::uint32_t parent, std::size_t c) {
    ++stats_.splits;
    const std::uint32_t kid = nodes_[parent].kids[c];
    const std::uint32_t right = new_node(nodes_[kid].leaf);
    Node& l = node_mut(kid);
    Node& r = node_mut(right);
    K sep;
    if (l.leaf) {
      const std::size_t mid = l.entries.size() / 2;
      r.entries.assign(l.entries.begin() + static_cast<std::ptrdiff_t>(mid),
                       l.entries.end());
      l.entries.resize(mid);
      sep = r.entries.front().key;
    } else {
      const std::size_t mid = l.kids.size() / 2;
      sep = l.keys[mid - 1];
      r.keys.assign(l.keys.begin() + static_cast<std::ptrdiff_t>(mid), l.keys.end());
      r.kids.assign(l.kids.begin() + static_cast<std::ptrdiff_t>(mid), l.kids.end());
      l.keys.resize(mid - 1);
      l.kids.resize(mid);
      // Split the pending buffer by the separator, preserving arrival order.
      std::vector<Item> keep, move;
      for (Item& it : l.buffer) (it.key < sep ? keep : move).push_back(std::move(it));
      l.buffer = std::move(keep);
      r.buffer = std::move(move);
    }
    Node& p = node_mut(parent);
    p.keys.insert(p.keys.begin() + static_cast<std::ptrdiff_t>(c), sep);
    p.kids.insert(p.kids.begin() + static_cast<std::ptrdiff_t>(c) + 1, right);
  }

  /// While the root is overfull, wrap it under a fresh internal root and
  /// split it — the only way the tree gains height.
  void maybe_split_root() {
    while (overfull(root_)) {
      const std::uint32_t new_root = new_node(false);
      node_mut(new_root).kids.push_back(root_);
      root_ = new_root;
      fix_children(root_);
    }
  }

  /// Apply a run of operations [first, last) (arrival order) to a leaf:
  /// upserts replace, tombstones remove; both consume the buffered item.
  void apply_to_leaf(std::uint32_t id, Item* first, Item* last) {
    Node& leaf = node_mut(id);
    touch_buffer(id, static_cast<std::size_t>(last - first));
    for (Item* it = first; it != last; ++it) {
      const auto pos = std::lower_bound(leaf.entries.begin(), leaf.entries.end(), it->key,
                                        EntryKeyLess{});
      const bool present = pos != leaf.entries.end() && pos->key == it->key;
      if (it->tombstone) {
        if (present) {
          leaf.entries.erase(pos);
          --items_;  // the erased entry
        }
        --items_;  // the tombstone itself is consumed
      } else if (present) {
        pos->value = std::move(it->value);
        --items_;  // the superseded duplicate disappears
      } else {
        leaf.entries.insert(pos, Entry<K, V>{std::move(it->key), std::move(it->value)});
      }
    }
  }

  void check_rec(std::uint32_t id, int depth, const K* lo, const K* hi, int& leaf_depth,
                 std::uint64_t& counted) const {
    const Node& n = nodes_[id];
    counted += n.buffer.size();
    // Between operations every buffer is strictly below capacity (a full
    // buffer is flushed before the triggering operation returns).
    if (n.buffer.size() >= buf_cap_) throw std::logic_error("brt: unflushed buffer");
    for (const Item& it : n.buffer) {
      if (lo != nullptr && it.key < *lo) throw std::logic_error("brt: buffer range lo");
      if (hi != nullptr && !(it.key < *hi)) throw std::logic_error("brt: buffer range hi");
    }
    if (n.leaf) {
      if (!n.buffer.empty()) throw std::logic_error("brt: leaf with buffer");
      if (leaf_depth == -1) leaf_depth = depth;
      if (depth != leaf_depth) throw std::logic_error("brt: ragged leaves");
      if (n.entries.size() > leaf_cap_) throw std::logic_error("brt: overfull leaf");
      for (std::size_t i = 0; i < n.entries.size(); ++i) {
        if (i > 0 && !(n.entries[i - 1].key < n.entries[i].key)) {
          throw std::logic_error("brt: unsorted leaf");
        }
        if (lo != nullptr && n.entries[i].key < *lo) throw std::logic_error("brt: leaf lo");
        if (hi != nullptr && !(n.entries[i].key < *hi)) throw std::logic_error("brt: leaf hi");
      }
      counted += n.entries.size();
      return;
    }
    if (n.kids.size() != n.keys.size() + 1) throw std::logic_error("brt: arity");
    if (n.kids.size() > fanout_) throw std::logic_error("brt: overfull internal");
    for (std::size_t i = 0; i < n.kids.size(); ++i) {
      const K* clo = i == 0 ? lo : &n.keys[i - 1];
      const K* chi = i == n.keys.size() ? hi : &n.keys[i];
      check_rec(n.kids[i], depth + 1, clo, chi, leaf_depth, counted);
    }
  }

  std::uint64_t block_bytes_;
  std::size_t fanout_;
  std::size_t buf_cap_;
  std::size_t leaf_cap_;
  std::vector<Node> nodes_;
  std::uint32_t root_ = kNull;
  std::uint64_t items_ = 0;
  // Reusable scratch: batch staging plus per-depth flush frames, so the
  // steady-state insert path stops allocating once capacities stabilize.
  std::vector<Item> batch_scratch_;
  std::deque<FlushFrame> flush_frames_;
  std::size_t flush_depth_ = 0;
  // Dictionary-owned cursor scratch backing range_for_each/for_each.
  mutable CursorState scan_state_;
  // Snapshot cache: one materialized segment per mutation epoch (see
  // snapshot()).
  std::uint64_t mutation_epoch_ = 0;
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  BrtStats stats_;
  mutable MM mm_;
};

}  // namespace costream::brt
