// Deamortized (basic) COLA — paper Section 3, Lemma 21 / Theorem 22,
// generalized to a runtime growth factor g.
//
// The amortized COLA occasionally performs a merge that touches the entire
// structure (Theta(N) work on one unlucky insert). The deamortization bounds
// every insert by O(g log_g N) moves while keeping the amortized transfer
// cost:
//
//  * every level k keeps g arrays of capacity g^k (the paper's construction
//    is the g = 2 point: two arrays of 2^k);
//  * a level is "unsafe" while all g of its arrays hold items; unsafe levels
//    are g-way merged incrementally into an empty array of the next level;
//  * each insert places its item into level 0 and then spends a move budget
//    of m = g*k + 2 (k = number of levels) advancing merges, scanning unsafe
//    levels left to right;
//  * Lemma 21 (generalized): with this budget two adjacent levels are never
//    simultaneously unsafe, so a merge always finds an empty target array —
//    a level refills only after g full deliveries from the level above,
//    which takes at least as long as its own merge drains at g moves per
//    insert.
//
// Queries see only completed ("full") arrays: an in-progress merge copies
// items, sources stay visible until the merge completes, and the partially
// filled target is hidden — so a query never observes a half-merged level.
// (This is the basic deamortization; the lookahead-pointer variant with
// shadow/visible arrays, Theorem 24, is in deamortized_fc_cola.hpp.)
//
// Same upsert/tombstone semantics as Gcola. Arrays carry fill sequence
// numbers so "newest wins" is well defined across the g arrays of a level.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
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

namespace costream::cola {

struct DeamortizedStats {
  std::uint64_t inserts = 0;
  std::uint64_t merges_started = 0;
  std::uint64_t merges_completed = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t max_moves_per_insert = 0;  // the worst-case bound under test
};

template <class K = Key, class V = Value, class MM = dam::null_mem_model>
class DeamortizedCola {
 public:
  explicit DeamortizedCola(unsigned growth = 2, MM mm = MM{})
      : growth_(growth), mm_(std::move(mm)) {
    if (growth_ < 2 || growth_ > 256) {
      throw std::invalid_argument("deamortized cola: growth must be in [2, 256]");
    }
    ensure_level(0);
  }
  explicit DeamortizedCola(MM mm) : DeamortizedCola(2, std::move(mm)) {}

  unsigned growth() const noexcept { return growth_; }
  const DeamortizedStats& stats() const noexcept { return stats_; }
  MM& mm() noexcept { return mm_; }
  std::size_t level_count() const noexcept { return levels_.size(); }

  /// Physical items currently held in full (queryable) arrays plus items in
  /// unsafe sources not yet superseded. (Copies in in-progress merge targets
  /// are not double counted: targets are invisible until completion.)
  std::uint64_t item_count() const noexcept {
    std::uint64_t n = 0;
    for (const Level& lv : levels_) {
      for (std::size_t a = 0; a < lv.arr.size(); ++a) {
        if (lv.state[a] == State::kFull) n += lv.arr[a].size();
      }
    }
    return n;
  }

  void insert(const K& key, const V& value) { put(key, value, false); }
  void erase(const K& key) { put(key, V{}, true); }

  /// Bulk upsert (batch contract in api/dictionary.hpp). The deamortized
  /// machinery moves a budgeted number of items per operation — a batch
  /// cannot shortcut the level walk without breaking the worst-case move
  /// bound — so the batch is normalized once (sort + newest-wins dedup) and
  /// fed through the budgeted path: duplicates are collapsed up front and
  /// the incremental merges see sorted, cache-friendly input.
  void insert_batch(Span<Entry<K, V>> batch) {
    if (batch.empty()) return;
    std::vector<Entry<K, V>>& run = batch_scratch_;
    run.assign(batch.begin(), batch.end());
    sort_dedup_newest_wins(run, batch_sort_scratch_);
    for (const Entry<K, V>& e : run) put(e.key, e.value, false);
  }

  /// Bulk blind delete (batch contract in api/dictionary.hpp): duplicate
  /// keys collapse to one tombstone, then each rides the budgeted path. A
  /// tombstone is an item to the incremental merges — advance_merge moves
  /// and (at the deepest data) drops it within the same per-op budget of
  /// g*k + 2 moves — so Lemma 21's worst-case bound is unchanged for
  /// erase-heavy feeds (max_moves_per_insert stays under test).
  void erase_batch(Span<K> keys) {
    if (keys.empty()) return;
    std::vector<Op<K, V>>& run = op_scratch_;
    run.clear();
    run.reserve(keys.size());
    for (const K& k : keys) run.push_back(Op<K, V>::del(k));
    sort_dedup_newest_wins(run, op_sort_scratch_);
    for (const Op<K, V>& o : run) put(o.key, o.value, true);
  }

  /// Mixed put/erase batch: normalize once (the LAST op on a key wins,
  /// put-vs-erase included) and feed the budgeted path — the deamortized
  /// machinery cannot shortcut the level walk without breaking the
  /// worst-case move bound, so batching buys the dedup and sorted,
  /// cache-friendly input, not fewer budget charges.
  void apply_batch(Span<Op<K, V>> ops) {
    if (ops.empty()) return;
    std::vector<Op<K, V>>& run = op_scratch_;
    run.assign(ops.begin(), ops.end());
    sort_dedup_newest_wins(run, op_sort_scratch_);
    for (const Op<K, V>& o : run) put(o.key, o.value, o.erase);
  }

  /// Mutation epoch: bumped by every mutator (see snapshot()).
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

  /// Point-in-time snapshot (contract in api/dictionary.hpp). The
  /// deamortized arrays are reused in place by the incremental merges, so
  /// the live contents materialize into one immutable segment, cached per
  /// mutation epoch; the handle stays valid across mutations.
  snap::Snapshot<K, V> snapshot() const {
    if (snap_cache_ && snap_epoch_ == mutation_epoch_) return snap_cache_;
    snap_cache_ = snap::materialize<K, V>(*this, mutation_epoch_);
    snap_epoch_ = mutation_epoch_;
    return snap_cache_;
  }

  std::optional<V> find(const K& key) const {
    // Newest wins: scan levels from the smallest, and within a level check
    // arrays in descending fill-sequence order. One pass collects the full
    // arrays into reusable scratch, one sort orders them — O(g log g) per
    // level, not O(g^2) of a repeated arg-max.
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const Level& lv = levels_[l];
      auto& order = find_order_scratch_;
      order.clear();
      for (std::size_t i = 0; i < lv.arr.size(); ++i) {
        if (lv.state[i] == State::kFull) {
          order.emplace_back(lv.seq[i], static_cast<std::uint32_t>(i));
        }
      }
      std::sort(order.begin(), order.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      for (const auto& ord : order) {
        const std::size_t a = ord.second;
        const auto& arr = lv.arr[a];
        touch_binary_search(l, a, arr.size());
        const auto it =
            std::lower_bound(arr.begin(), arr.end(), key,
                             [](const Item& e, const K& k) { return e.key < k; });
        if (it != arr.end() && it->key == key) {
          if (it->tombstone) return std::nullopt;
          return it->value;
        }
      }
    }
    return std::nullopt;
  }

  /// Visit live entries in [lo, hi] ascending, newest value per key — one
  /// code path with the cursor API (bounded seek on the dictionary-owned
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

  /// Lemma 21 under test: no two adjacent unsafe levels; unsafe levels have
  /// a consistent in-progress merge; arrays sorted with unique keys.
  void check_invariants() const {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const Level& lv = levels_[l];
      if (lv.unsafe && l + 1 < levels_.size() && levels_[l + 1].unsafe) {
        throw std::logic_error("deamortized cola: adjacent unsafe levels");
      }
      if (lv.unsafe) {
        for (std::size_t a = 0; a < lv.arr.size(); ++a) {
          if (lv.state[a] != State::kFull) {
            throw std::logic_error(
                "deamortized cola: unsafe level without all arrays full");
          }
        }
        if (l + 1 >= levels_.size()) {
          throw std::logic_error("deamortized cola: unsafe level without target level");
        }
        const Level& nxt = levels_[l + 1];
        if (nxt.state[lv.target_arr] != State::kFilling) {
          throw std::logic_error("deamortized cola: merge target not filling");
        }
      }
      for (std::size_t a = 0; a < lv.arr.size(); ++a) {
        if (lv.state[a] == State::kEmpty && !lv.arr[a].empty()) {
          throw std::logic_error("deamortized cola: nonempty empty array");
        }
        if (lv.arr[a].size() > array_cap(l)) {
          throw std::logic_error("deamortized cola: array overfull");
        }
        for (std::size_t i = 1; i < lv.arr[a].size(); ++i) {
          if (!(lv.arr[a][i - 1].key < lv.arr[a][i].key)) {
            throw std::logic_error("deamortized cola: array unsorted");
          }
        }
      }
    }
  }

 private:
  struct Item {
    K key;
    V value;
    bool tombstone;
  };

  enum class State : std::uint8_t { kEmpty, kFull, kFilling };

  struct Level {
    // g arrays per level; parallel state/seq/base vectors (sized at
    // ensure_level, never resized after).
    std::vector<std::vector<Item>> arr;
    std::vector<State> state;
    std::vector<std::uint64_t> seq;   // fill sequence; larger = newer
    std::vector<std::uint64_t> base;  // logical offsets for DAM accounting
    // In-progress g-way merge of THIS level's arrays into the next level:
    bool unsafe = false;
    std::vector<std::size_t> pos;  // cursor per source array
    std::size_t target_arr = 0;    // which array of level l+1 receives
    bool drop_tombstones = false;  // decided when the merge starts
  };

  // -- cursors ----------------------------------------------------------------

  struct CurSrc {
    const Item* at = nullptr;
    const Item* end = nullptr;
  };

  /// Reusable cursor scratch (high-water sized, allocation-free across
  /// seeks). Sources are ordered (level ascending, fill sequence descending
  /// within a level) — the newest-wins priority order — so the loser tree's
  /// smaller-index-wins tie rule surfaces the newest copy of every key.
  struct CursorState {
    std::vector<CurSrc> srcs;
    LoserTree<K> tree;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
    Entry<K, V> cur{};
    bool valid = false;
    bool bounded = false;
    K hi{};
    K last{};
    bool have_last = false;
  };

 public:
  /// Resumable ordered cursor (Dictionary cursor contract in
  /// api/dictionary.hpp) over the full (queryable) arrays — an in-progress
  /// merge's hidden target is never surfaced, exactly like find(). Any
  /// mutation invalidates the cursor until the next seek; open a cursor on
  /// snapshot() instead for the pinned, mutation-proof semantics.
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
      ++s.at;
      st.tree.replay(s.at != s.end, s.at != s.end ? s.at->key : K{});
      advance_to_live();
    }

   private:
    friend class DeamortizedCola;
    explicit Cursor(const DeamortizedCola* d)
        : d_(d), own_(std::make_unique<CursorState>()), st_(own_.get()) {}
    Cursor(const DeamortizedCola* d, CursorState* st) : d_(d), st_(st) {}

    void do_seek(const K* lo, const K* hi) {
      CursorState& st = *st_;
      const DeamortizedCola& d = *d_;
      st.bounded = hi != nullptr;
      if (hi != nullptr) st.hi = *hi;
      st.have_last = false;
      st.valid = false;
      st.srcs.clear();
      for (std::size_t l = 0; l < d.levels_.size(); ++l) {
        const Level& lv = d.levels_[l];
        auto& order = st.order;
        order.clear();
        for (std::size_t a = 0; a < lv.arr.size(); ++a) {
          if (lv.state[a] == State::kFull && !lv.arr[a].empty()) {
            order.emplace_back(lv.seq[a], static_cast<std::uint32_t>(a));
          }
        }
        std::sort(order.begin(), order.end(),
                  [](const auto& x, const auto& y) { return x.first > y.first; });
        for (const auto& ord : order) {
          const auto& arr = lv.arr[ord.second];
          const Item* b = arr.data();
          const Item* e = b + arr.size();
          if (lo != nullptr) {
            b = std::lower_bound(
                b, e, *lo, [](const Item& s, const K& k) { return s.key < k; });
          }
          if (b != e) st.srcs.push_back(CurSrc{b, e});
        }
      }
      st.tree.reset(st.srcs.size());
      for (std::size_t i = 0; i < st.srcs.size(); ++i) {
        st.tree.declare(i, st.srcs[i].at->key);
      }
      st.tree.build();
      advance_to_live();
    }

    void advance_to_live() {
      CursorState& st = *st_;
      while (st.tree.top_alive()) {
        CurSrc& s = st.srcs[st.tree.top()];
        const K& k = s.at->key;
        if (st.bounded && st.hi < k) break;
        const bool dup = st.have_last && !(st.last < k);
        if (!dup) {
          st.last = k;
          st.have_last = true;
          if (!s.at->tombstone) {
            st.cur.key = k;
            st.cur.value = s.at->value;
            st.valid = true;
            return;
          }
        }
        ++s.at;
        st.tree.replay(s.at != s.end, s.at != s.end ? s.at->key : K{});
      }
      st.valid = false;
    }

    const DeamortizedCola* d_ = nullptr;
    std::unique_ptr<CursorState> own_;
    CursorState* st_ = nullptr;
  };

  /// Detached cursor (Dictionary concept); creation allocates once, steady-
  /// state seeks and nexts allocate nothing.
  Cursor make_cursor() const { return Cursor(this); }

 private:

  /// Capacity of one array of level l: g^l (saturating).
  std::uint64_t array_cap(std::size_t l) const noexcept {
    std::uint64_t c = 1;
    for (std::size_t i = 0; i < l; ++i) {
      if (c > (std::uint64_t{1} << 58) / growth_) return std::uint64_t{1} << 58;
      c *= growth_;
    }
    return c;
  }

  void ensure_level(std::size_t l) {
    while (levels_.size() <= l) {
      Level lv;
      const std::uint64_t cap = array_cap(levels_.size());
      lv.arr.resize(growth_);
      lv.state.assign(growth_, State::kEmpty);
      lv.seq.assign(growth_, 0);
      lv.base.resize(growth_);
      lv.pos.assign(growth_, 0);
      for (unsigned a = 0; a < growth_; ++a) {
        lv.base[a] = next_base_;
        next_base_ += cap * sizeof(Item);
      }
      levels_.push_back(std::move(lv));
    }
  }

  void touch_binary_search(std::size_t l, std::size_t a, std::size_t n) const {
    // Account ~log2(n) probes of one Item each.
    std::size_t probes = 1;
    for (std::size_t m = n; m > 1; m >>= 1) ++probes;
    for (std::size_t i = 0; i < probes; ++i) {
      mm_.touch(levels_[l].base[a] + (n >> (i + 1)) * sizeof(Item), sizeof(Item));
    }
  }

  void put(const K& key, const V& value, bool tombstone) {
    ++mutation_epoch_;
    ++stats_.inserts;
    ensure_level(0);
    Level& l0 = levels_[0];
    std::size_t slot = l0.arr.size();
    for (std::size_t a = 0; a < l0.arr.size(); ++a) {
      if (l0.state[a] == State::kEmpty) {
        slot = a;
        break;
      }
    }
    // With budget m = g*k + 2 >= g + 2, an unsafe level 0 always finishes its
    // merge (g items) within one insert, so a free array must exist here.
    if (slot == l0.arr.size()) {
      throw std::logic_error("deamortized cola: level 0 has no free array");
    }
    l0.arr[slot].clear();
    l0.arr[slot].push_back(Item{key, value, tombstone});
    l0.state[slot] = State::kFull;
    l0.seq[slot] = ++seq_counter_;
    mm_.touch_write(l0.base[slot], sizeof(Item));
    maybe_start_merge(0);

    // Spend the move budget on unsafe levels, left to right.
    std::uint64_t budget = growth_ * levels_.size() + 2;
    std::uint64_t moves = 0;
    for (std::size_t l = 0; l < levels_.size() && budget > 0; ++l) {
      if (!levels_[l].unsafe) continue;
      moves += advance_merge(l, &budget);
    }
    stats_.total_moves += moves;
    stats_.max_moves_per_insert = std::max(stats_.max_moves_per_insert, moves);
  }

  /// If level l now holds items in all g arrays, begin the g-way merge into
  /// an empty array of level l+1.
  void maybe_start_merge(std::size_t l) {
    if (levels_[l].unsafe) return;
    for (std::size_t a = 0; a < levels_[l].arr.size(); ++a) {
      if (levels_[l].state[a] != State::kFull) return;
    }
    ensure_level(l + 1);  // may reallocate levels_: take references only after
    Level& lv = levels_[l];
    Level& nxt = levels_[l + 1];
    std::size_t tgt = nxt.arr.size();
    for (std::size_t a = 0; a < nxt.arr.size(); ++a) {
      if (nxt.state[a] == State::kEmpty) {
        tgt = a;
        break;
      }
    }
    // Lemma 21: adjacent levels are never simultaneously unsafe, so an empty
    // target must exist.
    if (tgt == nxt.arr.size()) {
      throw std::logic_error("deamortized cola: no empty target array");
    }
    lv.unsafe = true;
    std::fill(lv.pos.begin(), lv.pos.end(), std::size_t{0});
    lv.target_arr = tgt;
    nxt.state[tgt] = State::kFilling;
    nxt.arr[tgt].clear();
    std::size_t total = 0;
    for (const auto& src : lv.arr) total += src.size();
    nxt.arr[tgt].reserve(total);
    // Tombstones may be discarded iff nothing deeper can hold their key:
    // every level > l+1 empty and the sibling arrays at l+1 empty.
    bool deeper_data = false;
    for (std::size_t j = l + 1; j < levels_.size() && !deeper_data; ++j) {
      for (std::size_t a = 0; a < levels_[j].arr.size(); ++a) {
        if (j == l + 1 && a == tgt) continue;
        if (levels_[j].state[a] != State::kEmpty) deeper_data = true;
      }
    }
    lv.drop_tombstones = !deeper_data;
    ++stats_.merges_started;
  }

  /// Advance level l's g-way merge by up to *budget steps; each step emits
  /// the smallest remaining key (the newest copy by fill sequence) and
  /// consumes every source copy of that key. Decrements *budget by the steps
  /// performed and returns them. Completes the merge (and possibly cascades
  /// a new unsafe level) when the sources drain.
  std::uint64_t advance_merge(std::size_t l, std::uint64_t* budget) {
    Level& lv = levels_[l];
    Level& nxt = levels_[l + 1];
    auto& out = nxt.arr[lv.target_arr];
    std::uint64_t moves = 0;

    while (*budget > 0) {
      // Smallest key among unfinished sources; ties resolved to the newest
      // (largest seq) copy.
      std::size_t win = lv.arr.size();
      for (std::size_t a = 0; a < lv.arr.size(); ++a) {
        if (lv.pos[a] >= lv.arr[a].size()) continue;
        if (win == lv.arr.size()) {
          win = a;
          continue;
        }
        const K& ka = lv.arr[a][lv.pos[a]].key;
        const K& kw = lv.arr[win][lv.pos[win]].key;
        if (ka < kw || (ka == kw && lv.seq[a] > lv.seq[win])) win = a;
      }
      if (win == lv.arr.size()) break;  // sources drained
      const Item item = lv.arr[win][lv.pos[win]];
      // Consume every copy of this key (the non-winners are shadowed).
      for (std::size_t a = 0; a < lv.arr.size(); ++a) {
        if (lv.pos[a] < lv.arr[a].size() && lv.arr[a][lv.pos[a]].key == item.key) {
          ++lv.pos[a];
          mm_.touch(lv.base[a] + lv.pos[a] * sizeof(Item), sizeof(Item));
        }
      }
      if (!(item.tombstone && lv.drop_tombstones)) {
        out.push_back(item);
        mm_.touch_write(nxt.base[lv.target_arr] + out.size() * sizeof(Item),
                        sizeof(Item));
      }
      --*budget;
      ++moves;
    }

    bool drained = true;
    for (std::size_t a = 0; a < lv.arr.size(); ++a) {
      if (lv.pos[a] < lv.arr[a].size()) drained = false;
    }
    if (drained) {
      // Merge complete: sources become empty, target becomes visible.
      for (std::size_t a = 0; a < lv.arr.size(); ++a) {
        lv.arr[a].clear();
        lv.state[a] = State::kEmpty;
      }
      lv.unsafe = false;
      nxt.state[lv.target_arr] = State::kFull;
      nxt.seq[lv.target_arr] = ++seq_counter_;
      ++stats_.merges_completed;
      maybe_start_merge(l + 1);
    }
    return moves;
  }

  unsigned growth_;
  std::vector<Level> levels_;
  std::uint64_t next_base_ = 0;
  std::uint64_t seq_counter_ = 0;
  std::vector<Entry<K, V>> batch_scratch_, batch_sort_scratch_;  // batch staging, reused
  std::vector<Op<K, V>> op_scratch_, op_sort_scratch_;  // mixed-op staging, reused
  // find() array-ordering scratch (mutable: find is const, scratch reused).
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> find_order_scratch_;
  // Dictionary-owned cursor scratch backing range_for_each/for_each.
  mutable CursorState scan_state_;
  // Snapshot cache: one materialized segment per mutation epoch (see snapshot()).
  std::uint64_t mutation_epoch_ = 0;
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  DeamortizedStats stats_;
  mutable MM mm_;
};

}  // namespace costream::cola
