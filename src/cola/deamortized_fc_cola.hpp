// Deamortized COLA with lookahead pointers — paper Section 3,
// Lemma 23 / Theorem 24 — generalized to a runtime growth factor g.
//
// The basic deamortization (deamortized_cola.hpp) bounds every insert by
// O(g log_g N) moves but loses fractional cascading: its queries binary-
// search every array of every level. Theorem 24 restores O(1)-probe-per-
// level queries by maintaining lookahead pointers *incrementally*, using
// shadow arrays so that "from the viewpoint of a query, no level will appear
// to be in the middle of a merge":
//
//  * merges copy the g full arrays of level k into a hidden array of level
//    k+1, a budgeted number of items per insert;
//  * when a merge completes, lookahead pointers (every 8th element) are
//    copied back into level k — also budgeted, also into a hidden buffer;
//  * each completed artifact flips visible atomically; until the fresh
//    pointer buffer is ready, queries keep using the previous one (or fall
//    back to a plain binary search for that level), never a partial one.
//
// The per-insert budget covers merged items plus copied pointers, so the
// worst-case insert stays O(g log_g N) moves (Theorem 24 at g = 2), and
// searches probe O(1) cells in each level whose pointer buffer is current.
//
// Documented deviation from the paper's construction: lookahead pointers
// live in per-level side buffers (double-buffered, epoch-validated) rather
// than being interleaved into the item arrays as the amortized
// implementation does. Interleaving under incremental rebuilding is exactly
// what the paper's three-array shadow dance accomplishes; the side-buffer
// form preserves the observable guarantees — bounded windows into the next
// level's item arrays, atomic visibility — with simpler state. DESIGN.md
// records this substitution.
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

struct DeamortizedFcStats {
  std::uint64_t inserts = 0;
  std::uint64_t merges_completed = 0;
  std::uint64_t pointer_copies = 0;
  std::uint64_t total_moves = 0;           // merged items + copied pointers
  std::uint64_t max_moves_per_insert = 0;  // Theorem 24's bound under test
  std::uint64_t windowed_level_searches = 0;
  std::uint64_t full_level_searches = 0;
};

template <class K = Key, class V = Value, class MM = dam::null_mem_model>
class DeamortizedFcCola {
 public:
  static constexpr int kSampleStride = 8;  // paper: every eighth element

  explicit DeamortizedFcCola(unsigned growth = 2, MM mm = MM{})
      : growth_(growth), mm_(std::move(mm)) {
    if (growth_ < 2 || growth_ > 256) {
      throw std::invalid_argument("fc-deam: growth must be in [2, 256]");
    }
    ensure_level(0);
  }
  explicit DeamortizedFcCola(MM mm) : DeamortizedFcCola(2, std::move(mm)) {}

  unsigned growth() const noexcept { return growth_; }
  const DeamortizedFcStats& stats() const noexcept { return stats_; }
  MM& mm() noexcept { return mm_; }
  std::size_t level_count() const noexcept { return levels_.size(); }

  void insert(const K& key, const V& value) { put(key, value, false); }
  void erase(const K& key) { put(key, V{}, true); }

  /// Bulk upsert (batch contract in api/dictionary.hpp). As with the basic
  /// deamortized COLA, the worst-case move budget forbids shortcutting the
  /// level walk, so the batch is normalized once (sort + newest-wins dedup)
  /// and fed through the budgeted path.
  void insert_batch(Span<Entry<K, V>> batch) {
    if (batch.empty()) return;
    std::vector<Entry<K, V>>& run = batch_scratch_;
    run.assign(batch.begin(), batch.end());
    sort_dedup_newest_wins(run, batch_sort_scratch_);
    for (const Entry<K, V>& e : run) put(e.key, e.value, false);
  }

  /// Bulk blind delete (batch contract in api/dictionary.hpp). Tombstones
  /// are items to the budgeted machinery: each normalized op pays the same
  /// (g+1)*k + 4 budget covering merged items AND copied pointers, so
  /// Theorem 24's worst-case move bound is unchanged for erase-heavy feeds.
  void erase_batch(Span<K> keys) {
    if (keys.empty()) return;
    std::vector<Op<K, V>>& run = op_scratch_;
    run.clear();
    run.reserve(keys.size());
    for (const K& k : keys) run.push_back(Op<K, V>::del(k));
    sort_dedup_newest_wins(run, op_sort_scratch_);
    for (const Op<K, V>& o : run) put(o.key, o.value, true);
  }

  /// Mixed put/erase batch: normalize once (the LAST op on a key wins),
  /// then feed the budgeted path op by op — the worst-case bound forbids
  /// shortcutting the level walk, so batching buys dedup and sorted input.
  void apply_batch(Span<Op<K, V>> ops) {
    if (ops.empty()) return;
    std::vector<Op<K, V>>& run = op_scratch_;
    run.assign(ops.begin(), ops.end());
    sort_dedup_newest_wins(run, op_sort_scratch_);
    for (const Op<K, V>& o : run) put(o.key, o.value, o.erase);
  }

  /// Mutation epoch: bumped by every mutator (see snapshot()).
  std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }

  /// Point-in-time snapshot (contract in api/dictionary.hpp). The shadow/
  /// visible arrays are recycled in place by the incremental machinery, so
  /// the live contents materialize into one immutable segment, cached per
  /// mutation epoch; the handle stays valid across mutations.
  snap::Snapshot<K, V> snapshot() const {
    if (snap_cache_ && snap_epoch_ == mutation_epoch_) return snap_cache_;
    snap_cache_ = snap::materialize<K, V>(*this, mutation_epoch_);
    snap_epoch_ = mutation_epoch_;
    return snap_cache_;
  }

  std::optional<V> find(const K& key) const {
    // Per-array windows for the level being examined; refreshed from the
    // previous level's pointer buffer when it is current. The window vectors
    // are mutable scratch sized to g.
    std::vector<Window>& win = win_cur_;
    std::vector<Window>& next = win_next_;
    win.assign(growth_, Window{});
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const Level& lv = levels_[l];
      next.assign(growth_, Window{});
      // Search arrays newest-first within the level: collect the full
      // arrays once and sort by descending seq — O(g log g), not the
      // O(g^2) of a repeated arg-max.
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
        std::size_t lo = 0, hi = arr.size();
        if (win[a].valid && win[a].seq == lv.seq[a]) {
          lo = std::min<std::size_t>(win[a].lo, arr.size());
          hi = std::min<std::size_t>(win[a].hi, arr.size());
          ++stats_mut().windowed_level_searches;
        } else {
          ++stats_mut().full_level_searches;
        }
        touch_search(l, a, lo, hi);
        const auto first = arr.begin() + static_cast<std::ptrdiff_t>(lo);
        const auto last = arr.begin() + static_cast<std::ptrdiff_t>(hi);
        const auto it = std::lower_bound(
            first, last, key, [](const Item& e, const K& k) { return e.key < k; });
        if (it != last && it->key == key) {
          if (it->tombstone) return std::nullopt;
          return it->value;
        }
      }
      if (l + 1 < levels_.size()) derive_windows(l, key, next);
      win.swap(next);
    }
    return std::nullopt;
  }

  /// Visit live entries in [lo, hi] ascending, newest copy per key — one
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

  /// Lemma 21/23 invariants plus pointer-buffer consistency.
  void check_invariants() const {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const Level& lv = levels_[l];
      if (lv.unsafe && l + 1 < levels_.size() && levels_[l + 1].unsafe) {
        throw std::logic_error("fc-deam: adjacent unsafe levels");
      }
      for (std::size_t a = 0; a < lv.arr.size(); ++a) {
        for (std::size_t i = 1; i < lv.arr[a].size(); ++i) {
          if (!(lv.arr[a][i - 1].key < lv.arr[a][i].key)) {
            throw std::logic_error("fc-deam: array unsorted");
          }
        }
        if (lv.arr[a].size() > array_cap(l)) throw std::logic_error("fc-deam: overfull");
      }
      // Active pointer buffer, when valid, must reference a current array
      // and be sorted with in-range indices.
      const La& la = lv.la[lv.active_la];
      if (la.valid && l + 1 < levels_.size()) {
        const Level& nxt = levels_[l + 1];
        for (std::size_t i = 0; i < la.entries.size(); ++i) {
          const LaEntry& e = la.entries[i];
          if (i > 0 && la.entries[i - 1].key > e.key) {
            throw std::logic_error("fc-deam: pointer buffer unsorted");
          }
          if (e.target_array >= nxt.arr.size()) {
            throw std::logic_error("fc-deam: bad target array");
          }
          if (la.target_seq[e.target_array] == nxt.seq[e.target_array] &&
              nxt.state[e.target_array] == State::kFull) {
            if (e.index >= nxt.arr[e.target_array].size()) {
              throw std::logic_error("fc-deam: pointer index out of range");
            }
            if (nxt.arr[e.target_array][e.index].key != e.key) {
              throw std::logic_error("fc-deam: pointer key mismatch");
            }
          }
        }
      }
    }
  }

 private:
  static constexpr std::uint64_t kNoSeq = ~0ULL;

  struct Item {
    K key;
    V value;
    bool tombstone;
  };

  struct LaEntry {
    K key;
    std::uint32_t target_array;  // which array of the next level
    std::uint32_t index;         // position within that array
  };

  /// A lookahead pointer buffer into the next level. Double-buffered per
  /// level; `valid` flips only when a budgeted rebuild completes, and the
  /// buffer self-invalidates when its target arrays' sequence numbers move.
  struct La {
    std::vector<LaEntry> entries;
    std::vector<std::uint64_t> target_seq;  // per target array; kNoSeq = unset
    bool valid = false;
  };

  enum class State : std::uint8_t { kEmpty, kFull, kFilling };

  struct Window {
    bool valid = false;
    std::uint64_t seq = 0;
    std::size_t lo = 0, hi = 0;
    // Scan bookkeeping for derive_windows: whether each bound has been
    // tightened by a pointer already. Explicit flags, not sentinel values —
    // a legitimate boundary pointer (predecessor at index 0, successor at
    // the array end) must not be mistaken for "not found yet".
    bool lo_set = false, hi_set = false;
  };

  struct Level {
    std::vector<std::vector<Item>> arr;  // g arrays
    std::vector<State> state;
    std::vector<std::uint64_t> seq;
    std::vector<std::uint64_t> base;
    // In-progress g-way merge into the next level.
    bool unsafe = false;
    std::vector<std::size_t> pos;
    std::size_t target_arr = 0;
    bool drop_tombstones = false;
    // Lookahead buffers (double-buffered); rebuild state for the hidden one.
    La la[2];
    int active_la = 0;
    bool la_building = false;
    std::vector<std::size_t> la_src_pos;  // sample cursors into next level arrays
  };

  // -- cursors ----------------------------------------------------------------

  struct CurSrc {
    const Item* at = nullptr;
    const Item* end = nullptr;
  };

  /// Reusable cursor scratch; sources ordered (level ascending, fill
  /// sequence descending within a level) so the loser tree's smaller-index
  /// tie rule is exactly newest-wins.
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
  /// api/dictionary.hpp) over the full (queryable) arrays — the shadow
  /// machinery guarantees a cursor never observes a half-merged level, the
  /// same atomic-visibility property queries get. Any mutation invalidates
  /// the cursor until the next seek.
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
    friend class DeamortizedFcCola;
    explicit Cursor(const DeamortizedFcCola* d)
        : d_(d), own_(std::make_unique<CursorState>()), st_(own_.get()) {}
    Cursor(const DeamortizedFcCola* d, CursorState* st) : d_(d), st_(st) {}

    void do_seek(const K* lo, const K* hi) {
      CursorState& st = *st_;
      const DeamortizedFcCola& d = *d_;
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

    const DeamortizedFcCola* d_ = nullptr;
    std::unique_ptr<CursorState> own_;
    CursorState* st_ = nullptr;
  };

  /// Detached cursor (Dictionary concept); creation allocates once, steady-
  /// state seeks and nexts allocate nothing.
  Cursor make_cursor() const { return Cursor(this); }

 private:

  DeamortizedFcStats& stats_mut() const { return const_cast<DeamortizedFcStats&>(stats_); }

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
      lv.la_src_pos.assign(growth_, 0);
      lv.la[0].target_seq.assign(growth_, kNoSeq);
      lv.la[1].target_seq.assign(growth_, kNoSeq);
      for (unsigned a = 0; a < growth_; ++a) {
        lv.base[a] = next_base_;
        next_base_ += cap * sizeof(Item);
      }
      levels_.push_back(std::move(lv));
    }
  }

  void touch_search(std::size_t l, std::size_t a, std::size_t lo, std::size_t hi) const {
    std::size_t probes = 1;
    for (std::size_t m = hi - lo; m > 1; m >>= 1) ++probes;
    for (std::size_t i = 0; i < probes; ++i) {
      mm_.touch(levels_[l].base[a] + (lo + ((hi - lo) >> (i + 1))) * sizeof(Item),
                sizeof(Item));
    }
  }

  /// Bound the next level's arrays from this level's pointer buffer:
  /// predecessor pointer -> window start, successor pointer -> window end
  /// (+stride slack, since pointers sample every 8th element).
  void derive_windows(std::size_t l, const K& key, std::vector<Window>& next) const {
    const Level& lv = levels_[l];
    const La& la = lv.la[lv.active_la];
    if (!la.valid || la.entries.empty()) return;
    const Level& nxt = levels_[l + 1];
    // Validate the buffer against the next level's current arrays.
    for (std::size_t a = 0; a < nxt.arr.size(); ++a) {
      if (la.target_seq[a] != kNoSeq &&
          (nxt.state[a] != State::kFull || la.target_seq[a] != nxt.seq[a])) {
        return;  // stale: caller falls back to full binary search
      }
    }
    const auto it = std::upper_bound(
        la.entries.begin(), la.entries.end(), key,
        [](const K& k, const LaEntry& e) { return k < e.key; });
    // Predecessor pointers give inclusive lower bounds per target array;
    // successor pointers give exclusive upper bounds.
    for (std::size_t a = 0; a < nxt.arr.size(); ++a) {
      next[a].valid = la.target_seq[a] != kNoSeq;
      next[a].seq = nxt.seq[a];
      next[a].lo = 0;
      next[a].hi = nxt.arr[a].size();
    }
    // Nearest pointer per target array on each side of the probe. Scans are
    // bounded: entries for the g arrays interleave, so the nearest one is
    // almost always within a few steps per array; an unbounded miss just
    // leaves the (safe) full-array bound in place.
    const int scan_limit = 16 * static_cast<int>(growth_);
    // Early-exit counters track only windows that CAN be satisfied (valid
    // targets); counting unsampled/empty arrays would force every scan to
    // run to scan_limit while a level refills.
    std::size_t satisfiable = 0;
    for (std::size_t a = 0; a < nxt.arr.size(); ++a) {
      if (next[a].valid) ++satisfiable;
    }
    std::size_t lo_missing = satisfiable;
    int scanned = 0;
    for (auto back = it; back != la.entries.begin() && scanned < scan_limit &&
                         lo_missing > 0;
         ++scanned) {
      --back;
      Window& w = next[back->target_array];
      if (w.valid && !w.lo_set) {
        w.lo = back->index;
        w.lo_set = true;
        --lo_missing;
      }
    }
    std::size_t hi_found = 0;
    scanned = 0;
    for (auto fwd = it; fwd != la.entries.end() && scanned < scan_limit &&
                        hi_found < satisfiable;
         ++fwd, ++scanned) {
      Window& w = next[fwd->target_array];
      if (w.valid && !w.hi_set) {
        w.hi = std::min<std::size_t>(w.hi, static_cast<std::size_t>(fwd->index) + 1);
        w.hi_set = true;
        ++hi_found;
      }
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
    if (slot == l0.arr.size()) {
      throw std::logic_error("fc-deam: level 0 has no free array");
    }
    l0.arr[slot].clear();
    l0.arr[slot].push_back(Item{key, value, tombstone});
    l0.state[slot] = State::kFull;
    l0.seq[slot] = ++seq_counter_;
    mm_.touch_write(l0.base[slot], sizeof(Item));
    maybe_start_merge(0);

    // Theorem 24's budget covers merged items AND copied pointers. The
    // constant is one level-multiple larger than the basic COLA's g*k + 2
    // because each merge completion also schedules a pointer copy of 1/8 the
    // merged size.
    std::uint64_t budget = (growth_ + 1) * levels_.size() + 4;
    std::uint64_t moves = 0;
    for (std::size_t l = 0; l < levels_.size() && budget > 0; ++l) {
      if (levels_[l].unsafe) moves += advance_merge(l, &budget);
      if (budget > 0 && levels_[l].la_building) moves += advance_la(l, &budget);
    }
    stats_.total_moves += moves;
    stats_.max_moves_per_insert = std::max(stats_.max_moves_per_insert, moves);
  }

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
    if (tgt == nxt.arr.size()) throw std::logic_error("fc-deam: no empty target array");
    lv.unsafe = true;
    std::fill(lv.pos.begin(), lv.pos.end(), std::size_t{0});
    lv.target_arr = tgt;
    nxt.state[tgt] = State::kFilling;
    nxt.arr[tgt].clear();
    std::size_t total = 0;
    for (const auto& src : lv.arr) total += src.size();
    nxt.arr[tgt].reserve(total);
    bool deeper_data = false;
    for (std::size_t j = l + 1; j < levels_.size() && !deeper_data; ++j) {
      for (std::size_t a = 0; a < levels_[j].arr.size(); ++a) {
        if (j == l + 1 && a == tgt) continue;
        if (levels_[j].state[a] != State::kEmpty) deeper_data = true;
      }
    }
    lv.drop_tombstones = !deeper_data;
  }

  std::uint64_t advance_merge(std::size_t l, std::uint64_t* budget) {
    Level& lv = levels_[l];
    Level& nxt = levels_[l + 1];
    auto& out = nxt.arr[lv.target_arr];
    std::uint64_t moves = 0;

    while (*budget > 0) {
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
      if (win == lv.arr.size()) break;
      const Item item = lv.arr[win][lv.pos[win]];
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
      for (std::size_t a = 0; a < lv.arr.size(); ++a) {
        lv.arr[a].clear();
        lv.state[a] = State::kEmpty;
      }
      lv.unsafe = false;
      // This level's arrays changed identity: its own pointer buffers (into
      // level l+1) survive, but the PREVIOUS level's buffers into l go stale
      // naturally via sequence validation.
      nxt.state[lv.target_arr] = State::kFull;
      nxt.seq[lv.target_arr] = ++seq_counter_;
      ++stats_.merges_completed;
      // Schedule the budgeted pointer copy from the freshly visible array
      // back into this level (Lemma 23's "linked" array, double-buffered).
      start_la_build(l);
      maybe_start_merge(l + 1);
    }
    return moves;
  }

  void start_la_build(std::size_t l) {
    Level& lv = levels_[l];
    La& hidden = lv.la[1 - lv.active_la];
    hidden.entries.clear();
    hidden.valid = false;
    std::fill(hidden.target_seq.begin(), hidden.target_seq.end(), kNoSeq);
    lv.la_building = true;
    std::fill(lv.la_src_pos.begin(), lv.la_src_pos.end(), std::size_t{0});
  }

  /// Copy up to *budget pointers (every kSampleStride-th element of each
  /// full array of the next level) into the hidden buffer; flip on
  /// completion.
  std::uint64_t advance_la(std::size_t l, std::uint64_t* budget) {
    Level& lv = levels_[l];
    if (l + 1 >= levels_.size()) {
      lv.la_building = false;
      return 0;
    }
    Level& nxt = levels_[l + 1];
    La& hidden = lv.la[1 - lv.active_la];
    std::uint64_t moves = 0;
    for (std::size_t a = 0; a < nxt.arr.size() && *budget > 0; ++a) {
      if (nxt.state[a] != State::kFull) continue;
      const auto& arr = nxt.arr[a];
      std::size_t& pos = lv.la_src_pos[a];
      while (pos < arr.size() && *budget > 0) {
        hidden.entries.push_back(LaEntry{arr[pos].key, static_cast<std::uint32_t>(a),
                                         static_cast<std::uint32_t>(pos)});
        mm_.touch(nxt.base[a] + pos * sizeof(Item), sizeof(Item));
        pos += kSampleStride;
        --*budget;
        ++moves;
        ++stats_.pointer_copies;
      }
      hidden.target_seq[a] = nxt.seq[a];
    }
    bool done = true;
    for (std::size_t a = 0; a < nxt.arr.size(); ++a) {
      if (nxt.state[a] == State::kFull && lv.la_src_pos[a] < nxt.arr[a].size()) {
        done = false;
      }
    }
    if (done) {
      // Entries were appended per-array; merge-sort them by key.
      std::stable_sort(hidden.entries.begin(), hidden.entries.end(),
                       [](const LaEntry& x, const LaEntry& y) { return x.key < y.key; });
      hidden.valid = true;
      lv.active_la = 1 - lv.active_la;
      lv.la_building = false;
    }
    return moves;
  }

  unsigned growth_;
  std::vector<Level> levels_;
  std::uint64_t next_base_ = 0;
  std::uint64_t seq_counter_ = 0;
  std::vector<Entry<K, V>> batch_scratch_, batch_sort_scratch_;  // batch staging, reused
  std::vector<Op<K, V>> op_scratch_, op_sort_scratch_;  // mixed-op staging, reused
  // Window scratch for find() (const hot path; avoids per-call allocation
  // once the vectors reach capacity g).
  mutable std::vector<Window> win_cur_, win_next_;
  // find() array-ordering scratch (mutable: find is const, scratch reused).
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> find_order_scratch_;
  // Dictionary-owned cursor scratch backing range_for_each/for_each.
  mutable CursorState scan_state_;
  // Snapshot cache: one materialized segment per mutation epoch (see snapshot()).
  std::uint64_t mutation_epoch_ = 0;
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  DeamortizedFcStats stats_;
  mutable MM mm_;
};

}  // namespace costream::cola
