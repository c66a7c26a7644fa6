// Cache-oblivious B-tree baseline — Bender, Demaine, Farach-Colton
// (reference [6] of the paper). The paper's shuttle tree "retains the
// asymptotic search cost of the CO B-tree while improving the insert cost",
// so this structure is the search-optimal cache-oblivious baseline the
// shuttle tree is measured against.
//
// Construction (the classic two-piece design):
//   * the entries live in key order inside a packed-memory array (pma::Pma);
//   * a static search tree in van Emde Boas layout indexes the PMA, one
//     index node per PMA segment, keyed by the segment's leader (its first
//     occupied element).
//
// Searches descend the vEB index — O(log_{B+1} N) transfers, cache-
// obliviously — and finish with a one-segment scan (a segment is Theta(log N)
// contiguous elements, O(1) blocks). Inserts place the element via the PMA
// (amortized O((log^2 N)/B) moves) and patch the index in place: PMA
// rebalances preserve element order, so segment leaders change value but not
// order, and in-place key updates keep the BST property intact. Only a
// capacity change (PMA resize) rebuilds the index, which is amortized O(1)
// per update.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/entry.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "dam/mem_model.hpp"
#include "layout/veb_static.hpp"
#include "pma/pma.hpp"

namespace costream::cob {

template <class K = Key, class V = Value, class MM = dam::null_mem_model>
class CobTree {
 public:
  using Ent = Entry<K, V>;
  using P = pma::Pma<Ent, MM>;
  using slot_t = typename P::slot_t;
  static constexpr slot_t npos = P::npos;

  /// The index lives in its own logical region far above the PMA region so
  /// the DAM cache sees them as distinct blocks.
  static constexpr std::uint64_t kIndexRegion = 1ULL << 40;

  explicit CobTree(MM mm = MM{}) : pma_(std::move(mm)) { rebuild_index(); }

  std::uint64_t size() const noexcept { return pma_.size(); }
  bool empty() const noexcept { return pma_.empty(); }
  MM& mm() noexcept { return pma_.mm(); }
  const P& pma() const noexcept { return pma_; }

  std::optional<V> find(const K& key) const {
    const slot_t s = predecessor_slot(key);
    if (s == npos) return std::nullopt;
    const Ent& e = pma_.at(s);
    if (e.key == key) return e.value;
    return std::nullopt;
  }

  /// Upsert.
  void insert(const K& key, const V& value) {
    ++mutation_epoch_;
    const slot_t pred = predecessor_slot(key);
    if (pred != npos) {
      Ent& e = pma_.at(pred);
      if (e.key == key) {
        e.value = value;
        return;
      }
    }
    pma_.insert_after(pred, Ent{key, value});
    sync_index();
  }

  /// Bulk upsert (batch contract in api/dictionary.hpp): normalize the run
  /// once, then insert in ascending key order. Consecutive keys land in the
  /// same or adjacent PMA segments, so rebalance windows overlap and the
  /// vEB descent reuses the same root-to-segment path blocks. An empty
  /// structure takes the pure bulk-load path: one rolling-predecessor PMA
  /// placement and a single index rebuild.
  void insert_batch(Span<Ent> batch) {
    if (batch.empty()) return;
    ++mutation_epoch_;
    std::vector<Ent>& run = batch_scratch_;
    run.assign(batch.begin(), batch.end());
    sort_dedup_newest_wins(run, batch_sort_scratch_);
    if (pma_.empty()) {
      pma_.insert_batch_after(npos, run.data(), run.size());
      rebuild_index();
      return;
    }
    for (const Ent& e : run) insert(e.key, e.value);
  }

  /// Bulk delete (batch contract in api/dictionary.hpp): sort the keys once
  /// and erase ascending — successive keys hit the same or adjacent PMA
  /// segments, so the vEB descents and rebalance windows overlap. Duplicate
  /// keys collapse to one erase; absent keys are no-ops.
  void erase_batch(Span<K> keys) {
    if (keys.empty()) return;
    std::vector<K>& ks = erase_scratch_;
    ks.assign(keys.begin(), keys.end());
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    for (const K& k : ks) erase(k);
  }

  /// Mixed put/erase batch: normalize once (the LAST op on a key wins),
  /// apply ascending — upserts through insert(), deletes through erase(),
  /// no tombstones anywhere in the PMA.
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

  /// Returns true if the key existed.
  bool erase(const K& key) {
    ++mutation_epoch_;
    const slot_t s = predecessor_slot(key);
    if (s == npos || pma_.at(s).key != key) return false;
    pma_.erase(s);
    sync_index();
    return true;
  }

  /// Visit entries with lo <= key <= hi in ascending order — one code path
  /// with the cursor API.
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

  /// Cursor scratch: a positional PMA cursor plus the bound. The vEB index
  /// accelerates the seek (one descent); next() is the PMA's amortized-O(1)
  /// occupied-slot walk.
  struct CursorState {
    typename P::Cursor pc{};
    bool valid = false;
    bool bounded = false;
    K hi{};
    Ent cur{};
  };

  /// Resumable ordered cursor (Dictionary cursor contract in
  /// api/dictionary.hpp). Any mutation invalidates the cursor (PMA
  /// rebalances relocate elements) until the next seek.
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
      st.pc.next();
      settle();
    }

   private:
    friend class CobTree;
    explicit Cursor(const CobTree* d)
        : d_(d), own_(std::make_unique<CursorState>()), st_(own_.get()) {}
    Cursor(const CobTree* d, CursorState* st) : d_(d), st_(st) {}

    void do_seek(const K* lo, const K* hi) {
      CursorState& st = *st_;
      const CobTree& d = *d_;
      st.bounded = hi != nullptr;
      if (hi != nullptr) st.hi = *hi;
      st.valid = false;
      st.pc = d.pma_.make_cursor();
      if (d.pma_.empty()) return;
      if (lo == nullptr) {
        st.pc.seek_first();
      } else {
        // vEB descent to the predecessor segment, then adjust to the first
        // slot at-or-after lo.
        const slot_t pred = d.predecessor_slot(*lo);
        if (pred == npos) {
          st.pc.seek_first();
        } else if (d.pma_.at(pred).key < *lo) {
          st.pc.seek_slot(pred);
          st.pc.next();
        } else {
          st.pc.seek_slot(pred);
        }
      }
      settle();
    }

    void settle() {
      CursorState& st = *st_;
      if (!st.pc.valid()) {
        st.valid = false;
        return;
      }
      const Ent& e = st.pc.item();
      if (st.bounded && st.hi < e.key) {
        st.valid = false;
        return;
      }
      st.cur = e;
      st.valid = true;
    }

    const CobTree* d_ = nullptr;
    std::unique_ptr<CursorState> own_;
    CursorState* st_ = nullptr;
  };

  /// Detached cursor (Dictionary concept).
  Cursor make_cursor() const { return Cursor(this); }

  /// Structural checks: PMA invariants, global order, index consistency.
  void check_invariants() const {
    pma_.check_invariants();
    // Entries ascend strictly.
    bool have_prev = false;
    K prev{};
    for (slot_t s = pma_.first(); s != npos; s = pma_.next(s)) {
      const K& k = pma_.at(s).key;
      if (have_prev && !(prev < k)) throw std::logic_error("cob: order violated");
      prev = k;
      have_prev = true;
    }
    // Index soundness: leaders never overstate a segment's first key (erases
    // may leave them understated, which searches tolerate), and the key
    // sequence stored in the index is non-decreasing.
    if (!pma_.empty()) {
      if (index_.size() != segments()) throw std::logic_error("cob: index size drift");
      const std::uint64_t ss = pma_.segment_slots();
      for (std::uint64_t g = 0; g < segments(); ++g) {
        if (g > 0 && index_.key_of_rank(g) < index_.key_of_rank(g - 1)) {
          throw std::logic_error("cob: index keys decrease");
        }
        for (std::uint64_t s = g * ss; s < (g + 1) * ss; ++s) {
          if (pma_.occupied(s)) {
            if (pma_.at(s).key < index_.key_of_rank(g)) {
              throw std::logic_error("cob: index leader overstates segment");
            }
            break;
          }
        }
      }
    }
  }

 private:
  std::uint64_t segments() const noexcept { return pma_.capacity() / pma_.segment_slots(); }

  /// Leaders for every segment; empty segments inherit the nearest leader to
  /// the left (or, for leading empties, the first real leader), keeping the
  /// sequence non-decreasing so BST search stays sound.
  std::vector<K> compute_leaders() const {
    const std::uint64_t segs = segments();
    const std::uint64_t ss = pma_.segment_slots();
    std::vector<K> leaders(segs);
    std::vector<bool> known(segs, false);
    for (std::uint64_t g = 0; g < segs; ++g) {
      for (std::uint64_t s = g * ss; s < (g + 1) * ss; ++s) {
        if (pma_.occupied(s)) {
          leaders[g] = pma_.at(s).key;
          known[g] = true;
          break;
        }
      }
    }
    // Fill empties: left-to-right inheritance, then leading empties from the
    // first known leader.
    K first_known{};
    bool have_first = false;
    for (std::uint64_t g = 0; g < segs; ++g) {
      if (known[g] && !have_first) {
        first_known = leaders[g];
        have_first = true;
      }
    }
    if (!have_first) return {};  // empty structure
    K prev = first_known;
    for (std::uint64_t g = 0; g < segs; ++g) {
      if (known[g]) {
        prev = leaders[g];
      } else {
        leaders[g] = prev;
      }
    }
    return leaders;
  }

  void rebuild_index() {
    index_.build(compute_leaders(), kIndexRegion);
    index_epoch_ = pma_.resize_epoch();
  }

  /// After a PMA mutation: rebuild on resize, otherwise patch the leaders of
  /// the segments the last rebalance touched.
  void sync_index() {
    if (pma_.resize_epoch() != index_epoch_ || index_.size() != segments()) {
      rebuild_index();
      return;
    }
    const auto [lo, hi] = pma_.last_rebalanced_range();
    const std::uint64_t ss = pma_.segment_slots();
    const std::uint64_t g_lo = lo / ss;
    const std::uint64_t g_hi = (hi + ss - 1) / ss;
    K prev{};
    bool have_prev = false;
    if (g_lo > 0) {
      prev = index_.key_of_rank(g_lo - 1);
      have_prev = true;
    }
    // Two passes as in compute_leaders, restricted to the window. Leading
    // empties with no left neighbor take the first known leader in-window;
    // if the whole window is empty the old keys are left untouched (they are
    // still non-decreasing and bound the window correctly).
    std::vector<K> fresh(g_hi - g_lo);
    std::vector<bool> known(g_hi - g_lo, false);
    for (std::uint64_t g = g_lo; g < g_hi; ++g) {
      for (std::uint64_t s = g * ss; s < (g + 1) * ss; ++s) {
        if (pma_.occupied(s)) {
          fresh[g - g_lo] = pma_.at(s).key;
          known[g - g_lo] = true;
          break;
        }
      }
    }
    if (!have_prev) {
      for (std::uint64_t i = 0; i < fresh.size(); ++i) {
        if (known[i]) {
          prev = fresh[i];
          have_prev = true;
          break;
        }
      }
      if (!have_prev) return;  // window (and prefix) fully empty
    }
    for (std::uint64_t i = 0; i < fresh.size(); ++i) {
      if (known[i]) {
        prev = fresh[i];
      } else {
        fresh[i] = prev;
      }
      index_.update_key(g_lo + i, fresh[i], pma_.mm());
    }
    // Right clamp: erases can leave leaders to the right of the window
    // understated below the freshly patched values, which would break the
    // BST's non-decreasing key order. Raise them to `prev` (still a lower
    // bound on their segments' first keys, since every key right of the
    // window exceeds every key inside it).
    for (std::uint64_t g = g_hi; g < segments(); ++g) {
      if (!(index_.key_of_rank(g) < prev)) break;
      index_.update_key(g, prev, pma_.mm());
    }
  }

  /// Slot of the largest key <= `key`, or npos. vEB descent plus a segment
  /// scan; empty segments fall back to pma_.prev().
  slot_t predecessor_slot(const K& key) const {
    if (pma_.empty() || index_.empty()) return npos;
    const std::int64_t seg = index_.predecessor_rank(key, pma_.mm());
    if (seg < 0) return npos;
    const std::uint64_t ss = pma_.segment_slots();
    const std::uint64_t base = static_cast<std::uint64_t>(seg) * ss;
    slot_t best = npos;
    for (std::uint64_t s = base; s < base + ss && s < pma_.capacity(); ++s) {
      if (!pma_.occupied(s)) continue;
      if (pma_.at(s).key <= key) {
        best = s;
      } else {
        break;
      }
    }
    if (best != npos) return best;
    // Segment empty or its first key exceeds `key` (possible when the leader
    // was inherited or went stale after an erase — leaders only ever
    // understate): walk back to the true predecessor.
    slot_t s = pma_.prev(base);
    while (s != npos && key < pma_.at(s).key) s = pma_.prev(s);
    return s;
  }

  mutable P pma_;
  mutable layout::VebStaticTree<K, MM> index_;
  std::uint64_t index_epoch_ = ~0ULL;
  // Dictionary-owned cursor scratch backing range_for_each/for_each.
  mutable CursorState scan_state_;
  // Snapshot cache: one materialized segment per mutation epoch (see
  // snapshot()).
  std::uint64_t mutation_epoch_ = 0;
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  std::vector<Ent> batch_scratch_, batch_sort_scratch_;  // insert_batch staging, reused
  std::vector<K> erase_scratch_;                         // erase_batch staging, reused
  std::vector<Op<K, V>> op_scratch_, op_sort_scratch_;   // apply_batch staging, reused
};

}  // namespace costream::cob
