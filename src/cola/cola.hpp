// Cache-oblivious lookahead array (COLA) — the paper's Section 3 and the
// implementation its Section 4 benchmarks (the "g-COLA" with growth factor g
// and pointer density p).
//
// Structure. Level 0 holds 1 element; level l > 0 holds up to
// 2(g-1)g^(l-1) real elements plus floor(2p(g-1)g^(l-1)) redundant elements
// (lookahead pointers sampling level l+1). Levels are stored contiguously
// and each level keeps its occupied slots right-justified (paper Section 4),
// which is what enables the "prepend" merge: when everything being merged
// into a level sorts before the level's current contents, the existing
// elements do not move — the mechanism behind Figure 5's descending-order
// advantage.
//
// Inserts. A level is full after it has received g-1 merges. An insert that
// cannot go straight into level 0 merges levels 0..t-1 plus the new element
// into the first non-full level t (one cascading pass: O(k) work and O(k/B)
// transfers for k items, Lemma 19 generalized to growth g as in the
// cache-aware tradeoff of Section 3). With g = 2 and p > 0 this is the COLA
// (O((log N)/B) amortized insert, O(log N) search, Lemmas 19-20); with p = 0
// it is the "basic COLA" (O(log^2 N) search); with g = Theta(B^eps) it
// matches the B^eps-tree bounds (see lookahead_array.hpp).
//
// Searches use fractional cascading: each level stores lookahead slots
// (key + slot index in the next level) interleaved in key order, and every
// slot knows the nearest lookahead slot at-or-left and at-or-right of it
// (the paper's "duplicate lookahead pointers" folded into the 32-byte
// element padding). A search therefore examines a constant-size window per
// level after the first.
//
// Semantics. insert() is an upsert (newest wins; older duplicates are
// discarded during merges). erase() is a blind tombstone — the paper treats
// deletes as tombstoned insertions riding the same cascade — annihilated
// when a merge reaches the deepest level. erase_batch()/apply_batch()
// extend the batch contract (api/dictionary.hpp) to deletes and mixed
// put/erase runs: one normalized run, one cascade, tombstones carried like
// insertions. Tiered levels additionally keep per-segment live/tombstone
// counts and bound retention via ColaConfig::tombstone_threshold: past the
// threshold the deepest level is folded in place (annihilating) and the
// trivial-move fast path is vetoed, so sustained erase-heavy feeds stay
// space-bounded.
//
// Staging L0 (extension). With staging_capacity > 0 the structure keeps an
// append arena in front of the levels: inserts, erases, and batches land in
// the arena in O(1) (batches are normalized on arrival, so the arena is a
// sequence of sorted runs) until it holds staging_capacity entries, at
// which point the runs are merged once (newest-wins) and carried down by
// ONE cascaded merge. This breaks the batch movement bound: a feed of
// batches of size k with an arena of g*k entries pays the deep-merge volume
// once per g batches instead of once per batch. Reads stay exact — find()
// binary-searches the arena's runs newest-first before the levels, and the
// ordered scans merge a sorted view of the arena as the newest source. The
// cost is the arena probes on a cold find, the classic write-optimization
// lever (cf. the g = Theta(B^eps) tradeoff).
//
// Tiered levels (extension, the ingest-tuned cascade core). The classic
// cascade rewrites a level's whole contents on every merge it receives, so
// a level is rewritten g-1 times before it drains and every element moves
// Theta(g) times per level — which is why large g LOSES ingest throughput
// in the classic geometry. With tiered = true each level instead holds up
// to g-1 independent sorted SEGMENTS: an arriving run is appended as a new
// segment (one sequential write, nothing rewritten), and only when a level
// is out of segments or space does a drain g-way-merge its segments into a
// single new segment one level down. Every element is then written O(1)
// times per level — O(log_g N) moves total instead of O(g log_g N) — at
// the price of searches probing up to g-1 segments per level (lookahead
// pointers assume globally sorted levels and are disabled in this mode).
// This is the LSM "size-tiered vs leveled" tradeoff inside the COLA
// geometry; ingest_tuned() presets select it.
//
// Read path (extensions). Every tiered segment and staging run carries
// min/max FENCE KEYS (O(1) to maintain on append): find() and cursor seeks
// skip sources whose range excludes the probe, which prunes most probes on
// range-disjoint (time-partitioned) feeds — the knob fence_keys gates only
// the read side, for ablations.
//
// Snapshots (the read contract since the snapshot redesign — see
// api/dictionary.hpp). Tiered segments are REF-COUNTED IMMUTABLE units
// (snap::Segment held by shared_ptr): a fold retires its sources by
// dropping the level's references, so any open snapshot keeps them alive
// until it closes — deferred free by refcount, no drain barrier.
// snapshot() stamps the current segment set plus one immutable segment per
// staging run (minted once, reused until the run is rewritten) at the
// current mutation epoch, cached per epoch so repeated acquisitions between
// mutations are refcount bumps. Classic (non-tiered) levels are rewritten
// in place by merges, so their snapshot is copy-on-snapshot: each level's
// real entries are copied into an immutable segment. All ordered reads —
// Cursor, range_for_each, for_each — run on snap::SnapshotCursor over a
// snapshot (one loser-tree code path, newest-wins dedup + tombstone
// suppression), so they stay valid across arbitrary mutations; find()
// keeps its dedicated live probe path (fences + per-level binary search)
// because point reads never straddle a mutation. DAM accounting for scans
// rides a MemHook installed on the structure's own cursors only; detached
// Snapshot handles are free of accounting state and safe to read from
// other threads. The classic copy-on-snapshot build charges its real IO
// (stream source slots, stream-write the copy) once per mutation epoch,
// and the copies live at allocated logical addresses so hooked per-probe
// reads keep counting.
//
// Retention (tiered). Tombstones are bounded by tombstone_threshold (PR 3)
// and shadowed LIVE duplicates — the churn failure mode — by
// staleness_threshold: each fold counts its distinct duplicated keys (free
// byproduct of the merge), credits them to per-segment staleness estimates
// of the data they shadow, and past the threshold the deepest level takes
// a forced FULL compaction (levels 0..d into one segment — cross-level
// duplicates die even at g = 2, where a level holds a single segment).
//
// One path per primitive, as in the paper, where every insert, batch, and
// tombstoned delete is one merge into the first level with room. Ingest:
// every mutator feeds ingest_run (sort in the caller's element form, then
// stage_append into the arena or cascade_run into the levels; put() is a
// one-element run). Fold: every tiered fold — cascade, forced retention,
// the checkpoint's compact — enters fold(), which gathers the inputs,
// decides the tombstone drop, and runs one compact::FoldJob (one kernel,
// one strip, one filter mint) either on the writer thread or on the
// compaction pool.
// Install: every fold output lands through install(), which mints the
// segment and reports it to the durable tier's FoldObserver.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "cola/compactor.hpp"
#include "cola/kernels.hpp"
#include "common/entry.hpp"
#include "common/filter.hpp"
#include "common/loser_tree.hpp"
#include "common/simd.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "dam/mem_model.hpp"

namespace costream::cola {

struct ColaConfig {
  unsigned growth = 2;          // g >= 2
  double pointer_density = 0.1; // p in [0, 0.5]; 0 disables lookahead pointers
  bool enable_prepend = true;   // right-justified "prepend" merge fast path
                                // (paper Section 4); off only for ablations
  std::size_t staging_capacity = 0;  // L0 staging arena entries; 0 disables
  bool tiered = false;  // segmented levels (append segments, merge on drain);
                        // disables lookahead pointers
  // Tiered mode only: bound on a level's tombstone fraction. Tombstones are
  // annihilated only by folds that land past all older data, so a sustained
  // erase-heavy feed would otherwise pile them up in bottom-level segments.
  // When the deepest level's tombstone mass crosses this fraction of its
  // occupancy, the trivial-move fast path is vetoed (forcing the next drain
  // to be a real, annihilating fold) and the deepest level is compacted in
  // place. Amortized cost: one level rewrite per threshold*|level| erasures,
  // i.e. O(1/(threshold*B)) extra transfers per erase (dam/bounds.hpp).
  // Values > 1.0 disable the forcing.
  double tombstone_threshold = 0.25;
  // Tiered mode only: bound on a level's ESTIMATED shadowed-live fraction —
  // the churn analogue of tombstone_threshold. A fixed-live-set churn feed
  // retains duplicate live copies in older bottom-level segments (they are
  // annihilated only by real folds, and the trivial-move fast path defers
  // those), so each cascade fold feeds its own observed key-reuse rate into
  // a per-segment staleness estimate; when the deepest level's estimated
  // stale mass crosses this fraction of its occupancy, the same forced
  // bottom fold fires. Zero extra I/O: the estimate reuses the duplicate
  // count the fold computes anyway. Values > 1.0 disable the forcing.
  double staleness_threshold = 0.5;
  // Per-segment (and per-staging-run) min/max fence keys: maintained on
  // every append/fold at O(1) cost, and used by find and Cursor::seek to
  // skip whole segments whose key range excludes the probe. The knob only
  // gates the READ-side use (fences are always maintained), so ablations
  // can isolate the search win.
  bool fence_keys = true;
  // Tiered mode only: mint a per-segment blocked Bloom filter at every
  // fold/flush (O(1)/element, ~10 bits/key — common/filter.hpp). Fences
  // prune nothing under uniform-random feeds (every segment spans the whole
  // keyspace); filters answer "definitely absent" for ~(1 - kDesignFpr) of
  // the segments a fence cannot rule out, collapsing cold-find probes from
  // `segs` to 1 + FPR*(segs-1). Off by default (space + mint cost);
  // ingest_tuned() turns it on.
  bool filters = false;
  // Use the SIMD kernel tier (common/simd.hpp, picked at runtime per CPU)
  // for unaccounted searches and for fold merges. Off forces the scalar
  // reference kernels — the ablation/differential-testing knob; the
  // COSTREAM_SIMD env var further clamps the whole process.
  bool simd = true;
  // Background compaction (tiered mode only): deep folds run on the
  // process-shared compaction pool (cola/compactor.hpp) instead of the
  // mutating thread — the writer snapshots the fold's input segment refs,
  // enqueues, and returns; the finished output installs at the writer's
  // next mutation, BELOW any segments that arrived at the target level
  // after the snapshot point (newest-first order is preserved). 0 keeps
  // every fold inline (the historical synchronous behavior). Active only
  // under the null memory model: the counting DAM models are stateful LRU
  // simulators whose transfer counts depend on touch ORDER and which are
  // not thread-safe, so accounted builds always fold inline — which is
  // exactly what makes modeled transfers bit-identical to the sync path.
  // The COSTREAM_COMPACTION=sync env var clamps the whole process inline.
  unsigned compaction_threads = 0;
  // Fault-injection knobs for the compaction oracle self-tests (never set
  // outside tests). unsafe_break_install_order appends a finished fold's
  // output ABOVE post-snapshot arrivals instead of below them — exactly
  // the install-ordering bug the differential fuzz oracle must catch.
  // unsafe_defer_install suppresses the opportunistic install at mutator
  // entry (folds install only on writer-assist or drain), maximizing the
  // window in which arrivals stack above an in-flight fold.
  bool unsafe_break_install_order = false;
  bool unsafe_defer_install = false;
};

/// Ingest-tuned preset: growth factor g, tiered (segmented) levels, and a
/// staging arena sized to absorb g batches of `batch_hint` entries before
/// the first cascaded merge. The deployment presets are g in {2, 4, 8, 16};
/// larger g means fewer levels and bulkier, rarer drains — each element is
/// moved O(log_g N) times — while searches pay up to g-1 segment probes per
/// level plus the arena probes.
inline ColaConfig ingest_tuned(unsigned g, std::size_t batch_hint = 1024) {
  ColaConfig cfg;
  cfg.growth = g;
  cfg.staging_capacity = static_cast<std::size_t>(g) * batch_hint;
  cfg.tiered = true;
  cfg.pointer_density = 0.0;  // lookahead pointers need globally sorted levels
  cfg.filters = true;  // uniform-random cold finds are the tiered weak spot
  return cfg;
}

struct ColaStats {
  std::uint64_t merges = 0;
  std::uint64_t batch_merges = 0;     // cascades triggered by insert_batch
  std::uint64_t prepend_merges = 0;   // merges that left the target in place
  std::uint64_t entries_merged = 0;   // real entries written by merges
  std::uint64_t tombstones_dropped = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t stage_flushes = 0;    // staging-arena drains (one cascade each)
  std::uint64_t stage_absorbed = 0;   // entries that landed in the arena
  std::uint64_t forced_bottom_folds = 0;  // tombstone/staleness compactions
  std::uint64_t staleness_folds = 0;  // forced folds triggered by staleness
  std::uint64_t fence_seg_skips = 0;  // segments skipped by fence keys (reads)
  std::uint64_t fence_run_skips = 0;  // staging runs skipped by fence keys
  std::uint64_t filter_seg_skips = 0; // segments skipped by Bloom filters
  std::uint64_t find_seg_probes = 0;  // segments actually binary-searched
};

/// Background-compaction observability (tiered mode with
/// ColaConfig::compaction_threads > 0). Returned by value as a coherent
/// photograph: the internals are relaxed atomics (bg_fold_ns is written by
/// pool workers; a sharded facade's test thread may read while the shard
/// worker mutates), same pattern as the sharded facade's stats.
struct CompactionStats {
  std::uint64_t folds_deferred = 0;  // folds enqueued to the process pool
  // Folds the pool was to run that the writer ran itself: a submit the
  // saturated queue refused, a pending job claimed back at a blocking
  // point (deeper cascade, retention, drain, checkpoint) before a worker
  // took it, and a failed pool run retried on the writer. A fold that
  // trips while another is pending runs inline without reaching the pool
  // and is not counted.
  std::uint64_t writer_assists = 0;
  std::uint64_t compaction_queue_peak = 0;  // this structure's high-water
                                            // pool queue depth at submit
  std::uint64_t bg_fold_ns = 0;  // total wall ns spent inside fold jobs
};

template <class K = Key, class V = Value, class MM = dam::null_mem_model>
class Gcola {
 public:
  static constexpr std::uint32_t kNoIdx = 0xffffffffu;

  explicit Gcola(ColaConfig cfg = ColaConfig{}, MM mm = MM{})
      : cfg_(cfg),
        isa_(cfg.simd ? simd::active_isa() : simd::Isa::kScalar),
        mm_(std::move(mm)) {
    if (cfg_.growth < 2) throw std::invalid_argument("cola: growth factor must be >= 2");
    if (cfg_.pointer_density < 0.0 || cfg_.pointer_density > 0.5) {
      throw std::invalid_argument("cola: pointer density must be in [0, 0.5]");
    }
    // Background folds only under the null memory model — the counting DAM
    // models are order-sensitive and single-threaded, so accounted builds
    // fold inline and stay transfer-identical to sync by construction.
    bg_enabled_ = cfg_.tiered && cfg_.compaction_threads > 0 &&
                  std::is_same_v<MM, dam::null_mem_model> &&
                  !compact::sync_forced();
    if (bg_enabled_) {
      compact::Pool::instance().ensure_threads(cfg_.compaction_threads);
    }
  }

  // -- observers --------------------------------------------------------------

  const ColaConfig& config() const noexcept { return cfg_; }
  const ColaStats& stats() const noexcept { return stats_; }
  MM& mm() noexcept { return mm_; }
  std::size_t level_count() const noexcept { return levels_.size(); }

  /// Atomic photograph of the background-compaction counters (safe to call
  /// from a thread other than the writer — the ShardedStats pattern).
  CompactionStats compaction_stats() const noexcept {
    CompactionStats s;
    if (cstats_ != nullptr) {
      s.folds_deferred = cstats_->folds_deferred.load(std::memory_order_relaxed);
      s.writer_assists = cstats_->writer_assists.load(std::memory_order_relaxed);
      s.compaction_queue_peak =
          cstats_->queue_peak.load(std::memory_order_relaxed);
      s.bg_fold_ns = cstats_->bg_fold_ns.load(std::memory_order_relaxed);
    }
    return s;
  }

  /// True while a background fold is in flight or awaiting install.
  bool compaction_pending() const noexcept { return pend_job_ != nullptr; }

  /// Complete and install any in-flight background fold (writer thread
  /// only, like every mutator). The quiesce point for checkpoints, shard
  /// drains, adoption, and tests that assert on settled structure.
  void drain_compaction() {
    land_pending(/*block=*/true);
  }

  /// Physical real entries (including not-yet-annihilated tombstones and
  /// entries still staged in the L0 arena). While a background fold is in
  /// flight its input mass counts pre-dedup — the fold has not run yet, so
  /// the duplicates it will collapse are still physically present.
  std::uint64_t item_count() const noexcept {
    std::uint64_t n = stage_.size();
    for (const Level& lv : levels_) n += lv.real_count;
    if (pend_job_) n += pend_job_->total;
    return n;
  }

  /// Entries currently held in the staging arena (tests/benches).
  std::size_t staged_count() const noexcept { return stage_.size(); }

  /// Sorted runs currently in the arena; O(log occupancy) under single-op
  /// feeds thanks to the binary-counter tail merge (tests).
  std::size_t stage_run_count() const noexcept { return stage_runs_.size(); }

  /// Real entries in one level (tests).
  std::uint64_t level_real_count(std::size_t l) const noexcept {
    return l < levels_.size() ? levels_[l].real_count : 0;
  }

  /// Not-yet-annihilated tombstones held in one level's segments (tiered
  /// mode; tests and the bounded-retention policy).
  std::uint64_t level_tombstone_count(std::size_t l) const noexcept {
    return l < levels_.size() ? levels_[l].tomb_count : 0;
  }

  /// Segments currently held by one tiered level (tests/benches: the
  /// denominator for fence-skip fractions).
  std::size_t level_segment_count(std::size_t l) const noexcept {
    return l < levels_.size() ? levels_[l].segs.size() : 0;
  }

  /// Estimated shadowed-live mass in one level (tiered mode; tests and the
  /// staleness-retention policy).
  std::uint64_t level_stale_count(std::size_t l) const noexcept {
    return l < levels_.size() ? levels_[l].stale_count : 0;
  }

  /// Bytes of slot storage across all levels plus the staging arena
  /// reservation (space accounting). Classic levels count their
  /// preallocated slot arrays, whatever their occupancy; tiered levels
  /// store compact items and count only their occupancy plus filters.
  std::uint64_t bytes() const noexcept {
    std::uint64_t b = cfg_.staging_capacity * sizeof(TItem);
    for (const Level& lv : levels_) {
      b += cfg_.tiered ? lv.real_count * sizeof(TItem) : lv.slots.size() * sizeof(Slot);
      for (const SegRef& seg : lv.segs) {
        b += seg->filter.size() * sizeof(std::uint64_t);
      }
    }
    return b;
  }

  /// Live Segment objects across the process (snapshot-churn leak tests).
  static std::int64_t live_segments() noexcept {
    return snap::live_segment_count().load(std::memory_order_relaxed);
  }

  std::optional<V> find(const K& key) const {
    // The staging arena is newer than every level; probe its sorted runs
    // newest-first so the latest staged copy (or tombstone) wins. Per-run
    // fence keys skip runs whose key range excludes the probe without
    // touching the run at all.
    for (std::size_t r = stage_runs_.size(); r-- > 0;) {
      if (cfg_.fence_keys &&
          (key < stage_run_min_[r] || stage_run_max_[r] < key)) {
        ++stats_.fence_run_skips;
        continue;
      }
      const std::uint32_t b = stage_runs_[r];
      const std::uint32_t e = stage_run_end(r);
      std::uint32_t lo;
      if constexpr (std::is_same_v<MM, dam::null_mem_model>) {
        // No accounting to preserve: the branchless kernel searches the
        // contiguous key plane directly.
        lo = b + static_cast<std::uint32_t>(
                     simd::lower_bound_keys(stage_.keys.data() + b, e - b, key, isa_));
      } else {
        std::uint32_t hi = e;
        lo = b;
        while (lo < hi) {  // manual binary search so every probe is accounted
          const std::uint32_t mid = lo + (hi - lo) / 2;
          mm_.touch(stage_base_ + static_cast<std::uint64_t>(mid) * sizeof(TItem),
                    sizeof(TItem));
          if (stage_.keys[mid] < key) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
      }
      if (lo < e && stage_.keys[lo] == key) {
        if ((stage_.flags[lo] & kFlagTombstone) != 0) return std::nullopt;
        return stage_.vals[lo];
      }
    }
    if (cfg_.tiered) return find_tiered(key);
    // Window into the level being examined; kNoIdx means "whole level".
    std::uint32_t wlo = kNoIdx, whi = kNoIdx;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const Level& lv = levels_[l];
      if (lv.occ_begin == lv.slots.size()) {  // empty level: reset the window
        wlo = whi = kNoIdx;
        continue;
      }
      const std::uint32_t S = lv.occ_begin;
      const std::uint32_t E = static_cast<std::uint32_t>(lv.slots.size());
      std::uint32_t lo = wlo == kNoIdx ? S : std::max(wlo, S);
      std::uint32_t hi = whi == kNoIdx ? E : std::min(whi, E);

      // First index in [lo, hi) with slot key > key.
      std::uint32_t idx = level_upper_bound(l, lo, hi, key);

      if (idx > lo) {
        const Slot& pred = lv.slots[idx - 1];
        touch_slot(l, idx - 1);
        if (!pred.is_lookahead() && pred.key == key) {
          if (pred.is_tombstone()) return std::nullopt;
          return pred.value;
        }
      }
      next_window(l, idx, lo, &wlo, &whi);
    }
    return std::nullopt;
  }

  /// Point-in-time snapshot (contract in api/dictionary.hpp) and the one
  /// freeze path: ordered reads, cursor seeks, and the sharded facade's
  /// per-job view publish (the shard worker calls it) all come through here. Stamped
  /// at the current mutation epoch and cached per epoch, so repeated
  /// acquisitions between mutations are refcount bumps. A mutated epoch
  /// costs O(appended data) plus segment-handle copies: every staging run
  /// is already sorted and deduplicated, so each run is its own immutable
  /// segment, minted lazily once (with a Bloom filter when cfg.filters is
  /// on, like fold outputs) and reused across epochs until the
  /// binary-counter tail merge or a flush rewrites it (stage_run_segs_).
  /// Tiered levels are pinned by refcount; classic levels are rewritten in
  /// place by merges, so they are copy-on-snapshot. Segments land
  /// newest-first: staging runs newest run first, then levels shallow to
  /// deep. The returned handle stays exactly as stamped across arbitrary
  /// later mutations and is safe to read from other threads.
  snap::Snapshot<K, V> snapshot() const {
    if (snap_cache_ && snap_epoch_ == mutation_epoch_) return snap_cache_;
    auto data = std::make_shared<snap::SnapshotData<K, V>>();
    data->epoch = mutation_epoch_;
    data->fence_keys = cfg_.fence_keys;
    // Staging runs are the NEWEST sources (tombstones kept — they must
    // shadow deeper copies; the readers suppress them). Each run segment
    // keeps its slice of the arena's logical address range, so hooked
    // reads charge the (cache-hot) arena region. Minting is an in-memory
    // mirror, not structural IO: it charges nothing to the DAM model.
    for (std::size_t r = stage_runs_.size(); r-- > 0;) {
      if (!stage_run_segs_[r]) {
        const std::uint32_t b = stage_runs_[r];
        const std::uint32_t e = stage_run_end(r);
        stage_run_segs_[r] = snap::make_segment(
            std::vector<K>(stage_.keys.begin() + b, stage_.keys.begin() + e),
            std::vector<V>(stage_.vals.begin() + b, stage_.vals.begin() + e),
            std::vector<std::uint8_t>(stage_.flags.begin() + b,
                                      stage_.flags.begin() + e),
            /*id=*/0,
            stage_base_ + static_cast<std::uint64_t>(b) * sizeof(TItem),
            mutation_epoch_, cfg_.filters);
      }
      data->segs.push_back(stage_run_segs_[r]);
    }
    if (cfg_.tiered) {
      // Levels shallow -> deep, segments newest -> oldest: exactly the
      // loser tree's priority order. Pinning is a shared_ptr copy. An
      // in-flight background fold's inputs interleave at its install level
      // in recency order (push_level_segs).
      for (std::size_t l = 0; l < levels_.size(); ++l) {
        push_level_segs(l, data->segs);
      }
    } else {
      // Classic levels are rewritten in place by merges: copy-on-snapshot.
      // Each level is one sorted run of unique real keys, shallower =
      // newer, so per-level segments slot straight into priority order.
      // The build is real IO the structure performs — stream-read the
      // occupied slots and stream-write the copy into a freshly allocated
      // logical region — charged once per mutation epoch (the cache above);
      // hooked cursor reads then charge the copy's region per probe.
      for (std::size_t l = 0; l < levels_.size(); ++l) {
        if (levels_[l].real_count == 0) continue;
        extract_level_planes(l, snap_level_copy_);
        const std::uint64_t base = next_base_;
        next_base_ += snap_level_copy_.size() * sizeof(TItem);
        if (snap::SegmentRef<K, V> seg = snap::make_segment(
                std::move(snap_level_copy_.keys),
                std::move(snap_level_copy_.vals),
                std::move(snap_level_copy_.flags), /*id=*/0, base,
                mutation_epoch_)) {
          mm_.touch_write(base, seg->size() * sizeof(TItem));
          data->segs.push_back(std::move(seg));
        }
        snap_level_copy_.clear();
      }
    }
    snap_cache_ = snap::Snapshot<K, V>(std::move(data));
    snap_epoch_ = mutation_epoch_;
    return snap_cache_;
  }

  /// Visit live entries with lo_key <= key <= hi_key ascending; newest value
  /// wins, tombstoned keys are skipped. One code path with the cursor API:
  /// a bounded seek over a one-shot internal snapshot on the
  /// dictionary-owned scratch cursor, allocation-free in steady state (the
  /// snapshot is cached per mutation epoch).
  template <class Fn>
  void range_for_each(const K& lo_key, const K& hi_key, Fn&& fn) const {
    if (hi_key < lo_key) return;
    scan_cur_.attach(snapshot().data());
    scan_cur_.set_mem_hook(read_hook());
    for (scan_cur_.seek(lo_key, hi_key); scan_cur_.valid(); scan_cur_.next()) {
      const Entry<K, V>& e = scan_cur_.entry();
      fn(e.key, e.value);
    }
  }

  /// Visit every live entry ascending. A dedicated unbounded scan, not a
  /// range query with sentinel bounds: std::numeric_limits<K>::min() is the
  /// smallest POSITIVE value for floating-point K and a default-constructed
  /// object for composite keys, either of which would silently drop entries.
  template <class Fn>
  void for_each(Fn&& fn) const {
    scan_cur_.attach(snapshot().data());
    scan_cur_.set_mem_hook(read_hook());
    for (scan_cur_.seek_first(); scan_cur_.valid(); scan_cur_.next()) {
      const Entry<K, V>& e = scan_cur_.entry();
      fn(e.key, e.value);
    }
  }

  // -- mutators ---------------------------------------------------------------

  void insert(const K& key, const V& value) { put(key, value, /*tombstone=*/false); }

  /// Blind delete (tombstone); O((log N)/B) amortized like insert.
  void erase(const K& key) { put(key, V{}, /*tombstone=*/true); }

  /// Bulk upsert (batch contract in api/dictionary.hpp): sort + dedup the
  /// run once, then execute ONE cascaded merge that carries the whole run
  /// into the shallowest level with room, instead of n independent cascades.
  /// A batch of n costs O((n + d)/B) transfers, d = displaced items — the
  /// bulk movement across block boundaries the paper's analysis is built on.
  /// The run sorts in Entry form, half the bytes of a Slot (ingest_run).
  void insert_batch(Span<Entry<K, V>> batch) {
    entry_batch_.assign(batch.data(), batch.data() + batch.size());
    ingest_run(entry_batch_, entry_batch_scratch_, batch.size());
  }

  /// Blind bulk delete (batch contract in api/dictionary.hpp): equivalent
  /// to calling erase(keys[i]) for i = 0..n-1 in order, at batch cost — the
  /// tombstones are normalized into ONE sorted run (duplicate keys collapse
  /// to a single tombstone) and ride the same staging-arena / cascade path
  /// as insert_batch. Annihilation happens where it always does: folds past
  /// all older data strip matched and unmatched tombstones alike, and the
  /// tombstone-pressure policy bounds how long they may linger (see
  /// ColaConfig::tombstone_threshold).
  void erase_batch(Span<K> keys) {
    titem_batch_.clear();
    titem_batch_.reserve(keys.size());
    for (const K& k : keys) titem_batch_.push_back(TItem{k, V{}, kFlagTombstone});
    ingest_run(titem_batch_, titem_batch_scratch_, keys.size());
  }

  /// Mixed put/erase batch (batch contract in api/dictionary.hpp): the LAST
  /// operation on a key within the batch wins — put-vs-erase included — and
  /// the whole batch is newer than everything already present. Identical in
  /// effect to replaying the ops with insert()/erase() one at a time, in one
  /// normalized run and one cascade.
  void apply_batch(Span<Op<K, V>> ops) {
    titem_batch_.clear();
    titem_batch_.reserve(ops.size());
    for (const Op<K, V>& op : ops) {
      titem_batch_.push_back(TItem{op.key, op.value, op.erase ? kFlagTombstone : 0u});
    }
    ingest_run(titem_batch_, titem_batch_scratch_, ops.size());
  }

  /// Drain the staging arena into the levels (normally automatic when the
  /// arena fills; public so tests and checkpointing can force a flush).
  void flush_stage() {
    if (stage_.empty()) return;
    ++mutation_epoch_;
    land_pending(/*block=*/false);
    ensure_level(0);
    ++stats_.stage_flushes;
    ++stats_.batch_merges;
    mm_.touch(stage_base_, stage_.size() * sizeof(TItem));
    if (cfg_.tiered) {
      // Fused flush: the arena's sorted runs feed the cascade's collapse
      // directly as spans (oldest first) — no separate normalization pass.
      incoming_spans_.clear();
      for (std::size_t r = 0; r < stage_runs_.size(); ++r) {
        incoming_spans_.push_back(stage_.subview(stage_runs_[r], stage_run_end(r)));
      }
      cascade_run_tiered(stage_.size());
    } else {
      const std::size_t before = stage_.size();
      normalize_stage();
      stats_.duplicates_dropped += before - stage_.size();
      // The classic cascade consumes plane form directly — no Slot
      // widening pass between the arena and the per-level merges.
      cls_acc_.assign(stage_.view());
      cascade_run_planes();
    }
    stage_.clear();
    stage_runs_.clear();
    stage_run_min_.clear();
    stage_run_max_.clear();
    stage_run_segs_.clear();
  }

  // -- durable-tier hooks -----------------------------------------------------

  /// Observer of tiered folds landing at or past the spill depth: the
  /// durable tier implements this to write each such segment to storage
  /// and retire the spill files of the segments the fold consumed.
  ///
  /// Fired from inside a cascade, AFTER the in-memory structure is
  /// consistent. Implementations MUST NOT throw (a throw here would
  /// unwind through the middle of a fold; record the failure and surface
  /// it from your own API instead) and must not call back into the Gcola.
  /// `seg` is the installed immutable segment — keys ascending, tombstones
  /// flagged, `seg->id` its stable identity — or nullptr for a fold whose
  /// output annihilated to nothing (reported only when it consumed
  /// something). `consumed` lists the ids of previously-reported segments
  /// this fold destroyed.
  class FoldObserver {
   public:
    virtual ~FoldObserver() = default;
    virtual void on_segment_spill(std::size_t level, const snap::Segment<K, V>* seg,
                                  const std::uint64_t* consumed,
                                  std::size_t n_consumed) = 0;
  };

  /// Attach (or detach, with nullptr) the spill observer. Folds landing in
  /// level >= spill_depth report; shallower folds stay memory-only. Tiered
  /// mode only.
  void set_fold_observer(FoldObserver* obs, std::size_t spill_depth) {
    fold_observer_ = obs;
    spill_depth_ = spill_depth;
  }

  /// Segment-id counter: the id the next fold output gets. adopt() moves it
  /// past every adopted id and never rewinds it — a rewind would mint
  /// duplicate ids, and a duplicate reported as consumed retires an
  /// unrelated live on-disk segment.
  std::uint64_t next_seg_id() const noexcept { return next_seg_id_; }

  /// Adopt an immutable sorted run — keys strictly ascending, tombstones
  /// flagged — as one segment under `id`, OLDER than everything the
  /// structure holds: the durable tier's reopen, which walks its manifest
  /// newest first. The segment lands at the shallowest level at or past
  /// max(`min_level`, the deepest level holding data) that has fewer than
  /// g-1 segments and room for it, spliced in as that level's oldest, so
  /// nothing is copied or merged, content-age order holds, and the
  /// geometry's invariants hold whatever level the run was written at (or
  /// whatever growth factor it was written under). Its filter and fences
  /// are minted here; the id counter moves past `id`. Reports nothing to
  /// the fold observer: no fold happened. Tiered mode only.
  void adopt(std::vector<K>&& keys, std::vector<V>&& vals,
             std::vector<std::uint8_t>&& flags, std::uint64_t id,
             std::size_t min_level) {
    if (!cfg_.tiered) throw std::logic_error("cola: adopt needs tiered levels");
    if (keys.empty()) return;
    drain_compaction();
    ++mutation_epoch_;
    std::size_t l = std::max(min_level, deepest_nonempty());
    for (;; ++l) {
      ensure_level(l);
      if (levels_[l].segs.size() + 1 < cfg_.growth &&
          levels_[l].real_count + keys.size() <= real_cap(l)) {
        break;
      }
    }
    const std::uint64_t base = next_base_;
    next_base_ += keys.size() * sizeof(TItem);
    next_seg_id_ = std::max(next_seg_id_, id + 1);
    SegRef seg = snap::make_segment(std::move(keys), std::move(vals), std::move(flags),
                                    id, base, mutation_epoch_, cfg_.filters);
    mm_.touch_write(base, seg->size() * sizeof(TItem));
    splice_segment(l, 0, std::move(seg));
  }

  /// Settle everything at `min_target` or deeper — the checkpoint
  /// primitive. The staging arena is flushed and any background fold
  /// lands first. With `full`, EVERYTHING then folds into one stripped
  /// segment placed no shallower than `min_target`: every tombstone and
  /// shadowed duplicate dies. Without it, only the levels shallower than
  /// `min_target` move, by one inline cascade into the first level at or
  /// past `min_target` with room — exactly the cascade an arriving run of
  /// their mass would take, trivial move included — and deeper segments
  /// the cascade does not reach stay as they are. With an observer
  /// attached at spill_depth <= min_target the fold's output (or its
  /// empty-output report) reaches storage like any spill. No fold is
  /// pending on return; an empty dictionary folds and reports nothing.
  /// Tiered mode only.
  void compact(std::size_t min_target, bool full) {
    drain_compaction();
    flush_stage();
    drain_compaction();  // the flush itself may have deferred a fold
    ++mutation_epoch_;
    if (item_count() == 0) return;
    if (full) {
      ++stats_.merges;
      fold(min_target, /*full=*/true, /*may_defer=*/false);
      return;
    }
    std::uint64_t shallow = 0;
    for (std::size_t l = 0; l < min_target && l < levels_.size(); ++l) {
      shallow += levels_[l].real_count;
    }
    if (shallow == 0) return;
    incoming_spans_.clear();  // the cascade carries no incoming run
    cascade_run_tiered(/*incoming=*/0, min_target, /*may_defer=*/false);
    drain_compaction();  // a retention fold it set off may be deferred
  }

  /// Visit every installed tiered segment as fn(level, segment) in
  /// content-age order, oldest first: deepest level first and, within a
  /// level, oldest segment first — the order a durable manifest lists (and
  /// reopen adopts in reverse). A pending background fold's inputs are not
  /// visited (drain_compaction() first for the whole set). Read-only.
  template <class Fn>
  void for_each_segment(Fn&& fn) const {
    for (std::size_t l = levels_.size(); l-- > 0;) {
      for (const SegRef& seg : levels_[l].segs) fn(l, *seg);
    }
  }

  // -- verification -----------------------------------------------------------

  /// Structural invariants; throws std::logic_error on violation. O(total).
  void check_invariants() const {
    if (cfg_.staging_capacity == 0 && !stage_.empty()) {
      throw std::logic_error("cola: staging disabled but arena nonempty");
    }
    if (cfg_.staging_capacity > 0 && stage_.size() >= cfg_.staging_capacity) {
      throw std::logic_error("cola: staging arena overfull (missed flush)");
    }
    if (cfg_.staging_capacity > 0) {
      if (stage_runs_.size() > stage_.size() ||
          (!stage_.empty() && (stage_runs_.empty() || stage_runs_.front() != 0))) {
        throw std::logic_error("cola: staging run boundaries inconsistent");
      }
      if (stage_run_min_.size() != stage_runs_.size() ||
          stage_run_max_.size() != stage_runs_.size()) {
        throw std::logic_error("cola: staging run fences out of step");
      }
      if (stage_run_segs_.size() != stage_runs_.size()) {
        throw std::logic_error("cola: staging run mirrors out of step");
      }
      for (std::size_t r = 0; r < stage_runs_.size(); ++r) {
        const std::uint32_t b = stage_runs_[r];
        const std::uint32_t e = stage_run_end(r);
        if (b >= e) throw std::logic_error("cola: empty staging run");
        if (stage_run_segs_[r] != nullptr &&
            (stage_run_segs_[r]->size() != e - b ||
             stage_run_segs_[r]->keys.front() < stage_.keys[b] ||
             stage_.keys[b] < stage_run_segs_[r]->keys.front())) {
          throw std::logic_error("cola: staging run mirror stale");
        }
        for (std::uint32_t i = b + 1; i < e; ++i) {
          if (!(stage_.keys[i - 1] < stage_.keys[i])) {
            throw std::logic_error("cola: staging run unsorted");
          }
        }
        if (stage_run_min_[r] < stage_.keys[b] ||
            stage_.keys[b] < stage_run_min_[r] ||
            stage_run_max_[r] < stage_.keys[e - 1] ||
            stage_.keys[e - 1] < stage_run_max_[r]) {
          throw std::logic_error("cola: staging run fence drift");
        }
      }
    }
    if (cfg_.tiered) {
      check_invariants_tiered();
      return;
    }
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const Level& lv = levels_[l];
      if (lv.slots.size() != real_cap(l) + la_cap(l)) {
        throw std::logic_error("cola: level array size mismatch");
      }
      if (lv.fills >= cfg_.growth) throw std::logic_error("cola: fills out of range");
      std::uint64_t reals = 0, las = 0;
      std::uint32_t last_la = kNoIdx;
      for (std::uint32_t i = lv.occ_begin; i < lv.slots.size(); ++i) {
        const Slot& s = lv.slots[i];
        if (i > lv.occ_begin) {
          const Slot& p = lv.slots[i - 1];
          if (s.key < p.key) throw std::logic_error("cola: level unsorted");
          // Equal keys: any lookahead slots (there may be two — the next
          // level can hold both a real and a lookahead with that key) must
          // precede the single real slot, i.e. nothing follows a real.
          if (s.key == p.key && !p.is_lookahead()) {
            throw std::logic_error("cola: bad duplicate ordering in level");
          }
        }
        if (s.is_lookahead()) {
          ++las;
          last_la = i;
          if (l + 1 >= levels_.size()) throw std::logic_error("cola: lookahead at last level");
          const Level& nxt = levels_[l + 1];
          const std::uint32_t tgt = s.target;
          if (tgt < nxt.occ_begin || tgt >= nxt.slots.size()) {
            throw std::logic_error("cola: lookahead target out of range");
          }
          if (nxt.slots[tgt].key != s.key) {
            throw std::logic_error("cola: lookahead key mismatch");
          }
        } else {
          ++reals;
        }
        if (s.left_la != last_la) throw std::logic_error("cola: left_la wrong");
      }
      // Validate right_la with a reverse sweep.
      std::uint32_t next_la = kNoIdx;
      for (std::uint32_t i = static_cast<std::uint32_t>(lv.slots.size()); i-- > lv.occ_begin;) {
        const Slot& s = lv.slots[i];
        if (s.is_lookahead()) next_la = i;
        if (s.right_la != next_la) throw std::logic_error("cola: right_la wrong");
      }
      if (reals != lv.real_count) throw std::logic_error("cola: real count drift");
      if (reals > real_cap(l)) throw std::logic_error("cola: level overfull");
      if (las > la_cap(l)) throw std::logic_error("cola: too many lookahead slots");
      // Real keys are unique within a level.
      for (std::uint32_t i = lv.occ_begin; i + 1 < lv.slots.size(); ++i) {
        if (!lv.slots[i].is_lookahead() && !lv.slots[i + 1].is_lookahead() &&
            lv.slots[i].key == lv.slots[i + 1].key) {
          throw std::logic_error("cola: duplicate real key in level");
        }
      }
    }
  }

 private:
  enum : std::uint32_t { kFlagLookahead = 1u, kFlagTombstone = 2u };
  // install() position: land the segment as its level's newest.
  static constexpr std::size_t kAppend = std::numeric_limits<std::size_t>::max();

  /// Tiered-mode invariants: ref-counted segments each nonempty, sorted
  /// with unique keys, fences and tombstone counts consistent with their
  /// contents, no classic storage, counts consistent.
  void check_invariants_tiered() const {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const Level& lv = levels_[l];
      if (!lv.slots.empty()) {
        throw std::logic_error("cola: classic storage used in tiered mode");
      }
      if (lv.segs.size() > cfg_.growth - 1) {
        throw std::logic_error("cola: too many segments in level");
      }
      if (lv.seg_stale.size() != lv.segs.size()) {
        throw std::logic_error("cola: segment metadata out of step");
      }
      std::uint64_t items_total = 0, tombs_total = 0, stale_total = 0;
      for (std::size_t j = 0; j < lv.segs.size(); ++j) {
        if (lv.segs[j] == nullptr) {
          throw std::logic_error("cola: null segment reference");
        }
        const Seg& seg = *lv.segs[j];
        if (seg.size() == 0) throw std::logic_error("cola: empty segment");
        if (seg.vals.size() != seg.size() || seg.flags.size() != seg.size()) {
          throw std::logic_error("cola: segment planes out of step");
        }
        std::uint32_t tombs = 0;
        for (std::size_t i = 0; i < seg.size(); ++i) {
          if (i > 0 && !(seg.keys[i - 1] < seg.keys[i])) {
            throw std::logic_error("cola: segment unsorted");
          }
          tombs += seg.is_tombstone(i) ? 1u : 0u;
        }
        if (tombs != seg.tombs) {
          throw std::logic_error("cola: segment tombstone count drift");
        }
        if (seg.min_key < seg.keys.front() || seg.keys.front() < seg.min_key ||
            seg.max_key < seg.keys.back() || seg.keys.back() < seg.max_key) {
          throw std::logic_error("cola: segment fence keys drift");
        }
        if (lv.seg_stale[j] > seg.size()) {
          throw std::logic_error("cola: segment stale estimate exceeds size");
        }
        if (!seg.filter.empty()) {
          // Filters are advisory on the read path ONLY because this holds:
          // a present key always passes its own segment's filter.
          if (seg.filter.size() != filt::filter_words_for(seg.size())) {
            throw std::logic_error("cola: segment filter missized");
          }
          for (std::size_t i = 0; i < seg.size(); ++i) {
            if (!filt::filter_may_contain(seg.filter.data(), seg.filter.size(),
                                          filt::key_hash(seg.keys[i]))) {
              throw std::logic_error("cola: segment filter false negative");
            }
          }
        }
        items_total += seg.size();
        tombs_total += tombs;
        stale_total += lv.seg_stale[j];
      }
      if (items_total > real_cap(l)) {
        throw std::logic_error("cola: tiered level overfull");
      }
      if (items_total != lv.real_count) {
        throw std::logic_error("cola: tiered count drift");
      }
      if (tombs_total != lv.tomb_count) {
        throw std::logic_error("cola: level tombstone count drift");
      }
      if (stale_total != lv.stale_count) {
        throw std::logic_error("cola: level stale count drift");
      }
    }
    if (pend_job_) {
      if (pend_target_ >= levels_.size()) {
        throw std::logic_error("cola: pending fold targets missing level");
      }
      if (pend_prior_segs_ > levels_[pend_target_].segs.size()) {
        throw std::logic_error("cola: pending install point out of range");
      }
      std::uint64_t in_total = 0;
      for (const SegRef& s : pend_job_->inputs) {
        if (s == nullptr || s->size() == 0) {
          throw std::logic_error("cola: pending fold input invalid");
        }
        in_total += s->size();
      }
      if (in_total != pend_job_->total) {
        throw std::logic_error("cola: pending fold mass drift");
      }
    }
  }

  struct Slot {
    K key{};
    V value{};
    std::uint32_t left_la = kNoIdx;   // nearest lookahead slot at-or-left
    std::uint32_t right_la = kNoIdx;  // nearest lookahead slot at-or-right
    std::uint32_t flags = 0;
    std::uint32_t target = kNoIdx;    // lookahead slots: slot index in next level

    bool is_lookahead() const noexcept { return (flags & kFlagLookahead) != 0; }
    bool is_tombstone() const noexcept { return (flags & kFlagTombstone) != 0; }
  };

  /// Compact element for the tiered path (staging arena + segments): a
  /// Slot without the lookahead bookkeeping — 24 bytes against 32. Every
  /// tiered merge pass is memory- and copy-bound, so the narrower element
  /// is a flat ~25% cut on the whole ingest hot path. The shared
  /// snap::Item so snapshot segments hold the structure's native element.
  using TItem = snap::Item<K, V>;
  using Seg = snap::Segment<K, V>;
  using SegRef = snap::SegmentRef<K, V>;

  struct Level {
    std::vector<Slot> slots;      // physical array; occupied = [occ_begin, size)
    std::uint32_t occ_begin = 0;  // == slots.size() when empty
    std::uint32_t fills = 0;      // merges received since last emptied
    std::uint64_t real_count = 0;
    std::uint64_t base_offset = 0;  // logical address of slots[0]
    // Tiered mode only (`slots` stays empty): the level's sorted segments,
    // oldest first — the LAST segment is the newest. Each segment is a
    // ref-counted IMMUTABLE unit (snap::Segment: items, fence keys,
    // tombstone count, stable id, logical base address) shared with every
    // open snapshot; a fold retires its sources by dropping these
    // references, and the segments are freed when the last snapshot
    // pinning them closes. real_count is the level's total item count
    // (sum of segment sizes), tomb_count the level-wide tombstone total —
    // maintained by every fold so the bounded-retention policy reads
    // pressure in O(1).
    std::vector<SegRef> segs;
    std::uint64_t tomb_count = 0;
    // Tiered mode: estimated count of each segment's entries shadowed by
    // newer data (parallel to segs; stale_count is the level total). Lives
    // OUTSIDE the immutable segments — it is mutable bookkeeping fed by
    // the fold's own duplicate statistics, never by extra probes, and a
    // snapshot must not see it change.
    std::vector<std::uint32_t> seg_stale;
    std::uint64_t stale_count = 0;
  };

  /// Mint a fresh immutable segment owning the key/value/flag planes:
  /// stable id, a logical address region for DAM accounting (still charged
  /// per logical ELEMENT — sizeof(TItem) — so the transfer model is
  /// layout-independent), the current mutation epoch, and a Bloom filter
  /// when configured (fold/flush is the one place filters are minted;
  /// O(1)/element, amortized into the fold that writes the data anyway).
  SegRef new_segment(std::vector<K>&& keys, std::vector<V>&& vals,
                     std::vector<std::uint8_t>&& flags) {
    const std::uint64_t base = next_base_;
    next_base_ += keys.size() * sizeof(TItem);
    return snap::make_segment(std::move(keys), std::move(vals),
                              std::move(flags), next_seg_id_++, base,
                              mutation_epoch_, cfg_.filters);
  }

  // -- geometry ---------------------------------------------------------------

  /// Saturates at the largest std::uint64_t: a level that deep never fills
  /// (adopt() can be asked for one by a recorded level from another
  /// geometry).
  std::uint64_t real_cap(std::size_t l) const noexcept {
    if (l == 0) return 1;
    const std::uint64_t most = std::numeric_limits<std::uint64_t>::max() / cfg_.growth;
    std::uint64_t c = 2 * (cfg_.growth - 1);
    for (std::size_t i = 1; i < l; ++i) {
      if (c > most) return std::numeric_limits<std::uint64_t>::max();
      c *= cfg_.growth;
    }
    return c;
  }

  // Paper Section 4: level l carries floor(2p(g-1)g^(l-1)) redundant
  // elements, which equals floor(p * real_cap(l)). Tiered levels are not
  // globally sorted, so they carry no lookahead slots.
  std::uint64_t la_cap(std::size_t l) const noexcept {
    if (cfg_.tiered) return 0;
    return static_cast<std::uint64_t>(cfg_.pointer_density *
                                      static_cast<double>(real_cap(l)));
  }

  void ensure_level(std::size_t l) {
    while (levels_.size() <= l) {
      const std::size_t i = levels_.size();
      Level lv;
      if (!cfg_.tiered) {
        lv.slots.assign(real_cap(i) + la_cap(i), Slot{});
      }
      lv.occ_begin = static_cast<std::uint32_t>(lv.slots.size());
      lv.base_offset = next_base_;
      next_base_ += (real_cap(i) + la_cap(i)) * sizeof(Slot);
      levels_.push_back(std::move(lv));
    }
  }

  bool level_full(std::size_t l) const noexcept {
    if (l >= levels_.size()) return false;
    if (l == 0) return levels_[0].real_count >= 1;
    if (cfg_.tiered) return levels_[l].segs.size() >= cfg_.growth - 1;
    return levels_[l].fills >= cfg_.growth - 1;
  }

  // -- DAM accounting ---------------------------------------------------------

  void touch_slot(std::size_t l, std::uint32_t i) const {
    mm_.touch(levels_[l].base_offset + static_cast<std::uint64_t>(i) * sizeof(Slot),
              sizeof(Slot));
  }

  void touch_region(std::size_t l, std::uint32_t i, std::uint64_t n, bool write) const {
    if (n == 0) return;
    const std::uint64_t off =
        levels_[l].base_offset + static_cast<std::uint64_t>(i) * sizeof(Slot);
    if (write) {
      mm_.touch_write(off, n * sizeof(Slot));
    } else {
      mm_.touch(off, n * sizeof(Slot));
    }
  }

  // -- search helpers ---------------------------------------------------------

  std::uint32_t level_upper_bound(std::size_t l, std::uint32_t lo, std::uint32_t hi,
                                  const K& key) const {
    const Level& lv = levels_[l];
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      touch_slot(l, mid);
      if (key < lv.slots[mid].key) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  /// Derive the next level's window from position `idx` (first slot with key
  /// greater than the probe) and the predecessor at idx-1 (if >= lo).
  void next_window(std::size_t l, std::uint32_t idx, std::uint32_t lo,
                   std::uint32_t* wlo, std::uint32_t* whi) const {
    const Level& lv = levels_[l];
    const std::uint32_t E = static_cast<std::uint32_t>(lv.slots.size());
    *wlo = *whi = kNoIdx;
    if (idx > lo) {
      const std::uint32_t la = lv.slots[idx - 1].left_la;
      if (la != kNoIdx) *wlo = lv.slots[la].target;
    }
    if (idx < E) {
      const std::uint32_t ra = lv.slots[idx].right_la;
      if (ra != kNoIdx) *whi = lv.slots[ra].target;
    }
  }

  /// Tiered find: binary-search each level's segments newest-first (the
  /// last segment is the newest); the first hit wins. Per-segment fence
  /// keys skip segments whose [min, max] range excludes the probe — for
  /// time-partitioned or otherwise range-disjoint feeds this prunes most of
  /// the up-to-(g-1)-segments-per-level probe cost the tiered geometry
  /// otherwise pays (dam/bounds.hpp: cola_fence_search_transfer_bound).
  /// Serial newest-first probe of one tiered level. Returns true when the
  /// level resolves the key (live hit or tombstone), leaving the answer in
  /// `result`; accounted builds charge each binary-search step to mm_.
  bool find_in_level(const Level& lv, const K& key, std::uint64_t h,
                     std::optional<V>& result) const {
    return find_in_segs(lv.segs.data(), lv.segs.size(), key, h, result);
  }

  /// Core of find_in_level over a raw segment array (segments ordered
  /// oldest -> newest, probed newest-first) — shared with the pending-fold
  /// interleave, which probes three disjoint segment spans per level.
  bool find_in_segs(const SegRef* segs, std::size_t n, const K& key,
                    std::uint64_t h, std::optional<V>& result) const {
    for (std::size_t j = n; j-- > 0;) {  // newest first
      const Seg& seg = *segs[j];
      if (cfg_.fence_keys && (key < seg.min_key || seg.max_key < key)) {
        ++stats_.fence_seg_skips;
        continue;
      }
      // Filter check after fences: "definitely absent" skips the whole
      // binary search (and, in an accounted build, its probe transfers —
      // the filter itself is metadata, like the fences, and charges
      // nothing; dam/bounds.hpp::cola_filter_search_transfer_bound).
      if (cfg_.filters && !seg.filter.empty() &&
          !filt::filter_may_contain(seg.filter.data(), seg.filter.size(), h)) {
        ++stats_.filter_seg_skips;
        continue;
      }
      ++stats_.find_seg_probes;
      std::size_t lo;
      if constexpr (std::is_same_v<MM, dam::null_mem_model>) {
        // Warm the next candidate's first probe line while this segment's
        // search runs: on a miss the walk goes there next, and a prefetch
        // has no architectural effect, so semantics and stats are
        // untouched even when the walk stops here. Gated with the kernel
        // tier: Isa::kScalar is the portable reference path, so it takes
        // no software prefetch either.
        if (isa_ != simd::Isa::kScalar && j > 0) {
          const Seg& nx = *segs[j - 1];
          if (nx.size() > 0)
            __builtin_prefetch(nx.keys.data() + nx.size() / 2 - 1);
        }
        lo = simd::lower_bound_keys(seg.keys.data(), seg.size(), key, isa_);
      } else {
        lo = 0;
        std::size_t hi = seg.size();
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          mm_.touch(seg.base_addr + mid * sizeof(TItem), sizeof(TItem));
          if (seg.keys[mid] < key) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
      }
      if (lo < seg.size() && seg.keys[lo] == key) {
        if (seg.is_tombstone(lo)) {
          result = std::nullopt;
        } else {
          result = seg.vals[lo];
        }
        return true;
      }
    }
    return false;
  }

  std::optional<V> find_tiered(const K& key) const {
    // One hash serves every segment's filter probe on this find.
    const std::uint64_t h = cfg_.filters ? filt::key_hash(key) : 0;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      if constexpr (std::is_same_v<MM, dam::null_mem_model>) {
        // Same trick across the level boundary: warm the next level's
        // newest segment (its first candidate) under this level's probes.
        if (isa_ != simd::Isa::kScalar && l + 1 < levels_.size() &&
            !levels_[l + 1].segs.empty()) {
          const Seg& nx = *levels_[l + 1].segs.back();
          if (nx.size() > 0)
            __builtin_prefetch(nx.keys.data() + nx.size() / 2 - 1);
        }
      }
      std::optional<V> result;
      // The pending fold's target level reads as three recency bands:
      // post-snapshot arrivals (newest), then the fold's input segments,
      // then the segments that predate the fold — the exact order the
      // install will freeze (output lands at pend_prior_segs_, below the
      // arrivals). Reads are coherent mid-flight without any barrier.
      if (pend_job_ && l == pend_target_) {
        const Level& lv = levels_[l];
        const std::size_t prior = std::min(pend_prior_segs_, lv.segs.size());
        if (find_in_segs(lv.segs.data() + prior, lv.segs.size() - prior, key,
                         h, result)) {
          return result;
        }
        if (find_in_segs(pend_job_->inputs.data(), pend_job_->inputs.size(),
                         key, h, result)) {
          return result;
        }
        if (find_in_segs(lv.segs.data(), prior, key, h, result)) return result;
        continue;
      }
      if (find_in_level(levels_[l], key, h, result)) return result;
    }
    return std::nullopt;
  }

  // -- cursors ----------------------------------------------------------------

  /// Accounting hook for THIS structure's own snapshot-backed reads: fence
  /// skips count into stats_, probes charge mm_ (installed only when a
  /// real memory model is attached — under the null model the touch slot
  /// stays empty, so scan inner loops skip the indirect call). Detached
  /// Snapshot handles never carry a hook: accounting is a property of the
  /// owner's read call, not of the shared snapshot data.
  snap::MemHook read_hook() const {
    snap::MemHook h;
    h.ctx = const_cast<void*>(static_cast<const void*>(this));
    h.seg_skip = [](void* c) {
      ++static_cast<const Gcola*>(c)->stats_.fence_seg_skips;
    };
    if constexpr (!std::is_same_v<MM, dam::null_mem_model>) {
      h.touch = [](void* c, std::uint64_t addr, std::uint64_t bytes) {
        static_cast<const Gcola*>(c)->mm_.touch(addr, bytes);
      };
    }
    return h;
  }

 public:
  /// Resumable ordered cursor (Dictionary cursor contract in
  /// api/dictionary.hpp): every seek acquires the dictionary's current
  /// snapshot — a refcount bump when the dictionary is unmutated since the
  /// last acquisition — and positions inside it. The position then stays
  /// valid across arbitrary mutations of the dictionary, streaming exactly
  /// the snapshot it seeked over; re-seek to observe newer data. Repeated
  /// seeks are allocation-free in steady state (the merge scratch keeps
  /// its high-water size).
  class Cursor {
   public:
    Cursor() = default;

    void seek(const K& lo) {
      refresh();
      c_.seek(lo);
    }
    /// Bounded seek: entries past `hi` are never surfaced (lets pruned
    /// structures skip sources entirely; an unbounded cursor can always be
    /// stopped by the caller instead).
    void seek(const K& lo, const K& hi) {
      refresh();
      c_.seek(lo, hi);
    }
    /// Position at the smallest live key (no sentinel bound needed — see
    /// for_each's note on numeric_limits sentinels).
    void seek_first() {
      refresh();
      c_.seek_first();
    }

    bool valid() const { return c_.valid(); }
    const Entry<K, V>& entry() const { return c_.entry(); }
    void next() { c_.next(); }
    /// Mutation epoch of the snapshot the last seek pinned (0 before any
    /// seek) — lets callers verify which version a scan is reading.
    std::uint64_t snapshot_epoch() const { return c_.epoch(); }

   private:
    friend class Gcola;
    explicit Cursor(const Gcola* d) : d_(d) {
      if (d_ != nullptr) c_.set_mem_hook(d_->read_hook());
    }
    void refresh() {
      if (d_ != nullptr) c_.attach(d_->snapshot().data());
    }

    const Gcola* d_ = nullptr;
    snap::SnapshotCursor<K, V> c_;
  };

  /// Detached cursor over this dictionary (Dictionary concept). Creation is
  /// cheap; each seek pins the then-current snapshot (see Cursor).
  Cursor make_cursor() const { return Cursor(this); }

 private:
  // -- insertion --------------------------------------------------------------

  /// Collapse the arena's sorted runs into one sorted, newest-wins run in
  /// stage_. Balanced rounds of pairwise merges: runs arrived oldest-first,
  /// adjacent pairs merge with the RIGHT (later, newer) run winning ties,
  /// which preserves the global recency order round over round. log2(#runs)
  /// passes — for batch feeds that is log2(g) passes over cache-resident
  /// data instead of a log2(capacity)-pass sort.
  void normalize_stage() {
    kern::collapse_runs(stage_, stage_runs_, tfold_tmp_, stage_runs_scratch_,
                        isa_, /*final_dups=*/nullptr);
  }

  /// Widen an Entry run onto the plane buffer, appending to `out` — the one
  /// place that knows how an Entry maps onto the tiered element planes.
  static void append_widened(const Entry<K, V>* b, const Entry<K, V>* e,
                             kern::RunBuf<K, V>& out) {
    out.reserve(out.size() + static_cast<std::size_t>(e - b));
    for (; b != e; ++b) out.push_back(b->key, b->value, 0);
  }

  /// TItem-run form (mixed put/erase batches): tombstone flags ride along.
  static void append_widened(const TItem* b, const TItem* e,
                             kern::RunBuf<K, V>& out) {
    out.reserve(out.size() + static_cast<std::size_t>(e - b));
    for (; b != e; ++b) {
      out.push_back(b->key, b->value, static_cast<std::uint8_t>(b->flags));
    }
  }

  /// Binary-counter compaction of the staging arena's tail: after a
  /// singleton append, merge the last two runs while the older is no larger
  /// than the newer. Keeps the arena at O(log capacity) runs under
  /// single-op feeds — so find()'s run probes stay logarithmic — at an
  /// amortized O(log capacity) moves per insert, the same work the flush
  /// collapse would otherwise do all at once.
  void counter_merge_stage_tail() {
    while (stage_runs_.size() >= 2) {
      const std::uint32_t b2 = stage_runs_.back();
      const std::uint32_t b1 = stage_runs_[stage_runs_.size() - 2];
      const std::size_t older = b2 - b1;
      const std::size_t newer = stage_.size() - b2;
      if (older > newer) break;
      kern::merge_into(stage_.subview(b1, b2), stage_.subview(b2, stage_.size()),
                       tfold_tmp_, isa_);
      const std::size_t w = tfold_tmp_.size();
      std::copy_n(tfold_tmp_.keys.data(), w, stage_.keys.begin() + b1);
      std::copy_n(tfold_tmp_.vals.data(), w, stage_.vals.begin() + b1);
      std::copy_n(tfold_tmp_.flags.data(), w, stage_.flags.begin() + b1);
      stage_.resize(b1 + w);
      stage_runs_.pop_back();
      stage_run_min_.pop_back();
      stage_run_max_.pop_back();
      // The merge rewrote the surviving run in place: drop both mirrors so
      // the next snapshot() re-mints exactly this run.
      stage_run_segs_.pop_back();
      stage_run_segs_.back().reset();
      // The merged run's fences span both inputs; read them off the data.
      stage_run_min_.back() = stage_.keys[b1];
      stage_run_max_.back() = stage_.keys.back();
      stats_.duplicates_dropped += older + newer - w;
    }
  }

  /// Reserve a logical address region for the staging arena (lazy: only
  /// configs with staging pay for it).
  void ensure_stage_base() {
    if (stage_base_set_ || cfg_.staging_capacity == 0) return;
    stage_base_ = next_base_;
    next_base_ += cfg_.staging_capacity * sizeof(TItem);
    stage_base_set_ = true;
  }

  /// Begin offset one past staging run r (the next run's begin, or the
  /// arena end for the newest run).
  std::uint32_t stage_run_end(std::size_t r) const noexcept {
    return r + 1 < stage_runs_.size() ? stage_runs_[r + 1]
                                      : static_cast<std::uint32_t>(stage_.size());
  }

  /// The one ingest tail every batch mutator shares. Stable-sort `run` by
  /// key in the caller's element form — 16-byte Entries for insert_batch,
  /// TItems with tombstone flags for the mixed-op mutators — duplicates KEPT
  /// in input order; the plane-form keep-last kernel collapses them after
  /// widening, the identical newest-wins result with the dedup scan
  /// vectorized. The run then lands in the staging arena or, unstaged,
  /// cascades into the levels. `n_raw` is the caller's op count (stats).
  template <class It>
  void ingest_run(std::vector<It>& run, std::vector<It>& scratch, std::size_t n_raw) {
    if (run.empty()) return;
    ++mutation_epoch_;
    land_pending(/*block=*/false);
    // Normalize while the batch is small and cache-hot (k entries, not the
    // whole arena); the arena flush then merges presorted runs.
    sort_by_key(run, scratch);
    if (cfg_.staging_capacity > 0) {
      stage_append(run.data(), run.data() + run.size(), n_raw);
      return;
    }
    titem_run_.clear();
    append_widened(run.data(), run.data() + run.size(), titem_run_);
    stats_.duplicates_dropped += kern::dedup_newest_wins(titem_run_, 0, isa_);
    cascade_run(/*batch=*/true);
  }

  /// Append one key-sorted run (duplicates in input order) to the staging
  /// arena as its newest run — the one staging write path; put() appends a
  /// one-element run. Duplicates collapse in place, the run's fences are
  /// recorded, the binary-counter tail merge keeps the arena's run count
  /// logarithmic (find() probes every run), and a full arena flushes.
  template <class It>
  void stage_append(const It* b, const It* e, std::size_t n_raw) {
    ensure_stage_base();
    stage_.reserve(std::max(cfg_.staging_capacity,
                            stage_.size() + static_cast<std::size_t>(e - b)));
    const std::size_t at = stage_.size();
    stage_runs_.push_back(static_cast<std::uint32_t>(at));
    append_widened(b, e, stage_);
    stats_.duplicates_dropped += kern::dedup_newest_wins(stage_, at, isa_);
    stage_run_min_.push_back(stage_.keys[at]);
    stage_run_max_.push_back(stage_.keys.back());
    stage_run_segs_.emplace_back();
    mm_.touch_write(stage_base_ + at * sizeof(TItem),
                    (stage_.size() - at) * sizeof(TItem));
    stats_.stage_absorbed += n_raw;
    counter_merge_stage_tail();
    if (stage_.size() >= cfg_.staging_capacity) flush_stage();
  }

  /// Carry titem_run_ (sorted, unique keys, newest overall) into the
  /// levels: a singleton with room in level 0 lands there directly — the
  /// paper's insert into the empty first array — and anything else is ONE
  /// cascaded merge into the shallowest level with room. `batch` counts the
  /// cascade as a batch merge (put() passes false).
  void cascade_run(bool batch) {
    ensure_level(0);
    if (titem_run_.size() == 1 && !level_full(0)) {
      place_in_level0();
      return;
    }
    if (batch) ++stats_.batch_merges;
    if (cfg_.tiered) {
      incoming_spans_.assign(1, titem_run_.view());
      cascade_run_tiered(titem_run_.size());
    } else {
      cls_acc_.swap(titem_run_);
      cascade_run_planes();
    }
  }

  /// Level 0 is empty: the singleton in titem_run_ becomes its contents.
  void place_in_level0() {
    Level& l0 = levels_[0];
    if (cfg_.tiered) {
      SegRef seg = new_segment(std::vector<K>(titem_run_.keys),
                               std::vector<V>(titem_run_.vals),
                               std::vector<std::uint8_t>(titem_run_.flags));
      mm_.touch_write(seg->base_addr, sizeof(TItem));
      l0.tomb_count = seg->tombs;
      l0.segs.assign(1, std::move(seg));
      l0.seg_stale.assign(1, 0);
      l0.stale_count = 0;
    } else {
      Slot s{};
      s.key = titem_run_.keys[0];
      s.value = titem_run_.vals[0];
      s.flags = titem_run_.flags[0];
      l0.occ_begin = static_cast<std::uint32_t>(l0.slots.size() - 1);
      l0.slots[l0.occ_begin] = s;
      touch_region(0, l0.occ_begin, 1, /*write=*/true);
    }
    l0.real_count = 1;
    l0.fills = 1;
  }

  /// Classic cascade entry: the incoming run is already in cls_acc_
  /// (sorted, unique keys, newest overall, plane form) — the staging flush
  /// and cascade_run land here without a Slot widening pass.
  void cascade_run_planes() {
    if (cls_acc_.empty()) return;
    const std::size_t t = select_cascade_target(cls_acc_.size());
    ensure_level(t);
    cascade_into_planes(t);
  }

  /// Shallowest level at or past `min_level` that can absorb an incoming
  /// run of `incoming` items plus everything displaced above it (the
  /// levels above `min_level`, and full or too-small levels, fold into the
  /// cascade). Pending-aware: an in-flight background fold's mass (and its
  /// one future segment) counts against its target level, so a cascade
  /// picked here can never over-commit the level the install is about to
  /// land in.
  std::size_t select_cascade_target(std::uint64_t incoming,
                                    std::size_t min_level = 1) const {
    std::uint64_t carried = incoming;
    for (std::size_t l = 0; l < min_level && l < levels_.size(); ++l) {
      carried += level_mass(l);
    }
    std::size_t t = min_level;
    while (true) {
      if (t < levels_.size()) {
        if (!level_committed_full(t) && level_mass(t) + carried <= real_cap(t)) {
          break;
        }
        carried += level_mass(t);
        ++t;
      } else if (carried <= real_cap(t)) {
        break;
      } else {
        ++t;
      }
    }
    return t;
  }

  /// Level occupancy including the in-flight fold's (pre-dedup) mass.
  std::uint64_t level_mass(std::size_t l) const noexcept {
    std::uint64_t m = levels_[l].real_count;
    if (pend_job_ && l == pend_target_) m += pend_job_->total;
    return m;
  }

  /// level_full plus the pending fold's future segment: its install appends
  /// one segment to pend_target_, so the level reads as full one earlier.
  bool level_committed_full(std::size_t t) const noexcept {
    if (level_full(t)) return true;
    return pend_job_ && t == pend_target_ &&
           levels_[t].segs.size() + 1 >= cfg_.growth - 1;
  }

  /// Tiered cascade entry: pick the target at or past `min_level` for
  /// `incoming` staged/normalized items (prepared in incoming_spans_,
  /// oldest -> newest) plus everything above it, and run the segment fold
  /// (`may_defer`: on the pool when the engine is on). The checkpoint's
  /// cascade of the shallow levels is the one caller with no incoming run.
  void cascade_run_tiered(std::uint64_t incoming, std::size_t min_level = 1,
                          bool may_defer = true) {
    std::size_t t = select_cascade_target(incoming, min_level);
    // A cascade deeper than the in-flight fold's target would consume the
    // level the install is about to land in — land the fold first (writer
    // assist when no worker has finished it yet) and re-pick the target
    // with real occupancy. This is the one ordering barrier the background
    // engine keeps: data never moves DEEPER past a pending install point.
    if (pend_job_ && t > pend_target_) {
      land_pending(/*block=*/true);
      t = select_cascade_target(incoming, min_level);
    }
    // Trivial move: when the cascade is about to drain the deepest data
    // into virgin territory, the deepest level's segments are already
    // sorted runs older than everything else — relocating them wholesale
    // (vector swap, zero element movement) and retargeting the cascade
    // shallower skips the largest merge the structure ever does. The same
    // optimization LSM stores apply to bottom-level compactions.
    //
    // Gated to ALTERNATE with real bottom folds (bottom_relocated_): the
    // relocation skips exactly the merge that strips tombstones and dedups
    // shadowed copies, so taking it unconditionally would let a churn
    // workload (bounded live set, endless upserts/erases) grow physical
    // size without bound. Alternating keeps the pure-growth fast path —
    // one relocation per deepest-level generation — while guaranteeing
    // every other bottom drain compacts. Tombstone or staleness pressure
    // vetoes the relocation outright: past either threshold the deepest
    // level NEEDS the annihilating fold, not another deferral.
    const std::size_t deepest = deepest_nonempty();
    if (!bottom_relocated_ && !fold_pressure(deepest) && t == deepest + 1 &&
        levels_[deepest].real_count > 0) {
      ensure_level(t);
      Level& from = levels_[deepest];
      Level& to = levels_[t];
      if (to.real_count == 0) {
        to.segs.swap(from.segs);  // identities travel with the data
        to.seg_stale.swap(from.seg_stale);
        to.tomb_count = from.tomb_count;
        to.stale_count = from.stale_count;
        to.real_count = from.real_count;
        to.fills = from.fills;
        clear_level(from);
        // Segments are immutable heap units — relocation moves no bytes,
        // but the DAM model still charges the logical rewrite so modeled
        // costs stay comparable across the refcounting change.
        for (const SegRef& seg : to.segs) {
          mm_.touch_write(seg->base_addr, seg->size() * sizeof(TItem));
        }
        bottom_relocated_ = true;
        t = select_cascade_target(incoming, min_level);
      }
    }
    ensure_level(t);
    ++stats_.merges;
    fold(t, /*full=*/false, may_defer);
    maybe_fold_bottom_tombstones();
  }

  /// True when level l's tombstone mass has crossed the configured fraction
  /// of its occupancy — the signal that forces annihilating folds.
  bool tombstone_pressure(std::size_t l) const noexcept {
    if (!(cfg_.tombstone_threshold <= 1.0)) return false;  // knob disabled
    const Level& lv = levels_[l];
    return lv.tomb_count > 0 &&
           static_cast<double>(lv.tomb_count) >=
               cfg_.tombstone_threshold * static_cast<double>(lv.real_count);
  }

  /// True when level l's ESTIMATED shadowed-live mass has crossed the
  /// configured fraction of its occupancy — the churn analogue of
  /// tombstone_pressure, driving the same forced bottom folds.
  bool staleness_pressure(std::size_t l) const noexcept {
    if (!(cfg_.staleness_threshold <= 1.0)) return false;  // knob disabled
    const Level& lv = levels_[l];
    return lv.stale_count > 0 &&
           static_cast<double>(lv.stale_count) >=
               cfg_.staleness_threshold * static_cast<double>(lv.real_count);
  }

  /// Either retention signal: the deepest level needs a real, annihilating
  /// fold (tombstone mass or estimated shadowed-duplicate mass too high).
  bool fold_pressure(std::size_t l) const noexcept {
    return tombstone_pressure(l) || staleness_pressure(l);
  }

  /// Credit an estimated `est` shadowed copies to level l's segments older
  /// than the data that just arrived: `exclude_tail` newest segments are
  /// exempt — the arrival itself (sync folds append, tail = 1), or the
  /// arrival plus everything newer when a background install lands
  /// mid-level; 0 means every segment is a candidate (the deeper-level
  /// case — everything there predates the arrival). Attribution walks
  /// oldest-first, skips segments whose fence range does not intersect the
  /// new run's [lo, hi], and caps each segment's stale count at its entry
  /// count — the estimate can overstate a segment only up to "everything
  /// here is shadowed", which is exactly the bound a fold can recover.
  void add_staleness(std::size_t l, const K& lo, const K& hi, std::uint64_t est,
                     std::size_t exclude_tail) {
    Level& lv = levels_[l];
    const std::size_t nsegs =
        lv.segs.size() - std::min(lv.segs.size(), exclude_tail);
    for (std::size_t j = 0; j < nsegs && est > 0; ++j) {
      const Seg& seg = *lv.segs[j];
      if (hi < seg.min_key || seg.max_key < lo) continue;  // disjoint
      const std::uint32_t sz = static_cast<std::uint32_t>(seg.size());
      const std::uint32_t headroom = sz - std::min(sz, lv.seg_stale[j]);
      const std::uint32_t take =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(headroom, est));
      lv.seg_stale[j] += take;
      lv.stale_count += take;
      est -= take;
    }
  }

  /// Bounded tombstone retention (checked after every tiered cascade): when
  /// the deepest level crosses the threshold, run the full fold. Each fold
  /// clears the structure's whole tombstone and stale mass, so the next one
  /// needs another threshold-fraction of fresh arrivals: amortized
  /// O(1/threshold) moves per erase/shadowing write.
  void maybe_fold_bottom_tombstones() {
    const std::size_t d = deepest_nonempty();
    if (levels_.empty() || levels_[d].real_count == 0) return;
    if (!fold_pressure(d)) return;
    // Retention pressure is read from LIVE segment metadata, so an
    // in-flight fold must land before the decision stands — its output may
    // clear the pressure (or move the deepest level) entirely. Re-enter
    // with the settled state; the pending slot is now free, so the second
    // pass cannot loop.
    if (pend_job_) {
      land_pending(/*block=*/true);
      maybe_fold_bottom_tombstones();
      return;
    }
    ++stats_.merges;
    ++stats_.forced_bottom_folds;
    if (!tombstone_pressure(d)) ++stats_.staleness_folds;
    // The forced fold is the retention policy's correctness valve, but it
    // is still just a fold over immutable segments — defer it too, at
    // `forced` priority (jumps the pool queue, never rejected for depth).
    fold(/*t=*/0, /*full=*/true, /*may_defer=*/true);
  }

  /// The one tiered fold. A cascade fold (`full` false) consumes levels
  /// [0, t) plus incoming_spans_ into level t. A full fold — the forced
  /// retention fold and compact(full) — consumes levels [0, d] (d = deepest)
  /// into ONE stripped segment no shallower than max(d, t): no older copy
  /// of any key can exist below the deepest level, so every tombstone and
  /// every shadowed duplicate dies here — and at small g, where a level
  /// holds a single segment, the shadowed copies live across LEVELS, which
  /// is why the fold takes them all.
  ///
  /// Gathers the inputs, decides the tombstone drop, collects the consumed
  /// spill ids, then hands the job to the pool (`may_defer`, engine on, the
  /// one pending slot free, and the pool accepts) or runs it on this thread
  /// and installs it. Either way the sources are cleared only after the
  /// job has them: run, or pinned by refcount.
  void fold(std::size_t t, bool full, bool may_defer) {
    const std::size_t d = deepest_nonempty();
    const std::size_t hi = full ? d + 1 : t;  // levels [0, hi) are consumed
    std::size_t target = full ? std::max(d, t) : t;
    std::shared_ptr<compact::FoldJob<K, V>> pooled;
    if (may_defer && bg_enabled_ && !pend_job_) {
      pooled = std::make_shared<compact::FoldJob<K, V>>();
    }
    compact::FoldJob<K, V>& job = pooled ? *pooled : *fold_job_;
    // Inputs oldest -> newest: deeper level = older, a level's first
    // segment is its oldest, the incoming run newest of all; each charged
    // one streaming read. Inline spans alias the sources (nothing copied);
    // a deferred job pins them, and owns copies of the incoming spans,
    // which alias reusable scratch.
    const auto view = [](const Seg& seg) {
      return kern::RunView<K, V>{seg.keys.data(), seg.vals.data(),
                                 seg.flags.data(), seg.size()};
    };
    job.spans.clear();
    job.total = 0;
    for (std::size_t l = hi; l-- > 0;) {
      for (const SegRef& seg : levels_[l].segs) {
        mm_.touch(seg->base_addr, seg->size() * sizeof(TItem));
        job.spans.push_back(view(*seg));
        if (pooled) job.inputs.push_back(seg);
        job.total += seg->size();
      }
    }
    if (!full) {
      for (const kern::RunView<K, V>& s : incoming_spans_) {
        job.total += s.n;
        if (!pooled) {
          job.spans.push_back(s);
        } else if (SegRef seg = snap::make_segment<K, V>(
                       std::vector<K>(s.keys, s.keys + s.n),
                       std::vector<V>(s.vals, s.vals + s.n),
                       std::vector<std::uint8_t>(s.flags, s.flags + s.n),
                       /*id=*/0, /*base_addr=*/0, mutation_epoch_)) {
          job.spans.push_back(view(*seg));
          job.inputs.push_back(std::move(seg));
        }
      }
    }
    // A tombstone can be discarded only when no older copy of its key can
    // exist anywhere: deepest level, no older segments in the target, and
    // no background fold targeting it (that output is OLDER and installs
    // below this one; deepest_nonempty already counts the pending target).
    job.drop_tombstones = full || (t >= d && levels_[t].real_count == 0 &&
                                   !(pend_job_ && pend_target_ == t));
    job.mint_filter = cfg_.filters;
    job.isa = isa_;
    // A job made for the pool fans out wherever it runs; the writer's own
    // job runs serially, as every fold did before there was a pool.
    job.ways = pooled ? cfg_.compaction_threads : 1;
    bool deferred = false;
    if (pooled) {
      // Deferred folds place by input mass: reads interleave the pending
      // inputs at the target from now on, before the output size is known.
      std::size_t at = target;
      while (real_cap(at) < job.total) ++at;
      ensure_level(at);
      std::uint64_t depth = 0;
      // Full folds jump the queue: they are the retention policy's
      // correctness valve (and are never rejected for depth).
      deferred = compact::Pool::instance().submit(
          [pooled] {
            if (pooled->try_claim()) pooled->run();
          },
          /*forced=*/full, &depth);
      if (deferred) {
        target = at;
        cstats_->folds_deferred.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t peak = cstats_->queue_peak.load(std::memory_order_relaxed);
        while (depth > peak && !cstats_->queue_peak.compare_exchange_weak(
                                   peak, depth, std::memory_order_relaxed)) {
        }
      } else {
        // The pool refused (queue saturated): the writer folds it itself.
        cstats_->writer_assists.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!deferred) finish_on_writer(job, /*run_here=*/true);
    gather_spill_consumed(hi, job.consumed);
    for (std::size_t l = 0; l < hi; ++l) clear_level(levels_[l]);
    // This fold IS a bottom compaction: the next deepest-level drain may
    // take the trivial move again.
    if (job.drop_tombstones) bottom_relocated_ = false;
    if (deferred) {
      pend_job_ = std::move(pooled);
      pend_target_ = target;
      // After the clear, so a full fold whose target sits INSIDE the
      // consumed range records install position 0 (the fold is the oldest
      // data the level will ever hold again).
      pend_prior_segs_ = levels_[target].segs.size();
      return;
    }
    // Inline folds place by output size: levels 0..d together hold up to
    // g/(g-1) * real_cap(d) items, so a full fold that annihilates little
    // can exceed the deepest level's own capacity (usually d; one deeper in
    // the adversarial no-duplicates case). A cascade's output always fits.
    while (real_cap(target) < job.out.size()) ++target;
    install(job, target, kAppend);
  }

  /// Finish `job` on the writer thread, running it here first when
  /// `run_here` (no pool worker ran it). A failed run is retried once here,
  /// serially, so a failure on the pool — or in a sub-merge the pool ran —
  /// never reaches the caller; a failure of the retry is rethrown with the
  /// fold's sources untouched (still in their levels, or still pinned by
  /// the pending job).
  void finish_on_writer(compact::FoldJob<K, V>& job, bool run_here) {
    if (run_here) job.run();
    if (!job.failed()) return;
    job.ways = 1;
    job.run();
    if (job.failed()) std::rethrow_exception(job.error);
  }

  // -- background compaction --------------------------------------------------
  //
  // One pending fold per structure. fold() hands the job its pinned input
  // segments (immutable, ref-counted), clears the source levels, and
  // submits it to the process pool; every mutator entry polls for the
  // finished job and installs its output segment at the recorded position
  // — BELOW any run that arrived at the target level after the fold was
  // deferred, so recency order is exactly what the inline fold would have
  // produced. Structural mutation stays single-writer throughout: the job
  // computes over its own buffers, the writer does every install.

  /// Install point of the pending fold. Every mutator entry polls
  /// (`block` false): a finished job lands now; a running or failed one
  /// stays pending, inputs pinned — this never throws a job's failure. The
  /// blocking points — drain_compaction, a cascade deeper than the pending
  /// target, retention, checkpoint — pass `block`: claim the job back and
  /// run it here if no worker picked it up yet (writer assist), else wait
  /// for the worker, retry it here if it failed, then install. The debt
  /// bound: the writer can never race more than one fold ahead of the
  /// compactor.
  void land_pending(bool block) {
    if (!pend_job_) return;
    compact::FoldJob<K, V>& job = *pend_job_;
    if (block) {
      const bool claimed = job.try_claim();
      if (!claimed) job.wait_finished();
      if (claimed || job.failed()) {
        cstats_->writer_assists.fetch_add(1, std::memory_order_relaxed);
      }
      finish_on_writer(job, claimed);
    } else if (cfg_.unsafe_defer_install || !job.done()) {
      return;
    }
    // Dropping the job after the install releases the input refs: sources
    // retire unless a snapshot still pins them.
    const std::shared_ptr<compact::FoldJob<K, V>> held = std::move(pend_job_);
    ++mutation_epoch_;
    cstats_->bg_fold_ns.fetch_add(held->fold_ns, std::memory_order_relaxed);
    install(*held, pend_target_,
            cfg_.unsafe_break_install_order ? kAppend : pend_prior_segs_);
    // A job the writer claimed back is still held by its queued pool task
    // until a worker pops it: release the pinned inputs now, not then.
    held->spans.clear();
    held->inputs.clear();
  }

  /// Push level l's segments newest -> oldest (the snapshot/view priority
  /// order), splicing an in-flight fold's inputs at its install position:
  /// post-snapshot arrivals first (newest), then the fold's inputs, then
  /// the segments that predate the fold — exactly the order the install
  /// will freeze, so reads are coherent mid-flight without any barrier.
  void push_level_segs(std::size_t l, std::vector<SegRef>& out) const {
    const Level& lv = levels_[l];
    if (pend_job_ && l == pend_target_) {
      const std::size_t prior = std::min(pend_prior_segs_, lv.segs.size());
      for (std::size_t j = lv.segs.size(); j-- > prior;) {
        out.push_back(lv.segs[j]);
      }
      for (std::size_t j = pend_job_->inputs.size(); j-- > 0;) {
        out.push_back(pend_job_->inputs[j]);
      }
      for (std::size_t j = prior; j-- > 0;) out.push_back(lv.segs[j]);
      return;
    }
    for (std::size_t j = lv.segs.size(); j-- > 0;) out.push_back(lv.segs[j]);
  }

  /// Single insert or erase: a one-element run through the same arena
  /// append or cascade as a batch (no sort, no batch-merge count).
  void put(const K& key, const V& value, bool tombstone) {
    ++mutation_epoch_;
    land_pending(/*block=*/false);
    const TItem item{key, value, tombstone ? kFlagTombstone : 0u};
    if (cfg_.staging_capacity > 0) {
      stage_append(&item, &item + 1, 1);
      return;
    }
    titem_run_.clear();
    append_widened(&item, &item + 1, titem_run_);
    cascade_run(/*batch=*/false);
  }

  /// Extract classic level l's real entries (lookahead slots skipped) onto
  /// `out` in plane form — for the cascade's per-level merges, which run on
  /// the SIMD plane kernels instead of a scalar walk over 32-byte AoS slots,
  /// and for the copy-on-snapshot build. Lookahead flags are shed here (the
  /// cascade re-derives the chains via rebuild_lookahead). DAM accounting is
  /// one streaming read of the level's occupied region.
  void extract_level_planes(std::size_t l, kern::RunBuf<K, V>& out) const {
    const Level& lv = levels_[l];
    touch_region(l, lv.occ_begin,
                 static_cast<std::uint64_t>(lv.slots.size()) - lv.occ_begin,
                 /*write=*/false);
    out.clear();
    out.reserve(lv.real_count);
    for (std::size_t i = lv.occ_begin; i < lv.slots.size(); ++i) {
      const Slot& s = lv.slots[i];
      if (s.is_lookahead()) continue;
      out.push_back(s.key, s.value, static_cast<std::uint8_t>(s.flags & kFlagTombstone));
    }
  }

  /// Deepest level holding data — COMMITTED data included: an in-flight
  /// fold's output will land at pend_target_, so anything at least that
  /// deep counts (tombstone-drop and trivial-move decisions must treat the
  /// pending mass as already there).
  std::size_t deepest_nonempty() const noexcept {
    for (std::size_t l = levels_.size(); l-- > 0;) {
      if (levels_[l].real_count > 0) {
        return pend_job_ ? std::max(l, pend_target_) : l;
      }
    }
    return pend_job_ ? pend_target_ : 0;
  }

  /// The one fold install, inline or deferred: mint the job's output as a
  /// segment — its id and logical address are minted here, on the writer —
  /// and splice it into level l at index min(pos, #segments) (segments
  /// below pos predate the fold; kAppend lands it newest). An empty output
  /// installs nothing but is still reported.
  void install(compact::FoldJob<K, V>& job, std::size_t l, std::size_t pos) {
    kern::RunBuf<K, V>& out = job.out;
    stats_.duplicates_dropped += job.total - (out.size() + job.tombstones_dropped);
    stats_.tombstones_dropped += job.tombstones_dropped;
    SegRef seg;
    if (!out.empty()) {
      ensure_level(l);
      pos = std::min(pos, levels_[l].segs.size());
      const std::uint64_t base = next_base_;
      next_base_ += out.size() * sizeof(TItem);
      // The writer's own job keeps its planes as scratch for the next fold,
      // so its segment gets an exact-size copy; a pool job is single-use
      // and hands its planes over.
      const bool keep = &job == fold_job_.get();
      const auto planes = [keep](auto& v) {
        return keep ? std::decay_t<decltype(v)>(v) : std::move(v);
      };
      seg = snap::make_segment(planes(out.keys), planes(out.vals),
                               planes(out.flags), next_seg_id_++, base,
                               mutation_epoch_, /*with_filter=*/false,
                               std::move(job.filter_words));
      mm_.touch_write(base, seg->size() * sizeof(TItem));
    }
    // A full fold leaves nothing older than its output in its target or
    // below, so its duplicate sample credits no staleness.
    install_segment(l, pos, std::move(seg), job.consumed, job.final_dups);
  }

  /// install()'s structural half: splice `seg` into level l at index
  /// `pos` (segments below pos predate the fold), report it — nullptr for
  /// a fold that annihilated to nothing — to the spill observer with the
  /// `consumed` ids (cleared here), and credit the fold's measured
  /// duplicate count `stale_est` as staleness.
  void install_segment(std::size_t l, std::size_t pos, SegRef seg,
                       std::vector<std::uint64_t>& consumed, std::uint64_t stale_est) {
    const Seg* s = seg.get();
    if (s != nullptr) {
      splice_segment(l, pos, std::move(seg));
      stats_.entries_merged += s->size();
    }
    // Consumed ids come from levels in [spill_depth_, l], so a fold that
    // consumed anything always passes the depth check.
    if (fold_observer_ != nullptr && l >= spill_depth_ &&
        (s != nullptr || !consumed.empty())) {
      fold_observer_->on_segment_spill(l, s, consumed.data(), consumed.size());
    }
    consumed.clear();
    if (s == nullptr || stale_est == 0) return;
    // Staleness estimate, at zero extra I/O: the fold's final merge round
    // counted its DISTINCT duplicated keys — a measured sample of how many
    // distinct keys this feed rewrites. A key the feed rewrites shadows its
    // older copies in the target's older segments and in deeper levels at
    // the same rate, so credit that count there. Distinct (not total)
    // duplicates is the load-bearing choice: a hot key repeated a thousand
    // times within a fold shadows at most one deep copy, and crediting total
    // duplicate mass would force spurious compactions on hot-set feeds.
    // Pure-growth feeds measure ~0. The tail exclusion covers the installed
    // segment and every newer arrival above it.
    add_staleness(l, s->min_key, s->max_key, stale_est,
                  /*exclude_tail=*/levels_[l].segs.size() - pos);
    // The arrival also shadows deeper data. Credit the deepest level —
    // where retention is bounded only by the forced folds — so small-g
    // geometries (one segment per level) see churn pressure too. Only folds
    // COMPARABLE IN SIZE to the deepest level credit it: a shallow fold
    // re-observes the same hot keys on every drain, and crediting each
    // observation would recount one shadowed deep copy many times over
    // (spurious compactions on hot-set feeds); a fold carrying a quarter of
    // the deepest level's mass has accumulated the distinct keys of a whole
    // generation — the honest sample.
    const std::size_t d = deepest_nonempty();
    if (d > l && s->size() * 4 >= levels_[d].real_count) {
      add_staleness(d, s->min_key, s->max_key, stale_est, /*exclude_tail=*/0);
    }
  }

  /// Level bookkeeping for one arriving segment — install and adopt's
  /// shared structural step: splice `seg` into level l at index `pos`
  /// (segments below pos are older) with no staleness credited.
  void splice_segment(std::size_t l, std::size_t pos, SegRef seg) {
    Level& lv = levels_[l];
    assert(lv.real_count + seg->size() <= real_cap(l));
    lv.tomb_count += seg->tombs;
    lv.real_count += seg->size();
    lv.segs.insert(lv.segs.begin() + static_cast<std::ptrdiff_t>(pos), std::move(seg));
    lv.seg_stale.insert(lv.seg_stale.begin() + static_cast<std::ptrdiff_t>(pos), 0);
    lv.fills = static_cast<std::uint32_t>(
        std::min<std::size_t>(lv.segs.size(), cfg_.growth - 1));
  }

  /// Collect into `out` the seg_ids of every segment in levels
  /// [spill_depth_, n) — the previously-reported segments an imminent fold
  /// of levels 0..n-1 will destroy.
  void gather_spill_consumed(std::size_t n, std::vector<std::uint64_t>& out) {
    out.clear();
    if (fold_observer_ == nullptr) return;
    for (std::size_t l = spill_depth_; l < n && l < levels_.size(); ++l) {
      for (const SegRef& s : levels_[l].segs) out.push_back(s->id);
    }
  }

  /// Drop the level's segment references. Segments pinned by a live
  /// snapshot survive until its last handle drops (deferred free via the
  /// shared_ptr refcount); unpinned ones free here.
  static void clear_level(Level& lv) {
    lv.segs.clear();
    lv.seg_stale.clear();
    lv.real_count = 0;
    lv.tomb_count = 0;
    lv.stale_count = 0;
    lv.fills = 0;
  }

  /// Merge cls_acc_ (the newest run: sorted, unique keys, PLANE form)
  /// together with levels 0..t-1 into level t — the shared engine behind
  /// the single-op cascade, insert_batch, and the staging flush. The
  /// per-level folds run on the vectorized plane kernels (newest-wins
  /// merge_pair dispatch); only the final write into the target's slot
  /// array returns to Slot form, because that is where the lookahead
  /// chains live.
  void cascade_into_planes(std::size_t t) {
    ++stats_.merges;
    // Cascade: fold in levels 0..t-1 from newest to oldest. CPU cost O(k);
    // transfer cost: each source level is read once, the target written once
    // (the paper's merge pattern).
    for (std::size_t l = 0; l < t; ++l) {
      if (levels_[l].real_count == 0) continue;
      extract_level_planes(l, cls_lvl_);
      stats_.duplicates_dropped +=
          kern::merge_into(cls_lvl_.view(), cls_acc_.view(), cls_tmp_, isa_);
      cls_acc_.swap(cls_tmp_);
    }

    Level& target = levels_[t];
    // Tombstones can be discarded once no older copy of their key can exist,
    // i.e. when merging into (or past) the deepest level holding real data.
    const bool drop_tombstones = t >= deepest_nonempty();

    // Prepend fast path: everything incoming sorts strictly before the
    // target's current occupied region, so nothing in the target moves.
    if (cfg_.enable_prepend && target.occ_begin < target.slots.size() &&
        !cls_acc_.empty() &&
        cls_acc_.keys.back() < target.slots[target.occ_begin].key &&
        cls_acc_.size() <= target.occ_begin) {
      prepend_into(t, cls_acc_, drop_tombstones);
    } else {
      full_merge_into(t, cls_acc_, drop_tombstones);
    }

    // Fullness tracks merge count AND occupancy: a batch cascade can deliver
    // several merges' worth of items at once, so a level must also read as
    // full once another worst-case single-op cascade (< real_cap/(g-1)
    // items) could overflow it. For pure single-op streams the occupancy
    // term never exceeds the merge count, so behavior is unchanged there.
    const std::uint64_t cap = real_cap(t);
    const std::uint64_t occ_fills =
        (target.real_count * (cfg_.growth - 1) + cap - 1) / cap;
    target.fills = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg_.growth - 1,
        std::max<std::uint64_t>(target.fills + 1, occ_fills)));

    // Clear the drained levels and rebuild their lookahead-only contents.
    for (std::size_t l = 0; l < t; ++l) {
      Level& lv = levels_[l];
      lv.occ_begin = static_cast<std::uint32_t>(lv.slots.size());
      lv.fills = 0;
      lv.real_count = 0;
    }
    for (std::size_t l = t; l-- > 1;) rebuild_lookahead(l);
  }

  /// Write `incoming` (plane form) immediately left of the target's
  /// occupied region.
  void prepend_into(std::size_t t, kern::RunBuf<K, V>& incoming,
                    bool drop_tombstones) {
    if (drop_tombstones) stats_.tombstones_dropped += kern::strip_tombstones(incoming);
    ++stats_.prepend_merges;
    Level& lv = levels_[t];
    const std::uint32_t new_begin =
        lv.occ_begin - static_cast<std::uint32_t>(incoming.size());
    // The first lookahead at-or-right of the new region is the old region's
    // leading lookahead chain head.
    const std::uint32_t old_first_ra =
        lv.occ_begin < lv.slots.size() ? lv.slots[lv.occ_begin].right_la : kNoIdx;
    std::uint32_t i = new_begin;
    for (std::size_t r = 0; r < incoming.size(); ++r) {
      Slot s{};
      s.key = incoming.keys[r];
      s.value = incoming.vals[r];
      s.flags = incoming.flags[r] & kFlagTombstone;
      s.left_la = kNoIdx;  // no lookahead slots among the incoming entries
      s.right_la = old_first_ra;
      lv.slots[i++] = s;
    }
    touch_region(t, new_begin, incoming.size(), /*write=*/true);
    lv.occ_begin = new_begin;
    lv.real_count += incoming.size();
    stats_.entries_merged += incoming.size();
  }

  /// Full rewrite of the target level: merge incoming entries with the
  /// target's existing real entries, keep its existing lookahead slots
  /// (their targets in level t+1 are unchanged), and re-justify right. One
  /// fused pass over the target's slot array — the old slots are sorted with
  /// lookahead slots interleaved before equal-key reals, so a sequential
  /// walk merges reals and re-emits lookahead slots in their final order
  /// without the extract / merge / interleave copies.
  void full_merge_into(std::size_t t, const kern::RunBuf<K, V>& incoming,
                       bool drop_tombstones) {
    Level& lv = levels_[t];
    touch_region(t, lv.occ_begin,
                 static_cast<std::uint64_t>(lv.slots.size()) - lv.occ_begin,
                 /*write=*/false);
    std::vector<Slot>& content = scratch_content_;
    content.clear();
    content.reserve((lv.slots.size() - lv.occ_begin) + incoming.size());
    std::uint64_t reals = 0;
    std::size_t a = 0;
    std::uint32_t i = lv.occ_begin;
    const std::uint32_t E = static_cast<std::uint32_t>(lv.slots.size());
    const auto push_real = [&](const Slot& s) {
      if (drop_tombstones && s.is_tombstone()) {
        ++stats_.tombstones_dropped;
        return;
      }
      content.push_back(s);
      ++reals;
    };
    const auto push_incoming = [&] {
      Slot s{};
      s.key = incoming.keys[a];
      s.value = incoming.vals[a];
      s.flags = incoming.flags[a] & kFlagTombstone;
      ++a;
      push_real(s);
    };
    while (i < E && a < incoming.size()) {
      const Slot& s = lv.slots[i];
      if (s.is_lookahead()) {
        // Equal keys keep the lookahead before the real it shadows.
        if (s.key <= incoming.keys[a]) {
          content.push_back(s);
          ++i;
        } else {
          push_incoming();
        }
      } else if (incoming.keys[a] < s.key) {
        push_incoming();
      } else if (s.key < incoming.keys[a]) {
        push_real(s);
        ++i;
      } else {
        push_incoming();
        ++i;  // shadowed older copy
        ++stats_.duplicates_dropped;
      }
    }
    for (; i < E; ++i) {
      const Slot& s = lv.slots[i];
      if (s.is_lookahead()) {
        content.push_back(s);
      } else {
        push_real(s);
      }
    }
    while (a < incoming.size()) push_incoming();

    write_level(t, content);
    lv.real_count = reals;
    stats_.entries_merged += reals;
  }

  /// Right-justify `content` into level l's array and recompute the
  /// left_la/right_la chains.
  void write_level(std::size_t l, const std::vector<Slot>& content) {
    Level& lv = levels_[l];
    assert(content.size() <= lv.slots.size());
    const std::uint32_t begin =
        static_cast<std::uint32_t>(lv.slots.size() - content.size());
    std::uint32_t last_la = kNoIdx;
    for (std::uint32_t i = 0; i < content.size(); ++i) {
      Slot s = content[i];
      if (s.is_lookahead()) last_la = begin + i;
      s.left_la = last_la;
      lv.slots[begin + i] = s;
    }
    std::uint32_t next_la = kNoIdx;
    for (std::uint32_t i = static_cast<std::uint32_t>(lv.slots.size()); i-- > begin;) {
      if (lv.slots[i].is_lookahead()) next_la = i;
      lv.slots[i].right_la = next_la;
    }
    lv.occ_begin = begin;
    touch_region(l, begin, content.size(), /*write=*/true);
  }

  /// Rebuild level l as lookahead-only samples of level l+1 (level l's real
  /// contents have just been drained by a merge).
  void rebuild_lookahead(std::size_t l) {
    Level& lv = levels_[l];
    assert(lv.real_count == 0);
    const std::uint64_t cap = la_cap(l);
    if (cap == 0 || l + 1 >= levels_.size()) {
      lv.occ_begin = static_cast<std::uint32_t>(lv.slots.size());
      return;
    }
    const Level& nxt = levels_[l + 1];
    const std::uint64_t navail =
        static_cast<std::uint64_t>(nxt.slots.size()) - nxt.occ_begin;
    if (navail == 0) {
      lv.occ_begin = static_cast<std::uint32_t>(lv.slots.size());
      return;
    }
    const std::uint64_t take = std::min<std::uint64_t>(cap, navail);
    const std::uint64_t stride = navail / take;
    std::vector<Slot>& content = scratch_content_;
    content.clear();
    content.reserve(take);
    for (std::uint64_t i = 0; i < take; ++i) {
      const std::uint32_t tgt =
          nxt.occ_begin + static_cast<std::uint32_t>(i * stride + stride - 1);
      touch_slot(l + 1, tgt);
      Slot s{};
      s.key = nxt.slots[tgt].key;
      s.target = tgt;
      s.flags = kFlagLookahead;
      content.push_back(s);
    }
    write_level(l, content);
  }

  ColaConfig cfg_;
  std::vector<Level> levels_;
  // mutable: the classic-mode copy-on-snapshot path (snapshot() const)
  // allocates logical regions for its per-epoch level copies.
  mutable std::uint64_t next_base_ = 0;
  // Bumped by every mutator; cursor states compare it to reuse their
  // materialized staged view across seeks on an unmutated dictionary.
  std::uint64_t mutation_epoch_ = 0;
  // Mutable: the const read paths (find, Cursor::seek) count their fence
  // skips — observability, not state the reads depend on.
  mutable ColaStats stats_;
  // Kernel dispatch tier resolved once at construction: the process-wide
  // active ISA, or scalar when the simd knob is off (ablations).
  simd::Isa isa_ = simd::Isa::kScalar;
  mutable MM mm_;
  // Staging L0 arena, plane form: a sequence of sorted runs (batches
  // normalized on arrival; single ops are 1-entry runs), flushed as one
  // cascade when full.
  kern::RunBuf<K, V> stage_;
  std::vector<std::uint32_t> stage_runs_;  // begin offset of each run
  std::vector<std::uint32_t> stage_runs_scratch_;
  // Per-run fence keys (parallel to stage_runs_): min/max key of each run,
  // O(1) to maintain, used by find and the cursors to skip runs.
  std::vector<K> stage_run_min_, stage_run_max_;
  // Lazily minted immutable mirrors of the staging runs (parallel to
  // stage_runs_; nullptr = not minted yet). snapshot() fills the gaps and
  // reuses minted mirrors across epochs: appends only add new runs, and
  // the binary-counter tail merge invalidates exactly the runs it rewrites
  // — so a snapshot costs O(new data), not an arena collapse.
  // Mutable: minting happens inside const snapshot().
  mutable std::vector<snap::SegmentRef<K, V>> stage_run_segs_;
  // Tiered cascade scratch: incoming run spans (prepared by callers of
  // cascade_run_tiered), the staging merge scratch, and the normalized
  // unstaged run (both geometries).
  std::vector<kern::RunView<K, V>> incoming_spans_;
  kern::RunBuf<K, V> tfold_tmp_, titem_run_;
  // The writer's own fold job: every fold run on this thread that is not
  // a claimed-back pool job. Its spans, output planes, and kernel scratch
  // persist across folds (held by pointer: the job is not movable).
  std::unique_ptr<compact::FoldJob<K, V>> fold_job_ =
      std::make_unique<compact::FoldJob<K, V>>();
  // insert_batch normalization scratch (Entry-sized: the narrowest form).
  std::vector<Entry<K, V>> entry_batch_, entry_batch_scratch_;
  // Mixed-op batch normalization scratch (TItem-sized: tombstone flags ride
  // through the sort), reused across erase_batch/apply_batch calls.
  std::vector<TItem> titem_batch_, titem_batch_scratch_;
  std::uint64_t stage_base_ = 0;
  bool stage_base_set_ = false;
  // Trivial-move alternation flag: set when the deepest level is relocated
  // unmerged, cleared by the next true bottom fold (see cascade_run_tiered).
  bool bottom_relocated_ = false;
  // Durable-tier spill hooks: segment identity counter, the attached
  // observer (nullptr = memory-only), and the depth at which folds report.
  std::uint64_t next_seg_id_ = 1;
  FoldObserver* fold_observer_ = nullptr;
  std::size_t spill_depth_ = 0;
  // Snapshot cache: snapshot() is a refcount bump while the dictionary is
  // unmutated (snap_epoch_ == mutation_epoch_); the first acquisition after
  // a mutation rebuilds. snap_level_copy_ is the classic copy-on-snapshot
  // extraction scratch.
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  mutable kern::RunBuf<K, V> snap_level_copy_;
  // Dictionary-owned scan cursor backing range_for_each/for_each, so the
  // scan paths reuse one warm merge scratch across calls (mutable: scans
  // are const and the cursor is pure scratch; scans are not reentrant).
  mutable snap::SnapshotCursor<K, V> scan_cur_;
  // Classic level-rewrite scratch, reused so the steady-state insert and
  // batch paths perform zero heap allocations (capacity grows to the
  // high-water mark of the deepest cascade seen, then stays).
  std::vector<Slot> scratch_content_;
  // Classic-cascade plane scratch: the widened incoming run (cls_acc_),
  // the current level's extracted reals (cls_lvl_), and the merge target
  // (cls_tmp_) — the per-level folds run on the SIMD plane kernels, only
  // the final target write returns to Slot form.
  kern::RunBuf<K, V> cls_acc_, cls_lvl_, cls_tmp_;
  // -- background compaction state --------------------------------------------
  // Aggregated compaction counters, relaxed atomics behind a shared_ptr:
  // benches read them while workers add fold time, and the indirection
  // keeps Gcola movable (the factory-return paths) where atomic members
  // would not.
  struct AtomicCompactionStats {
    std::atomic<std::uint64_t> folds_deferred{0};
    std::atomic<std::uint64_t> writer_assists{0};
    std::atomic<std::uint64_t> queue_peak{0};
    std::atomic<std::uint64_t> bg_fold_ns{0};
  };
  // Resolved at construction: tiered + compaction_threads > 0 + null
  // memory model + no COSTREAM_COMPACTION=sync override.
  bool bg_enabled_ = false;
  // The single pending-fold slot (empty: no fold in flight). pend_target_
  // is the install level, pend_prior_segs_ the install index (segments
  // below it predate the fold); the job's `total` is the PRE-dedup input
  // mass (capacity accounting and item_count both need the
  // physically-present figure).
  std::shared_ptr<compact::FoldJob<K, V>> pend_job_;
  std::size_t pend_target_ = 0;
  std::size_t pend_prior_segs_ = 0;
  std::shared_ptr<AtomicCompactionStats> cstats_ =
      std::make_shared<AtomicCompactionStats>();
};

/// The paper's headline configuration: growth 2, pointer density 0.1.
template <class K = Key, class V = Value, class MM = dam::null_mem_model>
using Cola = Gcola<K, V, MM>;

/// Basic COLA (Section 3 before fractional cascading): no lookahead
/// pointers, O(log^2 N) searches.
template <class K = Key, class V = Value, class MM = dam::null_mem_model>
Gcola<K, V, MM> make_basic_cola(unsigned growth = 2, MM mm = MM{}) {
  return Gcola<K, V, MM>(ColaConfig{growth, 0.0}, std::move(mm));
}

}  // namespace costream::cola
