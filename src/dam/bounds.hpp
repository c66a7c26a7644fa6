// Closed-form DAM transfer bounds for the growth-factor family — the
// quantities the theory predicts and the simulator measures.
//
// The paper's Section 3 cache-aware tradeoff (lookahead array, growth g):
//
//   insert (amortized)  O(log_g N * g / B)   transfers
//   search              O(log_g N)           transfers
//
// g = 2 is the COLA point (insert O((log N)/B), search O(log N));
// g = Theta(B^eps) is the B^eps-tree point. A staging L0 arena of S entries
// does not change the asymptotics — it divides the constant on the insert
// bound by the number of batches it absorbs and adds O(S/B) to a cold
// search, which is exactly the knob the ingest-tuned presets turn.
//
// These helpers return the bound WITHOUT the constant: callers (tests,
// benches) compare measured transfers-per-op against `c * bound` for a
// structure-specific constant c, the same shape the figure benches print.
//
// Background compaction (cola/compactor.hpp) does NOT change any bound
// here: a deferred fold moves exactly the bytes the inline fold would
// have moved, just on a pool thread. Under a counting memory model the
// Gcola runs every fold inline (the engine self-disables for non-null
// models), so modeled transfers/op are bit-identical with the engine on
// or off — transfer_bounds_test relies on that equivalence.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace costream::dam {

/// log base g of n, floored at 1 so degenerate small-n cases stay sane.
inline double log_growth(double n, double growth) noexcept {
  return std::max(1.0, std::log(std::max(2.0, n)) / std::log(std::max(2.0, growth)));
}

/// Amortized insert transfer bound for a growth-g lookahead array / COLA:
/// log_g(N) * g / B, with B measured in elements. Each of the log_g N
/// levels rewrites its contents g - 1 times before draining, so every
/// element is moved Theta(g) times per level at streaming cost 1/B each.
inline double cola_insert_transfer_bound(double n, double growth,
                                         double block_elems) noexcept {
  return log_growth(n, growth) * growth / std::max(1.0, block_elems);
}

/// Cold-search transfer bound for the same family: log_g N levels, and per
/// level one bounded window (lookahead pointers, classic mode) or up to
/// `segments_per_level` binary-searched segments (tiered mode: g - 1). A
/// staging arena of `staged_elems` adds its probe cost.
inline double cola_search_transfer_bound(double n, double growth,
                                         double block_elems,
                                         double staged_elems = 0.0,
                                         double segments_per_level = 1.0) noexcept {
  return log_growth(n, growth) * std::max(1.0, segments_per_level) +
         staged_elems / std::max(1.0, block_elems);
}

/// Cold-search transfer bound for the tiered COLA WITH per-segment fence
/// keys: of the up-to-`segments_per_level` segments a level holds, a find
/// or cursor seek binary-searches only the segments whose [min, max] fence
/// range covers the probe — the rest are skipped at zero transfers. With
/// `fence_skip_fraction` the fraction of segments skipped (measured:
/// ColaStats::fence_seg_skips / segments considered; ~0 for uniformly
/// random feeds whose segments all span the keyspace, approaching
/// (g-2)/(g-1) for time-partitioned feeds whose segments are range-
/// disjoint), each level costs 1 + (segs-1)*(1-skip) probed segments
/// instead of segs. Staging-arena runs carry the same per-run fences, so
/// `staged_elems` contributes only its unskipped streaming share; we keep
/// the full arena term as the (conservative) bound.
inline double cola_fence_search_transfer_bound(double n, double growth,
                                               double block_elems,
                                               double staged_elems,
                                               double segments_per_level,
                                               double fence_skip_fraction) noexcept {
  const double skip = std::min(1.0, std::max(0.0, fence_skip_fraction));
  const double segs = std::max(1.0, segments_per_level);
  const double probed = 1.0 + (segs - 1.0) * (1.0 - skip);
  return log_growth(n, growth) * probed +
         staged_elems / std::max(1.0, block_elems);
}

/// Cold-search transfer bound for the tiered COLA with per-segment
/// FINGERPRINT FILTERS (common/filter.hpp) layered on top of fences. A
/// filter answers "definitely absent" for (1 - fpr) of the segments the
/// fences could not rule out, so of the up-to-`segments_per_level` segments
/// a level holds, a cold find probes an expected
///
///   1 + fpr * (segs - 1)
///
/// segments — at most one true hit plus the false-positive share of the
/// rest. This is the uniform-random complement to the fence bound above:
/// fences win when segments are range-disjoint (skip fraction -> 1), filters
/// win when every segment spans the keyspace (skip fraction -> 0) — which is
/// exactly the regime the filter ablation benches measure. Pass
/// filt::kDesignFpr for `fpr` to get the design-point bound, or a measured
/// rate (ColaStats::find_seg_probes / filter_seg_skips) to validate it;
/// transfer_bounds_test.cpp checks measured probes against this form.
/// Filter blocks themselves live beside the fence keys and are charged as
/// in-memory metadata, like fences — no extra transfer term.
inline double cola_filter_search_transfer_bound(double n, double growth,
                                                double block_elems,
                                                double staged_elems,
                                                double segments_per_level,
                                                double fpr) noexcept {
  const double p = std::min(1.0, std::max(0.0, fpr));
  const double segs = std::max(1.0, segments_per_level);
  const double probed = 1.0 + (segs - 1.0) * p;
  return log_growth(n, growth) * probed +
         staged_elems / std::max(1.0, block_elems);
}

/// Amortized transfer bound for a MIXED put/erase feed (erase_batch /
/// apply_batch) on the tiered COLA with bounded tombstone retention.
/// Tombstones are insertions to the cascade — the paper's delete treatment —
/// so they pay the insert bound; the bounded-retention policy adds the
/// forced bottom folds: one full rewrite of the deepest level per
/// (threshold * |level|) tombstone arrivals, i.e. an extra
/// erase_fraction / (threshold * B) transfers per operation. The threshold
/// is the space/ingest knob: tighter bounds cost proportionally more fold
/// traffic, looser ones retain proportionally more dead slots.
inline double cola_mixed_op_transfer_bound(double n, double growth,
                                           double block_elems,
                                           double erase_fraction,
                                           double tombstone_threshold) noexcept {
  const double theta =
      std::min(1.0, std::max(0.05, tombstone_threshold));
  const double ef = std::min(1.0, std::max(0.0, erase_fraction));
  return cola_insert_transfer_bound(n, growth, block_elems) +
         ef / (theta * std::max(1.0, block_elems));
}

/// Amortized insert transfer bound for the SHARDED facade
/// (shard/sharded_dictionary.hpp): the keyspace splits into `shards` range
/// partitions, each an independent growth-g structure holding ~N/S
/// elements, so every element pays (a) one streaming scatter write of the
/// front-end splitter, O(1/B), and (b) the per-structure insert bound at
/// N/S scale. Sharding therefore shaves log_g S levels off every element's
/// cascade cost — a second-order win; the first-order win is WALL time,
/// since the S per-shard cascades run on S cores while the bound here is
/// the TOTAL transfer volume across all shards.
inline double sharded_insert_transfer_bound(double n, double shards,
                                            double growth,
                                            double block_elems) noexcept {
  const double s = std::max(1.0, shards);
  return 1.0 / std::max(1.0, block_elems) +
         cola_insert_transfer_bound(n / s, growth, block_elems);
}

/// Cold-search transfer bound for the sharded facade: a find routes to
/// exactly ONE shard (a key lives in exactly one range partition), so the
/// cost is the per-structure search bound at N/S scale — sharding never
/// multiplies point-read cost, it divides the N each probe sees.
///
/// There is NO drain term: the facade's find() is barrier-free (it never
/// waits out the target shard's queue before probing), so a point read
/// pays structural transfers only. Those transfers are realized on the
/// shard-owner side — the facade searches the worker-PUBLISHED immutable
/// view plus the runs queued for the worker, both in-memory mirrors the
/// DAM model charges nothing for, while the worker's own leveled searches
/// (d.shard(s).find(k), which transfer_bounds_test measures) pay exactly
/// this bound. Staged elements are covered by the published per-staging-run
/// segments, the `staged_elems` term of the underlying COLA bound.
inline double sharded_search_transfer_bound(double n, double shards,
                                            double growth, double block_elems,
                                            double staged_elems = 0.0,
                                            double segments_per_level = 1.0) noexcept {
  const double s = std::max(1.0, shards);
  return cola_search_transfer_bound(n / s, growth, block_elems, staged_elems,
                                    segments_per_level);
}

/// Per-operation transfer bound for the write-ahead log in front of the
/// tiered COLA (storage/wal.hpp): every mutation appends one framed record
/// of `record_bytes` sequentially, a streaming cost of record_bytes / B
/// blocks, plus `syncs_per_op` forced barriers that each pay at least one
/// block regardless of how little data they cover. Group commit is exactly
/// the knob that drives syncs_per_op from 1 (kAlways) toward
/// record_bytes / group_commit_bytes (kBatch) — the WAL is asymptotically
/// free relative to the cascade's log_g(N) * g / B as long as syncs are
/// amortized, which is what the wal-on/wal-off bench arms measure.
inline double wal_append_transfer_bound(double record_bytes, double block_bytes,
                                        double syncs_per_op) noexcept {
  return record_bytes / std::max(1.0, block_bytes) +
         std::max(0.0, syncs_per_op);
}

/// Elements a tiered COLA of growth g can hold in the levels shallower
/// than `depth`: level 0 holds one, level l >= 1 holds 2(g-1)g^(l-1), so
/// the sum is 2 g^(depth-1) - 1 (0 for depth 0).
inline double cola_shallow_capacity(double growth, double depth) noexcept {
  if (depth < 1.0) return 0.0;
  return 2.0 * std::pow(std::max(2.0, growth), depth - 1.0) - 1.0;
}

/// Amortized checkpoint transfer bound, once every `ops_per_checkpoint`
/// operations (the checkpoint_wal_bytes policy divided by the per-op
/// record size), for elements of `entry_bytes` each. A checkpoint writes
/// only what has no segment file yet: the staging arena (`staged_elems`)
/// and the levels shallower than `spill_depth`, cascaded into one segment,
/// at most cola_shallow_capacity(g, spill_depth) + staged_elems elements
/// whatever n is; files already on disk are referenced, not rewritten.
/// The cascade lands in the first spilled level with room, so when that
/// level is full it drains through it exactly as the next arriving run
/// would have: that drain is the insert bound's, not the checkpoint's.
/// One-offs write more: what a trivial move carried across the spill
/// depth while the store first grew past it (a level's worth), a spill
/// whose write failed, and what the folds of a reopen's WAL tail produced;
/// the segment files a reopen adopts are referenced like any other. Only
/// when the feed since the last full fold was not append-only
/// (`full_fold`: a tombstone logged or a duplicate dropped) does the
/// checkpoint fold all n elements into one segment. Spread over the
/// interval, each operation carries written * entry_bytes /
/// (ops_per_checkpoint * B) transfers of checkpoint traffic — the term to
/// add to wal_append_transfer_bound for the durable tier's total write
/// amplification; the manifest, ~40 bytes per live segment, adds a block
/// or two per checkpoint.
inline double checkpoint_transfer_bound(double n, double entry_bytes,
                                        double ops_per_checkpoint,
                                        double block_bytes, double growth,
                                        double spill_depth,
                                        double staged_elems,
                                        bool full_fold) noexcept {
  const double written =
      full_fold ? n : cola_shallow_capacity(growth, spill_depth) + staged_elems;
  return written * entry_bytes /
         (std::max(1.0, ops_per_checkpoint) * std::max(1.0, block_bytes));
}

}  // namespace costream::dam
