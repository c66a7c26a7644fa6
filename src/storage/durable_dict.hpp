// DurableDictionary: the crash-consistent tier over a tiered Gcola.
//
// Serving stays in memory — finds, cursors, and range scans delegate to the
// inner Gcola — while every mutation is made durable BEFORE it is applied:
//
//   mutation call -> one WAL record (per-record CRC32C, stamped with the
//   last seqno the call consumed, group-commit batched per the fsync
//   policy) -> inner apply -> maybe checkpoint.
//
// Folds landing at or past spill_depth stream their segment to an
// immutable checksummed spill file (segment_file.hpp) through the Gcola's
// FoldObserver hook, and every spill installs a manifest tying the current
// WAL epoch to the live segment set, then deletes the files of the
// segments the fold consumed.
//
// A checkpoint persists a version as a set of immutable segments, writing
// only what has no file yet (Gcola::compact): the staging arena and the
// levels shallower than spill_depth cascade into the first spilled level
// with room, every segment at spill_depth or deeper that still has no file
// is written, the WAL rotates, and one manifest at covered_seqno = seqno
// lists exactly the in-memory segment set with levels, oldest first
// (deepest level first, oldest segment first within a level). Files
// already on disk are referenced, never rewritten, so a checkpoint costs
// O(shallow levels + segments without a file), not O(N). Segments without
// a file at spill_depth or deeper come from a trivial move across
// spill_depth, a spill whose write failed, and every segment recovery
// replays (the observer attaches after replay, so the first checkpoint of
// a process generation rewrites the replayed state once and drops the
// recovered files). When the feed since the last full fold was not
// append-only — a tombstone logged or a duplicate dropped by a fold — the
// checkpoint instead folds EVERYTHING into one stripped segment first:
// the full fold is the garbage collector that bounds on-disk dead mass.
// Files the new manifest no longer lists, and WAL files older than the new
// epoch, are deleted once it is durable, best-effort: a file that cannot
// be removed is garbage the next collection retries.
//
// A size-triggered checkpoint that fails is DEFERRED, not thrown: the
// mutation that tripped it already succeeded (WAL + memory + seqno), so
// the failure lands in stats.checkpoint_failures / last_checkpoint_error()
// and the next window retries. Only an explicit checkpoint() call throws.
//
// Recovery (the constructor) replays manifest -> segments (in manifest
// order, which is content-age order, so newest-wins replay reconstructs
// the merge view) -> WAL tail (records past covered_seqno,
// torn tails truncated). The segment-id counter is seeded past every
// manifest-live id BEFORE replay so replay-minted in-memory segment ids
// never collide with on-disk ones, and replay must reach the
// manifest-vouched durable seqno — falling short means acknowledged
// records were destroyed, not torn. That, or any missing/corrupt state,
// degrades to READ-ONLY mode — reads serve whatever was recovered,
// mutations throw ReadOnlyError — unless cfg.strict, which throws
// instead. Never UB.
//
// Correctness of the always-installed manifest: a spill's manifest keeps
// the OLD covered_seqno and appends its segment after every file it keeps,
// and each kept file holding covered data is older than the new segment,
// so the list stays in content-age order for the covered prefix; content
// past covered_seqno is also in the WAL tail, and replaying the segments
// first and the (in-seqno-order) WAL tail after converges to the
// pre-crash state because the last operation on a key wins. A file leaves
// a manifest only once the manifest replacing it lists files holding all
// of its live content. covered_seqno advances ONLY in a checkpoint's
// manifest, after every in-memory segment has a synced file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cola/cola.hpp"
#include "common/entry.hpp"
#include "common/error.hpp"
#include "storage/env.hpp"
#include "storage/manifest.hpp"
#include "storage/segment_file.hpp"
#include "storage/wal.hpp"

namespace costream::storage {

struct DurableConfig {
  cola::ColaConfig inner = cola::ingest_tuned(8, 1024);
  FsyncPolicy fsync_policy = FsyncPolicy::kBatch;
  // Group-commit window under kBatch: records accumulate until this many
  // buffered bytes, then one write+fsync covers them all. ~1 MiB (~50k ops
  // at 21 bytes each) keeps fsync count negligible at ingest rates; lower
  // it to bound the durability lag, or use kAlways for per-record fsync.
  std::size_t group_commit_bytes = 1u << 20;
  std::size_t wal_segment_bytes = 4u << 20;
  // Checkpoint when this many WAL bytes accumulate since the last one. A
  // checkpoint writes only what has no segment file yet, whatever the
  // store's size (file header; dam::checkpoint_transfer_bound), and lets
  // the WAL before it go.
  std::size_t checkpoint_wal_bytes = 8u << 20;
  // Folds landing at or past this level spill to segment files. Each
  // spill pays a segment write plus a manifest install (several fsyncs),
  // so the default targets levels big enough to amortize that: at the
  // default g=8 inner, level 6 holds 2*(g-1)*g^5 = 458752 entries (~7.5
  // MiB segments). Shallower levels stay memory-resident with the WAL (as
  // bounded by checkpoint_wal_bytes) covering them. Shallow settings are
  // for tests that want spills often.
  std::size_t spill_depth = 6;
  std::size_t segment_block_bytes = 4096;
  std::size_t block_cache_bytes = 1u << 20;
  // Strict mode: throw CorruptionError from recovery instead of degrading
  // to read-only.
  bool strict = false;
};

struct DurableStats {
  std::uint64_t wal_records = 0;
  std::uint64_t checkpoints = 0;
  // Automatic (size-triggered) checkpoints that failed and were deferred.
  // The mutation that triggered them still succeeded — the WAL carries
  // durability — so the failure surfaces here (and in
  // last_checkpoint_error()) instead of as a throw from the mutator.
  std::uint64_t checkpoint_failures = 0;
  // Spills whose write or manifest install failed. The segment stays in
  // memory without a file, the WAL still covers it, and the next
  // checkpoint writes it.
  std::uint64_t spill_failures = 0;
  // Segment files written, by spills and by checkpoints.
  std::uint64_t segments_spilled = 0;
  std::uint64_t segments_retired = 0;
  std::uint64_t recovered_segment_entries = 0;
  std::uint64_t recovered_wal_records = 0;
  bool wal_tail_torn = false;
};

class DurableDictionary {
  using Cola = cola::Gcola<Key, Value>;

 public:
  /// Open (recovering if state exists) against a borrowed env — the fault
  /// harness's spelling, so it keeps its handle for crash control.
  DurableDictionary(StorageEnv& env, DurableConfig cfg = {})
      : st_(std::make_unique<State>(nullptr, env, cfg)) {}

  /// Open against an owned env (the production spelling: PosixEnv on a
  /// directory).
  DurableDictionary(std::unique_ptr<StorageEnv> env, DurableConfig cfg = {})
      : st_(std::make_unique<State>(std::move(env), cfg)) {}

  DurableDictionary(DurableDictionary&&) noexcept = default;
  DurableDictionary& operator=(DurableDictionary&&) noexcept = default;

  // -- mutators (WAL first, memory second) ---------------------------------

  void insert(const Key& k, const Value& v) {
    const Op<> op = Op<>::put(k, v);
    st_->apply_ops(&op, 1);
  }

  void erase(const Key& k) {
    const Op<> op = Op<>::del(k);
    st_->apply_ops(&op, 1);
  }

  void insert_batch(Span<Entry<>> batch) {
    st_->insert_entries(batch.data(), batch.size());
  }

  void erase_batch(Span<Key> keys) {
    st_->ops_scratch.clear();
    st_->ops_scratch.reserve(keys.size());
    for (const Key& k : keys) st_->ops_scratch.push_back(Op<>::del(k));
    st_->apply_ops(st_->ops_scratch.data(), keys.size());
  }

  void apply_batch(Span<Op<>> ops) { st_->apply_ops(ops.data(), ops.size()); }

  /// Drain the inner staging arena (memory-only: the arena's content is
  /// already WAL-logged, so this changes layout, not durability).
  void flush_stage() {
    st_->throw_if_read_only();
    st_->inner.flush_stage();
  }

  /// Group-commit barrier: every record appended so far is durable on
  /// return (modulo a lying device).
  void sync() {
    st_->throw_if_read_only();
    st_->wal->sync();
  }

  /// Force a checkpoint: every in-memory segment given a file,
  /// covered_seqno advanced, WAL rotated, obsolete files collected.
  void checkpoint() {
    st_->throw_if_read_only();
    st_->checkpoint();
  }

  // -- reads (served from memory; legal in read-only mode) -----------------

  std::optional<Value> find(const Key& k) const { return st_->inner.find(k); }

  /// Point-in-time snapshot of the in-memory state (contract in
  /// api/dictionary.hpp): a passthrough to the inner COLA's ref-counted
  /// segment snapshot. Durability is orthogonal — the snapshot pins what
  /// the memory tier holds NOW, which already reflects every accepted op.
  snap::Snapshot<Key, Value> snapshot() const { return st_->inner.snapshot(); }

  auto make_cursor() const { return st_->inner.make_cursor(); }

  template <class Fn>
  void range_for_each(const Key& lo, const Key& hi, Fn&& fn) const {
    st_->inner.range_for_each(lo, hi, std::forward<Fn>(fn));
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    st_->inner.for_each(std::forward<Fn>(fn));
  }

  // -- observability -------------------------------------------------------

  /// Last sequence number assigned (== number of ops accepted since the
  /// directory was created, across every process generation).
  std::uint64_t seqno() const noexcept { return st_->seqno; }
  /// Highest seqno the WAL believes durable under the fsync policy.
  std::uint64_t durable_seqno() const noexcept {
    return st_->wal ? std::max(st_->covered_seqno, st_->wal->durable_seqno())
                    : st_->covered_seqno;
  }
  /// Seqno reconstructed by recovery when this instance opened.
  std::uint64_t last_recovered_seqno() const noexcept {
    return st_->last_recovered_seqno;
  }
  bool read_only() const noexcept { return st_->read_only; }
  /// True when a failed WAL append could not be unwound from the device:
  /// the epoch is wedged (every mutation throws) and exactly one
  /// unacknowledged record MAY survive to the next recovery. Reopen to
  /// resolve it.
  bool wal_poisoned() const noexcept {
    return st_->wal != nullptr && st_->wal->poisoned();
  }
  const std::string& corruption_detail() const noexcept {
    return st_->corruption_detail;
  }
  /// Detail of the most recent failed AUTOMATIC (size-triggered)
  /// checkpoint; empty once a later checkpoint succeeds. Mutators never
  /// throw for a deferred checkpoint failure — poll this (or
  /// stats.checkpoint_failures) for storage health. An explicit
  /// checkpoint() call still throws on failure.
  const std::string& last_checkpoint_error() const noexcept {
    return st_->last_checkpoint_error;
  }
  const DurableStats& storage_stats() const noexcept { return st_->stats; }
  std::size_t live_segment_files() const noexcept { return st_->live.size(); }
  const Cola& inner() const noexcept { return st_->inner; }
  Cola& inner_mut() noexcept { return st_->inner; }
  void check_invariants() const { st_->inner.check_invariants(); }

 private:
  struct State;

  /// The Gcola-side spill hook. Runs inside a fold, so it must not throw:
  /// a failure is counted and the disk live-set is left unchanged. The
  /// segment then stays in memory without a file, the WAL still covers
  /// it, and the next checkpoint writes it.
  ///
  /// Background compaction keeps the WAL-synced-before-install invariant
  /// for free: with compaction_threads > 0 the Gcola still fires this hook
  /// on the MUTATING thread, at the moment the finished fold installs
  /// (poll/assist) — never from a pool worker — so the WAL barrier below
  /// runs before the spill file lands exactly as in the inline path, and
  /// State needs no extra locking.
  struct Spiller final : Cola::FoldObserver {
    State* st = nullptr;

    void on_segment_spill(std::size_t level, const snap::Segment<Key, Value>* seg,
                          const std::uint64_t* consumed,
                          std::size_t n_consumed) override {
      std::vector<std::string> dropped;
      try {
        // WAL barrier BEFORE the segment lands: every op a fold can spill
        // must already be durable in the log, or a crash would leave a
        // manifest-referenced segment holding ops beyond the durable WAL —
        // phantom future data that recovery could not place on the seqno
        // axis. (Replay converges by last-op-wins only when segment
        // content is a subset of covered-prefix + durable WAL tail.)
        if (seg != nullptr && st->wal) st->wal->sync();
        std::vector<SegmentMeta> live;
        live.reserve(st->live.size() + 1);
        const std::unordered_set<std::uint64_t> gone(consumed,
                                                     consumed + n_consumed);
        for (const auto& s : st->live) {
          if (gone.count(s.seg_id) == 0) {
            live.push_back(s);
          } else {
            dropped.push_back(s.name);
          }
        }
        if (seg != nullptr) {
          live.push_back(st->write_segment_file(level, *seg));
          st->env->sync_dir();
          // The file is whole and its name durable, and a failed install
          // below may still have renamed its manifest into place: list it
          // either way (next to the consumed files, it is still an
          // oldest-first list), so nothing rewrites a referenced file.
          st->live.push_back(live.back());
        }
        Manifest m;
        m.covered_seqno = st->covered_seqno;
        // The sync barrier above makes every logged record durable; stamp
        // that boundary so replay can tell corruption in the vouched-for
        // region from a legal tear of unsynced appends.
        m.durable_seqno = std::max(
            st->covered_seqno, st->wal ? st->wal->durable_seqno() : 0);
        m.next_file_no = st->wal ? st->wal->file_no() + 1 : st->next_wal_no;
        m.segments = live;
        install_manifest(*st->env, m);
        st->stats.segments_retired += dropped.size();
        st->live = std::move(live);
      } catch (const std::exception&) {
        ++st->stats.spill_failures;
        return;
      }
      // The manifest that drops the consumed files is durable: delete them
      // now rather than at the next checkpoint.
      try {
        for (const std::string& name : dropped) st->remove_garbage(name);
      } catch (const std::exception&) {
        // a power cut: the env is down, and recovery collects the orphans
      }
    }
  };

  struct State {
    std::unique_ptr<StorageEnv> owned_env;
    StorageEnv* env;
    DurableConfig cfg;
    Cola inner;
    Spiller spiller;
    std::unique_ptr<WalWriter> wal;
    std::vector<SegmentMeta> live;
    BlockCache cache;
    std::uint64_t seqno = 0;
    std::uint64_t covered_seqno = 0;
    std::uint64_t next_wal_no = 0;
    std::uint64_t last_recovered_seqno = 0;
    std::uint64_t wal_bytes_at_checkpoint = 0;
    // The feed since the last full fold, as the checkpoint's garbage
    // collector reads it: a tombstone was logged (or replayed), and the
    // inner duplicates_dropped counter at that fold.
    bool tombstone_seen = false;
    std::uint64_t dups_at_full_fold = 0;
    bool read_only = false;
    std::string corruption_detail;
    std::string last_checkpoint_error;
    DurableStats stats;
    std::vector<Op<>> ops_scratch;
    std::vector<Op<>> replay_scratch;

    State(std::unique_ptr<StorageEnv> owned, StorageEnv& borrowed,
          DurableConfig c)
        : owned_env(std::move(owned)),
          env(&borrowed),
          cfg(c),
          inner(tiered_only(c.inner)),
          cache(c.block_cache_bytes) {
      spiller.st = this;
      recover();
    }

    State(std::unique_ptr<StorageEnv> owned, DurableConfig c)
        : owned_env(std::move(owned)),
          env(owned_env.get()),
          cfg(c),
          inner(tiered_only(c.inner)),
          cache(c.block_cache_bytes) {
      spiller.st = this;
      recover();
    }

    /// Spills and checkpoints persist tiered segments: classic levels
    /// report no folds to the spiller and cannot be checkpointed, so a
    /// classic inner config would lose data at the first checkpoint.
    static const cola::ColaConfig& tiered_only(const cola::ColaConfig& c) {
      if (!c.tiered) {
        throw std::invalid_argument(
            "DurableDictionary: the inner COLA must be tiered "
            "(cola::ingest_tuned)");
      }
      return c;
    }

    void throw_if_read_only() const {
      if (read_only) {
        throw ReadOnlyError("durable dictionary is read-only: " +
                            corruption_detail);
      }
    }

    void apply_ops(const Op<>* ops, std::size_t n) {
      throw_if_read_only();
      if (n == 0) return;
      const std::uint64_t last = seqno + n;  // one seqno per op in the call
      wal->append_ops(last, ops, n);  // throws before memory is touched
      ++stats.wal_records;
      seqno = last;
      if (!tombstone_seen) {
        tombstone_seen =
            std::any_of(ops, ops + n, [](const Op<>& o) { return o.erase; });
      }
      inner.apply_batch(Span<Op<>>(ops, n));
      maybe_checkpoint();
    }

    /// Pure-insert bulk path: WAL-log the entries directly (flags = 0) and
    /// feed the inner structure its native Entry-wide insert_batch, skipping
    /// the Entry -> Op widening copy apply_ops would need.
    void insert_entries(const Entry<>* data, std::size_t n) {
      throw_if_read_only();
      if (n == 0) return;
      const std::uint64_t last = seqno + n;  // one seqno per entry
      wal->append_puts(last, data, n);  // throws before memory is touched
      ++stats.wal_records;
      seqno = last;
      inner.insert_batch(Span<Entry<>>(data, n));
      maybe_checkpoint();
    }

    void maybe_checkpoint() {
      if (wal->bytes_logged() - wal_bytes_at_checkpoint <
          cfg.checkpoint_wal_bytes) {
        return;
      }
      try {
        checkpoint();
      } catch (const CrashError&) {
        throw;  // scheduled power cut: the whole process is going down
      } catch (const IOError& e) {
        // The mutation that triggered this call already fully succeeded
        // (record WAL-appended per policy, memory applied, seqno
        // advanced), so a throw here would make callers believe the op
        // was NOT applied when it durably was. Durability never needed
        // the checkpoint — the WAL still carries everything — so defer:
        // record the failure for health observers and retry once another
        // checkpoint_wal_bytes window accumulates (immediate per-op
        // retries would pay a checkpoint per mutation).
        ++stats.checkpoint_failures;
        last_checkpoint_error = e.what();
        wal_bytes_at_checkpoint = wal->bytes_logged();
      }
    }

    /// Persist the in-memory state as one version of immutable segment
    /// files: settle everything at spill_depth or deeper (a cascade of the
    /// shallow levels, or the full fold when the feed since the last one
    /// was not append-only), write each segment that has no file yet, open
    /// a new WAL epoch, install one manifest listing exactly the in-memory
    /// segment set at covered_seqno = seqno, and collect what it obsoletes.
    void checkpoint() {
      const bool full = tombstone_seen ||
                        inner.stats().duplicates_dropped != dups_at_full_fold;
      inner.compact(cfg.spill_depth, full);
      if (full) {
        tombstone_seen = false;
        dups_at_full_fold = inner.stats().duplicates_dropped;
      }
      // Every segment now sits at spill_depth or deeper. Reference the
      // ones with a file (at their current level: a trivial move
      // relocates a file-backed segment), write the ones without.
      std::unordered_set<std::uint64_t> filed;
      for (const auto& s : live) filed.insert(s.seg_id);
      std::vector<SegmentMeta> next;
      std::size_t kept = 0;
      bool wrote = false;
      inner.for_each_segment(
          [&](std::size_t level, const snap::Segment<Key, Value>& seg) {
            if (filed.count(seg.id) == 0) {
              next.push_back(write_segment_file(level, seg));
              wrote = true;
              return;
            }
            ++kept;
            next.push_back({seg_detail::segment_name(seg.id), seg.id,
                            static_cast<std::uint32_t>(level),
                            static_cast<std::uint64_t>(seg.size())});
          });
      if (wrote) env->sync_dir();
      // covered_seqno (and with it durable_seqno's floor) advances in
      // memory only once the manifest that PROVES it is durably installed;
      // a throw anywhere below leaves the old honest value, with the WAL
      // (synced by rotate) still carrying everything.
      const std::uint64_t new_covered = seqno;
      wal->rotate();  // sync + fresh "wal-<n>.log", name durable
      Manifest m;
      m.covered_seqno = new_covered;
      m.durable_seqno = std::max(new_covered, wal->durable_seqno());
      m.next_file_no = wal->file_no() + 1;
      m.segments = next;
      install_manifest(*env, m);
      covered_seqno = new_covered;
      wal_bytes_at_checkpoint = wal->bytes_logged();
      ++stats.checkpoints;
      stats.segments_retired += live.size() - kept;
      last_checkpoint_error.clear();
      live = std::move(next);
      gc(wal->file_no());
    }

    /// Write one in-memory segment to its spill file (contents fsynced;
    /// the caller commits the name) and return its manifest entry.
    SegmentMeta write_segment_file(std::size_t level,
                                   const snap::Segment<Key, Value>& seg) {
      const std::string name = seg_detail::segment_name(seg.id);
      SegmentWriter w(*env, name, cfg.segment_block_bytes);
      for (std::size_t i = 0; i < seg.size(); ++i) {
        w.add({seg.keys[i], seg.vals[i],
               seg.is_tombstone(i) ? kEntryTombstone : std::uint8_t{0}});
      }
      w.finish();
      ++stats.segments_spilled;
      return {name, seg.id, static_cast<std::uint32_t>(level),
              static_cast<std::uint64_t>(seg.size())};
    }

    /// Delete a file no durable manifest references. Best-effort: the
    /// manifest that made it garbage is already installed, so a file that
    /// cannot be removed merely waits for the next collection. Only a
    /// scheduled power cut propagates (the harness must see it).
    void remove_garbage(const std::string& name) {
      try {
        with_retry(*env, [&] { env->remove_file(name); });
      } catch (const CrashError&) {
        throw;
      } catch (const IOError&) {
      }
    }

    /// Collect the segment files outside the live set and the WAL files
    /// numbered below `wal_below` (0 at open, where older WAL files may
    /// still hold the tail being replayed). Best-effort, like
    /// remove_garbage: the next checkpoint retries whatever stays.
    void gc(std::uint64_t wal_below) {
      std::unordered_set<std::string> keep;
      for (const auto& s : live) keep.insert(s.name);
      try {
        for (const auto& name :
             with_retry(*env, [&] { return env->list(); })) {
          std::uint64_t no;
          if (wal_detail::parse_wal_name(name, no)) {
            if (no < wal_below) remove_garbage(name);
          } else if (name.size() > 4 && name.compare(0, 4, "seg-") == 0 &&
                     keep.count(name) == 0) {
            remove_garbage(name);
          }
        }
        with_retry(*env, [&] { env->sync_dir(); });
      } catch (const CrashError&) {
        throw;
      } catch (const IOError&) {
      }
    }

    /// Rebuild memory from disk: manifest -> segments -> WAL tail. See the
    /// file header for the protocol and the degradation rules.
    void recover() {
      try {
        std::uint64_t max_seg_id = 0;
        // The durable-WAL boundary this recovery can vouch for: what the
        // manifest proved fsynced at install time (0 with no manifest —
        // then every CRC break is classified as a tear, which is the only
        // sound reading when nothing durable was ever promised).
        std::uint64_t wal_durable = 0;
        auto mopt = with_retry(*env, [&] { return load_manifest(*env); });
        if (mopt.has_value()) {
          covered_seqno = mopt->covered_seqno;
          wal_durable = std::max(mopt->covered_seqno, mopt->durable_seqno);
          next_wal_no = mopt->next_file_no;
          live = std::move(mopt->segments);
          for (const auto& s : live) {
            max_seg_id = std::max(max_seg_id, s.seg_id);
          }
          // Seed the in-memory segment-id counter past every manifest-live
          // id BEFORE any replay apply_batch runs: replay mints in-memory
          // segment ids, and an id shared with an on-disk segment would be
          // reported as consumed by the first post-recovery fold past
          // spill_depth — wrongly retiring (and then gc'ing) the live file,
          // which loses the covered prefix once the WAL no longer holds it.
          inner.set_next_seg_id(max_seg_id + 1);
          for (const auto& s : live) replay_segment(s);
        }
        const WalReplayResult wres = replay_wal(
            *env, covered_seqno, wal_durable, cfg.strict,
            [&](const WalRecord& rec) {
              replay_scratch.clear();
              replay_scratch.reserve(rec.entries.size());
              for (const auto& e : rec.entries) {
                const bool del = (e.flags & 1u) != 0;
                tombstone_seen = tombstone_seen || del;
                replay_scratch.push_back(del ? Op<>::del(e.key)
                                             : Op<>::put(e.key, e.value));
              }
              inner.apply_batch(replay_scratch);
              ++stats.recovered_wal_records;
            });
        stats.wal_tail_torn = wres.tore;
        // Replay must REACH the boundary the manifest vouched fsynced: a
        // break — or wholesale WAL-file loss — below it cannot be a legal
        // tear, because a sync barrier covered those records. replay_wal
        // catches breaks FOLLOWED by an intact durable record; this check
        // catches the complement, where the vouched tail itself (or every
        // WAL file) was destroyed and replay would otherwise silently
        // accept the shorter prefix and reissue acknowledged seqnos.
        if (std::max(covered_seqno, wres.last_seqno) < wal_durable) {
          throw CorruptionError(
              "wal: replay reached seqno " +
              std::to_string(std::max(covered_seqno, wres.last_seqno)) +
              " but the manifest vouches fsynced records through " +
              std::to_string(wal_durable) +
              " — acknowledged-durable records are missing");
        }
        seqno = std::max(covered_seqno, wres.last_seqno);
        last_recovered_seqno = seqno;
        next_wal_no = std::max(next_wal_no, wres.next_file_no);
        // A fresh epoch per process generation: never append to a possibly
        // torn pre-crash file.
        wal = std::make_unique<WalWriter>(
            *env,
            WalOptions{cfg.fsync_policy, cfg.group_commit_bytes,
                       cfg.wal_segment_bytes},
            next_wal_no);
        inner.set_fold_observer(&spiller, cfg.spill_depth);
        gc(/*wal_below=*/0);  // segment files of crashed spills
      } catch (const CrashError&) {
        throw;  // scheduled power cut mid-recovery: the harness reopens
      } catch (const TransientIOError&) {
        throw;  // retries exhausted: device trouble, not corruption
      } catch (const CorruptionError& e) {
        degrade(e.what());
      } catch (const IOError& e) {
        // A file the manifest references is gone or unreadable — that is
        // corruption of the store, not a transient device condition.
        degrade(e.what());
      }
    }

    void replay_segment(const SegmentMeta& s) {
      SegmentReader r(*env, s.name, s.seg_id, &cache);
      replay_scratch.clear();
      r.for_each_raw([&](const SegmentEntry& e) {
        const bool del = (e.flags & kEntryTombstone) != 0;
        tombstone_seen = tombstone_seen || del;
        replay_scratch.push_back(del ? Op<>::del(e.key)
                                     : Op<>::put(e.key, e.value));
        if (replay_scratch.size() >= 4096) {
          inner.apply_batch(replay_scratch);
          stats.recovered_segment_entries += replay_scratch.size();
          replay_scratch.clear();
        }
      });
      inner.apply_batch(replay_scratch);
      stats.recovered_segment_entries += replay_scratch.size();
      replay_scratch.clear();
    }

    void degrade(const std::string& why) {
      if (cfg.strict) throw CorruptionError(why);
      read_only = true;
      corruption_detail = why;
      wal.reset();
      inner.set_fold_observer(nullptr, 0);
    }
  };

  std::unique_ptr<State> st_;
};

}  // namespace costream::storage
