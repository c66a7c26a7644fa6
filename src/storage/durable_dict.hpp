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
// WAL epoch to the live segment set. Checkpoint = fold EVERYTHING into one
// stripped full-state segment (Gcola::compact_all), advance covered_seqno
// to the last assigned seqno, rotate the WAL, install the manifest, and
// garbage-collect the WAL files and orphan segments that the new manifest
// obsoletes.
//
// A size-triggered checkpoint that fails is DEFERRED, not thrown: the
// mutation that tripped it already succeeded (WAL + memory + seqno), so
// the failure lands in stats.checkpoint_failures / last_checkpoint_error()
// and the next window retries. Only an explicit checkpoint() call throws.
//
// Recovery (the constructor) replays manifest -> segments (in manifest
// order: creation order == content-age order, so newest-wins replay
// reconstructs the merge view) -> WAL tail (records past covered_seqno,
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
// the OLD covered_seqno, so its segments only ever hold data the WAL tail
// also holds; replaying a segment first and the (in-seqno-order) WAL tail
// after converges to the pre-crash state because the last operation on a
// key wins. covered_seqno advances ONLY after a full-state fold has been
// spilled and synced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
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
  // Checkpoint when this many WAL bytes accumulate since the last one.
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

  /// Force a checkpoint: full-state fold spilled, covered_seqno advanced,
  /// WAL rotated, obsolete files collected.
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
  /// failures are recorded and the disk live-set is left unchanged (the
  /// WAL still covers everything, so a missed spill costs nothing but the
  /// checkpoint that would have advanced covered_seqno).
  ///
  /// Background compaction keeps the WAL-synced-before-install invariant
  /// for free: with compaction_threads > 0 the Gcola still fires this hook
  /// on the MUTATING thread, at the moment the finished fold installs
  /// (poll/assist) — never from a pool worker — so the WAL barrier below
  /// runs before the spill file lands exactly as in the inline path, and
  /// State needs no extra locking.
  struct Spiller final : Cola::FoldObserver {
    State* st = nullptr;
    bool full_state = false;  // checkpoint: segment replaces the live set
    bool failed = false;
    std::string error;

    void on_segment_spill(std::size_t level, const snap::Segment<Key, Value>* seg,
                          const std::uint64_t* consumed,
                          std::size_t n_consumed) override {
      try {
        // WAL barrier BEFORE the segment lands: every op a fold can spill
        // must already be durable in the log, or a crash would leave a
        // manifest-referenced segment holding ops beyond the durable WAL —
        // phantom future data that recovery could not place on the seqno
        // axis. (Replay converges by last-op-wins only when segment
        // content is a subset of covered-prefix + durable WAL tail.)
        if (seg != nullptr && st->wal) st->wal->sync();
        std::vector<SegmentMeta> live;
        if (!full_state) {
          live.reserve(st->live.size() + 1);
          std::unordered_set<std::uint64_t> gone(consumed,
                                                 consumed + n_consumed);
          for (const auto& s : st->live) {
            if (gone.count(s.seg_id) == 0) live.push_back(s);
          }
        }
        if (seg != nullptr) {
          const std::string name = seg_detail::segment_name(seg->id);
          SegmentWriter w(*st->env, name, st->cfg.segment_block_bytes);
          for (std::size_t i = 0; i < seg->size(); ++i) {
            w.add({seg->keys[i], seg->vals[i],
                   seg->is_tombstone(i) ? kEntryTombstone : std::uint8_t{0}});
          }
          w.finish();
          st->env->sync_dir();
          live.push_back({name, seg->id, static_cast<std::uint32_t>(level),
                          static_cast<std::uint64_t>(seg->size())});
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
        st->stats.segments_retired +=
            st->live.size() + (seg != nullptr ? 1 : 0) - live.size();
        st->live = std::move(live);
        if (seg != nullptr) ++st->stats.segments_spilled;
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
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
          inner(c.inner),
          cache(c.block_cache_bytes) {
      spiller.st = this;
      recover();
    }

    State(std::unique_ptr<StorageEnv> owned, DurableConfig c)
        : owned_env(std::move(owned)),
          env(owned_env.get()),
          cfg(c),
          inner(c.inner),
          cache(c.block_cache_bytes) {
      spiller.st = this;
      recover();
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
        // retries would pay a full compact_all per mutation).
        ++stats.checkpoint_failures;
        last_checkpoint_error = e.what();
        wal_bytes_at_checkpoint = wal->bytes_logged();
      }
    }

    /// Fold everything to one spilled segment, advance covered_seqno, open
    /// a new WAL epoch, install the manifest, collect obsolete files.
    void checkpoint() {
      spiller.failed = false;
      // Drain the staging arena under NORMAL spill semantics first. The
      // folds it cascades are incremental (consumed segments replaced by
      // their merge); flagging them full_state would install a manifest
      // whose live set is just that partial fold — silently dropping the
      // previous checkpoint's full-state segment, whose content the WAL no
      // longer covers. compact_all's own flush is then a no-op, so exactly
      // its one final all-levels fold runs as the full-state spill. The
      // same holds for a background fold (one the flush deferred, or one
      // already in flight): it must install here, not inside compact_all.
      inner.flush_stage();
      inner.drain_compaction();
      if (spiller.failed) {
        spiller.failed = false;
        throw IOError("checkpoint pre-flush spill failed: " + spiller.error);
      }
      spiller.full_state = true;
      const bool produced = inner.compact_all(cfg.spill_depth);
      spiller.full_state = false;
      if (spiller.failed) {
        spiller.failed = false;
        // covered_seqno did NOT advance; WAL keeps everything. Durability
        // is intact — the checkpoint just didn't happen.
        throw IOError("checkpoint spill failed: " + spiller.error);
      }
      if (!produced) {
        // Empty dictionary (or fold annihilated to nothing with no spilled
        // sources): the live set is whatever the observer last installed,
        // or — when no observer call fired — must become empty by hand.
        if (!live.empty() && inner.item_count() == 0) {
          live.clear();
        }
      }
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
      m.segments = live;
      install_manifest(*env, m);
      covered_seqno = new_covered;
      wal_bytes_at_checkpoint = wal->bytes_logged();
      ++stats.checkpoints;
      last_checkpoint_error.clear();
      gc();
    }

    /// Remove WAL files older than the current epoch and segment files the
    /// manifest no longer references. Transient EIO is retried; permanent
    /// failures propagate (the files are merely stale, and the next
    /// checkpoint retries the collection).
    void gc() {
      std::unordered_set<std::string> keep;
      for (const auto& s : live) keep.insert(s.name);
      for (const auto& name : env->list()) {
        std::uint64_t no;
        if (wal_detail::parse_wal_name(name, no)) {
          if (no < wal->file_no()) {
            with_retry(*env, [&] { env->remove_file(name); });
          }
        } else if (name.size() > 4 && name.compare(0, 4, "seg-") == 0 &&
                   keep.count(name) == 0) {
          with_retry(*env, [&] { env->remove_file(name); });
        }
      }
      with_retry(*env, [&] { env->sync_dir(); });
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
                replay_scratch.push_back(
                    (e.flags & 1u) != 0 ? Op<>::del(e.key)
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
        gc_orphan_segments();
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
        replay_scratch.push_back((e.flags & kEntryTombstone) != 0
                                     ? Op<>::del(e.key)
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

    /// Drop segment files no manifest references (crashed spills). Best
    /// effort at open: a failure here just leaves garbage for the next gc —
    /// only a scheduled power cut propagates (the harness must see it).
    void gc_orphan_segments() {
      try {
        std::unordered_set<std::string> keep;
        for (const auto& s : live) keep.insert(s.name);
        for (const auto& name : env->list()) {
          if (name.size() > 4 && name.compare(0, 4, "seg-") == 0 &&
              keep.count(name) == 0) {
            env->remove_file(name);
          }
        }
        env->sync_dir();
      } catch (const CrashError&) {
        throw;
      } catch (const IOError&) {
        // stale files stay; the next checkpoint's gc retries
      }
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
