// Sharded concurrent ingest: S single-writer dictionaries behind one
// Dictionary facade.
//
// The paper's amortized O((log N)/B) update bound is per-structure; this
// layer adds the orthogonal axis — parallelism across cores — without
// touching any structure's internals. The keyspace is RANGE-PARTITIONED by
// S-1 splitter keys (fixed-width key-prefix defaults, or quantiles learned
// from the first batch — see "Splitters" below); each shard is an
// independent dictionary (any of the seven structures, or a type-erased
// AnyDictionary) owned by exactly one worker thread. The facade's caller
// cuts normalized batches into per-shard runs and queues each run for its
// shard's worker (see "Queue" below); the worker is the ONLY thread that
// ever mutates its shard, so no structure needs a single lock — the
// paper's single-writer amortized analysis holds verbatim per shard at N/S
// scale (dam/bounds.hpp::sharded_insert_transfer_bound).
//
// Background compaction composes without oversubscription: shards with
// ColaConfig::compaction_threads > 0 all submit folds to the ONE
// process-wide pool (cola/compactor.hpp Pool::instance(), sized to the
// max requested thread count, capped at hardware concurrency), so S
// shards x c threads contend for max(c) workers, not S*c. A shard whose
// fold is rejected by the bounded queue performs it inline on its own
// worker thread (writer-assist), so per-shard FIFO semantics and the
// facade's drain barriers are unchanged.
//
// Semantics (identical to the unsharded Dictionary contract):
//   * A key lives in exactly one shard, so per-key operation order is the
//     facade's submission order: runs enter a shard's ring FIFO and the
//     single worker applies them FIFO. Newest-wins and put-vs-erase
//     shadowing inside a batch are resolved by the facade's normalization
//     pass before the scatter, exactly like every structure's own batch
//     path.
//   * find() is BARRIER-FREE and linearizable: it never drains, never
//     blocks on writers, and never touches a live shard structure. The
//     read path (see "Optimistic reads" below) probes the shard's queued
//     runs and then the shard worker's published immutable view, so a find
//     always reflects every mutation whose facade call returned before the
//     find began — reads-your-acknowledged-writes — and may additionally
//     reflect queued runs the worker has applied since.
//   * Ordered reads are SNAPSHOT consistent: snapshot() drains all shards
//     once, pins each shard's worker-published view, and fuses them by
//     segment-reference concatenation (common/cursor_fusion.hpp::
//     fuse_snapshots — shards are key-disjoint, so concatenation preserves
//     newest-first priority). Cursors, range scans, and merge joins read
//     that frozen, ref-counted view; the snapshot handle itself is
//     free-threaded.
//   * Concurrency contract: MUTATORS (insert/erase/*_batch/flush_stage)
//     plus shard_mut() and bulk-state probes (shard(), check_invariants())
//     are single-caller — one external owner thread drives them. The const
//     READ paths — find(), snapshot(), make_cursor() + seeks, for_each,
//     range_for_each, stats(), epoch(), drain() — are safe from ANY number
//     of threads concurrently with the owner's mutations. Moves require
//     external synchronization (no concurrent calls on either object).
//
// Queue: the queued run IS the acknowledgment. Every mutation is one job,
// numbered per shard from 1. A mutator copies each shard's cut of its
// normalized batch into an immutable Run covering that job, stores it in
// the ring slot of the job and advances the shard's `submitted` count;
// then it returns. The worker claims the oldest run, applies it, publishes
// a view covering its jobs (below), clears its slots and retires it. The
// queue is bounded by entries, not jobs: the owner waits only while the
// shard's queued runs hold more than kQueueEntries - n entries for an
// n-entry run (a run larger than the budget waits for an empty queue), or
// while kQueueJobs jobs are queued — so one shard stuck in a deep fold, a
// checkpoint or an fsync stalls the owner only once it is a whole budget
// behind, not after a handful of jobs.
//
// Coalescing keeps a deep queue to O(log) runs. Once kMergeRuns runs the
// worker has not claimed are queued, the owner, before it stores a cut,
// takes the newest of them while each is at most the size class (bit
// width of the entry count) of the cut plus what it has taken so far, and
// merges them with the cut into one run, newest write winning, covering
// all their jobs — a binary counter over run sizes: past the newest
// kMergeRuns - 1, the unclaimed runs' size classes strictly fall from
// oldest to newest, so at most log2(kQueueEntries) + kMergeRuns of them
// are queued behind the one the worker holds, and an entry is copied at
// most once per size class it climbs. While the worker keeps up there is
// too little to take and a submit is one copy of the cut. Every run
// carries a filter over its keys (common/filter.hpp) when keys hash: a
// find meets each queued run cold from the owner's cache, and a filter
// probe reads one line where a binary search reads a chain of them. The
// owner and the worker race for the oldest unclaimed run through its
// `claim` word; the loser leaves it to the winner, and a worker that lost
// waits for the merged run to take the slot. A run covering jobs
// [first, last] sits in slot(last), where the scans below enter it, and
// in slot(first), where the worker looks for it; the owner stores a
// merged run in slot(last) before it advances `submitted` and in
// slot(first) only after, so the merged run becomes readable the moment
// it is acknowledged, on every path. The slots between are never read
// again until their jobs' slots are reused.
//
// Optimistic reads (the seqlock-shaped core, ROADMAP "Barrier-free point
// reads"): after EVERY applied run, a shard's worker republishes the
// shard's contents as an immutable view — the inner's snapshot() data (the
// Gcola pins its staging runs and levels, so a republish costs O(newly
// appended data), also through DurableDictionary) — then advances the
// shard's publication sequence to the last job the view covers, and only
// then clears the run's slots. A find
//   1. loads the sequence s;
//   2. probes the queued runs past s newest-first: from the job count
//      `submitted` down, the run in the slot of job j, then the job just
//      before that run's first, stopping at the first slot that no longer
//      holds a run covering j (cleared or reused);
//   3. loads and probes the view unless a run answered, and re-checks the
//      sequence — retrying on change, bounded: every published view is
//      individually consistent, so the re-check buys freshness, never
//      safety, and a hot writer cannot livelock a reader.
// Coverage: a write acknowledged before the find began sits in some job J
// whose run was stored before `submitted` reached J, so the find loads a
// count >= J. If J <= s, the view published with sequence s covers J and
// the view load, which follows the sequence load, returns it or a later
// one. Otherwise the scan walks down disjoint, descending job ranges and
// reaches a run covering J, unless it stops first at a job j > J whose
// slot no longer holds a run covering j — and a slot stops holding one
// only after j's view is published: a merge replaces a run by one covering
// its jobs too, the worker clears a run's slots after publishing the view
// that covers it, and the owner reuses a slot only after the worker
// finished its job. So the view the find loads next covers j and
// everything older, J included. A run holds the newest write of its jobs
// per key and runs newer than the answer's source were probed first, so
// the answer is the newest write among the jobs probed and covered. A scan
// meets O(log) runs (Coalescing, above). No drain, no wait:
// ShardedStats::drains stays untouched by find (asserted by
// tests/linearizability_test.cpp, which hammers this path with reader
// storms against writer storms and checks every observation against the
// acknowledged-write envelope).
//
// Reclamation (shard/reclaim.hpp): the view and the queued runs are raw
// pointers to immutable objects. The worker retires each view it replaces
// and each run once it has cleared the run's slots; the owner retires the
// runs it merged away. A retired object is freed once no reader can still
// hold it. A find announces the reclamation epoch in its thread's own
// cache line before it loads any of these pointers and clears it after the
// probe, and counts itself in its thread's stripe of the facade's counters
// — so a find writes no memory another thread writes (no refcount, no
// lock, no shared counter; past 64 concurrent reader threads stripes are
// shared, still exact) and reads scale with reader threads. Writers never
// wait for readers: a stalled reader delays frees, never a publish. With
// no reader inside find() a retire frees at once; what a reader held is
// freed by the next retire, or, once writes stop, by the worker's idle
// pass within kReclaimPoll, so memory at a quiescent point is just what
// the current views reference. snapshot() reads the view under the same
// guard and copies the data it keeps. The owner and the worker hold the
// guard only while they look at runs the other may free: the owner while
// it picks runs to merge, the worker while it claims one. Destroying the
// facade joins the workers, then frees every published and retired object.
//
// Cursors: a sharded cursor seeks against the facade's current snapshot
// and then STAYS VALID across arbitrary mutations — the segments it reads
// are pinned by refcount, so a fold retiring them from a live shard cannot
// pull them out from under the scan (contract in api/dictionary.hpp).
//
// Splitters: partition boundaries are fixed for the life of the structure
// (a key must map to the same shard forever). Three sources, first match
// wins:
//   1. explicit `ShardedConfig::splitters` (S-1 ascending keys);
//   2. learned from the FIRST mutation when it is a batch of at least
//      `learn_sample_min` operations: the normalized (sorted, deduplicated)
//      run's S-quantiles — one pass, no extra sort;
//   3. fixed-width key-prefix defaults: the unsigned key space divided into
//      S equal ranges (the top log2(S) bits of the key select the shard).
// Readers gate on `routes_ready_`: until the first mutation freezes the
// splitters, find() answers nullopt — the only linearizable answer, since
// nothing has been acknowledged yet.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/cursor_fusion.hpp"
#include "common/entry.hpp"
#include "common/filter.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "shard/reclaim.hpp"

namespace costream::shard {

template <class K = Key>
struct ShardedConfig {
  std::size_t shards = 2;          // S >= 1; 1 = a single-worker baseline
  std::size_t learn_sample_min = 64;  // min first-batch size to learn splitters
  std::vector<K> splitters;        // explicit boundaries (size shards - 1);
                                   // empty = learn from sample / defaults
  // TEST-ONLY planted bug (tests/linearizability_test.cpp self-test): skip
  // the queued runs on the read path, so a find can miss writes whose
  // facade call already returned — exactly the freshness bug the hammer's
  // oracle must catch. Never set outside that self-test.
  bool unsafe_skip_pending_overlay = false;
};

/// Process-wide count of live queued runs (all facades) — the leak oracle
/// for the run-reclamation tests, like snap::live_segment_count().
inline std::atomic<std::int64_t>& live_run_count() noexcept {
  static std::atomic<std::int64_t> n{0};
  return n;
}

/// Facade-level counters, all safe to read from any thread (stats() takes
/// a relaxed atomic photograph). `drains` counts read BARRIERS — snapshot
/// acquisition and direct shard access still drain; find() never does
/// (the linearizability hammer asserts the delta is zero across a pure
/// find storm). `finds`/`find_retries` count barrier-free point reads and
/// how many re-validated against a mid-read republish.
struct ShardedStats {
  std::uint64_t jobs = 0;      // jobs queued: one per shard a mutation reaches
  std::uint64_t batches = 0;   // facade-level batch calls
  std::uint64_t singles = 0;   // facade-level single-op calls
  std::uint64_t drains = 0;    // read barriers (whole-facade or one-shard)
  std::uint64_t learned_splitters = 0;  // 1 if quantile learning fired
  std::uint64_t finds = 0;         // barrier-free point reads served
  std::uint64_t find_retries = 0;  // sequence re-checks that looped
  std::uint64_t queue_peak_jobs = 0;  // most jobs a shard held at a submit
};

template <class Inner, class K = Key, class V = Value>
class ShardedDictionary {
 public:
  /// Per-shard queue bound (header comment "Queue"): the entries the
  /// shard's queued runs may hold (about 6 MiB of 24-byte ops) before the
  /// owner waits, and the most jobs queued at once whatever their size.
  static constexpr std::size_t kQueueEntries = std::size_t{1} << 18;
  static constexpr std::size_t kQueueJobs = 1024;
  /// A submit merges queued runs once this many unclaimed ones are queued
  /// (header comment "Coalescing").
  static constexpr std::size_t kMergeRuns = 4;

  template <class Factory>
    requires std::invocable<Factory&, std::size_t>
  ShardedDictionary(ShardedConfig<K> cfg, Factory&& make_inner) : cfg_(std::move(cfg)) {
    if (cfg_.shards == 0) {
      throw std::invalid_argument("sharded: shard count must be >= 1");
    }
    if (!cfg_.splitters.empty()) {
      if (cfg_.splitters.size() != cfg_.shards - 1) {
        throw std::invalid_argument("sharded: need exactly shards-1 splitters");
      }
      for (std::size_t i = 1; i < cfg_.splitters.size(); ++i) {
        if (!(cfg_.splitters[i - 1] < cfg_.splitters[i])) {
          throw std::invalid_argument("sharded: splitters must be ascending");
        }
      }
      splitters_ = cfg_.splitters;
      frozen_ = true;
    } else if constexpr (!std::unsigned_integral<K>) {
      if (cfg_.shards > 1) {
        throw std::invalid_argument(
            "sharded: non-integral keys need explicit splitters");
      }
    }
    shards_.reserve(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(make_inner(s)));
    }
    // With one shard every key routes to index 0 splitter-free; with
    // explicit splitters the routes are fixed at construction. Otherwise
    // readers wait for the first mutation to freeze them.
    routes_ready_.store(frozen_ || cfg_.shards == 1,
                        std::memory_order_release);
  }

  explicit ShardedDictionary(ShardedConfig<K> cfg = ShardedConfig<K>{})
    requires std::default_initializable<Inner>
      : ShardedDictionary(std::move(cfg), [](std::size_t) { return Inner{}; }) {}

  // Moves require external synchronization (atomics transfer by value; the
  // worker threads and their published views ride along inside shards_).
  ShardedDictionary(ShardedDictionary&& o) noexcept
      : cfg_(std::move(o.cfg_)),
        splitters_(std::move(o.splitters_)),
        frozen_(o.frozen_),
        shards_(std::move(o.shards_)),
        norm_(std::move(o.norm_)),
        norm_scratch_(std::move(o.norm_scratch_)),
        snap_cache_(std::move(o.snap_cache_)),
        snap_epoch_(o.snap_epoch_),
        snap_parts_(std::move(o.snap_parts_)) {
    routes_ready_.store(o.routes_ready_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    epoch_.store(o.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    stats_.copy_from(o.stats_);
  }

  ShardedDictionary& operator=(ShardedDictionary&& o) noexcept {
    if (this == &o) return *this;
    shards_.clear();  // join this object's workers before adopting o's
    cfg_ = std::move(o.cfg_);
    splitters_ = std::move(o.splitters_);
    frozen_ = o.frozen_;
    shards_ = std::move(o.shards_);
    norm_ = std::move(o.norm_);
    norm_scratch_ = std::move(o.norm_scratch_);
    snap_cache_ = std::move(o.snap_cache_);
    snap_epoch_ = o.snap_epoch_;
    snap_parts_ = std::move(o.snap_parts_);
    routes_ready_.store(o.routes_ready_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    epoch_.store(o.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    stats_.copy_from(o.stats_);
    return *this;
  }

  // -- observers --------------------------------------------------------------

  std::size_t shard_count() const noexcept { return shards_.size(); }
  const std::vector<K>& splitters() const noexcept { return splitters_; }

  /// Relaxed atomic photograph of the facade counters (any thread).
  ShardedStats stats() const noexcept {
    ShardedStats s;
    s.jobs = stats_.jobs.load(std::memory_order_relaxed);
    s.batches = stats_.batches.load(std::memory_order_relaxed);
    s.singles = stats_.singles.load(std::memory_order_relaxed);
    s.drains = stats_.drains.load(std::memory_order_relaxed);
    s.learned_splitters =
        stats_.learned_splitters.load(std::memory_order_relaxed);
    s.queue_peak_jobs = stats_.queue_peak_jobs.load(std::memory_order_relaxed);
    for (const FindStripe& f : stats_.find_stripes) {
      s.finds += f.finds.load(std::memory_order_relaxed);
      s.find_retries += f.retries.load(std::memory_order_relaxed);
    }
    return s;
  }

  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Direct access to one shard's structure, behind that shard's drain
  /// barrier (tests and benches read per-shard stats/DAM models this way).
  /// Owner-thread only: the returned reference bypasses the published
  /// views the concurrent read paths are built on.
  const Inner& shard(std::size_t s) const {
    drain_shard(*shards_[s]);
    return shards_[s]->dict;
  }

  /// Mutable access to one shard's structure, behind its drain barrier.
  /// For tests/benches resetting DAM models or stats ONLY — mutating shard
  /// CONTENTS from the caller thread would break the single-writer
  /// invariant the facade is built on. Owner-thread only.
  Inner& shard_mut(std::size_t s) {
    drain_shard(*shards_[s]);
    return shards_[s]->dict;
  }

  /// Block until every queued run has been applied (ordered reads do this
  /// lazily; benches call it to put the full ingest cost inside the timed
  /// region). Safe from any thread; under a live writer it waits for the
  /// momentary queue-empty point, it does not stop the writer.
  void drain() const { drain_all(); }

  // -- mutators (Dictionary contract, api/dictionary.hpp) ---------------------

  void insert(const K& k, const V& v) { single(Op<K, V>::put(k, v)); }
  void erase(const K& k) { single(Op<K, V>::del(k)); }

  void insert_batch(Span<Entry<K, V>> batch) {
    if (batch.empty()) return;
    norm_.clear();
    norm_.reserve(batch.size());
    for (const Entry<K, V>& e : batch) {
      norm_.push_back(Op<K, V>::put(e.key, e.value));
    }
    apply_normalized();
  }

  void erase_batch(Span<K> keys) {
    if (keys.empty()) return;
    norm_.clear();
    norm_.reserve(keys.size());
    for (const K& k : keys) norm_.push_back(Op<K, V>::del(k));
    apply_normalized();
  }

  void apply_batch(Span<Op<K, V>> ops) {
    if (ops.empty()) return;
    norm_.assign(ops.begin(), ops.end());
    apply_normalized();
  }

  /// Flush every shard's deferred state (staging arenas etc.) and drain, so
  /// the caller observes the full cost of everything ingested so far.
  void flush_stage() {
    throw_if_failed();
    for (auto& sh : shards_) submit(*sh, nullptr, nullptr);
    epoch_.fetch_add(1, std::memory_order_release);
    drain_all();
  }

  // -- readers ----------------------------------------------------------------

  /// Barrier-free linearizable point lookup (any thread, never blocks on
  /// writers, zero drains, writes nothing another thread writes — header
  /// comment "Optimistic reads" has the full protocol, the coverage proof
  /// and the reclamation rule). Probes the shard's queued runs
  /// newest-first, then the worker-published immutable view, and
  /// re-validates against the shard's publication sequence with bounded
  /// retries: every view is self-consistent, so the loop bound caps
  /// latency without risking a torn read.
  std::optional<V> find(const K& k) const {
    throw_if_failed();
    if (!routes_ready_.load(std::memory_order_acquire)) {
      // Nothing has ever been acknowledged (the first mutation freezes the
      // routes), so absent is the only linearizable answer.
      return std::nullopt;
    }
    const Shard& sh = *shards_[shard_of(k)];
    const std::uint64_t hash = kRunFilters ? filt::key_hash(k) : 0;
    const reclaim::ReadGuard guard;  // everything loaded below stays alive
    FindStripe& stripe = stats_.stripe(guard.slot_index());
    stripe.finds.fetch_add(1, std::memory_order_relaxed);
    for (int attempt = 0;; ++attempt) {
      const std::uint64_t seq0 = sh.pub_seq.load(std::memory_order_acquire);
      std::optional<V> out;
      // Queued runs BEFORE the view: the view loaded after the scan covers
      // every job the scan stopped short of.
      const Op<K, V>* op =
          cfg_.unsafe_skip_pending_overlay ? nullptr : sh.probe_queued(k, hash, seq0);
      if (op != nullptr) {
        if (!op->erase) out = op->value;
      } else if (const ShardView* view = sh.pub_view.load(std::memory_order_seq_cst);
                 view != nullptr && view->data != nullptr) {
        out = snap::find_in(*view->data, k);
      }
      if (sh.pub_seq.load(std::memory_order_acquire) == seq0 ||
          attempt >= kFindRetries) {
        return out;
      }
      stripe.retries.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Point-in-time snapshot of the whole facade (contract in
  /// api/dictionary.hpp): drain every shard once, pin each shard's
  /// worker-published view, and fuse them by segment-reference
  /// concatenation — the shards partition the keyspace, so each shard's
  /// newest-first order is the only priority the merged cursor needs.
  /// Cached per facade epoch behind a mutex, so any number of threads may
  /// acquire concurrently with the owner's mutations; a snapshot taken
  /// from the owner thread is an exact cut, one taken mid-mutation from
  /// another thread reflects, per shard, all acknowledged writes plus
  /// possibly some just-applied ones. The handle is free-threaded and
  /// survives arbitrary mutations.
  snap::Snapshot<K, V> snapshot() const {
    throw_if_failed();
    drain_all();
    std::lock_guard<std::mutex> lock(snap_mu_);
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (snap_cache_ && snap_epoch_ == e) return snap_cache_;
    snap_parts_.clear();
    snap_parts_.reserve(shards_.size());
    for (const auto& sh : shards_) {
      snap_parts_.push_back(snap::Snapshot<K, V>(sh->view_data()));
    }
    snap_cache_ = fuse_snapshots(snap_parts_, e);
    snap_parts_.clear();  // the fused snapshot co-owns the segments
    snap_epoch_ = e;
    return snap_cache_;
  }

  /// Resumable ordered cursor over the union of all shards (Dictionary
  /// cursor contract): every seek pins the facade's then-current snapshot,
  /// so the position and the remainder of the stream stay valid across
  /// arbitrary mutations. Re-seek to observe newer data. The cursor object
  /// is single-threaded; distinct threads use distinct cursors.
  class Cursor {
   public:
    Cursor() = default;

    void seek(const K& lo) {
      refresh();
      c_.seek(lo);
    }
    void seek(const K& lo, const K& hi) {
      refresh();
      c_.seek(lo, hi);
    }
    void seek_first() {
      refresh();
      c_.seek_first();
    }

    void next() { c_.next(); }
    bool valid() const { return c_.valid(); }
    const Entry<K, V>& entry() const { return c_.entry(); }

    /// The facade epoch of the snapshot this cursor is reading (stamped at
    /// the last seek; 0 before the first).
    std::uint64_t snapshot_epoch() const { return c_.epoch(); }

   private:
    friend class ShardedDictionary;
    explicit Cursor(const ShardedDictionary* d) : d_(d) {}

    void refresh() {
      if (d_ != nullptr) c_.attach(d_->snapshot().data());
    }

    const ShardedDictionary* d_ = nullptr;
    snap::SnapshotCursor<K, V> c_;
  };

  Cursor make_cursor() const { return Cursor(this); }

  /// Ordered scans (any thread): each call walks its own cursor over the
  /// facade snapshot — a few allocations per call, in exchange for scans
  /// that never share mutable state across threads.
  template <class Fn>
  void range_for_each(const K& lo, const K& hi, Fn&& fn) const {
    if (hi < lo) return;
    snap::SnapshotCursor<K, V> cur;
    cur.attach(snapshot().data());
    for (cur.seek(lo, hi); cur.valid(); cur.next()) {
      fn(cur.entry().key, cur.entry().value);
    }
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    snap::SnapshotCursor<K, V> cur;
    cur.attach(snapshot().data());
    for (cur.seek_first(); cur.valid(); cur.next()) {
      fn(cur.entry().key, cur.entry().value);
    }
  }

  /// Per-shard inner invariants plus the routing invariant: every key a
  /// shard holds lies inside that shard's splitter range. Owner-thread
  /// only (walks the live inner structures behind the drain barrier).
  void check_invariants() const {
    drain_all();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Inner& d = shards_[s]->dict;
      if constexpr (requires { d.check_invariants(); }) d.check_invariants();
      auto c = d.make_cursor();
      c.seek_first();
      while (c.valid()) {
        const K& k = c.entry().key;
        if (s > 0 && k < splitters_[s - 1]) {
          throw std::logic_error("sharded: key below its shard's range");
        }
        if (s + 1 < shards_.size() && !(k < splitters_[s])) {
          throw std::logic_error("sharded: key past its shard's range");
        }
        c.next();
      }
    }
  }

 private:
  /// Who holds a queued run (Run::claim, header comment "Coalescing").
  enum Claim : int { kQueued, kApplying, kMerged };

  /// A queued run: the normalized ops (sorted, unique keys) of the jobs
  /// [first, last] of its shard, newest write per key, or a flush marker.
  /// The owner builds it at submit; the worker applies it and find()
  /// probes it while it sits in its slots; the worker retires it once a
  /// published view covers it, or the owner once it has merged it into a
  /// newer run.
  struct Run {
    std::uint64_t first = 0, last = 0;
    bool flush = false;
    std::vector<Op<K, V>> ops;
    filt::Words filter;  // over the ops' keys (kRunFilters)
    // The only mutable word: the worker sets kApplying, the owner kMerged,
    // whichever comes first. Readers never look at it.
    mutable std::atomic<int> claim{kQueued};

    Run() { live_run_count().fetch_add(1, std::memory_order_relaxed); }
    ~Run() { live_run_count().fetch_sub(1, std::memory_order_relaxed); }
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    bool covers(std::uint64_t job) const noexcept { return first <= job && job <= last; }

    void mint_filter() {
      if constexpr (kRunFilters) {
        if (ops.empty()) return;
        filter.assign(filt::filter_words_for(ops.size()), 0);
        for (const Op<K, V>& o : ops) {
          filt::filter_insert(filter.data(), filter.size(), filt::key_hash(o.key));
        }
      }
    }

    /// The run's op for `k` (whose filt::key_hash is `hash`), or nullptr:
    /// the filter, then a binary search.
    const Op<K, V>* lookup(const K& k, std::uint64_t hash) const {
      if (!filter.empty() &&
          !filt::filter_may_contain(filter.data(), filter.size(), hash)) {
        return nullptr;
      }
      const auto it = std::lower_bound(
          ops.begin(), ops.end(), k,
          [](const Op<K, V>& o, const K& key) { return o.key < key; });
      return it != ops.end() && !(k < it->key) ? &*it : nullptr;
    }

    bool take(Claim who) const noexcept {
      int queued = kQueued;
      return claim.compare_exchange_strong(queued, who, std::memory_order_acq_rel);
    }
  };

  /// What a shard worker publishes after every applied run: the shard's
  /// contents as an immutable segment view (the sequence says how many
  /// jobs it covers). Readers reach it through a raw pointer under a
  /// reclaim::ReadGuard — a republish retires the old view, so it can
  /// never be freed out from under a reader mid-probe.
  struct ShardView {
    std::shared_ptr<const snap::SnapshotData<K, V>> data;
  };

  /// A shard: the structure, its queue, the worker thread that is the
  /// structure's only writer, and the publication state the barrier-free
  /// readers consume. Heap-allocated (stable address) so the facade stays
  /// movable while workers hold `this` pointers into their shard.
  struct Shard {
    explicit Shard(Inner d) : dict(std::move(d)), ring(kQueueJobs) {
      // Initial publication happens on the CONSTRUCTING thread — it owns
      // the inner until the worker exists — so factory-preloaded contents
      // are visible to barrier-free readers from the first instant.
      publish(0);
      worker = std::thread([this] { run(); });
    }

    /// Joins the worker (which has worked off every queued job), then
    /// frees the published view and the runs a failed worker left in their
    /// slots; the retire lists free the rest. No reader may still be
    /// inside find().
    ~Shard() {
      stop.store(true, std::memory_order_seq_cst);
      wake();
      if (worker.joinable()) worker.join();
      delete pub_view.load(std::memory_order_relaxed);
      const std::uint64_t end = submitted.load(std::memory_order_relaxed);
      for (std::uint64_t job = pub_seq.load(std::memory_order_relaxed) + 1; job <= end;) {
        const Run* r = slot(job).load(std::memory_order_relaxed);
        job = r->last + 1;
        delete r;
      }
    }
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    /// The ring slot of 1-based job index `job`.
    std::atomic<const Run*>& slot(std::uint64_t job) {
      return ring[(job - 1) % kQueueJobs];
    }
    const std::atomic<const Run*>& slot(std::uint64_t job) const {
      return ring[(job - 1) % kQueueJobs];
    }

    void run() {
      for (std::uint64_t next = 1;;) {  // the first job not worked off
        if (const Run* r = claim(next)) {
          next = work_off(*r) + 1;
          continue;
        }
        if (stop.load(std::memory_order_seq_cst) &&
            submitted.load(std::memory_order_acquire) < next) {
          return;
        }
        // Nothing to claim — none queued, or the owner is merging the next
        // run into a newer one: sleep until a submit wakes the worker. It
        // announces that it sleeps, then looks once more, so a submit
        // either is seen by that look or sees the announcement (wake()).
        // Whoever clears the announcement decides whether a permit is owed,
        // so at most one is ever outstanding.
        sleepy.store(true, std::memory_order_seq_cst);
        const Run* r = claim(next);
        if (r != nullptr || stop.load(std::memory_order_seq_cst)) {
          if (!sleepy.exchange(false, std::memory_order_seq_cst)) items.acquire();
          if (r != nullptr) next = work_off(*r) + 1;
          continue;
        }
        // Retired objects a reader still held wait for no further job: an
        // idle worker frees them every kReclaimPoll until none is left.
        if (retired.empty() && !merged_pending.load(std::memory_order_acquire)) {
          items.acquire();
        } else if (!items.try_acquire_for(kReclaimPoll)) {
          retired.collect();
          collect_merged();
          if (!sleepy.exchange(false, std::memory_order_seq_cst)) items.acquire();
        }
      }
    }

    /// Wake a sleeping worker after a submit or at stop (run()).
    void wake() {
      if (sleepy.load(std::memory_order_seq_cst) &&
          sleepy.exchange(false, std::memory_order_seq_cst)) {
        items.release();
      }
    }

    /// The queued run whose first job is `next`, claimed for the worker, or
    /// nullptr when there is none or the owner took it to merge. The guard
    /// keeps the run alive until the claim is decided: a run the owner
    /// took, the owner frees.
    const Run* claim(std::uint64_t next) {
      if (submitted.load(std::memory_order_seq_cst) < next) return nullptr;
      const reclaim::ReadGuard guard;
      const Run* r = slot(next).load(std::memory_order_seq_cst);
      return r->take(kApplying) ? r : nullptr;
    }

    /// Apply a claimed run, publish, retire it; returns its last job.
    std::uint64_t work_off(const Run& r) {
      // A throwing inner structure must not kill the worker (that would
      // std::terminate) and must not wedge the drain barrier: the run is
      // counted NO MATTER WHAT, the first exception is kept, and once
      // failed the worker works off its queue without applying — the
      // facade rethrows on its next call (throw_if_failed). A failed
      // shard also stops republishing, freezing its view at the last
      // good state, and leaves its unapplied runs in their slots, where
      // reads still find them (the owner never reuses such a slot: it
      // rethrows first, see submit).
      const std::size_t entries = r.ops.size();
      const std::uint64_t last = r.last;  // a retire may free r at once
      if (!failed.load(std::memory_order_relaxed)) {
        bool covered = false;
        try {
          if (!r.flush) {
            dict.apply_batch(r.ops);
          } else if constexpr (requires(Inner& d) { d.flush_stage(); }) {
            dict.flush_stage();
          }
          publish(r.last);
          covered = true;
        } catch (...) {
          error = std::current_exception();
          failed.store(true, std::memory_order_release);
        }
        if (covered) {
          // The published view covers the run: unlink it, then retire it.
          slot(r.last).store(nullptr, std::memory_order_seq_cst);
          slot(r.first).store(nullptr, std::memory_order_seq_cst);
          retired.retire(&r);
        }
      }
      completed_entries.fetch_add(entries, std::memory_order_release);
      completed.store(last, std::memory_order_release);
      return last;
    }

    /// The op for `k` in the newest run queued past job `seq` that holds
    /// it, or nullptr when none does (header comment "Optimistic reads",
    /// step 2). The caller holds a reclaim::ReadGuard.
    const Op<K, V>* probe_queued(const K& k, std::uint64_t hash,
                                 std::uint64_t seq) const {
      for (std::uint64_t job = submitted.load(std::memory_order_acquire); job > seq;) {
        const Run* r = slot(job).load(std::memory_order_seq_cst);
        // Cleared or reused: job is in a published view, and so is every
        // older one.
        if (r == nullptr || !r->covers(job)) return nullptr;
        if (const Op<K, V>* op = r->lookup(k, hash)) return op;
        job = r->first - 1;
      }
      return nullptr;
    }

    /// Free the runs the owner merged away that no reader can still hold
    /// (owner or worker thread).
    void collect_merged() {
      const std::lock_guard<std::mutex> lock(merged_mu);
      merged.collect();
      merged_pending.store(!merged.empty(), std::memory_order_release);
    }

    /// Republish this shard's immutable view covering `applied_jobs` jobs
    /// — the inner's snapshot(), whose per-epoch cache makes an unmutated
    /// republish a refcount bump — then advance the sequence readers
    /// validate against, and retire the replaced view. Publish-before-
    /// completed ordering lets drainers trust the view they load after
    /// observing completed == submitted. Runs on the worker (on the
    /// constructing thread for the initial view), which owns `retired`.
    void publish(std::uint64_t applied_jobs) {
      auto v = std::make_unique<ShardView>();
      if constexpr (requires(const Inner& d) { d.snapshot(); }) {
        v->data = dict.snapshot().data();
      }
      // A snapshot-less inner (test doubles) publishes no data: readers
      // see it as empty, exactly like the ordered-read paths would.
      const ShardView* old = pub_view.exchange(v.release(), std::memory_order_seq_cst);
      pub_seq.store(applied_jobs, std::memory_order_release);
      retired.retire(old);
    }

    /// The published view's data, copied under a read guard (any thread).
    std::shared_ptr<const snap::SnapshotData<K, V>> view_data() const {
      const reclaim::ReadGuard guard;
      const ShardView* v = pub_view.load(std::memory_order_seq_cst);
      return v != nullptr ? v->data : nullptr;
    }

    Inner dict;
    // The queue (header comment "Queue"): a run covering jobs [first, last]
    // sits in slot(first) and slot(last) from its submit until the view
    // covering it is published. The owner writes this line once per job:
    // the jobs and entries it has queued.
    alignas(64) std::atomic<std::uint64_t> submitted{0};
    std::uint64_t submitted_entries = 0;
    std::vector<std::atomic<const Run*>> ring;
    // The worker writes this line once per run: the jobs and entries it
    // has worked off, and the publication state of "Optimistic reads" —
    // its immutable view and the sequence (the jobs that view covers).
    alignas(64) std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> completed_entries{0};
    std::atomic<std::uint64_t> pub_seq{0};
    std::atomic<const ShardView*> pub_view{nullptr};
    // First exception the worker caught; `failed` publishes it (the store
    // is release, the facade's load acquire, so the exception_ptr write
    // happens-before any rethrow). Every find reads `failed`, so it keeps
    // off the lines written per job.
    alignas(64) std::exception_ptr error;
    std::atomic<bool> failed{false};
    std::atomic<bool> stop{false};
    // The worker's sleep (run()): the owner reads `sleepy` once a submit.
    alignas(64) std::atomic<bool> sleepy{false};
    std::counting_semaphore<(1 << 30)> items{0};
    reclaim::RetireList retired;  // worker thread: retired views and runs
    // Runs the owner merged away: it retires them here and collects at
    // every submit; the idle worker collects too, so they are freed once
    // writes stop even while the worker is stalled in a long apply.
    std::mutex merged_mu;
    reclaim::RetireList merged;
    std::atomic<bool> merged_pending{false};
    std::thread worker;
  };

  /// Surface a worker's stored exception on the calling thread. Checked at
  /// the top of every facade operation: a shard whose inner structure threw
  /// has silently dropped jobs since, so no result after that point can be
  /// trusted. The failed state is sticky — every later call rethrows too.
  void throw_if_failed() const {
    for (const auto& sh : shards_) {
      if (sh->failed.load(std::memory_order_acquire)) {
        std::rethrow_exception(sh->error);
      }
    }
  }

  std::size_t shard_of(const K& k) const {
    return static_cast<std::size_t>(
        std::upper_bound(splitters_.begin(), splitters_.end(), k) -
        splitters_.begin());
  }

  /// Queue the ops [at, end) — or, for a null range, a flush marker — as
  /// `sh`'s next job (header comment "Queue"): wait while the shard's
  /// queue has no room for it, merge it with the newest runs the worker
  /// has not claimed (header comment "Coalescing"), store the run and
  /// advance `submitted` — the acknowledgment readers probe.
  void submit(Shard& sh, const Op<K, V>* at, const Op<K, V>* end) {
    const std::uint64_t job = sh.submitted.load(std::memory_order_relaxed) + 1;
    const auto entries = static_cast<std::size_t>(end - at);
    for (;;) {
      const std::uint64_t done = sh.completed.load(std::memory_order_acquire);
      const std::uint64_t queued =
          sh.submitted_entries - sh.completed_entries.load(std::memory_order_acquire);
      if (job - done <= kQueueJobs &&
          (queued == 0 || queued + entries <= kQueueEntries)) {
        if (job - done > stats_.queue_peak_jobs.load(std::memory_order_relaxed)) {
          stats_.queue_peak_jobs.store(job - done, std::memory_order_relaxed);
        }
        break;
      }
      std::this_thread::yield();
    }
    // The wait saw the worker finish the job whose slot this one reuses.
    // Had that job failed or been dropped, `failed` was set before it was
    // counted, so this rethrows instead of overwriting a run the failed
    // worker left queued.
    throw_if_failed();
    auto run = std::make_unique<Run>();
    run->first = run->last = job;
    run->flush = at == nullptr;
    taken_.clear();
    if (!run->flush && sh.completed.load(std::memory_order_acquire) + kMergeRuns < job) {
      const reclaim::ReadGuard guard;  // the worker may free what the walk meets
      take_tail(sh, job, entries);
    }
    std::size_t taken_entries = 0;
    for (const Run* t : taken_) taken_entries += t->ops.size();
    merge_taken(at, end, *run);  // the taken runs are the owner's now
    const std::uint64_t first = taken_.empty() ? job : taken_.back()->first;
    run->first = first;
    run->mint_filter();
    sh.submitted_entries += run->ops.size();
    sh.submitted_entries -= taken_entries;
    // slot(last) before the acknowledgment, slot(first) after it (header
    // comment "Coalescing"): no reader meets the merged run before it is
    // acknowledged, and every reader that starts after meets it. Once
    // acknowledged the run is the worker's to free: it is not read again.
    const Run* r = run.release();
    sh.slot(job).store(r, std::memory_order_seq_cst);
    sh.submitted.store(job, std::memory_order_seq_cst);
    if (first != job) {
      sh.slot(first).store(r, std::memory_order_seq_cst);
      const std::lock_guard<std::mutex> lock(sh.merged_mu);
      for (const Run* t : taken_) sh.merged.retire(t);
      sh.merged_pending.store(!sh.merged.empty(), std::memory_order_release);
    } else if (sh.merged_pending.load(std::memory_order_acquire)) {
      sh.collect_merged();
    }
    stats_.jobs.fetch_add(1, std::memory_order_relaxed);
    sh.wake();
  }

  /// Take the queued runs an `entries`-op cut queued as job `job` merges
  /// with (header comment "Coalescing") into taken_, newest first: none
  /// while fewer than kMergeRuns unclaimed runs are queued, else the newest
  /// while each is at most the size class of the cut plus what is taken.
  /// The caller holds a reclaim::ReadGuard.
  void take_tail(const Shard& sh, std::uint64_t job, std::size_t entries) {
    std::size_t unclaimed = 0;
    for (std::uint64_t j = job - 1; j > 0 && unclaimed < kMergeRuns; ++unclaimed) {
      const Run* r = sh.slot(j).load(std::memory_order_acquire);
      if (r == nullptr || !r->covers(j) || r->flush ||
          r->claim.load(std::memory_order_relaxed) != kQueued) {
        break;
      }
      j = r->first - 1;
    }
    if (unclaimed < kMergeRuns) return;
    std::size_t total = entries;
    for (std::uint64_t j = job - 1; j > 0;) {
      const Run* r = sh.slot(j).load(std::memory_order_acquire);
      if (r == nullptr || !r->covers(j) || r->flush ||
          std::bit_width(r->ops.size()) > std::bit_width(total) || !r->take(kMerged)) {
        break;
      }
      taken_.push_back(r);
      total += r->ops.size();
      j = r->first - 1;
    }
  }

  /// Merge the taken runs (newest first in taken_) under the cut [at, end)
  /// into `out`, newest write winning per key: the cut with the newest run,
  /// that with the next older, and so on — the runs grow going back, so
  /// the whole merge costs a small multiple of its output.
  void merge_taken(const Op<K, V>* at, const Op<K, V>* end, Run& out) {
    if (taken_.empty()) {
      out.ops.assign(at, end);
      return;
    }
    for (std::size_t i = 0; i < taken_.size(); ++i) {
      const std::vector<Op<K, V>>& older = taken_[i]->ops;
      std::vector<Op<K, V>>& dst = i + 1 == taken_.size() ? out.ops : merge_buf_[i % 2];
      dst.clear();
      dst.reserve(older.size() + static_cast<std::size_t>(end - at));
      const Op<K, V>* o = older.data();
      const Op<K, V>* const oe = o + older.size();
      while (o != oe && at != end) {
        if (o->key < at->key) {
          dst.push_back(*o++);
        } else {
          if (!(at->key < o->key)) ++o;  // the newer write shadows the older
          dst.push_back(*at++);
        }
      }
      dst.insert(dst.end(), o, oe);
      dst.insert(dst.end(), at, end);
      at = dst.data();
      end = at + dst.size();
    }
  }

  void single(const Op<K, V>& o) {
    throw_if_failed();
    if (!frozen_) {
      frozen_ = true;
      if (splitters_.empty()) default_splitters();
      routes_ready_.store(true, std::memory_order_release);
    }
    submit(*shards_[shard_of(o.key)], &o, &o + 1);
    stats_.singles.fetch_add(1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  /// Normalize norm_ once (sort + newest-wins dedup, the shared batch
  /// discipline), learn splitters if this is the first mutation, then cut
  /// the sorted run into per-shard contiguous subranges — S-1 binary
  /// searches over the run — and queue each cut as its shard's next job:
  /// the queued run IS the acknowledgment barrier-free readers read.
  void apply_normalized() {
    throw_if_failed();
    sort_dedup_newest_wins(norm_, norm_scratch_);
    if (!frozen_) {
      freeze_from(norm_);
      routes_ready_.store(true, std::memory_order_release);
    }
    const Op<K, V>* at = norm_.data();
    const Op<K, V>* end = at + norm_.size();
    for (std::size_t s = 0; s < shards_.size() && at != end; ++s) {
      const Op<K, V>* hi =
          s + 1 < shards_.size()
              ? std::lower_bound(at, end, splitters_[s],
                                 [](const Op<K, V>& o, const K& k) {
                                   return o.key < k;
                                 })
              : end;
      if (hi != at) submit(*shards_[s], at, hi);
      at = hi;
    }
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  void freeze_from(const std::vector<Op<K, V>>& run) {
    frozen_ = true;
    const std::size_t S = shards_.size();
    if (S == 1) return;
    if (run.size() >= std::max<std::size_t>(cfg_.learn_sample_min, S)) {
      // Quantiles of the normalized run: keys are sorted and unique, so the
      // S-1 cut points are strictly increasing by construction.
      splitters_.reserve(S - 1);
      for (std::size_t i = 0; i + 1 < S; ++i) {
        splitters_.push_back(run[(i + 1) * run.size() / S].key);
      }
      stats_.learned_splitters.fetch_add(1, std::memory_order_relaxed);
    } else {
      default_splitters();
    }
  }

  void default_splitters() {
    const std::size_t S = shards_.size();
    if (S == 1) return;
    if constexpr (std::unsigned_integral<K>) {
      const K step =
          static_cast<K>(std::numeric_limits<K>::max() / S + K{1});
      splitters_.reserve(S - 1);
      for (std::size_t i = 1; i < S; ++i) {
        splitters_.push_back(static_cast<K>(step * i));
      }
    }
    // Non-integral keys without explicit splitters are rejected at
    // construction, so this branch is never reached with S > 1.
  }

  void drain_shard(const Shard& sh) const {
    throw_if_failed();
    if (sh.completed.load(std::memory_order_acquire) ==
        sh.submitted.load(std::memory_order_acquire)) {
      return;
    }
    stats_.drains.fetch_add(1, std::memory_order_relaxed);
    while (sh.completed.load(std::memory_order_acquire) !=
           sh.submitted.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  void drain_all() const {
    for (const auto& sh : shards_) drain_shard(*sh);
  }

  /// One cache line of the find counters. A find counts itself in the
  /// stripe of its reclamation slot, index mod kFindStripes: slot indices
  /// stay as dense as the live reader threads, so up to kFindStripes
  /// readers each count on a line no other thread writes, and beyond that
  /// the fetch_add keeps shared stripes exact.
  static constexpr std::size_t kFindStripes = 64;
  struct alignas(64) FindStripe {
    std::atomic<std::uint64_t> finds{0}, retries{0};
  };

  /// Internal counters: atomics so const read paths can bump them from any
  /// thread (ShardedStats is the plain photograph stats() returns).
  struct AtomicShardedStats {
    std::atomic<std::uint64_t> jobs{0}, batches{0}, singles{0}, drains{0},
        learned_splitters{0}, queue_peak_jobs{0};  // the owner writes the peak
    std::array<FindStripe, kFindStripes> find_stripes;
    FindStripe& stripe(std::size_t slot) noexcept {
      return find_stripes[slot % kFindStripes];
    }
    void copy_from(const AtomicShardedStats& o) noexcept {
      jobs.store(o.jobs.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      batches.store(o.batches.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      singles.store(o.singles.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      drains.store(o.drains.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      learned_splitters.store(
          o.learned_splitters.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      queue_peak_jobs.store(o.queue_peak_jobs.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      for (std::size_t i = 0; i < find_stripes.size(); ++i) {
        find_stripes[i].finds.store(
            o.find_stripes[i].finds.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        find_stripes[i].retries.store(
            o.find_stripes[i].retries.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
    }
  };

  /// Queued runs carry a filter when keys hash (common/filter.hpp): a find
  /// meets each run once, cold from the owner's cache, and a filter probe
  /// is one line where a binary search is a chain of them.
  static constexpr bool kRunFilters = filt::filter_hashable_v<K>;

  /// Bounded optimistic retries: the re-check buys freshness, not safety
  /// (every published view is individually consistent), so a small cap
  /// keeps find wait-free under a republishing storm.
  static constexpr int kFindRetries = 3;

  /// How often an idle worker retries freeing the objects it retired while
  /// a reader was inside find(): the delay before memory held by a stalled
  /// or just-finished reader is freed once writes stop.
  static constexpr std::chrono::milliseconds kReclaimPoll{10};

  ShardedConfig<K> cfg_;
  std::vector<K> splitters_;
  bool frozen_ = false;  // owner-thread routing state; readers gate on
  std::atomic<bool> routes_ready_{false};  // ...this release-published flag
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> epoch_{0};
  std::vector<Op<K, V>> norm_, norm_scratch_;  // batch normalization scratch
  std::vector<const Run*> taken_;             // submit: the runs it merges
  std::array<std::vector<Op<K, V>>, 2> merge_buf_;  // ...and their partial merges
  // Snapshot cache (one fusion per facade epoch) + fusion scratch, guarded:
  // concurrent acquirers serialize on snap_mu_, the handle they get back is
  // free-threaded.
  mutable std::mutex snap_mu_;
  mutable snap::Snapshot<K, V> snap_cache_;
  mutable std::uint64_t snap_epoch_ = 0;
  mutable std::vector<snap::Snapshot<K, V>> snap_parts_;
  mutable AtomicShardedStats stats_;
};

}  // namespace costream::shard
