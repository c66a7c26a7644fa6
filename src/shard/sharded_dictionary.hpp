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
// scatters normalized batches into per-shard runs and hands each run to its
// shard's worker over a bounded SPSC ring (shard/spsc_queue.hpp); the worker
// is the ONLY thread that ever mutates its shard, so no structure needs a
// single lock — the paper's single-writer amortized analysis holds verbatim
// per shard at N/S scale (dam/bounds.hpp::sharded_insert_transfer_bound).
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
//     read path (see "Optimistic reads" below) combines the facade's
//     acknowledged-pending overlay with the shard worker's published
//     immutable view, so a find always reflects every mutation whose
//     facade call returned before the find began — reads-your-acknowledged
//     -writes — and may additionally reflect queued runs the worker has
//     applied since.
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
// Optimistic reads (the seqlock-shaped core, ROADMAP "Barrier-free point
// reads"): after EVERY applied job, a shard's worker republishes the
// shard's contents as an immutable view — the inner's snapshot() data (the
// Gcola pins its staging runs and levels, so a republish costs O(newly
// appended data), also through DurableDictionary) plus the count of jobs it
// has applied — then advances the shard's publication sequence to that
// count. The facade, on every submit, republishes the shard's
// ACKNOWLEDGED-PENDING overlay: immutable copies of the runs it has handed
// to the ring that the published view may not cover yet, pruned of the runs
// the sequence says the view covers.
// A find loads the sequence, the overlay, then the view, probes overlay
// runs newest-first and then the view, and re-checks the sequence —
// retrying on change, bounded: every published view is individually
// consistent, so the re-check buys freshness, never safety, and a hot
// writer cannot livelock a reader. The load order is the coverage argument:
// the worker stores the view, then the sequence; the facade loads the
// sequence, then stores the overlay; the reader loads the overlay, then the
// view. Each store-load pair synchronizes, so the worker's view store
// happens-before the reader's view load, which therefore returns that view
// or a later one — covering every run pruned from the reader's overlay. No
// drain, no wait: ShardedStats::drains stays untouched by find (asserted by
// tests/linearizability_test.cpp, which hammers this path with reader
// storms against writer storms and checks every observation against the
// acknowledged-write envelope).
//
// Reclamation (shard/reclaim.hpp): the view and the overlay are raw
// pointers to immutable objects. The worker retires each view it replaces;
// the owner hands each overlay it replaces to the worker inside the job it
// submits, and the worker retires it. A retired object is freed once no
// reader can still hold it. A find announces the reclamation epoch in its
// thread's own cache line before it loads either pointer and clears it
// after the probe, and counts itself in its thread's stripe of the facade's
// counters — so a find writes no memory another thread writes (no
// refcount, no lock, no shared counter; past 64 concurrent reader threads
// stripes are shared, still exact) and reads scale with reader threads.
// Writers never wait for readers: a stalled reader delays frees, never a
// publish. With no reader inside find() a retire frees at once; what a
// reader held is freed by the worker's next retire, or, once writes stop,
// by its idle pass within kReclaimPoll, so memory at a quiescent point is
// just what the current views and overlays reference. snapshot() reads the
// view under the same guard and copies the data it keeps; the facade's
// submit path never dereferences a view (it prunes against the sequence),
// so the owner holds no guard and never delays a free. Destroying the
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
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "shard/reclaim.hpp"
#include "shard/spsc_queue.hpp"

namespace costream::shard {

template <class K = Key>
struct ShardedConfig {
  std::size_t shards = 2;          // S >= 1; 1 = a single-worker baseline
  std::size_t queue_slots = 8;     // per-shard in-flight runs (ring capacity)
  std::size_t learn_sample_min = 64;  // min first-batch size to learn splitters
  std::vector<K> splitters;        // explicit boundaries (size shards - 1);
                                   // empty = learn from sample / defaults
  // TEST-ONLY planted bug (tests/linearizability_test.cpp self-test): skip
  // the acknowledged-pending overlay on the read path, so a find can miss
  // writes whose facade call already returned — exactly the freshness bug
  // the hammer's oracle must catch. Never set outside that self-test.
  bool unsafe_skip_pending_overlay = false;
};

/// Facade-level counters, all safe to read from any thread (stats() takes
/// a relaxed atomic photograph). `drains` counts read BARRIERS — snapshot
/// acquisition and direct shard access still drain; find() never does
/// (the linearizability hammer asserts the delta is zero across a pure
/// find storm). `finds`/`find_retries` count barrier-free point reads and
/// how many re-validated against a mid-read republish.
struct ShardedStats {
  std::uint64_t jobs = 0;      // runs handed to workers
  std::uint64_t batches = 0;   // facade-level batch calls
  std::uint64_t singles = 0;   // facade-level single-op calls
  std::uint64_t drains = 0;    // read barriers (whole-facade or one-shard)
  std::uint64_t learned_splitters = 0;  // 1 if quantile learning fired
  std::uint64_t finds = 0;         // barrier-free point reads served
  std::uint64_t find_retries = 0;  // sequence re-checks that looped
};

template <class Inner, class K = Key, class V = Value>
class ShardedDictionary {
 public:
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
      shards_.push_back(
          std::make_unique<Shard>(make_inner(s), cfg_.queue_slots));
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
    for (auto& sh : shards_) {
      Job* job = sh->ring.begin_push();
      job->kind = Job::Kind::kFlush;
      sh->ring.commit_push();
      sh->submitted.fetch_add(1, std::memory_order_release);
      stats_.jobs.fetch_add(1, std::memory_order_relaxed);
      sh->items.release();
    }
    epoch_.fetch_add(1, std::memory_order_release);
    drain_all();
  }

  // -- readers ----------------------------------------------------------------

  /// Barrier-free linearizable point lookup (any thread, never blocks on
  /// writers, zero drains, writes nothing another thread writes — header
  /// comment "Optimistic reads" has the full protocol, the coverage proof
  /// and the reclamation rule). Probes the acknowledged-pending overlay
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
    const reclaim::ReadGuard guard;  // everything loaded below stays alive
    FindStripe& stripe = stats_.stripe(guard.slot_index());
    stripe.finds.fetch_add(1, std::memory_order_relaxed);
    for (int attempt = 0;; ++attempt) {
      const std::uint64_t seq0 = sh.pub_seq.load(std::memory_order_acquire);
      // Overlay BEFORE view: the facade prunes the overlay against the
      // sequence it loaded before publishing, so loading in this order
      // guarantees our view covers every run pruned from our overlay.
      const PendingList* pend = sh.pending.load(std::memory_order_seq_cst);
      const ShardView* view = sh.pub_view.load(std::memory_order_seq_cst);
      const std::uint64_t applied = view != nullptr ? view->jobs_applied : 0;
      std::optional<V> out;
      bool hit = false;
      if (pend != nullptr && !cfg_.unsafe_skip_pending_overlay) {
        for (std::size_t i = pend->runs.size(); i-- > 0;) {
          const PendingRun& r = pend->runs[i];
          if (r.job <= applied) break;  // older runs are all in the view
          if (const Op<K, V>* op = r.lookup(k)) {
            hit = true;
            if (!op->erase) out = op->value;
            break;
          }
        }
      }
      if (!hit && view != nullptr && view->data != nullptr) {
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
  struct PendingList;

  /// One run of operations handed to a shard worker. The vector's capacity
  /// circulates through the ring (the worker clears, the producer refills
  /// in place), so steady-state dispatch allocates nothing.
  struct Job {
    enum class Kind : std::uint8_t { kApply, kFlush };
    Kind kind = Kind::kApply;
    std::vector<Op<K, V>> ops;
    // The overlay this job's submit replaced; the worker retires it.
    const PendingList* replaced_overlay = nullptr;
  };

  /// What a shard worker publishes after every applied job: the shard's
  /// contents as an immutable segment view plus how many jobs it covers.
  /// Readers reach it through a raw pointer under a reclaim::ReadGuard — a
  /// republish retires the old view, so it can never be freed out from
  /// under a reader mid-probe.
  struct ShardView {
    std::shared_ptr<const snap::SnapshotData<K, V>> data;
    std::uint64_t jobs_applied = 0;
  };

  /// One acknowledged run the published view may not cover yet: either a
  /// single op or an immutable copy of a normalized batch cut. `job` is the
  /// shard's 1-based submission index, the coordinate the view's
  /// jobs_applied is pruned and filtered against.
  struct PendingRun {
    std::uint64_t job = 0;
    Op<K, V> one{};  // payload when run == nullptr
    std::shared_ptr<const std::vector<Op<K, V>>> run;

    /// The run's op for `k`, or nullptr. Runs are normalized (sorted,
    /// unique keys), so this is a binary search.
    const Op<K, V>* lookup(const K& k) const {
      if (run == nullptr) {
        return !(one.key < k) && !(k < one.key) ? &one : nullptr;
      }
      const auto it = std::lower_bound(
          run->begin(), run->end(), k,
          [](const Op<K, V>& o, const K& key) { return o.key < key; });
      return it != run->end() && !(k < it->key) ? &*it : nullptr;
    }
  };

  /// The facade's acknowledged-pending overlay for one shard: every run
  /// handed to the ring whose coverage by the published view the facade
  /// had not yet observed at publish time, job index ascending. Immutable
  /// once stored; the facade replaces the whole list on each submit and
  /// hands the old one to the worker with the job.
  struct PendingList {
    std::vector<PendingRun> runs;
  };

  /// A shard: the structure, its inbox, the worker thread that is the
  /// structure's only writer, and the publication state the barrier-free
  /// readers consume. Heap-allocated (stable address) so the facade stays
  /// movable while workers hold `this` pointers into their shard.
  struct Shard {
    Shard(Inner d, std::size_t ring_slots)
        : dict(std::move(d)), ring(ring_slots) {
      // Initial publication happens on the CONSTRUCTING thread — it owns
      // the inner until the worker exists — so factory-preloaded contents
      // are visible to barrier-free readers from the first instant.
      publish(0);
      worker = std::thread([this] { run(); });
    }

    /// Joins the worker (which has retired every queued job's replaced
    /// overlay), then frees the published objects; the retire list frees
    /// the rest. No reader may still be inside find().
    ~Shard() {
      stop.store(true, std::memory_order_release);
      items.release();
      if (worker.joinable()) worker.join();
      delete pub_view.load(std::memory_order_relaxed);
      delete pending.load(std::memory_order_relaxed);
    }
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    void run() {
      std::uint64_t applied = 0;
      for (;;) {
        // Retired objects a reader still held wait for no further job: an
        // idle worker frees them every kReclaimPoll until none is left.
        if (retired.empty()) {
          items.acquire();
        } else if (!items.try_acquire_for(kReclaimPoll)) {
          retired.collect();
          continue;
        }
        Job* job = ring.peek();
        if (job == nullptr) {
          if (stop.load(std::memory_order_acquire)) return;
          continue;
        }
        // A throwing inner structure must not kill the worker (that would
        // std::terminate) and must not wedge the drain barrier: the job is
        // popped and counted NO MATTER WHAT, the first exception is kept,
        // and once failed the worker drains its queue without applying —
        // the facade rethrows on its next call (throw_if_failed). A failed
        // shard also stops republishing, freezing its view at the last
        // good state (reads rethrow before they could see it).
        if (!failed.load(std::memory_order_relaxed)) {
          try {
            if (job->kind == Job::Kind::kApply) {
              dict.apply_batch(job->ops);
            } else {
              if constexpr (requires(Inner& d) { d.flush_stage(); }) {
                dict.flush_stage();
              }
            }
            publish(applied + 1);
          } catch (...) {
            error = std::current_exception();
            failed.store(true, std::memory_order_release);
          }
        }
        ++applied;
        retired.retire(std::exchange(job->replaced_overlay, nullptr));
        job->ops.clear();  // keep capacity: it circulates back to the producer
        ring.pop();
        completed.fetch_add(1, std::memory_order_release);
      }
    }

    /// Republish this shard's immutable view covering `applied_jobs` jobs
    /// — the inner's snapshot(), whose per-epoch cache makes an unmutated
    /// republish a refcount bump — then advance the sequence readers
    /// validate against and the facade prunes against, and retire the
    /// replaced view. Publish-before-completed ordering lets drainers trust
    /// the view they load after observing completed == submitted. Runs on
    /// the worker (on the constructing thread for the initial view), which
    /// owns `retired`.
    void publish(std::uint64_t applied_jobs) {
      auto v = std::make_unique<ShardView>();
      if constexpr (requires(const Inner& d) { d.snapshot(); }) {
        v->data = dict.snapshot().data();
      }
      // A snapshot-less inner (test doubles) publishes no data: readers
      // see it as empty, exactly like the ordered-read paths would.
      v->jobs_applied = applied_jobs;
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
    SpscRing<Job> ring;
    std::counting_semaphore<(1 << 30)> items{0};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> submitted{0};  // written by the owner thread
    // Publication state (header comment "Optimistic reads"): the worker's
    // immutable view + sequence (the jobs that view covers), and the
    // facade's acknowledged-pending overlay. All three are read by any
    // number of reader threads; the worker retires the views it replaces
    // and the overlays its jobs carry.
    std::atomic<std::uint64_t> pub_seq{0};
    std::atomic<const ShardView*> pub_view{nullptr};
    std::atomic<const PendingList*> pending{nullptr};
    reclaim::RetireList retired;  // worker thread
    // First exception the worker caught; `failed` publishes it (the store
    // is release, the facade's load acquire, so the exception_ptr write
    // happens-before any rethrow).
    std::exception_ptr error;
    std::atomic<bool> failed{false};
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

  /// Replace `sh`'s acknowledged-pending overlay: keep the previous runs
  /// the published view still does not cover, append the new one, and
  /// return the old list, which the worker retires. Loading the sequence
  /// BEFORE storing the overlay is what the readers' overlay-then-view load
  /// order pairs with (coverage proof in the header comment).
  const PendingList* publish_pending(Shard& sh, PendingRun&& r) {
    const std::uint64_t applied = sh.pub_seq.load(std::memory_order_acquire);
    // The facade is this pointer's only writer, so its current list cannot
    // be retired under it.
    const PendingList* prev = sh.pending.load(std::memory_order_relaxed);
    auto next = std::make_unique<PendingList>();
    if (prev != nullptr) {
      next->runs.reserve(prev->runs.size() + 1);
      for (const PendingRun& pr : prev->runs) {
        if (pr.job > applied) next->runs.push_back(pr);
      }
    }
    next->runs.push_back(std::move(r));
    return sh.pending.exchange(next.release(), std::memory_order_seq_cst);
  }

  /// Acknowledge the run in `job` — publish `r`, its immutable copy, into
  /// the shard's overlay — then queue the job, which carries the replaced
  /// overlay to the worker.
  void submit(Shard& sh, Job* job, PendingRun&& r) {
    job->replaced_overlay = publish_pending(sh, std::move(r));
    sh.ring.commit_push();
    sh.submitted.fetch_add(1, std::memory_order_release);
    stats_.jobs.fetch_add(1, std::memory_order_relaxed);
    sh.items.release();
  }

  void single(const Op<K, V>& o) {
    throw_if_failed();
    if (!frozen_) {
      frozen_ = true;
      if (splitters_.empty()) default_splitters();
      routes_ready_.store(true, std::memory_order_release);
    }
    Shard& sh = *shards_[shard_of(o.key)];
    Job* job = sh.ring.begin_push();
    job->kind = Job::Kind::kApply;
    job->ops.push_back(o);
    PendingRun pr;
    pr.job = sh.submitted.load(std::memory_order_relaxed) + 1;
    pr.one = o;
    submit(sh, job, std::move(pr));
    stats_.singles.fetch_add(1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }

  /// Normalize norm_ once (sort + newest-wins dedup, the shared batch
  /// discipline), learn splitters if this is the first mutation, then cut
  /// the sorted run into per-shard contiguous subranges — no per-element
  /// scatter copies, just S-1 binary searches over the run. Each cut is
  /// also published (as an immutable copy) into its shard's acknowledged-
  /// pending overlay before this call returns: that copy IS the
  /// acknowledgment barrier-free readers read.
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
      if (hi != at) {
        Shard& sh = *shards_[s];
        Job* job = sh.ring.begin_push();
        job->kind = Job::Kind::kApply;
        job->ops.assign(at, hi);
        PendingRun pr;
        pr.job = sh.submitted.load(std::memory_order_relaxed) + 1;
        pr.run = std::make_shared<const std::vector<Op<K, V>>>(at, hi);
        submit(sh, job, std::move(pr));
      }
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
        learned_splitters{0};
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
