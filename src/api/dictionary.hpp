// The unified dictionary facade.
//
// Every structure in the library implements the same informal interface:
//
//   void insert(const K&, const V&);           // upsert, newest wins
//   void insert_batch(Span<Entry<K,V>>);       // bulk upsert (contract below)
//   void erase(const K&);                      // blind delete (tombstones in
//                                              // the write-optimized ones)
//   void erase_batch(Span<K>);                 // bulk blind delete
//   void apply_batch(Span<Op<K,V>>);           // mixed put/erase batch
//   std::optional<V> find(const K&) const;
//   Snapshot snapshot() const;                 // point-in-time read handle
//   template <class Fn> void range_for_each(const K& lo, const K& hi, Fn&&);
//   Cursor make_cursor() const;                // resumable ordered cursor
//
// Snapshot contract (snapshot(), snap::Snapshot in common/snapshot.hpp):
//   * snapshot() returns a point-in-time handle: an immutable, ref-counted
//     set of sorted segments stamped with the dictionary's mutation epoch
//     at acquisition. The handle — and every cursor opened on it — reads
//     EXACTLY that version forever, across arbitrary later mutations of
//     the dictionary. Nothing is ever invalidated; drop the handle and
//     acquire a new one to observe newer data.
//   * Acquisition is cheap: the tiered COLA pins its live segments and
//     one immutable segment per staging run (a refcount bump per segment;
//     only runs appended or rewritten since the last acquisition are
//     copied), and repeated acquisitions between mutations return a cached
//     handle (pure refcount bump). In-place structures (B-tree, CO B-tree,
//     PMA-backed) materialize their contents into one segment per
//     acquisition — O(N) copy, also cached per epoch — so snapshot() on
//     them is a consistency tool, not a hot-path read primitive.
//   * Folds/merges retire replaced segments by dropping references; a
//     segment pinned by any live snapshot survives until the last handle
//     drops (deferred free by refcount — no drain barrier, no free list to
//     poll). snap::live_segment_count() observes the global census; the
//     leak tests assert it returns to baseline after snapshot churn.
//   * A detached Snapshot carries no accounting or scratch state: its
//     find()/for_each/range_for_each/make_cursor are safe to call from any
//     thread, concurrently with writer-thread mutations of the dictionary
//     it came from. (DAM transfer accounting applies only to reads issued
//     through the owning structure's own cursors and scans.)
//
// Read-concurrency contract (which calls tolerate which threads):
//   * Plain structures (COLA family, B-tree, CO B-tree, shuttle family,
//     BRT) are SINGLE-THREADED objects: one thread at a time, reads and
//     writes alike. Cross-thread reading goes through a detached Snapshot
//     (free-threaded, above).
//   * The sharded facade (shard/sharded_dictionary.hpp) splits the
//     contract in two. MUTATORS — insert/erase/insert_batch/erase_batch/
//     apply_batch/flush_stage — plus shard()/shard_mut() and
//     check_invariants() are single-caller: one external owner thread.
//     The const READ paths — find(), snapshot(), make_cursor() and its
//     seeks, for_each, range_for_each, stats(), epoch(), drain() — are
//     safe from ANY number of threads, concurrently with the owner's
//     mutations.
//   * Sharded find() is BARRIER-FREE and linearizable: it never drains a
//     shard and never waits on a writer (the old "find() drains its one
//     target shard" protocol is gone). It reflects every mutation whose
//     facade call RETURNED before the find began — reads-your-
//     acknowledged-writes, from any thread — and may additionally reflect
//     queued runs the worker has applied since; it never observes a
//     partial batch. Implementation: the shard's queued runs (each
//     acknowledged run stays readable in its queue slot until a published
//     view covers it) + the worker's published immutable view,
//     revalidated against a per-shard sequence (optimistic, bounded
//     retries); the linearizability hammer in
//     tests/linearizability_test.cpp is the enforcement. All are raw
//     pointers under epoch-based reclamation
//     (shard/reclaim.hpp), so a find takes no lock, copies no shared_ptr
//     and bumps no shared counter: it writes its own thread's
//     reclamation slot and counter stripe (threads past the 64th share
//     stripes), and concurrent finds scale with reader threads.
//   * A sharded snapshot() from a non-owner thread still drains (it is a
//     barrier by design) and reflects, per shard, all acknowledged writes
//     plus possibly some just-applied ones; from the owner thread it is
//     an exact cut.
//
// Cursor contract (make_cursor / seek / next / valid / entry):
//   * make_cursor() returns a detached cursor object; creating it may
//     allocate once, but every seek()/next() after the cursor's scratch has
//     reached its high-water size is allocation-free — repeated scans and
//     seek-heavy workloads pay zero setup allocations (verified by the
//     operator-new-counting tests).
//   * seek(lo) positions at the smallest live key >= lo; seek(lo, hi)
//     additionally never surfaces keys past hi (structures use the bound to
//     prune whole subtrees/segments at seek time); seek_first() positions
//     at the smallest live key with no sentinel bound. After a seek,
//     valid() says whether an entry is available and entry() returns it;
//     next() advances to the next live key ascending.
//   * The stream is the SNAPSHOT AT SEEK: newest value per key as of the
//     seek, erased keys suppressed — including operations still buffered
//     in staging arenas, edge buffers, or node buffers. On the amortized
//     COLA (Gcola and its presets) and the sharded facade each seek pins
//     the then-current snapshot of ref-counted segments, so the position
//     and the remainder of the stream STAY VALID across arbitrary
//     mutations (the old "any mutation invalidates outstanding cursors"
//     rule is gone); re-seek to observe newer data. Structures without
//     segment-backed storage (B-tree, CO B-tree, shuttle family, BRT, the
//     deamortized COLAs) walk live arrays/nodes: their cursors still
//     require a re-seek after a mutation — when a scan must survive
//     concurrent writes on those structures, open it on snapshot()
//     instead, which gives the pinned semantics everywhere.
//   * Sharded dictionaries (shard/sharded_dictionary.hpp) acquire their
//     snapshot by fusing per-shard snapshots under one epoch, so a sharded
//     cursor reads one consistent cross-shard version and never races the
//     shard worker threads; the former seek-time drain barrier and
//     epoch-invalidation protocol are gone.
//   * range_for_each/for_each are implemented ON TOP of the snapshot
//     cursor in the amortized COLA (one bounded seek over a one-shot
//     internal snapshot, cached per mutation epoch) and on the native
//     ordered walk elsewhere, so the read paths cannot diverge and
//     repeated range scans are allocation-free. Scans are not reentrant:
//     do not mutate the dictionary or start another scan from inside the
//     callback.
//
// Batch contract (insert_batch / erase_batch / apply_batch):
//   * The primary signatures take costream::Span<T> (common/span.hpp) —
//     implicitly constructible from std::vector, std::array, C arrays, or
//     an explicit {ptr, len} pair.
//   * The input run may be UNSORTED and may contain DUPLICATE keys; the
//     structure sorts and deduplicates internally.
//   * Within the batch the LAST operation on a key wins — for apply_batch
//     that includes put-vs-erase shadowing: {put k, erase k} erases,
//     {erase k, put k} leaves the put — and the batch as a whole is newer
//     than everything already in the dictionary. Every batch call is
//     therefore observationally equivalent to replaying its operations with
//     insert()/erase() one at a time in input order, including against
//     previously erased (tombstoned) keys.
//   * erase_batch(keys) == apply_batch of |keys| blind deletes. Erasing an
//     absent key is a no-op (the tombstone annihilates unmatched); a later
//     put of that key within the same batch or after it wins as usual.
//   * Tombstone visibility: an erase is visible to find/range_for_each/
//     for_each IMMEDIATELY after the mutator returns, even while the
//     physical tombstone is still buffered (COLA staging arena or level
//     segments, shuttle edge buffers, BRT node buffers). Readers never see
//     a tombstone as an entry and never see the shadowed older value.
//     Snapshots taken BEFORE the erase keep serving the old value — that
//     is the point of them.
//   * The write-optimized structures honor the equivalence with far fewer
//     block transfers: the COLA normalizes the whole mixed run once and
//     carries it in ONE cascaded merge (tombstones ride the cascade exactly
//     like insertions, per the paper's delete treatment), the shuttle tree
//     shuttles the run — tombstones included — down its edge buffers in one
//     pass, and the BRT appends runs to the root buffer a block at a time.
//     In-place structures (B-tree, CO B-tree) apply normalized runs
//     directly, with no tombstones. The deamortized COLAs feed the
//     normalized run through their budgeted path: tombstones count as moved
//     items, so the worst-case move bounds (g*k + 2 and (g+1)*k + 4 per
//     op, Lemma 21 / Theorem 24 generalized) hold verbatim for mixed
//     batches.
//   * An empty span is a no-op; a span's pointer may be null only when its
//     size is 0.
//
// The Dictionary concept below states that contract, and AnyDictionary
// type-erases it so examples and integration tests can drive every structure
// through one code path without templating the world.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/entry.hpp"
#include "common/loser_tree.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"

namespace costream::api {

/// The point-in-time read handle every structure's snapshot() returns
/// (contract above; implementation in common/snapshot.hpp). One concrete
/// type across all structures — AnyDictionary needs no erasure for it.
template <class K = Key, class V = Value>
using Snapshot = snap::Snapshot<K, V>;

/// The resumable-cursor half of the Dictionary concept (contract above).
template <class C, class K = Key, class V = Value>
concept DictionaryCursor = requires(C c, const C cc, K k) {
  { c.seek(k) };
  { c.seek(k, k) };
  { c.seek_first() };
  { c.next() };
  { cc.valid() } -> std::same_as<bool>;
  { cc.entry() } -> std::same_as<const Entry<K, V>&>;
};

template <class D, class K = Key, class V = Value>
concept Dictionary = requires(D d, const D cd, K k, V v, Span<Entry<K, V>> batch,
                              Span<K> keys, Span<Op<K, V>> ops) {
  { d.insert(k, v) };
  { d.insert_batch(batch) };
  { d.erase(k) };
  { d.erase_batch(keys) };
  { d.apply_batch(ops) };
  { cd.find(k) } -> std::same_as<std::optional<V>>;
  { cd.snapshot() } -> std::convertible_to<snap::Snapshot<K, V>>;
  { cd.make_cursor() };
  requires DictionaryCursor<decltype(cd.make_cursor()), K, V>;
};

/// Inner merge-join over two dictionaries: sink(key, a_value, b_value) for
/// every key live in BOTH, ascending. Driven by the cursor API — each
/// cursor's first seek pins its side's then-current snapshot, so the join
/// reads one consistent version per side even if the dictionaries keep
/// mutating — and works across any two structures (and AnyDictionary)
/// without materializing either side. The lagging cursor leapfrogs: one
/// next(), and if still behind, a re-seek straight to the other side's key
/// — which the COLA's segment fence keys turn into whole-segment skips —
/// so sparse overlaps cost O(matches * seek) instead of O(union).
template <class DA, class DB, class Sink>
void merge_join(const DA& a, const DB& b, Sink&& sink) {
  auto ca = a.make_cursor();
  auto cb = b.make_cursor();
  ca.seek_first();
  cb.seek_first();
  while (ca.valid() && cb.valid()) {
    const auto& ea = ca.entry();
    const auto& eb = cb.entry();
    if (ea.key < eb.key) {
      ca.next();
      if (ca.valid() && ca.entry().key < eb.key) ca.seek(eb.key);
    } else if (eb.key < ea.key) {
      cb.next();
      if (cb.valid() && cb.entry().key < ea.key) cb.seek(ea.key);
    } else {
      sink(ea.key, ea.value, eb.value);
      ca.next();
      cb.next();
    }
  }
}

/// K-way inner merge-join — the leapfrog-triejoin generalization of
/// merge_join above. `merge_join_k(d0, d1, ..., dk-1, sink)` calls
/// `sink(key, values)` (values: std::array of each side's value, in
/// argument order) for every key live in ALL k dictionaries, ascending.
/// The k cursors fuse through the same cached-key LoserTree the sharded
/// scans use: the tree tracks the minimum frontier in O(log k) compares
/// per step, and whenever min < max the lagging cursor leapfrogs with one
/// re-seek straight to the frontier — segment fence keys turn that into
/// whole-segment skips, so a k-way sparse intersection costs
/// O(matches * k * seek) instead of one pass over the union per pairwise
/// stage (the k-1 materializing passes this replaces — measured in
/// bench/bench_concurrent_ingest.cpp). Mid-join re-seeks re-pin the
/// then-current snapshot on snapshot-backed cursors: against a mutating
/// side the join is a consistent prefix per seek, not one global version —
/// hold an explicit snapshot() per side when that matters.
template <class Sink, class... DS>
  requires(sizeof...(DS) >= 2)
void merge_join_k_with(Sink&& sink, const DS&... dicts) {
  constexpr std::size_t N = sizeof...(DS);
  auto curs = std::tuple(dicts.make_cursor()...);
  using E = std::remove_cvref_t<decltype(std::get<0>(curs).entry())>;
  using KT = std::remove_cvref_t<decltype(std::declval<E>().key)>;
  using VT = std::remove_cvref_t<decltype(std::declval<E>().value)>;
  std::array<KT, N> keys{};
  std::array<VT, N> vals{};
  bool all = true;
  const auto with = [&](std::size_t i, auto&& fn) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (void)((I == i ? (fn(std::get<I>(curs)), true) : false) || ...);
    }(std::make_index_sequence<N>{});
  };
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((std::get<I>(curs).seek_first(),
      std::get<I>(curs).valid()
          ? void(keys[I] = std::get<I>(curs).entry().key)
          : void(all = false)),
     ...);
  }(std::make_index_sequence<N>{});
  if (!all) return;  // one side empty: the intersection is empty
  LoserTree<KT> tree;
  tree.reset(N);
  KT maxk = keys[0];
  for (std::size_t i = 0; i < N; ++i) {
    tree.declare(i, keys[i]);
    if (maxk < keys[i]) maxk = keys[i];
  }
  tree.build();
  while (all && tree.top_alive()) {
    const std::size_t i = tree.top();
    if (!(tree.top_key() < maxk)) {
      // min == max: every cursor sits on maxk — emit the joined row, then
      // advance the winning (minimum-index) cursor past the match.
      [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((vals[I] = std::get<I>(curs).entry().value), ...);
      }(std::make_index_sequence<N>{});
      sink(maxk, vals);
      with(i, [&](auto& c) {
        c.next();
        c.valid() ? void(keys[i] = c.entry().key) : void(all = false);
      });
    } else {
      // Lagging side: one cheap next(); if still behind the frontier,
      // leapfrog with a re-seek straight to it (same stepping rule as the
      // pairwise merge_join — a seek costs a source rebuild, so it must
      // only pay for itself across real gaps).
      with(i, [&](auto& c) {
        c.next();
        if (c.valid() && c.entry().key < maxk) c.seek(maxk);
        c.valid() ? void(keys[i] = c.entry().key) : void(all = false);
      });
    }
    if (!all) break;  // a cursor drained: no further matches are possible
    if (maxk < keys[i]) maxk = keys[i];
    tree.replay(true, keys[i]);
  }
}

/// merge_join_k(dicts..., sink): trailing-sink spelling of the k-way join
/// (mirrors merge_join's argument order). At least two dictionaries.
template <class... Args>
  requires(sizeof...(Args) >= 3)
void merge_join_k(Args&&... args) {
  auto tup = std::forward_as_tuple(std::forward<Args>(args)...);
  constexpr std::size_t N = sizeof...(Args) - 1;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    merge_join_k_with(std::get<N>(std::move(tup)), std::get<I>(tup)...);
  }(std::make_index_sequence<N>{});
}

/// Deployment-level ingest tuning, threaded into every structure that has a
/// growth lever (api/presets.hpp maps it onto each structure's own config).
///
/// `growth` is the paper's g: the COLA family trades insert cost
/// O(log_g N * g / B) against search cost O(log_g N); the shuttle tree
/// scales its edge-buffer capacities by g/2; the deamortized variants keep
/// g arrays per level. `batch_hint` sizes the COLA's staging L0 arena at
/// g * batch_hint entries (0 disables staging). The presets g in
/// {2, 4, 8, 16} cover the query-leaning .. ingest-leaning range; pick by
/// feed shape, not hardware — the structures stay cache-oblivious.
struct DictConfig {
  unsigned growth = 2;            // g >= 2; 2 = the paper's headline geometry
  std::size_t batch_hint = 1024;  // expected ingest batch size (staging = g * hint)
  bool staging = false;           // unsorted L0 arena in front of the COLA levels
  double pointer_density = 0.1;   // COLA fractional-cascading density
  // Tombstone retention bound for the COLA's tiered levels: when a level's
  // tombstone fraction crosses this threshold, the next drain forces a real
  // bottom fold (annihilation) instead of a trivial move, and the deepest
  // level compacts in place — so a sustained erase-heavy feed keeps total
  // physical slots within ~1/(1-threshold) of the live set plus the
  // in-flight geometry. Values > 1.0 disable the forcing (retention then
  // bounded only by the trivial-move/real-fold alternation).
  double tombstone_threshold = 0.25;
  // Shard count S for the concurrent-ingest facade
  // (shard/sharded_dictionary.hpp): 1 = the plain single-writer structure;
  // S > 1 range-partitions the keyspace into S independent shards of the
  // SAME kind, each owned by one worker thread behind a run queue. S
  // multiplies ingest throughput (each shard runs the per-structure bound
  // at N/S) and is orthogonal to g, which tunes the geometry INSIDE each
  // shard — note the staging arena is per shard, so the facade's deferred
  // state totals S * g * batch_hint entries.
  std::size_t shards = 1;
  // Durable crash-consistent tier (storage/durable_dict.hpp; "cola" kind
  // only). Non-empty durable_dir wraps the COLA in a DurableDictionary
  // rooted at that directory: every mutation is WAL-logged before it is
  // applied, deep folds spill checksummed segment files, and reopening the
  // same directory recovers the pre-crash state. Plain types here (no
  // storage-layer includes) keep the API layer's layering: presets.hpp
  // translates them into a DurableConfig.
  std::string durable_dir;
  int durable_fsync = 1;  // 0 = every record, 1 = group commit, 2 = never
  std::size_t spill_depth = 6;  // folds at or past this level hit storage
  // Background compaction worker count for the tiered COLA ("cola" kind).
  // 0 = all folds run inline on the mutating thread (the classical bound).
  // > 0 hands deep tiered folds to a process-wide pool of this many worker
  // threads: the writer snapshots the fold's input segments, enqueues the
  // job, and returns — the fold output later installs *below* any runs
  // that arrived meanwhile, so newest-first shadowing is preserved and
  // reads/snapshots are never blocked. Large folds are range-partitioned
  // across the pool. The pool is shared process-wide, so S shards with
  // compaction_threads = c contend for max(c over shards) workers rather
  // than S * c. Set COSTREAM_COMPACTION=sync to force inline folds at
  // runtime regardless of this knob (escape hatch; behavior identical).
  unsigned compaction_threads = 0;

  /// Ingest-tuned preset for growth factor g: staging on, arena g * hint.
  static DictConfig ingest_tuned(unsigned g, std::size_t hint = 1024) {
    DictConfig c;
    c.growth = g;
    c.batch_hint = hint;
    c.staging = true;
    return c;
  }

  /// Concurrent-ingest preset: the ingest-tuned geometry, sharded S ways.
  static DictConfig concurrent(unsigned g, std::size_t shard_count,
                               std::size_t hint = 1024) {
    DictConfig c = ingest_tuned(g, hint);
    c.shards = shard_count;
    return c;
  }

  /// Background-compaction preset: ingest-tuned geometry with deep folds
  /// handed to `workers` pool threads ("cola-g8-bg2" style names).
  static DictConfig background(unsigned g, unsigned workers,
                               std::size_t hint = 1024) {
    DictConfig c = ingest_tuned(g, hint);
    c.compaction_threads = workers;
    return c;
  }

  /// Durable preset: the ingest-tuned geometry persisted under `dir` with
  /// group-commit WAL durability (the default fsync policy).
  static DictConfig durable(unsigned g, std::string dir,
                            std::size_t hint = 1024) {
    DictConfig c = ingest_tuned(g, hint);
    c.durable_dir = std::move(dir);
    return c;
  }
};

/// Type-erased dictionary over the default Key/Value types. Virtual dispatch
/// is fine here: this wrapper exists for examples and integration tests, not
/// for the benchmarked hot paths (benches use the concrete types directly).
class AnyDictionary {
 public:
  using RangeFn = std::function<void(Key, Value)>;

  template <class D>
  AnyDictionary(std::string name, D dict)
      : name_(std::move(name)), impl_(std::make_unique<Model<D>>(std::move(dict))) {}

  const std::string& name() const noexcept { return name_; }

  /// Type-erased resumable cursor (same contract as the concrete cursors;
  /// one virtual call per operation). Valid only while the AnyDictionary
  /// it came from is alive; whether a position survives mutations follows
  /// the wrapped structure's cursor contract (snapshot-backed on the COLA
  /// family and the sharded facade, live-view on the in-place structures).
  class Cursor {
   public:
    void seek(Key lo) { c_->seek(lo); }
    void seek(Key lo, Key hi) { c_->seek_bounded(lo, hi); }
    void seek_first() { c_->seek_first(); }
    void next() { c_->next(); }
    bool valid() const { return c_->valid(); }
    const Entry<>& entry() const { return c_->entry(); }

   private:
    friend class AnyDictionary;
    struct Concept {
      virtual ~Concept() = default;
      virtual void seek(Key) = 0;
      virtual void seek_bounded(Key, Key) = 0;
      virtual void seek_first() = 0;
      virtual void next() = 0;
      virtual bool valid() const = 0;
      virtual const Entry<>& entry() const = 0;
    };
    template <class C>
    struct Model final : Concept {
      explicit Model(C cur) : c(std::move(cur)) {}
      void seek(Key lo) override { c.seek(lo); }
      void seek_bounded(Key lo, Key hi) override { c.seek(lo, hi); }
      void seek_first() override { c.seek_first(); }
      void next() override { c.next(); }
      bool valid() const override { return c.valid(); }
      const Entry<>& entry() const override { return c.entry(); }
      C c;
    };
    explicit Cursor(std::unique_ptr<Concept> c) : c_(std::move(c)) {}
    std::unique_ptr<Concept> c_;
  };

  Cursor make_cursor() const { return Cursor(impl_->make_cursor_erased()); }

  /// Point-in-time handle of the wrapped structure (contract above). The
  /// handle is the one concrete Snapshot type — no erasure, no virtual
  /// dispatch on reads through it.
  Snapshot<> snapshot() const { return impl_->snapshot(); }

  void insert(Key k, Value v) { impl_->insert(k, v); }
  void insert_batch(Span<Entry<>> batch) { impl_->insert_batch(batch); }
  void erase(Key k) { impl_->erase(k); }
  void erase_batch(Span<Key> keys) { impl_->erase_batch(keys); }
  void apply_batch(Span<Op<>> ops) { impl_->apply_batch(ops); }
  std::optional<Value> find(Key k) const { return impl_->find(k); }
  void range_for_each(Key lo, Key hi, const RangeFn& fn) const {
    impl_->range_for_each(lo, hi, fn);
  }
  void for_each(const RangeFn& fn) const { impl_->for_each(fn); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void insert(Key, Value) = 0;
    virtual void insert_batch(Span<Entry<>>) = 0;
    virtual void erase(Key) = 0;
    virtual void erase_batch(Span<Key>) = 0;
    virtual void apply_batch(Span<Op<>>) = 0;
    virtual std::optional<Value> find(Key) const = 0;
    virtual Snapshot<> snapshot() const = 0;
    virtual void range_for_each(Key, Key, const RangeFn&) const = 0;
    virtual void for_each(const RangeFn&) const = 0;
    virtual std::unique_ptr<Cursor::Concept> make_cursor_erased() const = 0;
  };

  template <class D>
  struct Model final : Concept {
    explicit Model(D d) : dict(std::move(d)) {}
    void insert(Key k, Value v) override { dict.insert(k, v); }
    void insert_batch(Span<Entry<>> batch) override { dict.insert_batch(batch); }
    void erase(Key k) override { dict.erase(k); }
    void erase_batch(Span<Key> keys) override { dict.erase_batch(keys); }
    void apply_batch(Span<Op<>> ops) override { dict.apply_batch(ops); }
    std::optional<Value> find(Key k) const override { return dict.find(k); }
    Snapshot<> snapshot() const override { return dict.snapshot(); }
    void range_for_each(Key lo, Key hi, const RangeFn& fn) const override {
      dict.range_for_each(lo, hi, fn);
    }
    void for_each(const RangeFn& fn) const override { dict.for_each(fn); }
    std::unique_ptr<Cursor::Concept> make_cursor_erased() const override {
      using C = decltype(dict.make_cursor());
      return std::make_unique<Cursor::Model<C>>(dict.make_cursor());
    }
    D dict;
  };

  std::string name_;
  std::unique_ptr<Concept> impl_;
};

}  // namespace costream::api
