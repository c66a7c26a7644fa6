// Snapshot-isolated reads (contract in api/dictionary.hpp): a Snapshot is
// a point-in-time, immutable, ref-counted view — every read through it
// sees exactly the stamped contents no matter what the source dictionary
// does afterwards, and cursors opened against it (or against the COLA
// family / sharded facade, whose cursors pin a snapshot per seek) stay
// valid across arbitrary mutations. These tests drive the contract across
// every structure, the type-erased facade, the sharded facade, and the
// durable tier, and close with a cross-thread reader check — the
// single-threaded shape of the TSan hammer in sharded_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/dictionary.hpp"
#include "api/presets.hpp"
#include "brt/brt.hpp"
#include "btree/btree.hpp"
#include "cob/cob_tree.hpp"
#include "cola/cola.hpp"
#include "cola/deamortized_cola.hpp"
#include "cola/deamortized_fc_cola.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "shard/sharded_dictionary.hpp"
#include "shuttle/shuttle_tree.hpp"
#include "shuttle/swbst.hpp"
#include "storage/durable_dict.hpp"
#include "storage/fault_env.hpp"

namespace costream {
namespace {

using Model = std::map<Key, Value>;

/// Mixed mutation feed: 3 upserts to 1 blind erase over a bounded
/// universe, mirrored into the model. Deterministic per seed.
template <class D>
void churn(D& d, Model& model, std::uint64_t& seed, std::size_t ops,
           Key universe = 1'000) {
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t r = splitmix64(seed);
    const Key k = r % universe;
    if ((r >> 32) % 4 == 3) {
      d.erase(k);
      model.erase(k);
    } else {
      d.insert(k, r);
      model[k] = r;
    }
  }
}

/// Assert a snapshot reads EXACTLY the model: same entries via for_each,
/// same point lookups for present and absent keys.
void expect_snapshot_matches(const snap::Snapshot<>& snap, const Model& model,
                             Key universe = 1'000) {
  Model seen;
  snap.for_each([&](const Key& k, const Value& v) { seen[k] = v; });
  EXPECT_EQ(seen, model);
  for (Key k = 0; k < universe; k += 97) {
    const auto it = model.find(k);
    const std::optional<Value> got = snap.find(k);
    if (it == model.end()) {
      EXPECT_FALSE(got.has_value()) << "key " << k;
    } else {
      ASSERT_TRUE(got.has_value()) << "key " << k;
      EXPECT_EQ(*got, it->second) << "key " << k;
    }
  }
}

/// The core isolation property, for any Dictionary: snapshot, mutate
/// heavily (enough to trigger folds/splits/rebuilds), and verify the
/// snapshot still reads the stamped contents while live reads moved on.
template <class D>
void run_isolation(D& d, std::uint64_t seed) {
  Model model;
  churn(d, model, seed, 3'000);
  const snap::Snapshot<> snap = d.snapshot();
  const std::uint64_t stamped = snap.epoch();
  const Model frozen = model;

  churn(d, model, seed, 5'000);
  expect_snapshot_matches(snap, frozen);
  EXPECT_EQ(snap.epoch(), stamped) << "epoch moved under the snapshot";

  // The live view reflects the later mutations.
  Model live;
  d.for_each([&](const Key& k, const Value& v) { live[k] = v; });
  EXPECT_EQ(live, model);

  // A snapshot cursor over the frozen view enumerates it in order.
  auto c = snap.make_cursor();
  Key prev = 0;
  bool first = true;
  std::size_t n = 0;
  for (c.seek_first(); c.valid(); c.next()) {
    if (!first) {
      EXPECT_LT(prev, c.entry().key);
    }
    prev = c.entry().key;
    first = false;
    ++n;
  }
  EXPECT_EQ(n, frozen.size());
}

TEST(Snapshot, IsolationAcrossStructures) {
  {
    cola::Gcola<> d;  // classic mode: copy-on-snapshot levels
    run_isolation(d, 0xA1);
  }
  {
    cola::Gcola<> d(cola::ingest_tuned(4, 64));  // tiered + staging arena
    run_isolation(d, 0xA2);
  }
  {
    cola::ColaConfig cfg;
    cfg.tiered = true;
    cfg.pointer_density = 0.0;
    cola::Gcola<> d(cfg);  // tiered, no staging
    run_isolation(d, 0xA3);
  }
  {
    cola::DeamortizedCola<> d(4);
    run_isolation(d, 0xA4);
  }
  {
    cola::DeamortizedFcCola<> d(4);
    run_isolation(d, 0xA5);
  }
  {
    btree::BTree<> d;
    run_isolation(d, 0xA6);
  }
  {
    brt::Brt<> d;
    run_isolation(d, 0xA7);
  }
  {
    cob::CobTree<> d;
    run_isolation(d, 0xA8);
  }
  {
    shuttle::ShuttleTree<> d;
    run_isolation(d, 0xA9);
  }
  {
    shuttle::Swbst<> d;
    run_isolation(d, 0xAA);
  }
}

TEST(Snapshot, TypeErasedAndShardedAndDurable) {
  for (const char* kind : {"cola", "shuttle", "btree"}) {
    api::AnyDictionary d = api::make_dictionary(kind);
    run_isolation(d, 0xB1);
  }
  {
    api::DictConfig cfg;
    cfg.shards = 2;
    api::AnyDictionary d = api::make_dictionary("cola", cfg);
    run_isolation(d, 0xB2);
  }
  {
    storage::FaultInjectionEnv env;
    storage::DurableDictionary d(env);
    run_isolation(d, 0xB3);
  }
}

TEST(Snapshot, AcquisitionIsCachedPerEpoch) {
  cola::Gcola<> d(cola::ingest_tuned(4, 64));
  std::uint64_t s = 5;
  Model model;
  churn(d, model, s, 2'000);
  const snap::Snapshot<> a = d.snapshot();
  const snap::Snapshot<> b = d.snapshot();
  EXPECT_EQ(a.data(), b.data()) << "same epoch must share snapshot data";
  d.insert(1, 1);
  const snap::Snapshot<> c = d.snapshot();
  EXPECT_NE(a.data(), c.data()) << "mutation must invalidate the cache";
  EXPECT_LT(a.epoch(), c.epoch());
}

TEST(Snapshot, ColaCursorPinsSnapshotAcrossFolds) {
  // The COLA-family cursor contract: the seek pins the then-current
  // snapshot, so the REMAINDER of the stream stays valid (and correct)
  // across mutation storms that fold away the very segments it is reading.
  cola::Gcola<> d(cola::ingest_tuned(2, 32));  // small arena: frequent folds
  std::uint64_t s = 17;
  Model model;
  churn(d, model, s, 4'000);
  const Model frozen = model;

  auto c = d.make_cursor();
  c.seek_first();
  const std::uint64_t stamped = c.snapshot_epoch();
  Model streamed;
  std::size_t steps = 0;
  while (c.valid()) {
    streamed[c.entry().key] = c.entry().value;
    c.next();
    // A storm between every few steps: folds retire the pinned segments
    // from the live structure while the cursor stands on them.
    if (++steps % 50 == 0) churn(d, model, s, 200);
    EXPECT_EQ(c.snapshot_epoch(), stamped);
  }
  EXPECT_EQ(streamed, frozen);
}

TEST(Snapshot, ShardedCursorSurvivesSeekTimeMutations) {
  // Regression for the seek-time race the epoch-invalidation protocol
  // carried: a seek stamped the epoch and then read live shard structures,
  // so a mutation landing mid-scan both invalidated the cursor (valid()
  // went false) and could fold a level out from under it. The snapshot
  // redesign pins ref-counted segments at seek: the scan must now run to
  // completion, reading exactly its stamped contents, no matter how many
  // mutations land between next() calls.
  shard::ShardedConfig<> sc;
  sc.shards = 4;
  shard::ShardedDictionary<cola::Gcola<>> d(
      sc, [](std::size_t) { return cola::Gcola<>(cola::ingest_tuned(2, 32)); });
  std::uint64_t s = 23;
  Model model;
  for (int i = 0; i < 3'000; ++i) {
    const std::uint64_t r = splitmix64(s);
    d.insert(r, r);
    model[r] = r;
  }
  const Model frozen = model;

  auto c = d.make_cursor();
  c.seek_first();
  Model streamed;
  std::size_t steps = 0;
  while (c.valid()) {
    streamed[c.entry().key] = c.entry().value;
    c.next();
    if (++steps % 100 == 0) {
      for (int i = 0; i < 50; ++i) d.insert(splitmix64(s), 1);  // the storm
    }
  }
  EXPECT_EQ(streamed, frozen) << "pinned sharded scan diverged from its stamp";
  EXPECT_GE(steps, frozen.size()) << "scan was cut short by mutations";
}

TEST(Snapshot, ShardedAcquisitionRaceFreeUnderMutationStorm) {
  // Regression for the unsynchronized per-epoch snapshot cache: the facade
  // memoizes fused snapshots in snap_cache_/snap_epoch_/snap_parts_, all
  // written inside const snapshot() — so N threads acquiring concurrently
  // (while the owner keeps mutating, bumping the epoch between them) used
  // to corrupt the cache even though each returned handle is free-threaded.
  // Acquisition is now mutex-guarded; every handle any thread gets must be
  // internally stable and contain everything acked before the storm began.
  shard::ShardedConfig<> sc;
  sc.shards = 4;
  shard::ShardedDictionary<cola::Gcola<>> d(
      sc, [](std::size_t) { return cola::Gcola<>(cola::ingest_tuned(2, 32)); });
  constexpr Key kPrefill = 2'000;
  for (Key k = 0; k < kPrefill; ++k) {
    d.insert(k * 3, k);  // distinct keys, never erased by the storm
  }
  d.drain();

  std::atomic<bool> done{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> acquirers;
  for (int t = 0; t < 4; ++t) {
    acquirers.emplace_back([&, t] {
      std::uint64_t s = 100 + t;
      while (!done.load(std::memory_order_acquire)) {
        const snap::Snapshot<> snap = d.snapshot();
        // The handle must be internally stable: two passes agree, the
        // stream is strictly sorted, and nothing prefilled is missing.
        std::size_t n1 = 0;
        Key prev = 0;
        bool sorted = true;
        snap.for_each([&](const Key& k, const Value&) {
          if (n1 > 0 && k <= prev) sorted = false;
          prev = k;
          ++n1;
        });
        std::size_t n2 = 0;
        snap.for_each([&](const Key&, const Value&) { ++n2; });
        const Key probe = (splitmix64(s) % kPrefill) * 3;
        if (!sorted || n1 != n2 || n1 < kPrefill ||
            !snap.find(probe).has_value()) {
          ok.store(false);
        }
      }
    });
  }
  // The storm: the owner thread keeps appending fresh keys (epoch keeps
  // moving) while the acquirers race each other for the cache.
  for (Key k = kPrefill; k < kPrefill + 6'000; ++k) {
    d.insert(k * 3, k);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : acquirers) t.join();
  EXPECT_TRUE(ok.load()) << "a concurrently acquired snapshot was corrupt";
}

TEST(Snapshot, DetachedHandleReadableFromOtherThreads) {
  // The handle is free-threaded: readers on other threads see exactly the
  // stamped contents while the owner keeps mutating. (The TSan job drives
  // the heavier sharded variant in sharded_test.cpp.)
  cola::Gcola<> d(cola::ingest_tuned(4, 64));
  std::uint64_t s = 31;
  Model model;
  churn(d, model, s, 4'000);
  const snap::Snapshot<> snap = d.snapshot();
  const std::size_t frozen_size = model.size();

  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&snap, frozen_size, &ok] {
      for (int round = 0; round < 20; ++round) {
        std::size_t n = 0;
        snap.for_each([&](const Key&, const Value&) { ++n; });
        if (n != frozen_size) ok.store(false);
      }
    });
  }
  churn(d, model, s, 10'000);  // mutate while they read
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(ok.load()) << "a reader observed something other than the stamp";
}

/// A segment's filter starts on a cache line, so each 64-byte block is one
/// line (or the segment has no filter).
bool filter_line_aligned(const snap::Segment<>& seg) {
  return seg.filter.empty() ||
         reinterpret_cast<std::uintptr_t>(seg.filter.data()) % filt::kLineBytes == 0;
}

/// Staged Gcola configs whose arena holds several runs in front of either
/// tiered segments or classic (copy-on-snapshot) levels.
cola::ColaConfig staged_config(bool tiered, bool fences, bool filters) {
  cola::ColaConfig cfg = tiered ? cola::ingest_tuned(4, 64) : cola::ColaConfig{};
  if (!tiered) cfg.staging_capacity = 256;
  cfg.fence_keys = fences;
  cfg.filters = filters;
  return cfg;
}

TEST(Snapshot, StagedRunsArePinnedNotRecollapsed) {
  // A mutated-epoch snapshot pins each staging run as its own immutable
  // segment and reuses every run the mutation left alone, so republishing
  // after an append costs O(appended data), not a collapse of the arena.
  for (const bool tiered : {true, false}) {
    for (const bool filters : {false, true}) {
      SCOPED_TRACE(std::string(tiered ? "tiered" : "classic") +
                   (filters ? " filters" : " no-filters"));
      cola::Gcola<> d(staged_config(tiered, /*fences=*/true, filters));
      // Halving run sizes keep the binary-counter tail merge from fusing
      // them; 120 entries stay well below the 256-entry arena.
      Key next = 0;
      for (const std::size_t n : {64u, 32u, 16u, 8u}) {
        std::vector<Entry<>> batch;
        for (std::size_t i = 0; i < n; ++i, ++next) batch.push_back({next, next});
        d.insert_batch(batch);
      }
      ASSERT_EQ(d.stage_run_count(), 4u);
      const snap::Snapshot<> a = d.snapshot();
      ASSERT_EQ(a.segments().size(), 4u) << "one segment per run, no levels yet";
      EXPECT_EQ(d.snapshot().data(), a.data()) << "unmutated epoch must be cached";

      // A singleton append (8 > 1: no tail merge) mints exactly one segment.
      std::int64_t before = snap::live_segment_count().load();
      d.insert(next, next);
      ++next;
      const snap::Snapshot<> b = d.snapshot();
      EXPECT_EQ(snap::live_segment_count().load() - before, 1);
      ASSERT_EQ(b.segments().size(), 5u);
      EXPECT_EQ(b.segments()[0]->size(), 1u);
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(b.segments()[i + 1].get(), a.segments()[i].get())
            << "untouched run " << i << " was re-minted";
      }

      // A second singleton merges with the first (1 <= 1): only the merged
      // run is re-minted; b still pins the old singleton, so none is freed.
      before = snap::live_segment_count().load();
      d.insert(next, next);
      ++next;
      const snap::Snapshot<> c = d.snapshot();
      EXPECT_EQ(snap::live_segment_count().load() - before, 1);
      ASSERT_EQ(c.segments().size(), 5u);
      EXPECT_EQ(c.segments()[0]->size(), 2u);
      EXPECT_NE(c.segments()[0].get(), b.segments()[0].get());
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(c.segments()[i + 1].get(), a.segments()[i].get());
      }
      for (const snap::SegmentRef<>& seg : c.segments()) {
        EXPECT_EQ(!seg->filter.empty(), filters)
            << "run segments carry a filter exactly when cfg.filters is on";
        EXPECT_TRUE(filter_line_aligned(*seg))
            << "a staging run's filter straddles lines";
      }

      Model model;
      for (Key k = 0; k < next; ++k) model[k] = k;
      expect_snapshot_matches(c, model, next);
      d.check_invariants();
    }
  }
}

TEST(Snapshot, StagedViewsMatchLiveFindAndModel) {
  // Differential: snapshots of arenas whose runs hold cross-run duplicates
  // and tombstones shadowing level data read exactly like the live
  // structure and a std::map model — through Snapshot::find, full scans,
  // and bounded cursor seeks — and keep reading their stamp afterwards.
  // The background arm (tiered only: one pool thread, installs deferred to
  // the next fold or a drain) adds views that hold an in-flight fold's
  // filterless inputs next to filtered segments, so Snapshot::find's
  // prefetch pass meets filter blocks and unfiltered segments in one view.
  constexpr Key kUniverse = 600;
  for (const auto& [tiered, background] :
       {std::pair{true, false}, std::pair{false, false}, std::pair{true, true}}) {
    for (const bool fences : {true, false}) {
      for (const bool filters : {false, true}) {
        SCOPED_TRACE(std::string(tiered ? "tiered" : "classic") +
                     (fences ? " fences" : " no-fences") +
                     (filters ? " filters" : " no-filters") +
                     (background ? " background" : ""));
        cola::ColaConfig cfg = staged_config(tiered, fences, filters);
        if (background) {
          cfg.compaction_threads = 1;
          cfg.unsafe_defer_install = true;
        }
        cola::Gcola<> d(cfg);
        bool saw_mixed_view = false;
        Model model;
        std::vector<Entry<>> preload;
        for (Key k = 0; k < kUniverse; ++k) {
          preload.push_back({k, k});
          model[k] = k;
        }
        d.insert_batch(preload);  // over capacity: lands in the levels
        std::uint64_t s = 0x5eed + (tiered ? 1 : 0) + (fences ? 2 : 0) +
                          (filters ? 4 : 0);
        std::size_t max_runs = 0;
        snap::Snapshot<> held;
        Model held_model;
        for (int round = 0; round < 60; ++round) {
          // Batches drawn from a 64-key hot window: runs overlap each other
          // and the levels; a third of the ops are tombstones.
          const Key window = splitmix64(s) % (kUniverse - 64);
          for (int b = 0; b < 3; ++b) {
            std::vector<Op<>> ops;
            const std::size_t len = 1 + splitmix64(s) % 12;
            for (std::size_t j = 0; j < len; ++j) {
              const std::uint64_t r = splitmix64(s);
              const Key k = window + r % 64;
              if ((r >> 32) % 3 == 0) {
                ops.push_back(Op<>::del(k));
                model.erase(k);
              } else {
                ops.push_back(Op<>::put(k, r));
                model[k] = r;
              }
            }
            d.apply_batch(ops);
          }
          max_runs = std::max(max_runs, d.stage_run_count());
          const snap::Snapshot<> snap = d.snapshot();
          bool filtered = false, unfiltered = false;
          for (const snap::SegmentRef<>& seg : snap.segments()) {
            (seg->filter.empty() ? unfiltered : filtered) = true;
            ASSERT_TRUE(filter_line_aligned(*seg))
                << "a fold output's filter straddles lines";
          }
          saw_mixed_view = saw_mixed_view || (filtered && unfiltered);
          expect_snapshot_matches(snap, model, kUniverse);
          for (Key k = 0; k < kUniverse; ++k) {
            ASSERT_EQ(snap.find(k), d.find(k)) << "round " << round << " key " << k;
          }
          for (const Key lo : {Key{0}, window, window + 40, Key{kUniverse - 10}}) {
            auto c = snap.make_cursor();
            auto want = model.lower_bound(lo);
            for (c.seek(lo, lo + 50); c.valid(); c.next(), ++want) {
              ASSERT_NE(want, model.end());
              ASSERT_EQ(c.entry().key, want->first) << "seek " << lo;
              ASSERT_EQ(c.entry().value, want->second) << "seek " << lo;
            }
            EXPECT_TRUE(want == model.end() || want->first > lo + 50) << "seek " << lo;
          }
          if (held) expect_snapshot_matches(held, held_model, kUniverse);
          if (round % 7 == 0) {
            held = snap;
            held_model = model;
          }
        }
        EXPECT_GE(max_runs, 3u) << "the arena never held several runs";
        if (background && filters && !cola::compact::sync_forced()) {
          EXPECT_TRUE(saw_mixed_view)
              << "no view held a pending fold's filterless inputs";
        }
        d.check_invariants();
      }
    }
  }
}

TEST(Snapshot, AdoptedSegmentFiltersAreLineAligned) {
  // Reopen's path: segments adopted from their planes mint their filters
  // through the same line-aligned allocation as folds and staging runs.
  cola::Gcola<> d(staged_config(/*tiered=*/true, /*fences=*/true, /*filters=*/true));
  for (std::uint64_t id = 10; id > 0; --id) {
    std::vector<Key> keys;
    std::vector<Value> vals;
    for (Key k = 0; k < 100 * id + 3; ++k) {
      keys.push_back(k * 16 + id);
      vals.push_back(k);
    }
    std::vector<std::uint8_t> flags(keys.size(), 0);
    d.adopt(std::move(keys), std::move(vals), std::move(flags), id, 0);
  }
  const snap::Snapshot<> snap = d.snapshot();
  ASSERT_EQ(snap.segments().size(), 10u);
  for (const snap::SegmentRef<>& seg : snap.segments()) {
    ASSERT_FALSE(seg->filter.empty());
    EXPECT_TRUE(filter_line_aligned(*seg)) << "adopted segment " << seg->id;
  }
  EXPECT_EQ(snap.find(3 * 16 + 5), Value{3});
  d.check_invariants();
}

TEST(Snapshot, EmptyAndDefaultHandles) {
  const snap::Snapshot<> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_EQ(empty.epoch(), 0u);
  EXPECT_FALSE(empty.find(1).has_value());
  std::size_t n = 0;
  empty.for_each([&](const Key&, const Value&) { ++n; });
  EXPECT_EQ(n, 0u);

  cola::Gcola<> d;
  const snap::Snapshot<> of_empty = d.snapshot();
  of_empty.for_each([&](const Key&, const Value&) { ++n; });
  EXPECT_EQ(n, 0u);
  auto c = of_empty.make_cursor();
  c.seek_first();
  EXPECT_FALSE(c.valid());
}

}  // namespace
}  // namespace costream
