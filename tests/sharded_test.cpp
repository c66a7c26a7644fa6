// ShardedDictionary: the concurrent-ingest facade. Differential model
// traces over several inner kinds, the shard-count-invariance guarantee
// (visible contents never depend on S or on the splitters), splitter
// learning, the drain-barrier read protocol, epoch-enforced cursor
// invalidation, and the k-way merge_join_k driver.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/presets.hpp"
#include "btree/btree.hpp"
#include "cola/cola.hpp"
#include "common/rng.hpp"
#include "model_helpers.hpp"
#include "shard/sharded_dictionary.hpp"
#include "shuttle/shuttle_tree.hpp"

namespace costream {
namespace {

using shard::ShardedConfig;
using shard::ShardedDictionary;

/// Splitters spreading a small [0, universe) key range over S shards.
std::vector<Key> even_splitters(std::size_t shards, Key universe) {
  std::vector<Key> sp;
  for (std::size_t i = 1; i < shards; ++i) {
    sp.push_back(universe * i / shards);
  }
  return sp;
}

ShardedDictionary<cola::Gcola<>> make_sharded_cola(std::size_t shards,
                                                   Key universe,
                                                   unsigned g = 4) {
  ShardedConfig<> sc;
  sc.shards = shards;
  sc.splitters = even_splitters(shards, universe);
  return ShardedDictionary<cola::Gcola<>>(
      sc, [g](std::size_t) { return cola::Gcola<>(cola::ingest_tuned(g, 24)); });
}

TEST(Sharded, ModelTraceColaInner) {
  for (const std::size_t s : {1u, 2u, 4u}) {
    auto d = make_sharded_cola(s, 512);
    const auto ops = generate_ops(4'000, 512, OpMix{}, /*seed=*/17);
    testing::run_model_trace(d, ops, [&] { d.check_invariants(); });
  }
}

TEST(Sharded, ModelTraceShuttleInner) {
  ShardedConfig<> sc;
  sc.shards = 4;
  sc.splitters = even_splitters(4, 512);
  ShardedDictionary<shuttle::ShuttleTree<>> d(
      sc, [](std::size_t) { return shuttle::ShuttleTree<>(); });
  const auto ops = generate_ops(4'000, 512, OpMix{}, /*seed=*/29);
  testing::run_model_trace(d, ops, [&] { d.check_invariants(); });
}

TEST(Sharded, ModelTraceAnyDictionaryInner) {
  ShardedConfig<> sc;
  sc.shards = 2;
  sc.splitters = even_splitters(2, 512);
  ShardedDictionary<api::AnyDictionary> d(sc, [](std::size_t) {
    return api::make_dictionary("btree", api::DictConfig{});
  });
  const auto ops = generate_ops(2'000, 512, OpMix{}, /*seed=*/31);
  testing::run_model_trace(d, ops, [&] { d.check_invariants(); });
}

// The headline guarantee of range partitioning: the shard count (and the
// splitter placement) is INVISIBLE. The same deterministic mixed-op
// sequence replayed at S = 1, 2, 4, 8 — with deliberately skewed splitters
// in one arm — must produce byte-identical full sweeps and finds.
TEST(Sharded, ShardCountNeverChangesVisibleContents) {
  const Key universe = 600;
  Xoshiro256 rng(99);
  std::vector<Op<>> script;
  for (int i = 0; i < 6000; ++i) {
    const Key k = rng.below(universe);
    if (rng.below(100) < 30) {
      script.push_back(Op<>::del(k));
    } else {
      script.push_back(Op<>::put(k, rng()));
    }
  }

  const auto replay = [&](auto& d) {
    // Mix delivery shapes: single ops, then batches of varying size.
    std::size_t i = 0;
    for (; i < 500; ++i) {
      if (script[i].erase) {
        d.erase(script[i].key);
      } else {
        d.insert(script[i].key, script[i].value);
      }
    }
    std::size_t batch = 3;
    while (i < script.size()) {
      const std::size_t take = std::min(batch, script.size() - i);
      d.apply_batch({script.data() + i, take});
      i += take;
      batch = batch * 2 + 1;
      if (batch > 700) batch = 3;
    }
  };

  auto reference = make_sharded_cola(1, universe);
  replay(reference);
  const auto want = testing::collect_range(reference, 0, universe);
  ASSERT_FALSE(want.empty());

  for (const std::size_t s : {2u, 4u, 8u}) {
    auto d = make_sharded_cola(s, universe);
    replay(d);
    const auto got = testing::collect_range(d, 0, universe);
    ASSERT_EQ(got.size(), want.size()) << "S=" << s;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].key, want[j].key) << "S=" << s << " pos " << j;
      EXPECT_EQ(got[j].value, want[j].value) << "S=" << s << " pos " << j;
    }
  }

  // Skewed splitters: most of the keyspace lands in shard 0. Still the
  // same contents.
  {
    ShardedConfig<> sc;
    sc.shards = 3;
    sc.splitters = {universe - 20, universe - 10};
    ShardedDictionary<cola::Gcola<>> d(
        sc, [](std::size_t) { return cola::Gcola<>(cola::ingest_tuned(2, 24)); });
    replay(d);
    const auto got = testing::collect_range(d, 0, universe);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].key, want[j].key) << "skewed pos " << j;
      EXPECT_EQ(got[j].value, want[j].value) << "skewed pos " << j;
    }
  }
}

TEST(Sharded, LearnedSplittersBalanceUniformFeed) {
  ShardedConfig<> sc;
  sc.shards = 4;
  sc.learn_sample_min = 64;
  ShardedDictionary<btree::BTree<>> d(sc,
                                      [](std::size_t) { return btree::BTree<>(512); });
  // First mutation is a large batch: quantile learning fires.
  std::vector<Entry<>> batch;
  Xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i) batch.push_back(Entry<>{rng(), 1});
  d.insert_batch(batch);
  EXPECT_EQ(d.stats().learned_splitters, 1u);
  ASSERT_EQ(d.splitters().size(), 3u);
  EXPECT_LT(d.splitters()[0], d.splitters()[1]);
  EXPECT_LT(d.splitters()[1], d.splitters()[2]);

  // Keep feeding from the same distribution; shards stay roughly balanced.
  for (int r = 0; r < 8; ++r) {
    batch.clear();
    for (int i = 0; i < 4096; ++i) batch.push_back(Entry<>{rng(), 2});
    d.insert_batch(batch);
  }
  d.check_invariants();
  std::size_t total = 0;
  std::vector<std::size_t> per_shard;
  for (std::size_t s = 0; s < 4; ++s) {
    std::size_t count = 0;
    auto c = d.shard(s).make_cursor();
    for (c.seek_first(); c.valid(); c.next()) ++count;
    per_shard.push_back(count);
    total += count;
  }
  ASSERT_GT(total, 30000u);
  for (const std::size_t count : per_shard) {
    EXPECT_GT(count, total / 8) << "a shard holds far less than its share";
    EXPECT_LT(count, total / 2) << "a shard holds far more than its share";
  }
}

TEST(Sharded, SmallFirstMutationFallsBackToPrefixDefaults) {
  ShardedConfig<> sc;
  sc.shards = 4;
  ShardedDictionary<btree::BTree<>> d(sc,
                                      [](std::size_t) { return btree::BTree<>(512); });
  d.insert(42, 1);  // single op: key-prefix defaults freeze
  EXPECT_EQ(d.stats().learned_splitters, 0u);
  ASSERT_EQ(d.splitters().size(), 3u);
  // Uniform 64-bit keys then spread across all four shards.
  std::vector<Entry<>> batch;
  Xoshiro256 rng(11);
  for (int i = 0; i < 4096; ++i) batch.push_back(Entry<>{rng(), 1});
  d.insert_batch(batch);
  d.check_invariants();
  for (std::size_t s = 0; s < 4; ++s) {
    auto c = d.shard(s).make_cursor();
    c.seek_first();
    EXPECT_TRUE(c.valid()) << "shard " << s << " got no keys";
  }
}

// Epoch enforcement: any mutation — including ones routed to a DIFFERENT
// shard than the cursor is positioned in — invalidates the cursor until
// re-seek. This is the drain-barrier contract from api/dictionary.hpp.
TEST(Sharded, CursorPinsItsSnapshotAcrossMutations) {
  // The snapshot cursor contract (api/dictionary.hpp): a seek pins the
  // then-current fused snapshot, so mutations — in ANY shard — neither
  // invalidate the cursor nor leak into its stream; a re-seek pins the
  // newer snapshot and observes them.
  auto d = make_sharded_cola(4, 400);
  std::vector<Entry<>> batch;
  for (Key k = 0; k < 400; k += 2) batch.push_back(Entry<>{k, k + 1});
  d.insert_batch(batch);

  auto c = d.make_cursor();
  c.seek(0);
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 0u);
  c.next();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 2u);

  d.insert(399, 7);  // routes to the LAST shard; the pinned stream is unmoved
  ASSERT_TRUE(c.valid()) << "a mutation must not invalidate a pinned cursor";
  std::size_t rest = 0;
  bool saw_399 = false;
  for (; c.valid(); c.next()) {
    saw_399 = saw_399 || c.entry().key == 399u;
    ++rest;
  }
  EXPECT_EQ(rest, 199u) << "pinned stream lost entries (2..398 evens)";
  EXPECT_FALSE(saw_399) << "post-seek insert leaked into the pinned stream";

  c.seek(399);  // re-seek pins the newer snapshot: the insert is visible
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 399u);
  EXPECT_EQ(c.entry().value, 7u);

  d.erase(2);
  c.seek(2);
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 4u) << "erase must be visible after re-seek";

  // Bounded seek: nothing past hi is surfaced.
  c.seek(10, 14);
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 10u);
  c.next();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 12u);
  c.next();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 14u);
  c.next();
  EXPECT_FALSE(c.valid());
}

// Hammer the drain barrier: long alternation of async batch dispatch and
// immediate reads. Every read must see every prior write (the barrier), and
// the final sweep must match a model.
TEST(Sharded, DrainBarrierReadYourWrites) {
  auto d = make_sharded_cola(4, 1 << 16, /*g=*/8);
  std::map<Key, Value> model;
  Xoshiro256 rng(5);
  std::vector<Op<>> batch;
  for (int round = 0; round < 200; ++round) {
    batch.clear();
    const std::size_t n = 1 + rng.below(96);
    for (std::size_t i = 0; i < n; ++i) {
      const Key k = rng.below(1 << 16);
      if (rng.below(100) < 25) {
        batch.push_back(Op<>::del(k));
        model.erase(k);
      } else {
        const Value v = rng();
        batch.push_back(Op<>::put(k, v));
        model[k] = v;
      }
    }
    d.apply_batch(batch);
    // Immediate point reads: the per-shard drain barrier must make every
    // op of the batch visible.
    for (int probe = 0; probe < 4; ++probe) {
      const Key k = rng.below(1 << 16);
      const auto it = model.find(k);
      const auto got = d.find(k);
      ASSERT_EQ(got.has_value(), it != model.end()) << "round " << round;
      if (it != model.end()) {
        ASSERT_EQ(*got, it->second);
      }
    }
  }
  const auto got = testing::collect_range(d, 0, ~0ULL);
  ASSERT_EQ(got.size(), model.size());
  std::size_t j = 0;
  for (const auto& [k, v] : model) {
    ASSERT_EQ(got[j].key, k);
    ASSERT_EQ(got[j].value, v);
    ++j;
  }
}

TEST(Sharded, PresetsBuildShardedFacade) {
  for (const char* kind : {"cola", "shuttle", "btree"}) {
    auto d = api::make_dictionary(kind, api::DictConfig::concurrent(4, 4, 24));
    EXPECT_EQ(d.name(), std::string(kind) + "-s4");
    std::vector<Entry<>> batch;
    for (Key k = 0; k < 300; ++k) batch.push_back(Entry<>{k * 7, k});
    d.insert_batch(batch);
    for (Key k = 0; k < 300; ++k) {
      const auto got = d.find(k * 7);
      ASSERT_TRUE(got.has_value()) << kind << " key " << k * 7;
      EXPECT_EQ(*got, k);
    }
    std::size_t seen = 0;
    d.range_for_each(0, ~0ULL, [&](Key, Value) { ++seen; });
    EXPECT_EQ(seen, 300u);
  }
}

TEST(Sharded, ConfigValidation) {
  const auto build = [](std::size_t shards, std::vector<Key> splitters) {
    ShardedConfig<> sc;
    sc.shards = shards;
    sc.splitters = std::move(splitters);
    ShardedDictionary<btree::BTree<>> d(
        sc, [](std::size_t) { return btree::BTree<>(512); });
  };
  EXPECT_THROW(build(0, {}), std::invalid_argument);
  // Not strictly ascending.
  EXPECT_THROW(build(4, (std::vector<Key>{10, 10, 20})), std::invalid_argument);
  // Wrong splitter count.
  EXPECT_THROW(build(4, (std::vector<Key>{10, 20})), std::invalid_argument);
}

TEST(Sharded, WorkerExceptionSurfacesStickyAndTearsDownCleanly) {
  // An inner structure that throws on its worker thread must not
  // std::terminate the process, must not wedge the drain barrier (jobs are
  // counted even when dropped), and must surface the exception on the
  // facade thread — stickily — on the next call. Destruction afterwards
  // must join the workers without hanging (the regression this guards).
  struct ThrowingDict {
    cola::Gcola<> inner;
    void apply_batch(costream::Span<Op<>> /*ops*/) {
      throw std::runtime_error("inner dict exploded");
    }
    std::optional<Value> find(const Key& k) const { return inner.find(k); }
    auto make_cursor() const { return inner.make_cursor(); }
  };
  ShardedConfig<> sc;
  sc.shards = 2;
  sc.splitters = {256};
  // Parenthesized value-init: list-init would copy-list-initialize `inner`
  // through Gcola's explicit default constructor and trip -Werror.
  ShardedDictionary<ThrowingDict> d(sc,
                                    [](std::size_t) { return ThrowingDict(); });
  // A later insert may already meet the failure (the first job can throw
  // before the owner is done queueing); find() is barrier-free and may
  // legitimately race ahead of the failure landing; drain() is the ordered
  // barrier that waits for the worker to pop (and drop) every job. One of
  // them must surface the sticky exception.
  bool threw = false;
  std::string what;
  try {
    for (Key k = 0; k < 8; ++k) d.insert(k, k + 1);
    d.drain();
    (void)d.find(1);
  } catch (const std::runtime_error& e) {
    threw = true;
    what = e.what();
  }
  EXPECT_TRUE(threw) << "worker exception never reached the facade thread";
  EXPECT_EQ(what, "inner dict exploded");
  // Sticky: every later call — reads and writes alike — rethrows.
  EXPECT_THROW((void)d.find(300), std::runtime_error);
  EXPECT_THROW(d.insert(1, 1), std::runtime_error);
  EXPECT_THROW((void)d.find(1), std::runtime_error);
}

// ---- merge_join_k -----------------------------------------------------------

// The TSan hammer (CI runs this binary under -fsanitize=thread): detached
// snapshot cursors scan on reader threads while the facade ingests >= 10^6
// mixed mutations — the shard workers fold and retire the very segments
// the readers stand on. Refcount pinning means the readers must observe
// EXACTLY their stamped contents (count and epoch), with no torn reads for
// TSan to flag. This is the scan-under-ingest guarantee the old
// drain-barrier protocol could not offer at all.
TEST(Sharded, SnapshotScansSurviveConcurrentIngestStorm) {
  auto d = make_sharded_cola(4, 1 << 20, /*g=*/4);
  std::vector<Op<>> batch;
  Xoshiro256 rng(17);
  auto mutate = [&](std::size_t ops) {
    batch.clear();
    batch.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) {
      const Key k = rng.below(1 << 20);
      if (rng.below(100) < 25) {
        batch.push_back(Op<>::del(k));
      } else {
        batch.push_back(Op<>::put(k, k + 1));
      }
    }
    d.apply_batch(batch);
  };
  mutate(50'000);  // seed contents so the snapshot pins real segments

  const auto snap = d.snapshot();
  const std::uint64_t stamped_epoch = snap.epoch();
  std::size_t stamped_count = 0;
  snap.for_each([&](const Key&, const Value&) { ++stamped_count; });
  ASSERT_GT(stamped_count, 0u);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // One cursor per thread (cursors are not shared); the snapshot
      // handle itself is free-threaded.
      while (!stop.load(std::memory_order_acquire)) {
        auto c = snap.make_cursor();
        std::size_t n = 0;
        for (c.seek_first(); c.valid(); c.next()) ++n;
        if (n != stamped_count || c.epoch() != stamped_epoch) {
          ok.store(false, std::memory_order_release);
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // >= 10^6 mutations while the readers scan: folds cascade constantly at
  // g=4 with a small staging arena.
  for (int round = 0; round < 250; ++round) mutate(4'096);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_TRUE(ok.load()) << "a concurrent scan diverged from its stamp";
  EXPECT_GT(scans.load(), 0u);
  // And the snapshot still reads its stamp after the storm.
  std::size_t after = 0;
  snap.for_each([&](const Key&, const Value&) { ++after; });
  EXPECT_EQ(after, stamped_count);
  EXPECT_EQ(snap.epoch(), stamped_epoch);
}

TEST(MergeJoinK, MatchesPairwiseAndModel) {
  // Three structures of different kinds with a known overlap pattern.
  cola::Gcola<> a(cola::ingest_tuned(4, 64));
  btree::BTree<> b(512);
  shuttle::ShuttleTree<> c;
  std::set<Key> ka, kb, kc;
  Xoshiro256 rng(123);
  for (int i = 0; i < 4000; ++i) {
    const Key k = rng.below(2000);
    switch (rng.below(7)) {
      case 0: a.insert(k, k + 1), ka.insert(k); break;
      case 1: b.insert(k, k + 2), kb.insert(k); break;
      case 2: c.insert(k, k + 3), kc.insert(k); break;
      case 3:  // seed three-way matches often enough to be interesting
        a.insert(k, k + 1), ka.insert(k);
        b.insert(k, k + 2), kb.insert(k);
        c.insert(k, k + 3), kc.insert(k);
        break;
      case 4: a.insert(k, k + 1), ka.insert(k);
              b.insert(k, k + 2), kb.insert(k); break;
      case 5: b.insert(k, k + 2), kb.insert(k);
              c.insert(k, k + 3), kc.insert(k); break;
      default: a.insert(k, k + 1), ka.insert(k);
               c.insert(k, k + 3), kc.insert(k); break;
    }
  }
  std::vector<Key> want;
  for (const Key k : ka) {
    if (kb.count(k) != 0 && kc.count(k) != 0) want.push_back(k);
  }
  ASSERT_FALSE(want.empty());

  std::vector<Key> got;
  api::merge_join_k(a, b, c, [&](Key k, const std::array<Value, 3>& vals) {
    EXPECT_EQ(vals[0], k + 1);
    EXPECT_EQ(vals[1], k + 2);
    EXPECT_EQ(vals[2], k + 3);
    got.push_back(k);
  });
  ASSERT_EQ(got, want);

  // k = 2 degenerates to the pairwise merge_join.
  std::vector<Key> got2, want2;
  api::merge_join(a, b, [&](Key k, Value, Value) { want2.push_back(k); });
  api::merge_join_k(a, b, [&](Key k, const std::array<Value, 2>&) {
    got2.push_back(k);
  });
  EXPECT_EQ(got2, want2);
}

TEST(MergeJoinK, EmptySideShortCircuits) {
  btree::BTree<> a(512), b(512), c(512);
  a.insert(1, 1);
  b.insert(1, 1);
  std::size_t rows = 0;
  api::merge_join_k(a, b, c,
                    [&](Key, const std::array<Value, 3>&) { ++rows; });
  EXPECT_EQ(rows, 0u);
}

TEST(MergeJoinK, JoinsShardedWithUnsharded) {
  auto s = make_sharded_cola(4, 4096, /*g=*/8);
  btree::BTree<> b(512);
  cola::Gcola<> p;
  for (Key k = 0; k < 4096; k += 3) s.insert(k, k);
  for (Key k = 0; k < 4096; k += 5) b.insert(k, k);
  for (Key k = 0; k < 4096; k += 7) p.insert(k, k);
  std::vector<Key> got;
  api::merge_join_k(s, b, p, [&](Key k, const std::array<Value, 3>&) {
    got.push_back(k);
  });
  std::vector<Key> want;
  for (Key k = 0; k < 4096; k += 3 * 5 * 7) want.push_back(k);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace costream
