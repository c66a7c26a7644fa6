// Staging L0 + growth-factor tests: the unsorted append arena in front of
// the COLA levels (cola.hpp) must be invisible to every read path — find,
// for_each, range_for_each — while it holds unflushed entries, duplicates,
// and tombstones, for every preset growth factor. Also covers the
// DictConfig threading (api/presets.hpp) and the sorted-run normalization
// fast path (common/entry.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "api/presets.hpp"
#include "cola/cola.hpp"
#include "cola/lookahead_array.hpp"
#include "common/rng.hpp"
#include "common/workload.hpp"
#include "model_helpers.hpp"

namespace costream::cola {
namespace {

using testing::collect_range;

/// All live entries via for_each.
template <class D>
std::map<Key, Value> collect_all(const D& d) {
  std::map<Key, Value> out;
  d.for_each([&](Key k, Value v) {
    EXPECT_EQ(out.count(k), 0u) << "for_each emitted key twice: " << k;
    out[k] = v;
  });
  return out;
}

TEST(StagingL0, AbsorbsWithoutCascading) {
  Gcola<> c(ingest_tuned(4, 16));  // arena = 64 entries
  for (std::uint64_t i = 0; i < 63; ++i) c.insert(i, i * 10);
  EXPECT_EQ(c.staged_count(), 63u);
  EXPECT_EQ(c.stats().merges, 0u) << "no cascade before the arena fills";
  EXPECT_EQ(c.item_count(), 63u);
  c.check_invariants();
  c.insert(63, 630);  // 64th entry fills the arena -> one flush
  EXPECT_EQ(c.staged_count(), 0u);
  EXPECT_EQ(c.stats().stage_flushes, 1u);
  EXPECT_GE(c.stats().merges, 1u);
  for (std::uint64_t i = 0; i < 64; ++i) ASSERT_EQ(c.find(i).value(), i * 10);
}

TEST(StagingL0, FindReadsThroughUnflushedArena) {
  Gcola<> c(ingest_tuned(4, 64));
  // Deep copy first (flushed), then a newer staged copy of the same keys.
  for (std::uint64_t i = 0; i < 200; ++i) c.insert(i, i);
  c.flush_stage();
  for (std::uint64_t i = 0; i < 50; ++i) c.insert(i, 1000 + i);  // stays staged
  ASSERT_GT(c.staged_count(), 0u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(c.find(i).value(), i < 50 ? 1000 + i : i) << i;
  }
  // Staged duplicate of a staged key: the later append wins.
  c.insert(7, 7777);
  EXPECT_EQ(c.find(7).value(), 7777u);
  c.check_invariants();
}

TEST(StagingL0, TombstonesInArenaHideDeeperCopies) {
  Gcola<> c(ingest_tuned(2, 128));
  for (std::uint64_t i = 0; i < 100; ++i) c.insert(i, i);
  c.flush_stage();
  for (std::uint64_t i = 0; i < 100; i += 2) c.erase(i);  // tombstones staged
  ASSERT_GT(c.staged_count(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      ASSERT_FALSE(c.find(i).has_value()) << i;
    } else {
      ASSERT_EQ(c.find(i).value(), i) << i;
    }
  }
  // Re-insert over a staged tombstone: newest wins again.
  c.insert(4, 44);
  EXPECT_EQ(c.find(4).value(), 44u);
  const auto all = collect_all(c);
  EXPECT_EQ(all.count(2), 0u);
  EXPECT_EQ(all.at(4), 44u);
  EXPECT_EQ(all.at(5), 5u);
}

TEST(StagingL0, ScansMergeArenaNewestWins) {
  Gcola<> c(ingest_tuned(4, 256));
  // Levels: keys 0..499 with value k. Arena: odd keys rewritten, plus fresh
  // keys past the level range, plus tombstones — all unflushed.
  for (std::uint64_t k = 0; k < 500; ++k) c.insert(k, k);
  c.flush_stage();
  for (std::uint64_t k = 1; k < 500; k += 2) c.insert(k, 9000 + k);
  for (std::uint64_t k = 600; k < 650; ++k) c.insert(k, k);
  for (std::uint64_t k = 0; k < 500; k += 100) c.erase(k);
  ASSERT_GT(c.staged_count(), 0u);

  std::map<Key, Value> want;
  for (std::uint64_t k = 0; k < 500; ++k) want[k] = (k % 2 == 1) ? 9000 + k : k;
  for (std::uint64_t k = 1; k < 500; k += 2) want[k] = 9000 + k;
  for (std::uint64_t k = 600; k < 650; ++k) want[k] = k;
  for (std::uint64_t k = 0; k < 500; k += 100) want.erase(k);

  EXPECT_EQ(collect_all(c), want);

  // Bounded range crossing arena-only and level-only regions.
  const auto got = collect_range(c, 450, 620);
  std::vector<Entry<>> expect;
  for (const auto& [k, v] : want) {
    if (k >= 450 && k <= 620) expect.push_back(Entry<>{k, v});
  }
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expect[i].key);
    EXPECT_EQ(got[i].value, expect[i].value);
  }
  c.check_invariants();
}

// Audit regression (ISSUE 3): the ordered scan paths — for_each and
// range_for_each — must skip any key whose NEWEST unflushed arena entry is
// a tombstone, exactly as the newest-first find path does. Exercised with
// erase_batch runs (multi-entry tombstone runs in the arena, the shape the
// single-op tests never produced) over all three shadowing cases: a deeper
// level copy, an older arena copy, and no copy at all (blind tombstone).
TEST(StagingL0, ScansSkipBatchTombstonesInArena) {
  Gcola<> c(ingest_tuned(4, 256));  // tiered levels behind the arena
  for (std::uint64_t k = 0; k < 300; ++k) c.insert(k, k);
  c.flush_stage();
  // Older arena copies for 200..249, then one erase_batch covering: level
  // keys (0..49), arena keys (200..224), and absent keys (900..919).
  for (std::uint64_t k = 200; k < 250; ++k) c.insert(k, 5000 + k);
  std::vector<Key> victims;
  for (std::uint64_t k = 0; k < 50; ++k) victims.push_back(k);
  for (std::uint64_t k = 200; k < 225; ++k) victims.push_back(k);
  for (std::uint64_t k = 900; k < 920; ++k) victims.push_back(k);
  c.erase_batch(victims);
  ASSERT_GT(c.staged_count(), 0u) << "tombstones must still be unflushed";

  std::map<Key, Value> want;
  for (std::uint64_t k = 50; k < 300; ++k) want[k] = k;
  for (std::uint64_t k = 200; k < 250; ++k) want[k] = 5000 + k;
  for (std::uint64_t k = 200; k < 225; ++k) want.erase(k);
  EXPECT_EQ(collect_all(c), want);

  // Bounded ranges crossing each shadowed region.
  for (const auto& [lo, hi] : std::vector<std::pair<Key, Key>>{
           {0, 60}, {190, 260}, {880, 930}, {0, 1000}}) {
    const auto got = collect_range(c, lo, hi);
    std::vector<Entry<>> expect;
    for (const auto& [k, v] : want) {
      if (k >= lo && k <= hi) expect.push_back(Entry<>{k, v});
    }
    ASSERT_EQ(got.size(), expect.size()) << "range [" << lo << ", " << hi << "]";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, expect[i].key);
      EXPECT_EQ(got[i].value, expect[i].value);
    }
  }
  // A newer staged put run resurrects over the staged tombstone run.
  std::vector<Entry<>> back;
  for (std::uint64_t k = 10; k < 20; ++k) back.push_back(Entry<>{k, 7000 + k});
  c.insert_batch(back);
  const auto all = collect_all(c);
  EXPECT_EQ(all.count(5), 0u);
  EXPECT_EQ(all.at(15), 7015u);
  c.check_invariants();
}

// The same audit for the CLASSIC cascade behind a staging arena — scan()'s
// merged staged view (rather than scan_tiered's cursor fan) is the code
// under test here.
TEST(ClassicStaging, ScansSkipBatchTombstonesInArena) {
  ColaConfig cfg;  // tiered stays false: classic cascade + lookahead
  cfg.growth = 4;
  cfg.staging_capacity = 512;
  Gcola<> c(cfg);
  for (std::uint64_t k = 0; k < 300; ++k) c.insert(k, k);
  c.flush_stage();
  std::vector<Key> victims;
  for (std::uint64_t k = 100; k < 150; ++k) victims.push_back(k);
  for (std::uint64_t k = 700; k < 720; ++k) victims.push_back(k);  // absent
  c.erase_batch(victims);
  ASSERT_GT(c.staged_count(), 0u);

  std::map<Key, Value> want;
  for (std::uint64_t k = 0; k < 300; ++k) {
    if (k < 100 || k >= 150) want[k] = k;
  }
  EXPECT_EQ(collect_all(c), want);
  const auto got = collect_range(c, 90, 160);
  std::vector<Entry<>> expect;
  for (const auto& [k, v] : want) {
    if (k >= 90 && k <= 160) expect.push_back(Entry<>{k, v});
  }
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expect[i].key);
  }
  c.check_invariants();
}

// Mixed apply_batch staged and UNFLUSHED: within-batch put-vs-erase
// shadowing (last op wins) must be visible to find and both scan paths
// straight from the arena.
TEST(StagingL0, ApplyBatchShadowingVisibleWhileStaged) {
  Gcola<> c(ingest_tuned(2, 128));
  for (std::uint64_t k = 0; k < 40; ++k) c.insert(k, k);
  c.flush_stage();
  std::vector<Op<>> ops;
  ops.push_back(Op<>::put(1, 100));
  ops.push_back(Op<>::del(1));          // erase shadows the put: 1 gone
  ops.push_back(Op<>::del(2));
  ops.push_back(Op<>::put(2, 200));     // put shadows the erase: 2 = 200
  ops.push_back(Op<>::del(50));         // blind erase of an absent key
  ops.push_back(Op<>::put(60, 600));    // fresh key
  c.apply_batch(ops);
  ASSERT_GT(c.staged_count(), 0u);
  EXPECT_FALSE(c.find(1).has_value());
  EXPECT_EQ(c.find(2).value(), 200u);
  EXPECT_FALSE(c.find(50).has_value());
  EXPECT_EQ(c.find(60).value(), 600u);
  const auto all = collect_all(c);
  EXPECT_EQ(all.count(1), 0u);
  EXPECT_EQ(all.at(2), 200u);
  EXPECT_EQ(all.count(50), 0u);
  EXPECT_EQ(all.at(60), 600u);
  // And identically after the cascade carries the batch down.
  c.flush_stage();
  EXPECT_FALSE(c.find(1).has_value());
  EXPECT_EQ(c.find(2).value(), 200u);
  EXPECT_EQ(collect_all(c), all);
  c.check_invariants();
}

TEST(StagingL0, BatchLargerThanArenaFlushesOnce) {
  Gcola<> c(ingest_tuned(2, 8));  // tiny arena: 16 entries
  std::vector<Entry<>> batch;
  for (std::uint64_t i = 0; i < 100; ++i) batch.push_back(Entry<>{i, i});
  c.insert_batch(batch);
  EXPECT_EQ(c.staged_count(), 0u) << "oversized batch drains through the arena";
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_EQ(c.find(i).value(), i);
  c.check_invariants();
}

class StagingModel
    : public ::testing::TestWithParam<std::pair<unsigned, std::uint64_t>> {};

TEST_P(StagingModel, MixedTraceMatchesReference) {
  const auto [g, seed] = GetParam();
  Gcola<> c(ingest_tuned(g, 32));
  const auto ops = generate_ops(6'000, 1'500, OpMix{}, seed);
  testing::run_model_trace(c, ops, [&] { c.check_invariants(); });
}

INSTANTIATE_TEST_SUITE_P(
    GrowthSeeds, StagingModel,
    ::testing::Values(std::pair<unsigned, std::uint64_t>{2, 71},
                      std::pair<unsigned, std::uint64_t>{4, 72},
                      std::pair<unsigned, std::uint64_t>{8, 73},
                      std::pair<unsigned, std::uint64_t>{16, 74}));

// Classic (non-tiered) levels behind a staging arena — the combination
// make_lookahead_array exposes via batch_hint: flushes normalize the arena,
// widen to Slot form, and run the CLASSIC cascade with lookahead pointers
// intact, while reads merge the staged view over globally sorted levels.
class ClassicStagingModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassicStagingModel, MixedTraceMatchesReference) {
  ColaConfig cfg;  // tiered stays false: classic cascade + lookahead
  cfg.growth = 4;
  cfg.staging_capacity = 96;
  Gcola<> c(cfg);
  const auto ops = generate_ops(6'000, 1'500, OpMix{}, GetParam());
  testing::run_model_trace(c, ops, [&] { c.check_invariants(); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassicStagingModel, ::testing::Values(91, 92));

TEST(ClassicStaging, LookaheadArrayFactoryWithBatchHint) {
  auto c = make_lookahead_array(4096, 0.5, 0.1, dam::null_mem_model{}, 64);
  EXPECT_GT(c.config().staging_capacity, 0u);
  EXPECT_FALSE(c.config().tiered);
  for (std::uint64_t i = 0; i < 5'000; ++i) c.insert(mix64(i) % 2'000, i);
  c.erase(mix64(3) % 2'000);
  std::map<Key, Value> ref;
  for (std::uint64_t i = 0; i < 5'000; ++i) ref[mix64(i) % 2'000] = i;
  ref.erase(mix64(3) % 2'000);
  EXPECT_EQ(collect_all(c), ref);
  c.check_invariants();
}

// The g != 2 cascade WITHOUT staging: the capacity-aware target walk and
// lookahead rebuild must hold for every preset growth factor.
class GrowthCascadeModel : public ::testing::TestWithParam<unsigned> {};

TEST_P(GrowthCascadeModel, MixedTraceMatchesReference) {
  Gcola<> c(ColaConfig{GetParam(), 0.1});
  const auto ops = generate_ops(6'000, 1'500, OpMix{}, 80 + GetParam());
  testing::run_model_trace(c, ops, [&] { c.check_invariants(); });
}

INSTANTIATE_TEST_SUITE_P(Growth, GrowthCascadeModel, ::testing::Values(4u, 8u, 16u));

TEST(StagingL0, ChurnStaysBounded) {
  // Regression: a bounded live set under endless churn (erase + reinsert)
  // must not grow physical size without bound. The tiered trivial-move path
  // skips the bottom compaction, so it must alternate with real folds that
  // strip tombstones and dedup shadowed copies.
  Gcola<> c(ingest_tuned(4, 64));
  const std::uint64_t live = 2'048;
  for (std::uint64_t k = 0; k < live; ++k) c.insert(k, k);
  std::uint64_t peak = 0;
  for (int round = 0; round < 400; ++round) {
    for (std::uint64_t k = 0; k < live; k += 4) {
      c.erase(k);
      c.insert(k, static_cast<Value>(round));
    }
    peak = std::max(peak, c.item_count());
  }
  // Generous bound: garbage between two bottom folds is a constant factor
  // of the live set plus staging; unbounded growth blows far past this.
  EXPECT_LT(peak, 40 * live) << "churn accumulates garbage without bound";
  c.check_invariants();
  for (std::uint64_t k = 0; k < live; ++k) ASSERT_TRUE(c.find(k).has_value()) << k;
}

TEST(StagingL0, SingleOpArenaRunsStayLogarithmic) {
  // Regression: singleton puts must not leave one run per insert in the
  // arena (find() probes every run). The binary-counter tail merge keeps
  // the run count logarithmic in the arena occupancy.
  Gcola<> c(ingest_tuned(16, 256));  // arena 4096, never flushed below
  for (std::uint64_t i = 0; i < 4'000; ++i) c.insert(mix64(i), i);
  ASSERT_GT(c.staged_count(), 0u);
  EXPECT_LE(c.stage_run_count(), 16u) << "arena runs grow linearly with puts";
  for (std::uint64_t i = 0; i < 4'000; i += 97) {
    ASSERT_EQ(c.find(mix64(i)).value(), i) << i;
  }
  c.check_invariants();
}

TEST(StagingL0, TinyMixedOpBatchesKeepArenaRunsLogarithmic) {
  // Regression (code review, PR 3): singleton erase_batch/apply_batch (and
  // size-1 insert_batch) runs must counter-merge the arena tail like put()
  // does — otherwise every tiny batch leaves its own run and find() probes
  // them all.
  Gcola<> c(ingest_tuned(16, 256));  // arena 4096, never flushed below
  for (std::uint64_t i = 0; i < 1'200; ++i) {
    const Key k = mix64(i) % 4'000;
    switch (i % 3) {
      case 0: {
        const Entry<> e{k, i};
        c.insert_batch({&e, 1});
        break;
      }
      case 1:
        c.erase_batch({&k, 1});
        break;
      default: {
        const Op<> o = Op<>::put(k, i);
        c.apply_batch({&o, 1});
        break;
      }
    }
  }
  ASSERT_GT(c.staged_count(), 0u);
  EXPECT_LE(c.stage_run_count(), 16u) << "tiny batches grow arena runs linearly";
  c.check_invariants();
}

TEST(DictConfigThreading, PresetsBuildEveryKind) {
  for (const char* kind : {"cola", "shuttle", "deam", "fc-deam", "btree", "brt", "cob"}) {
    for (const unsigned g : {2u, 4u, 8u, 16u}) {
      api::AnyDictionary d = api::make_dictionary(kind, api::DictConfig::ingest_tuned(g));
      for (std::uint64_t i = 0; i < 300; ++i) d.insert(mix64(i) % 100, i);
      std::vector<Entry<>> batch;
      for (std::uint64_t i = 0; i < 64; ++i) batch.push_back(Entry<>{i, 7'000 + i});
      d.insert_batch(batch);
      for (std::uint64_t i = 0; i < 64; ++i) {
        ASSERT_EQ(d.find(i).value(), 7'000 + i) << kind << " g=" << g << " key " << i;
      }
    }
  }
  EXPECT_THROW(api::make_dictionary("nope"), std::invalid_argument);
}

TEST(DictConfigThreading, RejectsDurableDirWithoutSupport) {
  // Nothing may be created: both configs throw before touching the path.
  const std::string dir = "/nonexistent/costream-durable-reject";
  // S shards would each open a DurableDictionary on the same WAL+manifest.
  api::DictConfig sharded = api::DictConfig::durable(8, dir);
  sharded.shards = 2;
  EXPECT_THROW(api::make_dictionary("cola", sharded), std::invalid_argument);
  // Only the COLA has a durable tier; other kinds used to ignore the dir.
  for (const char* kind : {"shuttle", "deam", "fc-deam", "btree", "brt", "cob"}) {
    EXPECT_THROW(api::make_dictionary(kind, api::DictConfig::durable(8, dir)),
                 std::invalid_argument)
        << kind;
  }
}

TEST(DictConfigThreading, ConfigMapsOntoStructureConfigs) {
  const api::DictConfig c = api::DictConfig::ingest_tuned(8, 512);
  const ColaConfig cc = api::to_cola_config(c);
  EXPECT_EQ(cc.growth, 8u);
  EXPECT_EQ(cc.staging_capacity, 8u * 512u);
  EXPECT_TRUE(cc.tiered);
  EXPECT_EQ(cc.pointer_density, 0.0);
  const shuttle::ShuttleConfig sc = api::to_shuttle_config(c);
  EXPECT_EQ(sc.growth, 8u);
  const api::DictConfig plain;
  EXPECT_EQ(api::to_cola_config(plain).staging_capacity, 0u);
}

TEST(SortedRunDetection, PresortedBatchMatchesShuffled) {
  // Identical content, one feed presorted (skips the merge sort) and one
  // shuffled — results must be byte-for-byte equal, including newest-wins
  // on duplicates inside the batch.
  std::vector<Entry<>> sorted_feed, shuffled;
  for (std::uint64_t i = 0; i < 1'000; ++i) sorted_feed.push_back(Entry<>{i / 2, i});
  EXPECT_TRUE(is_sorted_by_key(sorted_feed));
  shuffled = sorted_feed;
  Xoshiro256 rng(99);
  for (std::size_t i = shuffled.size(); i-- > 1;) {
    std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
  }
  EXPECT_FALSE(is_sorted_by_key(shuffled));

  Gcola<> a, b;
  a.insert_batch(sorted_feed);
  // The shuffled feed loses the duplicate ORDER (shuffling reorders equal
  // keys), so dedup newest-wins picks a different survivor; normalize the
  // comparison by asserting against the sorted feed's own semantics instead.
  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_EQ(a.find(k).value(), 2 * k + 1) << "last duplicate must win";
  }
  b.insert_batch(shuffled);
  EXPECT_EQ(a.item_count(), b.item_count());
  a.check_invariants();
  b.check_invariants();
}

}  // namespace
}  // namespace costream::cola
