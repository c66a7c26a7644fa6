// Background compaction engine (cola/compactor.hpp + the Gcola's pending
// fold slot): deep tiered folds defer to the shared process pool, install
// BELOW post-snapshot arrivals at a later mutation, and retire their input
// segments by dropping refs — readers, cursors, and held snapshots are
// never blocked and never observe the difference. These tests pin the
// engine's contracts directly:
//
//   * differential equivalence against the inline (sync) fold path,
//   * deterministic writer-assist when the pool cannot take the job,
//   * snapshot storms across in-flight folds + the segment leak oracle,
//   * forced tombstone folds as scheduled compactions,
//   * CompactionStats counters and the preset/naming threading,
//   * DAM bit-identity: counting models always fold inline, so modeled
//     transfers are exactly equal with the engine on or off,
//   * the COSTREAM_COMPACTION=sync escape hatch (each CI leg asserts the
//     branch that matches its environment).
//
// NOTE on ordering: the process pool is grow-only, so the writer-assist
// test (which wants exactly ONE pool worker it can block) must run before
// any test that constructs a compaction_threads=2 structure. gtest runs
// tests in declaration order within a file; keep that ordering intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "api/dictionary.hpp"
#include "api/presets.hpp"
#include "cola/cola.hpp"
#include "cola/compactor.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "dam/dam_mem_model.hpp"
#include "shard/sharded_dictionary.hpp"

namespace costream {
namespace {

using Model = std::map<Key, Value>;

bool sync_env_forced() {
  const char* e = std::getenv("COSTREAM_COMPACTION");
  return e != nullptr && std::string(e) == "sync";
}

/// Mixed mutation feed mirrored into a model: 3 upserts to 1 blind erase
/// over a bounded universe, in batches that keep the cascade busy.
template <class D>
void churn(D& d, Model& model, std::uint64_t& seed, std::size_t batches,
           std::size_t batch_len = 48, Key universe = 4'000) {
  std::vector<Op<>> ops;
  for (std::size_t b = 0; b < batches; ++b) {
    ops.clear();
    for (std::size_t i = 0; i < batch_len; ++i) {
      const std::uint64_t r = splitmix64(seed);
      const Key k = r % universe;
      if ((r >> 32) % 4 == 3) {
        ops.push_back(Op<>::del(k));
        model.erase(k);
      } else {
        ops.push_back(Op<>::put(k, r));
        model[k] = r;
      }
    }
    d.apply_batch(Span<Op<>>(ops.data(), ops.size()));
  }
}

/// Assert the dictionary reads EXACTLY the model (ordered sweep + a point
/// probe of every model key and a sample of absent keys).
template <class D>
void expect_matches(D& d, const Model& model, const char* what) {
  std::vector<std::pair<Key, Value>> got;
  d.range_for_each(Key{0}, std::numeric_limits<Key>::max(),
                   [&](const Key& k, const Value& v) { got.emplace_back(k, v); });
  ASSERT_EQ(got.size(), model.size()) << what;
  std::size_t i = 0;
  for (const auto& [k, v] : model) {
    ASSERT_EQ(got[i].first, k) << what << " pos " << i;
    ASSERT_EQ(got[i].second, v) << what << " pos " << i;
    ++i;
  }
  for (const auto& [k, v] : model) {
    const auto r = d.find(k);
    ASSERT_TRUE(r.has_value()) << what << " find(" << k << ")";
    ASSERT_EQ(*r, v) << what << " find(" << k << ")";
  }
}

// Declared first so the pool has exactly ONE worker to block (see the file
// header note on ordering). Blocks that worker with a gate task, drives a
// fold into the queue, and drains: the writer MUST claim and run the fold
// inline — a deterministic writer-assist, not a race.
TEST(Compaction, WriterAssistWhenPoolIsBusy) {
  if (sync_env_forced()) GTEST_SKIP() << "COSTREAM_COMPACTION=sync";
  cola::ColaConfig cfg = cola::ingest_tuned(2, 8);
  cfg.compaction_threads = 1;  // grows the process pool to exactly 1 worker
  cfg.unsafe_defer_install = true;  // no opportunistic install: the fold
                                    // stays pending until we drain
  cola::Gcola<> d(cfg);

  std::promise<void> gate;
  std::shared_future<void> released(gate.get_future());
  std::size_t depth = 0;
  ASSERT_TRUE(cola::compact::Pool::instance().submit(
      [released] { released.wait(); }, /*forced=*/false, &depth))
      << "pool rejected the blocker task";

  Model model;
  std::uint64_t seed = 0x5eed;
  std::size_t rounds = 0;
  while (!d.compaction_pending() && rounds < 10'000) {
    churn(d, model, seed, 1, 16);
    ++rounds;
  }
  ASSERT_TRUE(d.compaction_pending()) << "no fold ever deferred";

  // The lone worker is parked on the gate, so the queued fold is
  // unclaimed: drain_compaction() must claim it and run it on THIS thread.
  d.drain_compaction();
  gate.set_value();
  EXPECT_FALSE(d.compaction_pending());

  const cola::CompactionStats cs = d.compaction_stats();
  EXPECT_GE(cs.folds_deferred, 1u);
  EXPECT_GE(cs.writer_assists, 1u) << "writer did not assist a stuck fold";
  EXPECT_GE(cs.compaction_queue_peak, 1u);
  EXPECT_GT(cs.bg_fold_ns, 0u);

  churn(d, model, seed, 32);
  d.flush_stage();
  d.drain_compaction();
  expect_matches(d, model, "post-assist contents");
}

TEST(Compaction, BackgroundFoldsDeferAndMatchModel) {
  for (const unsigned g : {2u, 8u}) {
    cola::ColaConfig cfg = cola::ingest_tuned(g, 16);
    cfg.compaction_threads = 2;
    cola::Gcola<> d(cfg);
    Model model;
    std::uint64_t seed = 17 * g;
    churn(d, model, seed, 400);
    d.flush_stage();
    d.drain_compaction();
    d.check_invariants();
    expect_matches(d, model, "background contents");
    const cola::CompactionStats cs = d.compaction_stats();
    if (sync_env_forced()) {
      EXPECT_EQ(cs.folds_deferred, 0u) << "escape hatch did not force inline";
    } else {
      EXPECT_GT(cs.folds_deferred, 0u) << "no fold was ever deferred (g=" << g
                                       << ")";
      EXPECT_GT(cs.bg_fold_ns, 0u);
    }
  }
}

TEST(Compaction, SyncAndBackgroundConverge) {
  // The same feed through the inline path and the background path must be
  // logically indistinguishable: identical ordered contents, identical
  // point reads, identical settled item counts. (Interleaved reads are
  // covered by the fuzz/linearizability arms; this pins the settled
  // states + per-batch spot probes.)
  for (const unsigned c : {1u, 2u}) {
    cola::ColaConfig sync_cfg = cola::ingest_tuned(8, 16);
    cola::ColaConfig bg_cfg = sync_cfg;
    bg_cfg.compaction_threads = c;
    cola::Gcola<> sync_d(sync_cfg);
    cola::Gcola<> bg_d(bg_cfg);
    Model model;
    std::uint64_t seed_a = 0xabcd + c, seed_b = seed_a;
    Model model_b;
    for (std::size_t round = 0; round < 40; ++round) {
      churn(sync_d, model, seed_a, 8);
      churn(bg_d, model_b, seed_b, 8);
      // Spot probes WITHOUT draining: reads must agree while folds are
      // potentially in flight on the background instance.
      for (Key k = 0; k < 4'000; k += 397) {
        ASSERT_EQ(sync_d.find(k), bg_d.find(k)) << "round " << round;
      }
    }
    ASSERT_EQ(seed_a, seed_b);
    sync_d.flush_stage();
    bg_d.flush_stage();
    bg_d.drain_compaction();
    EXPECT_EQ(sync_d.item_count(), bg_d.item_count());
    expect_matches(sync_d, model, "sync contents");
    expect_matches(bg_d, model, "background contents");
  }
}

TEST(Compaction, SnapshotStormAcrossInFlightFoldsAndLeakOracle) {
  // Snapshots taken while folds are in flight must read their frozen stamp
  // forever; when the snapshots AND the structure are gone, every segment
  // the storm minted — fold outputs, retired fold inputs, materialized
  // incoming spans — must be freed. unsafe_defer_install maximizes the
  // window in which a finished fold coexists with post-snapshot arrivals.
  const std::int64_t baseline = snap::live_segment_count().load();
  {
    cola::ColaConfig cfg = cola::ingest_tuned(2, 8);
    cfg.compaction_threads = 2;
    cfg.unsafe_defer_install = true;
    cola::Gcola<> d(cfg);
    Model model;
    std::uint64_t seed = 0xf01d;
    struct Held {
      snap::Snapshot<> snap;
      Model frozen;
    };
    std::vector<Held> held;
    bool saw_pending = false;
    for (std::size_t round = 0; round < 120; ++round) {
      churn(d, model, seed, 4, 24);
      saw_pending = saw_pending || d.compaction_pending();
      if (round % 10 == 9) {
        held.push_back(Held{d.snapshot(), model});
        if (held.size() > 4) held.erase(held.begin());
      }
    }
    if (!sync_env_forced()) {
      EXPECT_TRUE(saw_pending) << "storm never had a fold in flight";
    }
    for (const Held& h : held) {
      Model seen;
      h.snap.for_each([&](const Key& k, const Value& v) { seen[k] = v; });
      EXPECT_EQ(seen, h.frozen) << "held snapshot drifted";
    }
    d.drain_compaction();
    d.check_invariants();
    expect_matches(d, model, "post-storm contents");
  }
  EXPECT_EQ(snap::live_segment_count().load(), baseline)
      << "fold storm leaked segments";
}

TEST(Compaction, ForcedTombstoneFoldsAreScheduled) {
  // A tight retention bound on an erase-heavy feed: forced bottom folds
  // must still fire with the engine on — as scheduled compactions (or
  // writer-assisted ones), never silently skipped.
  cola::ColaConfig cfg = cola::ingest_tuned(8, 16);
  cfg.compaction_threads = 2;
  cfg.tombstone_threshold = 0.05;
  cola::Gcola<> d(cfg);
  Model model;
  std::uint64_t seed = 0xdead;
  std::vector<Op<>> ops;
  for (std::size_t b = 0; b < 300; ++b) {
    ops.clear();
    for (std::size_t i = 0; i < 48; ++i) {
      const std::uint64_t r = splitmix64(seed);
      const Key k = r % 2'000;
      if ((r >> 32) % 2 == 0) {  // erase-heavy: 50/50
        ops.push_back(Op<>::del(k));
        model.erase(k);
      } else {
        ops.push_back(Op<>::put(k, r));
        model[k] = r;
      }
    }
    d.apply_batch(Span<Op<>>(ops.data(), ops.size()));
  }
  d.flush_stage();
  d.drain_compaction();
  EXPECT_GT(d.stats().forced_bottom_folds, 0u);
  expect_matches(d, model, "retention contents");
  // Retention held: physical slots within the configured bound's ballpark
  // of the live set (generous constant — geometry adds in-flight slack).
  EXPECT_LT(d.item_count(), model.size() * 4 + 4096);
}

TEST(Compaction, StatsAccessorIsCoherentAndMonotone) {
  cola::ColaConfig cfg = cola::ingest_tuned(2, 8);
  cfg.compaction_threads = 1;
  cola::Gcola<> d(cfg);
  Model model;
  std::uint64_t seed = 7;
  cola::CompactionStats prev;
  for (std::size_t round = 0; round < 20; ++round) {
    churn(d, model, seed, 8, 24);
    const cola::CompactionStats cur = d.compaction_stats();
    EXPECT_GE(cur.folds_deferred, prev.folds_deferred);
    EXPECT_GE(cur.writer_assists, prev.writer_assists);
    EXPECT_GE(cur.compaction_queue_peak, prev.compaction_queue_peak);
    EXPECT_GE(cur.bg_fold_ns, prev.bg_fold_ns);
    prev = cur;
  }
  d.drain_compaction();
}

TEST(Compaction, PresetThreadingAndNaming) {
  // DictConfig::compaction_threads flows through to_cola_config and the
  // "-bg<N>" name suffix ("cola-g8-bg2" style identity in bench output).
  const api::DictConfig c = api::DictConfig::background(8, 2, 16);
  EXPECT_EQ(api::to_cola_config(c).compaction_threads, 2u);
  auto d = api::make_dictionary("cola", c);
  EXPECT_EQ(d.name(), "cola-bg2");
  Model model;
  std::uint64_t seed = 99;
  churn(d, model, seed, 60);
  expect_matches(d, model, "preset contents");

  auto plain = api::make_dictionary("cola", api::DictConfig::ingest_tuned(8, 16));
  EXPECT_EQ(plain.name(), "cola");
}

TEST(Compaction, ShardsShareOneProcessPool) {
  // S shards x compaction_threads=2 must not grow the pool to S*2: the
  // pool is process-wide and sized to the max request, capped at hardware
  // concurrency.
  const std::size_t before = cola::compact::Pool::instance().threads();
  shard::ShardedConfig<> sc;
  sc.shards = 4;
  sc.splitters = {1'000, 2'000, 3'000};
  shard::ShardedDictionary<cola::Gcola<>> d(sc, [](std::size_t) {
    cola::ColaConfig cfg = cola::ingest_tuned(8, 16);
    cfg.compaction_threads = 2;
    return cola::Gcola<>(cfg);
  });
  Model model;
  std::uint64_t seed = 0x5a5a;
  churn(d, model, seed, 200);
  d.flush_stage();
  const std::size_t after = cola::compact::Pool::instance().threads();
  EXPECT_LE(after, std::max<std::size_t>(before, 2))
      << "sharded facade oversubscribed the compaction pool";
  expect_matches(d, model, "sharded contents");
}

TEST(Compaction, DamModeledTransfersBitIdenticalToSync) {
  // Counting memory models fold inline by construction (the engine
  // self-disables), so modeled transfers must be EXACTLY equal between
  // compaction_threads=0 and compaction_threads=2 — the acceptance
  // criterion "folds move the same bytes, just off-thread".
  constexpr std::uint64_t kBlock = 4096;
  constexpr std::uint64_t kMem = 1 << 19;
  cola::ColaConfig sync_cfg = cola::ingest_tuned(8, 64);
  cola::ColaConfig bg_cfg = sync_cfg;
  bg_cfg.compaction_threads = 2;
  cola::Gcola<Key, Value, dam::dam_mem_model> sync_d(
      sync_cfg, dam::dam_mem_model(kBlock, kMem));
  cola::Gcola<Key, Value, dam::dam_mem_model> bg_d(
      bg_cfg, dam::dam_mem_model(kBlock, kMem));
  std::vector<Op<>> ops;
  std::uint64_t seed = 0xda3;
  for (std::size_t b = 0; b < 256; ++b) {
    ops.clear();
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint64_t r = splitmix64(seed);
      ops.push_back((r >> 32) % 4 == 3 ? Op<>::del(r % 50'000)
                                       : Op<>::put(r % 50'000, r));
    }
    sync_d.apply_batch(Span<Op<>>(ops.data(), ops.size()));
    bg_d.apply_batch(Span<Op<>>(ops.data(), ops.size()));
  }
  sync_d.flush_stage();
  bg_d.flush_stage();
  EXPECT_FALSE(bg_d.compaction_pending())
      << "counting model must never defer a fold";
  EXPECT_EQ(bg_d.compaction_stats().folds_deferred, 0u);
  EXPECT_EQ(sync_d.mm().stats().transfers, bg_d.mm().stats().transfers);
  EXPECT_EQ(sync_d.mm().stats().sequential_transfers,
            bg_d.mm().stats().sequential_transfers);
  EXPECT_EQ(sync_d.item_count(), bg_d.item_count());
}

TEST(Compaction, EscapeHatchMatchesEnvironment) {
  // Each CI leg proves its own branch: the plain leg must defer folds, the
  // COSTREAM_COMPACTION=sync leg must keep every fold inline while the
  // rest of this suite's differential assertions still hold verbatim.
  cola::ColaConfig cfg = cola::ingest_tuned(2, 8);
  cfg.compaction_threads = 2;
  cola::Gcola<> d(cfg);
  Model model;
  std::uint64_t seed = 0xe5c;
  churn(d, model, seed, 200);
  d.flush_stage();
  d.drain_compaction();
  if (sync_env_forced()) {
    EXPECT_EQ(d.compaction_stats().folds_deferred, 0u)
        << "COSTREAM_COMPACTION=sync did not force inline folds";
  } else {
    EXPECT_GT(d.compaction_stats().folds_deferred, 0u);
  }
  expect_matches(d, model, "escape-hatch contents");
}

/// Records the FoldObserver contract as a spill consumer sees it: the
/// contents of every reported, not-yet-consumed segment by id, plus any
/// report that breaks the contract.
struct RecordingObserver final : cola::Gcola<>::FoldObserver {
  using Items = std::vector<std::tuple<Key, Value, std::uint8_t>>;
  std::map<std::uint64_t, Items> live;
  std::size_t reports = 0;
  std::size_t empty_reports = 0;
  std::vector<std::string> violations;

  void on_segment_spill(std::size_t, const snap::Segment<>* seg,
                        const std::uint64_t* consumed, std::size_t n) override {
    ++reports;
    for (std::size_t i = 0; i < n; ++i) {
      if (live.erase(consumed[i]) != 1) {
        violations.push_back("consumed id " + std::to_string(consumed[i]) +
                             " was never reported or is already gone");
      }
    }
    if (seg == nullptr) {
      ++empty_reports;
      if (n == 0) violations.push_back("empty fold reported nothing consumed");
      return;
    }
    if (seg->id == 0 || live.count(seg->id) != 0) {
      violations.push_back("segment id " + std::to_string(seg->id) + " reused");
    }
    Items& items = live[seg->id];
    for (std::size_t i = 0; i < seg->size(); ++i) {
      items.emplace_back(seg->keys[i], seg->vals[i], seg->flags[i]);
    }
  }
};

/// With the observer at spill depth 0 and a staging arena (so nothing is
/// placed in level 0 unreported), the structure's id-carrying segments are
/// exactly the observer's live set, content for content. Staging views and
/// a pending fold's materialized incoming runs carry id 0. A fold that
/// destroyed a segment without listing it as consumed shows up here.
void expect_reports_match_installed(const cola::Gcola<>& d,
                                    const RecordingObserver& obs, const char* what) {
  ASSERT_TRUE(obs.violations.empty()) << what << ": " << obs.violations.front();
  std::map<std::uint64_t, RecordingObserver::Items> installed;
  for (const snap::SegmentRef<>& seg : d.snapshot().data()->segs) {
    if (seg->id == 0) continue;
    RecordingObserver::Items& items = installed[seg->id];
    for (std::size_t i = 0; i < seg->size(); ++i) {
      items.emplace_back(seg->keys[i], seg->vals[i], seg->flags[i]);
    }
  }
  EXPECT_EQ(installed, obs.live) << what;
}

TEST(Compaction, FoldObserverContract) {
  for (const unsigned c : {0u, 1u}) {
    SCOPED_TRACE("compaction_threads=" + std::to_string(c));
    cola::ColaConfig cfg = cola::ingest_tuned(4, 16);
    cfg.compaction_threads = c;
    cfg.tombstone_threshold = 0.05;  // forced tombstone folds on this feed
    cola::Gcola<> d(cfg);
    RecordingObserver obs;
    d.set_fold_observer(&obs, /*spill_depth=*/0);
    Model model;
    std::uint64_t seed = 0x0b5 + c;
    for (std::size_t round = 0; round < 60; ++round) {
      churn(d, model, seed, 4);
      expect_reports_match_installed(d, obs, "churn");
    }
    EXPECT_GT(d.stats().forced_bottom_folds, 0u);
    EXPECT_GT(obs.reports, 0u);

    EXPECT_TRUE(d.compact_all());
    expect_reports_match_installed(d, obs, "compact_all");
    EXPECT_EQ(obs.live.size(), 1u);
    expect_matches(d, model, "compacted contents");

    // Erase every key: whichever fold annihilates the data to nothing must
    // still retire the spilled segments it consumed.
    std::vector<Key> keys;
    for (const auto& kv : model) keys.push_back(kv.first);
    model.clear();
    const std::size_t empties = obs.empty_reports;
    d.erase_batch(keys);
    EXPECT_FALSE(d.compact_all());
    expect_reports_match_installed(d, obs, "annihilated");
    EXPECT_GT(obs.empty_reports, empties);
    EXPECT_TRUE(obs.live.empty());
    EXPECT_EQ(d.item_count(), 0u);
    d.check_invariants();
  }
}

}  // namespace
}  // namespace costream
