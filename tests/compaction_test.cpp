// Background compaction engine (cola/compactor.hpp + the Gcola's pending
// fold slot): deep tiered folds defer to the shared process pool, install
// BELOW post-snapshot arrivals at a later mutation, and retire their input
// segments by dropping refs — readers, cursors, and held snapshots are
// never blocked and never observe the difference. These tests pin the
// engine's contracts directly:
//
//   * differential equivalence against the inline (sync) fold path,
//   * deterministic writer-assist when the pool cannot take the job, or
//     refuses the submit,
//   * snapshot storms across in-flight folds + the segment leak oracle,
//   * forced tombstone folds as scheduled compactions,
//   * CompactionStats counters and the preset/naming threading,
//   * DAM bit-identity: counting models always fold inline, so modeled
//     transfers are exactly equal with the engine on or off,
//   * the COSTREAM_COMPACTION=sync escape hatch (each CI leg asserts the
//     branch that matches its environment),
//   * failures: a task that throws inside run_batch, and folds that throw
//     on the pool and re-run on the writer.
//
// NOTE on ordering: the process pool is grow-only, so the writer-assist
// tests (which want exactly ONE pool worker they can block) must run before
// any test that constructs a compaction_threads=2 structure. gtest runs
// tests in declaration order within a file; keep that ordering intact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
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

// Also wants the ONE pool worker (file header note). With that worker parked
// and the bounded queue full, the pool refuses the next fold's submit and the
// writer folds it itself: a writer assist, with nothing deferred.
TEST(Compaction, WriterAssistWhenPoolRejectsSubmit) {
  if (sync_env_forced()) GTEST_SKIP() << "COSTREAM_COMPACTION=sync";
  cola::ColaConfig cfg = cola::ingest_tuned(2, 8);
  cfg.compaction_threads = 1;
  cola::Gcola<> d(cfg);
  cola::compact::Pool& pool = cola::compact::Pool::instance();

  std::promise<void> gate, parked;
  std::shared_future<void> released(gate.get_future());
  const auto park = [released, &parked] {
    parked.set_value();
    released.wait();
  };
  // The worker may still be draining the previous test's leftover tasks.
  std::size_t depth = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pool.submit(park, /*forced=*/false, &depth)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "the queue never drained";
    std::this_thread::yield();
  }
  parked.get_future().wait();  // the worker is busy: the queue only grows
  std::size_t queued = 0;
  while (pool.submit([released] { released.wait(); }, /*forced=*/false, &depth)) {
    ASSERT_LT(++queued, 64u) << "the queue never saturated";
  }

  // Distinct inserts: no tombstone or staleness pressure, so no forced fold
  // (which would bypass the queue bound) — the next fold is a cascade.
  const cola::CompactionStats before = d.compaction_stats();
  const std::uint64_t merges = d.stats().merges;
  Model model;
  for (Key k = 0; d.stats().merges == merges; ++k) {
    ASSERT_LT(k, 1'000u) << "no fold tripped";
    d.insert(k, k + 1);
    model[k] = k + 1;
  }
  const cola::CompactionStats after = d.compaction_stats();
  gate.set_value();
  EXPECT_FALSE(d.compaction_pending());
  EXPECT_EQ(after.folds_deferred, before.folds_deferred);
  EXPECT_EQ(after.writer_assists, before.writer_assists + 1)
      << "a fold the pool refused was not counted as a writer assist";
  d.check_invariants();
  expect_matches(d, model, "rejected-submit contents");
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

    // The checkpoint's incremental settle: everything ends at level 3 or
    // deeper, through reported folds, with the contents unchanged.
    d.compact(3, /*full=*/false);
    expect_reports_match_installed(d, obs, "compact to level 3");
    EXPECT_FALSE(d.compaction_pending());
    d.for_each_segment([](std::size_t level, const snap::Segment<>&) {
      EXPECT_GE(level, 3u);
    });
    expect_matches(d, model, "settled contents");

    d.compact(0, /*full=*/true);
    expect_reports_match_installed(d, obs, "compact");
    EXPECT_EQ(obs.live.size(), 1u);
    expect_matches(d, model, "compacted contents");

    // Erase every key: whichever fold annihilates the data to nothing must
    // still retire the spilled segments it consumed.
    std::vector<Key> keys;
    for (const auto& kv : model) keys.push_back(kv.first);
    model.clear();
    const std::size_t empties = obs.empty_reports;
    d.erase_batch(keys);
    d.compact(0, /*full=*/true);
    expect_reports_match_installed(d, obs, "annihilated");
    EXPECT_GT(obs.empty_reports, empties);
    EXPECT_TRUE(obs.live.empty());
    EXPECT_EQ(d.item_count(), 0u);
    d.check_invariants();
  }
}

TEST(Compaction, RunBatchRethrowsTaskFailureAfterEveryTaskFinished) {
  // Exactly one task throws, on a pool helper, while the other may still be
  // running on the caller: the helper must survive, the other task must
  // finish, and run_batch must rethrow on the caller only after that.
  cola::compact::Pool::instance().ensure_threads(1);
  static thread_local bool is_caller = false;
  is_caller = true;
  std::atomic<bool> thrown{false};
  std::atomic<int> finished{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back([&] {
      if (!is_caller && !thrown.exchange(true)) {
        throw std::runtime_error("task failed on a pool helper");
      }
      // The caller holds its task until a helper has thrown.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!thrown && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      ++finished;
    });
  }
  EXPECT_THROW(cola::compact::Pool::instance().run_batch(tasks), std::runtime_error);
  is_caller = false;
  EXPECT_TRUE(thrown.load()) << "no pool helper took a task";
  EXPECT_EQ(finished.load(), 1);
}

/// Key whose compare throws on every thread but the test's own while
/// armed: folds the pool runs fail, folds the writer runs succeed.
std::atomic<bool> g_compare_armed{false};
thread_local bool t_compare_exempt = false;

struct FragileKey {
  std::uint64_t v = 0;
  friend bool operator<(const FragileKey& a, const FragileKey& b) {
    if (g_compare_armed.load(std::memory_order_relaxed) && !t_compare_exempt) {
      throw std::runtime_error("key compare on a pool thread");
    }
    return a.v < b.v;
  }
  friend bool operator<=(const FragileKey& a, const FragileKey& b) {
    return !(b < a);
  }
  friend bool operator==(const FragileKey& a, const FragileKey& b) {
    return a.v == b.v;
  }
};

TEST(Compaction, FailedPoolFoldsStayPendingAndRerunOnWriter) {
  // A fold that throws on the pool must neither kill the process nor lose
  // or corrupt data: it stays pending with its inputs pinned (reads stay
  // coherent) and the writer re-runs it at the next blocking install
  // point. At compaction_threads = 2 the folds reach the one-pass cutoff,
  // so range-partitioned sub-merges throw on pool helpers too.
  t_compare_exempt = true;
  for (const unsigned c : {1u, 2u}) {
    SCOPED_TRACE("compaction_threads=" + std::to_string(c));
    cola::ColaConfig cfg = cola::ingest_tuned(4, c == 1 ? 64 : 1024);
    cfg.compaction_threads = c;
    cola::Gcola<FragileKey, Value> d(cfg);
    std::map<std::uint64_t, Value> model;
    std::uint64_t seed = 0xfa11 + c;
    std::vector<Op<FragileKey, Value>> ops;
    const std::size_t batches = c == 1 ? 200 : 400;
    const std::uint64_t universe = c == 1 ? 4'000 : 200'000;
    g_compare_armed = true;
    for (std::size_t b = 0; b < batches; ++b) {
      ops.clear();
      for (std::size_t i = 0; i < 1024; ++i) {
        const std::uint64_t r = splitmix64(seed);
        const FragileKey k{r % universe};
        if ((r >> 32) % 8 == 0) {
          ops.push_back(Op<FragileKey, Value>::del(k));
          model.erase(k.v);
        } else {
          ops.push_back(Op<FragileKey, Value>::put(k, r));
          model[k.v] = r;
        }
      }
      d.apply_batch(Span<Op<FragileKey, Value>>(ops.data(), ops.size()));
      // Reads interleave the pinned inputs of a failed pending fold.
      const FragileKey probe{splitmix64(seed) % universe};
      const auto it = model.find(probe.v);
      const std::optional<Value> got = d.find(probe);
      ASSERT_EQ(it != model.end(), got.has_value()) << "key " << probe.v;
      if (got) {
        ASSERT_EQ(it->second, *got) << "key " << probe.v;
      }
    }
    g_compare_armed = false;
    d.drain_compaction();
    EXPECT_FALSE(d.compaction_pending());
    d.check_invariants();
    if (!sync_env_forced()) {
      EXPECT_GT(d.compaction_stats().writer_assists, 0u);
    }
    std::vector<std::pair<std::uint64_t, Value>> got;
    d.for_each([&](const FragileKey& k, const Value& v) { got.emplace_back(k.v, v); });
    ASSERT_EQ(got.size(), model.size());
    std::size_t i = 0;
    for (const auto& [k, v] : model) {
      ASSERT_EQ(got[i].first, k) << "pos " << i;
      ASSERT_EQ(got[i].second, v) << "pos " << i;
      ++i;
    }
  }
  t_compare_exempt = false;
}

}  // namespace
}  // namespace costream
