// Linearizability hammer for the barrier-free sharded find() path.
//
// R reader threads storm find() against a single writer thread (the facade
// is single-owner for mutations) and check every observation against the
// linearizability envelope of acknowledged batches:
//
//   * per logical key the writer maintains two atomic version counters,
//     `issued` (stored BEFORE the mutating call) and `acked` (stored AFTER
//     the call returns);
//   * a reader records a = acked[k] before find() and i = issued[k] after;
//     an observed value decodes to a version w which must satisfy
//     a <= w <= i and must not be an erase version;
//   * nullopt is legal only if a == 0 (never written) or some version in
//     [a, i] is an erase — absence must never follow an acknowledged,
//     un-erased put.
//
// Values encode (key, version) so the oracle needs no shared write log:
// whether version w of key k is an erase is a pure function of (k, w) both
// threads compute independently. Seeded schedules scale via the
// LIN_HAMMER_SEEDS env var (CI runs a 32-seed corpus); LIN_HAMMER_FINDS
// overrides the total find budget. A planted-bug self-test constructs the
// facade with ShardedConfig::unsafe_skip_pending_overlay (finds skip the
// queued runs) and proves the oracle bites (acked-but-unapplied writes go
// missing and are caught).
//
// The hammer also asserts find() performs ZERO drain barriers: the
// ShardedStats::drains delta across the storm must be exactly zero. The
// read protocol's reclamation (shard/reclaim.hpp) has its own checks:
// waves of short-lived reader threads must leave exactly the live segments
// a reader-free twin leaves, and the striped find counters must stay exact.
// The entry-bounded shard queue is checked against a worker held at a gate:
// acknowledgment far past a few jobs, a held queue coalescing into a binary
// counter of runs, the owner blocking exactly at the entry budget and the
// job cap, an oversized run admitted on an empty queue, and every queued
// run freed once no reader can hold it.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <memory>
#include <map>
#include <optional>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "cola/cola.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/span.hpp"
#include "shard/reclaim.hpp"
#include "shard/sharded_dictionary.hpp"
#include "storage/durable_dict.hpp"
#include "storage/fault_env.hpp"

namespace costream {
namespace {

using shard::ShardedConfig;
using shard::ShardedDictionary;

constexpr std::size_t kKeys = 512;

/// Logical key index -> physical key, spread so even splitters route
/// uniformly across shards.
Key phys(std::uint64_t li) { return li; }

Value encode(std::uint64_t li, std::uint32_t ver) {
  return (li << 32) | static_cast<Value>(ver);
}

/// Deterministic erase schedule: ~25% of versions are erases. Both the
/// writer (building ops) and the oracle (judging observations) compute
/// this from (key, version) alone.
bool is_erase(std::uint64_t li, std::uint32_t ver) {
  return (mix64((li << 32) | ver) & 3u) == 0;
}

/// Is nullopt a legal observation given the pre-read acked version `a`
/// and post-read issued version `i`?
bool absence_legal(std::uint64_t li, std::uint32_t a, std::uint32_t i) {
  if (a == 0) return true;  // key never written before the read started
  for (std::uint32_t w = a; w <= i; ++w) {
    if (is_erase(li, w)) return true;
  }
  return false;
}

std::vector<Key> even_splitters(std::size_t shards, Key universe) {
  std::vector<Key> sp;
  for (std::size_t i = 1; i < shards; ++i) {
    sp.push_back(universe * i / shards);
  }
  return sp;
}

/// Gcola wrapper whose apply_batch busy-waits before applying, widening
/// the acked-but-unapplied window the queued runs must cover.
struct SlowCola {
  cola::Gcola<> inner;
  std::chrono::microseconds delay{0};

  explicit SlowCola(std::chrono::microseconds d)
      : inner(cola::ingest_tuned(4, 24)), delay(d) {}

  void apply_batch(Span<Op<Key, Value>> ops) {
    const auto until = std::chrono::steady_clock::now() + delay;
    while (std::chrono::steady_clock::now() < until) {
      // busy-wait: keep the worker "applying" while readers probe
    }
    inner.apply_batch(ops);
  }
  void flush_stage() { inner.flush_stage(); }
  snap::Snapshot<Key, Value> snapshot() const { return inner.snapshot(); }
};

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

struct HammerResult {
  std::uint64_t finds = 0;
  std::uint64_t violations = 0;
  std::uint64_t drains_delta = 0;
  std::string first_violation;
  // The most jobs one shard held queued (ShardedStats::queue_peak_jobs).
  std::uint64_t max_queued_jobs = 0;
};

struct HammerOptions {
  std::size_t shards = 4;
  std::size_t readers = 4;
  std::uint64_t find_quota = 100'000;
  std::uint64_t min_writes = 0;  // writer mutations to make at least
  std::uint64_t seed = 1;
  std::chrono::microseconds apply_delay{0};  // 0 = plain Gcola inner
  unsigned compaction_threads = 0;  // > 0: shard inners defer deep folds
                                    // to the shared background pool
  bool plant_bug = false;  // skip the queued runs (self-test)
  bool writer_self_reads = false;  // writer probes its own acked puts
};

template <class Dict>
HammerResult run_hammer_on(Dict& d, const HammerOptions& opt) {
  std::vector<std::atomic<std::uint32_t>> issued(kKeys);
  std::vector<std::atomic<std::uint32_t>> acked(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    issued[i].store(0, std::memory_order_relaxed);
    acked[i].store(0, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> finds{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<bool> done{false};
  std::mutex first_mu;
  std::string first_violation;

  auto flag = [&](std::string msg) {
    violations.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(first_mu);
    if (first_violation.empty()) first_violation = std::move(msg);
  };

  // One validated probe of logical key `li`; returns the envelope verdict.
  auto probe = [&](std::uint64_t li) {
    const std::uint32_t a = acked[li].load(std::memory_order_acquire);
    const std::optional<Value> r = d.find(phys(li));
    const std::uint32_t i = issued[li].load(std::memory_order_acquire);
    finds.fetch_add(1, std::memory_order_relaxed);
    if (r.has_value()) {
      const std::uint64_t got_li = *r >> 32;
      const auto w = static_cast<std::uint32_t>(*r & 0xffffffffu);
      if (got_li != li) {
        flag("key " + std::to_string(li) + ": value routed from key " +
             std::to_string(got_li));
      } else if (w < a || w > i) {
        flag("key " + std::to_string(li) + ": version " + std::to_string(w) +
             " outside envelope [" + std::to_string(a) + ", " +
             std::to_string(i) + "]");
      } else if (is_erase(li, w)) {
        flag("key " + std::to_string(li) + ": observed erase version " +
             std::to_string(w));
      }
    } else if (!absence_legal(li, a, i)) {
      flag("key " + std::to_string(li) +
           ": absent despite acked un-erased put, envelope [" +
           std::to_string(a) + ", " + std::to_string(i) + "]");
    }
  };

  const std::uint64_t drains_before = d.stats().drains;

  std::vector<std::thread> readers;
  readers.reserve(opt.readers);
  for (std::size_t t = 0; t < opt.readers; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ULL + t + 1);
      while (!done.load(std::memory_order_acquire)) {
        probe(rng() % kKeys);
      }
    });
  }

  // Writer storm on this thread: mixed singles and batches, unique keys
  // per batch, versions issued before the call and acked after it.
  {
    Xoshiro256 rng(opt.seed);
    std::vector<Op<Key, Value>> batch;
    std::vector<std::uint64_t> batch_keys;
    std::vector<bool> in_batch(kKeys, false);
    std::uint64_t round = 0;
    while (finds.load(std::memory_order_relaxed) < opt.find_quota ||
           round < opt.min_writes) {
      ++round;
      if (rng() % 4 == 0) {
        // Single-op path.
        const std::uint64_t li = rng() % kKeys;
        const std::uint32_t ver =
            issued[li].load(std::memory_order_relaxed) + 1;
        issued[li].store(ver, std::memory_order_release);
        if (is_erase(li, ver)) {
          d.erase(phys(li));
        } else {
          d.insert(phys(li), encode(li, ver));
        }
        acked[li].store(ver, std::memory_order_release);
        if (opt.writer_self_reads && !is_erase(li, ver)) probe(li);
      } else {
        const std::size_t len = 1 + rng() % 64;
        batch.clear();
        batch_keys.clear();
        for (std::size_t j = 0; j < len; ++j) {
          const std::uint64_t li = rng() % kKeys;
          if (in_batch[li]) continue;  // keep batch keys unique
          in_batch[li] = true;
          batch_keys.push_back(li);
          const std::uint32_t ver =
              issued[li].load(std::memory_order_relaxed) + 1;
          issued[li].store(ver, std::memory_order_release);
          batch.push_back(is_erase(li, ver)
                              ? Op<Key, Value>::del(phys(li))
                              : Op<Key, Value>::put(phys(li),
                                                    encode(li, ver)));
        }
        d.apply_batch(Span<Op<Key, Value>>(batch.data(), batch.size()));
        for (const std::uint64_t li : batch_keys) {
          acked[li].store(issued[li].load(std::memory_order_relaxed),
                          std::memory_order_release);
          in_batch[li] = false;
        }
        if (opt.writer_self_reads && !batch_keys.empty()) {
          probe(batch_keys[rng() % batch_keys.size()]);
        }
      }
      if (violations.load(std::memory_order_relaxed) > 256) break;
    }
    (void)round;
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  HammerResult res;
  res.finds = finds.load(std::memory_order_relaxed);
  res.violations = violations.load(std::memory_order_relaxed);
  res.drains_delta = d.stats().drains - drains_before;
  res.first_violation = first_violation;
  res.max_queued_jobs = d.stats().queue_peak_jobs;

  // Quiescent coherence: once drained, every key must show exactly its
  // final issued version (or be absent if that version is an erase). This
  // runs after the drain delta is captured — drain() is a barrier by
  // design, only find() must never be one.
  d.drain();
  for (std::uint64_t li = 0; li < kKeys; ++li) {
    const std::uint32_t ver = issued[li].load(std::memory_order_relaxed);
    const auto r = d.find(phys(li));
    if (ver == 0 || is_erase(li, ver)) {
      EXPECT_FALSE(r.has_value()) << "key " << li << " after drain";
    } else {
      EXPECT_TRUE(r.has_value()) << "key " << li << " after drain";
      if (r.has_value()) {
        EXPECT_EQ(*r, encode(li, ver)) << "key " << li << " after drain";
      }
    }
  }
  return res;
}

HammerResult run_hammer(const HammerOptions& opt) {
  ShardedConfig<> sc;
  sc.shards = opt.shards;
  sc.splitters = even_splitters(opt.shards, kKeys);
  sc.unsafe_skip_pending_overlay = opt.plant_bug;
  if (opt.apply_delay.count() > 0) {
    ShardedDictionary<SlowCola> d(
        sc, [&](std::size_t) { return SlowCola(opt.apply_delay); });
    return run_hammer_on(d, opt);
  }
  ShardedDictionary<cola::Gcola<>> d(sc, [&opt](std::size_t) {
    cola::ColaConfig cfg = cola::ingest_tuned(4, 24);
    cfg.compaction_threads = opt.compaction_threads;
    return cola::Gcola<>(cfg);
  });
  return run_hammer_on(d, opt);
}

/// The served composition: the facade over DurableDictionary shards, each
/// on its own in-memory env with no faults scheduled, so the WAL, spills
/// and checkpoints all run on the shard workers while readers storm.
HammerResult run_durable_hammer(const HammerOptions& opt) {
  ShardedConfig<> sc;
  sc.shards = opt.shards;
  sc.splitters = even_splitters(opt.shards, kKeys);
  std::vector<std::unique_ptr<storage::FaultInjectionEnv>> envs;
  for (std::size_t i = 0; i < opt.shards; ++i) {
    envs.push_back(std::make_unique<storage::FaultInjectionEnv>());
  }
  ShardedDictionary<storage::DurableDictionary> d(sc, [&](std::size_t i) {
    storage::DurableConfig cfg;
    cfg.inner = cola::ingest_tuned(4, 24);
    cfg.inner.compaction_threads = opt.compaction_threads;
    cfg.group_commit_bytes = 4u << 10;
    cfg.checkpoint_wal_bytes = 64u << 10;
    cfg.spill_depth = 2;
    return storage::DurableDictionary(*envs[i], cfg);
  });
  return run_hammer_on(d, opt);
}

// Total find budget across all seeds. TSan's interceptors slow the storm
// by an order of magnitude, so the instrumented job runs a smaller — but
// still race-revealing — budget; plain jobs cover >= 10^6 interleavings.
#if defined(__SANITIZE_THREAD__)
#define COSTREAM_LIN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COSTREAM_LIN_TSAN 1
#endif
#endif
#if defined(COSTREAM_LIN_TSAN)
constexpr std::uint64_t kDefaultTotalFinds = 200'000;
#else
constexpr std::uint64_t kDefaultTotalFinds = 1'200'000;
#endif

TEST(Linearizability, HammerBarrierFreeFindsStayInEnvelope) {
  const std::uint64_t seeds = env_u64("LIN_HAMMER_SEEDS", 2);
  const std::uint64_t total = env_u64("LIN_HAMMER_FINDS", kDefaultTotalFinds);
  const std::uint64_t per_seed = std::max<std::uint64_t>(total / seeds, 10'000);
  std::uint64_t finds = 0;
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    HammerOptions opt;
    opt.shards = (s % 2 == 0) ? 2 : 4;
    opt.readers = 4;
    opt.seed = s * 7919;
    opt.find_quota = per_seed;
    opt.writer_self_reads = true;  // reads-own-acknowledged-writes coverage
    const auto res = run_hammer(opt);
    EXPECT_EQ(res.violations, 0u)
        << "seed " << s << ": " << res.first_violation;
    EXPECT_EQ(res.drains_delta, 0u) << "find() took a drain barrier";
    finds += res.finds;
  }
  EXPECT_GE(finds, std::min<std::uint64_t>(total, per_seed * seeds));
}

TEST(Linearizability, HammerSlowWorkerWidensPendingWindows) {
  // A worker that dawdles hundreds of microseconds per run forces nearly
  // every read to be served from the queued runs, and lets the owner run
  // far ahead: a queue must grow past the old 8-job rings, so the owner
  // merges queued runs while readers scan them and the worker races it
  // for the oldest.
  HammerOptions opt;
  opt.shards = 2;
  opt.readers = 4;
  opt.seed = env_u64("LIN_HAMMER_SEEDS", 2) * 104729;
  opt.find_quota = 20'000;
  opt.min_writes = 4'000;  // a find over a few merged runs is quick
  opt.apply_delay = std::chrono::microseconds(200);
  opt.writer_self_reads = true;
  const auto res = run_hammer(opt);
  EXPECT_EQ(res.violations, 0u) << res.first_violation;
  EXPECT_EQ(res.drains_delta, 0u);
  EXPECT_GT(res.max_queued_jobs, 8u) << "no queue ever grew past 8 jobs";
}

TEST(Linearizability, HammerBackgroundCompactionArms) {
  // Background-compaction arms: shard workers defer deep folds to the
  // shared process pool while R readers storm barrier-free finds —
  // compaction_threads in {1, 2} x S in {1, 2, 4}. The envelope oracle
  // must stay blind to whether a fold ran inline or installed later
  // below post-snapshot arrivals; the quiescent sweep at the end also
  // exercises drain_compaction() through the facade's drain barrier.
  const std::uint64_t total = env_u64("LIN_HAMMER_FINDS", kDefaultTotalFinds);
  const std::uint64_t per_arm = std::max<std::uint64_t>(total / 12, 10'000);
  for (const unsigned c : {1u, 2u}) {
    for (const std::size_t s : {1u, 2u, 4u}) {
      HammerOptions opt;
      opt.shards = s;
      opt.readers = 4;
      opt.seed = 7919 * (c * 8 + s);
      opt.find_quota = per_arm;
      opt.compaction_threads = c;
      opt.writer_self_reads = true;
      const auto res = run_hammer(opt);
      EXPECT_EQ(res.violations, 0u) << "compaction_threads=" << c << " shards="
                                    << s << ": " << res.first_violation;
      EXPECT_EQ(res.drains_delta, 0u)
          << "find() took a drain barrier (c=" << c << ", s=" << s << ")";
    }
  }
}

TEST(Linearizability, HammerServedDurableComposition) {
  // The stack the end-to-end benchmark serves: sharded facade over
  // DurableDictionary shards with one background compaction thread, whose
  // per-job republish goes through DurableDictionary::snapshot().
  const std::uint64_t total = env_u64("LIN_HAMMER_FINDS", kDefaultTotalFinds);
  const std::uint64_t per_arm = std::max<std::uint64_t>(total / 6, 10'000);
  for (const std::size_t s : {1u, 2u}) {
    HammerOptions opt;
    opt.shards = s;
    opt.readers = 4;
    opt.seed = 7919 * (40 + s);
    opt.find_quota = per_arm;
    opt.compaction_threads = 1;
    opt.writer_self_reads = true;
    const auto res = run_durable_hammer(opt);
    EXPECT_EQ(res.violations, 0u) << "shards=" << s << ": " << res.first_violation;
    EXPECT_EQ(res.drains_delta, 0u) << "find() took a drain barrier (s=" << s << ")";
  }
}

TEST(Linearizability, PlantedBugSelfTestOracleBites) {
  // Skip the queued runs: acked-but-unapplied writes vanish from the
  // read path. With a slow worker the writer's own post-ack probes must
  // observe stale state, so the oracle has to flag violations — if it
  // does not, the hammer is toothless and the suite must fail.
  HammerOptions opt;
  opt.shards = 2;
  opt.readers = 2;
  opt.seed = 42;
  opt.find_quota = 20'000;
  opt.apply_delay = std::chrono::microseconds(200);
  opt.plant_bug = true;
  opt.writer_self_reads = true;
  const auto res = run_hammer(opt);
  EXPECT_GT(res.violations, 0u)
      << "planted bug went undetected: the oracle does not bite";
}

TEST(Linearizability, FindPerformsZeroDrainBarriers) {
  ShardedConfig<> sc;
  sc.shards = 4;
  sc.splitters = even_splitters(4, kKeys);
  ShardedDictionary<cola::Gcola<>> d(sc, [](std::size_t) {
    return cola::Gcola<>(cola::ingest_tuned(4, 24));
  });
  for (std::uint64_t li = 0; li < kKeys; ++li) {
    d.insert(phys(li), encode(li, 1));
  }
  const auto before = d.stats();
  for (std::uint64_t li = 0; li < kKeys; ++li) {
    const auto r = d.find(phys(li));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, encode(li, 1));
  }
  const auto after = d.stats();
  EXPECT_EQ(after.drains, before.drains);
  EXPECT_EQ(after.finds, before.finds + kKeys);
}

// Satellite regression: ShardedStats counters are bumped from const
// reader paths; concurrent find() callers plus stats() readers must be
// race-free (pre-fix, ++stats_.drains and the by-reference stats() return
// raced under TSan).
TEST(Linearizability, ConcurrentFindersAndStatsReadersAreRaceFree) {
  ShardedConfig<> sc;
  sc.shards = 2;
  sc.splitters = even_splitters(2, kKeys);
  ShardedDictionary<cola::Gcola<>> d(sc, [](std::size_t) {
    return cola::Gcola<>(cola::ingest_tuned(4, 24));
  });
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      while (!done.load(std::memory_order_acquire)) {
        (void)d.find(phys(rng() % kKeys));
        if (t == 0) (void)d.stats();  // concurrent stats photograph
      }
    });
  }
  Xoshiro256 rng(7);
  for (int round = 0; round < 2'000; ++round) {
    const std::uint64_t li = rng() % kKeys;
    d.insert(phys(li), encode(li, static_cast<std::uint32_t>(round + 1)));
  }
  d.drain();
  done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const auto s = d.stats();
  EXPECT_GE(s.singles, 2'000u);
  EXPECT_GT(s.finds, 0u);
}

// Reclamation under reader churn. Waves of short-lived reader threads storm
// find() while the owner applies a fixed feed (inline folds, fixed
// splitters, and a drain after every batch, so no queued runs are merged
// and each shard's segments are a function of the feed alone); the last
// batches are applied while the test thread itself holds a read guard, so
// the workers retire views — holding fold inputs — and runs a reader could
// hold. Once the guard is dropped and the facade drained, nothing is
// applied any more: what the readers held must still be freed, by the
// workers' idle passes, until the facade holds exactly the live segments a
// reader-free twin fed the same ops holds. The twin, whose
// every retire ran with no reader inside a guard, holds only the segments
// its current views reference as soon as it is drained. Destroying either
// returns the census to its baseline.
struct ChurnCensus {
  std::int64_t pinned = 0;         // live segments while the guard was held
  std::int64_t drained = 0;        // live segments right after the drain
  std::int64_t live = 0;           // live segments once the idle passes ran
  std::int64_t view_segments = 0;  // segments the current views reference
};

std::vector<Op<Key, Value>> churn_batch(std::uint64_t b) {
  Xoshiro256 rng(0xc0ffee + b);
  std::vector<Op<Key, Value>> ops;
  for (int j = 0; j < 32; ++j) {
    const std::uint64_t li = rng() % kKeys;
    const auto ver = static_cast<std::uint32_t>(b + 1);
    ops.push_back(is_erase(li, ver) ? Op<Key, Value>::del(phys(li))
                                    : Op<Key, Value>::put(phys(li), encode(li, ver)));
  }
  return ops;
}

ChurnCensus census_after_churn_feed(bool with_readers) {
  constexpr int kWaves = 8;
  constexpr int kReaders = 4;
  constexpr int kBatchesPerWave = 40;
  constexpr int kMinFindsPerReader = 500;
  const std::int64_t base = snap::live_segment_count().load();
  ChurnCensus census;
  {
    ShardedConfig<> sc;
    sc.shards = 2;
    sc.splitters = even_splitters(2, kKeys);
    ShardedDictionary<cola::Gcola<>> d(sc, [](std::size_t) {
      cola::ColaConfig cfg = cola::ingest_tuned(4, 24);
      cfg.compaction_threads = 0;
      return cola::Gcola<>(cfg);
    });
    std::uint64_t b = 0;
    for (int wave = 0; wave < kWaves; ++wave) {
      std::atomic<bool> stop{false};
      std::vector<std::thread> readers;
      for (int t = 0; with_readers && t < kReaders; ++t) {
        readers.emplace_back([&d, &stop, wave, t] {
          Xoshiro256 rng(static_cast<std::uint64_t>(wave * 16 + t + 1));
          for (int i = 0; i < kMinFindsPerReader || !stop.load(std::memory_order_acquire);
               ++i) {
            (void)d.find(phys(rng() % kKeys));
          }
        });
      }
      for (int j = 0; j < kBatchesPerWave; ++j) {
        const auto ops = churn_batch(b++);
        d.apply_batch(Span<Op<Key, Value>>(ops.data(), ops.size()));
        d.drain();
      }
      stop.store(true, std::memory_order_release);
      for (auto& th : readers) th.join();
    }
    {
      std::optional<reclaim::ReadGuard> pin;
      if (with_readers) pin.emplace();
      for (int j = 0; j < kBatchesPerWave; ++j) {
        const auto ops = churn_batch(b++);
        d.apply_batch(Span<Op<Key, Value>>(ops.data(), ops.size()));
        d.drain();
      }
      census.pinned = snap::live_segment_count().load() - base;
    }
    d.drain();
    census.drained = snap::live_segment_count().load() - base;
    census.view_segments = static_cast<std::int64_t>(d.snapshot().segments().size());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (snap::live_segment_count().load() - base != census.view_segments &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    census.live = snap::live_segment_count().load() - base;
  }
  EXPECT_EQ(snap::live_segment_count().load(), base)
      << "destroying the facade must free every published and retired view";
  return census;
}

TEST(Linearizability, ReaderChurnLeavesWhatAReaderFreeTwinLeaves) {
  const ChurnCensus churned = census_after_churn_feed(/*with_readers=*/true);
  const ChurnCensus twin = census_after_churn_feed(/*with_readers=*/false);
  EXPECT_GT(twin.view_segments, 0);
  EXPECT_EQ(twin.drained, twin.view_segments) << "a retire with no reader left garbage";
  EXPECT_EQ(twin.live, twin.drained);
  EXPECT_GT(churned.pinned, twin.drained)
      << "the guard held across the last batches kept no retired view alive";
  EXPECT_EQ(churned.view_segments, twin.view_segments);
  EXPECT_EQ(churned.live, twin.live)
      << "a retired view outlived every reader that could hold it";
}

// ---- the entry-bounded shard queue -------------------------------------------

/// Holds shard workers inside apply_batch: each apply waits for a permit
/// until open() lets every apply through. Tests open the gate from a scope
/// guard declared after the facade, so a failed assertion cannot leave a
/// worker blocked while the facade's destructor joins it.
class Gate {
 public:
  void pass() {
    arrivals_.fetch_add(1, std::memory_order_release);
    if (!open_.load(std::memory_order_acquire)) permits_.acquire();
  }
  void release(std::ptrdiff_t n = 1) { permits_.release(n); }
  void open() {
    open_.store(true, std::memory_order_release);
    permits_.release(1 << 20);  // wakes every worker waiting for a permit
  }
  /// Applies that reached the gate so far.
  int arrivals() const { return arrivals_.load(std::memory_order_acquire); }

 private:
  std::counting_semaphore<(1 << 30)> permits_{0};
  std::atomic<bool> open_{false};
  std::atomic<int> arrivals_{0};
};

struct OpenOnExit {
  Gate& gate;
  ~OpenOnExit() { gate.open(); }
};

/// A Gcola shard whose applies wait at a Gate.
struct GatedCola {
  cola::Gcola<> inner;
  Gate* gate;

  explicit GatedCola(Gate& g) : inner(cola::ingest_tuned(4, 24)), gate(&g) {}
  void apply_batch(Span<Op<Key, Value>> ops) {
    gate->pass();
    inner.apply_batch(ops);
  }
  void flush_stage() { inner.flush_stage(); }
  snap::Snapshot<Key, Value> snapshot() const { return inner.snapshot(); }
};

using Gated = ShardedDictionary<GatedCola>;

Gated gated_facade(Gate& gate, std::size_t shards) {
  ShardedConfig<> sc;
  sc.shards = shards;
  sc.splitters = even_splitters(shards, kKeys);
  return Gated(sc, [&gate](std::size_t) { return GatedCola(gate); });
}

/// Spin until `pred` holds or 20 s pass; returns whether it held.
template <class Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Long enough for an owner that is not blocked to make its next call.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(100)); }

TEST(ShardQueue, AcknowledgesFarPastEightJobsWhileWorkersAreHeld) {
  // Both workers are held in their first apply while the owner acknowledges
  // 300 jobs — singles and batches. Readers on other threads must find
  // every acknowledged write, first from the queued runs alone, then while
  // the released workers publish views and retire the runs under them.
  Gate gate;
  auto d = gated_facade(gate, 2);
  OpenOnExit opener{gate};
  std::map<Key, Value> model;
  Xoshiro256 rng(31);
  for (std::uint32_t job = 1; job <= 300; ++job) {
    if (job % 3 == 0) {
      const Key k = rng() % kKeys;
      d.insert(k, encode(k, job));
      model[k] = encode(k, job);
    } else {
      std::vector<Op<Key, Value>> batch;
      for (int j = 0; j < 24; ++j) {
        const Key k = rng() % kKeys;
        batch.push_back(Op<Key, Value>::put(k, encode(k, job)));
        model[k] = encode(k, job);
      }
      d.apply_batch(Span<Op<Key, Value>>(batch.data(), batch.size()));
    }
  }
  EXPECT_GE(d.stats().jobs, 300u);
  const std::uint64_t drains_held = d.stats().drains;

  std::atomic<bool> released{false}, stop{false};
  std::atomic<std::uint64_t> bad{0}, sweeps_held{0}, sweeps_after_release{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const bool after = released.load(std::memory_order_acquire);
        for (Key k = 0; k < kKeys; ++k) {
          const auto it = model.find(k);
          const std::optional<Value> got = d.find(k);
          const bool ok = it == model.end() ? !got.has_value()
                                            : got.has_value() && *got == it->second;
          if (!ok) bad.fetch_add(1, std::memory_order_relaxed);
        }
        (after ? sweeps_after_release : sweeps_held)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_TRUE(eventually([&] { return sweeps_held.load() >= 3; }));
  EXPECT_EQ(d.stats().drains, drains_held) << "find() took a drain barrier";
  released.store(true, std::memory_order_release);
  gate.open();
  d.drain();
  const std::uint64_t drains_released = d.stats().drains;
  EXPECT_TRUE(eventually([&] { return sweeps_after_release.load() >= 6; }));
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0u) << "a find missed an acknowledged write";
  EXPECT_EQ(d.stats().drains, drains_released) << "find() took a drain barrier";
}

TEST(ShardQueue, HeldQueueCoalescesToLogarithmicallyManyRuns) {
  // One shard, its worker held in the first job's apply. 1,023 more
  // single-op jobs on distinct keys fill the job cap, and once four
  // unclaimed runs are queued the owner merges them like a binary counter
  // over size classes: six runs of 534, 262, 129, 64, 32 and 2 ops are
  // left behind the held one. Every write stays readable, and the worker
  // applies the merged runs once released.
  Gate gate;
  auto d = gated_facade(gate, 1);
  OpenOnExit opener{gate};
  const std::int64_t run_base = shard::live_run_count().load();
  d.insert(0, 1);
  ASSERT_TRUE(eventually([&] { return gate.arrivals() >= 1; }));
  for (Key k = 1; k < Gated::kQueueJobs; ++k) d.insert(k, k + 1);
  EXPECT_EQ(d.stats().jobs, Gated::kQueueJobs);
  EXPECT_EQ(shard::live_run_count().load() - run_base, 7)
      << "the held queue did not coalesce as designed";
  for (Key k = 0; k < Gated::kQueueJobs; ++k) {
    ASSERT_EQ(d.find(k), Value{k + 1}) << "key " << k;
  }
  gate.open();
  d.drain();
  EXPECT_EQ(gate.arrivals(), 7) << "the worker applied other than the merged runs";
  EXPECT_TRUE(eventually([&] { return shard::live_run_count().load() == run_base; }));
  for (Key k = 0; k < Gated::kQueueJobs; ++k) {
    ASSERT_EQ(d.find(k), Value{k + 1}) << "key " << k;
  }
}

TEST(ShardQueue, OwnerBlocksExactlyAtTheEntryBudgetAndTheJobCap) {
  // One shard, its worker held in its first apply (which still counts as
  // queued). Runs of a quarter of the budget: four fit exactly, the fifth
  // waits until the worker finishes the first, and the sixth waits again.
  // Queued runs merge, but merging never changes the entries queued.
  constexpr std::size_t kRun = Gated::kQueueEntries / 4;
  Gate gate;
  auto d = gated_facade(gate, 1);
  OpenOnExit opener{gate};
  std::atomic<int> acked{0};
  std::thread owner([&] {
    std::vector<Entry<>> batch(kRun);
    for (int b = 0; b < 7; ++b) {
      for (std::size_t i = 0; i < kRun; ++i) {
        batch[i] = {static_cast<Key>(b * kRun + i),
                    encode(i, static_cast<std::uint32_t>(b))};
      }
      d.insert_batch(batch);
      acked.fetch_add(1, std::memory_order_release);
      // The worker holds exactly the first run, not a merge of it.
      if (b == 0) eventually([&] { return gate.arrivals() >= 1; });
    }
  });
  EXPECT_TRUE(eventually([&] { return acked.load() >= 4; }));
  settle();
  EXPECT_EQ(acked.load(), 4) << "the owner queued past the entry budget";
  gate.release();  // the worker finishes the first run: one more fits
  EXPECT_TRUE(eventually([&] { return acked.load() >= 5; }));
  settle();
  EXPECT_EQ(acked.load(), 5) << "the owner did not wait at the budget";
  gate.open();
  owner.join();
  EXPECT_EQ(acked.load(), 7);
  EXPECT_EQ(d.find(6 * kRun + 5), encode(5, 6));

  // Single-op jobs hit the job cap instead: kQueueJobs queued, the next one
  // waits.
  Gate gate2;
  auto d2 = gated_facade(gate2, 1);
  OpenOnExit opener2{gate2};
  std::atomic<std::size_t> singles{0};
  std::thread owner2([&] {
    for (std::size_t i = 0; i < Gated::kQueueJobs + 2; ++i) {
      d2.insert(i, i);
      singles.fetch_add(1, std::memory_order_release);
      if (i == 0) eventually([&] { return gate2.arrivals() >= 1; });
    }
  });
  EXPECT_TRUE(eventually([&] { return singles.load() >= Gated::kQueueJobs; }));
  settle();
  EXPECT_EQ(singles.load(), Gated::kQueueJobs) << "the owner queued past the job cap";
  gate2.release();
  EXPECT_TRUE(eventually([&] { return singles.load() >= Gated::kQueueJobs + 1; }));
  settle();
  EXPECT_EQ(singles.load(), Gated::kQueueJobs + 1);
  gate2.open();
  owner2.join();
  d2.drain();
  EXPECT_EQ(d2.find(Gated::kQueueJobs + 1), Value{Gated::kQueueJobs + 1});
}

TEST(ShardQueue, OversizedRunWaitsForAnEmptyQueueThenHoldsTheRestBack) {
  // A run larger than the whole budget is admitted once its shard's queue
  // is empty, and is then the whole queue: the next run waits for it.
  constexpr std::size_t kHuge = Gated::kQueueEntries + 1000;
  Gate gate;
  auto d = gated_facade(gate, 1);
  OpenOnExit opener{gate};
  d.insert(kHuge + 7, 1);  // held in the worker's first apply
  std::atomic<int> acked{0};
  std::thread owner([&] {
    std::vector<Entry<>> batch(kHuge);
    for (std::size_t i = 0; i < kHuge; ++i) batch[i] = {i, i + 1};
    d.insert_batch(batch);
    acked.fetch_add(1, std::memory_order_release);
    d.insert(kHuge + 8, 2);
    acked.fetch_add(1, std::memory_order_release);
  });
  settle();
  EXPECT_EQ(acked.load(), 0) << "an oversized run was queued behind another";
  gate.release();  // the queue empties: the oversized run goes in
  EXPECT_TRUE(eventually([&] { return acked.load() >= 1; }));
  settle();
  EXPECT_EQ(acked.load(), 1) << "a run was queued behind an oversized one";
  EXPECT_EQ(d.find(kHuge - 1), Value{kHuge})
      << "the queued oversized run is not readable";
  gate.open();
  owner.join();
  EXPECT_EQ(acked.load(), 2);
  EXPECT_EQ(d.find(kHuge + 8), Value{2});
  d.drain();
  EXPECT_EQ(d.find(kHuge + 7), Value{1});
}

// Every queued run is freed once no reader can hold it. Readers storm
// find() while the held workers' queues fill, so they probe the runs, and
// the test thread holds a read guard from before the first job until the
// workers have applied and retired every run, so no run — queued, merged
// away or applied — can be freed before it lets go: all 300 runs the 300
// jobs made are alive then. Once the guard is gone and the facade drained,
// the idle passes must free them all: the run census, like the segment
// census, must end where a reader-free twin fed the same jobs ends, whose
// every retire freed at once and whose held queue kept only a few runs.
struct QueueCensus {
  std::int64_t queued = 0;         // live runs while the workers were held
  std::int64_t pinned = 0;         // live runs after the drain, guard held
  std::int64_t runs = 0;           // live runs once the idle passes ran
  std::int64_t segments = 0;       // live segments then
  std::int64_t view_segments = 0;  // segments the current views reference
};

QueueCensus census_after_held_queue(bool with_readers) {
  constexpr int kJobs = 300;
  const std::int64_t run_base = shard::live_run_count().load();
  const std::int64_t seg_base = snap::live_segment_count().load();
  QueueCensus census;
  {
    Gate gate;
    auto d = gated_facade(gate, 2);
    OpenOnExit opener{gate};
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; with_readers && t < 3; ++t) {
      readers.emplace_back([&d, &stop, t] {
        Xoshiro256 rng(static_cast<std::uint64_t>(t + 1));
        while (!stop.load(std::memory_order_acquire)) (void)d.find(phys(rng() % kKeys));
      });
    }
    {
      std::optional<reclaim::ReadGuard> pin;
      if (with_readers) pin.emplace();
      for (int b = 0; b < kJobs / 2; ++b) {  // two cuts a batch: one per shard
        std::vector<Op<Key, Value>> ops = churn_batch(static_cast<std::uint64_t>(b));
        ops.push_back(Op<Key, Value>::put(0, 1));
        ops.push_back(Op<Key, Value>::put(kKeys - 1, 1));
        d.apply_batch(Span<Op<Key, Value>>(ops.data(), ops.size()));
        // Each worker holds its shard's first run, so both arms merge alike.
        if (b == 0) {
          EXPECT_TRUE(eventually([&] { return gate.arrivals() >= 2; }));
        }
      }
      census.queued = shard::live_run_count().load() - run_base;
      gate.open();
      d.drain();
      census.pinned = shard::live_run_count().load() - run_base;
    }
    stop.store(true, std::memory_order_release);
    for (auto& th : readers) th.join();
    d.drain();
    census.view_segments = static_cast<std::int64_t>(d.snapshot().segments().size());
    EXPECT_TRUE(eventually([&] {
      return shard::live_run_count().load() == run_base &&
             snap::live_segment_count().load() - seg_base == census.view_segments;
    }));
    census.runs = shard::live_run_count().load() - run_base;
    census.segments = snap::live_segment_count().load() - seg_base;
  }
  EXPECT_EQ(shard::live_run_count().load(), run_base);
  EXPECT_EQ(snap::live_segment_count().load(), seg_base);
  return census;
}

TEST(ShardQueue, EveryRunIsFreedOnceReadersLeave) {
  const QueueCensus churned = census_after_held_queue(/*with_readers=*/true);
  const QueueCensus twin = census_after_held_queue(/*with_readers=*/false);
  // Per shard: the held run, at most one unclaimed run per size class, and
  // fewer than kMergeRuns newer ones.
  const std::int64_t max_runs =
      2 * static_cast<std::int64_t>(Gated::kMergeRuns + 1 +
                                    std::bit_width(Gated::kQueueEntries));
  EXPECT_GT(twin.queued, 2);
  EXPECT_LE(twin.queued, max_runs) << "the held queues did not merge";
  EXPECT_EQ(churned.queued, 300) << "a run was freed while a guard could hold it";
  EXPECT_EQ(twin.pinned, 0) << "a retire with no reader left a run behind";
  EXPECT_EQ(churned.pinned, 300) << "a run was freed while a guard could hold it";
  EXPECT_EQ(churned.runs, twin.runs);
  EXPECT_EQ(churned.runs, 0);
  EXPECT_EQ(churned.view_segments, twin.view_segments);
  EXPECT_EQ(churned.segments, twin.segments);
}

// Finds are counted in per-thread stripes; the total must stay exact. Two
// waves of R threads (the second reuses the first wave's reclamation
// slots) each do M finds while the owner keeps publishing; a third wave is
// wider than the stripes: its threads all hold their slots at once, so the
// slots past the 64th count in stripes that lower slots count in too. Once
// that wave is gone, a new thread must take a low slot again — the lowest
// free one — or every later reader would share a stripe for good.
TEST(Linearizability, StripedFindCountsAreExact) {
  constexpr int kReaders = 6;
  constexpr int kFinds = 5'000;
  constexpr int kWide = 72;
  constexpr int kWideFinds = 1'000;
  ShardedConfig<> sc;
  sc.shards = 2;
  sc.splitters = even_splitters(2, kKeys);
  ShardedDictionary<cola::Gcola<>> d(sc, [](std::size_t) {
    return cola::Gcola<>(cola::ingest_tuned(4, 24));
  });
  d.insert(phys(0), encode(0, 1));
  const shard::ShardedStats before = d.stats();
  for (int wave = 0; wave < 2; ++wave) {
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&d, wave, t] {
        Xoshiro256 rng(static_cast<std::uint64_t>(100 + wave * 16 + t));
        for (int i = 0; i < kFinds; ++i) (void)d.find(phys(rng() % kKeys));
      });
    }
    std::thread writer([&d, &done] {
      Xoshiro256 rng(7);
      for (std::uint32_t v = 2; !done.load(std::memory_order_acquire); ++v) {
        const std::uint64_t li = rng() % kKeys;
        d.insert(phys(li), encode(li, v));
      }
    });
    for (auto& th : readers) th.join();
    done.store(true, std::memory_order_release);
    writer.join();
  }
  std::latch all_hold_slots(kWide);
  std::vector<std::thread> wide;
  for (int t = 0; t < kWide; ++t) {
    wide.emplace_back([&d, &all_hold_slots, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(500 + t));
      (void)d.find(phys(rng() % kKeys));  // takes this thread's slot
      all_hold_slots.arrive_and_wait();
      for (int i = 1; i < kWideFinds; ++i) (void)d.find(phys(rng() % kKeys));
    });
  }
  for (auto& th : wide) th.join();
  const shard::ShardedStats after = d.stats();
  EXPECT_EQ(after.finds - before.finds,
            std::uint64_t{2} * kReaders * kFinds + std::uint64_t{kWide} * kWideFinds);
  EXPECT_LE(after.find_retries - before.find_retries,
            (after.finds - before.finds) * 3);
  std::size_t late_slot = 0;
  std::thread([&late_slot] {
    const reclaim::ReadGuard guard;
    late_slot = guard.slot_index();
  }).join();
  EXPECT_LT(late_slot, std::size_t{8}) << "a new reader did not reuse the lowest free slot";
}

}  // namespace
}  // namespace costream
