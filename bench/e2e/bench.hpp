// The deployment under test and the round loop shared by every workload.
//
// Stack (constants, not flags): ShardedDictionary<DurableDictionary> with
// S = 2 shards; each shard is a DurableDictionary over PosixEnv rooted in
// <data-dir>/shard<i>/ with the default DurableConfig (kBatch group commit
// over a 1 MiB window, a checkpoint every 8 MiB of WAL, spill_depth 6),
// inner = cola::ingest_tuned(8, 1024) and compaction_threads = 1. The
// program builds the stack itself: api::make_dictionary would hand every
// shard the same durable directory. A reopen passes the first open's
// learned splitters explicitly, because splitters are not persisted.
//
// A run is a sequence of rounds, each on a fresh data directory:
//   setup   construct + preload + flush_stage + per-shard sync   (setup_s)
//   timed   the workload's operations, ending with flush + sync
//   check   for_each over the whole store against the model
//   reopen  clean close, then reopen every shard                 (reopen_s)
//   verify  sampled finds and scans on the reopened store
// Rounds repeat until --seconds have passed (at least kMinRounds), so every
// per-round metric is a median over rounds.
#pragma once

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cola/cola.hpp"
#include "shard/sharded_dictionary.hpp"
#include "storage/durable_dict.hpp"
#include "storage/posix_env.hpp"
#include "support.hpp"
#include "trace.hpp"

namespace e2e {

using Op = costream::Op<>;
using Entry = costream::Entry<>;

enum class Workload { kIngest, kReadMixed, kScanHot, kChurn };
enum class Plant { kNone, kFind, kScan, kReopen };

inline constexpr std::size_t kShards = 2;
inline constexpr unsigned kCompactionThreads = 1;
inline constexpr std::size_t kWriteBatch = 1024;   // ingest, churn
inline constexpr std::size_t kUpdateBatch = 64;    // read_mixed updates
inline constexpr double kUpdateRate = 100'000.0;   // read_mixed ops/s, open loop
inline constexpr std::size_t kReaders = 2;         // read_mixed find threads
inline constexpr std::size_t kScanLen = 100;       // next() calls per scan
inline constexpr std::size_t kInsertEvery = 20;    // scan_hot: every 20th op
inline constexpr std::size_t kScanInsertKeys = 16;
inline constexpr double kZipfTheta = 0.99;
inline constexpr int kMinRounds = 3;
inline constexpr int kReopens = 3;  // close + reopen cycles per round
inline constexpr int kMaxRounds = 64;

/// Per-round sizes. --quick divides every one by 64.
///
/// Each shard's staging arena drains every 8192 entries (ingest_tuned(8,
/// 1024)), and every deep fold, spill and checkpoint follows from how many
/// drains a shard has done. The timed op counts are chosen so that each
/// shard ends the timed phase half-way between two drains: the random
/// split of the ops across shards (a few hundred keys) then never moves a
/// drain, and with it a whole cascade, in or out of the timed phase.
inline constexpr std::uint64_t kArenaDrain = 8192;

struct Sizes {
  std::uint64_t preload = 0;  // keys loaded during setup
  std::uint64_t ops = 0;      // timed operations per round
  std::uint64_t verify_finds = 1u << 14;
  std::uint64_t verify_scans = 1u << 8;
};

inline Sizes sizes_for(Workload w, bool quick) {
  Sizes s;
  switch (w) {
    // Per shard: 128.5 drains of new keys.
    case Workload::kIngest: s.preload = 1u << 20; s.ops = 257 * kArenaDrain; break;
    // Per shard: 16.5 drains of updates (4224 batches of 64).
    case Workload::kReadMixed: s.preload = 1u << 21; s.ops = 33 * kArenaDrain; break;
    // 6656 inserts of 16 keys, so 6.5 drains per shard.
    case Workload::kScanHot:
      s.preload = 1u << 21;
      s.ops = 13 * kArenaDrain / kScanInsertKeys * kInsertEvery;
      break;
    // Per shard: 256.5 drains of puts and erases.
    case Workload::kChurn: s.preload = 1u << 21; s.ops = 513 * kArenaDrain; break;
  }
  if (quick) {
    s.preload /= 64;
    s.ops /= 64;
    s.verify_finds /= 64;
    s.verify_scans /= 64;
  }
  return s;
}

struct Options {
  Workload workload = Workload::kIngest;
  std::string workload_name;
  std::uint64_t seed = 1;
  std::string data_dir;
  double seconds = 10;
  bool quick = false;
  bool traced = false;
  std::string trace_out;
  Plant plant = Plant::kNone;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  int rounds = 0;
  std::vector<Metric> metrics;  // end to end
  std::vector<Metric> layers;   // per layer (traced runs only)
  std::vector<Metric> extra;    // workload-specific layer lines (text only)
};

inline storage::DurableConfig durable_config() {
  storage::DurableConfig c;  // every storage knob at its default
  c.inner = costream::cola::ingest_tuned(8, 1024);
  c.inner.compaction_threads = kCompactionThreads;
  return c;
}

template <class Inner>
Inner make_shard(const std::string& dir);

template <>
inline storage::DurableDictionary make_shard<storage::DurableDictionary>(
    const std::string& dir) {
  return storage::DurableDictionary(std::make_unique<storage::PosixEnv>(dir),
                                    durable_config());
}

template <>
inline TracedShard make_shard<TracedShard>(const std::string& dir) {
  return TracedShard(storage::DurableDictionary(
      std::make_unique<TimedEnv>(std::make_unique<storage::PosixEnv>(dir)),
      durable_config()));
}

/// The per-key model every answer is checked against: for each rank, its
/// current version and whether it is live.
struct Model {
  std::vector<std::uint32_t> ver;
  std::vector<std::uint8_t> live;

  void reset(std::uint64_t universe) {
    ver.assign(universe, 0);
    live.assign(universe, 0);
  }
  std::uint64_t universe() const noexcept { return ver.size(); }
  std::optional<Value> expect(std::uint64_t rank) const {
    if (rank >= ver.size() || live[rank] == 0) return std::nullopt;
    return encode(rank, ver[rank]);
  }
  std::uint64_t live_count() const {
    return static_cast<std::uint64_t>(std::count(live.begin(), live.end(), 1));
  }
  /// Live entries sorted by key.
  std::vector<Entry> sorted(const KeyGen& kg) const {
    std::vector<Entry> out;
    out.reserve(live_count());
    for (std::uint64_t r = 0; r < ver.size(); ++r) {
      if (live[r] != 0) out.push_back({kg.key(r), encode(r, ver[r])});
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// The expected result of a scan: the model's ascending stream from `lo`,
/// over a sorted base plus an overlay of keys inserted since (disjoint).
inline std::size_t expected_scan(const std::vector<Entry>& base,
                                 const std::map<Key, Value>& overlay, Key lo,
                                 Entry* out) {
  auto i = std::lower_bound(base.begin(), base.end(), Entry{lo, 0});
  auto j = overlay.lower_bound(lo);
  std::size_t n = 0;
  while (n < kScanLen && (i != base.end() || j != overlay.end())) {
    if (j == overlay.end() || (i != base.end() && i->key < j->first)) {
      out[n++] = *i++;
    } else {
      out[n++] = {j->first, j->second};
      ++j;
    }
  }
  return n;
}

struct ScanOut {
  Entry e[kScanLen];
  std::size_t n = 0;
  std::uint64_t seek_ns = 0;   // make_cursor + seek
  std::uint64_t total_ns = 0;  // the whole scan
};

/// Per-round counters read from the stack's public stats, taken before and
/// after the timed phase of a traced run.
struct LayerSnap {
  costream::shard::ShardedStats facade;
  std::uint64_t merges = 0, entries_merged = 0, stage_flushes = 0,
                tombstones_dropped = 0, duplicates_dropped = 0,
                forced_folds = 0, folds_deferred = 0, writer_assists = 0,
                queue_peak = 0, bg_fold_ns = 0, checkpoints = 0,
                segments_spilled = 0, levels = 0;
  std::vector<std::uint64_t> ops_applied;
};

/// Totals over the traced rounds, turned into per-layer metrics at the end.
struct LayerTotals {
  std::uint64_t timed_ns = 0, write_ops = 0, primary_ops = 0;
  std::uint64_t jobs = 0, batches = 0, finds = 0, find_retries = 0,
                drains = 0, scans = 0;
  std::uint64_t merges = 0, entries_merged = 0, stage_flushes = 0,
                tombstones_dropped = 0, duplicates_dropped = 0,
                forced_folds = 0, folds_deferred = 0, writer_assists = 0,
                queue_peak = 0, bg_fold_ns = 0, checkpoints = 0,
                segments_spilled = 0, levels = 0;
  std::vector<std::uint64_t> ops_applied = std::vector<std::uint64_t>(kShards, 0);
  std::uint64_t reopen_wal_records = 0, reopen_segment_entries = 0;
  double cpu_s = 0, client_cpu_s = 0;
  long minflt = 0, nvcsw = 0, nivcsw = 0;
  std::uint64_t owner_cpu_ns = 0, owner_wall_ns = 0;
  std::uint64_t gen_lag_max_ns = 0;
};

template <class Inner>
class Bench {
 public:
  static constexpr bool kTraced = std::is_same_v<Inner, TracedShard>;
  using Facade = costream::shard::ShardedDictionary<Inner>;

  explicit Bench(Options o)
      : o_(std::move(o)), sz_(sizes_for(o_.workload, o_.quick)) {}

  Result run();

 private:
  // -- stack -------------------------------------------------------------------

  std::string shard_dir(std::size_t s) const {
    return o_.data_dir + "/shard" + std::to_string(s);
  }

  std::unique_ptr<Facade> open_stack(std::vector<Key> splitters) {
    costream::shard::ShardedConfig<Key> cfg;
    cfg.shards = kShards;
    cfg.splitters = std::move(splitters);
    return std::make_unique<Facade>(std::move(cfg), [this](std::size_t s) {
      return make_shard<Inner>(shard_dir(s));
    });
  }

  void sync_all(Facade& f) {
    for (std::size_t s = 0; s < kShards; ++s) f.shard_mut(s).sync();
  }

  /// Run one library call; an exception counts as a failed operation.
  template <class Fn>
  bool call(Fn&& fn) {
    ++attempted_;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      ++failed_;
      report("error", e.what());
      return false;
    }
  }

  /// Print the first few failures; the counts carry the rest.
  void report(const char* kind, const char* what) {
    if (reports_++ < 8) std::fprintf(stderr, "%s: %s\n", kind, what);
  }

  /// A mutator call, its latency measured from `from` (the call's start in
  /// closed loops, its due time in read_mixed's open loop).
  template <class Fn>
  bool write_call(std::uint64_t from, Fn&& fn) {
    SpanScope s(SpanKind::kClientWrite);
    // The CPU-clock reads sit inside the wall-clock reads, so the CPU
    // interval never exceeds the wall interval it is divided by.
    const std::uint64_t t0 = now_ns();
    const std::uint64_t c0 = kTraced ? thread_cpu_ns() : 0;
    const bool ok = call(fn);
    const std::uint64_t c1 = kTraced ? thread_cpu_ns() : 0;
    const std::uint64_t t1 = now_ns();
    write_lat_.add(t1 - from);
    busy_ns_ += t1 - t0;
    tot_.owner_cpu_ns += c1 - c0;
    tot_.owner_wall_ns += t1 - t0;
    return ok;
  }

  /// flush_stage + per-shard sync, closing the setup and every timed phase.
  void flush_and_sync(Facade& f) {
    const std::uint64_t t0 = now_ns();
    call([&] {
      f.flush_stage();
      sync_all(f);
    });
    busy_ns_ += now_ns() - t0;
  }

  void check(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      report("mismatch", what);
    }
  }

  /// Plant one wrong expectation of kind `p` (self-test): true exactly once.
  bool plant_now(Plant p) {
    return o_.plant == p && !planted_.exchange(true);
  }

  ScanOut scan(const Facade& f, Key lo) {
    SpanScope s(SpanKind::kClientScan);
    ScanOut out;
    const std::uint64_t t0 = now_ns();
    auto c = f.make_cursor();
    c.seek(lo);
    const std::uint64_t t1 = now_ns();
    while (out.n < kScanLen && c.valid()) {
      out.e[out.n++] = c.entry();
      c.next();
    }
    out.seek_ns = t1 - t0;
    out.total_ns = now_ns() - t0;
    return out;
  }

  /// A scan whose exception counts as a failed operation.
  bool try_scan(const Facade& f, Key lo, ScanOut& out) {
    try {
      out = scan(f, lo);
      return true;
    } catch (const std::exception& e) {
      ++attempted_;
      ++failed_;
      report("error", e.what());
      return false;
    }
  }

  /// A scan matches the model when it equals the model's strictly
  /// ascending stream entry for entry, which also rules out disorder and
  /// duplicates.
  bool scan_matches(const ScanOut& got, const std::vector<Entry>& base,
                    const std::map<Key, Value>& overlay, Key lo) {
    Entry want[kScanLen];
    const std::size_t n = expected_scan(base, overlay, lo, want);
    if (n > 0 && plant_now(Plant::kScan)) want[0].value ^= 1;
    if (n != got.n) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (got.e[i].key != want[i].key || got.e[i].value != want[i].value) {
        return false;
      }
    }
    return true;
  }

  /// The preload is one bulk batch. The facade learns its splitters from
  /// its first batch, so the shards split the preload exactly in half and
  /// every seed enters the timed phase with the same per-shard fold and
  /// checkpoint state. (Learned from a 1024-key batch, the shards end up a
  /// few percent apart, which moves deep folds and spills in or out of the
  /// timed phase from one seed to the next.)
  void preload(Facade& f, std::uint64_t n) {
    std::vector<Entry> batch;
    batch.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) batch.push_back({kg_.key(i), encode(i, 0)});
    if (call([&] { f.insert_batch(batch); })) {
      std::fill(model_.live.begin(), model_.live.begin() + static_cast<std::ptrdiff_t>(n), 1);
    }
  }

  // -- workloads (timed phases) -----------------------------------------------

  /// What a timed phase reports back to the round loop.
  struct Timed {
    // Primary ops per second of time spent inside library calls, so the
    // client's own work (input generation, model checks) stays out of it.
    double rate = 0;
    std::uint64_t write_ops = 0;  // ops carried by mutator calls
    std::uint64_t primary_ops = 0;
  };

  std::uint64_t universe_for() const;
  Timed timed_ingest(Facade& f);
  Timed timed_read_mixed(Facade& f);
  Timed timed_scan_hot(Facade& f);
  Timed timed_churn(Facade& f);

  // -- round phases ------------------------------------------------------------

  void run_round(int round);
  void verify(const Facade& f, const std::vector<Entry>& expected);
  LayerSnap layer_snap(const Facade& f) const;
  void add_layer_delta(const LayerSnap& a, const LayerSnap& b);
  void finish_layers(Result& r);

  Options o_;
  Sizes sz_;
  KeyGen kg_;
  Model model_;
  std::uint64_t round_seed_ = 0;
  std::uint64_t busy_ns_ = 0;  // time inside the client's library calls
  std::unique_ptr<Zipf> zipf_;
  std::vector<Entry> scan_base_;  // scan_hot: the preload, sorted by key

  std::uint64_t attempted_ = 0, failed_ = 0, reports_ = 0;
  std::atomic<bool> planted_{false};
  std::uint64_t digest_ = 0;

  // End-to-end samples.
  std::vector<double> setup_s_, rate_, write_amp_, space_amp_, reopen_s_;
  Samples op_lat_, write_lat_;  // this round's
  RoundPercentiles op_pct_, write_pct_;

  // Per-layer samples (timed phase where the workload does the operation,
  // post-reopen verification probes otherwise).
  Samples find_hit_lat_, find_miss_lat_, seek_lat_;
  std::uint64_t next_ns_ = 0, next_count_ = 0;
  Samples vfind_hit_lat_, vfind_miss_lat_, vseek_lat_;
  std::uint64_t vnext_ns_ = 0, vnext_count_ = 0;
  LayerTotals tot_;
  struct Window {
    std::uint64_t t0, t1;
  };
  std::vector<Window> timed_windows_, reopen_windows_;
};

}  // namespace e2e
