// google-benchmark microbenchmarks: raw in-RAM operation costs for every
// dictionary in the library. These complement the figure benches (which
// model disk behavior) by showing CPU-side constants. The reader-scaling
// cells compare the sharded facade's barrier-free find() with the same
// probe on pinned per-shard snapshots at 1, 2 and 4 threads; the owner
// cell times the facade's submit side at two queue depths.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "brt/brt.hpp"
#include "btree/btree.hpp"
#include "cob/cob_tree.hpp"
#include "cola/cola.hpp"
#include "cola/deamortized_cola.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/workload.hpp"
#include "shard/sharded_dictionary.hpp"
#include "shuttle/shuttle_tree.hpp"

namespace {

using namespace costream;

template <class D>
void fill(D& d, std::uint64_t n, std::uint64_t seed) {
  const KeyStream ks(KeyOrder::kRandom, n, seed);
  for (std::uint64_t i = 0; i < n; ++i) d.insert(ks.key_at(i), i);
}

template <class D>
void bm_insert_random(benchmark::State& state, D (*make)()) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const KeyStream ks(KeyOrder::kRandom, n, 42);
  for (auto _ : state) {
    D d = make();
    for (std::uint64_t i = 0; i < n; ++i) d.insert(ks.key_at(i), i);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

template <class D>
void bm_find_hit(benchmark::State& state, D (*make)()) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  D d = make();
  fill(d, n, 42);
  const KeyStream ks(KeyOrder::kRandom, n, 42);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.find(ks.key_at(rng.below(n))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <class D>
void bm_range_100(benchmark::State& state, D (*make)()) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  D d = make();
  // Dense keys so ranges return ~100 entries.
  for (std::uint64_t i = 0; i < n; ++i) d.insert(i, i);
  Xoshiro256 rng(9);
  for (auto _ : state) {
    const Key lo = rng.below(n > 100 ? n - 100 : 1);
    std::uint64_t sum = 0;
    d.range_for_each(lo, lo + 99, [&](Key, Value v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}

cola::Gcola<> make_cola2() { return cola::Gcola<>(cola::ColaConfig{2, 0.1}); }
cola::Gcola<> make_cola4() { return cola::Gcola<>(cola::ColaConfig{4, 0.1}); }
cola::Gcola<> make_basic() { return cola::Gcola<>(cola::ColaConfig{2, 0.0}); }
cola::DeamortizedCola<> make_deam() { return cola::DeamortizedCola<>(); }
btree::BTree<> make_btree() { return btree::BTree<>(4096); }
brt::Brt<> make_brt() { return brt::Brt<>(4096); }
cob::CobTree<> make_cob() { return cob::CobTree<>(); }
shuttle::ShuttleTree<> make_shuttle() { return shuttle::ShuttleTree<>(); }

constexpr std::int64_t kSmall = 1 << 13;
constexpr std::int64_t kBig = 1 << 16;

#define REGISTER_DICT(name, maker)                                                  \
  BENCHMARK_CAPTURE(bm_insert_random, name, &maker)->Arg(kSmall)->Arg(kBig);        \
  BENCHMARK_CAPTURE(bm_find_hit, name, &maker)->Arg(kBig);                          \
  BENCHMARK_CAPTURE(bm_range_100, name, &maker)->Arg(kBig)

REGISTER_DICT(cola2, make_cola2);
REGISTER_DICT(cola4, make_cola4);
REGISTER_DICT(basic_cola, make_basic);
REGISTER_DICT(deamortized, make_deam);
REGISTER_DICT(btree, make_btree);
REGISTER_DICT(brt, make_brt);
REGISTER_DICT(cob, make_cob);
REGISTER_DICT(shuttle, make_shuttle);

// -- reader scaling ------------------------------------------------------------
// read_mixed's shape without the durable tier: two in-memory Gcola shards
// (ingest_tuned(8, 1024), inline folds) behind the facade, 2^20 keys each,
// preloaded in one batch and then updated by 2,000 batches of 64 so each
// shard holds several segments. Half of all lookups miss. The facade cell
// runs the full read protocol; the pinned cell routes the key the same way
// and calls Snapshot::find on that shard's snapshot, taken once before
// timing — the probe with no protocol around it. Public API only.
struct ReaderFixture {
  static constexpr std::uint64_t kKeys = std::uint64_t{1} << 21;

  shard::ShardedDictionary<cola::Gcola<>> dict;
  std::vector<snap::Snapshot<>> pinned;  // one per shard

  ReaderFixture()
      : dict(shard::ShardedConfig<>{},
             [](std::size_t) { return cola::Gcola<>(cola::ingest_tuned(8, 1024)); }) {
    std::vector<Entry<>> batch(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) batch[i] = {key(i), i};
    dict.insert_batch(batch);
    Xoshiro256 rng(11);
    std::vector<Entry<>> update(64);
    for (std::uint64_t b = 0; b < 2'000; ++b) {
      for (Entry<>& e : update) {
        const std::uint64_t r = rng.below(kKeys);
        e = {key(r), r + b};
      }
      dict.insert_batch(update);
    }
    for (std::size_t s = 0; s < dict.shard_count(); ++s) {
      pinned.push_back(dict.shard(s).snapshot());
    }
  }

  /// Rank i's key; ranks at or past kKeys were never inserted (mix64 is a
  /// bijection), so drawing ranks below 2 * kKeys misses half the time.
  static Key key(std::uint64_t i) { return mix64(i); }

  std::size_t shard_of(Key k) const {
    const std::vector<Key>& sp = dict.splitters();
    return static_cast<std::size_t>(std::upper_bound(sp.begin(), sp.end(), k) -
                                    sp.begin());
  }

  static ReaderFixture& get() {
    static ReaderFixture f;  // built once, by whichever thread arrives first
    return f;
  }
};

void bm_reader_facade_find(benchmark::State& state) {
  ReaderFixture& f = ReaderFixture::get();
  Xoshiro256 rng(101 + static_cast<std::uint64_t>(state.thread_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.dict.find(ReaderFixture::key(rng.below(2 * ReaderFixture::kKeys))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_reader_pinned_find(benchmark::State& state) {
  ReaderFixture& f = ReaderFixture::get();
  Xoshiro256 rng(101 + static_cast<std::uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const Key k = ReaderFixture::key(rng.below(2 * ReaderFixture::kKeys));
    benchmark::DoNotOptimize(f.pinned[f.shard_of(k)].find(k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(bm_reader_facade_find)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK(bm_reader_pinned_find)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// -- owner submit cost -----------------------------------------------------------
// The owner's side of insert_batch: normalize 1,024 random keys, cut them at
// the splitter and queue one run per shard of a 2-shard facade. Both
// workers are held (their shards' applies wait until released), so each
// iteration first stands the queues at a depth of `range(0)` batches —
// untimed — and then times one more batch. At depth 480 each shard holds
// about 246k queued entries, just under the entry budget. Behind a backlog
// the owner merges the queued runs the held worker has not claimed, each
// entry once per size class it climbs, so the time may grow with the log
// of the depth, never with the depth itself.
struct HeldShard {
  static std::atomic<bool>& held() {
    static std::atomic<bool> h{false};
    return h;
  }
  static void release() {
    held().store(false);
    held().notify_all();
  }
  void apply_batch(Span<Op<>> /*ops*/) { held().wait(true); }
};

void bm_owner_submit(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  shard::ShardedConfig<> cfg;
  cfg.splitters = {Key{1} << 63};
  shard::ShardedDictionary<HeldShard> dict(cfg, [](std::size_t) { return HeldShard{}; });
  Xoshiro256 rng(21);
  // Distinct keys across any 481 consecutive batches: merging dedups none.
  std::vector<std::vector<Entry<>>> batches(512, std::vector<Entry<>>(1024));
  for (auto& b : batches) {
    for (Entry<>& e : b) e = {rng(), 1};
  }
  std::size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    HeldShard::release();
    dict.drain();
    HeldShard::held().store(true);
    for (std::size_t i = 0; i < depth; ++i) {
      dict.insert_batch(batches[next++ % batches.size()]);
    }
    state.ResumeTiming();
    dict.insert_batch(batches[next++ % batches.size()]);
  }
  HeldShard::release();
  dict.drain();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}

BENCHMARK(bm_owner_submit)->Arg(0)->Arg(480)->Iterations(300)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
