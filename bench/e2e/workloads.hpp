// The four timed phases. Each one runs a fixed number of operations per
// round, checks every answer against the model, and ends with flush_stage
// plus a per-shard sync so the round's storage cost lands inside it.
#pragma once

#include <time.h>

#include <cerrno>

#include "bench.hpp"

namespace e2e {

inline double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Sleep until kSpinNs before `t`, then spin to it. A sleeping thread's
/// wake-up on a virtual machine can lag by tens of microseconds and varies
/// with the host's load; the spin keeps that lag out of the latencies the
/// generator measures from each batch's due time.
inline void wait_until_ns(std::uint64_t t) {
  constexpr std::uint64_t kSpinNs = 200'000;
  if (t > kSpinNs) {
    const std::uint64_t wake = t - kSpinNs;
    struct timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake / 1'000'000'000u);
    ts.tv_nsec = static_cast<long>(wake % 1'000'000'000u);
    // steady_clock is CLOCK_MONOTONIC, so now_ns() and this clock agree.
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
  }
  while (now_ns() < t) {
  }
}

template <class Inner>
std::uint64_t Bench<Inner>::universe_for() const {
  switch (o_.workload) {
    case Workload::kIngest: return sz_.preload + sz_.ops;
    case Workload::kScanHot:
      return sz_.preload + (sz_.ops / kInsertEvery + 1) * kScanInsertKeys;
    case Workload::kReadMixed:
    case Workload::kChurn: break;
  }
  return sz_.preload;
}

/// ingest: new keys through insert_batch, closed loop, one client.
template <class Inner>
typename Bench<Inner>::Timed Bench<Inner>::timed_ingest(Facade& f) {
  const std::uint64_t lo = sz_.preload, hi = sz_.preload + sz_.ops;
  std::vector<Entry> batch;
  batch.reserve(kWriteBatch);
  for (std::uint64_t r = lo; r < hi; r += kWriteBatch) {
    const std::uint64_t end = std::min(hi, r + kWriteBatch);
    batch.clear();
    for (std::uint64_t i = r; i < end; ++i) {
      batch.push_back({kg_.key(i), encode(i, 0)});
    }
    if (write_call(now_ns(), [&] { f.insert_batch(batch); })) {
      for (std::uint64_t i = r; i < end; ++i) model_.live[i] = 1;
    }
  }
  flush_and_sync(f);
  return {static_cast<double>(sz_.ops) / secs(busy_ns_), sz_.ops, sz_.ops};
}

/// read_mixed: kReaders threads find() in a closed loop, half of them
/// misses, while this thread applies updates to existing keys open loop at
/// kUpdateRate. Each hit is checked against the linearizability envelope
/// of its key: a version at least the one acknowledged before the find
/// began and at most the one issued before it returned.
template <class Inner>
typename Bench<Inner>::Timed Bench<Inner>::timed_read_mixed(Facade& f) {
  const std::uint64_t n = sz_.preload;
  std::vector<std::atomic<std::uint32_t>> issued(n), acked(n);
  struct Reader {
    // Readers issue millions of finds per round; a smaller buffer keeps
    // the run's memory bounded (Samples decimates evenly when full).
    Samples lat{1u << 20}, hit{1u << 20}, miss{1u << 20};
    std::uint64_t finds = 0, errors = 0, bad = 0, cpu_ns = 0, busy_ns = 0;
  };
  std::vector<Reader> readers(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  struct JoinAll {
    std::atomic<bool>& stop;
    std::vector<std::thread>& ts;
    ~JoinAll() {
      stop.store(true);
      for (auto& t : ts) {
        if (t.joinable()) t.join();
      }
    }
  } join_all{stop, threads};

  for (std::size_t k = 0; k < kReaders; ++k) {
    threads.emplace_back([&, k] {
      Reader& rd = readers[k];
      costream::Xoshiro256 rng(costream::mix64(round_seed_ ^ (0x100 + k)));
      const std::uint64_t c0 = thread_cpu_ns();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t r = rng.below(2 * n);
        const bool present = r < n;
        const std::uint32_t lo =
            present ? acked[r].load(std::memory_order_acquire) : 0;
        std::optional<Value> v;
        const std::uint64_t a = now_ns();
        try {
          v = f.find(kg_.key(r));
        } catch (const std::exception&) {
          ++rd.errors;
        }
        const std::uint64_t b = now_ns();
        const std::uint32_t hi =
            present ? issued[r].load(std::memory_order_acquire) : 0;
        ++rd.finds;
        rd.busy_ns += b - a;
        rd.lat.add(b - a);
        if constexpr (kTraced) (present ? rd.hit : rd.miss).add(b - a);
        bool ok = present ? v.has_value() && rank_of(*v) == r &&
                                version_of(*v) >= lo && version_of(*v) <= hi
                          : !v.has_value();
        if (plant_now(Plant::kFind)) ok = !ok;
        if (!ok) ++rd.bad;
      }
      rd.cpu_ns = thread_cpu_ns() - c0;
    });
  }

  // The generator waits for each batch's due time (1 us timer slack, then
  // a short spin); latency runs from the due time, so a stall also charges
  // the batches queued behind it (no coordinated omission).
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  costream::Xoshiro256 rng(costream::mix64(round_seed_ ^ 0x200));
  std::vector<Op> ops(kUpdateBatch);
  std::vector<std::uint64_t> ranks(kUpdateBatch);
  const auto period = static_cast<std::uint64_t>(
      static_cast<double>(kUpdateBatch) * 1e9 / kUpdateRate);
  const std::uint64_t batches = sz_.ops / kUpdateBatch;
  const std::uint64_t start = now_ns() + 1'000'000;  // readers spin up first
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint64_t due = start + b * period;
    wait_until_ns(due);
    const std::uint64_t issue = now_ns();
    tot_.gen_lag_max_ns = std::max(tot_.gen_lag_max_ns, issue > due ? issue - due : 0);
    for (std::size_t j = 0; j < kUpdateBatch; ++j) {
      const std::uint64_t r = rng.below(n);
      const std::uint32_t v = ++model_.ver[r];
      issued[r].store(v, std::memory_order_release);
      ops[j] = Op::put(kg_.key(r), encode(r, v));
      ranks[j] = r;
    }
    if (write_call(due, [&] { f.apply_batch(ops); })) {
      for (std::size_t j = 0; j < kUpdateBatch; ++j) {
        acked[ranks[j]].store(version_of(ops[j].value), std::memory_order_release);
      }
    }
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  Timed out;
  for (const Reader& rd : readers) {
    out.rate += static_cast<double>(rd.finds) / secs(rd.busy_ns);
    out.primary_ops += rd.finds;
    op_lat_.merge(rd.lat);
    find_hit_lat_.merge(rd.hit);
    find_miss_lat_.merge(rd.miss);
    attempted_ += rd.finds;
    failed_ += rd.errors + rd.bad;
    if (rd.bad > 0) {
      std::fprintf(stderr, "mismatch: %llu finds outside the model envelope\n",
                   static_cast<unsigned long long>(rd.bad));
    }
    tot_.client_cpu_s += secs(rd.cpu_ns);
  }
  out.write_ops = batches * kUpdateBatch;
  flush_and_sync(f);
  return out;
}

/// scan_hot: one client, closed loop. 19 of every 20 ops scan 100 entries
/// from the key of a Zipf-chosen rank; the 20th inserts 16 new keys, so the
/// next scan re-pins a fresh snapshot.
template <class Inner>
typename Bench<Inner>::Timed Bench<Inner>::timed_scan_hot(Facade& f) {
  std::map<Key, Value> inserted;
  costream::Xoshiro256 rng(costream::mix64(round_seed_ ^ 0x300));
  std::vector<Entry> batch(kScanInsertKeys);
  std::uint64_t next_rank = sz_.preload, scans = 0;
  for (std::uint64_t i = 0; i < sz_.ops; ++i) {
    if (i % kInsertEvery == kInsertEvery - 1) {
      for (std::size_t j = 0; j < kScanInsertKeys; ++j) {
        batch[j] = {kg_.key(next_rank + j), encode(next_rank + j, 0)};
      }
      if (write_call(now_ns(), [&] { f.insert_batch(batch); })) {
        for (std::size_t j = 0; j < kScanInsertKeys; ++j) {
          model_.live[next_rank + j] = 1;
          inserted.emplace(batch[j].key, batch[j].value);
        }
      }
      next_rank += kScanInsertKeys;
      continue;
    }
    const Key lo = kg_.key(zipf_->next(rng));
    ScanOut got;
    if (!try_scan(f, lo, got)) continue;
    ++scans;
    busy_ns_ += got.total_ns;
    op_lat_.add(got.total_ns);
    if constexpr (kTraced) seek_lat_.add(got.seek_ns);
    next_ns_ += got.total_ns - got.seek_ns;
    next_count_ += got.n;
    check(scan_matches(got, scan_base_, inserted, lo), "scan differs from the model");
  }
  const double busy = secs(busy_ns_);  // scans and inserts
  flush_and_sync(f);
  tot_.scans += scans;
  return {static_cast<double>(scans) / busy, next_rank - sz_.preload, scans};
}

/// churn: a fixed universe of preloaded keys, closed loop, apply_batch of
/// kWriteBatch uniform ops, half puts of a new version and half erases.
template <class Inner>
typename Bench<Inner>::Timed Bench<Inner>::timed_churn(Facade& f) {
  const std::uint64_t u = sz_.preload;
  costream::Xoshiro256 rng(costream::mix64(round_seed_ ^ 0x400));
  std::vector<Op> ops;
  ops.reserve(kWriteBatch);
  for (std::uint64_t done = 0; done < sz_.ops; done += kWriteBatch) {
    ops.clear();
    const std::uint64_t k = std::min<std::uint64_t>(kWriteBatch, sz_.ops - done);
    for (std::uint64_t j = 0; j < k; ++j) {
      const std::uint64_t r = rng.below(u);
      if ((rng() & 1) != 0) {
        const std::uint32_t v = ++model_.ver[r];
        model_.live[r] = 1;
        ops.push_back(Op::put(kg_.key(r), encode(r, v)));
      } else {
        model_.live[r] = 0;
        ops.push_back(Op::del(kg_.key(r)));
      }
    }
    write_call(now_ns(), [&] { f.apply_batch(ops); });
  }
  flush_and_sync(f);
  return {static_cast<double>(sz_.ops) / secs(busy_ns_), sz_.ops, sz_.ops};
}

}  // namespace e2e
