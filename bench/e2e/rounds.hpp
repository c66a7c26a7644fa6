// The round loop, post-reopen verification, and the metrics computed from
// the rounds (end to end) and from the traced spans and stats (per layer).
#pragma once

#include "workloads.hpp"

namespace e2e {

template <class Inner>
void Bench<Inner>::run_round(int round) {
  round_seed_ = costream::mix64(o_.seed * 0x9E3779B97F4A7C15ULL +
                                static_cast<std::uint64_t>(round));
  kg_.salt = costream::mix64(round_seed_ ^ 0x5A17);
  model_.reset(universe_for());
  std::filesystem::remove_all(o_.data_dir);
  std::filesystem::create_directories(o_.data_dir);

  std::unique_ptr<Facade> f;
  {
    SpanScope ph(SpanKind::kPhaseSetup);
    const std::uint64_t t0 = now_ns();
    f = open_stack({});
    preload(*f, sz_.preload);
    flush_and_sync(*f);
    setup_s_.push_back(secs(now_ns() - t0));
  }
  if (o_.workload == Workload::kScanHot) scan_base_ = model_.sorted(kg_);

  LayerSnap before;
  if constexpr (kTraced) before = layer_snap(*f);
  const ProcUsage u0 = ProcUsage::now();
  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t w0 = proc_wchar();
  const std::uint64_t tw0 = now_ns();
  busy_ns_ = 0;
  Timed t;
  {
    SpanScope ph(SpanKind::kPhaseTimed);
    switch (o_.workload) {
      case Workload::kIngest: t = timed_ingest(*f); break;
      case Workload::kReadMixed: t = timed_read_mixed(*f); break;
      case Workload::kScanHot: t = timed_scan_hot(*f); break;
      case Workload::kChurn: t = timed_churn(*f); break;
    }
  }
  const std::uint64_t tw1 = now_ns();
  const std::uint64_t w1 = proc_wchar();
  const ProcUsage u1 = ProcUsage::now();
  rate_.push_back(t.rate);
  // ingest and churn issue only writes: their op is the mutator call.
  const bool writes_only =
      o_.workload == Workload::kIngest || o_.workload == Workload::kChurn;
  op_pct_.take(writes_only ? write_lat_ : op_lat_);
  write_pct_.take(write_lat_);
  op_lat_.clear();
  write_lat_.clear();
  write_amp_.push_back(static_cast<double>(w1 - w0) /
                       (static_cast<double>(t.write_ops) * 16.0));
  space_amp_.push_back(static_cast<double>(dir_bytes(o_.data_dir)) /
                       (static_cast<double>(model_.live_count()) * 16.0));
  if constexpr (kTraced) {
    add_layer_delta(before, layer_snap(*f));
    timed_windows_.push_back({tw0, tw1});
    tot_.timed_ns += tw1 - tw0;
    tot_.write_ops += t.write_ops;
    tot_.primary_ops += t.primary_ops;
    tot_.cpu_s += u1.cpu_s - u0.cpu_s;
    tot_.client_cpu_s += secs(thread_cpu_ns() - cpu0);
    tot_.minflt += u1.minflt - u0.minflt;
    tot_.nvcsw += u1.nvcsw - u0.nvcsw;
    tot_.nivcsw += u1.nivcsw - u0.nivcsw;
  }

  // The whole store against the model, and the digest the traced and
  // untraced --quick runs must agree on.
  const std::vector<Entry> expected = model_.sorted(kg_);
  {
    SpanScope ph(SpanKind::kPhaseCheck);
    std::size_t i = 0;
    bool same = true;
    std::uint64_t dg = 0;
    call([&] {
      f->for_each([&](const Key& k, const Value& v) {
        dg += digest_entry(k, v);
        if (i >= expected.size() || expected[i].key != k ||
            expected[i].value != v) {
          same = false;
        }
        ++i;
      });
    });
    check(same && i == expected.size(), "for_each differs from the model");
    digest_ = dg;
  }

  // Clean close, then a timed reopen with the learned splitters, kReopens
  // times: one reopen is too short to time steadily.
  const std::vector<Key> splitters = f->splitters();
  for (int k = 0; k < kReopens && f != nullptr; ++k) {
    f.reset();
    SpanScope ph(SpanKind::kPhaseReopen);
    const std::uint64_t t0 = now_ns();
    call([&] { f = open_stack(splitters); });
    const std::uint64_t t1 = now_ns();
    reopen_s_.push_back(secs(t1 - t0));
    reopen_windows_.push_back({t0, t1});
  }
  if (f == nullptr) return;
  for (std::size_t s = 0; s < kShards; ++s) {
    const Inner& d = f->shard(s);
    check(!d.read_only(), "reopened shard is read-only");
    tot_.reopen_wal_records += d.storage_stats().recovered_wal_records;
    tot_.reopen_segment_entries += d.storage_stats().recovered_segment_entries;
  }
  {
    SpanScope ph(SpanKind::kPhaseVerify);
    verify(*f, expected);
  }
  f.reset();
  std::filesystem::remove_all(o_.data_dir);
}

/// Sampled finds (hits and misses) and scans on the reopened store.
template <class Inner>
void Bench<Inner>::verify(const Facade& f, const std::vector<Entry>& expected) {
  costream::Xoshiro256 rng(costream::mix64(round_seed_ ^ 0x500));
  const std::uint64_t u = model_.universe();
  for (std::uint64_t i = 0; i < sz_.verify_finds; ++i) {
    const std::uint64_t r = rng.below(2 * u);
    std::optional<Value> want = model_.expect(r);
    Samples& lat = want ? vfind_hit_lat_ : vfind_miss_lat_;
    if (plant_now(Plant::kReopen)) {
      want = want ? std::nullopt : std::optional<Value>(encode(r, 0));
    }
    std::optional<Value> got;
    const std::uint64_t t0 = now_ns();
    const bool ok = call([&] { got = f.find(kg_.key(r)); });
    lat.add(now_ns() - t0);
    if (ok) check(got == want, "post-reopen find differs from the model");
  }
  const std::map<Key, Value> none;
  for (std::uint64_t i = 0; i < sz_.verify_scans; ++i) {
    const Key lo = rng();
    ScanOut got;
    if (!try_scan(f, lo, got)) continue;
    vseek_lat_.add(got.seek_ns);
    vnext_ns_ += got.total_ns - got.seek_ns;
    vnext_count_ += got.n;
    check(scan_matches(got, expected, none, lo),
          "post-reopen scan differs from the model");
  }
}

template <class Inner>
LayerSnap Bench<Inner>::layer_snap(const Facade& f) const {
  LayerSnap s;
  s.facade = f.stats();
  for (std::size_t i = 0; i < kShards; ++i) {
    const Inner& d = f.shard(i);
    const auto& cs = d.inner().stats();
    s.merges += cs.merges;
    s.entries_merged += cs.entries_merged;
    s.stage_flushes += cs.stage_flushes;
    s.tombstones_dropped += cs.tombstones_dropped;
    s.duplicates_dropped += cs.duplicates_dropped;
    s.forced_folds += cs.forced_bottom_folds;
    const auto cc = d.inner().compaction_stats();
    s.folds_deferred += cc.folds_deferred;
    s.writer_assists += cc.writer_assists;
    s.queue_peak = std::max(s.queue_peak, cc.compaction_queue_peak);
    s.bg_fold_ns += cc.bg_fold_ns;
    s.checkpoints += d.storage_stats().checkpoints;
    s.segments_spilled += d.storage_stats().segments_spilled;
    s.levels = std::max<std::uint64_t>(s.levels, d.inner().level_count());
    if constexpr (kTraced) s.ops_applied.push_back(d.ops_applied());
  }
  return s;
}

template <class Inner>
void Bench<Inner>::add_layer_delta(const LayerSnap& a, const LayerSnap& b) {
  tot_.jobs += b.facade.jobs - a.facade.jobs;
  tot_.batches += b.facade.batches - a.facade.batches;
  tot_.finds += b.facade.finds - a.facade.finds;
  tot_.find_retries += b.facade.find_retries - a.facade.find_retries;
  tot_.drains += b.facade.drains - a.facade.drains;
  tot_.merges += b.merges - a.merges;
  tot_.entries_merged += b.entries_merged - a.entries_merged;
  tot_.stage_flushes += b.stage_flushes - a.stage_flushes;
  tot_.tombstones_dropped += b.tombstones_dropped - a.tombstones_dropped;
  tot_.duplicates_dropped += b.duplicates_dropped - a.duplicates_dropped;
  tot_.forced_folds += b.forced_folds - a.forced_folds;
  tot_.folds_deferred += b.folds_deferred - a.folds_deferred;
  tot_.writer_assists += b.writer_assists - a.writer_assists;
  tot_.queue_peak = std::max(tot_.queue_peak, b.queue_peak);
  tot_.bg_fold_ns += b.bg_fold_ns - a.bg_fold_ns;
  tot_.checkpoints += b.checkpoints - a.checkpoints;
  tot_.segments_spilled += b.segments_spilled - a.segments_spilled;
  tot_.levels = std::max(tot_.levels, b.levels);
  for (std::size_t i = 0; i < b.ops_applied.size(); ++i) {
    tot_.ops_applied[i] += b.ops_applied[i] - a.ops_applied[i];
  }
}

template <class Inner>
Result Bench<Inner>::run() {
  if (o_.workload == Workload::kScanHot) {
    zipf_ = std::make_unique<Zipf>(sz_.preload, kZipfTheta);
  }
  const std::uint64_t start = now_ns();
  int rounds = 0;
  for (;;) {
    run_round(rounds++);
    const auto last = [](const std::vector<double>& v) { return v.empty() ? 0.0 : v.back(); };
    std::fprintf(stderr,
                 "round %d: setup %.3f s, rate %.6g ops/s, op p50/p99 %.4g/%.4g us, "
                 "write p50/p99 %.4g/%.4g us, reopen %.3f s\n",
                 rounds, last(setup_s_), last(rate_), last(op_pct_.p50_us),
                 last(op_pct_.p99_us), last(write_pct_.p50_us),
                 last(write_pct_.p99_us), last(reopen_s_));
    if (o_.quick || rounds >= kMaxRounds) break;
    if (rounds >= kMinRounds && secs(now_ns() - start) >= o_.seconds) break;
  }

  Result r;
  r.rounds = rounds;
  r.attempted = attempted_;
  r.failed = failed_;
  r.digest = digest_;
  const auto n = static_cast<std::uint64_t>(rounds);
  r.metrics = {
      {"setup_s", median(setup_s_), "s", n},
      {"ops_per_s", median(rate_), "ops/s", n},
      {"op_p50_us", median(op_pct_.p50_us), "us", op_pct_.samples},
      {"op_p99_us", median(op_pct_.p99_us), "us", op_pct_.samples},
      {"write_p50_us", median(write_pct_.p50_us), "us", write_pct_.samples},
      {"write_p99_us", median(write_pct_.p99_us), "us", write_pct_.samples},
      {"write_amp", median(write_amp_), "ratio", n},
      {"space_amp", median(space_amp_), "ratio", n},
      {"reopen_s", median(reopen_s_), "s", n},
      {"peak_rss_mb", ProcUsage::now().peak_rss_mb, "MB", 1},
  };
  if constexpr (kTraced) finish_layers(r);
  return r;
}

template <class Inner>
void Bench<Inner>::finish_layers(Result& r) {
  Samples apply_lat, publish_lat, fsync_lat;
  std::uint64_t apply_ns = 0, apply_n = 0, apply_child_ns = 0, flush_ns = 0,
                publish_ns = 0, append_bytes = 0, append_ns = 0,
                spill_bytes = 0, fsyncs = 0, fsync_ns = 0, dir_syncs = 0,
                cps = 0, cp_ns = 0, cp_max_ns = 0, reopen_bytes = 0;
  const auto in = [](const std::vector<Window>& ws, std::uint64_t t) {
    for (const Window& w : ws) {
      if (t >= w.t0 && t < w.t1) return true;
    }
    return false;
  };
  Tracer::instance().for_each_thread([&](const Tracer::ThreadBuf& b) {
    // Self time: a span minus its direct children on the same thread.
    std::vector<std::uint64_t> child(b.spans.size(), 0);
    for (const Span& s : b.spans) {
      if (s.parent >= 0 && s.kind != SpanKind::kCheckpoint) {
        child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      const std::uint64_t dur = s.end_ns - s.start_ns;
      if (in(reopen_windows_, s.start_ns)) {
        if (s.kind == SpanKind::kRead) reopen_bytes += s.arg;
        continue;
      }
      if (!in(timed_windows_, s.start_ns)) continue;
      switch (s.kind) {
        case SpanKind::kShardApply:
          apply_lat.add(dur);
          apply_ns += dur;
          apply_child_ns += child[i];
          ++apply_n;
          break;
        case SpanKind::kShardFlush: flush_ns += dur; break;
        case SpanKind::kShardPublish:
          publish_lat.add(dur);
          publish_ns += dur;
          break;
        case SpanKind::kCheckpoint:
          ++cps;
          cp_ns += dur;
          cp_max_ns = std::max(cp_max_ns, dur);
          break;
        case SpanKind::kSegAppend:
          spill_bytes += s.arg;
          [[fallthrough]];
        case SpanKind::kWalAppend:
        case SpanKind::kMetaAppend:
          append_bytes += s.arg;
          append_ns += dur;
          break;
        case SpanKind::kFsync:
          ++fsyncs;
          fsync_ns += dur;
          fsync_lat.add(dur);
          break;
        case SpanKind::kDirSync: ++dir_syncs; break;
        default: break;
      }
    }
  });

  const double rounds = static_cast<double>(timed_windows_.size());
  const double wall = secs(tot_.timed_ns);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto per_round = [&](double x) { return x / rounds; };
  const auto [lo_ops, hi_ops] =
      std::minmax_element(tot_.ops_applied.begin(), tot_.ops_applied.end());
  // Timed-phase samples where the workload issues the operation, the
  // post-reopen verification probes otherwise.
  const Samples& hit = find_hit_lat_.empty() ? vfind_hit_lat_ : find_hit_lat_;
  const Samples& miss = find_miss_lat_.empty() ? vfind_miss_lat_ : find_miss_lat_;
  const Samples& seek = seek_lat_.empty() ? vseek_lat_ : seek_lat_;
  const double next_ns = next_count_ > 0 ? ratio(static_cast<double>(next_ns_), static_cast<double>(next_count_))
                                         : ratio(static_cast<double>(vnext_ns_), static_cast<double>(vnext_count_));
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const std::uint64_t n = timed_windows_.size();
  r.layers = {
      {"shard.worker_busy_frac", ratio(secs(apply_ns + flush_ns + publish_ns), kShards * wall), "ratio", apply_n},
      {"shard.apply_us_p50", apply_lat.percentile_ns(0.50) / 1e3, "us", apply_lat.size()},
      {"shard.apply_us_p99", apply_lat.percentile_ns(0.99) / 1e3, "us", apply_lat.size()},
      {"shard.publish_us_p50", publish_lat.percentile_ns(0.50) / 1e3, "us", publish_lat.size()},
      {"shard.publish_us_p99", publish_lat.percentile_ns(0.99) / 1e3, "us", publish_lat.size()},
      {"shard.imbalance", ratio(d(*hi_ops), d(*lo_ops)), "ratio", kShards},
      {"shard.jobs_per_batch", ratio(d(tot_.jobs), d(tot_.batches)), "ratio", tot_.batches},
      {"shard.owner_cpu_frac", ratio(d(tot_.owner_cpu_ns), d(tot_.owner_wall_ns)), "ratio", write_pct_.samples},
      {"shard.find_retries_per_find", ratio(d(tot_.find_retries), d(tot_.finds)), "ratio", tot_.finds},
      {"shard.drains_per_scan", ratio(d(tot_.drains), d(tot_.scans)), "ratio", tot_.scans},
      {"cola.entries_merged_per_op", ratio(d(tot_.entries_merged), d(tot_.write_ops)), "ratio", n},
      {"cola.merges", per_round(d(tot_.merges)), "count", n},
      {"cola.stage_flushes", per_round(d(tot_.stage_flushes)), "count", n},
      {"cola.levels", d(tot_.levels), "count", n},
      {"cola.tombstones_dropped", per_round(d(tot_.tombstones_dropped)), "count", n},
      {"cola.duplicates_dropped", per_round(d(tot_.duplicates_dropped)), "count", n},
      {"cola.forced_folds", per_round(d(tot_.forced_folds)), "count", n},
      {"cola.apply_self_us", ratio(d(apply_ns - apply_child_ns), d(apply_n)) / 1e3, "us", apply_n},
      {"cola.compact.busy_frac", ratio(secs(tot_.bg_fold_ns), wall), "ratio", n},
      {"cola.compact.assist_ratio", ratio(d(tot_.writer_assists), d(tot_.folds_deferred + tot_.writer_assists)), "ratio", tot_.folds_deferred + tot_.writer_assists},
      {"cola.compact.queue_peak", d(tot_.queue_peak), "count", n},
      {"storage.append_bytes_per_op", ratio(d(append_bytes), d(tot_.write_ops)), "B/op", n},
      {"storage.append_ms", per_round(d(append_ns) / 1e6), "ms", n},
      {"storage.fsyncs", per_round(d(fsyncs)), "count", n},
      {"storage.fsync_ms", per_round(d(fsync_ns) / 1e6), "ms", n},
      {"storage.fsync_us_p99", fsync_lat.percentile_ns(0.99) / 1e3, "us", fsync_lat.size()},
      {"storage.dir_syncs", per_round(d(dir_syncs)), "count", n},
      {"storage.checkpoints", per_round(d(cps)), "count", n},
      {"storage.segments_spilled", per_round(d(tot_.segments_spilled)), "count", n},
      {"storage.spill_bytes", per_round(d(spill_bytes)), "B", n},
      {"storage.reopen_read_bytes", ratio(d(reopen_bytes), d(reopen_windows_.size())), "B", reopen_windows_.size()},
      {"storage.reopen_wal_records", per_round(d(tot_.reopen_wal_records)), "count", n},
      {"storage.reopen_segment_entries", per_round(d(tot_.reopen_segment_entries)), "count", n},
      {"common.snapshot_seek_us_p50", seek.percentile_ns(0.50) / 1e3, "us", seek.size()},
      {"common.snapshot_seek_us_p99", seek.percentile_ns(0.99) / 1e3, "us", seek.size()},
      {"common.cursor_next_ns", next_ns, "ns", next_count_ > 0 ? next_count_ : vnext_count_},
      {"common.find_hit_us_p50", hit.percentile_ns(0.50) / 1e3, "us", hit.size()},
      {"common.find_miss_us_p50", miss.percentile_ns(0.50) / 1e3, "us", miss.size()},
      {"proc.cpu_s", per_round(tot_.cpu_s), "s", n},
      {"proc.bg_cpu_s", per_round(tot_.cpu_s - tot_.client_cpu_s), "s", n},
      {"proc.invol_csw_per_s", ratio(d(static_cast<std::uint64_t>(tot_.nivcsw)), wall), "1/s", n},
      {"proc.vol_csw_per_s", ratio(d(static_cast<std::uint64_t>(tot_.nvcsw)), wall), "1/s", n},
      {"proc.minor_faults_per_op", ratio(d(static_cast<std::uint64_t>(tot_.minflt)), d(tot_.primary_ops)), "ratio", n},
  };
  if (cps > 0) {
    r.extra.push_back({"storage.checkpoint_ms_total", per_round(d(cp_ns) / 1e6), "ms", cps});
    r.extra.push_back({"storage.checkpoint_ms_max", d(cp_max_ns) / 1e6, "ms", cps});
  }
  if (o_.workload == Workload::kReadMixed) {
    r.extra.push_back({"proc.gen_lag_ms_max", d(tot_.gen_lag_max_ns) / 1e6, "ms", write_pct_.samples});
  }
}

}  // namespace e2e
