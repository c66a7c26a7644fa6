// Durable-tier unit tests: CRC32C vectors, the fault-injection env's crash
// semantics, WAL append/replay/torn-tail handling, segment file round trips
// with an exhaustive flip-every-byte corruption matrix, manifest atomicity,
// and the DurableDictionary open/checkpoint/recover/degrade protocol —
// every claim the recovery design makes, checked in isolation before the
// crash fuzz composes them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dam/bounds.hpp"
#include "storage/durable_dict.hpp"
#include "storage/fault_env.hpp"
#include "storage/manifest.hpp"
#include "storage/segment_file.hpp"
#include "storage/wal.hpp"

namespace costream::storage {
namespace {

// ---------------------------------------------------------------- crc32c --

TEST(Crc32c, KnownVectors) {
  // The Castagnoli check value from RFC 3720 / the iSCSI test vector.
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  // 32 zero bytes — a second published vector.
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32c, SeedChainsLikeOneShot) {
  const char* s = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = 43;
  const std::uint32_t whole = crc32c(s, n);
  for (std::size_t cut = 0; cut <= n; ++cut) {
    EXPECT_EQ(crc32c(s + cut, n - cut, crc32c(s, cut)), whole) << "cut=" << cut;
  }
}

TEST(Crc32c, DetectsEveryByteFlip) {
  std::string data = "segment payload with enough bytes to matter";
  const std::uint32_t good = crc32c(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(data[i] ^ 0x40);
    EXPECT_NE(crc32c(data.data(), data.size()), good) << "byte " << i;
    data[i] = static_cast<char>(data[i] ^ 0x40);
  }
}

// ------------------------------------------------------------- fault env --

TEST(FaultEnv, BasicFileOps) {
  FaultInjectionEnv env;
  auto f = env.create("a");
  f->append("hello", 5);
  EXPECT_EQ(f->size(), 5u);
  EXPECT_TRUE(env.exists("a"));
  char buf[5];
  auto r = env.open_read("a");
  read_fully(*r, 0, buf, 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  env.rename_file("a", "b");
  EXPECT_FALSE(env.exists("a"));
  EXPECT_TRUE(env.exists("b"));
  env.remove_file("b");
  EXPECT_THROW(env.open_read("b"), IOError);
}

TEST(FaultEnv, CrashKeepsSyncedPrefixOnly) {
  FaultConfig cfg;
  cfg.flip_torn_bytes = false;
  FaultInjectionEnv env(cfg);
  auto f = env.create("f");
  env.sync_dir();  // name durable
  f->append("durable!", 8);
  f->sync();
  f->append("maybe-lost-tail", 15);
  env.schedule_crash_after(1);
  EXPECT_THROW(env.list(), CrashError);
  EXPECT_THROW(env.exists("f"), CrashError);  // down until apply_crash
  env.apply_crash();
  auto r = env.open_read("f");
  const std::uint64_t sz = r->size();
  ASSERT_GE(sz, 8u);   // synced prefix never shrinks
  ASSERT_LE(sz, 23u);  // tail kept is a prefix of what was appended
  char buf[8];
  read_fully(*r, 0, buf, 8);
  EXPECT_EQ(std::string(buf, 8), "durable!");
}

TEST(FaultEnv, UnsyncedCreateVanishesOnCrash) {
  FaultInjectionEnv env;
  env.create("synced");
  env.sync_dir();
  env.create("unsynced");  // name never committed
  env.schedule_crash_after(1);
  EXPECT_THROW(env.list(), CrashError);
  env.apply_crash();
  EXPECT_TRUE(env.exists("synced"));
  EXPECT_FALSE(env.exists("unsynced"));
}

TEST(FaultEnv, SyncLiesEatDataAtCrash) {
  FaultConfig cfg;
  cfg.lie_on_sync = true;
  cfg.flip_torn_bytes = false;
  FaultInjectionEnv env(cfg);
  auto f = env.create("f");
  env.sync_dir();  // lies: the name is never committed
  f->append("supposedly-durable", 18);
  f->sync();  // lies: the bytes are never persisted
  EXPECT_EQ(env.stats().sync_lies, 2u);
  env.schedule_crash_after(1);
  EXPECT_THROW(env.list(), CrashError);
  env.apply_crash();
  // The lying sync persisted nothing and the create itself was never
  // dir-synced before the lie config kicked in... the name survived only if
  // a truthful sync_dir committed it. Here sync_dir lied too, so:
  EXPECT_FALSE(env.exists("f"));
}

TEST(FaultEnv, TransientEioIsExactlyOnceUnderRetry) {
  FaultConfig cfg;
  cfg.eio_per_mille = 50;
  cfg.seed = 7;
  FaultInjectionEnv env(cfg);
  int attempts = 0;
  for (int i = 0; i < 200; ++i) {
    with_retry(env, [&] {
      ++attempts;
      auto f = env.create("f" + std::to_string(i));  // create truncates
      f->append("x", 1);
    });
  }
  EXPECT_GT(attempts, 200);  // some attempts were EIO'd and retried
  EXPECT_GT(env.stats().eio_injected, 0u);
  EXPECT_EQ(env.stats().sleeps, env.stats().eio_injected);
  // Exactly-once effect: despite retries, every file exists with exactly
  // one byte (EIO fires BEFORE the op applies; retried creates truncate).
  for (int i = 0; i < 200; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(with_retry(env, [&] { return env.exists(name); }));
    EXPECT_EQ(with_retry(env, [&] { return env.open_read(name)->size(); }), 1u);
  }
}

TEST(FaultEnv, ShortReadsAreLoopedByReadFully) {
  FaultConfig cfg;
  cfg.short_read_per_mille = 900;
  cfg.seed = 3;
  FaultInjectionEnv env(cfg);
  std::string payload(4096, 'q');
  env.create("f")->append(payload.data(), payload.size());
  auto r = env.open_read("f");
  std::string got(payload.size(), '\0');
  read_fully(*r, 0, got.data(), got.size());
  EXPECT_EQ(got, payload);
  EXPECT_GT(env.stats().short_reads, 0u);
}

TEST(FaultEnv, DeterministicUnderSameSeed) {
  auto run = [](std::uint64_t seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    FaultInjectionEnv env(cfg);
    auto f = env.create("f");
    std::string data(257, 'z');
    f->append(data.data(), data.size());
    env.sync_dir();
    env.schedule_crash_after(1);
    try {
      env.list();
    } catch (const CrashError&) {
    }
    env.apply_crash();
    auto r = env.open_read("f");
    std::string got(static_cast<std::size_t>(r->size()), '\0');
    if (!got.empty()) read_fully(*r, 0, got.data(), got.size());
    return got;
  };
  EXPECT_EQ(run(42), run(42));
}

// -------------------------------------------------------------------- wal --

WalRecord make_record(std::uint64_t seqno, std::uint64_t base, int n) {
  WalRecord rec;
  rec.last_seqno = seqno;
  for (int i = 0; i < n; ++i) {
    rec.entries.push_back({base + static_cast<std::uint64_t>(i), base * 10,
                           static_cast<std::uint8_t>(i % 3 == 0 ? 1 : 0)});
  }
  return rec;
}

TEST(Wal, RoundTrip) {
  FaultInjectionEnv env;
  WalOptions opts;
  opts.fsync_policy = FsyncPolicy::kAlways;
  {
    WalWriter w(env, opts, 0);
    for (int i = 1; i <= 20; ++i) {
      w.append_record(
          make_record(static_cast<std::uint64_t>(i) * 3, 100u * i, i % 5 + 1));
    }
    EXPECT_EQ(w.durable_seqno(), 60u);
  }
  std::vector<WalRecord> got;
  const WalReplayResult res =
      replay_wal(env, 0, 60, true, [&](const WalRecord& r) { got.push_back(r); });
  EXPECT_FALSE(res.tore);
  EXPECT_EQ(res.records, 20u);
  EXPECT_EQ(res.last_seqno, 60u);
  ASSERT_EQ(got.size(), 20u);
  EXPECT_EQ(got[4].last_seqno, 15u);
  EXPECT_EQ(got[4].entries.size(), 1u);
  EXPECT_EQ(got[4].entries[0].key, 500u);
  EXPECT_EQ(got[4].entries[0].flags, 1u);
}

TEST(Wal, CoveredSeqnoFiltersReplay) {
  FaultInjectionEnv env;
  WalWriter w(env, WalOptions{}, 0);
  for (int i = 1; i <= 10; ++i) w.append_record(make_record(i, i, 1));
  w.sync();
  std::uint64_t applied = 0;
  const auto res =
      replay_wal(env, 7, 10, true, [&](const WalRecord&) { ++applied; });
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(res.last_seqno, 10u);  // max over ALL records, applied or not
}

TEST(Wal, TornFinalTailTruncatesToValidPrefix) {
  FaultInjectionEnv env;
  {
    WalWriter w(env, WalOptions{}, 0);
    for (int i = 1; i <= 5; ++i) w.append_record(make_record(i, i, 2));
    w.sync();
  }
  // Tear the last record mid-body.
  auto f = env.open_read("wal-0.log");
  const std::uint64_t full = f->size();
  env.truncate_file("wal-0.log", full - 10);
  std::uint64_t applied = 0;
  const auto res =
      replay_wal(env, 0, 4, true, [&](const WalRecord&) { ++applied; });
  EXPECT_TRUE(res.tore);
  EXPECT_EQ(applied, 4u);
  EXPECT_EQ(res.last_seqno, 4u);
  // The tail was truncated in place: a second replay is clean.
  const auto res2 = replay_wal(env, 0, 4, true, [&](const WalRecord&) {});
  EXPECT_FALSE(res2.tore);
}

TEST(Wal, MidLogCorruptionThrowsAndKeepsPrefix) {
  FaultInjectionEnv env;
  {
    WalWriter w(env, WalOptions{}, 0);
    for (int i = 1; i <= 5; ++i) w.append_record(make_record(i, i, 1));
    w.sync();
  }
  // Flip a byte inside the third record's payload: records 4 and 5 are
  // intact after the break AND inside the vouched-durable boundary (the
  // caller passes durable_seqno = 5), so this cannot be a torn tail —
  // truncating would silently lose acknowledged records. Both modes throw
  // (the durable tier turns this into read-only degradation in tolerant
  // mode), and the file is left untouched as evidence.
  const std::size_t rec_bytes = 8 + 13 + 17;
  env.poke("wal-0.log", 2 * rec_bytes + 12, 0xee);
  const std::uint64_t full = env.open_read("wal-0.log")->size();
  for (const bool strict : {true, false}) {
    std::uint64_t applied = 0;
    EXPECT_THROW(
        replay_wal(env, 0, 5, strict, [&](const WalRecord&) { ++applied; }),
        CorruptionError);
    EXPECT_EQ(applied, 2u);  // the consistent prefix was delivered first
    EXPECT_EQ(env.open_read("wal-0.log")->size(), full);  // not truncated
  }
}

TEST(Wal, BreakAmongUnsyncedRecordsIsATear) {
  // A crash may corrupt any byte of the UNSYNCED suffix while still leaving
  // intact (but never-acknowledged) frames after the damage. With the
  // vouched-durable boundary at 3, the intact records past the break are
  // all unsynced, so the break is a legal tear — truncate, don't throw.
  FaultInjectionEnv env;
  WalOptions opts;
  opts.fsync_policy = FsyncPolicy::kNever;
  opts.group_commit_bytes = 1;  // every append reaches the file, unsynced
  const std::size_t rec_bytes = 8 + 13 + 17;
  {
    WalWriter w(env, opts, 0);
    for (int i = 1; i <= 3; ++i) w.append_record(make_record(i, i, 1));
    w.sync();  // durable through seqno 3
    for (int i = 4; i <= 5; ++i) w.append_record(make_record(i, i, 1));
    // Flip a byte in record 4's payload before the close syncs: the device
    // content is what replay sees either way.
    env.poke("wal-0.log", 3 * rec_bytes + 12, 0xee);
  }
  std::uint64_t applied = 0;
  const auto res =
      replay_wal(env, 0, 3, true, [&](const WalRecord&) { ++applied; });
  EXPECT_TRUE(res.tore);
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(res.last_seqno, 3u);
  EXPECT_EQ(env.open_read("wal-0.log")->size(), 3 * rec_bytes);  // truncated
}

TEST(Wal, NonFinalBreakWithIntactLaterFilesIsCorruption) {
  auto build = [](FaultInjectionEnv& env) {
    WalWriter w(env, WalOptions{}, 0);
    for (int i = 1; i <= 3; ++i) w.append_record(make_record(i, i, 1));
    w.rotate();  // -> wal-1.log (the old file is synced by rotation)
    for (int i = 4; i <= 6; ++i) w.append_record(make_record(i, i, 1));
    w.sync();
  };
  // wal-1.log holds intact records, so a break in wal-0.log can never be
  // a legitimate tear (rotation synced wal-0 first): corruption, both
  // modes, and the later file is NOT dropped.
  for (const bool strict : {true, false}) {
    FaultInjectionEnv env;
    build(env);
    env.poke("wal-0.log", 30, 0xaa);
    EXPECT_THROW(replay_wal(env, 0, 6, strict, [](const WalRecord&) {}),
                 CorruptionError);
    EXPECT_TRUE(env.exists("wal-1.log"));
  }
  // With nothing intact after the break (the later file never got a
  // record), the same break IS the tail: tolerant replay truncates in
  // place and drops the empty later file.
  {
    FaultInjectionEnv env;
    {
      WalWriter w(env, WalOptions{}, 0);
      for (int i = 1; i <= 3; ++i) w.append_record(make_record(i, i, 1));
      w.rotate();  // -> wal-1.log, still empty
      w.sync();
    }
    auto f = env.open_read("wal-0.log");
    env.truncate_file("wal-0.log", f->size() - 10);  // tear the last record
    std::uint64_t applied = 0;
    const auto res =
        replay_wal(env, 0, 2, false, [&](const WalRecord&) { ++applied; });
    EXPECT_TRUE(res.tore);
    EXPECT_EQ(applied, 2u);
    EXPECT_FALSE(env.exists("wal-1.log"));  // later files dropped
    EXPECT_EQ(res.next_file_no, 1u);
  }
}

TEST(Wal, CleanCloseFlushesGroupCommitBuffer) {
  // Under kBatch nothing below the group-commit window hits the file until
  // a barrier — but a CLEAN close is a barrier: the destructor flushes, so
  // acknowledged records survive process exit without a crash.
  FaultInjectionEnv env;
  WalOptions opts;
  opts.fsync_policy = FsyncPolicy::kBatch;
  opts.group_commit_bytes = 1u << 20;  // far more than 10 small records
  {
    WalWriter w(env, opts, 0);
    for (int i = 1; i <= 10; ++i) w.append_record(make_record(i, i, 1));
    // No sync() — everything sits in the arena.
  }
  env.apply_crash();  // drop whatever was not made durable by the close
  std::uint64_t applied = 0;
  const auto res =
      replay_wal(env, 0, 10, true, [&](const WalRecord&) { ++applied; });
  EXPECT_FALSE(res.tore);
  EXPECT_EQ(applied, 10u);
  EXPECT_EQ(res.last_seqno, 10u);
}

TEST(Wal, RotationSplitsFilesAndReplayWalksAll) {
  FaultInjectionEnv env;
  WalOptions opts;
  opts.wal_segment_bytes = 256;  // force frequent rotation
  WalWriter w(env, opts, 0);
  for (int i = 1; i <= 40; ++i) w.append_record(make_record(i, i, 1));
  w.sync();
  EXPECT_GT(w.file_no(), 2u);
  std::uint64_t applied = 0;
  const auto res =
      replay_wal(env, 0, 40, true, [&](const WalRecord&) { ++applied; });
  EXPECT_EQ(applied, 40u);
  EXPECT_EQ(res.last_seqno, 40u);
  EXPECT_EQ(res.next_file_no, w.file_no() + 1);
}

// ---------------------------------------------------------------- segment --

std::vector<SegmentEntry> make_entries(int n) {
  std::vector<SegmentEntry> es;
  for (int i = 0; i < n; ++i) {
    es.push_back({static_cast<std::uint64_t>(i) * 10 + 5,
                  static_cast<std::uint64_t>(i) * 7,
                  static_cast<std::uint8_t>(i % 4 == 0 ? kEntryTombstone : 0)});
  }
  return es;
}

void write_segment(StorageEnv& env, const std::string& name,
                   const std::vector<SegmentEntry>& es,
                   std::size_t block_bytes = 128) {
  SegmentWriter w(env, name, block_bytes);  // small blocks: many fences
  for (const auto& e : es) w.add(e);
  w.finish();
  env.sync_dir();
}

TEST(Segment, RoundTripMultiBlock) {
  FaultInjectionEnv env;
  const auto es = make_entries(100);
  write_segment(env, "seg-1.seg", es);
  SegmentReader r(env, "seg-1.seg", 1, nullptr);
  EXPECT_EQ(r.total_count(), 100u);
  EXPECT_GT(r.block_count(), 5u);
  EXPECT_EQ(r.min_key(), 5u);
  EXPECT_EQ(r.max_key(), 995u);
  std::vector<SegmentEntry> got;
  r.for_each_raw([&](const SegmentEntry& e) { got.push_back(e); });
  ASSERT_EQ(got.size(), es.size());
  for (std::size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(got[i].key, es[i].key);
    EXPECT_EQ(got[i].value, es[i].value);
    EXPECT_EQ(got[i].flags, es[i].flags);
  }
}

TEST(Segment, CursorSeeksThroughFencesAndSkipsTombstones) {
  FaultInjectionEnv env;
  write_segment(env, "seg-1.seg", make_entries(100));
  BlockCache cache(1u << 16);
  SegmentReader r(env, "seg-1.seg", 1, &cache);
  auto c = r.make_cursor(/*suppress_tombstones=*/true);
  c.seek(400);  // key 405 exists, i=40, 40%4==0 -> tombstone, skip to 415
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.entry().key, 415u);
  c.seek(996);
  EXPECT_FALSE(c.valid());
  auto raw = r.make_cursor(/*suppress_tombstones=*/false);
  raw.seek(400);
  ASSERT_TRUE(raw.valid());
  EXPECT_EQ(raw.entry().key, 405u);
  EXPECT_EQ(raw.entry().flags, kEntryTombstone);
  // Full scan through next() sees every non-tombstone in order.
  std::uint64_t n = 0;
  for (c.seek_first(); c.valid(); c.next()) ++n;
  EXPECT_EQ(n, 75u);
}

TEST(Segment, BlockCacheServesRepeatSeeks) {
  FaultInjectionEnv env;
  write_segment(env, "seg-1.seg", make_entries(100));
  BlockCache cache(1u << 16);
  SegmentReader r(env, "seg-1.seg", 1, &cache);
  auto c = r.make_cursor();
  c.seek(500);
  const std::uint64_t misses_after_first = cache.misses();
  for (int i = 0; i < 10; ++i) c.seek(500);
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GE(cache.hits(), 10u);
}

TEST(Segment, EmptySegmentIsValid) {
  FaultInjectionEnv env;
  write_segment(env, "seg-1.seg", {});
  SegmentReader r(env, "seg-1.seg", 1, nullptr);
  EXPECT_EQ(r.total_count(), 0u);
  auto c = r.make_cursor();
  c.seek_first();
  EXPECT_FALSE(c.valid());
}

// The robustness core: flip EVERY byte of a segment file; every flip must
// surface as CorruptionError (from the reader ctor or the scan), never as
// wrong data and never as UB.
TEST(Segment, CorruptionMatrixEveryByteFlip) {
  const auto es = make_entries(30);
  FaultInjectionEnv ref_env;
  write_segment(ref_env, "seg-1.seg", es, 128);
  const std::uint64_t file_size = ref_env.open_read("seg-1.seg")->size();
  for (std::uint64_t off = 0; off < file_size; ++off) {
    FaultInjectionEnv env;
    write_segment(env, "seg-1.seg", es, 128);
    char orig;
    read_fully(*env.open_read("seg-1.seg"), off, &orig, 1);
    env.poke("seg-1.seg", off, static_cast<std::uint8_t>(orig ^ 0x20));
    bool threw = false;
    try {
      SegmentReader r(env, "seg-1.seg", 1, nullptr);
      r.for_each_raw([](const SegmentEntry&) {});
    } catch (const CorruptionError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "byte " << off << " of " << file_size;
  }
}

// -------------------------------------------------------------- manifest --

TEST(Manifest, RoundTripAndLoad) {
  FaultInjectionEnv env;
  Manifest m;
  m.covered_seqno = 12345;
  m.durable_seqno = 12400;
  m.next_file_no = 7;
  m.segments = {{"seg-3.seg", 3, 2, 100}, {"seg-9.seg", 9, 3, 5000}};
  install_manifest(env, m);
  EXPECT_FALSE(env.exists(kManifestTmpName));
  auto got = load_manifest(env);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->covered_seqno, 12345u);
  EXPECT_EQ(got->durable_seqno, 12400u);
  EXPECT_EQ(got->next_file_no, 7u);
  ASSERT_EQ(got->segments.size(), 2u);
  EXPECT_EQ(got->segments[1].name, "seg-9.seg");
  EXPECT_EQ(got->segments[1].seg_id, 9u);
  EXPECT_EQ(got->segments[1].level, 3u);
  EXPECT_EQ(got->segments[1].count, 5000u);
}

TEST(Manifest, MissingIsNullopt) {
  FaultInjectionEnv env;
  EXPECT_FALSE(load_manifest(env).has_value());
}

TEST(Manifest, ReinstallReplacesAtomically) {
  FaultInjectionEnv env;
  Manifest m;
  m.covered_seqno = 1;
  install_manifest(env, m);
  m.covered_seqno = 2;
  install_manifest(env, m);
  EXPECT_EQ(load_manifest(env)->covered_seqno, 2u);
}

TEST(Manifest, CorruptionMatrixEveryByteFlip) {
  Manifest m;
  m.covered_seqno = 99;
  m.next_file_no = 4;
  m.segments = {{"seg-1.seg", 1, 2, 10}};
  const std::string bytes = encode_manifest(m);
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::string bad = bytes;
    bad[off] = static_cast<char>(bad[off] ^ 0x08);
    EXPECT_THROW(decode_manifest(bad), CorruptionError) << "byte " << off;
  }
  EXPECT_THROW(decode_manifest(bytes.substr(0, bytes.size() - 1)),
               CorruptionError);
  EXPECT_THROW(decode_manifest(bytes + "x"), CorruptionError);
}

// -------------------------------------------------------- durable dict ----

DurableConfig small_config() {
  DurableConfig cfg;
  cfg.inner = cola::ingest_tuned(4, 64);
  cfg.group_commit_bytes = 1u << 12;
  cfg.wal_segment_bytes = 1u << 15;
  cfg.checkpoint_wal_bytes = 1u << 30;  // manual checkpoints only
  cfg.spill_depth = 1;
  cfg.segment_block_bytes = 512;
  return cfg;
}

TEST(DurableDict, PersistsAcrossReopen) {
  FaultInjectionEnv env;
  {
    DurableDictionary d(env, small_config());
    for (std::uint64_t i = 0; i < 3000; ++i) d.insert(i * 3, i);
    for (std::uint64_t i = 0; i < 50; ++i) d.erase(i * 3);
    d.sync();
  }
  DurableDictionary d(env, small_config());
  EXPECT_FALSE(d.read_only());
  EXPECT_EQ(d.last_recovered_seqno(), 3050u);
  for (std::uint64_t i = 50; i < 3000; ++i) {
    ASSERT_EQ(d.find(i * 3).value(), i) << i;
  }
  EXPECT_FALSE(d.find(0).has_value());
  d.check_invariants();
}

TEST(DurableDict, CheckpointCollectsWalAndCoversEverything) {
  FaultInjectionEnv env;
  DurableDictionary d(env, small_config());
  for (std::uint64_t i = 0; i < 2000; ++i) d.insert(i, i + 1);
  d.checkpoint();
  EXPECT_EQ(d.storage_stats().checkpoints, 1u);
  EXPECT_GE(d.live_segment_files(), 1u);
  // Only the fresh epoch's WAL file remains.
  std::uint64_t wal_files = 0;
  for (const auto& name : env.list()) {
    std::uint64_t no;
    if (wal_detail::parse_wal_name(name, no)) ++wal_files;
  }
  EXPECT_EQ(wal_files, 1u);
  // Recovery from checkpoint alone (no WAL tail) restores everything.
  DurableDictionary d2(env, small_config());
  EXPECT_GT(d2.storage_stats().recovered_segment_entries, 0u);
  EXPECT_EQ(d2.storage_stats().recovered_wal_records, 0u);
  for (std::uint64_t i = 0; i < 2000; ++i) ASSERT_EQ(d2.find(i).value(), i + 1);
}

TEST(DurableDict, SeqnoMonotonicAcrossGenerations) {
  FaultInjectionEnv env;
  std::uint64_t gen1;
  {
    DurableDictionary d(env, small_config());
    for (std::uint64_t i = 0; i < 100; ++i) d.insert(i, i);
    d.checkpoint();
    for (std::uint64_t i = 0; i < 50; ++i) d.erase(i);
    d.sync();
    gen1 = d.seqno();
  }
  DurableDictionary d(env, small_config());
  EXPECT_EQ(d.seqno(), gen1);
  d.insert(999, 1);
  EXPECT_EQ(d.seqno(), gen1 + 1);
}

TEST(DurableDict, TornWalTailRecoversPrefix) {
  FaultConfig fcfg;
  fcfg.flip_torn_bytes = false;
  FaultInjectionEnv env(fcfg);
  {
    auto cfg = small_config();
    cfg.fsync_policy = FsyncPolicy::kAlways;
    DurableDictionary d(env, cfg);
    for (std::uint64_t i = 1; i <= 20; ++i) d.insert(i, i);
  }
  // Chop the live WAL mid-record: replay must keep the intact prefix.
  std::string wal_name;
  for (const auto& name : env.list()) {
    std::uint64_t no;
    if (wal_detail::parse_wal_name(name, no)) wal_name = name;
  }
  ASSERT_FALSE(wal_name.empty());
  const std::uint64_t sz = env.open_read(wal_name)->size();
  env.truncate_file(wal_name, sz - 5);
  DurableDictionary d(env, small_config());
  EXPECT_TRUE(d.storage_stats().wal_tail_torn);
  EXPECT_EQ(d.last_recovered_seqno(), 19u);
  EXPECT_TRUE(d.find(19).has_value());
  EXPECT_FALSE(d.find(20).has_value());
  EXPECT_FALSE(d.read_only());
  // And the store keeps working.
  d.insert(20, 20);
  EXPECT_EQ(d.find(20).value(), 20u);
}

TEST(DurableDict, CleanCloseKeepsGroupCommitTail) {
  // kBatch buffers records in the group-commit arena; a clean close (no
  // crash, no explicit sync) must still land them — regression for the
  // destructor dropping up to group_commit_bytes of acknowledged ops.
  FaultInjectionEnv env;
  {
    auto cfg = small_config();
    cfg.fsync_policy = FsyncPolicy::kBatch;
    cfg.group_commit_bytes = 1u << 20;  // never reached by 20 small records
    DurableDictionary d(env, cfg);
    for (std::uint64_t i = 1; i <= 20; ++i) d.insert(i, i * 2);
  }
  env.apply_crash();  // keep only what the close made durable
  DurableDictionary d(env, small_config());
  EXPECT_FALSE(d.read_only());
  EXPECT_EQ(d.last_recovered_seqno(), 20u);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    ASSERT_EQ(d.find(i).value(), i * 2) << i;
  }
}

TEST(DurableDict, MidLogWalCorruptionDegradesToReadOnly) {
  // A flipped byte MID-log — inside the region a manifest vouched durable,
  // with intact durable records after it — must never be truncated away as
  // a "torn tail": tolerant mode serves the consistent prefix read-only,
  // strict mode throws. The durable vouch comes from the manifest a spill
  // installs (stamped right after the pre-spill WAL sync barrier), so the
  // build phase spills once at seqno 10 and then keeps logging.
  auto build = [](FaultInjectionEnv& env) {
    auto cfg = small_config();
    cfg.fsync_policy = FsyncPolicy::kAlways;
    DurableDictionary d(env, cfg);
    for (std::uint64_t i = 1; i <= 10; ++i) d.insert(i, i);
    d.flush_stage();  // folds past spill_depth: manifest durable_seqno = 10
    ASSERT_GE(d.live_segment_files(), 1u);
    for (std::uint64_t i = 11; i <= 20; ++i) d.insert(i, i);
  };
  const std::size_t rec_bytes = 8 + 13 + 17;  // one single-op record
  {
    FaultInjectionEnv env;
    build(env);
    env.poke("wal-0.log", 2 * rec_bytes + 12, 0xee);  // record 3 payload
    DurableDictionary d(env, small_config());
    EXPECT_TRUE(d.read_only());
    EXPECT_NE(d.corruption_detail().find("mid-log"), std::string::npos);
    EXPECT_EQ(d.find(2).value(), 2u);  // prefix before the break serves
    EXPECT_FALSE(d.find(20).has_value());
    EXPECT_THROW(d.insert(99, 99), ReadOnlyError);
  }
  {
    FaultInjectionEnv env;
    build(env);
    env.poke("wal-0.log", 2 * rec_bytes + 12, 0xee);
    auto cfg = small_config();
    cfg.strict = true;
    EXPECT_THROW(DurableDictionary(env, cfg), CorruptionError);
  }
}

TEST(DurableDict, CorruptManifestDegradesToReadOnly) {
  FaultInjectionEnv env;
  {
    DurableDictionary d(env, small_config());
    for (std::uint64_t i = 0; i < 500; ++i) d.insert(i, i);
    d.checkpoint();
  }
  env.poke(kManifestName, 12, 0x5a);
  DurableDictionary d(env, small_config());
  EXPECT_TRUE(d.read_only());
  EXPECT_FALSE(d.corruption_detail().empty());
  EXPECT_THROW(d.insert(1, 1), ReadOnlyError);
  EXPECT_THROW(d.checkpoint(), ReadOnlyError);
  // Reads stay legal (serving whatever was recovered — here, nothing).
  (void)d.find(1);
}

TEST(DurableDict, CorruptSegmentDegradesToReadOnly) {
  FaultInjectionEnv env;
  {
    DurableDictionary d(env, small_config());
    for (std::uint64_t i = 0; i < 500; ++i) d.insert(i, i);
    d.checkpoint();
  }
  std::string seg;
  for (const auto& name : env.list()) {
    if (name.compare(0, 4, "seg-") == 0) seg = name;
  }
  ASSERT_FALSE(seg.empty());
  env.poke(seg, 100, 0xff);
  DurableDictionary d(env, small_config());
  EXPECT_TRUE(d.read_only());
}

TEST(DurableDict, StrictModeThrowsInsteadOfDegrading) {
  FaultInjectionEnv env;
  {
    DurableDictionary d(env, small_config());
    for (std::uint64_t i = 0; i < 500; ++i) d.insert(i, i);
    d.checkpoint();
  }
  env.poke(kManifestName, 12, 0x5a);
  auto cfg = small_config();
  cfg.strict = true;
  EXPECT_THROW(DurableDictionary(env, cfg), CorruptionError);
}

TEST(DurableDict, EraseToEmptyCheckpointClearsLiveSet) {
  FaultInjectionEnv env;
  {
    DurableDictionary d(env, small_config());
    for (std::uint64_t i = 0; i < 300; ++i) d.insert(i, i);
    d.checkpoint();
    for (std::uint64_t i = 0; i < 300; ++i) d.erase(i);
    d.checkpoint();
    EXPECT_EQ(d.live_segment_files(), 0u);
  }
  DurableDictionary d(env, small_config());
  EXPECT_FALSE(d.find(5).has_value());
  EXPECT_EQ(d.inner().item_count(), 0u);
}

TEST(DurableDict, AutomaticCheckpointOnWalGrowth) {
  FaultInjectionEnv env;
  auto cfg = small_config();
  cfg.checkpoint_wal_bytes = 1u << 12;
  DurableDictionary d(env, cfg);
  std::vector<Entry<>> batch;
  for (std::uint64_t i = 0; i < 4000; ++i) batch.push_back({i, i});
  d.insert_batch(batch);
  for (std::uint64_t i = 0; i < 4000; ++i) d.insert(i, i + 1);
  EXPECT_GT(d.storage_stats().checkpoints, 0u);
  DurableDictionary d2(env, cfg);
  for (std::uint64_t i = 0; i < 4000; i += 97) ASSERT_EQ(d2.find(i).value(), i + 1);
}

TEST(DurableDict, SurvivesTransientEioEverywhere) {
  FaultConfig fcfg;
  fcfg.eio_per_mille = 30;
  fcfg.seed = 11;
  FaultInjectionEnv env(fcfg);
  auto cfg = small_config();
  // Mutation-path EIO propagates to the caller (exactly-once WAL append is
  // the contract, not absorption) — but the store must stay consistent and
  // the op retryable.
  DurableDictionary d(env, cfg);
  std::map<std::uint64_t, std::uint64_t> model;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    for (;;) {
      try {
        d.insert(i, i * 2);
        model[i] = i * 2;
        break;
      } catch (const TransientIOError&) {
        continue;  // retried verbatim: record was not applied to memory
      }
    }
  }
  for (;;) {
    try {
      d.checkpoint();
      break;
    } catch (const IOError&) {
      continue;
    }
  }
  env.config().eio_per_mille = 0;
  DurableDictionary d2(env, cfg);
  ASSERT_FALSE(d2.read_only());
  for (const auto& [k, v] : model) ASSERT_EQ(d2.find(k).value(), v);
}

TEST(DurableDict, SegIdCounterNeverRewinds) {
  // set_next_seg_id must clamp monotonically: a rewind would mint ids
  // already handed out, and a duplicate id reported as consumed by a fold
  // retires an unrelated live on-disk segment.
  FaultInjectionEnv env;
  DurableDictionary d(env, small_config());
  auto& g = d.inner_mut();
  const std::uint64_t cur = g.next_seg_id();
  g.set_next_seg_id(cur + 100);
  EXPECT_EQ(g.next_seg_id(), cur + 100);
  g.set_next_seg_id(cur);  // rewind attempt
  EXPECT_EQ(g.next_seg_id(), cur + 100);
}

TEST(DurableDict, ReplayMintedSegIdsNeverRetireLiveSegments) {
  // Regression: recovery used to seed the inner segment-id counter from
  // the manifest only AFTER replay, so replay minted in-memory segment ids
  // from 1 — colliding with live on-disk seg_ids — and the late seed could
  // even rewind the counter below replay-minted ids. A post-recovery fold
  // then reported a colliding id as consumed and the spiller retired the
  // UNRELATED on-disk segment — losing its content at the next reopen
  // whenever the WAL no longer covered it. The counter now seeds past
  // every manifest id BEFORE replay, making the id spaces disjoint.
  //
  // Oracle: end-to-end key loss. Generation 1 checkpoints 4000 keys (the
  // covered prefix now lives ONLY in the checkpoint segment — WAL gc
  // dropped it) and spills 4000 more; generation 2 recovers and ingests
  // enough to drive folds past spill_depth, whose consumed-id reports used
  // to retire the checkpoint segment; generation 3 must still see every
  // key. Pre-fix this silently loses all 4000 covered-prefix keys.
  FaultInjectionEnv env;
  {
    DurableDictionary d(env, small_config());
    for (std::uint64_t i = 0; i < 4000; ++i) d.insert(i, i + 7);
    d.checkpoint();  // covered prefix moves out of the WAL
    for (std::uint64_t i = 4000; i < 8000; ++i) d.insert(i, i + 7);
  }  // several manifest-live segments behind, ids well above 1
  {
    DurableDictionary d(env, small_config());
    ASSERT_FALSE(d.read_only());
    ASSERT_GE(d.live_segment_files(), 2u);
    for (std::uint64_t i = 8000; i < 10000; ++i) d.insert(i, i + 7);
    d.sync();
  }
  DurableDictionary d(env, small_config());
  ASSERT_FALSE(d.read_only());
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(d.find(i).value(), i + 7) << "key " << i << " lost";
  }
}

TEST(DurableDict, MissingVouchedWalIsCorruptionNotTear) {
  // A manifest vouches records through durable_seqno as fsynced. If replay
  // cannot REACH that boundary — here the WAL files are destroyed
  // wholesale, so no intact record remains to prove the region was covered
  // — the loss of acknowledged-durable records must read as corruption
  // (read-only / strict-throw), never as a legal torn tail that silently
  // truncates the prefix and reissues acknowledged seqnos.
  auto build = [](FaultInjectionEnv& env) {
    auto cfg = small_config();
    cfg.fsync_policy = FsyncPolicy::kAlways;
    DurableDictionary d(env, cfg);
    for (std::uint64_t i = 1; i <= 10; ++i) d.insert(i, i);
    d.flush_stage();  // spill installs a manifest with durable_seqno = 10
    ASSERT_GE(d.live_segment_files(), 1u);
  };
  const auto drop_wal_files = [](FaultInjectionEnv& env) {
    for (const auto& name : env.list()) {
      std::uint64_t no;
      if (wal_detail::parse_wal_name(name, no)) env.remove_file(name);
    }
  };
  {
    FaultInjectionEnv env;
    build(env);
    drop_wal_files(env);
    DurableDictionary d(env, small_config());
    EXPECT_TRUE(d.read_only());
    EXPECT_NE(d.corruption_detail().find("vouches"), std::string::npos)
        << d.corruption_detail();
    EXPECT_THROW(d.insert(99, 99), ReadOnlyError);
  }
  {
    FaultInjectionEnv env;
    build(env);
    drop_wal_files(env);
    auto cfg = small_config();
    cfg.strict = true;
    EXPECT_THROW(DurableDictionary(env, cfg), CorruptionError);
  }
}

// Test env wrapper: refuses segment-file creation and/or file removal
// while armed, everything else passes through — the surgical faults for a
// failed spill or checkpoint write and for a refused collection.
class RefusingEnv final : public StorageEnv {
 public:
  explicit RefusingEnv(StorageEnv& base) : base_(base) {}
  bool fail_segment_creates = false;
  bool fail_removes = false;

  std::unique_ptr<WritableFile> create(const std::string& name) override {
    if (fail_segment_creates && name.compare(0, 4, "seg-") == 0) {
      throw IOError("injected: segment create refused");
    }
    return base_.create(name);
  }
  std::unique_ptr<RandomReadFile> open_read(const std::string& name) override {
    return base_.open_read(name);
  }
  bool exists(const std::string& name) override { return base_.exists(name); }
  std::vector<std::string> list() override { return base_.list(); }
  void rename_file(const std::string& from, const std::string& to) override {
    base_.rename_file(from, to);
  }
  void remove_file(const std::string& name) override {
    if (fail_removes) throw IOError("injected: remove refused");
    base_.remove_file(name);
  }
  void truncate_file(const std::string& name, std::uint64_t size) override {
    base_.truncate_file(name, size);
  }
  void sync_dir() override { base_.sync_dir(); }
  void sleep_us(std::uint64_t us) override { base_.sleep_us(us); }

 private:
  StorageEnv& base_;
};

TEST(DurableDict, FailedAutomaticCheckpointDefersInsteadOfThrowing) {
  // A size-triggered checkpoint that fails must not throw out of the
  // mutation that tripped it — the mutation already succeeded (WAL record
  // durable, memory applied, seqno advanced), so a throw would make the
  // caller believe an applied op was rejected. The failure is deferred to
  // stats/health and retried at the next window; an EXPLICIT checkpoint()
  // still throws.
  FaultInjectionEnv base;
  RefusingEnv env(base);
  auto cfg = small_config();
  cfg.checkpoint_wal_bytes = 1u << 12;  // auto-checkpoint early and often
  {
    DurableDictionary d(env, cfg);
    env.fail_segment_creates = true;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      ASSERT_NO_THROW(d.insert(i, i + 1)) << i;
    }
    EXPECT_EQ(d.seqno(), 2000u);
    EXPECT_GT(d.storage_stats().checkpoint_failures, 0u);
    EXPECT_FALSE(d.last_checkpoint_error().empty());
    EXPECT_EQ(d.storage_stats().checkpoints, 0u);
    EXPECT_THROW(d.checkpoint(), IOError);
    // Heal the device: the next accumulated window retries and succeeds,
    // clearing the health flag.
    env.fail_segment_creates = false;
    for (std::uint64_t i = 0; i < 2000; ++i) d.insert(i, i + 2);
    EXPECT_GT(d.storage_stats().checkpoints, 0u);
    EXPECT_TRUE(d.last_checkpoint_error().empty());
  }  // clean close flushes + syncs the group-commit tail
  // Everything — including the ops whose checkpoints failed — persisted.
  DurableDictionary d2(env, cfg);
  ASSERT_FALSE(d2.read_only());
  for (std::uint64_t i = 0; i < 2000; ++i) ASSERT_EQ(d2.find(i).value(), i + 2);
}

// ------------------------------------------------ incremental checkpoints --

std::set<std::string> segment_files(StorageEnv& env) {
  std::set<std::string> out;
  for (const auto& name : env.list()) {
    if (name.compare(0, 4, "seg-") == 0) out.insert(name);
  }
  return out;
}

/// The installed manifest; an empty one before the first install.
Manifest installed_manifest(StorageEnv& env) {
  std::optional<Manifest> m = load_manifest(env);
  return m.has_value() ? std::move(*m) : Manifest{};
}

std::set<std::string> manifest_files(StorageEnv& env) {
  std::set<std::string> out;
  for (const auto& s : installed_manifest(env).segments) out.insert(s.name);
  return out;
}

using SegIds = std::vector<std::pair<std::uint64_t, std::uint32_t>>;  // (id, level)

SegIds manifest_segments(StorageEnv& env) {
  SegIds out;
  for (const auto& s : installed_manifest(env).segments) {
    out.emplace_back(s.seg_id, s.level);
  }
  return out;
}

/// The in-memory segment set, oldest first: what a checkpoint must list.
SegIds memory_segments(const DurableDictionary& d) {
  SegIds out;
  d.inner().for_each_segment([&](std::size_t level, const snap::Segment<>& seg) {
    out.emplace_back(seg.id, static_cast<std::uint32_t>(level));
  });
  return out;
}

std::size_t wal_file_count(StorageEnv& env) {
  std::size_t n = 0;
  for (const auto& name : env.list()) {
    std::uint64_t no;
    if (wal_detail::parse_wal_name(name, no)) ++n;
  }
  return n;
}

TEST(DurableDict, RefusedRemoveNeverFailsADurableCheckpoint) {
  // Once a checkpoint's manifest is installed the checkpoint has happened:
  // covered_seqno moved and what the manifest dropped is garbage. A file
  // that cannot be removed afterwards waits for the next collection — it
  // must not turn the checkpoint into a failure: no throw from an explicit
  // checkpoint(), no deferred failure on the automatic path, and no failed
  // spill when a consumed spill file cannot go.
  for (const bool automatic : {false, true}) {
    SCOPED_TRACE(automatic ? "automatic" : "explicit");
    FaultInjectionEnv base;
    RefusingEnv env(base);
    auto cfg = small_config();
    if (automatic) cfg.checkpoint_wal_bytes = 1u << 12;
    {
      DurableDictionary d(env, cfg);
      for (std::uint64_t i = 0; i < 1000; ++i) d.insert(i, i + 1);
      env.fail_removes = true;
      for (std::uint64_t i = 1000; i < 3000; ++i) {
        ASSERT_NO_THROW(d.insert(i, i + 1)) << i;
      }
      if (!automatic) {
        ASSERT_NO_THROW(d.checkpoint());
        EXPECT_EQ(d.durable_seqno(), d.seqno());
      }
      EXPECT_GT(d.storage_stats().checkpoints, 0u);
      EXPECT_EQ(d.storage_stats().checkpoint_failures, 0u);
      EXPECT_TRUE(d.last_checkpoint_error().empty());
      EXPECT_EQ(d.storage_stats().spill_failures, 0u);
      EXPECT_GT(wal_file_count(env), 1u);  // the garbage did stay
      // Heal the device: the next collection removes what stayed.
      env.fail_removes = false;
      d.checkpoint();
      EXPECT_EQ(wal_file_count(env), 1u);
      EXPECT_EQ(segment_files(env), manifest_files(env));
    }
    DurableDictionary d(env, cfg);
    ASSERT_FALSE(d.read_only());
    for (std::uint64_t i = 0; i < 3000; ++i) ASSERT_EQ(d.find(i).value(), i + 1);
  }
}

TEST(DurableDict, SegmentFilesAreExactlyTheManifestLiveSet) {
  // After every mutation, spill and checkpoint, the seg-* files on disk
  // are exactly the ones the installed manifest lists: a consumed spill
  // file goes as soon as the manifest that drops it is durable. After
  // every checkpoint, explicit or automatic, the manifest lists exactly
  // the in-memory segment set — ids and levels, oldest first — at
  // covered_seqno = seqno. The feed is append-only, then mixed (updates
  // and erases: the full-fold branch), then append-only again.
  FaultInjectionEnv env;
  auto cfg = small_config();
  cfg.inner = cola::ingest_tuned(4, 16);
  cfg.spill_depth = 2;
  cfg.checkpoint_wal_bytes = 1u << 13;
  std::map<Key, Value> model;
  {
    DurableDictionary d(env, cfg);
    Xoshiro256 rng(7);
    Key fresh = 0;
    std::uint64_t checkpoints = 0;
    const auto check = [&](const char* what, int call) {
      ASSERT_EQ(segment_files(env), manifest_files(env)) << what << " " << call;
      if (d.storage_stats().checkpoints == checkpoints) return;
      checkpoints = d.storage_stats().checkpoints;
      EXPECT_EQ(installed_manifest(env).covered_seqno, d.seqno()) << what << " " << call;
      EXPECT_EQ(manifest_segments(env), memory_segments(d)) << what << " " << call;
    };
    for (int phase = 0; phase < 3; ++phase) {
      for (int call = 0; call < 400; ++call) {
        std::vector<Op<>> ops;
        const std::size_t n = 1 + rng.below(24);
        for (std::size_t j = 0; j < n; ++j) {
          if (phase != 1) {
            ops.push_back(Op<>::put(fresh++, rng()));
          } else if (rng.below(3) == 0) {
            ops.push_back(Op<>::del(rng.below(fresh)));
          } else {
            ops.push_back(Op<>::put(rng.below(fresh), rng()));
          }
        }
        d.apply_batch(ops);
        for (const Op<>& o : ops) {
          if (o.erase) {
            model.erase(o.key);
          } else {
            model[o.key] = o.value;
          }
        }
        check("mutation", call);
        if (call % 97 == 0) {
          d.flush_stage();
          check("flush_stage", call);
        }
        if (call % 131 == 0) {
          d.checkpoint();
          check("checkpoint", call);
        }
      }
    }
    EXPECT_GT(checkpoints, 10u);
    EXPECT_GT(d.storage_stats().segments_retired, 0u);
  }
  DurableDictionary d(env, cfg);
  ASSERT_FALSE(d.read_only());
  std::size_t seen = 0;
  d.for_each([&](Key k, Value v) {
    ++seen;
    ASSERT_EQ(model.at(k), v) << k;
  });
  EXPECT_EQ(seen, model.size());
  EXPECT_EQ(segment_files(env), manifest_files(env));
}

TEST(DurableDict, FirstCheckpointAfterReopenWritesTheReplayedSegments) {
  // Recovery replays the manifest's files into fresh in-memory segments —
  // the spill observer attaches after replay — so none of them has a
  // file. The generation's first checkpoint writes them all and drops the
  // recovered files; the next one, with nothing new, writes no segment.
  // Then a power cut: nothing acknowledged-durable is lost, no file leaks.
  FaultInjectionEnv env;
  auto cfg = small_config();
  cfg.spill_depth = 2;
  std::set<std::string> recovered;
  {
    DurableDictionary d(env, cfg);
    for (std::uint64_t i = 0; i < 3000; ++i) d.insert(i, i + 7);
    d.checkpoint();
    recovered = segment_files(env);
    ASSERT_FALSE(recovered.empty());
  }
  {
    DurableDictionary d(env, cfg);
    ASSERT_FALSE(d.read_only());
    EXPECT_EQ(d.storage_stats().recovered_segment_entries, 3000u);
    EXPECT_EQ(d.live_segment_files(), recovered.size());
    for (std::uint64_t i = 3000; i < 4000; ++i) d.insert(i, i + 7);
    d.checkpoint();
    for (const std::string& name : recovered) {
      EXPECT_FALSE(env.exists(name)) << name;
    }
    EXPECT_EQ(segment_files(env), manifest_files(env));
    EXPECT_EQ(manifest_segments(env), memory_segments(d));
    const std::uint64_t written = d.storage_stats().segments_spilled;
    d.checkpoint();
    EXPECT_EQ(d.storage_stats().segments_spilled, written);
    for (std::uint64_t i = 4000; i < 4500; ++i) d.insert(i, i + 7);
    d.sync();
    env.schedule_crash_after(1);
    EXPECT_THROW(env.list(), CrashError);
  }
  env.apply_crash();
  DurableDictionary d(env, cfg);
  ASSERT_FALSE(d.read_only());
  EXPECT_EQ(d.last_recovered_seqno(), 4500u);
  std::uint64_t seen = 0;
  d.for_each([&](Key k, Value v) {
    ASSERT_EQ(v, k + 7);
    ++seen;
  });
  EXPECT_EQ(seen, 4500u);
  EXPECT_EQ(segment_files(env), manifest_files(env));
}

TEST(DurableDict, FailedSpillIsWrittenByTheNextCheckpoint) {
  // A spill whose write fails leaves its segment in memory without a file:
  // the spiller counts the failure and moves on, and the WAL still covers
  // the data. The next checkpoint writes every such segment.
  FaultInjectionEnv base;
  RefusingEnv env(base);
  const auto cfg = small_config();
  {
    DurableDictionary d(env, cfg);
    for (std::uint64_t i = 0; i < 1000; ++i) d.insert(i, i + 3);
    env.fail_segment_creates = true;
    for (std::uint64_t i = 1000; i < 2000; ++i) d.insert(i, i + 3);
    EXPECT_GT(d.storage_stats().spill_failures, 0u);
    env.fail_segment_creates = false;
    d.checkpoint();
    EXPECT_EQ(segment_files(env), manifest_files(env));
    EXPECT_EQ(manifest_segments(env), memory_segments(d));
  }
  DurableDictionary d(env, cfg);
  EXPECT_EQ(d.storage_stats().recovered_wal_records, 0u);
  for (std::uint64_t i = 0; i < 2000; ++i) ASSERT_EQ(d.find(i).value(), i + 3);
}

TEST(DurableDict, RejectsAClassicInnerConfig) {
  // Spills and checkpoints persist tiered segments; over classic levels the
  // first checkpoint would cover the WAL with a manifest that lists
  // nothing. The config is refused at construction, through
  // make_dictionary's default (unstaged) geometry too.
  FaultInjectionEnv env;
  DurableConfig cfg;
  cfg.inner = cola::ColaConfig{};
  EXPECT_THROW(DurableDictionary(env, cfg), std::invalid_argument);
  EXPECT_FALSE(env.exists(kManifestName));
}

TEST(DurableDict, CheckpointBytesDoNotGrowWithN) {
  // Append-only ingest of N and 4N keys, a checkpoint every 7680 ops in
  // both (a fixed checkpoint_wal_bytes at a fixed record size). The
  // geometry mirrors the default store scaled down: the staging arena
  // drains into level 3, the deepest level shallower than spill_depth 4.
  // Every checkpoint writes at most what dam::checkpoint_transfer_bound
  // charges an incremental checkpoint — the shallow levels' capacity plus
  // the arena, whatever N is — plus the segment format's framing and the
  // manifests it installs, and no segment that has a file is rewritten.
  // Folds run inline, so the bytes inside checkpoint() are its own (a
  // pending background fold would install there), and under kAlways the
  // WAL is written at append, not at the checkpoint's sync.
  const unsigned g = 8;
  const std::size_t batch_hint = 16, spill_depth = 4, every = 7680;
  const double staged = g * batch_hint;
  const double entry_bytes = 17;  // one encoded segment entry
  const double bound_bytes =
      dam::checkpoint_transfer_bound(0, entry_bytes, every, 1.0, g,
                                     static_cast<double>(spill_depth), staged,
                                     /*full_fold=*/false) *
      every;
  EXPECT_EQ(bound_bytes, (1023 + staged) * entry_bytes);
  for (const std::size_t n : {std::size_t{16384}, std::size_t{65536}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    FaultInjectionEnv env;
    auto cfg = small_config();
    cfg.inner = cola::ingest_tuned(g, batch_hint);
    cfg.fsync_policy = FsyncPolicy::kAlways;
    cfg.spill_depth = spill_depth;
    DurableDictionary d(env, cfg);
    std::vector<Entry<>> batch(8);
    std::uint64_t k = 0;
    std::size_t checkpoints = 0;
    while (k < n) {
      for (Entry<>& e : batch) {
        e = {k * 0x9e3779b97f4a7c15ULL, k};
        ++k;
      }
      d.insert_batch(batch);
      if (k % every != 0) continue;
      std::set<std::uint64_t> filed;
      d.inner().for_each_segment([&](std::size_t level, const snap::Segment<>& s) {
        if (level >= spill_depth) filed.insert(s.id);
      });
      const std::uint64_t bytes0 = env.stats().bytes_written;
      const std::uint64_t files0 = d.storage_stats().segments_spilled;
      d.checkpoint();
      ++checkpoints;
      const double bytes = static_cast<double>(env.stats().bytes_written - bytes0);
      const double files =
          static_cast<double>(d.storage_stats().segments_spilled - files0);
      const double manifest = static_cast<double>(
          env.open_read(kManifestName)->size());
      // Framing: block headers and index entries (36 B per 512-byte block
      // of 29 entries, under 1/8 of the entry bytes), magic and tail per
      // file; one manifest per spill plus the checkpoint's own.
      EXPECT_LE(bytes, bound_bytes * 9 / 8 + files * 64 + (files + 1) * manifest)
          << "checkpoint " << checkpoints;
      std::set<std::uint64_t> after;
      d.inner().for_each_segment([&](std::size_t, const snap::Segment<>& s) {
        after.insert(s.id);
      });
      for (const std::uint64_t id : filed) {
        EXPECT_EQ(after.count(id), 1u) << "segment " << id << " rewritten";
      }
    }
    EXPECT_EQ(checkpoints, n / every);
  }
}

// ------------------------------------------------- DAM bound cross-check --

TEST(DurableDict, WalBytesMatchTransferBoundShape) {
  FaultInjectionEnv env;
  auto cfg = small_config();
  cfg.fsync_policy = FsyncPolicy::kNever;
  cfg.spill_depth = 99;  // suppress segment spills: bytes_written is WAL-only
  DurableDictionary d(env, cfg);
  const std::size_t batch = 64;
  const std::size_t batches = 50;
  std::vector<Entry<>> es(batch);
  const std::uint64_t before = env.stats().bytes_written;
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < batch; ++i) {
      es[i] = {static_cast<std::uint64_t>(b * batch + i), 1};
    }
    d.insert_batch(es);
  }
  d.sync();
  const double measured_bytes =
      static_cast<double>(env.stats().bytes_written - before);
  // Predicted record size: 8 frame + 13 fixed + 17/entry.
  const double record_bytes = 8 + 13 + 17.0 * batch;
  const double predicted = record_bytes * batches;
  EXPECT_GE(measured_bytes, predicted);           // never less than the log
  EXPECT_LE(measured_bytes, predicted * 1.1);     // ~no overhead beyond framing
  // The closed-form bound (in blocks) is consistent with the measurement.
  const double bound_blocks =
      dam::wal_append_transfer_bound(record_bytes, 4096.0, 0.0);
  EXPECT_NEAR(bound_blocks * 4096.0, record_bytes, 1.0);
}

TEST(DamBounds, WalAndCheckpointBoundsBehave) {
  // More syncs per op can only raise the bound.
  EXPECT_LT(dam::wal_append_transfer_bound(100, 4096, 0.0),
            dam::wal_append_transfer_bound(100, 4096, 1.0));
  const auto ckpt = [](double n, double ops, bool full_fold) {
    return dam::checkpoint_transfer_bound(n, 17, ops, 4096, /*growth=*/8,
                                          /*spill_depth=*/6,
                                          /*staged_elems=*/8192, full_fold);
  };
  for (const bool full_fold : {false, true}) {
    // Bigger checkpoint intervals amortize better, on either branch.
    EXPECT_GT(ckpt(1e6, 1e3, full_fold), ckpt(1e6, 1e5, full_fold));
  }
  // An incremental checkpoint writes the same whatever n is; the full fold
  // (the non-append-only branch) rewrites all n.
  EXPECT_EQ(ckpt(1e6, 1e4, false), ckpt(1e9, 1e4, false));
  EXPECT_LT(ckpt(1e6, 1e4, true), ckpt(1e9, 1e4, true));
  EXPECT_LT(ckpt(1e6, 1e4, false), ckpt(1e6, 1e4, true));
  // The shallow capacity is the sum of the shallow levels' real_cap: one
  // element in level 0, 2(g-1)g^(l-1) in level l.
  for (const double g : {2.0, 4.0, 8.0, 16.0}) {
    double sum = 0;
    for (int depth = 0; depth <= 7; ++depth) {
      EXPECT_EQ(dam::cola_shallow_capacity(g, depth), sum) << g << " " << depth;
      sum += depth == 0 ? 1.0 : 2.0 * (g - 1) * std::pow(g, depth - 1);
    }
  }
  // The default durable geometry: 65535 shallow elements + an 8192-entry
  // arena per 8 MiB checkpoint interval.
  EXPECT_EQ(dam::cola_shallow_capacity(8, 6), 65535.0);
}

}  // namespace
}  // namespace costream::storage
