// Crash-recovery fuzz: randomized mutation traces against a
// DurableDictionary over the FaultInjectionEnv, with scheduled power cuts
// (including cuts DURING recovery), torn/bit-flipped unsynced tails,
// transient EIO, and — in the lying arm — fsyncs that report success
// without persisting.
//
// The oracle after every crash + reopen:
//   * r = last_recovered_seqno() never exceeds the ops actually attempted;
//   * on truthful-fsync arms, r >= the durability watermark the harness
//     observed (durable_seqno() after each completed call) — nothing the
//     store called durable is ever lost;
//   * the recovered contents EXACTLY equal a model std::map replaying the
//     op trace prefix [1, r] — no phantom future data, no regressions;
//   * truthful-fsync arms never degrade to read-only; the lying arm may
//     (detected corruption), which ends that lifecycle cleanly.
//
// Ops are recorded by the seqno the store assigned them (read back through
// seqno() deltas), so calls that fail with injected EIO mid-append are
// classified exactly. A call interrupted by the power cut (or wedged on a
// poisoned WAL epoch) is MAYBE-applied — its framed record may or may not
// survive the torn tail — so its ops are recorded provisionally and the
// post-recovery resync (truncating the record to last_recovered_seqno)
// settles which branch reality took. Every run is deterministic from its
// seed; failures
// delta-shrink the call trace (chunked removal with full re-run) before
// printing. A planted-failure self-test runs the truthful oracle over a
// secretly lying env and requires the harness to flag it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/entry.hpp"
#include "common/rng.hpp"
#include "storage/durable_dict.hpp"
#include "storage/fault_env.hpp"

namespace costream::storage {
namespace {

struct CrashCall {
  enum class Kind { kMutate, kSync, kCheckpoint, kFlushStage };
  Kind kind = Kind::kMutate;
  std::vector<Op<>> ops;  // kMutate payload (normalized puts/deletes)
};

std::vector<CrashCall> make_crash_trace(std::uint64_t seed, std::size_t calls,
                                        Key universe) {
  Xoshiro256 rng(seed);
  std::vector<CrashCall> trace;
  trace.reserve(calls);
  const auto key = [&] { return static_cast<Key>(rng.below(universe)); };
  for (std::size_t i = 0; i < calls; ++i) {
    CrashCall c;
    const std::uint64_t pick = rng.below(100);
    if (pick < 90) {
      c.kind = CrashCall::Kind::kMutate;
      const std::size_t n = pick < 40 ? 1 : 1 + rng.below(32);
      c.ops.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.below(100) < 30) {
          c.ops.push_back(Op<>::del(key()));
        } else {
          c.ops.push_back(Op<>::put(key(), 1 + rng.below(1u << 20)));
        }
      }
    } else if (pick < 95) {
      c.kind = CrashCall::Kind::kSync;
    } else if (pick < 97) {
      c.kind = CrashCall::Kind::kCheckpoint;
    } else {
      c.kind = CrashCall::Kind::kFlushStage;
    }
    trace.push_back(std::move(c));
  }
  return trace;
}

/// Append-only puts of fresh keys, then a mixed phase (updates and 30%
/// erases of keys already written), then append-only again, with the same
/// sync / checkpoint / flush_stage mix as make_crash_trace. The first and
/// last thirds keep the feed append-only, so their checkpoints take the
/// incremental branch and crash points land inside it; the mixed third
/// drives the full-fold branch, and the last third starts from its
/// stripped output.
std::vector<CrashCall> make_phased_trace(std::uint64_t seed, std::size_t calls) {
  Xoshiro256 rng(seed);
  std::vector<CrashCall> trace;
  trace.reserve(calls);
  Key fresh = 0;
  for (std::size_t i = 0; i < calls; ++i) {
    const bool mixed = i >= calls / 3 && i < 2 * calls / 3;
    CrashCall c;
    const std::uint64_t pick = rng.below(100);
    if (pick < 90) {
      c.kind = CrashCall::Kind::kMutate;
      const std::size_t n = pick < 40 ? 1 : 1 + rng.below(32);
      c.ops.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        // Fresh keys arrive in scrambled order, so folds interleave them.
        const Key old = static_cast<Key>(rng.below(fresh + 1));
        if (!mixed) {
          c.ops.push_back(Op<>::put(fresh++ * 0x9e3779b97f4a7c15ULL,
                                    1 + rng.below(1u << 20)));
        } else if (rng.below(100) < 30) {
          c.ops.push_back(Op<>::del(old * 0x9e3779b97f4a7c15ULL));
        } else {
          c.ops.push_back(Op<>::put(old * 0x9e3779b97f4a7c15ULL,
                                    1 + rng.below(1u << 20)));
        }
      }
    } else if (pick < 95) {
      c.kind = CrashCall::Kind::kSync;
    } else if (pick < 97) {
      c.kind = CrashCall::Kind::kCheckpoint;
    } else {
      c.kind = CrashCall::Kind::kFlushStage;
    }
    trace.push_back(std::move(c));
  }
  return trace;
}

std::string dump_trace(const std::vector<CrashCall>& trace) {
  std::ostringstream os;
  std::size_t shown = 0;
  for (const CrashCall& c : trace) {
    if (++shown > 200) {
      os << "  ... (" << trace.size() - 200 << " more calls)\n";
      break;
    }
    switch (c.kind) {
      case CrashCall::Kind::kMutate:
        os << "  mutate";
        for (const Op<>& o : c.ops) {
          if (o.erase) {
            os << " del:" << o.key;
          } else {
            os << " put:" << o.key << ":" << o.value;
          }
        }
        os << "\n";
        break;
      case CrashCall::Kind::kSync:
        os << "  sync\n";
        break;
      case CrashCall::Kind::kCheckpoint:
        os << "  checkpoint\n";
        break;
      case CrashCall::Kind::kFlushStage:
        os << "  flush_stage\n";
        break;
    }
  }
  return os.str();
}

struct ArmConfig {
  FsyncPolicy policy = FsyncPolicy::kBatch;
  bool env_lies = false;         // the device's fsyncs lie
  bool oracle_truthful = true;   // the oracle asserts r >= durable watermark
  const char* name = "batch";
  unsigned compaction_threads = 0;  // > 0: deep folds on the background pool
  // make_phased_trace instead of make_crash_trace, run at spill_depth 2
  // with a small arena and frequent automatic checkpoints, so that the
  // checkpoint's cascade spans levels below and past the spill depth.
  bool phased = false;
};

DurableConfig fuzz_dict_config(const ArmConfig& arm) {
  DurableConfig cfg;
  cfg.inner = cola::ingest_tuned(4, arm.phased ? 8 : 64);
  cfg.inner.compaction_threads = arm.compaction_threads;
  cfg.fsync_policy = arm.policy;
  cfg.group_commit_bytes = 4u << 10;
  cfg.wal_segment_bytes = 32u << 10;
  cfg.checkpoint_wal_bytes = arm.phased ? 16u << 10 : 64u << 10;
  cfg.spill_depth = arm.phased ? 2 : 1;
  cfg.segment_block_bytes = 512;
  return cfg;
}

/// One full lifecycle for (arm, seed, trace): run calls, crash on the
/// env's schedule, reopen (sometimes crashing recovery too), verify, and
/// resume until the trace is consumed — then one final forced crash +
/// verify. Returns a failure description, or nullopt; `cycles` counts
/// successful injected-crash reopen verifications.
std::optional<std::string> run_crash_sessions(const ArmConfig& arm,
                                              std::uint64_t seed,
                                              const std::vector<CrashCall>& trace,
                                              std::size_t& cycles) {
  FaultConfig fc;
  fc.seed = seed * 2654435761u + 7;
  fc.lie_on_sync = arm.env_lies;
  fc.eio_per_mille = 2;
  fc.short_read_per_mille = 5;
  FaultInjectionEnv env(fc);
  Xoshiro256 hrng(seed ^ 0x9e3779b97f4a7c15ULL);
  const DurableConfig cfg = fuzz_dict_config(arm);

  std::vector<Op<>> by_seqno;  // by_seqno[s - 1] = the op seqno s applied
  std::uint64_t watermark = 0;  // highest durable_seqno() observed
  std::optional<DurableDictionary> d;
  d.emplace(env, cfg);

  const auto verify_after_reopen = [&]() -> std::optional<std::string> {
    const std::uint64_t r = d->last_recovered_seqno();
    if (r > by_seqno.size()) {
      return "recovered seqno " + std::to_string(r) + " beyond the " +
             std::to_string(by_seqno.size()) + " ops attempted";
    }
    if (arm.oracle_truthful && r < watermark) {
      return "lost durable data: recovered to " + std::to_string(r) +
             " but durable watermark was " + std::to_string(watermark);
    }
    std::map<Key, Value> model;
    for (std::uint64_t s = 0; s < r; ++s) {
      const Op<>& o = by_seqno[static_cast<std::size_t>(s)];
      if (o.erase) {
        model.erase(o.key);
      } else {
        model[o.key] = o.value;
      }
    }
    std::vector<Entry<>> got;
    d->for_each([&](Key k, Value v) { got.push_back({k, v}); });
    if (got.size() != model.size()) {
      return "recovered " + std::to_string(got.size()) +
             " entries, model prefix at " + std::to_string(r) + " has " +
             std::to_string(model.size());
    }
    std::size_t j = 0;
    for (const auto& [k, v] : model) {
      if (got[j].key != k || got[j].value != v) {
        return "recovered entry " + std::to_string(got[j].key) + ":" +
               std::to_string(got[j].value) + " at pos " + std::to_string(j) +
               ", model prefix at " + std::to_string(r) + " says " +
               std::to_string(k) + ":" + std::to_string(v);
      }
      ++j;
    }
    try {
      d->check_invariants();
    } catch (const std::logic_error& e) {
      return std::string("invariant violation after recovery: ") + e.what();
    }
    watermark = r;  // replayed WAL files survive the next crash too
    // Ops past r did not survive (lost tail or a maybe-applied record that
    // never reached the device); the store reassigns their seqnos to the
    // next calls, so the trace must forget them too.
    by_seqno.resize(static_cast<std::size_t>(r));
    return std::nullopt;
  };

  // Reopen after env.apply_crash(), occasionally power-cutting recovery
  // itself; returns false when the lying arm degraded to read-only (a
  // legal terminal state — the lifecycle ends there).
  const auto reopen = [&]() -> std::optional<std::string> {
    d.reset();
    env.apply_crash();
    for (int attempt = 0;; ++attempt) {
      if (attempt < 3 && hrng.below(100) < 25) {
        env.schedule_crash_after(5 + hrng.below(300));
      }
      try {
        d.emplace(env, cfg);
        env.schedule_crash_after(0);  // disarm any unspent recovery cut
        return std::nullopt;
      } catch (const CrashError&) {
        env.apply_crash();
      } catch (const TransientIOError&) {
        env.schedule_crash_after(0);
      }
    }
  };

  std::size_t i = 0;
  bool final_forced_crash_done = false;
  while (true) {
    env.schedule_crash_after(30 + hrng.below(500));
    bool crashed = false;
    while (i < trace.size()) {
      const CrashCall& c = trace[i];
      const std::uint64_t seq_before = d->seqno();
      try {
        switch (c.kind) {
          case CrashCall::Kind::kMutate:
            d->apply_batch(c.ops);
            break;
          case CrashCall::Kind::kSync:
            d->sync();
            break;
          case CrashCall::Kind::kCheckpoint:
            d->checkpoint();
            break;
          case CrashCall::Kind::kFlushStage:
            d->flush_stage();
            break;
        }
      } catch (const CrashError&) {
        crashed = true;
      } catch (const IOError&) {
        // Transient EIO (or a checkpoint that failed on one): the call
        // may or may not have assigned seqnos — the delta below decides.
      }
      const std::uint64_t seq_after = d->seqno();  // pure memory read
      if (seq_after != seq_before) {
        if (c.kind != CrashCall::Kind::kMutate ||
            seq_after != seq_before + c.ops.size()) {
          return "seqno advanced " + std::to_string(seq_after - seq_before) +
               " for a call of " + std::to_string(c.ops.size()) + " ops";
        }
        for (const Op<>& o : c.ops) by_seqno.push_back(o);
      }
      if (crashed || env.crashed()) {
        // A mutate cut down mid-append is MAYBE-applied: the store never
        // acknowledged it (no seqno delta), but its framed record may sit
        // in the torn tail and replay intact at exactly the next seqnos.
        // Record it provisionally; verify's resize-to-r settles its fate.
        if (c.kind == CrashCall::Kind::kMutate && seq_after == seq_before) {
          for (const Op<>& o : c.ops) by_seqno.push_back(o);
        }
        crashed = true;
        break;
      }
      if (d->wal_poisoned()) {
        // A failed append could not be unwound from the device: exactly
        // this call's record may survive to replay even though the call
        // failed. The epoch is wedged (every write throws), so treat the
        // ops as maybe-applied and end the lifecycle with a power cut.
        if (c.kind == CrashCall::Kind::kMutate && seq_after == seq_before) {
          for (const Op<>& o : c.ops) by_seqno.push_back(o);
        }
        env.schedule_crash_after(1);
        try {
          (void)env.list();
        } catch (const CrashError&) {
        }
        crashed = true;
        break;
      }
      if (arm.oracle_truthful) {
        watermark = std::max(watermark, d->durable_seqno());
      }
      ++i;
    }
    if (!crashed) {
      if (final_forced_crash_done) break;
      // Trace exhausted without a pending cut: force one last power cut so
      // every (arm, seed) pays at least one full crash/recover cycle.
      env.schedule_crash_after(1);
      try {
        (void)env.list();
      } catch (const CrashError&) {
      }
      final_forced_crash_done = true;
    }
    if (auto fail = reopen()) return fail;
    if (d->read_only()) {
      if (!arm.env_lies) {
        return "read-only degradation without a lying fsync: " +
               d->corruption_detail();
      }
      ++cycles;  // detected corruption under lies: a legal terminal state
      return std::nullopt;
    }
    if (auto fail = verify_after_reopen()) return fail;
    ++cycles;
    if (final_forced_crash_done) break;
  }
  return std::nullopt;
}

std::size_t seed_corpus_size() {
  const char* env = std::getenv("CRASH_FUZZ_SEEDS");
  if (env == nullptr || *env == '\0') return 3;
  const long v = std::atol(env);
  return v > 0 ? static_cast<std::size_t>(v) : 3;
}

/// Chunked delta-shrink: re-runs the whole deterministic lifecycle per
/// candidate, keeping any smaller trace that still fails the oracle.
std::vector<CrashCall> shrink_crash_trace(const ArmConfig& arm,
                                          std::uint64_t seed,
                                          std::vector<CrashCall> t) {
  const auto fails = [&](const std::vector<CrashCall>& cand) {
    std::size_t cycles = 0;
    return run_crash_sessions(arm, seed, cand, cycles).has_value();
  };
  for (std::size_t chunk = t.size() / 2; chunk >= 1; chunk /= 2) {
    for (std::size_t at = 0; at + chunk <= t.size();) {
      std::vector<CrashCall> candidate;
      candidate.reserve(t.size() - chunk);
      candidate.insert(candidate.end(), t.begin(),
                       t.begin() + static_cast<std::ptrdiff_t>(at));
      candidate.insert(candidate.end(),
                       t.begin() + static_cast<std::ptrdiff_t>(at + chunk),
                       t.end());
      if (fails(candidate)) {
        t = std::move(candidate);
      } else {
        at += chunk;
      }
    }
    if (chunk == 1) break;
  }
  return t;
}

void run_arm(const ArmConfig& arm) {
  const std::size_t seeds = seed_corpus_size();
  std::size_t cycles = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    // A few lifecycles per seed: fresh traces keep crash points diverse.
    for (std::uint64_t round = 0; round < 6; ++round) {
      const std::uint64_t seed = s * 131 + round * 7919 + 1;
      const std::vector<CrashCall> trace =
          arm.phased ? make_phased_trace(seed, 600) : make_crash_trace(seed, 500, 256);
      auto fail = run_crash_sessions(arm, seed, trace, cycles);
      if (!fail) continue;
      const std::vector<CrashCall> minimal =
          shrink_crash_trace(arm, seed, trace);
      FAIL() << arm.name << " arm failed (seed " << seed << "): " << *fail
             << "\nminimal replay (" << minimal.size() << " calls):\n"
             << dump_trace(minimal);
    }
  }
  std::cout << "[crash-fuzz] arm=" << arm.name << " seeds=" << seeds
            << " injected-crash reopen cycles=" << cycles << "\n";
  EXPECT_GE(cycles, seeds);  // at least the forced final cut per lifecycle
}

TEST(CrashRecoveryFuzz, GroupCommitTruthfulFsync) {
  run_arm({FsyncPolicy::kBatch, /*env_lies=*/false, /*oracle_truthful=*/true,
           "batch"});
}

TEST(CrashRecoveryFuzz, PerRecordTruthfulFsync) {
  run_arm({FsyncPolicy::kAlways, /*env_lies=*/false, /*oracle_truthful=*/true,
           "always"});
}

TEST(CrashRecoveryFuzz, NoFsync) {
  run_arm({FsyncPolicy::kNever, /*env_lies=*/false, /*oracle_truthful=*/true,
           "never"});
}

// Background compaction: deep folds run on the pool and install (and spill)
// on the mutating thread, so the WAL-synced-before-install invariant must
// hold with crash points landing while a fold is in flight. Install timing
// depends on the pool, so a failure's shrunk replay may not reproduce it
// exactly.
TEST(CrashRecoveryFuzz, GroupCommitBackgroundCompaction) {
  run_arm({FsyncPolicy::kBatch, /*env_lies=*/false, /*oracle_truthful=*/true,
           "batch-bg1", /*compaction_threads=*/1});
}

// Incremental checkpoints: append-only phases take the incremental branch
// (cascade the shallow levels, write what has no file, reference the
// rest), the mixed phase the full fold, with crash points everywhere in
// both — inline, and with deep folds pending on the pool when a
// checkpoint drains them.
TEST(CrashRecoveryFuzz, PhasedIncrementalCheckpoints) {
  run_arm({FsyncPolicy::kBatch, /*env_lies=*/false, /*oracle_truthful=*/true,
           "phased", /*compaction_threads=*/0, /*phased=*/true});
}

TEST(CrashRecoveryFuzz, PhasedIncrementalCheckpointsBackgroundCompaction) {
  run_arm({FsyncPolicy::kBatch, /*env_lies=*/false, /*oracle_truthful=*/true,
           "phased-bg1", /*compaction_threads=*/1, /*phased=*/true});
}

TEST(CrashRecoveryFuzz, GroupCommitLyingFsync) {
  run_arm({FsyncPolicy::kBatch, /*env_lies=*/true, /*oracle_truthful=*/false,
           "batch-lying"});
}

// Oracle self-test: a secretly lying device run under the TRUTHFUL oracle
// must be flagged — either as lost durable data (the store reported
// durable seqnos the device never persisted) or as an unexplained
// read-only degradation. Proves the watermark and degradation checks are
// not vacuous.
TEST(CrashRecoveryFuzz, HarnessFlagsLyingDeviceUnderTruthfulOracle) {
  const ArmConfig dishonest{FsyncPolicy::kAlways, /*env_lies=*/true,
                            /*oracle_truthful=*/true, "self-test"};
  bool flagged = false;
  for (std::uint64_t seed = 1; seed <= 8 && !flagged; ++seed) {
    const auto trace = make_crash_trace(seed, 400, 256);
    std::size_t cycles = 0;
    flagged = run_crash_sessions(dishonest, seed, trace, cycles).has_value();
  }
  EXPECT_TRUE(flagged) << "truthful oracle failed to flag a lying device";
}

}  // namespace
}  // namespace costream::storage
