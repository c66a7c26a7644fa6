// Model-based mixed-op fuzz harness: seeded randomized traces of
// put / erase / put_batch / erase_batch / apply_batch / find / range /
// cursor / snapshot operations, replayed against a std::map reference
// (blind-delete semantics) across every structure and DictConfig preset —
// g in {2, 4, 8, 16} for the growth family, classic / tiered / staged for
// the COLA cascade modes, S in {1, 2, 4} for the sharded facade. The
// oracle is pure differential: every find is compared, ranges are
// compared, held-open snapshots are re-verified against frozen model
// stamps (contents, cursor probes, and epoch) across the mutation storms
// between take and verify, structural invariants run periodically, and
// the final contents are swept in full.
//
// On divergence the harness first truncates the trace to the failing
// prefix, then greedily delta-shrinks it (chunked removal with re-replay),
// and FAILs with the seed plus the minimal trace printed in replayable
// form — paste the dump into a regression test, or rerun with the seed.
//
// The seed corpus defaults to a small fixed set (deterministic CI); set
// MIXED_FUZZ_SEEDS=<count> to widen the sweep locally or in the dedicated
// CI fuzz leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/presets.hpp"
#include "brt/brt.hpp"
#include "btree/btree.hpp"
#include "cob/cob_tree.hpp"
#include "cola/cola.hpp"
#include "cola/deamortized_cola.hpp"
#include "cola/deamortized_fc_cola.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "model_helpers.hpp"
#include "shard/sharded_dictionary.hpp"
#include "shuttle/shuttle_tree.hpp"

namespace costream {
namespace {

struct FuzzOp {
  enum class Kind {
    kPut,
    kErase,
    kPutBatch,
    kEraseBatch,
    kApplyBatch,
    kIngestThenFind, // apply_batch, then IMMEDIATELY find every batch key
                     // with no drain in between — read-your-writes for the
                     // submitting thread; on sharded arms this lands while
                     // the worker is still applying, exercising the
                     // optimistic queued-run/retry read path
    kFind,
    kRange,
    kCursorSeek,   // re-seek the replay's persistent cursor at `key`
    kCursorNext,   // advance it one entry (re-seeking first if a mutation
                   // invalidated it — the snapshot-at-seek protocol)
    kSnapshotTake, // push dict.snapshot() + a frozen model copy onto the
                   // replay's rolling window of held snapshots
    kSnapshotVerify // pick a held snapshot (key % window) and verify it
                    // still reads EXACTLY its frozen stamp — for_each,
                    // a cursor seek probe, and the stamped epoch — no
                    // matter how many mutations landed since the take
  };
  Kind kind = Kind::kPut;
  Key key = 0;
  Value value = 0;
  Key hi = 0;                   // kRange
  std::vector<Entry<>> entries; // kPutBatch
  std::vector<Key> keys;        // kEraseBatch
  std::vector<Op<>> ops;        // kApplyBatch
};

std::vector<FuzzOp> make_trace(std::uint64_t seed, std::size_t count, Key universe) {
  Xoshiro256 rng(seed);
  std::vector<FuzzOp> trace;
  trace.reserve(count);
  const auto key = [&] { return static_cast<Key>(rng.below(universe)); };
  for (std::size_t i = 0; i < count; ++i) {
    FuzzOp op;
    const std::uint64_t pick = rng.below(100);
    if (pick < 20) {
      op.kind = FuzzOp::Kind::kPut;
      op.key = key();
      op.value = rng();
    } else if (pick < 30) {
      op.kind = FuzzOp::Kind::kErase;
      op.key = key();
    } else if (pick < 45) {
      op.kind = FuzzOp::Kind::kPutBatch;
      const std::size_t n = 1 + rng.below(48);
      op.entries.reserve(n);
      for (std::size_t j = 0; j < n; ++j) op.entries.push_back(Entry<>{key(), rng()});
    } else if (pick < 57) {
      op.kind = FuzzOp::Kind::kEraseBatch;
      const std::size_t n = 1 + rng.below(48);
      op.keys.reserve(n);
      for (std::size_t j = 0; j < n; ++j) op.keys.push_back(key());
    } else if (pick < 75) {
      op.kind = pick < 70 ? FuzzOp::Kind::kApplyBatch
                          : FuzzOp::Kind::kIngestThenFind;
      const std::size_t n = 1 + rng.below(48);
      op.ops.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.below(100) < 45) {
          op.ops.push_back(Op<>::del(key()));
        } else {
          op.ops.push_back(Op<>::put(key(), rng()));
        }
      }
    } else if (pick < 85) {
      op.kind = FuzzOp::Kind::kFind;
      op.key = key();
    } else if (pick < 92) {
      op.kind = FuzzOp::Kind::kRange;
      op.key = key();
      op.hi = op.key + rng.below(universe / 8 + 1);
    } else if (pick < 95) {
      op.kind = FuzzOp::Kind::kCursorSeek;
      op.key = key();
    } else if (pick < 98) {
      op.kind = FuzzOp::Kind::kCursorNext;
    } else if (pick < 99) {
      op.kind = FuzzOp::Kind::kSnapshotTake;
    } else {
      op.kind = FuzzOp::Kind::kSnapshotVerify;
      op.key = key();  // selects the held snapshot AND the cursor probe point
    }
    trace.push_back(std::move(op));
  }
  return trace;
}

std::string dump_trace(const std::vector<FuzzOp>& trace) {
  std::ostringstream os;
  std::size_t shown = 0;
  for (const FuzzOp& op : trace) {
    if (++shown > 400) {
      os << "  ... (" << trace.size() - 400 << " more ops)\n";
      break;
    }
    switch (op.kind) {
      case FuzzOp::Kind::kPut:
        os << "  put " << op.key << " " << op.value << "\n";
        break;
      case FuzzOp::Kind::kErase:
        os << "  erase " << op.key << "\n";
        break;
      case FuzzOp::Kind::kPutBatch:
        os << "  put_batch";
        for (const Entry<>& e : op.entries) os << " " << e.key << ":" << e.value;
        os << "\n";
        break;
      case FuzzOp::Kind::kEraseBatch:
        os << "  erase_batch";
        for (Key k : op.keys) os << " " << k;
        os << "\n";
        break;
      case FuzzOp::Kind::kApplyBatch:
        os << "  apply_batch";
        for (const Op<>& o : op.ops) {
          if (o.erase) {
            os << " del:" << o.key;
          } else {
            os << " put:" << o.key << ":" << o.value;
          }
        }
        os << "\n";
        break;
      case FuzzOp::Kind::kIngestThenFind:
        os << "  ingest_then_find";
        for (const Op<>& o : op.ops) {
          if (o.erase) {
            os << " del:" << o.key;
          } else {
            os << " put:" << o.key << ":" << o.value;
          }
        }
        os << "\n";
        break;
      case FuzzOp::Kind::kFind:
        os << "  find " << op.key << "\n";
        break;
      case FuzzOp::Kind::kRange:
        os << "  range " << op.key << " " << op.hi << "\n";
        break;
      case FuzzOp::Kind::kCursorSeek:
        os << "  cursor_seek " << op.key << "\n";
        break;
      case FuzzOp::Kind::kCursorNext:
        os << "  cursor_next\n";
        break;
      case FuzzOp::Kind::kSnapshotTake:
        os << "  snapshot_take\n";
        break;
      case FuzzOp::Kind::kSnapshotVerify:
        os << "  snapshot_verify " << op.key << "\n";
        break;
    }
  }
  return os.str();
}

struct Divergence {
  std::size_t op_index;  // first trace index whose effects diverge
  std::string what;
};

/// Replay `trace` against a fresh dictionary and the reference; the first
/// observable divergence (find/range mismatch or invariant violation) is
/// returned instead of asserted, so the shrinker can re-run freely.
template <class D>
std::optional<Divergence> replay(D& dict, const std::vector<FuzzOp>& trace) {
  testing::RefDict ref;
  // Persistent cursor, exercised interleaved with mutations. Contract
  // (api/dictionary.hpp): the stream is the snapshot at the last seek, and
  // any mutation invalidates the cursor until it is re-seeked — so the
  // harness tracks a dirty flag and the resume point (one past the last
  // surfaced key) and re-seeks there before stepping a dirtied cursor.
  // Rolling window of snapshots held open across the rest of the trace —
  // every mutation storm between a take and its verifies runs with these
  // handles pinning segments. Each take stamps a frozen model copy and the
  // epoch; verification checks all three survive (contract: a Snapshot is
  // immutable no matter what the source dictionary does afterwards).
  struct HeldSnapshot {
    snap::Snapshot<> snap;
    std::uint64_t stamped_epoch = 0;
    std::map<Key, Value> frozen;
  };
  std::vector<HeldSnapshot> held;
  auto cursor = dict.make_cursor();
  bool cursor_dirty = true;
  bool cursor_has_pos = false;  // a seek has happened at some point
  Key cursor_resume = 0;        // next expected key lower bound
  const auto cursor_expect = [&](std::size_t i,
                                 Key from) -> std::optional<Divergence> {
    const auto it = ref.map().lower_bound(from);
    if (it == ref.map().end()) {
      if (cursor.valid()) {
        std::ostringstream os;
        os << "cursor at key " << cursor.entry().key << ", model says drained"
           << " (from " << from << ")";
        return Divergence{i, os.str()};
      }
      cursor_resume = from;  // stays drained until re-seeked
      return std::nullopt;
    }
    if (!cursor.valid()) {
      std::ostringstream os;
      os << "cursor drained, model says " << it->first << ":" << it->second
         << " (from " << from << ")";
      return Divergence{i, os.str()};
    }
    if (cursor.entry().key != it->first || cursor.entry().value != it->second) {
      std::ostringstream os;
      os << "cursor at " << cursor.entry().key << ":" << cursor.entry().value
         << ", model says " << it->first << ":" << it->second << " (from "
         << from << ")";
      return Divergence{i, os.str()};
    }
    cursor_resume = it->first + 1;  // universe keys are far from overflow
    return std::nullopt;
  };
  const auto check = [&](std::size_t i) -> std::optional<Divergence> {
    if constexpr (requires { dict.check_invariants(); }) {
      try {
        dict.check_invariants();
      } catch (const std::logic_error& e) {
        return Divergence{i, std::string("invariant: ") + e.what()};
      }
    }
    return std::nullopt;
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const FuzzOp& op = trace[i];
    switch (op.kind) {
      case FuzzOp::Kind::kPut:
        dict.insert(op.key, op.value);
        ref.insert(op.key, op.value);
        cursor_dirty = true;
        break;
      case FuzzOp::Kind::kErase:
        dict.erase(op.key);
        ref.erase(op.key);
        cursor_dirty = true;
        break;
      case FuzzOp::Kind::kPutBatch:
        dict.insert_batch(op.entries);
        for (const Entry<>& e : op.entries) ref.insert(e.key, e.value);
        cursor_dirty = true;
        break;
      case FuzzOp::Kind::kEraseBatch:
        dict.erase_batch(op.keys);
        for (Key k : op.keys) ref.erase(k);
        cursor_dirty = true;
        break;
      case FuzzOp::Kind::kApplyBatch:
        dict.apply_batch(op.ops);
        for (const Op<>& o : op.ops) {
          if (o.erase) {
            ref.erase(o.key);
          } else {
            ref.insert(o.key, o.value);
          }
        }
        cursor_dirty = true;
        break;
      case FuzzOp::Kind::kCursorSeek: {
        cursor.seek(op.key);
        cursor_dirty = false;
        cursor_has_pos = true;
        if (auto d = cursor_expect(i, op.key)) return d;
        break;
      }
      case FuzzOp::Kind::kCursorNext: {
        if (!cursor_has_pos) {  // self-sufficient after shrinking
          cursor.seek(Key{0});
          cursor_dirty = false;
          cursor_has_pos = true;
          if (auto d = cursor_expect(i, 0)) return d;
          break;
        }
        const Key from = cursor_resume;
        if (cursor_dirty) {
          cursor.seek(from);  // snapshot-at-seek: resume on fresh state
          cursor_dirty = false;
        } else {
          cursor.next();
        }
        if (auto d = cursor_expect(i, from)) return d;
        break;
      }
      case FuzzOp::Kind::kSnapshotTake: {
        if constexpr (requires { dict.snapshot(); }) {
          held.push_back(HeldSnapshot{dict.snapshot(), 0, ref.map()});
          held.back().stamped_epoch = held.back().snap.epoch();
          if (held.size() > 3) held.erase(held.begin());
        }
        break;
      }
      case FuzzOp::Kind::kSnapshotVerify: {
        if (held.empty()) break;  // shrinker may drop the take; stay total
        const HeldSnapshot& h = held[op.key % held.size()];
        if (h.snap.epoch() != h.stamped_epoch) {
          std::ostringstream os;
          os << "held snapshot epoch " << h.snap.epoch() << ", stamped "
             << h.stamped_epoch;
          return Divergence{i, os.str()};
        }
        std::map<Key, Value> seen;
        h.snap.for_each([&](const Key& k, const Value& v) { seen[k] = v; });
        if (seen != h.frozen) {
          std::ostringstream os;
          os << "held snapshot reads " << seen.size()
             << " entries, stamped model has " << h.frozen.size()
             << " (or values diverged)";
          return Divergence{i, os.str()};
        }
        // A fresh cursor over the held snapshot must land exactly where the
        // frozen model says, even though the live structure has moved on.
        auto sc = h.snap.make_cursor();
        sc.seek(op.key);
        const auto it = h.frozen.lower_bound(op.key);
        if (it == h.frozen.end()) {
          if (sc.valid()) {
            std::ostringstream os;
            os << "held-snapshot cursor at " << sc.entry().key
               << ", stamped model says drained (from " << op.key << ")";
            return Divergence{i, os.str()};
          }
        } else if (!sc.valid() || sc.entry().key != it->first ||
                   sc.entry().value != it->second) {
          std::ostringstream os;
          os << "held-snapshot cursor ";
          if (sc.valid()) {
            os << "at " << sc.entry().key << ":" << sc.entry().value;
          } else {
            os << "drained";
          }
          os << ", stamped model says " << it->first << ":" << it->second
             << " (from " << op.key << ")";
          return Divergence{i, os.str()};
        }
        break;
      }
      case FuzzOp::Kind::kIngestThenFind: {
        dict.apply_batch(op.ops);
        for (const Op<>& o : op.ops) {
          if (o.erase) {
            ref.erase(o.key);
          } else {
            ref.insert(o.key, o.value);
          }
        }
        cursor_dirty = true;
        // Read-your-writes: the call above has been acknowledged, so every
        // batch key must read back exactly per the model — no drain, which
        // on sharded arms races the still-applying worker through the
        // queued runs.
        for (const Op<>& o : op.ops) {
          const auto got = dict.find(o.key);
          const auto want = ref.find(o.key);
          if (got != want) {
            std::ostringstream os;
            os << "ingest_then_find(" << o.key << ") = "
               << (got ? std::to_string(*got) : "nothing") << ", model says "
               << (want ? std::to_string(*want) : "nothing");
            return Divergence{i, os.str()};
          }
        }
        break;
      }
      case FuzzOp::Kind::kFind: {
        const auto got = dict.find(op.key);
        const auto want = ref.find(op.key);
        if (got != want) {
          std::ostringstream os;
          os << "find(" << op.key << ") = "
             << (got ? std::to_string(*got) : "nothing") << ", model says "
             << (want ? std::to_string(*want) : "nothing");
          return Divergence{i, os.str()};
        }
        break;
      }
      case FuzzOp::Kind::kRange: {
        const auto got = testing::collect_range(dict, op.key, op.hi);
        const auto want = ref.range(op.key, op.hi);
        if (got.size() != want.size()) {
          std::ostringstream os;
          os << "range [" << op.key << ", " << op.hi << "] returned "
             << got.size() << " entries, model says " << want.size();
          return Divergence{i, os.str()};
        }
        for (std::size_t j = 0; j < got.size(); ++j) {
          if (got[j].key != want[j].key || got[j].value != want[j].value) {
            std::ostringstream os;
            os << "range [" << op.key << ", " << op.hi << "] pos " << j << ": got "
               << got[j].key << ":" << got[j].value << ", model says "
               << want[j].key << ":" << want[j].value;
            return Divergence{i, os.str()};
          }
        }
        break;
      }
    }
    if (i % 24 == 23) {
      if (auto d = check(i)) return d;
    }
  }
  if (auto d = check(trace.empty() ? 0 : trace.size() - 1)) return d;
  // Final sweep: the full ordered contents must match the model exactly.
  const auto got =
      testing::collect_range(dict, 0, std::numeric_limits<Key>::max());
  const std::size_t last = trace.empty() ? 0 : trace.size() - 1;
  if (got.size() != ref.map().size()) {
    std::ostringstream os;
    os << "final sweep: " << got.size() << " live entries, model says "
       << ref.map().size();
    return Divergence{last, os.str()};
  }
  std::size_t j = 0;
  for (const auto& [k, v] : ref.map()) {
    if (got[j].key != k || got[j].value != v) {
      std::ostringstream os;
      os << "final sweep pos " << j << ": got " << got[j].key << ":"
         << got[j].value << ", model says " << k << ":" << v;
      return Divergence{last, os.str()};
    }
    ++j;
  }
  return std::nullopt;
}

template <class MakeDict>
std::optional<Divergence> replay_fresh(MakeDict& make, const std::vector<FuzzOp>& t) {
  auto dict = make();
  return replay(dict, t);
}

/// Greedy chunked delta-shrink of a failing trace: drop spans that do not
/// make the failure disappear, halving the span size until single ops.
template <class MakeDict>
std::vector<FuzzOp> shrink_trace(MakeDict& make, std::vector<FuzzOp> t) {
  for (std::size_t chunk = t.size() / 2; chunk >= 1; chunk /= 2) {
    for (std::size_t at = 0; at + chunk <= t.size();) {
      std::vector<FuzzOp> candidate;
      candidate.reserve(t.size() - chunk);
      candidate.insert(candidate.end(), t.begin(),
                       t.begin() + static_cast<std::ptrdiff_t>(at));
      candidate.insert(candidate.end(),
                       t.begin() + static_cast<std::ptrdiff_t>(at + chunk), t.end());
      if (replay_fresh(make, candidate)) {
        t = std::move(candidate);  // still fails without the span: keep it out
      } else {
        at += chunk;
      }
    }
    if (chunk == 1) break;
  }
  return t;
}

std::size_t seed_corpus_size() {
  const char* env = std::getenv("MIXED_FUZZ_SEEDS");
  if (env == nullptr || *env == '\0') return 2;
  const long v = std::atol(env);
  return v > 0 ? static_cast<std::size_t>(v) : 2;
}

/// Run the seed corpus for one (label, factory) configuration; on a
/// divergence, shrink and FAIL with the replayable trace.
template <class MakeDict>
void fuzz_config(const std::string& label, MakeDict make,
                 std::size_t trace_len = 1500, Key universe = 400) {
  const std::size_t seeds = seed_corpus_size();
  // Per-config seed base so configurations explore different traces.
  std::uint64_t base = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    base = (base ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  }
  for (std::size_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = (base >> 32) + s;
    const std::vector<FuzzOp> trace = make_trace(seed, trace_len, universe);
    auto fail = replay_fresh(make, trace);
    if (!fail) continue;
    std::vector<FuzzOp> prefix(trace.begin(),
                               trace.begin() + static_cast<std::ptrdiff_t>(
                                                   fail->op_index + 1));
    const std::vector<FuzzOp> minimal = shrink_trace(make, std::move(prefix));
    FAIL() << label << " diverges from the model (seed " << seed << ", op "
           << fail->op_index << "): " << fail->what << "\n"
           << "minimal replay (" << minimal.size() << " ops):\n"
           << dump_trace(minimal);
  }
}

/// A deliberately buggy dictionary (erase_batch silently drops its last
/// key) used to prove the harness is not vacuous: the oracle must flag it
/// and the shrinker must reduce the trace to a handful of ops.
class BuggyDict {
 public:
  void insert(Key k, Value v) { m_[k] = v; }
  void insert_batch(costream::Span<Entry<>> batch) {
    for (const Entry<>& e : batch) m_[e.key] = e.value;
  }
  void erase(Key k) { m_.erase(k); }
  void erase_batch(costream::Span<Key> keys) {
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) m_.erase(keys[i]);  // bug: last key kept
  }
  void apply_batch(costream::Span<Op<>> ops) {
    for (const Op<>& o : ops) {
      if (o.erase) {
        m_.erase(o.key);
      } else {
        m_[o.key] = o.value;
      }
    }
  }
  std::optional<Value> find(Key k) const {
    const auto it = m_.find(k);
    if (it == m_.end()) return std::nullopt;
    return it->second;
  }
  template <class Fn>
  void range_for_each(Key lo, Key hi, Fn&& fn) const {
    for (auto it = m_.lower_bound(lo); it != m_.end() && it->first <= hi; ++it) {
      fn(it->first, it->second);
    }
  }

  class Cursor {
   public:
    explicit Cursor(const std::map<Key, Value>* m) : m_(m) {}
    void seek(Key lo) { reposition(m_->lower_bound(lo)); }
    void seek(Key lo, Key hi) {
      reposition(m_->lower_bound(lo));
      if (valid_ && cur_.key > hi) valid_ = false;
    }
    void seek_first() { reposition(m_->begin()); }
    void next() {
      if (valid_) reposition(m_->upper_bound(cur_.key));
    }
    bool valid() const { return valid_; }
    const Entry<>& entry() const { return cur_; }

   private:
    void reposition(std::map<Key, Value>::const_iterator it) {
      valid_ = it != m_->end();
      if (valid_) cur_ = Entry<>{it->first, it->second};
    }
    const std::map<Key, Value>* m_;
    Entry<> cur_{};
    bool valid_ = false;
  };
  Cursor make_cursor() const { return Cursor(&m_); }

 private:
  std::map<Key, Value> m_;
};

TEST(MixedOpFuzz, HarnessCatchesAndShrinksPlantedBug) {
  auto make = [] { return BuggyDict{}; };
  std::optional<Divergence> fail;
  std::vector<FuzzOp> trace;
  for (std::uint64_t seed = 1; seed <= 16 && !fail; ++seed) {
    trace = make_trace(seed, 1500, 400);
    fail = replay_fresh(make, trace);
  }
  ASSERT_TRUE(fail.has_value()) << "oracle missed a dictionary that drops erases";
  std::vector<FuzzOp> prefix(
      trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(fail->op_index + 1));
  const std::vector<FuzzOp> minimal = shrink_trace(make, std::move(prefix));
  ASSERT_TRUE(replay_fresh(make, minimal).has_value())
      << "shrinker lost the failure";
  EXPECT_LE(minimal.size(), 4u)
      << "shrinker left a bloated trace:\n" << dump_trace(minimal);
}

TEST(MixedOpFuzz, ColaClassic) {
  for (const unsigned g : {2u, 4u, 8u, 16u}) {
    fuzz_config("cola-classic-g" + std::to_string(g),
                [g] { return cola::Gcola<>(cola::ColaConfig{g, 0.1}); });
  }
}

TEST(MixedOpFuzz, ColaTiered) {
  for (const unsigned g : {2u, 4u, 8u, 16u}) {
    fuzz_config("cola-tiered-g" + std::to_string(g), [g] {
      cola::ColaConfig cfg;
      cfg.growth = g;
      cfg.pointer_density = 0.0;
      cfg.tiered = true;
      return cola::Gcola<>(cfg);
    });
  }
}

TEST(MixedOpFuzz, ColaStaged) {
  for (const unsigned g : {2u, 4u, 8u, 16u}) {
    fuzz_config("cola-staged-g" + std::to_string(g),
                [g] { return cola::Gcola<>(cola::ingest_tuned(g, 24)); });
  }
}

TEST(MixedOpFuzz, ColaClassicStaged) {
  // Classic (lookahead) cascade behind an L0 arena — the fourth cascade
  // mode; flushes widen normalized tombstone-carrying runs into Slot form.
  for (const unsigned g : {2u, 4u}) {
    fuzz_config("cola-classic-staged-g" + std::to_string(g), [g] {
      cola::ColaConfig cfg;
      cfg.growth = g;
      cfg.staging_capacity = 96;
      return cola::Gcola<>(cfg);
    });
  }
}

TEST(MixedOpFuzz, ColaFilterSimdAblationCorners) {
  // The four knob corners of the data-parallel engine: fingerprint filters
  // on/off x SIMD kernels on/off. The differential oracle must be blind to
  // both — filters may only skip DEFINITELY-absent segments (a false
  // negative would surface here as a find divergence), and the vector
  // kernels are contractually bit-identical to the scalar reference the
  // simd=false arm runs. ingest_tuned already fuzzes the default corner
  // (filters on, simd on) in ColaStaged; these arms pin the other three
  // plus an explicit all-on corner on the pure-tiered (unstaged) mode.
  for (const bool filters : {false, true}) {
    for (const bool use_simd : {false, true}) {
      const std::string label = std::string("cola-staged-filters") +
                                (filters ? "1" : "0") + "-simd" +
                                (use_simd ? "1" : "0");
      fuzz_config(label, [filters, use_simd] {
        cola::ColaConfig cfg = cola::ingest_tuned(8, 24);
        cfg.filters = filters;
        cfg.simd = use_simd;
        return cola::Gcola<>(cfg);
      }, 900);
    }
  }
  fuzz_config("cola-tiered-filters1-simd1", [] {
    cola::ColaConfig cfg;
    cfg.growth = 4;
    cfg.pointer_density = 0.0;
    cfg.tiered = true;
    cfg.filters = true;
    return cola::Gcola<>(cfg);
  }, 900);
}

TEST(MixedOpFuzz, ColaBackgroundCompaction) {
  // Background-compaction arms: deep tiered folds defer to the process
  // pool and install below post-snapshot arrivals at a later mutation.
  // The differential oracle (finds, ranges, cursors, held snapshots,
  // invariants) must be blind to whether a fold ran inline or deferred.
  // The deferred-install arm suppresses opportunistic installs so folds
  // stay in flight across the longest possible mutation/read windows.
  for (const unsigned c : {1u, 2u}) {
    fuzz_config("cola-bg" + std::to_string(c), [c] {
      cola::ColaConfig cfg = cola::ingest_tuned(8, 24);
      cfg.compaction_threads = c;
      return cola::Gcola<>(cfg);
    });
    fuzz_config("cola-bg" + std::to_string(c) + "-deferred-install", [c] {
      cola::ColaConfig cfg = cola::ingest_tuned(2, 8);
      cfg.compaction_threads = c;
      cfg.unsafe_defer_install = true;
      return cola::Gcola<>(cfg);
    });
  }
  // Tight retention + background: forced tombstone folds become scheduled
  // compactions with the forced priority class.
  fuzz_config("cola-bg2-tight-threshold", [] {
    cola::ColaConfig cfg = cola::ingest_tuned(8, 24);
    cfg.compaction_threads = 2;
    cfg.tombstone_threshold = 0.05;
    return cola::Gcola<>(cfg);
  });
}

TEST(MixedOpFuzz, BackgroundCompactionPlantedBugOracleBites) {
  // Self-test for the compaction oracle: unsafe_break_install_order makes
  // a finished fold install ABOVE segments that arrived after its snapshot
  // point, so stale fold output shadows newer values — the differential
  // harness must catch that as a divergence on some seed. If every seed
  // passes, the fuzz arms above are toothless against install-ordering
  // bugs and this suite must fail.
  // g >= 3 is essential: with g = 2 a level holds at most one segment, so
  // nothing can ever stack above an in-flight fold at its target level
  // (level_committed_full blocks the arrival) and the bug has no window.
  // Nor has it under COSTREAM_COMPACTION=sync, where every fold is inline.
  if (cola::compact::sync_forced()) GTEST_SKIP() << "COSTREAM_COMPACTION=sync";
  std::optional<Divergence> fail;
  for (const unsigned g : {8u, 4u}) {
    auto make = [g] {
      cola::ColaConfig cfg = cola::ingest_tuned(g, 8);
      cfg.compaction_threads = 1;
      cfg.unsafe_defer_install = true;  // maximize arrivals above the fold
      cfg.unsafe_break_install_order = true;
      return cola::Gcola<>(cfg);
    };
    for (std::uint64_t seed = 1; seed <= 24 && !fail; ++seed) {
      fail = replay_fresh(make, make_trace(seed, 2000, 400));
    }
    if (fail) break;
  }
  ASSERT_TRUE(fail.has_value())
      << "oracle missed a broken fold install ordering";
}

TEST(MixedOpFuzz, ColaTightTombstoneThreshold) {
  // An aggressive retention bound exercises the forced bottom folds on
  // every erase-heavy stretch of the trace.
  fuzz_config("cola-staged-tight-threshold", [] {
    cola::ColaConfig cfg = cola::ingest_tuned(8, 24);
    cfg.tombstone_threshold = 0.05;
    return cola::Gcola<>(cfg);
  });
}

TEST(MixedOpFuzz, Shuttle) {
  for (const unsigned g : {2u, 4u, 8u, 16u}) {
    fuzz_config("shuttle-g" + std::to_string(g), [g] {
      shuttle::ShuttleConfig cfg;
      cfg.growth = g;
      return shuttle::ShuttleTree<>(cfg);
    });
  }
}

TEST(MixedOpFuzz, Deamortized) {
  for (const unsigned g : {2u, 4u, 8u, 16u}) {
    fuzz_config("deam-g" + std::to_string(g),
                [g] { return cola::DeamortizedCola<>(g); }, 900);
  }
}

TEST(MixedOpFuzz, DeamortizedFc) {
  for (const unsigned g : {2u, 4u, 8u, 16u}) {
    fuzz_config("fc-deam-g" + std::to_string(g),
                [g] { return cola::DeamortizedFcCola<>(g); }, 900);
  }
}

TEST(MixedOpFuzz, Baselines) {
  fuzz_config("btree", [] { return btree::BTree<>(512); });
  fuzz_config("brt", [] { return brt::Brt<>(512); });
  fuzz_config("cob", [] { return cob::CobTree<>(); }, 1000);
}

/// Splitters spreading the fuzz universe (default 400) over S shards, so
/// the sharded arms genuinely scatter, drain, and fuse across shards
/// instead of degenerating into shard 0.
std::vector<Key> fuzz_splitters(std::size_t shards, Key universe = 400) {
  std::vector<Key> sp;
  for (std::size_t i = 1; i < shards; ++i) sp.push_back(universe * i / shards);
  return sp;
}

TEST(MixedOpFuzz, ShardedColaCascadeModes) {
  // The concrete hot path: Gcola inners across the cascade modes, behind
  // real worker threads and run queues. Interleaved finds (barrier-free,
  // served from the queued runs + published views while the worker
  // races ahead), ingest_then_find read-your-writes probes, ranges, and
  // cursor ops; S = 1 is the single-worker degenerate case.
  for (const std::size_t s : {1u, 2u, 4u}) {
    for (const unsigned g : {2u, 8u}) {
      fuzz_config("sharded-s" + std::to_string(s) + "-staged-g" + std::to_string(g),
                  [s, g] {
                    shard::ShardedConfig<> sc;
                    sc.shards = s;
                    sc.splitters = fuzz_splitters(s);
                    return shard::ShardedDictionary<cola::Gcola<>>(
                        sc, [g](std::size_t) {
                          return cola::Gcola<>(cola::ingest_tuned(g, 24));
                        });
                  },
                  900);
    }
    fuzz_config("sharded-s" + std::to_string(s) + "-classic",
                [s] {
                  shard::ShardedConfig<> sc;
                  sc.shards = s;
                  sc.splitters = fuzz_splitters(s);
                  return shard::ShardedDictionary<cola::Gcola<>>(
                      sc, [](std::size_t) {
                        return cola::Gcola<>(cola::ColaConfig{2, 0.1});
                      });
                },
                900);
  }
}

TEST(MixedOpFuzz, ShardedBackgroundCompaction) {
  // compaction_threads in {1, 2} x S in {1, 2, 4}: shard worker threads
  // submit folds to the ONE shared pool while the facade's barrier-free
  // reads and held snapshots race the installs.
  for (const std::size_t s : {1u, 2u, 4u}) {
    for (const unsigned c : {1u, 2u}) {
      fuzz_config("sharded-s" + std::to_string(s) + "-bg" + std::to_string(c),
                  [s, c] {
                    shard::ShardedConfig<> sc;
                    sc.shards = s;
                    sc.splitters = fuzz_splitters(s);
                    return shard::ShardedDictionary<cola::Gcola<>>(
                        sc, [c](std::size_t) {
                          cola::ColaConfig cfg = cola::ingest_tuned(8, 24);
                          cfg.compaction_threads = c;
                          return cola::Gcola<>(cfg);
                        });
                  },
                  900);
    }
  }
}

TEST(MixedOpFuzz, ShardedEveryInnerPreset) {
  // Every structure kind as the shard inner (type-erased), S in {2, 4} —
  // the facade's semantics must be kind-independent.
  for (const char* kind :
       {"cola", "shuttle", "deam", "fc-deam", "btree", "brt", "cob"}) {
    for (const std::size_t s : {2u, 4u}) {
      fuzz_config(
          std::string("sharded-any-") + kind + "-s" + std::to_string(s),
          [kind, s] {
            shard::ShardedConfig<> sc;
            sc.shards = s;
            sc.splitters = fuzz_splitters(s);
            return shard::ShardedDictionary<api::AnyDictionary>(
                sc, [kind](std::size_t) {
                  return api::make_dictionary(kind,
                                              api::DictConfig::ingest_tuned(8, 24));
                });
          },
          500);
    }
  }
}

TEST(MixedOpFuzz, ShardedSnapshotHoldersAcrossShardCounts) {
  // The acceptance sweep for snapshot isolation behind the facade: S in
  // {1, 2, 4} (1 = the single-worker degenerate case), staged Gcola
  // inners whose folds keep retiring the very segments the held snapshots
  // pin. Longer traces bias toward more take/verify pairs per run; the
  // drain barrier inside snapshot() races real worker threads here.
  for (const std::size_t s : {1u, 2u, 4u}) {
    fuzz_config("sharded-snap-s" + std::to_string(s),
                [s] {
                  shard::ShardedConfig<> sc;
                  sc.shards = s;
                  sc.splitters = fuzz_splitters(s);
                  return shard::ShardedDictionary<cola::Gcola<>>(
                      sc, [](std::size_t) {
                        return cola::Gcola<>(cola::ingest_tuned(2, 24));
                      });
                },
                1200);
  }
}

TEST(MixedOpFuzz, ShardedLearnedSplittersViaPresets) {
  // The make_dictionary(cfg.shards > 1) path: splitters learn from the
  // first batch (or fall back to key-prefix defaults when the trace opens
  // with a single op) — both must be invisible to the differential oracle.
  for (const unsigned g : {2u, 8u}) {
    fuzz_config("sharded-presets-cola-g" + std::to_string(g),
                [g] {
                  return api::make_dictionary(
                      "cola", api::DictConfig::concurrent(g, 4, 24));
                },
                600);
  }
}

TEST(MixedOpFuzz, AnyDictionaryPresets) {
  // The type-erased facade forwards erase_batch/apply_batch faithfully for
  // every kind x ingest-tuned preset (DictConfig threading included).
  for (const char* kind : {"cola", "shuttle", "deam", "fc-deam", "btree", "brt", "cob"}) {
    for (const unsigned g : {2u, 8u}) {
      fuzz_config(
          std::string("any-") + kind + "-g" + std::to_string(g),
          [kind, g] {
            return api::make_dictionary(kind, api::DictConfig::ingest_tuned(g, 24));
          },
          600);
    }
  }
}

}  // namespace
}  // namespace costream
