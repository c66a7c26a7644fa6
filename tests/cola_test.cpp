// COLA tests — the paper's core structure. Covers the Section 3 invariants
// (levels full/empty per the binary representation of N for g = 2, sorted
// levels, lookahead-pointer chains), the Section 4 implementation details
// (growth factor, pointer density, right-justified levels, the prepend merge
// optimization), and differential testing across (g, p) configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "cola/cola.hpp"
#include "cola/lookahead_array.hpp"
#include "common/rng.hpp"
#include "common/workload.hpp"
#include "dam/dam_mem_model.hpp"
#include "model_helpers.hpp"

namespace costream::cola {
namespace {

TEST(Cola, RejectsBadConfig) {
  EXPECT_THROW(Gcola<>(ColaConfig{1, 0.1}), std::invalid_argument);
  EXPECT_THROW(Gcola<>(ColaConfig{2, 0.9}), std::invalid_argument);
  EXPECT_THROW(Gcola<>(ColaConfig{2, -0.1}), std::invalid_argument);
}

TEST(Cola, EmptyFind) {
  Gcola<> c;
  EXPECT_FALSE(c.find(1).has_value());
  c.check_invariants();
}

TEST(Cola, SingleInsert) {
  Gcola<> c;
  c.insert(42, 7);
  EXPECT_EQ(c.find(42).value(), 7u);
  EXPECT_FALSE(c.find(41).has_value());
  c.check_invariants();
}

TEST(Cola, UpsertNewestWins) {
  Gcola<> c;
  for (std::uint64_t i = 0; i < 1'000; ++i) c.insert(5, i);
  EXPECT_EQ(c.find(5).value(), 999u);
  c.check_invariants();
}

// Section 3 invariant 1: with g = 2 and unique keys, the kth array contains
// items iff the kth least significant bit of N is 1.
TEST(Cola, BinaryRepresentationInvariant) {
  auto c = make_basic_cola<>(2);
  for (std::uint64_t n = 1; n <= 512; ++n) {
    c.insert(n * 1000, n);  // unique ascending keys: no dedup interference
    for (std::size_t l = 0; l < c.level_count(); ++l) {
      const std::uint64_t expect = (n >> l) & 1 ? (l == 0 ? 1 : 1ULL << l) : 0;
      ASSERT_EQ(c.level_real_count(l), expect) << "n=" << n << " level=" << l;
    }
  }
  c.check_invariants();
}

// Level capacities follow the paper's sizing: 1, then 2(g-1)g^(l-1).
TEST(Cola, LevelSizingForGrowthFactors) {
  for (unsigned g : {2u, 3u, 4u, 8u}) {
    Gcola<> c(ColaConfig{g, 0.0});
    const std::uint64_t n = 5'000;
    for (std::uint64_t i = 0; i < n; ++i) c.insert(i, i);
    c.check_invariants();
    EXPECT_EQ(c.item_count(), n) << "g=" << g;
    // Total capacity across levels must fit N with the documented sizes.
    std::uint64_t cap = 1;
    std::uint64_t level_size = 2 * (g - 1);
    for (std::size_t l = 1; l < c.level_count(); ++l) {
      cap += level_size;
      level_size *= g;
    }
    EXPECT_GE(cap, n) << "g=" << g;
  }
}

// Classic levels preallocate their slot arrays, so space depends on the
// level count alone: 6 and 7 keys (binary 110 and 111) both occupy levels
// 0..2 and must report the same bytes.
TEST(Cola, ClassicBytesCountPreallocatedSlotsOnly) {
  Gcola<> six(ColaConfig{2, 0.1});
  Gcola<> seven(ColaConfig{2, 0.1});
  for (Key k = 0; k < 6; ++k) six.insert(k, k);
  for (Key k = 0; k < 7; ++k) seven.insert(k, k);
  ASSERT_EQ(six.level_count(), seven.level_count());
  EXPECT_EQ(six.bytes(), seven.bytes());
}

struct ColaParam {
  unsigned growth;
  double density;
  KeyOrder order;
};

class ColaConfigs : public ::testing::TestWithParam<ColaParam> {};

TEST_P(ColaConfigs, BulkInsertFindAll) {
  const auto [g, p, order] = GetParam();
  Gcola<> c(ColaConfig{g, p});
  const KeyStream ks(order, 30'000, 77);
  std::map<Key, Value> ref;
  for (std::uint64_t i = 0; i < ks.size(); ++i) {
    const Key k = ks.key_at(i);
    c.insert(k, i);
    ref[k] = i;
  }
  c.check_invariants();
  for (const auto& [k, v] : ref) ASSERT_EQ(c.find(k).value(), v) << k;
  // Negative lookups.
  Xoshiro256 rng(5);
  for (int q = 0; q < 1'000; ++q) {
    const Key k = rng() | (1ULL << 63);
    if (!ref.count(k)) {
      ASSERT_FALSE(c.find(k).has_value());
    }
  }
}

std::string cola_param_name(const ::testing::TestParamInfo<ColaParam>& info) {
  std::string name = "g" + std::to_string(info.param.growth) + "_p" +
                     std::to_string(static_cast<int>(info.param.density * 100)) + "_" +
                     to_string(info.param.order);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ColaConfigs,
    ::testing::Values(ColaParam{2, 0.0, KeyOrder::kRandom},
                      ColaParam{2, 0.1, KeyOrder::kRandom},
                      ColaParam{2, 0.1, KeyOrder::kAscending},
                      ColaParam{2, 0.1, KeyOrder::kDescending},
                      ColaParam{2, 0.25, KeyOrder::kRandom},
                      ColaParam{4, 0.1, KeyOrder::kRandom},
                      ColaParam{4, 0.1, KeyOrder::kDescending},
                      ColaParam{4, 0.0, KeyOrder::kClustered},
                      ColaParam{8, 0.1, KeyOrder::kRandom},
                      ColaParam{8, 0.1, KeyOrder::kAscending},
                      ColaParam{16, 0.1, KeyOrder::kZipfHot}),
    cola_param_name);

class ColaModel : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(ColaModel, MixedTraceMatchesReference) {
  const auto [g, seed] = GetParam();
  Gcola<> c(ColaConfig{g, 0.1});
  const auto ops = generate_ops(6'000, 1'500, OpMix{}, seed);
  testing::run_model_trace(c, ops, [&] { c.check_invariants(); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColaModel,
                         ::testing::Combine(::testing::Values(2u, 4u, 8u),
                                            ::testing::Values(21u, 22u, 23u)));

TEST(Cola, TombstoneSemantics) {
  Gcola<> c;
  for (std::uint64_t i = 0; i < 1'000; ++i) c.insert(i, i);
  c.erase(500);
  EXPECT_FALSE(c.find(500).has_value());
  c.insert(500, 7);
  EXPECT_EQ(c.find(500).value(), 7u);
  c.erase(500);
  c.erase(500);  // double delete is fine
  EXPECT_FALSE(c.find(500).has_value());
  // Blind delete of an absent key.
  c.erase(1ULL << 40);
  EXPECT_FALSE(c.find(1ULL << 40).has_value());
  c.check_invariants();
}

TEST(Cola, TombstonesEventuallyAnnihilate) {
  Gcola<> c;
  const std::uint64_t n = 4'096;
  for (std::uint64_t i = 0; i < n; ++i) c.insert(i, i);
  for (std::uint64_t i = 0; i < n; ++i) c.erase(i);
  // Force merges into the deepest level so annihilation can happen.
  for (std::uint64_t i = 0; i < 4 * n; ++i) c.insert(n + i, i);
  EXPECT_GT(c.stats().tombstones_dropped, 0u);
  for (std::uint64_t i = 0; i < n; i += 97) EXPECT_FALSE(c.find(i).has_value());
  c.check_invariants();
}

TEST(Cola, RangeQueryMatchesReference) {
  Gcola<> c;
  testing::RefDict ref;
  const KeyStream ks(KeyOrder::kRandom, 20'000, 3);
  for (std::uint64_t i = 0; i < ks.size(); ++i) {
    const Key k = ks.key_at(i) % 100'000;  // dense keyspace for range hits
    c.insert(k, i);
    ref.insert(k, i);
  }
  Xoshiro256 rng(9);
  for (int q = 0; q < 200; ++q) {
    const Key lo = rng.below(100'000);
    const Key hi = lo + rng.below(5'000);
    const auto got = testing::collect_range(c, lo, hi);
    const auto want = ref.range(lo, hi);
    ASSERT_EQ(got.size(), want.size()) << "query " << q;
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].key, want[j].key);
      ASSERT_EQ(got[j].value, want[j].value);
    }
  }
}

TEST(Cola, RangeSkipsTombstonesAndPrefersNewest) {
  Gcola<> c;
  for (std::uint64_t i = 0; i < 100; ++i) c.insert(i, 1);
  for (std::uint64_t i = 0; i < 100; i += 2) c.insert(i, 2);  // overwrite evens
  for (std::uint64_t i = 0; i < 100; i += 5) c.erase(i);       // kill multiples of 5
  std::map<Key, Value> got;
  c.range_for_each(0, 99, [&](Key k, Value v) {
    ASSERT_FALSE(got.count(k)) << "duplicate key emitted";
    got[k] = v;
  });
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i % 5 == 0) {
      EXPECT_EQ(got.count(i), 0u) << i;
    } else {
      ASSERT_EQ(got.at(i), i % 2 == 0 ? 2u : 1u) << i;
    }
  }
}

TEST(Cola, DescendingInsertsUseThePrependPath) {
  // Figure 5's mechanism: with descending keys, everything merged into a
  // level sorts before its contents, so the target never moves. The paper
  // measured this on the 4-COLA, where targets are routinely non-empty
  // (a level absorbs g-1 = 3 merges before it is full); with g = 2 a merge
  // target holds no real entries, so the effect needs g > 2.
  Gcola<> c(ColaConfig{4, 0.1});
  const std::uint64_t n = 1 << 14;
  for (std::uint64_t i = 0; i < n; ++i) c.insert(n - i, i);
  EXPECT_GT(c.stats().prepend_merges, c.stats().merges / 3)
      << "descending inserts should mostly prepend";
  c.check_invariants();
  // Ascending inserts cannot prepend real data over real data.
  Gcola<> a(ColaConfig{4, 0.0});
  for (std::uint64_t i = 0; i < n; ++i) a.insert(i, i);
  EXPECT_EQ(a.stats().prepend_merges, 0u);
}

TEST(Cola, LookaheadOccupancyMatchesPaperBudget) {
  // Section 4: "each level l includes an additional floor(2p(g-1)g^(l-1))
  // redundant elements" — i.e. lookahead slots never exceed p * capacity.
  Gcola<> c(ColaConfig{2, 0.1});
  for (std::uint64_t i = 0; i < 100'000; ++i) c.insert(mix64(i), i);
  c.check_invariants();  // includes the per-level lookahead cap check
  // Space overhead stays near (1+p): bytes per item bounded.
  const double bytes_per_item =
      static_cast<double>(c.bytes()) / static_cast<double>(c.item_count());
  EXPECT_LT(bytes_per_item, 3.0 * 32.0) << "levels are at most ~2x over-provisioned";
}

TEST(Cola, SearchAccessesScaleWithLevels) {
  // Lemma 20: with lookahead pointers a search examines O(1) slots per level
  // after the first. Compare instrumented access counts: the fractional-
  // cascading COLA must probe far fewer slots than the basic COLA's
  // O(log^2 N) binary searches on large inputs. N is chosen with many set
  // bits (many occupied levels) — a power-of-two N degenerates the basic
  // COLA to a single level and hides the effect.
  const std::uint64_t n = 200'003;
  Gcola<Key, Value, dam::dam_mem_model> fc(ColaConfig{2, 0.1},
                                           dam::dam_mem_model(4096, 1 << 30));
  Gcola<Key, Value, dam::dam_mem_model> basic(ColaConfig{2, 0.0},
                                              dam::dam_mem_model(4096, 1 << 30));
  for (std::uint64_t i = 0; i < n; ++i) {
    fc.insert(mix64(i), i);
    basic.insert(mix64(i), i);
  }
  fc.mm().reset_stats();
  basic.mm().reset_stats();
  const int probes = 2'000;
  Xoshiro256 rng(31);
  for (int q = 0; q < probes; ++q) {
    const Key k = mix64(rng.below(n));
    ASSERT_TRUE(fc.find(k).has_value());
    ASSERT_TRUE(basic.find(k).has_value());
  }
  const double fc_slots = static_cast<double>(fc.mm().stats().accesses) / probes;
  const double basic_slots = static_cast<double>(basic.mm().stats().accesses) / probes;
  EXPECT_LT(fc_slots, 0.9 * basic_slots)
      << "fractional cascading must beat repeated binary search (fc=" << fc_slots
      << " basic=" << basic_slots << ")";
  // And the absolute Lemma-20 shape: O(1) slots per level.
  EXPECT_LT(fc_slots, 4.0 * static_cast<double>(fc.level_count()));
}

TEST(Cola, LookaheadArrayGrowthSelection) {
  EXPECT_EQ(lookahead_growth(4096, 0.0), 2u);
  EXPECT_EQ(lookahead_growth(4096, 1.0), 128u);  // B = 4096/32 = 128 elements
  const unsigned half = lookahead_growth(4096, 0.5);
  EXPECT_GE(half, 11u);
  EXPECT_LE(half, 12u);  // sqrt(128) ~ 11.3
}

TEST(Cola, LookaheadArrayBehavesAtHighGrowth) {
  auto la = make_lookahead_array<>(4096, 0.5);
  std::map<Key, Value> ref;
  const KeyStream ks(KeyOrder::kRandom, 20'000, 13);
  for (std::uint64_t i = 0; i < ks.size(); ++i) {
    la.insert(ks.key_at(i), i);
    ref[ks.key_at(i)] = i;
  }
  la.check_invariants();
  for (const auto& [k, v] : ref) ASSERT_EQ(la.find(k).value(), v);
  EXPECT_LT(la.level_count(), 6u) << "high growth factor keeps the array shallow";
}

TEST(Cola, ItemCountAndLevels) {
  Gcola<> c;
  for (std::uint64_t i = 0; i < 1'000; ++i) c.insert(i, i);
  EXPECT_EQ(c.item_count(), 1'000u);
  EXPECT_GE(c.level_count(), 10u);  // 2^10 capacity reached
}

TEST(Cola, InterleavedEraseInsertStress) {
  Gcola<> c(ColaConfig{2, 0.1});
  testing::RefDict ref;
  Xoshiro256 rng(123);
  for (int i = 0; i < 30'000; ++i) {
    const Key k = rng.below(2'000);
    if (rng.below(3) == 0) {
      c.erase(k);
      ref.erase(k);
    } else {
      c.insert(k, static_cast<Value>(i));
      ref.insert(k, static_cast<Value>(i));
    }
    if (i % 4'096 == 0) c.check_invariants();
  }
  c.check_invariants();
  for (Key k = 0; k < 2'000; ++k) {
    const auto got = c.find(k);
    const auto want = ref.find(k);
    ASSERT_EQ(got.has_value(), want.has_value()) << k;
    if (want) {
      ASSERT_EQ(*got, *want) << k;
    }
  }
}

}  // namespace
}  // namespace costream::cola
