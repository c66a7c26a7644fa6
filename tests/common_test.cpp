// Tests for the workload generators, RNG, and statistics helpers that the
// figure benches depend on — a wrong generator silently invalidates every
// experiment, so these are load-bearing — and for the batch sorts every
// structure normalizes with.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/entry.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/workload.hpp"

namespace costream {
namespace {

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) ASSERT_LT(rng.below(97), 97u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(7);
  int buckets[10] = {};
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++buckets[rng.below(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 100) << b;
  }
}

TEST(Rng, UnitInHalfOpenInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Workload, AscendingDescending) {
  const KeyStream asc(KeyOrder::kAscending, 100);
  const KeyStream desc(KeyOrder::kDescending, 100);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(asc.key_at(i), i);
    EXPECT_EQ(desc.key_at(i), 99 - i);
  }
}

TEST(Workload, RandomIsReplayable) {
  const KeyStream a(KeyOrder::kRandom, 1'000, 5);
  const KeyStream b(KeyOrder::kRandom, 1'000, 5);
  for (std::uint64_t i = 0; i < 1'000; ++i) ASSERT_EQ(a.key_at(i), b.key_at(i));
}

TEST(Workload, RandomSeedsDiffer) {
  const KeyStream a(KeyOrder::kRandom, 100, 5);
  const KeyStream b(KeyOrder::kRandom, 100, 6);
  int same = 0;
  for (std::uint64_t i = 0; i < 100; ++i) same += a.key_at(i) == b.key_at(i);
  EXPECT_LT(same, 3);
}

TEST(Workload, RandomKeysMostlyDistinct) {
  const KeyStream ks(KeyOrder::kRandom, 100'000, 1);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < ks.size(); ++i) seen.insert(ks.key_at(i));
  EXPECT_GT(seen.size(), 99'990u) << "64-bit keys should rarely collide";
}

TEST(Workload, ClusteredHasRuns) {
  const KeyStream ks(KeyOrder::kClustered, 1'000, 3);
  // Within a 256-run, keys are consecutive.
  for (std::uint64_t i = 1; i < 256; ++i) {
    EXPECT_EQ(ks.key_at(i), ks.key_at(i - 1) + 1) << i;
  }
}

TEST(Workload, TakeMatchesKeyAt) {
  const KeyStream ks(KeyOrder::kRandom, 500, 9);
  const auto v = ks.take(500);
  ASSERT_EQ(v.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) ASSERT_EQ(v[i], ks.key_at(i));
}

TEST(Workload, OrderRoundTrip) {
  for (KeyOrder o : {KeyOrder::kRandom, KeyOrder::kAscending, KeyOrder::kDescending,
                     KeyOrder::kClustered, KeyOrder::kZipfHot}) {
    EXPECT_EQ(key_order_from_string(to_string(o)), o);
  }
  EXPECT_THROW(key_order_from_string("bogus"), std::invalid_argument);
}

TEST(Workload, OpMixProportions) {
  const auto ops = generate_ops(100'000, 1'000, OpMix{}, 1);
  std::uint64_t counts[4] = {};
  for (const TraceOp& op : ops) ++counts[static_cast<int>(op.kind)];
  EXPECT_NEAR(counts[0], 70'000, 2'000);  // insert
  EXPECT_NEAR(counts[1], 10'000, 1'500);  // erase
  EXPECT_NEAR(counts[2], 15'000, 1'500);  // find
  EXPECT_NEAR(counts[3], 5'000, 1'000);   // range
}

TEST(Workload, OpsKeysWithinUniverse) {
  const auto ops = generate_ops(10'000, 500, OpMix{}, 2);
  for (const TraceOp& op : ops) ASSERT_LT(op.key, 500u);
}

TEST(Workload, RejectsEmptyUniverse) {
  EXPECT_THROW(generate_ops(10, 0, OpMix{}, 1), std::invalid_argument);
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, LatencyPercentiles) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(static_cast<double>(i));
  EXPECT_NEAR(r.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(r.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(r.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(r.percentile(99), 99.01, 0.05);
  EXPECT_DOUBLE_EQ(r.max(), 100.0);
  EXPECT_DOUBLE_EQ(r.mean(), 50.5);
}

TEST(Stats, PercentileValidation) {
  LatencyRecorder r;
  EXPECT_THROW(r.percentile(50), std::logic_error);
  r.add(1.0);
  EXPECT_THROW(r.percentile(101), std::invalid_argument);
}

TEST(Stats, RateFormatting) {
  EXPECT_EQ(format_rate(123.0), "123.0");
  EXPECT_EQ(format_rate(1'230.0), "1.2k");
  EXPECT_EQ(format_rate(1'230'000.0), "1.23M");
  EXPECT_EQ(format_rate(2.5e9), "2.50G");
}

TEST(Stats, ByteFormatting) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(4096), "4.0 KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.5 MiB");
}

TEST(Options, EnvParsing) {
  ::setenv("COSTREAM_TEST_U64", "1234", 1);
  EXPECT_EQ(env_u64("COSTREAM_TEST_U64", 7), 1234u);
  ::unsetenv("COSTREAM_TEST_U64");
  EXPECT_EQ(env_u64("COSTREAM_TEST_U64", 7), 7u);
  ::setenv("COSTREAM_TEST_U64", "garbage", 1);
  EXPECT_EQ(env_u64("COSTREAM_TEST_U64", 7), 7u);
  ::unsetenv("COSTREAM_TEST_U64");
}

TEST(Options, FromEnvScaling) {
  ::setenv("REPRO_SCALE", "4", 1);
  const auto opts = BenchOptions::from_env(1 << 20);
  EXPECT_EQ(opts.max_n, (1u << 20) / 4);
  ::unsetenv("REPRO_SCALE");
}

// The radix sort against the merge-sort reference: both are stable, so
// their outputs must match element for element, ties in input order (each
// element carries its input position). Every size up to 300, then a stride
// to 5000, then sizes past the 4096-bucket cap, where buckets overflow into
// recursion; key shapes aimed at the MSD pass's bucketing: uniform, a few
// dense clusters far apart, a dense range plus one far outlier, keys
// sharing their high bytes, keys drawn from a handful of values, and
// outliers spaced 2^5 apart above a dense range, so each level peels off
// one and sizes 17-32 recurse the full 13 levels for 64-bit keys.
template <class KeyT>
struct Tagged {
  KeyT key{};
  std::uint32_t pos = 0;
};

template <class KeyT>
std::vector<Tagged<KeyT>> sort_input(int shape, std::size_t n, Xoshiro256& rng) {
  constexpr KeyT kMax = std::numeric_limits<KeyT>::max();
  std::vector<Tagged<KeyT>> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t k = rng();
    switch (shape) {
      case 1: k = (rng() % 8) * (kMax / 8) + rng() % 300; break;  // clusters
      case 2: k = i + 1 == n ? kMax : rng() % (4 * n + 1); break;  // one outlier
      case 3: k = (kMax & ~static_cast<KeyT>(0xfff)) | (rng() & 0xfff); break;
      case 4: k = rng() % 5; break;  // duplicate-heavy
      case 5:  // geometric outliers
        k = i < 13 ? std::uint64_t{kMax} >> (5 * i) : rng() % 20;
        break;
      default: break;
    }
    v[i] = {static_cast<KeyT>(k), static_cast<std::uint32_t>(i)};
  }
  return v;
}

template <class KeyT>
void check_radix_matches_merge(std::size_t n) {
  static const char* const kShapes[] = {"uniform",         "clustered",
                                        "one-outlier",     "shared-high-bytes",
                                        "duplicate-heavy", "geometric-outliers"};
  for (int shape = 0; shape < 6; ++shape) {
    Xoshiro256 rng(n * 5 + static_cast<std::uint64_t>(shape));
    std::vector<Tagged<KeyT>> want = sort_input<KeyT>(shape, n, rng);
    std::vector<Tagged<KeyT>> got = want, scratch;
    stable_sort_by_key(want, scratch);
    radix_sort_by_key(got, scratch);
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(got[i].key == want[i].key && got[i].pos == want[i].pos)
          << kShapes[shape] << " n=" << n << " at " << i << ": got (" << +got[i].key
          << ", " << got[i].pos << "), want (" << +want[i].key << ", " << want[i].pos
          << ")";
    }
  }
}

TEST(BatchSort, RadixMatchesStableMergeSort) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 300; ++n) sizes.push_back(n);
  for (std::size_t n = 301; n <= 5000; n += 97) sizes.push_back(n);
  for (const std::size_t n : {4095u, 4096u, 4097u, 5000u, 16384u, 16385u, 40000u}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    check_radix_matches_merge<std::uint64_t>(n);
    if (n <= 5000) check_radix_matches_merge<std::uint16_t>(n);
  }
}

}  // namespace
}  // namespace costream
