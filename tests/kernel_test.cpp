// Differential tests for the data-parallel kernel layer: every vector
// kernel in common/simd.hpp and cola/kernels.hpp is driven against its
// scalar reference across lengths 0..257, duplicate patterns, tombstone
// flags, and unaligned base pointers, at every dispatch tier the host CPU
// supports. The contract under test is BIT-IDENTICAL output — the scalar
// fallback is the spec, the vector tiers are obligated to match it exactly,
// which is what lets the COSTREAM_SIMD=scalar CI leg stand in for the
// vector build's semantics.
//
// The per-segment fingerprint filter (common/filter.hpp) is tested here
// too: the structural no-false-negative guarantee, block-granular sizing,
// and a measured false-positive rate pinned to the design point
// filt::kDesignFpr within tolerance.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cola/compactor.hpp"
#include "cola/kernels.hpp"
#include "common/filter.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/snapshot.hpp"

namespace costream {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;
using Buf = cola::kern::RunBuf<K, V>;
using View = cola::kern::RunView<K, V>;

/// Every dispatch tier this machine can actually execute. kScalar is always
/// testable; the vector tiers join only when cpuid says their instructions
/// exist (calling an AVX2 body on a non-AVX2 part would fault, not fail).
std::vector<simd::Isa> testable_isas() {
  std::vector<simd::Isa> tiers{simd::Isa::kScalar};
  const simd::Isa hw = simd::detail::detect_isa();
  if (hw >= simd::Isa::kSse42) tiers.push_back(simd::Isa::kSse42);
  if (hw >= simd::Isa::kAvx2) tiers.push_back(simd::Isa::kAvx2);
  return tiers;
}

/// A sorted key run of length n with duplicate-heavy steps: each key
/// advances by 0 (duplicate), 1, or a larger stride, so runs contain equal
/// neighbors, dense stretches, and gaps — every shape the prefix scans
/// branch on. Keys start at `base` so two runs can be made overlapping or
/// disjoint at will.
std::vector<K> sorted_keys(std::size_t n, std::uint64_t seed, K base) {
  Xoshiro256 rng(seed);
  std::vector<K> keys(n);
  K k = base;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = k;
    const std::uint64_t step = rng.below(10);
    if (step >= 3) k += 1 + rng.below(4);  // 70%: advance
    // else: hold — next key duplicates this one
  }
  return keys;
}

/// Fill a plane-form run over the given keys with pseudo-random values and
/// ~1-in-5 tombstone flags, so merges must carry both payload planes.
Buf make_run(const std::vector<K>& keys, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Buf b;
  for (const K& k : keys) {
    b.push_back(k, rng(), rng.below(5) == 0 ? std::uint8_t{1} : std::uint8_t{0});
  }
  return b;
}

// -- simd primitives ---------------------------------------------------------

TEST(SimdKernels, LowerBoundMatchesReferenceAllLengthsAndTiers) {
  const auto tiers = testable_isas();
  // +3 slack so an offset base still has n valid elements behind it.
  for (std::size_t n = 0; n <= 257; ++n) {
    const std::vector<K> backing = sorted_keys(n + 3, 77 * n + 1, 1000);
    for (std::size_t off = 0; off < 3; ++off) {  // unaligned bases
      const K* keys = backing.data() + off;
      std::vector<K> probes{0, ~0ull};
      for (std::size_t i = 0; i < n; i += (n > 64 ? 7 : 1)) {
        probes.push_back(keys[i]);
        probes.push_back(keys[i] + 1);
        probes.push_back(keys[i] == 0 ? 0 : keys[i] - 1);
      }
      for (const K probe : probes) {
        const std::size_t want = simd::lower_bound_ref(keys, n, probe);
        for (const simd::Isa isa : tiers) {
          ASSERT_EQ(want, simd::lower_bound_keys(keys, n, probe, isa))
              << "n=" << n << " off=" << off << " probe=" << probe
              << " isa=" << simd::isa_name(isa);
        }
      }
    }
  }
}

TEST(SimdKernels, MultiLowerBoundMatchesReferenceAcrossWidthsAndTiers) {
  const auto tiers = testable_isas();
  // Batch widths from a lone run up to the kernel's cap, over runs of
  // deliberately mismatched lengths (0, tiny, straddling the scan cutoff,
  // and deep enough to take several interleaved halving rounds).
  const std::size_t lens[] = {0, 1, 2, 7, 31, 32, 33, 100, 257, 1024, 5000};
  for (const std::size_t m :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        simd::kMultiProbeMax}) {
    std::vector<std::vector<K>> runs;
    std::vector<const K*> bases;
    std::vector<std::size_t> ns;
    for (std::size_t i = 0; i < m; ++i) {
      runs.push_back(
          sorted_keys(lens[i % (sizeof(lens) / sizeof(lens[0]))], 91 * i + 3,
                      /*base=*/200 * i));
      ns.push_back(runs.back().size());
    }
    for (const auto& r : runs) bases.push_back(r.data());  // stable post-push
    std::vector<K> probes{0, ~0ull};
    Xoshiro256 rng(19);
    for (int i = 0; i < 64; ++i) probes.push_back(rng.below(200 * m + 500));
    for (const K probe : probes) {
      std::vector<std::size_t> want(m);
      simd::multi_lower_bound_ref(bases.data(), ns.data(), m, probe, want.data());
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(want[i], simd::lower_bound_ref(bases[i], ns[i], probe));
      }
      for (const simd::Isa isa : tiers) {
        std::vector<std::size_t> got(m, ~std::size_t{0});
        simd::multi_lower_bound_keys(bases.data(), ns.data(), m, probe,
                                     got.data(), isa);
        ASSERT_EQ(want, got) << "m=" << m << " probe=" << probe
                             << " isa=" << simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdKernels, PrefixLessMatchesReferenceAllLengthsAndTiers) {
  const auto tiers = testable_isas();
  for (std::size_t n = 0; n <= 257; ++n) {
    const std::vector<K> backing = sorted_keys(n + 3, 31 * n + 7, 500);
    for (std::size_t off = 0; off < 3; ++off) {
      const K* keys = backing.data() + off;
      std::vector<K> bounds{0, ~0ull};
      for (std::size_t i = 0; i < n; i += (n > 64 ? 5 : 1)) {
        bounds.push_back(keys[i]);
        bounds.push_back(keys[i] + 1);
      }
      for (const K bound : bounds) {
        const std::size_t want = simd::prefix_less_ref(keys, n, bound);
        for (const simd::Isa isa : tiers) {
          ASSERT_EQ(want, simd::prefix_less_keys(keys, n, bound, isa))
              << "n=" << n << " off=" << off << " bound=" << bound
              << " isa=" << simd::isa_name(isa);
        }
      }
    }
  }
}

TEST(SimdKernels, PrefixDistinctMatchesReferenceAllLengthsAndTiers) {
  const auto tiers = testable_isas();
  for (std::size_t n = 0; n <= 257; ++n) {
    for (std::uint64_t variant = 0; variant < 3; ++variant) {
      const std::vector<K> backing = sorted_keys(n + 3, 13 * n + variant, 9);
      for (std::size_t off = 0; off < 3; ++off) {
        const K* keys = backing.data() + off;
        const std::size_t want = simd::prefix_distinct_ref(keys, n);
        for (const simd::Isa isa : tiers) {
          ASSERT_EQ(want, simd::prefix_distinct_keys(keys, n, isa))
              << "n=" << n << " off=" << off << " variant=" << variant
              << " isa=" << simd::isa_name(isa);
        }
      }
    }
  }
}

// Hand-built duplicate edge shapes the random generator may miss: runs of
// all-equal keys, duplicates straddling the 4-wide vector boundary, and a
// lone trailing duplicate pair.
TEST(SimdKernels, PrefixDistinctDuplicateEdgeShapes) {
  const auto tiers = testable_isas();
  const std::vector<std::vector<K>> shapes = {
      {5, 5, 5, 5, 5, 5, 5, 5, 5},          // all equal from index 0
      {1, 2, 3, 4, 4, 5, 6, 7, 8},          // dup pair across lanes 3|4
      {1, 2, 3, 4, 5, 6, 7, 8, 8},          // dup at the very tail
      {1, 1},                               // minimal dup
      {1, 2},                               // minimal distinct
      {1},                                  // singleton: no successor
      {0, ~0ull, ~0ull},                    // extreme values
  };
  for (const auto& keys : shapes) {
    const std::size_t want = simd::prefix_distinct_ref(keys.data(), keys.size());
    for (const simd::Isa isa : tiers) {
      ASSERT_EQ(want, simd::prefix_distinct_keys(keys.data(), keys.size(), isa));
    }
  }
}

// -- run kernels -------------------------------------------------------------

TEST(RunKernels, MergeMatchesReferenceAcrossShapes) {
  const auto tiers = testable_isas();
  const std::size_t lens[] = {0, 1, 2, 3, 5, 8, 16, 33, 128, 257};
  for (const std::size_t an : lens) {
    for (const std::size_t bn : lens) {
      // Overlapping key ranges (base 50 vs 60) force equal-key collisions;
      // the duplicate-heavy generator adds intra-run equal neighbors.
      const Buf a = make_run(sorted_keys(an, an * 31 + bn, 50), 11);
      const Buf b = make_run(sorted_keys(bn, bn * 17 + an, 60), 22);
      Buf want(a), got(a);  // oversize scratch; resized below
      want.resize(an + bn);
      got.resize(an + bn);
      const std::size_t wn = cola::kern::merge_pair_newest_wins_ref(
          a.keys.data(), a.vals.data(), a.flags.data(), an, b.keys.data(),
          b.vals.data(), b.flags.data(), bn, want.keys.data(),
          want.vals.data(), want.flags.data());
      want.resize(wn);
      for (const simd::Isa isa : tiers) {
        got.resize(an + bn);
        const std::size_t gn = cola::kern::merge_pair_newest_wins(
            a.keys.data(), a.vals.data(), a.flags.data(), an, b.keys.data(),
            b.vals.data(), b.flags.data(), bn, got.keys.data(),
            got.vals.data(), got.flags.data(), isa);
        got.resize(gn);
        ASSERT_EQ(want.keys, got.keys) << simd::isa_name(isa);
        ASSERT_EQ(want.vals, got.vals) << simd::isa_name(isa);
        ASSERT_EQ(want.flags, got.flags) << simd::isa_name(isa);
      }
    }
  }
}

TEST(RunKernels, MergeIntoReportsDroppedDuplicates) {
  Buf a, b, out;
  for (K k = 0; k < 10; ++k) a.push_back(k, k, 0);
  for (K k = 5; k < 15; ++k) b.push_back(k, k + 100, k == 7 ? 1 : 0);
  const std::size_t dropped =
      cola::kern::merge_into(a.view(), b.view(), out, simd::Isa::kScalar);
  EXPECT_EQ(5u, dropped);  // keys 5..9 collide
  ASSERT_EQ(15u, out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(static_cast<K>(i), out.keys[i]);
    // Collided keys carry the NEWER run's value and flags.
    EXPECT_EQ(out.keys[i] >= 5 ? out.keys[i] + 100 : out.keys[i], out.vals[i]);
    EXPECT_EQ(out.keys[i] == 7 ? 1 : 0, out.flags[i]);
  }
}

TEST(RunKernels, DedupMatchesReferenceAcrossShapesAndOffsets) {
  const auto tiers = testable_isas();
  for (std::size_t n = 0; n <= 257; n += (n < 40 ? 1 : 13)) {
    for (const std::size_t from : {std::size_t{0}, std::min<std::size_t>(n, 3)}) {
      const Buf base = make_run(sorted_keys(n, n * 7 + from, 0), 33);
      Buf want(base);
      const std::size_t wd = cola::kern::dedup_newest_wins_ref(want, from);
      for (const simd::Isa isa : tiers) {
        Buf got(base);
        const std::size_t gd = cola::kern::dedup_newest_wins(got, from, isa);
        ASSERT_EQ(wd, gd) << "n=" << n << " isa=" << simd::isa_name(isa);
        ASSERT_EQ(want.keys, got.keys) << simd::isa_name(isa);
        ASSERT_EQ(want.vals, got.vals) << simd::isa_name(isa);
        ASSERT_EQ(want.flags, got.flags) << simd::isa_name(isa);
      }
    }
  }
}

TEST(RunKernels, DedupKeepsNewestOfEachGroup) {
  Buf b;
  b.push_back(1, 10, 0);
  b.push_back(1, 11, 1);  // newest of key 1: tombstone, value 11
  b.push_back(2, 20, 0);
  b.push_back(3, 30, 1);
  b.push_back(3, 31, 0);
  b.push_back(3, 32, 0);  // newest of key 3
  for (const simd::Isa isa : testable_isas()) {
    Buf got(b);
    EXPECT_EQ(3u, cola::kern::dedup_newest_wins(got, 0, isa));
    ASSERT_EQ(3u, got.size());
    EXPECT_EQ((std::vector<K>{1, 2, 3}), got.keys);
    EXPECT_EQ((std::vector<V>{11, 20, 32}), got.vals);
    EXPECT_EQ((std::vector<std::uint8_t>{1, 0, 0}), got.flags);
  }
}

/// Reference collapse: fold runs left to right with the scalar merge, newer
/// (righter) run winning ties — the semantics collapse_runs must preserve
/// no matter how it pairs the rounds.
Buf collapse_ref(const Buf& buf, const std::vector<std::uint32_t>& run_list) {
  Buf acc, tmp;
  for (std::size_t r = 0; r < run_list.size(); ++r) {
    const std::size_t b = run_list[r];
    const std::size_t e =
        r + 1 < run_list.size() ? run_list[r + 1] : buf.size();
    tmp.resize(acc.size() + (e - b));
    const std::size_t w = cola::kern::merge_pair_newest_wins_ref(
        acc.keys.data(), acc.vals.data(), acc.flags.data(), acc.size(),
        buf.keys.data() + b, buf.vals.data() + b, buf.flags.data() + b, e - b,
        tmp.keys.data(), tmp.vals.data(), tmp.flags.data());
    tmp.resize(w);
    acc.swap(tmp);
  }
  return acc;
}

TEST(RunKernels, CollapseRunsMatchesSequentialReference) {
  const auto tiers = testable_isas();
  for (const std::size_t nruns : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{5}, std::size_t{8}}) {
    Buf base;
    std::vector<std::uint32_t> run_list;
    Xoshiro256 rng(nruns * 101);
    for (std::size_t r = 0; r < nruns; ++r) {
      run_list.push_back(static_cast<std::uint32_t>(base.size()));
      // Each arena run is sorted and unique (post-dedup), like the staging
      // arena's invariant; runs overlap so cross-run newest-wins matters.
      std::vector<K> keys = sorted_keys(5 + rng.below(40), r * 7 + 3, r * 4);
      Buf run = make_run(keys, r + 1);
      cola::kern::dedup_newest_wins_ref(run, 0);
      base.append(run.view());
    }
    const Buf want = collapse_ref(base, run_list);
    for (const simd::Isa isa : tiers) {
      Buf got(base), tmp;
      std::vector<std::uint32_t> runs = run_list, tmp_runs;
      std::uint64_t final_dups = 0;
      cola::kern::collapse_runs(got, runs, tmp, tmp_runs, isa, &final_dups);
      ASSERT_EQ(want.keys, got.keys) << "runs=" << nruns << " "
                                     << simd::isa_name(isa);
      ASSERT_EQ(want.vals, got.vals) << simd::isa_name(isa);
      ASSERT_EQ(want.flags, got.flags) << simd::isa_name(isa);
      // Boundary list must describe the result, not a stale round.
      if (got.empty()) {
        EXPECT_TRUE(runs.empty());
      } else {
        ASSERT_EQ(1u, runs.size());
        EXPECT_EQ(0u, runs[0]);
      }
      EXPECT_LE(final_dups, base.size() - got.size() + 0u);
    }
  }
}

// -- fold kernel ---------------------------------------------------------------

constexpr std::uint8_t kTomb = snap::Item<K, V>::kFlagTombstone;

/// Fold-shaped input: `ns` sorted, duplicate-free spans (oldest first) over
/// one shared key range, so most keys recur across spans; ~1 in 5 entries
/// is a tombstone, and with more than one span every third span is empty.
std::vector<Buf> fold_inputs(std::size_t ns, std::size_t per_span,
                             std::uint64_t seed) {
  std::vector<Buf> runs(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    if (ns > 1 && i % 3 == 1) continue;
    Xoshiro256 rng(seed * 31 + i);
    K k = rng.below(64);
    for (std::size_t j = 0; j < per_span; ++j) {
      k += 1 + rng.below(3);
      runs[i].push_back(k, rng(), rng.below(5) == 0 ? kTomb : std::uint8_t{0});
    }
  }
  return runs;
}

/// Keys held by at least two of the runs — counted once each.
std::uint64_t shared_keys(const std::vector<Buf>& runs) {
  std::map<K, int> seen;
  for (const Buf& r : runs) {
    for (const K& k : r.keys) ++seen[k];
  }
  std::uint64_t n = 0;
  for (const auto& [k, c] : seen) n += c >= 2 ? 1 : 0;
  return n;
}

/// Keys present in both unions runs[0, m) and runs[m, end).
std::uint64_t keys_in_both(const std::vector<Buf>& runs, std::size_t m) {
  std::set<K> left, both;
  for (std::size_t i = 0; i < m; ++i) {
    left.insert(runs[i].keys.begin(), runs[i].keys.end());
  }
  for (std::size_t i = m; i < runs.size(); ++i) {
    for (const K& k : runs[i].keys) {
      if (left.count(k) != 0) both.insert(k);
    }
  }
  return both.size();
}

// The one serial fold kernel and the range-partitioned fold around it, on
// both sides of the one-pass cutoff, against the sequential reference. The
// duplicate sample is pinned too: below the cutoff it is the final pairwise
// round's drop count — the keys shared by the two halves that round merges
// (spans split at the largest power of two below the span count); at or
// above it, the distinct keys held by two or more spans.
TEST(FoldKernel, CollapseSpansAndFoldSpansMatchReferenceAcrossCutoff) {
  cola::compact::Pool::instance().ensure_threads(2);  // sub-merges on the pool
  const auto tiers = testable_isas();
  constexpr std::size_t kCut = cola::kern::kOnePassCutoff;
  for (std::size_t ns = 1; ns <= 9; ++ns) {
    std::size_t live = 0;
    for (std::size_t i = 0; i < ns; ++i) live += (ns > 1 && i % 3 == 1) ? 0 : 1;
    for (const bool above : {false, true}) {
      const std::size_t per_span = (above ? kCut + kCut / 2 : kCut / 2) / live;
      const std::vector<Buf> runs = fold_inputs(ns, per_span, ns * 2 + above);
      std::vector<View> spans;
      std::vector<std::uint32_t> offsets;
      Buf flat;
      for (const Buf& r : runs) {
        spans.push_back(r.view());
        offsets.push_back(static_cast<std::uint32_t>(flat.size()));
        flat.append(r.view());
      }
      const std::size_t total = flat.size();
      ASSERT_EQ(above, total >= kCut) << "ns=" << ns;
      const Buf want = collapse_ref(flat, offsets);
      std::size_t half = 1;
      while (half * 2 < ns) half *= 2;
      const std::uint64_t distinct = shared_keys(runs);
      const std::uint64_t want_dups =
          ns == 1 ? 0 : above ? distinct : keys_in_both(runs, half);
      cola::kern::CollapseScratch<K, V> scratch;  // reused across every call
      for (const simd::Isa isa : tiers) {
        SCOPED_TRACE("ns=" + std::to_string(ns) + " above=" +
                     std::to_string(above) + " isa=" + simd::isa_name(isa));
        Buf got;
        std::uint64_t dups = ~0ull;
        cola::kern::collapse_spans(spans, total, isa, got, scratch, dups);
        ASSERT_EQ(want.keys, got.keys);
        ASSERT_EQ(want.vals, got.vals);
        ASSERT_EQ(want.flags, got.flags);
        EXPECT_EQ(want_dups, dups);
        for (const unsigned ways : {1u, 2u, 4u}) {
          Buf fgot;
          std::uint64_t fdups = ~0ull;
          cola::compact::fold_spans(spans, total, ways, isa, fgot, scratch, fdups);
          ASSERT_EQ(want.keys, fgot.keys) << "ways=" << ways;
          ASSERT_EQ(want.vals, fgot.vals) << "ways=" << ways;
          ASSERT_EQ(want.flags, fgot.flags) << "ways=" << ways;
          if (ways == 1) {
            EXPECT_EQ(want_dups, fdups);
          } else {
            // Per-partition samples: each counts keys its own spans share.
            EXPECT_LE(fdups, distinct) << "ways=" << ways;
          }
        }
      }
      // The one strip: every tombstone goes, everything else keeps order.
      Buf stripped = want;
      const std::size_t dropped = cola::kern::strip_tombstones(stripped);
      std::size_t w = 0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        if ((want.flags[i] & kTomb) != 0) continue;
        ASSERT_LT(w, stripped.size());
        ASSERT_EQ(want.keys[i], stripped.keys[w]);
        ASSERT_EQ(want.vals[i], stripped.vals[w]);
        ++w;
      }
      EXPECT_EQ(w, stripped.size());
      EXPECT_EQ(want.size() - w, dropped);
    }
  }
}

// -- fingerprint filters ------------------------------------------------------

TEST(Filters, NoFalseNegativesEver) {
  Xoshiro256 rng(42);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{100}, std::size_t{5000}}) {
    std::vector<K> keys(n);
    for (K& k : keys) k = rng();
    const filt::Words f = filt::build_filter(keys.data(), n);
    ASSERT_EQ(filt::filter_words_for(n), f.size());
    ASSERT_EQ(0u, f.size() % filt::kBlockWords);
    for (const K& k : keys) {
      ASSERT_TRUE(filt::filter_may_contain(f.data(), f.size(), filt::key_hash(k)));
    }
  }
}

TEST(Filters, MeasuredFprNearDesignPoint) {
  // Insert 50k random keys, probe 200k keys guaranteed absent, and pin the
  // measured false-positive rate to the design constant the DAM filter
  // bound and cola's ablation benches both quote. The tolerance band is
  // generous (half to double) because blocked designs wobble with load
  // imbalance across blocks, but tight enough to catch a broken hash, a
  // mis-sized table, or a probe-count regression — any of which move the
  // rate by an order of magnitude.
  const std::size_t n = 50000;
  Xoshiro256 rng(7);
  std::vector<K> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = rng() | 1ull;  // odd keys only
  const filt::Words f = filt::build_filter(keys.data(), n);

  std::size_t hits = 0;
  const std::size_t probes = 200000;
  for (std::size_t i = 0; i < probes; ++i) {
    const K absent = rng() & ~1ull;  // even keys: disjoint from the inserts
    if (filt::filter_may_contain(f.data(), f.size(), filt::key_hash(absent))) {
      ++hits;
    }
  }
  const double fpr = static_cast<double>(hits) / static_cast<double>(probes);
  EXPECT_GE(fpr, filt::kDesignFpr * 0.5) << "measured " << fpr;
  EXPECT_LE(fpr, filt::kDesignFpr * 2.0) << "measured " << fpr;
}

TEST(Filters, SizingIsBlockGranularAndNonZero) {
  EXPECT_EQ(filt::kBlockWords, filt::filter_words_for(0));  // one block floor
  EXPECT_EQ(filt::kBlockWords, filt::filter_words_for(1));
  EXPECT_EQ(filt::kBlockWords, filt::filter_words_for(51));  // 510 bits
  EXPECT_EQ(2 * filt::kBlockWords, filt::filter_words_for(52));  // 520 bits
  // ~10 bits per key at scale.
  const std::size_t words = filt::filter_words_for(1 << 20);
  const double bits_per_key = static_cast<double>(words * 64) / (1 << 20);
  EXPECT_GE(bits_per_key, 10.0);
  EXPECT_LT(bits_per_key, 10.1);
}

TEST(Filters, HashabilityTraitGatesMinting) {
  struct Padded {
    std::uint32_t a;
    std::uint64_t b;  // 4 padding bytes between a and b
    auto operator<=>(const Padded&) const = default;
  };
  static_assert(filt::filter_hashable_v<std::uint64_t>);
  static_assert(filt::filter_hashable_v<std::uint32_t>);
  static_assert(!filt::filter_hashable_v<Padded>);
  SUCCEED();
}

}  // namespace
}  // namespace costream
