// Genericity tests: the structures are templated on key/value types; prove
// they work with a non-trivial ordered key (composite) and a non-POD value.
// This guards against accidental uint64_t assumptions creeping into the
// implementations (e.g. the COLA's lookahead machinery must not depend on
// the value type, since targets moved to a dedicated field).
#include <gtest/gtest.h>

#include <compare>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "brt/brt.hpp"
#include "btree/btree.hpp"
#include "cola/cola.hpp"
#include "cola/deamortized_cola.hpp"
#include "shuttle/shuttle_tree.hpp"

namespace costream {
namespace {

// A composite key: (shard, sequence). Ordered lexicographically.
struct ShardKey {
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;
  friend constexpr auto operator<=>(const ShardKey&, const ShardKey&) = default;
};

// A value with real copy semantics.
struct Payload {
  std::string body;
  friend bool operator==(const Payload& a, const Payload& b) { return a.body == b.body; }
};

ShardKey key_of(std::uint64_t i) {
  return ShardKey{static_cast<std::uint32_t>(i % 7), i * 2654435761u};
}

// append(), not operator+: GCC 12's -Wrestrict misfires on the inlined
// char_traits copy of "v" + std::to_string(i) in optimized builds.
Payload value_of(std::uint64_t i) {
  return Payload{std::string("v").append(std::to_string(i))};
}

template <class D>
void exercise_generic(D& d) {
  std::map<ShardKey, Payload> ref;
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    const ShardKey k = key_of(i);
    const Payload v = value_of(i);
    d.insert(k, v);
    ref[k] = v;
  }
  for (const auto& [k, v] : ref) {
    const auto got = d.find(k);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, v);
  }
  ASSERT_FALSE(d.find(ShardKey{99, 0}).has_value());
  // Overwrite a band of keys.
  for (std::uint64_t i = 0; i < 100; ++i) {
    d.insert(key_of(i), Payload{"updated"});
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(d.find(key_of(i)).value().body, "updated");
  }
}

TEST(GenericTypes, Cola) {
  cola::Gcola<ShardKey, Payload> d;
  exercise_generic(d);
  d.check_invariants();
}

TEST(GenericTypes, BasicCola) {
  cola::Gcola<ShardKey, Payload> d(cola::ColaConfig{4, 0.0});
  exercise_generic(d);
  d.check_invariants();
}

TEST(GenericTypes, DeamortizedCola) {
  cola::DeamortizedCola<ShardKey, Payload> d;
  exercise_generic(d);
  d.check_invariants();
}

TEST(GenericTypes, BTree) {
  btree::BTree<ShardKey, Payload> d(512);
  exercise_generic(d);
  d.check_invariants();
}

TEST(GenericTypes, Brt) {
  brt::Brt<ShardKey, Payload> d(512);
  exercise_generic(d);
  d.check_invariants();
}

TEST(GenericTypes, Shuttle) {
  shuttle::ShuttleTree<ShardKey, Payload> d;
  exercise_generic(d);
  d.check_invariants();
}

TEST(GenericTypes, ColaRangeOverComposite) {
  cola::Gcola<ShardKey, Payload> d;
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    d.insert(ShardKey{static_cast<std::uint32_t>(i % 4), i}, value_of(i));
  }
  // Range = everything in shard 2.
  std::uint64_t count = 0;
  d.range_for_each(ShardKey{2, 0}, ShardKey{2, ~0ULL}, [&](const ShardKey& k, const Payload&) {
    ASSERT_EQ(k.shard, 2u);
    ++count;
  });
  EXPECT_EQ(count, 250u);
}

// Regression: for_each used std::numeric_limits<K>::min() as the scan's low
// bound, which is the smallest POSITIVE value for floating-point K (and a
// default-constructed object for composite keys) — negative keys were
// silently dropped. for_each now uses a dedicated unbounded scan.
TEST(GenericTypes, ColaForEachVisitsNegativeDoubleKeys) {
  cola::Gcola<double, std::uint64_t> d;
  d.insert(-7.5, 1);
  d.insert(-1.25, 2);
  d.insert(0.0, 3);
  d.insert(3.5, 4);
  std::vector<double> seen;
  d.for_each([&](double k, std::uint64_t) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<double>{-7.5, -1.25, 0.0, 3.5}));
}

TEST(GenericTypes, ShuttleForEachVisitsNegativeDoubleKeys) {
  shuttle::ShuttleTree<double, std::uint64_t> d;
  for (int i = -50; i < 50; ++i) d.insert(i * 1.5, static_cast<std::uint64_t>(i + 50));
  std::vector<double> seen;
  d.for_each([&](double k, std::uint64_t) { seen.push_back(k); });
  ASSERT_EQ(seen.size(), 100u);
  for (int i = -50; i < 50; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i + 50)], i * 1.5);
  }
}

// Composite keys have no numeric_limits specialization at all (min() and
// max() both default-construct), so the old for_each visited nothing.
TEST(GenericTypes, ForEachVisitsAllCompositeKeys) {
  cola::Gcola<ShardKey, Payload> c;
  shuttle::ShuttleTree<ShardKey, Payload> s;
  for (std::uint64_t i = 0; i < 500; ++i) {
    c.insert(key_of(i), value_of(i));
    s.insert(key_of(i), value_of(i));
  }
  std::size_t cn = 0, sn = 0;
  c.for_each([&](const ShardKey&, const Payload&) { ++cn; });
  s.for_each([&](const ShardKey&, const Payload&) { ++sn; });
  EXPECT_EQ(cn, 500u);
  EXPECT_EQ(sn, 500u);
}

TEST(GenericTypes, InsertBatchOverCompositeKeys) {
  cola::Gcola<ShardKey, Payload> d;
  std::vector<Entry<ShardKey, Payload>> batch;
  for (std::uint64_t i = 0; i < 800; ++i) {
    batch.push_back(Entry<ShardKey, Payload>{key_of(i), value_of(i)});
  }
  d.insert_batch(batch);
  d.check_invariants();
  for (std::uint64_t i = 0; i < 800; i += 13) {
    ASSERT_EQ(d.find(key_of(i)).value(), value_of(i));
  }
}

TEST(GenericTypes, BTreeEraseComposite) {
  btree::BTree<ShardKey, Payload> d(512);
  for (std::uint64_t i = 0; i < 2'000; ++i) d.insert(key_of(i), value_of(i));
  for (std::uint64_t i = 0; i < 2'000; i += 2) {
    ASSERT_TRUE(d.erase(key_of(i)));
  }
  d.check_invariants();
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    EXPECT_EQ(d.find(key_of(i)).has_value(), i % 2 == 1) << i;
  }
}

}  // namespace
}  // namespace costream
