#include <gtest/gtest.h>

#include "engine/bloom.h"
#include "engine/cache.h"
#include "engine/memtable.h"
#include "engine/sstable.h"
#include "util/rng.h"

namespace rafiki::engine {
namespace {

TEST(BloomFilter, NoFalseNegatives) {
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 5000; ++k) keys.push_back(k * 7 + 1);
  const auto filter = BloomFilter::build(keys, 0.01);
  for (auto k : keys) EXPECT_TRUE(filter.maybe_contains(k));
}

TEST(BloomFilter, FalsePositiveRateNearTarget) {
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 20000; ++k) keys.push_back(k);
  for (double fp : {0.01, 0.05}) {
    const auto filter = BloomFilter::build(keys, fp);
    std::size_t hits = 0;
    constexpr std::size_t kProbes = 50000;
    for (std::size_t i = 0; i < kProbes; ++i) {
      if (filter.maybe_contains(static_cast<std::int64_t>(1000000 + i))) ++hits;
    }
    const double observed = static_cast<double>(hits) / kProbes;
    EXPECT_LT(observed, fp * 2.5) << "target " << fp;
    EXPECT_GT(observed, fp * 0.2) << "target " << fp;
  }
}

TEST(BloomFilter, LowerFpChanceUsesMoreBits) {
  BloomFilter tight(1000, 0.001);
  BloomFilter loose(1000, 0.1);
  EXPECT_GT(tight.bit_count(), loose.bit_count());
  EXPECT_GT(tight.hash_count(), loose.hash_count());
}

TEST(BloomFilter, DivideFreeRemainderMatchesModulo) {
  // Every probe index the filter computes, h1 + i*h2 (mod 2^64), reduced by
  // FastMod must equal the `%` it replaced, so filters stay bit-identical.
  // Sizes cover the 64-bit minimum, powers of two, typical odd table sizes
  // and divisors above 2^32, where the 128-bit magic carries real high bits.
  const std::vector<std::uint64_t> sizes = {
      1,           2,           3,           64,           65,
      127,         128,         1024,        95851,        1u << 20,
      (1u << 20) + 7,           0xffffffffull,             1ull << 32,
      (1ull << 32) + 1,         (1ull << 33) + 12345,      0x123456789abcdefull,
      1ull << 63,  (1ull << 63) + 1,         ~0ull - 1,    ~0ull};
  Rng rng(2029);
  for (const auto d : sizes) {
    const FastMod mod(d);
    for (const std::uint64_t x :
         std::vector<std::uint64_t>{0, 1, d - 1, d, d + 1, 2 * d - 1, ~0ull, ~0ull - d}) {
      ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
    }
    for (int key = 0; key < 2000; ++key) {
      const std::uint64_t h1 = rng.next_u64();
      const std::uint64_t h2 = rng.next_u64() | 1;
      for (std::uint64_t i = 0; i < 24; ++i) {
        const std::uint64_t x = h1 + i * h2;
        ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
      }
    }
  }
}

TEST(Memtable, InsertAndUpdateAccounting) {
  Memtable memtable;
  const auto grow1 = memtable.put(42, 100);
  EXPECT_EQ(grow1, 100 + Memtable::kRowOverheadBytes);
  EXPECT_EQ(memtable.row_count(), 1u);
  // Update in place: only the size delta counts against the threshold.
  const auto grow2 = memtable.put(42, 150);
  EXPECT_EQ(grow2, 50);
  EXPECT_EQ(memtable.row_count(), 1u);
  EXPECT_EQ(memtable.bytes(), static_cast<std::uint64_t>(150 + Memtable::kRowOverheadBytes));
  EXPECT_TRUE(memtable.contains(42));
  EXPECT_FALSE(memtable.contains(43));
}

TEST(Memtable, ClearResets) {
  Memtable memtable;
  memtable.put(1, 10);
  memtable.clear();
  EXPECT_TRUE(memtable.empty());
  EXPECT_EQ(memtable.bytes(), 0u);
}

TEST(SSTable, SortsAndDeduplicatesKeys) {
  SSTable table(1, {5, 3, 9, 3, 1}, 100.0, 0.01);
  EXPECT_EQ(table.key_count(), 4u);
  EXPECT_EQ(table.min_key(), 1);
  EXPECT_EQ(table.max_key(), 9);
  EXPECT_TRUE(table.has_key(3));
  EXPECT_FALSE(table.has_key(4));
  EXPECT_TRUE(table.range_covers(4));
  EXPECT_FALSE(table.range_covers(10));
}

TEST(SSTable, KeyRankIsOrdinal) {
  SSTable table(1, {10, 20, 30, 40}, 64.0, 0.01);
  EXPECT_EQ(table.key_rank(10), 0u);
  EXPECT_EQ(table.key_rank(40), 3u);
}

TEST(SSTable, MergeDeduplicatesAcrossInputs) {
  SSTable a(1, {1, 2, 3}, 100.0, 0.01);
  SSTable b(2, {3, 4, 5}, 100.0, 0.01);
  const SSTable* inputs[] = {&a, &b};
  const auto merged = SSTable::merge(3, inputs, 0.01, 0);
  EXPECT_EQ(merged.key_count(), 5u);
  // Superseded version of key 3 dropped: bytes shrink below the input sum.
  EXPECT_LT(merged.bytes(), a.bytes() + b.bytes());
  EXPECT_EQ(merged.id(), 3u);
}

TEST(SSTable, SplitProducesBoundedNonOverlappingTables) {
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 1000; ++k) keys.push_back(k);
  std::uint32_t next_id = 10;
  const auto tables = SSTable::split_into_tables(next_id, std::move(keys), 100.0,
                                                 100.0 * 128, 0.01, 2);
  ASSERT_EQ(tables.size(), 8u);  // 1000 keys / 128 per table
  for (std::size_t i = 0; i < tables.size(); ++i) {
    EXPECT_LE(tables[i].bytes(), 100.0 * 128 + 1.0);
    EXPECT_EQ(tables[i].level(), 2);
    for (std::size_t j = i + 1; j < tables.size(); ++j) {
      EXPECT_FALSE(tables[i].overlaps(tables[j]));
    }
  }
  EXPECT_EQ(next_id, 18u);
}

TEST(SSTable, OverlapIsRangeBased) {
  SSTable a(1, {1, 10}, 10.0, 0.01);
  SSTable b(2, {5, 20}, 10.0, 0.01);
  SSTable c(3, {11, 30}, 10.0, 0.01);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.insert(1);
  cache.insert(2);
  EXPECT_TRUE(cache.touch(1));  // promotes 1
  cache.insert(3);              // evicts 2
  EXPECT_TRUE(cache.touch(1));
  EXPECT_FALSE(cache.touch(2));
  EXPECT_TRUE(cache.touch(3));
}

TEST(LruCache, ZeroCapacityNeverStores) {
  LruCache<int> cache(0);
  cache.insert(1);
  EXPECT_FALSE(cache.touch(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCache, EraseAndShrink) {
  LruCache<int> cache(4);
  for (int i = 0; i < 4; ++i) cache.insert(i);
  cache.erase(2);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.touch(2));
  cache.set_capacity(1);  // shrink evicts down to 1
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, HitRateAccounting) {
  LruCache<int> cache(8);
  cache.insert(5);
  cache.touch(5);
  cache.touch(5);
  cache.touch(6);
  EXPECT_EQ(cache.hits(), 2u);
}

}  // namespace
}  // namespace rafiki::engine
