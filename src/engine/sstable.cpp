#include "engine/sstable.h"

#include <algorithm>
#include <unordered_map>

namespace rafiki::engine {
namespace {

/// Sorts and deduplicates a key run. Flush and preload hand over runs that
/// are already ascending, so the sort is skipped for them.
void sort_unique(std::vector<std::int64_t>& keys) {
  if (!std::is_sorted(keys.begin(), keys.end())) std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

}  // namespace

SSTable::SSTable(std::uint32_t id, std::vector<std::int64_t> keys, double avg_row_bytes,
                 double bloom_fp_chance, int level, std::vector<std::int64_t> tombstones)
    : id_(id), level_(level), keys_(std::move(keys)), tombstones_(std::move(tombstones)),
      avg_row_bytes_(avg_row_bytes) {
  sort_unique(keys_);
  sort_unique(tombstones_);
  // Tombstones are rows of this table too: ensure they are in the key run.
  for (auto t : tombstones_) {
    if (!std::binary_search(keys_.begin(), keys_.end(), t)) {
      keys_.insert(std::lower_bound(keys_.begin(), keys_.end(), t), t);
    }
  }
  bloom_ = BloomFilter::build(keys_, bloom_fp_chance);
}

bool SSTable::has_key(std::int64_t key) const noexcept {
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

bool SSTable::is_tombstone(std::int64_t key) const noexcept {
  return std::binary_search(tombstones_.begin(), tombstones_.end(), key);
}

std::size_t SSTable::key_rank(std::int64_t key) const noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
}

SSTable SSTable::merge(std::uint32_t new_id, std::span<const SSTable* const> inputs,
                       double bloom_fp_chance, int level, bool drop_tombstones) {
  // Newest-version-wins: visit inputs from the highest (newest) table id
  // down; the first version seen per key is the surviving one.
  std::vector<const SSTable*> ordered(inputs.begin(), inputs.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const SSTable* a, const SSTable* b) { return a->id() > b->id(); });

  std::size_t total = 0;
  double data_bytes = 0.0;
  std::size_t data_rows = 0;
  for (const SSTable* table : ordered) {
    total += table->key_count();
    data_bytes += table->avg_row_bytes() *
                  static_cast<double>(table->key_count() - table->tombstone_count());
    data_rows += table->key_count() - table->tombstone_count();
  }

  std::unordered_map<std::int64_t, bool> newest;  // key -> surviving is tombstone
  newest.reserve(total);
  for (const SSTable* table : ordered) {
    for (auto key : table->keys()) {
      newest.try_emplace(key, table->is_tombstone(key));
    }
  }

  std::vector<std::int64_t> merged;
  std::vector<std::int64_t> tombstones;
  merged.reserve(newest.size());
  // det:ok(unordered-iter): order-insensitive — SSTable ctor sorts merged/tombstones
  for (const auto& [key, tombstone] : newest) {
    if (tombstone) {
      if (drop_tombstones) continue;  // evicted: no older version survives
      tombstones.push_back(key);
    }
    merged.push_back(key);
  }
  const double avg_row =
      data_rows ? data_bytes / static_cast<double>(data_rows) : kTombstoneBytes;
  return SSTable(new_id, std::move(merged), avg_row, bloom_fp_chance, level,
                 std::move(tombstones));
}

std::vector<SSTable> SSTable::split_into_tables(std::uint32_t& next_id,
                                                std::vector<std::int64_t> keys,
                                                double avg_row_bytes, double max_bytes,
                                                double bloom_fp_chance, int level,
                                                std::vector<std::int64_t> tombstones) {
  sort_unique(keys);
  sort_unique(tombstones);
  std::vector<SSTable> tables;
  if (keys.empty()) return tables;
  const auto keys_per_table = std::max<std::size_t>(
      1, static_cast<std::size_t>(max_bytes / std::max(1.0, avg_row_bytes)));
  for (std::size_t start = 0; start < keys.size(); start += keys_per_table) {
    const std::size_t end = std::min(start + keys_per_table, keys.size());
    std::vector<std::int64_t> chunk(keys.begin() + static_cast<std::ptrdiff_t>(start),
                                    keys.begin() + static_cast<std::ptrdiff_t>(end));
    // Tombstones falling into this chunk's range.
    std::vector<std::int64_t> chunk_tombs;
    const auto lo = std::lower_bound(tombstones.begin(), tombstones.end(), chunk.front());
    const auto hi = std::upper_bound(tombstones.begin(), tombstones.end(), chunk.back());
    chunk_tombs.assign(lo, hi);
    tables.emplace_back(next_id++, std::move(chunk), avg_row_bytes, bloom_fp_chance,
                        level, std::move(chunk_tombs));
  }
  return tables;
}

}  // namespace rafiki::engine
