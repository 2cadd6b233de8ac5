// A real Bloom filter, built per SSTable at flush/compaction time exactly as
// Cassandra does. The configured false-positive chance sets the bits-per-key
// budget; false positives cause genuinely wasted index probes in the read
// path, which is the mechanism behind the bloom_filter_fp_chance parameter's
// performance effect.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

namespace rafiki::engine {

/// x % d without a hardware divide (Lemire, Kaser and Kurz, "Faster Remainder
/// by Direct Computation", 2019). With the 128-bit magic M = ceil(2^128 / d),
/// x mod d = floor(((M * x) mod 2^128) * d / 2^128), exact for every 64-bit x
/// and every d >= 1 (for d = 1, M wraps to 0 and so does the result).
class FastMod {
 public:
  FastMod() = default;
  explicit FastMod(std::uint64_t d) noexcept : d_(d), magic_(~__uint128_t{0} / d + 1) {}

  std::uint64_t operator()(std::uint64_t x) const noexcept {
    const __uint128_t fraction = magic_ * x;  // (x / d) mod 1, in 2^-128 units
    const __uint128_t low = static_cast<__uint128_t>(static_cast<std::uint64_t>(fraction)) * d_;
    const __uint128_t high = (fraction >> 64) * d_;
    return static_cast<std::uint64_t>(((low >> 64) + high) >> 64);
  }

 private:
  std::uint64_t d_ = 1;
  __uint128_t magic_ = 0;
};

class BloomFilter {
 public:
  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` at the target false-positive rate
  /// using the standard optimum: bits/key = -ln(p)/ln(2)^2, k = bits/key*ln2.
  BloomFilter(std::size_t expected_keys, double fp_chance) {
    expected_keys = expected_keys ? expected_keys : 1;
    fp_chance = std::clamp(fp_chance, 1e-6, 0.5);
    const double bits_per_key = -std::log(fp_chance) / (std::numbers::ln2 * std::numbers::ln2);
    n_bits_ = static_cast<std::size_t>(
        std::ceil(bits_per_key * static_cast<double>(expected_keys)));
    n_bits_ = std::max<std::size_t>(n_bits_, 64);
    n_hashes_ = std::max(1, static_cast<int>(std::round(bits_per_key * std::numbers::ln2)));
    bits_.assign((n_bits_ + 63) / 64, 0);
    mod_bits_ = FastMod(n_bits_);
  }

  void add(std::int64_t key) noexcept {
    auto [h1, h2] = hash_pair(key);
    for (int i = 0; i < n_hashes_; ++i) {
      set_bit(mod_bits_(h1 + static_cast<std::uint64_t>(i) * h2));
    }
  }

  bool maybe_contains(std::int64_t key) const noexcept {
    if (bits_.empty()) return true;
    auto [h1, h2] = hash_pair(key);
    for (int i = 0; i < n_hashes_; ++i) {
      if (!test_bit(mod_bits_(h1 + static_cast<std::uint64_t>(i) * h2))) return false;
    }
    return true;
  }

  std::size_t bit_count() const noexcept { return n_bits_; }
  int hash_count() const noexcept { return n_hashes_; }

  static BloomFilter build(std::span<const std::int64_t> keys, double fp_chance) {
    BloomFilter filter(keys.size(), fp_chance);
    for (auto key : keys) filter.add(key);
    return filter;
  }

 private:
  static std::pair<std::uint64_t, std::uint64_t> hash_pair(std::int64_t key) noexcept {
    // SplitMix64 finalizer twice with distinct constants: cheap double hashing.
    auto mix = [](std::uint64_t z) {
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    const auto k = static_cast<std::uint64_t>(key);
    const std::uint64_t h1 = mix(k + 0x9e3779b97f4a7c15ull);
    std::uint64_t h2 = mix(k ^ 0xd1b54a32d192ed03ull);
    h2 |= 1;  // ensure the stride is odd so probes cover the table
    return {h1, h2};
  }

  void set_bit(std::size_t i) noexcept { bits_[i >> 6] |= 1ull << (i & 63); }
  bool test_bit(std::size_t i) const noexcept {
    return (bits_[i >> 6] >> (i & 63)) & 1ull;
  }

  std::vector<std::uint64_t> bits_;
  std::size_t n_bits_ = 0;
  FastMod mod_bits_;  // probe index = hash % n_bits_, divide-free
  int n_hashes_ = 0;
};

}  // namespace rafiki::engine
