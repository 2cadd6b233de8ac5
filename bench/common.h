// Shared setup for the bench harnesses: paper-scale experiment budgets
// (Section 4.2's 20 configurations x 11 workloads protocol) and uniform
// output formatting. Every bench prints the table/figure it reproduces plus
// a short "paper reported vs measured" comparison for EXPERIMENTS.md.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rafiki.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "util/table.h"

namespace rafiki::benchutil {

/// Hardware threads visible to this run — recorded in every BENCH_*.json so
/// a reader can interpret hardware-conditional gates.
inline unsigned hw_threads() { return std::thread::hardware_concurrency(); }

/// Renders a JSON string array, e.g. ["scaling", "ratio"]. Used for the
/// `gates_skipped` field every bench JSON carries: the explicit list of
/// gates this run did NOT check (sanitizer build, too few cores), so
/// "passed" is never conflated with "not checked".
inline std::string json_string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += "\"" + items[i] + "\"";
    if (i + 1 < items.size()) out += ", ";
  }
  return out + "]";
}

/// False in an ASan/TSan build (GCC's __SANITIZE_* macros or clang's
/// __has_feature): instrumentation distorts every timing, so perf gates are
/// skipped there while the correctness gates still run.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kPerfGate = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kPerfGate = false;
#else
inline constexpr bool kPerfGate = true;
#endif
#else
inline constexpr bool kPerfGate = true;
#endif

/// Wall-clock seconds elapsed since t0.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  // det:ok(wall-clock): measuring throughput/latency is this benchmark's purpose
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// One service or an N-shard router behind the same TuningBackend surface.
inline std::unique_ptr<serve::TuningBackend> make_backend(
    std::size_t shards, const serve::ServiceOptions& options) {
  if (shards > 1) {
    serve::ShardOptions shard_options;
    shard_options.shards = shards;
    shard_options.service = options;
    return std::make_unique<serve::ShardedTuningService>(shard_options);
  }
  return std::make_unique<serve::TuningService>(options);
}

/// A bench's verdict, gate by gate: every check() names its gate with the
/// measured value and the bound, so a failing run says which gates failed
/// and by how much instead of a bare FAIL.
class Gates {
 public:
  void check(bool ok, const std::string& gate, const std::string& measured,
             const std::string& bound) {
    if (!ok) failed_.push_back(gate + ": measured " + measured + ", bound " + bound);
  }
  /// Prints "<bench>: PASS" or "<bench>: FAIL", the skipped gates, and one
  /// line per failed gate; returns the process exit status.
  int verdict(const std::string& bench, const std::vector<std::string>& skipped) const {
    std::printf("\n%s: %s", bench.c_str(), failed_.empty() ? "PASS" : "FAIL");
    for (std::size_t i = 0; i < skipped.size(); ++i) {
      std::printf("%s%s", i == 0 ? " (gates skipped: " : ", ", skipped[i].c_str());
    }
    std::printf("%s\n", skipped.empty() ? "" : ")");
    for (const auto& failure : failed_) std::printf("  failed gate %s\n", failure.c_str());
    return failed_.empty() ? 0 : 1;
  }

 private:
  std::vector<std::string> failed_;
};

/// The paper's data-collection protocol: 11 read ratios x 20 configurations,
/// 5-minute (simulated) benchmark per point, ~9% of samples lost to harness
/// faults (220 collected -> 200 usable).
inline core::RafikiOptions paper_options(bool scylla = false) {
  core::RafikiOptions options;
  options.n_configs = 20;
  options.collect.measure.ops = 80000;
  options.collect.measure.warmup_ops = 12000;
  options.collect.measure.noise_sd = 0.015;
  options.collect.seed = 20171211;  // Middleware '17 conference date
  options.scylla = scylla;
  options.ensemble.n_nets = 20;
  options.ensemble.train.max_epochs = 200;
  options.ga.population = 48;
  options.ga.generations = 70;
  return options;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void emit(const Table& table, const std::string& title) {
  section(title);
  std::fputs(table.render().c_str(), stdout);
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// One-line paper-vs-measured record, consumed by EXPERIMENTS.md.
inline void compare(const std::string& metric, const std::string& paper,
                    const std::string& measured) {
  std::printf("  [paper-vs-measured] %-46s paper: %-18s measured: %s\n", metric.c_str(),
              paper.c_str(), measured.c_str());
}

}  // namespace rafiki::benchutil
