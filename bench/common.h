// Shared setup for the bench harnesses: paper-scale experiment budgets
// (Section 4.2's 20 configurations x 11 workloads protocol) and uniform
// output formatting. Every bench prints the table/figure it reproduces plus
// a short "paper reported vs measured" comparison for EXPERIMENTS.md.
//
// The load benches (serve_load, net_load, fleet_load, knob_ablation) also
// share one harness here: the command line, the served surrogate profile,
// backend and server bring-up, the client fleet, the pipelined wire burst,
// exact quantiles, the regime schedule, and the BENCH_*.json writer.
#pragma once

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/online.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "serve/snapshot.h"
#include "util/table.h"

namespace rafiki::benchutil {

/// Hardware threads visible to this run — recorded in every BENCH_*.json so
/// a reader can interpret hardware-conditional gates.
inline unsigned hw_threads() { return std::thread::hardware_concurrency(); }

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

/// A minimal JSON emitter for the BENCH_*.json files. A json::Value is one
/// rendered value: a bool, an integer, a string, a string array, a
/// fixed-precision double, or an object or array built from those. Values
/// convert implicitly, so a field reads {"key", value}. The document puts
/// each root field on its own line, and each row of a rows() array; the
/// rest stays on one line.
namespace json {

class Value {
 public:
  template <std::integral Int>
  Value(Int value)
      : text(std::same_as<Int, bool> ? (value ? "true" : "false") : std::to_string(value)) {}
  template <std::convertible_to<std::string_view> String>
  Value(const String& value) : text(quote(value)) {}
  Value(const std::vector<std::string>& strings) : text("[") {
    for (const auto& item : strings) text += (text.size() > 1 ? ", " : "") + quote(item);
    text += "]";
  }

  /// Already-rendered JSON text.
  static Value raw(std::string rendered) { return Value(Raw{}, std::move(rendered)); }
  static std::string quote(std::string_view raw_text) {
    std::string out = "\"";
    for (const char c : raw_text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  }

  std::string text;

 private:
  struct Raw {};
  Value(Raw /*tag*/, std::string rendered) : text(std::move(rendered)) {}
};

using Fields = std::initializer_list<std::pair<std::string_view, Value>>;

/// A double printed with `digits` digits after the decimal point.
inline Value fixed(double value, int digits) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", digits, value);
  return Value::raw(text);
}

/// The (key, value) pairs of `fields` as "key": value, `separator` between.
template <class Pairs>
std::string join(const Pairs& fields, std::string_view separator) {
  std::string out;
  for (const auto& [key, value] : fields) {
    if (!out.empty()) out += separator;
    out += Value::quote(key) + ": " + Value(value).text;
  }
  return out;
}

template <class Pairs>
Value object(const Pairs& fields) {
  return Value::raw("{" + join(fields, ", ") + "}");
}
inline Value object(Fields fields) { return object<Fields>(fields); }

/// [row(item), ...] over `items`, on one line.
template <class Items, class Row>
Value array(const Items& items, Row&& row) {
  std::string out;
  for (const auto& item : items) out += (out.empty() ? "" : ", ") + row(item).text;
  return Value::raw("[" + out + "]");
}

/// The same array with one row per line, for arrays directly under the root.
template <class Items, class Row>
Value rows(const Items& items, Row&& row) {
  std::string out;
  for (const auto& item : items) out += (out.empty() ? "\n    " : ",\n    ") + row(item).text;
  return Value::raw("[" + out + (out.empty() ? "]" : "\n  ]"));
}

/// Writes the document {fields} to `path`, one root field per line.
inline void write(const std::string& path, Fields fields) {
  const std::string text = "{\n  " + join(fields, ",\n  ") + "\n}\n";
  std::FILE* out = std::fopen(path.c_str(), "w");
  bool written = out != nullptr && std::fputs(text.c_str(), out) >= 0;
  if (out != nullptr) written = std::fclose(out) == 0 && written;
  if (!written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace json

/// A bench's verdict, gate by gate: every check() names its gate with the
/// measured value and the bound, so a failing run says which gates failed
/// and by how much instead of a bare FAIL.
class Gates {
 public:
  void check(bool ok, const std::string& gate, const std::string& measured,
             const std::string& bound) {
    results_.emplace_back(gate, ok);
    if (!ok) failed_.push_back(gate + ": measured " + measured + ", bound " + bound);
  }
  void zero(const std::string& gate, std::uint64_t measured) {
    check(measured == 0, gate, std::to_string(measured), "== 0");
  }
  void at_least(const std::string& gate, std::uint64_t measured, std::uint64_t bound) {
    check(measured >= bound, gate, std::to_string(measured), ">= " + std::to_string(bound));
  }
  /// Every checked gate as `"gate": passed`, in check order.
  json::Value json() const { return json::object(results_); }
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
  std::vector<std::pair<std::string, bool>> results_;
  std::vector<std::string> failed_;
};

/// A load bench's command line; the fields a bench passes in are its
/// defaults.
struct Flags {
  bool smoke = false;
  std::string out;
  std::size_t shards = 1;
  std::size_t tenants = 1;
};

/// Largest --shards / --tenants value: the router's own shard clamp, which
/// also keeps fleet_load's one thread per tenant trace in the hundreds.
inline constexpr unsigned long kMaxCount = 128;

/// Parses argv into `flags`. Every load bench takes --smoke and --out PATH;
/// `counts` names the numeric flags ("--shards", "--tenants") this bench
/// also takes. An unknown flag, a missing value, or a count that is not a
/// plain decimal in [1, kMaxCount] prints usage and exits 2, before any
/// training starts.
inline Flags parse_flags(int argc, char** argv, Flags flags,
                         std::initializer_list<std::string_view> counts = {}) {
  const auto usage = [&](const std::string& problem) {
    std::string text = "usage: " + std::string(argv[0]) + " [--smoke] [--out PATH]";
    for (const auto count : counts) text += " [" + std::string(count) + " N]";
    std::fprintf(stderr, "%s\n%s\n", problem.c_str(), text.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool takes_count = std::find(counts.begin(), counts.end(), arg) != counts.end();
    if (arg == "--smoke") {
      flags.smoke = true;
      continue;
    }
    if (arg != "--out" && !takes_count) usage("unknown flag '" + std::string(arg) + "'");
    if (i + 1 == argc) usage(std::string(arg) + " needs a value");
    const char* value = argv[++i];
    if (arg == "--out") {
      flags.out = value;
      continue;
    }
    // Digits only: strtoul would wrap "-1" and stop silently at "2x".
    char* end = nullptr;
    errno = 0;
    const unsigned long n = std::strtoul(value, &end, 10);
    if (*value < '0' || *value > '9' || errno != 0 || *end != '\0' || n == 0 ||
        n > kMaxCount) {
      usage("invalid " + std::string(arg) + " value '" + value + "'");
    }
    (arg == "--shards" ? flags.shards : flags.tenants) = static_cast<std::size_t>(n);
  }
  return flags;
}

/// The surrogate every load bench serves over the paper's five key
/// parameters, trained with core::serving_options (rafiki_serverd's
/// profiles).
inline core::Rafiki train_serving_profile(bool smoke) {
  std::printf("training the surrogate ensemble...\n");
  core::Rafiki rafiki(core::serving_options(smoke));
  rafiki.set_key_params(engine::key_params());
  rafiki.train(rafiki.collect());
  return rafiki;
}

/// Publishes `rafiki`'s snapshot to `backend`, attaches `tuner` when given,
/// and starts it.
inline void start_backend(serve::TuningBackend& backend, const core::Rafiki& rafiki,
                          core::OnlineTuner* tuner = nullptr) {
  backend.publish(serve::make_snapshot(rafiki));
  if (tuner != nullptr) backend.attach_tuner(*tuner);
  backend.start();
}

/// A started load-bench backend: one service, or an N-shard router. Each
/// shard runs 2 workers behind a 4096-deep queue, so the closed loops
/// measure serving rather than admission; max_batch is the one knob a phase
/// varies.
inline std::unique_ptr<serve::TuningBackend> start_backend(
    const core::Rafiki& rafiki, std::size_t shards, core::OnlineTuner* tuner = nullptr,
    std::size_t max_batch = serve::ServiceOptions{}.max_batch) {
  serve::ServiceOptions options;
  options.workers = 2;
  options.max_batch = max_batch;
  options.queue_capacity = 4096;
  std::unique_ptr<serve::TuningBackend> backend;
  if (shards > 1) {
    serve::ShardOptions shard_options;
    shard_options.shards = shards;
    shard_options.service = options;
    backend = std::make_unique<serve::ShardedTuningService>(shard_options);
  } else {
    backend = std::make_unique<serve::TuningService>(options);
  }
  start_backend(*backend, rafiki, tuner);
  return backend;
}

/// A started loopback net::Server in front of `backend`. A bench whose
/// server cannot start has nothing to measure, so it exits 1 naming why.
inline std::unique_ptr<net::Server> start_server(serve::TuningBackend& backend,
                                                 const net::ServerOptions& options = {}) {
  auto server = std::make_unique<net::Server>(backend, options);
  if (!server->start()) {
    std::fprintf(stderr, "server start failed: %s\n", server->last_error().c_str());
    std::exit(1);
  }
  return server;
}

/// Runs fn(0) .. fn(n - 1) on n client threads; returns the wall seconds
/// until the last one finished.
template <class Fn>
double run_clients(std::size_t n, Fn&& fn) {
  // det:ok(wall-clock): benchmark timing
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(n);
  for (std::size_t i = 0; i < n; ++i) clients.emplace_back([&fn, i] { fn(i); });
  for (auto& client : clients) client.join();
  return seconds_since(t0);
}

/// How the frames of pipelined wire bursts came back.
struct BurstTally {
  std::uint64_t sent = 0;           ///< frames the client put on the wire
  std::uint64_t send_failed = 0;    ///< send() gave no id: never on the wire
  std::uint64_t ok = 0;
  std::uint64_t stale = 0;          ///< ok answers marked stale (a tuner memo miss)
  std::uint64_t overloaded = 0;     ///< typed backpressure: answered, not lost
  std::uint64_t shutting_down = 0;  ///< typed drain answer
  std::uint64_t lost = 0;           ///< transport failure or any other status

  /// Every request that did not come back kOk, send failures included.
  std::uint64_t failed() const { return send_failed + overloaded + shutting_down + lost; }
};

/// Sends make(0) .. make(n - 1) down `client` without waiting; returns the
/// ids to wait for.
template <class MakeRequest>
std::vector<std::uint64_t> send_burst(net::Client& client, std::size_t n,
                                      MakeRequest&& make, BurstTally& tally) {
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = client.send(make(i));
    if (id == 0) {
      ++tally.send_failed;
    } else {
      ids.push_back(id);
    }
  }
  tally.sent += ids.size();
  return ids;
}

/// Waits for every id and tallies how each came back.
inline void wait_burst(net::Client& client, const std::vector<std::uint64_t>& ids,
                       BurstTally& tally) {
  for (const auto id : ids) {
    const auto result = client.wait(id);
    if (result.net != net::NetStatus::kOk) {
      ++tally.lost;
    } else if (result.response.status == serve::Status::kOk) {
      ++tally.ok;
      if (result.response.stale) ++tally.stale;
    } else if (result.response.status == serve::Status::kOverloaded) {
      ++tally.overloaded;
    } else if (result.response.status == serve::Status::kShuttingDown) {
      ++tally.shutting_down;
    } else {
      ++tally.lost;
    }
  }
}

/// One pipelined burst: send all n requests, then wait for every answer.
template <class MakeRequest>
void pipelined_burst(net::Client& client, std::size_t n, MakeRequest&& make,
                     BurstTally& tally) {
  wait_burst(client, send_burst(client, n, make, tally), tally);
}

/// Exact sample quantile (sorted copy): gates compare client latencies at
/// microsecond scale, where a bucketed histogram would report bin centres.
inline double exact_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

/// The load benches' dynamic-workload regime schedule: each read ratio lands
/// in a different tuner bucket, so every regime change is a memo miss the
/// first time round.
inline constexpr std::array<double, 5> kRegimes = {0.15, 0.85, 0.45, 0.95, 0.25};

/// Read ratio of regime `n` of the schedule (wrapping around).
inline double regime(std::size_t n) { return kRegimes[n % kRegimes.size()]; }

/// Call `i` of a client walking the schedule: a new regime every
/// `window_every` calls, opened by one ObserveWindow (the paper's 15-minute
/// workload-shift cadence compressed into a closed loop) and filled with
/// Predicts against that regime.
inline serve::Request regime_request(std::size_t i, std::size_t window_every) {
  return {.endpoint = i % window_every == 0 ? serve::Endpoint::kObserveWindow
                                            : serve::Endpoint::kPredict,
          .read_ratio = regime(i / window_every)};
}

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
