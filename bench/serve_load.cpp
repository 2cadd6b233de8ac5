// Closed-loop load benchmark for the serving layer (the ROADMAP's
// "production-scale serving" north star):
//
//   A. Microbenchmark — single-row Rafiki::predict vs the batched
//      predict_batch kernel at several batch sizes. The acceptance bar is
//      batch >= 32 reaching >= 4x single-row throughput (same hardware,
//      bit-identical results).
//   B. Service load — concurrent closed-loop clients against the serving
//      backend across a {clients} x {max_batch} grid: QPS, p50/p99 latency
//      and the realized micro-batch size. `--shards N` runs the grid through
//      the ShardedTuningService router instead of a single service.
//   C. Snapshot swap under load — republish fresh model versions while
//      clients hammer Predict; the bar is zero failed or blocked requests.
//   D. Regime changes in the closed loop — clients mix ObserveWindow calls
//      (cycling through read-ratio regimes, so the tuner keeps missing its
//      memo cache) into the Predict stream. With the async RetrainWorker,
//      every miss is answered immediately with a stale-marked config while
//      the GA runs in the background and republishes; the bars are zero
//      failures, stale-marked cache misses, tuned configs appearing in later
//      snapshot versions, and (without sanitizers) ObserveWindow p99, over
//      at least 1,000 windows, below the mean background-retrain latency —
//      proof the request path no longer absorbs optimizer spikes.
//   E. Shard scaling — a callback closed loop (1 / 64 / 256 logical clients,
//      zero client threads; max_batch = 1) against shards in {1, 2, 4, 8}
//      after an untimed route warm-up, with per-shard request / worker-CPU /
//      queue-depth accounting, plus a bit-parity sweep proving the sharded
//      router returns exactly the unsharded (and scalar) predictions. The
//      bar (on >= 8 hardware threads): no shard count below 0.9x unsharded
//      64-client QPS, and — full profile — 4 shards >= 3x unsharded.
//   F. Rebalance under fire — hot bands pinned to one shard, clients
//      hammering them while the router migrates the hottest band away; the
//      bar is zero failed or lost requests and at least one migration.
//
// Results go to stdout (ASCII tables) and BENCH_serve.json. `--smoke` keeps
// everything tiny for CI; `--out <path>` redirects the JSON; `--shards N`
// routes phases B-D through an N-shard router.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "util/rng.h"

using namespace rafiki;
namespace json = rafiki::benchutil::json;

namespace {

/// Samples behind every gated p99: with fewer, the p99 is the maximum.
constexpr std::size_t kP99Samples = 1000;

struct MicroResult {
  std::size_t batch = 0;
  double single_rows_per_s = 0.0;
  double batched_rows_per_s = 0.0;
  double speedup = 0.0;
  bool bitwise_equal = false;
};

struct LoadResult {
  std::size_t clients = 0;
  std::size_t max_batch = 0;
  std::size_t shards = 1;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t spills = 0;
};

struct SwapResult {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t versions_published = 0;
};

struct RegimeResult {
  std::uint64_t predicts = 0;
  std::uint64_t windows = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale_windows = 0;       // cache-miss windows served stale-marked
  std::uint64_t retrain_runs = 0;        // background GA executions
  std::uint64_t versions_published = 0;  // snapshot versions after the run
  std::uint64_t tuned_buckets = 0;       // tuned entries in the final snapshot
  double predict_p99_us = 0.0;
  double observe_p99_us = 0.0;
  double retrain_mean_us = 0.0;  // what each miss *would* have cost inline
};

struct ScalingResult {
  std::size_t shards = 0;
  std::size_t workers = 0;  // fleet-wide resolved worker budget
  double clients1_qps = 0.0;
  double clients64_qps = 0.0;
  double clients256_qps = 0.0;
  /// 64-client QPS relative to the 1-shard row (filled after the sweep).
  double speedup64 = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t spills = 0;
  /// Post-run load rows (the unsharded service is one row); read after
  /// stop(), so worker CPU time is exact.
  std::vector<serve::ShardLoad> per_shard;
};

struct ParityResult {
  std::uint64_t requests = 0;
  bool sharded_equals_unsharded = false;
  bool unsharded_equals_scalar = false;
};

struct RebalanceResult {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t spills = 0;
  bool route_changed = false;
};

std::vector<engine::Config> random_configs(std::size_t n, Rng& rng) {
  const auto& params = engine::key_params();
  std::vector<engine::Config> configs;
  configs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    engine::Config config;
    for (auto id : params) config.set(id, rng.uniform(0.0, 256.0));
    configs.push_back(config);
  }
  return configs;
}

/// Rows per second of `sweep` (one pass over `rows` configs), repeated
/// until at least `pass_s` seconds have elapsed.
template <class Sweep>
double rows_per_s(Sweep&& sweep, std::size_t rows, double pass_s) {
  std::size_t sweeps = 0;
  double elapsed = 0.0;
  // det:ok(wall-clock): benchmark timing
  const auto t0 = std::chrono::steady_clock::now();
  do {
    sweep();
    ++sweeps;
    elapsed = benchutil::seconds_since(t0);
  } while (elapsed < pass_s);
  return static_cast<double>(rows * sweeps) / elapsed;
}

MicroResult micro_bench(const core::Rafiki& rafiki, std::size_t batch, std::size_t rows,
                        double pass_s) {
  Rng rng(4242);
  const auto configs = random_configs(rows, rng);
  const double rr = 0.45;

  std::vector<double> single(rows, 0.0);
  const auto single_sweep = [&] {
    for (std::size_t i = 0; i < rows; ++i) single[i] = rafiki.predict(rr, configs[i]);
  };
  // Batched path, chunked at the requested batch size.
  std::vector<double> batched(rows, 0.0);
  const auto batched_sweep = [&] {
    for (std::size_t lo = 0; lo < rows; lo += batch) {
      const std::size_t hi = std::min(rows, lo + batch);
      const std::vector<engine::Config> chunk(configs.begin() + lo, configs.begin() + hi);
      const auto out = rafiki.predict_batch(rr, chunk);
      for (std::size_t i = lo; i < hi; ++i) batched[i] = out[i - lo];
    }
  };

  // Best of 3 timed passes per path, each sized by elapsed time rather than
  // a row count, with single and batched passes alternating: the scheduler
  // can preempt a pass mid-loop (especially on small machines), and
  // alternation keeps one preemption from covering every pass of one path.
  constexpr std::size_t kPasses = 3;
  MicroResult result;
  result.batch = batch;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    result.single_rows_per_s =
        std::max(result.single_rows_per_s, rows_per_s(single_sweep, rows, pass_s));
    result.batched_rows_per_s =
        std::max(result.batched_rows_per_s, rows_per_s(batched_sweep, rows, pass_s));
  }
  result.speedup = result.batched_rows_per_s / result.single_rows_per_s;
  result.bitwise_equal = (single == batched);
  return result;
}

LoadResult load_bench(const core::Rafiki& rafiki, std::size_t shards, std::size_t clients,
                      std::size_t max_batch, std::size_t calls_per_client) {
  auto service = benchutil::start_backend(rafiki, shards, nullptr, max_batch);
  std::vector<std::uint64_t> failed(clients, 0);
  const double elapsed = benchutil::run_clients(clients, [&](std::size_t c) {
    for (std::size_t i = 0; i < calls_per_client; ++i) {
      const double rr = 0.2 + 0.05 * static_cast<double>(i % 12);
      if (!service->call({.read_ratio = rr}).ok()) ++failed[c];
    }
  });
  service->stop();

  LoadResult result;
  result.clients = clients;
  result.max_batch = max_batch;
  result.shards = shards;
  const auto telemetry = service->telemetry();
  result.ok = telemetry.counters(serve::Endpoint::kPredict).ok;
  for (auto f : failed) result.failed += f;
  result.qps = static_cast<double>(result.ok) / elapsed;
  result.p50_us = telemetry.latency_quantile(serve::Endpoint::kPredict, 0.5);
  result.p99_us = telemetry.latency_quantile(serve::Endpoint::kPredict, 0.99);
  result.mean_batch = telemetry.mean_batch_size();
  result.spills = telemetry.spills;
  return result;
}

SwapResult swap_bench(const core::Rafiki& rafiki, std::size_t shards, std::size_t clients,
                      std::size_t calls_per_client, std::size_t republishes) {
  auto service = benchutil::start_backend(rafiki, shards);
  // Republish fresh versions while the clients are running.
  std::thread publisher([&] {
    for (std::size_t i = 0; i < republishes; ++i) {
      service->publish(serve::make_snapshot(rafiki));
    }
  });
  std::vector<std::uint64_t> failed(clients, 0);
  benchutil::run_clients(clients, [&](std::size_t c) {
    for (std::size_t i = 0; i < calls_per_client; ++i) {
      const double rr = 0.3 + 0.04 * static_cast<double>(i % 10);
      if (!service->call({.read_ratio = rr}).ok()) ++failed[c];
    }
  });
  publisher.join();
  service->stop();

  SwapResult result;
  result.requests = clients * calls_per_client;
  for (auto f : failed) result.failed += f;
  result.versions_published = service->model_version();
  return result;
}

RegimeResult regime_bench(const core::Rafiki& rafiki, std::size_t shards,
                          std::size_t clients, std::size_t calls_per_client,
                          std::size_t window_every) {
  core::OnlineTuner tuner(rafiki);
  auto service = benchutil::start_backend(rafiki, shards, &tuner);

  // Each client walks the same regime schedule.
  std::vector<std::uint64_t> failed(clients, 0);
  std::vector<std::uint64_t> stale(clients, 0);
  benchutil::run_clients(clients, [&](std::size_t c) {
    for (std::size_t i = 0; i < calls_per_client; ++i) {
      const auto response = service->call(benchutil::regime_request(i, window_every));
      if (!response.ok()) ++failed[c];
      if (response.stale) ++stale[c];
    }
  });
  // Let in-flight background optimizations republish before reading the
  // final snapshot state.
  service->wait_retrain_idle();

  RegimeResult result;
  const auto telemetry = service->telemetry();
  result.predicts = telemetry.counters(serve::Endpoint::kPredict).completed;
  result.windows = telemetry.counters(serve::Endpoint::kObserveWindow).completed;
  for (auto f : failed) result.failed += f;
  for (auto s : stale) result.stale_windows += s;
  result.retrain_runs = telemetry.retrain.runs;
  result.versions_published = service->model_version();
  const auto snapshot = service->snapshot();
  result.tuned_buckets = snapshot ? snapshot->tuned.size() : 0;
  result.predict_p99_us = telemetry.latency_quantile(serve::Endpoint::kPredict, 0.99);
  result.observe_p99_us = telemetry.latency_quantile(serve::Endpoint::kObserveWindow, 0.99);
  result.retrain_mean_us = telemetry.mean_retrain_latency_us();
  service->stop();
  return result;
}

ParityResult parity_bench(const core::Rafiki& rafiki, std::size_t shards,
                          std::size_t requests) {
  // Same request stream through the sharded router (batched), an unsharded
  // service (batched), and the scalar predict path — all three must agree to
  // the last bit for sharding to be a pure routing optimization.
  Rng rng(20170711);
  const auto configs = random_configs(requests, rng);
  std::vector<double> rrs(requests);
  for (std::size_t i = 0; i < requests; ++i) rrs[i] = 0.01 * static_cast<double>(i % 101);

  const auto run = [&](std::size_t n_shards) {
    auto service = benchutil::start_backend(rafiki, n_shards, nullptr, 32);
    std::vector<double> means(requests, 0.0);
    for (std::size_t i = 0; i < requests; ++i) {
      means[i] = service->call({.read_ratio = rrs[i], .config = configs[i]}).mean;
    }
    service->stop();
    return means;
  };

  const auto sharded = run(shards);
  const auto unsharded = run(1);
  std::vector<double> scalar(requests, 0.0);
  for (std::size_t i = 0; i < requests; ++i) scalar[i] = rafiki.predict(rrs[i], configs[i]);

  ParityResult result;
  result.requests = requests;
  result.sharded_equals_unsharded = (sharded == unsharded);
  result.unsharded_equals_scalar = (unsharded == scalar);
  return result;
}

RebalanceResult rebalance_bench(const core::Rafiki& rafiki, std::size_t clients,
                                std::size_t calls_per_client) {
  serve::ShardOptions options;
  options.shards = 4;
  options.service.workers = 1;
  options.service.max_batch = 8;
  options.service.queue_capacity = 4096;
  serve::ShardedTuningService service(options);
  benchutil::start_backend(service, rafiki);

  // Skew the initial placement: both hot bands (rr 0.20 and 0.80) on shard
  // 0, so the router has something to migrate.
  service.route_band(20, 0);
  service.route_band(80, 0);

  // Rebalance continuously while the clients are firing. The clients keep
  // firing past their quota until the balancer has made one pass that saw
  // hits (a pass that starts after a call returned, since routing counts the
  // hit before the call is served), so a fast client fleet cannot finish
  // before the balancer first looks; kBalancerWait caps the wait.
  constexpr double kBalancerWait = 5.0;
  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> pass_saw_hits{false};
  std::thread balancer([&] {
    while (running.load(std::memory_order_relaxed)) {
      const bool hits = answered.load(std::memory_order_acquire) > 0;
      service.rebalance_hottest();
      if (hits) pass_saw_hits.store(true, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::uint64_t> failed(clients, 0);
  std::vector<std::uint64_t> calls(clients, 0);
  // det:ok(wall-clock): bounds how long the clients wait for the balancer
  const auto t0 = std::chrono::steady_clock::now();
  benchutil::run_clients(clients, [&](std::size_t c) {
    for (std::size_t i = 0;
         i < calls_per_client || (!pass_saw_hits.load(std::memory_order_relaxed) &&
                                  benchutil::seconds_since(t0) < kBalancerWait);
         ++i) {
      if (!service.call({.read_ratio = (i % 2 == 0) ? 0.2 : 0.8}).ok()) ++failed[c];
      ++calls[c];
      answered.fetch_add(1, std::memory_order_release);
    }
  });
  running.store(false, std::memory_order_relaxed);
  balancer.join();
  service.stop();

  RebalanceResult result;
  for (auto n : calls) result.requests += n;
  for (auto f : failed) result.failed += f;
  const auto telemetry = service.telemetry();
  result.rebalances = telemetry.rebalances;
  result.spills = telemetry.spills;
  result.route_changed =
      service.shard_of_band(20) != 0 || service.shard_of_band(80) != 0;
  // The merged completed count must account for every submitted request —
  // nothing lost across migrations.
  std::uint64_t completed = 0;
  for (const auto& endpoint : telemetry.endpoints) completed += endpoint.counters.completed;
  if (completed != result.requests) result.failed += result.requests;
  return result;
}

/// Shared state of one closed-loop run: `concurrency` logical clients, each a
/// self-perpetuating submit -> completion -> next-submit chain, drawing
/// tickets from one global counter until `total` requests have been issued.
struct ClosedLoop {
  serve::TuningBackend* service = nullptr;
  std::uint64_t total = 0;
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> live{0};  // chains still running
  std::promise<void> done;
};

/// Advances one chain: takes the next ticket and submits it; the completion
/// callback (running on whichever worker served the request) re-enters here
/// for the next ticket. An inline rejection (Overloaded at every shard)
/// continues the loop on this thread instead of recursing, so the stack
/// stays flat no matter how hot the admission path runs.
void run_chain(const std::shared_ptr<ClosedLoop>& loop) {
  for (;;) {
    const std::uint64_t ticket = loop->issued.fetch_add(1, std::memory_order_relaxed);
    if (ticket >= loop->total) {
      if (loop->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        loop->done.set_value();
      }
      return;
    }
    // Cycle the full band space so the router actually spreads the stream
    // over every shard (and the unsharded run sees the identical mix).
    serve::Status admitted = loop->service->try_submit(
        {.read_ratio = 0.01 * static_cast<double>(ticket % 101)},
        [loop](serve::Response response) {
          if (response.ok()) {
            loop->ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            loop->failed.fetch_add(1, std::memory_order_relaxed);
          }
          run_chain(loop);
        });
    if (admitted == serve::Status::kOk) return;  // chain continues on completion
    loop->failed.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Runs `total` requests through `concurrency` chains; returns QPS (completed
/// ok per wall second) and accumulates failures into `failed_out`.
double closed_loop_qps(serve::TuningBackend& service, std::size_t concurrency,
                       std::uint64_t total, std::uint64_t& failed_out) {
  auto loop = std::make_shared<ClosedLoop>();
  loop->service = &service;
  loop->total = total;
  loop->live.store(concurrency, std::memory_order_relaxed);
  auto finished = loop->done.get_future();
  // det:ok(wall-clock): benchmark timing
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < concurrency; ++c) run_chain(loop);
  finished.wait();
  const double elapsed = benchutil::seconds_since(t0);
  failed_out += loop->failed.load(std::memory_order_relaxed);
  return elapsed > 0.0 ? static_cast<double>(loop->ok.load(std::memory_order_relaxed)) /
                             elapsed
                       : 0.0;
}

ScalingResult scaling_bench(const core::Rafiki& rafiki, std::size_t n_shards,
                            std::uint64_t calls1, std::uint64_t total64,
                            std::uint64_t total256) {
  auto service = benchutil::start_backend(rafiki, n_shards, nullptr, 1);

  ScalingResult result;
  result.shards = n_shards;

  // Route warm-up: one untimed request per band primes every shard's worker
  // pool, queue, snapshot deref, and stats stripes. The 1-client row used to
  // absorb all of that cold-start cost into its first timed requests (the
  // "1 client beats 8" anomaly in earlier runs of this table).
  for (std::size_t band = 0; band < 101; ++band) {
    (void)service->call({.read_ratio = 0.01 * static_cast<double>(band)});
  }

  result.clients1_qps = closed_loop_qps(*service, 1, calls1, result.failed);
  result.clients64_qps = closed_loop_qps(*service, 64, total64, result.failed);
  result.clients256_qps = closed_loop_qps(*service, 256, total256, result.failed);
  service->stop();
  const auto telemetry = service->telemetry();
  result.spills = telemetry.spills;
  result.per_shard = telemetry.shards;
  for (const auto& shard : result.per_shard) result.workers += shard.workers;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags =
      benchutil::parse_flags(argc, argv, {.out = "BENCH_serve.json"}, {"--shards"});
  const bool smoke = flags.smoke;
  const std::size_t shards = flags.shards;
  const core::Rafiki rafiki = benchutil::train_serving_profile(smoke);

  // Phase A: batched-kernel microbenchmark.
  // Even the smoke profile needs multi-millisecond timing passes: with
  // ~1 ms per pass the speedup ratio is scheduler noise, not a measurement.
  const std::size_t rows = smoke ? 1024 : 4096;
  const double pass_s = smoke ? 0.02 : 0.1;
  std::vector<MicroResult> micro;
  for (std::size_t batch : {8u, 32u, 64u}) {
    micro.push_back(micro_bench(rafiki, batch, rows, pass_s));
  }
  Table micro_table({"batch", "single rows/s", "batched rows/s", "speedup", "bitwise =="});
  for (const auto& m : micro) {
    micro_table.add_row({std::to_string(m.batch), Table::ops(m.single_rows_per_s),
                         Table::ops(m.batched_rows_per_s),
                         Table::num(m.speedup, 2) + "x", m.bitwise_equal ? "yes" : "NO"});
  }
  benchutil::emit(micro_table, "Phase A: predict vs predict_batch");
  const auto& accept = micro[1];  // batch == 32, the acceptance row
  benchutil::compare("predict_batch(32) vs predict speedup", ">= 4x",
                     Table::num(accept.speedup, 2) + "x");

  // Phase B: closed-loop service load grid. The single-client rows carry
  // gate B, a p99: they make at least kP99Samples calls, so the p99 is the
  // 10th-slowest call rather than the slowest.
  const std::size_t calls = smoke ? 60 : 400;
  std::vector<LoadResult> load;
  for (std::size_t clients : {1u, 4u, 8u}) {
    const std::size_t per_client = clients == 1 ? std::max(calls, kP99Samples) : calls;
    for (std::size_t max_batch : {1u, 32u}) {
      load.push_back(load_bench(rafiki, shards, clients, max_batch, per_client));
    }
  }
  Table load_table({"clients", "max batch", "shards", "QPS", "p50 us", "p99 us",
                    "mean batch", "failed"});
  for (const auto& l : load) {
    load_table.add_row({std::to_string(l.clients), std::to_string(l.max_batch),
                        std::to_string(l.shards), Table::ops(l.qps),
                        Table::num(l.p50_us, 1), Table::num(l.p99_us, 1),
                        Table::num(l.mean_batch, 2), std::to_string(l.failed)});
  }
  benchutil::emit(load_table, "Phase B: closed-loop service load");
  const LoadResult* single_batched = nullptr;
  for (const auto& l : load) {
    if (l.clients == 1 && l.max_batch == 32) single_batched = &l;
  }
  benchutil::compare("single-client batched p99 (1000 calls)", "< 1000 us",
                     Table::num(single_batched->p99_us, 1) + " us");

  // Phase C: snapshot swaps during active load.
  const auto swap = swap_bench(rafiki, shards, 4, smoke ? 60 : 300, smoke ? 20 : 100);
  benchutil::section("Phase C: snapshot swap under load");
  std::printf("%llu requests across %llu published versions, %llu failed\n",
              static_cast<unsigned long long>(swap.requests),
              static_cast<unsigned long long>(swap.versions_published),
              static_cast<unsigned long long>(swap.failed));
  benchutil::compare("failed/blocked requests during snapshot swaps", "0",
                     std::to_string(swap.failed));

  // Phase D: regime changes mixed into the closed loop — the async-retrain
  // acceptance scenario. Both profiles serve kP99Samples windows, so gate
  // D's ObserveWindow p99 is a quantile, not the slowest window.
  const auto regime = regime_bench(rafiki, shards, smoke ? 4 : 8, smoke ? 1000 : 2000,
                                   smoke ? 4 : 16);
  Table regime_table({"metric", "value"});
  regime_table.add_row({"Predict completed", std::to_string(regime.predicts)});
  regime_table.add_row({"ObserveWindow completed", std::to_string(regime.windows)});
  regime_table.add_row({"failed requests", std::to_string(regime.failed)});
  regime_table.add_row({"stale-served windows", std::to_string(regime.stale_windows)});
  regime_table.add_row({"background retrain runs", std::to_string(regime.retrain_runs)});
  regime_table.add_row({"snapshot versions", std::to_string(regime.versions_published)});
  regime_table.add_row({"tuned buckets in final snapshot",
                        std::to_string(regime.tuned_buckets)});
  regime_table.add_row({"Predict p99 us", Table::num(regime.predict_p99_us, 1)});
  regime_table.add_row({"ObserveWindow p99 us", Table::num(regime.observe_p99_us, 1)});
  regime_table.add_row({"retrain mean us (off-path)",
                        Table::num(regime.retrain_mean_us, 1)});
  benchutil::emit(regime_table, "Phase D: regime changes in the closed loop");
  benchutil::compare("failed requests across regime changes", "0",
                     std::to_string(regime.failed));
  benchutil::compare("ObserveWindow p99 vs inline GA cost",
                     "p99 << retrain mean",
                     Table::num(regime.observe_p99_us, 1) + " us vs " +
                         Table::num(regime.retrain_mean_us, 1) + " us");

  // Phase E: shard scaling sweep + bit parity across backends. A callback
  // closed loop (64 / 256 logical clients, zero client threads) drives each
  // shard count after an untimed route warm-up; the speedup column is each
  // row's 64-client QPS over the unsharded row's — the number that used to
  // go BELOW 1.0 at 8 shards before the fleet worker budget (DESIGN.md §5d).
  const std::uint64_t calls1 = smoke ? 200 : 2000;
  const std::uint64_t total64 = smoke ? 64 * 20 : 64 * 300;
  const std::uint64_t total256 = smoke ? 256 * 8 : 256 * 100;
  std::vector<ScalingResult> scaling;
  for (std::size_t n_shards : {1u, 2u, 4u, 8u}) {
    scaling.push_back(scaling_bench(rafiki, n_shards, calls1, total64, total256));
  }
  const double base64 = scaling.front().clients64_qps;
  for (auto& s : scaling) s.speedup64 = base64 > 0.0 ? s.clients64_qps / base64 : 0.0;
  Table scaling_table({"shards", "workers", "QPS (1 client)", "QPS (64 clients)",
                       "QPS (256 clients)", "vs 1 shard", "failed"});
  for (const auto& s : scaling) {
    scaling_table.add_row({std::to_string(s.shards), std::to_string(s.workers),
                           Table::ops(s.clients1_qps), Table::ops(s.clients64_qps),
                           Table::ops(s.clients256_qps),
                           Table::num(s.speedup64, 2) + "x", std::to_string(s.failed)});
  }
  benchutil::emit(scaling_table, "Phase E: shard scaling (closed loop, max_batch = 1)");
  for (const auto& s : scaling) {
    std::string split;
    for (std::size_t j = 0; j < s.per_shard.size(); ++j) {
      split += (j > 0 ? "/" : "") + std::to_string(s.per_shard[j].predict_completed);
    }
    benchutil::note(std::to_string(s.shards) + " shard(s): requests per shard = " +
                    split);
  }
  const auto parity = parity_bench(rafiki, 4, smoke ? 128 : 512);
  benchutil::compare("sharded == unsharded == scalar predictions", "bit-identical",
                     parity.sharded_equals_unsharded && parity.unsharded_equals_scalar
                         ? "yes"
                         : "NO");

  // Phase F: hot-band rebalance while clients hammer the hot shards.
  const auto rebalance = rebalance_bench(rafiki, 4, smoke ? 200 : 1000);
  benchutil::section("Phase F: rebalance under load");
  std::printf("%llu requests, %llu failed, %llu migrations (%llu spills), route %s\n",
              static_cast<unsigned long long>(rebalance.requests),
              static_cast<unsigned long long>(rebalance.failed),
              static_cast<unsigned long long>(rebalance.rebalances),
              static_cast<unsigned long long>(rebalance.spills),
              rebalance.route_changed ? "migrated" : "UNCHANGED");
  benchutil::compare("failed/lost requests across rebalance", "0",
                     std::to_string(rebalance.failed));

  // Sanitizer builds run this as a concurrency smoke: correctness gates
  // (bitwise equality, zero failures) still apply, but the speedup bars are
  // only meaningful without instrumentation overhead (benchutil::kPerfGate).
  // The shard-scaling bars additionally need 8 hardware threads for the
  // shards to run on; on smaller machines the sweep still runs (and its
  // numbers are recorded) but the ratios are not gated.
  const bool scaling_gate = benchutil::kPerfGate && std::thread::hardware_concurrency() >= 8;

  // What the recorded numbers were NOT held to, so a BENCH_serve.json from a
  // sanitizer build or a small machine is self-describing.
  std::vector<std::string> gates_skipped;
  if (!benchutil::kPerfGate) gates_skipped.push_back("perf");
  if (benchutil::kPerfGate && std::thread::hardware_concurrency() < 2) {
    gates_skipped.push_back("offpath_retrain");
  }
  if (!scaling_gate) gates_skipped.push_back("shard_scaling");
  json::write(flags.out, {
      {"bench", "serve_load"}, {"smoke", smoke}, {"shards", shards},
      {"hw_threads", benchutil::hw_threads()}, {"gates_skipped", gates_skipped},
      {"microbench", json::rows(micro, [](const MicroResult& m) {
         return json::object({{"batch", m.batch},
                              {"single_rows_per_s", json::fixed(m.single_rows_per_s, 1)},
                              {"batched_rows_per_s", json::fixed(m.batched_rows_per_s, 1)},
                              {"speedup", json::fixed(m.speedup, 2)},
                              {"bitwise_equal", m.bitwise_equal}});
       })},
      {"service_load", json::rows(load, [](const LoadResult& l) {
         return json::object({{"clients", l.clients}, {"max_batch", l.max_batch},
                              {"shards", l.shards}, {"qps", json::fixed(l.qps, 1)},
                              {"p50_us", json::fixed(l.p50_us, 1)},
                              {"p99_us", json::fixed(l.p99_us, 1)},
                              {"mean_batch", json::fixed(l.mean_batch, 2)}, {"ok", l.ok},
                              {"failed", l.failed}, {"spills", l.spills}});
       })},
      {"swap_under_load",
       json::object({{"requests", swap.requests}, {"failed", swap.failed},
                     {"versions_published", swap.versions_published}})},
      {"regime_changes",
       json::object({{"predicts", regime.predicts}, {"windows", regime.windows},
                     {"failed", regime.failed}, {"stale_windows", regime.stale_windows},
                     {"retrain_runs", regime.retrain_runs},
                     {"versions_published", regime.versions_published},
                     {"tuned_buckets", regime.tuned_buckets},
                     {"predict_p99_us", json::fixed(regime.predict_p99_us, 1)},
                     {"observe_p99_us", json::fixed(regime.observe_p99_us, 1)},
                     {"retrain_mean_us", json::fixed(regime.retrain_mean_us, 1)}})},
      {"shard_scaling", json::rows(scaling, [](const ScalingResult& s) {
         return json::object(
             {{"shards", s.shards}, {"workers", s.workers},
              {"clients1_qps", json::fixed(s.clients1_qps, 1)},
              {"clients64_qps", json::fixed(s.clients64_qps, 1)},
              {"clients256_qps", json::fixed(s.clients256_qps, 1)},
              {"speedup64_vs_1shard", json::fixed(s.speedup64, 2)}, {"failed", s.failed},
              {"spills", s.spills},
              {"per_shard", json::array(s.per_shard, [](const serve::ShardLoad& p) {
                 return json::object(
                     {{"requests", p.predict_completed}, {"workers", p.workers},
                      {"cpu_s", json::fixed(static_cast<double>(p.worker_cpu_us) / 1e6, 3)},
                      {"mean_queue_depth", json::fixed(p.mean_queue_depth, 2)},
                      {"max_queue_depth", json::fixed(p.max_queue_depth, 0)}});
               })}});
       })},
      {"sharded_parity",
       json::object({{"requests", parity.requests},
                     {"sharded_equals_unsharded", parity.sharded_equals_unsharded},
                     {"unsharded_equals_scalar", parity.unsharded_equals_scalar}})},
      {"rebalance_under_load",
       json::object({{"requests", rebalance.requests}, {"failed", rebalance.failed},
                     {"rebalances", rebalance.rebalances}, {"spills", rebalance.spills},
                     {"route_changed", rebalance.route_changed}})},
  });

  const auto count = [](std::uint64_t n) { return std::to_string(n); };
  benchutil::Gates gates;
  if (benchutil::kPerfGate) {
    gates.check(accept.speedup >= 4.0, "A predict_batch(32) speedup",
                Table::num(accept.speedup, 2) + "x", ">= 4x");
  }
  for (const auto& m : micro) {
    gates.check(m.bitwise_equal, "A batch " + std::to_string(m.batch) + " bitwise equal",
                "differs", "bit-identical");
  }
  for (const auto& l : load) {
    gates.zero("B failed calls (" + std::to_string(l.clients) + " clients, max batch " +
                   std::to_string(l.max_batch) + ")",
               l.failed);
  }
  gates.zero("C failed calls during swaps", swap.failed);
  // Phase D structural gates (always on): nothing fails across background
  // republishes, cache-miss windows are answered stale-marked instead of
  // blocking on the GA, and the tuned configs show up in later snapshot
  // versions.
  gates.zero("D failed calls", regime.failed);
  gates.at_least("D stale-served windows", regime.stale_windows, 1);
  gates.at_least("D background retrain runs", regime.retrain_runs, 1);
  gates.at_least("D tuned buckets in final snapshot", regime.tuned_buckets, 1);
  gates.check(regime.versions_published > 1, "D snapshot versions",
              count(regime.versions_published), "> 1");
  // Perf gates: serving a window must be far cheaper than the GA it no
  // longer runs inline, and the adaptive batcher must keep a lone batched
  // client at sub-millisecond p99 (both distorted by sanitizers). The
  // off-path-retrain bar additionally needs a core for the background
  // thread to run on — with a single hardware thread the GA preempts the
  // request worker and the tail absorbs it regardless of architecture.
  // Both p99s are taken over at least kP99Samples calls.
  if (benchutil::kPerfGate && std::thread::hardware_concurrency() >= 2) {
    gates.check(regime.windows >= kP99Samples &&
                    regime.observe_p99_us < regime.retrain_mean_us,
                "D ObserveWindow p99",
                Table::num(regime.observe_p99_us, 1) + " us over " + count(regime.windows) +
                    " windows",
                "< retrain mean " + Table::num(regime.retrain_mean_us, 1) + " us over >= " +
                    count(kP99Samples));
  }
  if (benchutil::kPerfGate) {
    gates.check(single_batched->ok >= kP99Samples && single_batched->p99_us < 1000.0,
                "B single-client batched p99",
                Table::num(single_batched->p99_us, 1) + " us over " +
                    count(single_batched->ok) + " calls",
                "< 1000 us over >= " + count(kP99Samples));
  }
  // Sharding gates: structural ones always on (zero failures, parity,
  // a real migration); the scaling ratios only where 8 clients can
  // actually run in parallel.
  for (const auto& s : scaling) {
    gates.zero("E failed calls (" + std::to_string(s.shards) + " shards)", s.failed);
  }
  gates.check(parity.sharded_equals_unsharded && parity.unsharded_equals_scalar,
              "E sharded == unsharded == scalar predictions", "differs", "bit-identical");
  gates.zero("F failed or lost calls", rebalance.failed);
  gates.check(rebalance.rebalances >= 1 && rebalance.route_changed, "F migrations",
              count(rebalance.rebalances) +
                  (rebalance.route_changed ? ", route migrated" : ", route unchanged"),
              ">= 1, route migrated");
  if (scaling_gate) {
    // No-regression bar (smoke and full, the CI assertion): no shard count
    // may fall below 0.9x the unsharded 64-client throughput — the exact
    // de-scaling the fleet worker budget removed.
    for (const auto& s : scaling) {
      gates.check(s.speedup64 >= 0.9,
                  "E " + std::to_string(s.shards) + "-shard 64-client QPS vs 1 shard",
                  Table::num(s.speedup64, 2) + "x", ">= 0.9x");
    }
    // Full-profile bar: 4 shards reach >= 3x unsharded at 64 clients.
    if (!smoke) {
      double four = 0.0;
      for (const auto& s : scaling) {
        if (s.shards == 4) four = s.speedup64;
      }
      gates.check(four >= 3.0, "E 4-shard 64-client QPS vs 1 shard",
                  Table::num(four, 2) + "x", ">= 3x");
    }
  }
  return gates.verdict("serve_load", gates_skipped);
}
