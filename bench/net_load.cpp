// Closed-loop load benchmark for the RPC front-end (net::Server + Client
// over loopback), the wire counterpart of serve_load:
//
//   A. Wire load — a fleet of closed-loop clients (one net::Client per
//      thread) hammers Predict through real sockets across a
//      {clients} x {pipeline depth} grid: wire QPS, request p50/p99 as the
//      client observes them, and the server-side wire latency histograms
//      from ServiceStats. Gates: zero transport failures, zero decode
//      errors, frames_out == frames_in.
//   B. Mixed endpoints — Predict with periodic ObserveWindow regime shifts
//      through the wire (the paper's dynamic-workload loop, now with the
//      network in the path). Gate: zero failures, the background retrain
//      still republishes.
//   C. Drain under fire — clients keep a deep pipeline in flight while the
//      server stops. Gates: every submitted frame is answered (kOk or a
//      typed ShuttingDown — nothing lost, nothing dropped), zero decode
//      errors across the whole run.
//
// Results go to stdout (ASCII tables) and BENCH_net.json. `--smoke` keeps
// everything tiny for CI; `--out <path>` redirects the JSON; `--shards N`
// runs every phase against the ShardedTuningService router instead of a
// single service (same gates — the wire contract is backend-agnostic). The
// server's IO loops wait on level-triggered poll() sets; a failing run names
// every gate it failed with the measured value and the bound.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"

using namespace rafiki;
namespace json = rafiki::benchutil::json;

namespace {

struct WireLoadResult {
  std::size_t clients = 0;
  std::size_t pipeline = 0;
  double qps = 0.0;
  double client_p50_us = 0.0;
  double client_p99_us = 0.0;
  double server_wire_p99_us = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t transport_failures = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
};

struct MixedResult {
  std::uint64_t predicts = 0;
  std::uint64_t windows = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale_windows = 0;
  std::uint64_t versions_published = 0;
};

struct DrainResult {
  std::uint64_t submitted = 0;
  std::uint64_t answered_ok = 0;
  std::uint64_t answered_shutdown = 0;
  std::uint64_t lost = 0;
  std::uint64_t decode_errors = 0;
};

/// Phase A: a fleet of closed-loop clients, each making `calls` Predicts in
/// pipelined bursts of depth `pipeline` and recording one latency sample per
/// burst (burst time / burst size).
WireLoadResult wire_load(const core::Rafiki& rafiki, std::size_t shards,
                         std::size_t clients, std::size_t pipeline, std::size_t calls) {
  auto service = benchutil::start_backend(rafiki, shards);
  net::ServerOptions server_options;
  server_options.io_threads = 2;
  server_options.max_pipeline = pipeline + 1;  // the bench never self-throttles
  const auto server = benchutil::start_server(*service, server_options);

  std::vector<std::vector<double>> latencies(clients);
  std::vector<benchutil::BurstTally> tallies(clients);
  const double elapsed = benchutil::run_clients(clients, [&](std::size_t c) {
    net::Client client;
    if (client.connect("127.0.0.1", server->port()) != net::NetStatus::kOk) {
      tallies[c].send_failed += calls;
      return;
    }
    const double rr_base = 0.2 + 0.05 * static_cast<double>(c % 4);
    for (std::size_t i = 0; i < calls; i += pipeline) {
      const std::size_t burst = std::min(pipeline, calls - i);
      // det:ok(wall-clock): benchmark timing
      const auto t0 = std::chrono::steady_clock::now();
      benchutil::pipelined_burst(client, burst, [&](std::size_t b) {
        return serve::Request{.read_ratio = rr_base + 0.01 * static_cast<double>((i + b) % 30)};
      }, tallies[c]);
      latencies[c].push_back(1e6 * benchutil::seconds_since(t0) /
                             static_cast<double>(burst));
    }
  });
  server->stop();
  service->stop();

  WireLoadResult result;
  result.clients = clients;
  result.pipeline = pipeline;
  std::vector<double> merged;
  for (std::size_t c = 0; c < clients; ++c) {
    result.ok += tallies[c].ok;
    result.transport_failures += tallies[c].failed();
    merged.insert(merged.end(), latencies[c].begin(), latencies[c].end());
  }
  result.qps = static_cast<double>(result.ok) / elapsed;
  result.client_p50_us = benchutil::exact_quantile(merged, 0.5);
  result.client_p99_us = benchutil::exact_quantile(merged, 0.99);
  const auto counters = service->stats().wire_counters();
  result.decode_errors = counters.decode_errors;
  result.frames_in = counters.frames_in;
  result.frames_out = counters.frames_out;
  result.server_wire_p99_us =
      service->stats().wire_latency_quantile(serve::Endpoint::kPredict, 0.99);
  return result;
}

MixedResult mixed_load(const core::Rafiki& rafiki, std::size_t shards,
                       std::size_t clients, std::size_t calls_per_client,
                       std::size_t window_every) {
  core::OnlineTuner tuner(rafiki);
  auto service = benchutil::start_backend(rafiki, shards, &tuner);
  const auto server = benchutil::start_server(*service);

  std::vector<benchutil::BurstTally> tallies(clients);
  benchutil::run_clients(clients, [&](std::size_t c) {
    net::Client client;
    if (client.connect("127.0.0.1", server->port()) != net::NetStatus::kOk) {
      tallies[c].send_failed += calls_per_client;
      return;
    }
    for (std::size_t i = 0; i < calls_per_client; ++i) {
      benchutil::pipelined_burst(client, 1, [&](std::size_t) {
        return benchutil::regime_request(i, window_every);
      }, tallies[c]);
    }
  });
  service->wait_retrain_idle();
  server->stop();

  MixedResult result;
  const auto telemetry = service->telemetry();
  result.predicts = telemetry.counters(serve::Endpoint::kPredict).completed;
  result.windows = telemetry.counters(serve::Endpoint::kObserveWindow).completed;
  for (const auto& tally : tallies) {
    result.failed += tally.failed();
    result.stale_windows += tally.stale;
  }
  result.versions_published = service->model_version();
  service->stop();
  return result;
}

DrainResult drain_under_fire(const core::Rafiki& rafiki, std::size_t shards,
                             std::size_t clients, std::size_t pipeline) {
  // Frames each client sends once the drain has begun.
  constexpr std::size_t kTail = 4;
  auto service = benchutil::start_backend(rafiki, shards);
  net::ServerOptions server_options;
  server_options.max_pipeline = pipeline + kTail + 1;
  const auto server = benchutil::start_server(*service, server_options);

  // Every client fills a deep pipeline, then the server drains while all of
  // it is in flight. The contract under test: each submitted id comes back
  // as a typed response — kOk or kShuttingDown — and none are lost.
  //
  // Every fourth frame of the pipeline is an Optimize, a GA run on a
  // service worker, so work is parked on the workers when the drain starts
  // (the IO loop answers Predicts inline, well before stop() lands). The
  // stopper waits until every pipeline is fully sent and the server has
  // started decoding, then pulls the plug. Each client then sends a short
  // tail on its still-open connection: the draining server must answer
  // those frames kShuttingDown, not drop them.
  std::vector<benchutil::BurstTally> tallies(clients);
  std::atomic<std::size_t> senders_done{0};
  std::thread stopper([&] {
    while (senders_done.load(std::memory_order_acquire) < clients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::uint64_t total_sent = 0;
    for (const auto& tally : tallies) total_sent += tally.sent;
    while (total_sent != 0 && service->stats().wire_counters().frames_in == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server->stop();
  });
  benchutil::run_clients(clients, [&](std::size_t c) {
    net::Client client;
    if (client.connect("127.0.0.1", server->port()) != net::NetStatus::kOk) {
      senders_done.fetch_add(1, std::memory_order_release);
      return;
    }
    auto ids = benchutil::send_burst(client, pipeline, [](std::size_t i) {
      return serve::Request{
          .endpoint = i % 4 == 0 ? serve::Endpoint::kOptimize : serve::Endpoint::kPredict,
          .read_ratio = 0.3 + 0.02 * static_cast<double>(i % 20)};
    }, tallies[c]);
    senders_done.fetch_add(1, std::memory_order_release);
    while (server->running()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    const auto tail = benchutil::send_burst(client, kTail, [](std::size_t) {
      return serve::Request{.read_ratio = 0.5};
    }, tallies[c]);
    ids.insert(ids.end(), tail.begin(), tail.end());
    benchutil::wait_burst(client, ids, tallies[c]);
  });
  stopper.join();
  service->stop();

  DrainResult result;
  for (const auto& tally : tallies) {
    result.submitted += tally.sent;
    // Typed backpressure is an answer too: answered, not lost.
    result.answered_ok += tally.ok + tally.overloaded;
    result.answered_shutdown += tally.shutting_down;
    result.lost += tally.lost;
  }
  result.decode_errors = service->stats().wire_counters().decode_errors;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = benchutil::parse_flags(argc, argv, {.out = "BENCH_net.json"}, {"--shards"});
  const bool smoke = flags.smoke;
  const std::size_t shards = flags.shards;
  const core::Rafiki rafiki = benchutil::train_serving_profile(smoke);

  // Phase A: wire load grid.
  const std::size_t calls = smoke ? 64 : 512;
  std::vector<WireLoadResult> load;
  for (std::size_t clients : {1u, 4u}) {
    for (std::size_t pipeline : {1u, 16u}) {
      load.push_back(wire_load(rafiki, shards, clients, pipeline, calls));
    }
  }
  Table load_table({"clients", "pipeline", "QPS", "client p50 us", "client p99 us",
                    "server wire p99 us", "failed", "decode errors"});
  for (const auto& l : load) {
    load_table.add_row({std::to_string(l.clients), std::to_string(l.pipeline),
                        Table::ops(l.qps), Table::num(l.client_p50_us, 1),
                        Table::num(l.client_p99_us, 1),
                        Table::num(l.server_wire_p99_us, 1),
                        std::to_string(l.transport_failures),
                        std::to_string(l.decode_errors)});
  }
  benchutil::emit(load_table, "Phase A: closed-loop wire load (loopback RPC)");

  // Phase B: mixed endpoints with regime shifts through the wire.
  const auto mixed =
      mixed_load(rafiki, shards, smoke ? 2 : 4, smoke ? 40 : 200, smoke ? 10 : 25);
  Table mixed_table({"metric", "value"});
  mixed_table.add_row({"Predict completed", std::to_string(mixed.predicts)});
  mixed_table.add_row({"ObserveWindow completed", std::to_string(mixed.windows)});
  mixed_table.add_row({"failed calls", std::to_string(mixed.failed)});
  mixed_table.add_row({"stale-served windows", std::to_string(mixed.stale_windows)});
  mixed_table.add_row({"snapshot versions", std::to_string(mixed.versions_published)});
  benchutil::emit(mixed_table, "Phase B: mixed endpoints through the wire");
  benchutil::compare("failed calls with the network in the path", "0",
                     std::to_string(mixed.failed));

  // Phase C: graceful drain with deep pipelines in flight.
  const auto drain =
      drain_under_fire(rafiki, shards, smoke ? 2 : 4, smoke ? 16 : 64);
  Table drain_table({"metric", "value"});
  drain_table.add_row({"frames submitted", std::to_string(drain.submitted)});
  drain_table.add_row({"answered Ok", std::to_string(drain.answered_ok)});
  drain_table.add_row({"answered ShuttingDown", std::to_string(drain.answered_shutdown)});
  drain_table.add_row({"lost / unanswered", std::to_string(drain.lost)});
  drain_table.add_row({"decode errors", std::to_string(drain.decode_errors)});
  benchutil::emit(drain_table, "Phase C: drain with pipelines in flight");
  benchutil::compare("frames lost across a server drain", "0",
                     std::to_string(drain.lost));

  // Every net_load gate is structural (transport correctness) and runs on
  // any machine, sanitizers included — nothing is ever skipped.
  json::write(flags.out, {
      {"bench", "net_load"}, {"smoke", smoke}, {"shards", shards},
      {"hw_threads", benchutil::hw_threads()}, {"gates_skipped", std::vector<std::string>{}},
      {"wire_load", json::rows(load, [](const WireLoadResult& l) {
         return json::object({{"clients", l.clients}, {"pipeline", l.pipeline},
                              {"qps", json::fixed(l.qps, 1)},
                              {"client_p50_us", json::fixed(l.client_p50_us, 1)},
                              {"client_p99_us", json::fixed(l.client_p99_us, 1)},
                              {"server_wire_p99_us", json::fixed(l.server_wire_p99_us, 1)},
                              {"ok", l.ok}, {"transport_failures", l.transport_failures},
                              {"decode_errors", l.decode_errors}, {"frames_in", l.frames_in},
                              {"frames_out", l.frames_out}});
       })},
      {"mixed_endpoints",
       json::object({{"predicts", mixed.predicts}, {"windows", mixed.windows},
                     {"failed", mixed.failed}, {"stale_windows", mixed.stale_windows},
                     {"versions_published", mixed.versions_published}})},
      {"drain_under_fire",
       json::object({{"submitted", drain.submitted}, {"answered_ok", drain.answered_ok},
                     {"answered_shutdown", drain.answered_shutdown}, {"lost", drain.lost},
                     {"decode_errors", drain.decode_errors}})},
  });

  // Gates: transport correctness always (sanitizers included) — zero decode
  // errors, zero dropped responses, wire accounting balanced.
  const auto count = [](std::uint64_t n) { return std::to_string(n); };
  benchutil::Gates gates;
  gates.zero("B failed calls", mixed.failed);
  gates.at_least("B stale-served windows", mixed.stale_windows, 1);
  gates.check(mixed.versions_published > 1, "B snapshot versions",
              count(mixed.versions_published), "> 1");
  gates.zero("C frames lost in the drain", drain.lost);
  gates.at_least("C frames answered ShuttingDown", drain.answered_shutdown, 1);
  gates.zero("C decode errors", drain.decode_errors);
  gates.check(drain.answered_ok + drain.answered_shutdown == drain.submitted,
              "C frames answered in the drain",
              count(drain.answered_ok + drain.answered_shutdown),
              "== " + count(drain.submitted) + " submitted");
  for (const auto& l : load) {
    const std::string point = "A[" + std::to_string(l.clients) + " clients x pipeline " +
                              std::to_string(l.pipeline) + "] ";
    gates.zero(point + "transport failures", l.transport_failures);
    gates.zero(point + "decode errors", l.decode_errors);
    gates.check(l.frames_in == l.frames_out, point + "frames out", count(l.frames_out),
                "== " + count(l.frames_in) + " frames in");
  }
  return gates.verdict("net_load", {});
}
