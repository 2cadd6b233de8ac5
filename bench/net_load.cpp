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
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/online.h"
#include "engine/params.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "serve/snapshot.h"
#include "util/histogram.h"

using namespace rafiki;

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

/// One closed-loop client: `calls` pipelined bursts of depth `pipeline`,
/// recording per-request latency samples (burst time / burst size).
void client_loop(std::uint16_t port, std::size_t calls, std::size_t pipeline,
                 double rr_base, std::vector<double>& latency_us,
                 std::uint64_t& ok, std::uint64_t& failures) {
  net::Client client;
  if (client.connect("127.0.0.1", port) != net::NetStatus::kOk) {
    failures += calls;
    return;
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(pipeline);
  for (std::size_t i = 0; i < calls; i += pipeline) {
    const std::size_t burst = std::min(pipeline, calls - i);
    // det:ok(wall-clock): benchmark timing
    const auto t0 = std::chrono::steady_clock::now();
    ids.clear();
    for (std::size_t b = 0; b < burst; ++b) {
      serve::Request request;
      request.endpoint = serve::Endpoint::kPredict;
      request.read_ratio = rr_base + 0.01 * static_cast<double>((i + b) % 30);
      const auto id = client.send(request);
      if (id == 0) {
        ++failures;
        continue;
      }
      ids.push_back(id);
    }
    for (const auto id : ids) {
      const auto result = client.wait(id);
      if (result.ok()) {
        ++ok;
      } else {
        ++failures;
      }
    }
    latency_us.push_back(1e6 * benchutil::seconds_since(t0) / static_cast<double>(burst));
  }
}

WireLoadResult wire_load(const core::Rafiki& rafiki, std::size_t shards,
                         std::size_t clients, std::size_t pipeline,
                         std::size_t calls_per_client) {
  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4096;
  auto service = benchutil::make_backend(shards, options);
  service->publish(serve::make_snapshot(rafiki));
  service->start();
  net::ServerOptions server_options;
  server_options.io_threads = 2;
  server_options.max_pipeline = pipeline + 1;  // the bench never self-throttles
  net::Server server(*service, server_options);
  if (!server.start()) {
    std::fprintf(stderr, "net_load: server start failed: %s\n",
                 server.last_error().c_str());
    return {};
  }

  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::uint64_t> ok(clients, 0);
  std::vector<std::uint64_t> failures(clients, 0);
  // det:ok(wall-clock): benchmark timing
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> fleet;
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      client_loop(server.port(), calls_per_client, pipeline,
                  0.2 + 0.05 * static_cast<double>(c % 4), latencies[c], ok[c],
                  failures[c]);
    });
  }
  for (auto& thread : fleet) thread.join();
  const double elapsed = benchutil::seconds_since(t0);
  server.stop();
  service->stop();

  WireLoadResult result;
  result.clients = clients;
  result.pipeline = pipeline;
  Histogram merged(0.0, 1e6, 2048);
  for (std::size_t c = 0; c < clients; ++c) {
    result.ok += ok[c];
    result.transport_failures += failures[c];
    merged.add_all(latencies[c]);
  }
  result.qps = static_cast<double>(result.ok) / elapsed;
  result.client_p50_us = merged.quantile(0.5);
  result.client_p99_us = merged.quantile(0.99);
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
  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4096;
  core::OnlineTuner tuner(rafiki);
  auto service = benchutil::make_backend(shards, options);
  service->publish(serve::make_snapshot(rafiki));
  service->attach_tuner(tuner);
  service->start();
  net::Server server(*service);
  if (!server.start()) {
    std::fprintf(stderr, "net_load: server start failed: %s\n",
                 server.last_error().c_str());
    return {};
  }

  const std::vector<double> regimes = {0.15, 0.85, 0.45, 0.95, 0.25};
  std::vector<std::uint64_t> failed(clients, 0);
  std::vector<std::uint64_t> stale(clients, 0);
  std::vector<std::thread> fleet;
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      net::Client client;
      if (client.connect("127.0.0.1", server.port()) != net::NetStatus::kOk) {
        failed[c] += calls_per_client;
        return;
      }
      for (std::size_t i = 0; i < calls_per_client; ++i) {
        const double rr = regimes[(i / window_every) % regimes.size()];
        const auto result = (i % window_every == 0) ? client.observe_window(rr)
                                                    : client.predict(rr);
        if (!result.ok()) ++failed[c];
        if (result.net == net::NetStatus::kOk && result.response.stale) ++stale[c];
      }
    });
  }
  for (auto& thread : fleet) thread.join();
  service->wait_retrain_idle();
  server.stop();

  MixedResult result;
  const auto telemetry = service->telemetry();
  result.predicts = telemetry.counters(serve::Endpoint::kPredict).completed;
  result.windows = telemetry.counters(serve::Endpoint::kObserveWindow).completed;
  for (auto f : failed) result.failed += f;
  for (auto s : stale) result.stale_windows += s;
  result.versions_published = service->model_version();
  service->stop();
  return result;
}

DrainResult drain_under_fire(const core::Rafiki& rafiki, std::size_t shards,
                             std::size_t clients, std::size_t pipeline) {
  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4096;
  auto service = benchutil::make_backend(shards, options);
  service->publish(serve::make_snapshot(rafiki));
  service->start();
  net::ServerOptions server_options;
  server_options.max_pipeline = pipeline + 1;
  net::Server server(*service, server_options);
  if (!server.start()) {
    std::fprintf(stderr, "net_load: server start failed: %s\n",
                 server.last_error().c_str());
    return {};
  }

  // Every client fills a deep pipeline, then the server drains while all of
  // it is in flight. The contract under test: each submitted id comes back
  // as a typed response — kOk or kShuttingDown — and none are lost.
  std::vector<std::uint64_t> submitted(clients, 0);
  std::vector<std::uint64_t> answered_ok(clients, 0);
  std::vector<std::uint64_t> answered_shutdown(clients, 0);
  std::vector<std::uint64_t> lost(clients, 0);
  std::atomic<std::size_t> senders_done{0};
  std::vector<std::thread> fleet;
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      net::Client client;
      if (client.connect("127.0.0.1", server.port()) != net::NetStatus::kOk) {
        senders_done.fetch_add(1, std::memory_order_release);
        return;
      }
      std::vector<std::uint64_t> ids;
      for (std::size_t i = 0; i < pipeline; ++i) {
        serve::Request request;
        request.endpoint = serve::Endpoint::kPredict;
        request.read_ratio = 0.3 + 0.02 * static_cast<double>(i % 20);
        const auto id = client.send(request);
        if (id != 0) ids.push_back(id);
      }
      submitted[c] = ids.size();
      senders_done.fetch_add(1, std::memory_order_release);
      for (const auto id : ids) {
        const auto result = client.wait(id);
        if (result.net != net::NetStatus::kOk) {
          ++lost[c];
        } else if (result.response.status == serve::Status::kOk) {
          ++answered_ok[c];
        } else if (result.response.status == serve::Status::kShuttingDown) {
          ++answered_shutdown[c];
        } else if (result.response.status == serve::Status::kOverloaded) {
          ++answered_ok[c];  // typed backpressure: answered, not lost
        } else {
          ++lost[c];
        }
      }
    });
  }
  // The contract covers frames the clients actually put on the wire: wait
  // until every pipeline is fully sent (the frames then sit in socket or
  // server buffers, far ahead of the 2 workers draining them) and the server
  // has started decoding, then pull the plug with the rest in flight.
  while (senders_done.load(std::memory_order_acquire) < clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t total_sent = 0;
  for (std::size_t c = 0; c < clients; ++c) total_sent += submitted[c];
  while (total_sent != 0 && service->stats().wire_counters().frames_in == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  for (auto& thread : fleet) thread.join();
  service->stop();

  DrainResult result;
  for (std::size_t c = 0; c < clients; ++c) {
    result.submitted += submitted[c];
    result.answered_ok += answered_ok[c];
    result.answered_shutdown += answered_shutdown[c];
    result.lost += lost[c];
  }
  result.decode_errors = service->stats().wire_counters().decode_errors;
  return result;
}

void write_json(const std::string& path, const std::vector<WireLoadResult>& load,
                const MixedResult& mixed, const DrainResult& drain, bool smoke,
                std::size_t shards) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "net_load: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"net_load\",\n  \"smoke\": %s,\n  \"shards\": %zu,\n",
               smoke ? "true" : "false", shards);
  // Every net_load gate is structural (transport correctness) and runs on
  // any machine, sanitizers included — nothing is ever skipped.
  std::fprintf(out, "  \"hw_threads\": %u,\n  \"gates_skipped\": %s,\n",
               benchutil::hw_threads(), benchutil::json_string_array({}).c_str());
  std::fprintf(out, "  \"wire_load\": [\n");
  for (std::size_t i = 0; i < load.size(); ++i) {
    const auto& l = load[i];
    std::fprintf(out,
                 "    {\"clients\": %zu, \"pipeline\": %zu, \"qps\": %.1f, "
                 "\"client_p50_us\": %.1f, \"client_p99_us\": %.1f, "
                 "\"server_wire_p99_us\": %.1f, \"ok\": %llu, "
                 "\"transport_failures\": %llu, \"decode_errors\": %llu, "
                 "\"frames_in\": %llu, \"frames_out\": %llu}%s\n",
                 l.clients, l.pipeline, l.qps, l.client_p50_us, l.client_p99_us,
                 l.server_wire_p99_us, static_cast<unsigned long long>(l.ok),
                 static_cast<unsigned long long>(l.transport_failures),
                 static_cast<unsigned long long>(l.decode_errors),
                 static_cast<unsigned long long>(l.frames_in),
                 static_cast<unsigned long long>(l.frames_out),
                 i + 1 < load.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"mixed_endpoints\": {\"predicts\": %llu, \"windows\": %llu, "
               "\"failed\": %llu, \"stale_windows\": %llu, "
               "\"versions_published\": %llu},\n",
               static_cast<unsigned long long>(mixed.predicts),
               static_cast<unsigned long long>(mixed.windows),
               static_cast<unsigned long long>(mixed.failed),
               static_cast<unsigned long long>(mixed.stale_windows),
               static_cast<unsigned long long>(mixed.versions_published));
  std::fprintf(out,
               "  \"drain_under_fire\": {\"submitted\": %llu, \"answered_ok\": %llu, "
               "\"answered_shutdown\": %llu, \"lost\": %llu, "
               "\"decode_errors\": %llu}\n}\n",
               static_cast<unsigned long long>(drain.submitted),
               static_cast<unsigned long long>(drain.answered_ok),
               static_cast<unsigned long long>(drain.answered_shutdown),
               static_cast<unsigned long long>(drain.lost),
               static_cast<unsigned long long>(drain.decode_errors));
  std::fclose(out);
  benchutil::note("wrote " + path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_net.json";
  std::size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (shards == 0) shards = 1;
    }
  }

  core::RafikiOptions options;
  options.workload_grid = smoke ? std::vector<double>{0.2, 0.8}
                                : std::vector<double>{0.1, 0.5, 0.9};
  options.n_configs = smoke ? 5 : 10;
  options.collect.measure.ops = smoke ? 3000 : 20000;
  options.collect.measure.warmup_ops = smoke ? 300 : 2000;
  options.ensemble.n_nets = smoke ? 3 : 10;
  options.ensemble.train.max_epochs = smoke ? 30 : 100;
  benchutil::note("training the surrogate ensemble...");
  core::Rafiki rafiki(options);
  rafiki.set_key_params(engine::key_params());
  rafiki.train(rafiki.collect());

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

  write_json(out_path, load, mixed, drain, smoke, shards);

  // Gates: transport correctness always (sanitizers included) — zero decode
  // errors, zero dropped responses, wire accounting balanced.
  const auto count = [](std::uint64_t n) { return std::to_string(n); };
  benchutil::Gates gates;
  gates.check(mixed.failed == 0, "B failed calls", count(mixed.failed), "== 0");
  gates.check(mixed.stale_windows >= 1, "B stale-served windows",
              count(mixed.stale_windows), ">= 1");
  gates.check(mixed.versions_published > 1, "B snapshot versions",
              count(mixed.versions_published), "> 1");
  gates.check(drain.lost == 0, "C frames lost in the drain", count(drain.lost), "== 0");
  gates.check(drain.decode_errors == 0, "C decode errors", count(drain.decode_errors),
              "== 0");
  gates.check(drain.answered_ok + drain.answered_shutdown == drain.submitted,
              "C frames answered in the drain",
              count(drain.answered_ok + drain.answered_shutdown),
              "== " + count(drain.submitted) + " submitted");
  for (const auto& l : load) {
    const std::string point = "A[" + std::to_string(l.clients) + " clients x pipeline " +
                              std::to_string(l.pipeline) + "] ";
    gates.check(l.transport_failures == 0, point + "transport failures",
                count(l.transport_failures), "== 0");
    gates.check(l.decode_errors == 0, point + "decode errors", count(l.decode_errors),
                "== 0");
    gates.check(l.frames_in == l.frames_out, point + "frames out", count(l.frames_out),
                "== " + count(l.frames_in) + " frames in");
  }
  return gates.verdict("net_load", {});
}
