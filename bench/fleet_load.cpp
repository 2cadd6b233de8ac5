// Fleet replay benchmark for the multi-tenant serving layer (tenant::
// TenantFleet behind the RPC front-end):
//
//   A. Fleet replay — dozens of regime-switching tenant traces (one
//      pipelined net::Client per trace, each stamped with its tenant id in
//      the RKF2 header) hammer a TenantFleet through real sockets. Every
//      trace walks the paper's dynamic-workload schedule, offset per tenant
//      so regime storms hit all tenants at once; ObserveWindow misses are
//      answered stale-marked while a background retrain searches the bucket
//      once for the whole fleet (every tenant's tuner reads one shared memo)
//      and republishes into every tenant's snapshot slot. Gates: zero failed
//      calls, zero decode errors, frames_in == frames_out (nothing lost on
//      the wire), zero admission rejects (no quotas configured), every
//      tenant's model version advanced, and the GA runs summed over tenants
//      stay within the distinct tuner buckets the schedule visits.
//      An unknown-tenant probe rides along: a client outside the fleet's id
//      range must get a clean typed kNotReady for every call, never a
//      dropped frame.
//
//   C. Connection scaling — the million-user question in miniature: a fixed
//      request volume is spread over {64, 256, 1024} pipelined connections
//      (>= 64 tenants round-robin). Per point: QPS, client p99, and the wire
//      flush counters — flushes, flush syscalls, frames per flush, and flush
//      syscalls per frame (the hardware-independent cost metric). Gates:
//      zero transport failures / lost frames / decode errors at every point
//      including 1024 connections (always on); QPS at 1024 connections
//      holds >= 0.9x the 256-connection figure (perf gate: skipped under
//      sanitizers / < 8 hardware threads).
//
//   B. Noisy-tenant isolation — tenant 1 ("noisy") floods deep pipelines
//      through a tight per-tenant quota (in-flight cap + token bucket) while
//      tenant 0 ("victim") runs a closed loop at pipeline 1 with no quota.
//      The victim's p99 is measured twice — solo (no noisy traffic, same
//      topology) and contended — through identical transports. Gates (always
//      on): the noisy tenant sees typed kOverloaded backpressure (from BOTH
//      quota mechanisms) and loses nothing, the victim is NEVER rejected,
//      zero decode errors, and the fleet's fairness counters attribute every
//      reject exactly. Perf gate (skipped under sanitizers / < 8 hardware
//      threads, where the victim, noisy clients, and IO threads timeshare
//      cores and the tail measures the scheduler): contended victim p99
//      <= 2x solo.
//
// Results go to stdout (ASCII tables) and BENCH_fleet.json. `--smoke` keeps
// everything tiny for CI; `--out <path>` redirects the JSON; `--tenants N` /
// `--shards N` resize the phase-A fleet. The verdict names every gate that
// failed with its measured value and bound, and lists the skipped gates.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "tenant/fleet.h"

using namespace rafiki;
namespace json = rafiki::benchutil::json;

namespace {

struct ReplayResult {
  std::size_t tenants = 0;
  std::size_t shards = 0;
  std::size_t traces = 0;
  double qps = 0.0;
  std::uint64_t predict_ok = 0;
  std::uint64_t windows = 0;
  std::uint64_t stale_windows = 0;
  std::uint64_t failed = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  serve::ServiceStats::FleetCounters fleet{};
  std::uint64_t tenants_republished = 0;
  /// GA runs summed over every tenant's tuner, and the distinct tuner
  /// buckets the schedule's ObserveWindows visit (its bound).
  std::uint64_t optimizer_runs = 0;
  std::uint64_t schedule_buckets = 0;
  // Unknown-tenant probe: calls from outside the id range, all of which must
  // come back as typed kNotReady responses.
  std::uint64_t probe_calls = 0;
  std::uint64_t probe_not_ready = 0;
};

/// One connection-count point of the phase-C sweep.
struct ScalePoint {
  std::size_t connections = 0;
  std::size_t tenants = 0;
  double qps = 0.0;
  double client_p99_us = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t transport_failures = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flush_syscalls = 0;
  std::uint64_t flushed_frames = 0;
  std::uint64_t flush_eagain = 0;
  double frames_per_flush = 0.0;
  double syscalls_per_frame = 0.0;
};

struct VictimRun {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t failed = 0;
  std::uint64_t noisy_ok = 0;
  std::uint64_t noisy_overloaded = 0;
  std::uint64_t noisy_lost = 0;
  serve::ServiceStats::FleetCounters fleet{};
  std::uint64_t decode_errors = 0;
};

struct IsolationResult {
  VictimRun solo;
  VictimRun contended;
  double p99_ratio = 0.0;
};

/// Read ratio of call `i` of a tenant's trace. The schedule is offset by
/// tenant id: regime boundaries line up across the fleet (a coordinated
/// storm) while each tenant shifts to a different regime, so tenants reach
/// each bucket at different times and the shared memo serves the later ones.
double schedule_rr(std::size_t i, serve::TenantId tenant, std::size_t window_every) {
  return benchutil::regime(i / window_every + tenant);
}

/// One regime-switching tenant trace: every `window_every` calls the trace
/// opens a new read-ratio regime with one ObserveWindow (stale-marked on a
/// memo miss; a background retrain republishes behind it), then fills the
/// window with pipelined Predict bursts against that regime.
void replay_trace(std::uint16_t port, serve::TenantId tenant, std::size_t calls,
                  std::size_t pipeline, std::size_t window_every,
                  benchutil::BurstTally& windows, benchutil::BurstTally& predicts) {
  net::ClientOptions client_options;
  client_options.tenant = tenant;
  net::Client client(client_options);
  if (client.connect("127.0.0.1", port) != net::NetStatus::kOk) {
    predicts.send_failed += calls;
    return;
  }
  for (std::size_t i = 0; i < calls;) {
    const double rr = schedule_rr(i, tenant, window_every);
    const bool opens_window = i % window_every == 0;
    const std::size_t burst =
        opens_window ? 1 : std::min({pipeline, calls - i, window_every - (i % window_every)});
    // Raw send() keeps the caller's tenant, so every request names it.
    benchutil::pipelined_burst(client, burst, [&](std::size_t b) {
      if (opens_window) {
        return serve::Request{
            .endpoint = serve::Endpoint::kObserveWindow, .tenant = tenant, .read_ratio = rr};
      }
      return serve::Request{.tenant = tenant,
                            .read_ratio = rr + 0.001 * static_cast<double>((i + b) % 10)};
    }, opens_window ? windows : predicts);
    i += burst;
  }
}

ReplayResult fleet_replay(const core::Rafiki& rafiki, std::size_t tenants,
                          std::size_t shards,
                          std::size_t clients_per_tenant,
                          std::size_t calls_per_trace, std::size_t pipeline,
                          std::size_t window_every) {
  tenant::FleetOptions fleet_options;
  fleet_options.tenants = tenants;
  fleet_options.shard.shards = shards;
  fleet_options.shard.service.workers = 2;
  fleet_options.shard.service.queue_capacity = 4096;
  tenant::TenantFleet fleet(fleet_options);
  fleet.attach_rafiki(rafiki);
  benchutil::start_backend(fleet, rafiki);

  net::ServerOptions server_options;
  server_options.io_threads = 2;
  server_options.max_pipeline = pipeline + 1;  // the bench never self-throttles
  const auto server = benchutil::start_server(fleet, server_options);

  const std::size_t traces = tenants * clients_per_tenant;
  std::vector<benchutil::BurstTally> windows(traces);
  std::vector<benchutil::BurstTally> predicts(traces);
  const double elapsed = benchutil::run_clients(traces, [&](std::size_t i) {
    replay_trace(server->port(), static_cast<serve::TenantId>(i % tenants), calls_per_trace,
                 pipeline, window_every, windows[i], predicts[i]);
  });

  // Unknown-tenant probe: an id past the fleet's range must get a typed
  // kNotReady for every call — answered on the wire, never dropped.
  ReplayResult result;
  {
    net::ClientOptions probe_options;
    probe_options.tenant = static_cast<serve::TenantId>(tenants + 3);
    net::Client probe(probe_options);
    if (probe.connect("127.0.0.1", server->port()) == net::NetStatus::kOk) {
      for (int i = 0; i < 4; ++i) {
        ++result.probe_calls;
        const auto r = probe.predict(0.5);
        if (r.net == net::NetStatus::kOk &&
            r.response.status == serve::Status::kNotReady) {
          ++result.probe_not_ready;
        }
      }
    }
  }

  // Let every in-flight background retrain republish before the per-tenant
  // version audit and the GA-run count.
  fleet.wait_retrain_idle();
  std::set<int> buckets;
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto id = static_cast<serve::TenantId>(t);
    if (fleet.tenant_model_version(id) > 1) ++result.tenants_republished;
    const core::OnlineTuner& tuner = *fleet.tuner(id);
    result.optimizer_runs += tuner.optimizer_runs();
    for (std::size_t i = 0; i < calls_per_trace; i += window_every) {
      buckets.insert(tuner.bucket_for(schedule_rr(i, id, window_every)));
    }
  }
  result.schedule_buckets = buckets.size();
  server->stop();

  result.tenants = tenants;
  result.shards = shards;
  result.traces = traces;
  for (std::size_t i = 0; i < traces; ++i) {
    result.predict_ok += predicts[i].ok;
    result.windows += windows[i].ok;
    result.stale_windows += windows[i].stale;
    result.failed += windows[i].failed() + predicts[i].failed();
  }
  result.qps =
      static_cast<double>(result.predict_ok + result.windows) / elapsed;
  const auto wire = fleet.stats().wire_counters();
  result.decode_errors = wire.decode_errors;
  result.frames_in = wire.frames_in;
  result.frames_out = wire.frames_out;
  result.fleet = fleet.fleet_counters();
  fleet.stop();
  return result;
}

/// One phase-C point: `connections` pipelined clients (tenant = index mod
/// `tenants`) replay a fixed total request volume.
/// A small pool of driver threads owns the connections; each round a driver
/// bursts `pipeline` Predicts down every one of its connections before
/// collecting any responses, so the server sees hundreds of connections with
/// frames in flight at once — the regime write coalescing is built for.
ScalePoint connection_scaling(const core::Rafiki& rafiki, std::size_t tenants,
                              std::size_t shards, std::size_t connections,
                              std::size_t calls_per_conn,
                              std::size_t pipeline) {
  tenant::FleetOptions fleet_options;
  fleet_options.tenants = tenants;
  fleet_options.shard.shards = shards;
  fleet_options.shard.service.workers = 2;
  fleet_options.shard.service.queue_capacity = 8192;
  tenant::TenantFleet fleet(fleet_options);
  benchutil::start_backend(fleet, rafiki);

  net::ServerOptions server_options;
  server_options.io_threads = 2;
  server_options.backlog = static_cast<int>(connections);
  server_options.max_connections = connections + 8;
  server_options.max_pipeline = pipeline + 1;
  const auto server = benchutil::start_server(fleet, server_options);

  const std::size_t drivers =
      std::min(connections, std::max<std::size_t>(4, benchutil::hw_threads()));
  std::vector<benchutil::BurstTally> tallies(drivers);
  std::vector<std::vector<double>> latencies(drivers);
  const double elapsed = benchutil::run_clients(drivers, [&](std::size_t d) {
    // Connections are dealt round-robin so every driver's slice spans the
    // tenant range.
    std::vector<std::unique_ptr<net::Client>> conns;
    std::size_t owned = 0;
    for (std::size_t c = d; c < connections; c += drivers) {
      net::ClientOptions client_options;
      client_options.tenant = static_cast<serve::TenantId>(c % tenants);
      auto client = std::make_unique<net::Client>(client_options);
      if (client->connect("127.0.0.1", server->port()) != net::NetStatus::kOk) {
        tallies[d].send_failed += calls_per_conn;
        conns.push_back(nullptr);
      } else {
        conns.push_back(std::move(client));
        ++owned;
      }
    }
    if (owned == 0) return;
    std::vector<std::vector<std::uint64_t>> ids(conns.size());
    for (std::size_t done = 0; done < calls_per_conn; done += pipeline) {
      const std::size_t burst = std::min(pipeline, calls_per_conn - done);
      const std::uint64_t ok_before = tallies[d].ok;
      // det:ok(wall-clock): benchmark timing
      const auto r0 = std::chrono::steady_clock::now();
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (conns[c] == nullptr) continue;
        ids[c] = benchutil::send_burst(*conns[c], burst, [&](std::size_t b) {
          return serve::Request{
              .tenant = static_cast<serve::TenantId>((d + c * drivers) % tenants),
              .read_ratio = 0.2 + 0.01 * static_cast<double>((done + b) % 60)};
        }, tallies[d]);
      }
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (conns[c] != nullptr) benchutil::wait_burst(*conns[c], ids[c], tallies[d]);
      }
      const std::uint64_t round_ok = tallies[d].ok - ok_before;
      if (round_ok > 0) {
        latencies[d].push_back(1e6 * benchutil::seconds_since(r0) /
                               static_cast<double>(round_ok));
      }
    }
  });
  server->stop();

  ScalePoint point;
  point.connections = connections;
  point.tenants = tenants;
  std::vector<double> merged;
  for (std::size_t d = 0; d < drivers; ++d) {
    point.ok += tallies[d].ok;
    point.transport_failures += tallies[d].failed();
    merged.insert(merged.end(), latencies[d].begin(), latencies[d].end());
  }
  point.qps = elapsed > 0.0 ? static_cast<double>(point.ok) / elapsed : 0.0;
  point.client_p99_us = benchutil::exact_quantile(merged, 0.99);
  const auto wire = fleet.stats().wire_counters();
  point.decode_errors = wire.decode_errors;
  point.frames_in = wire.frames_in;
  point.frames_out = wire.frames_out;
  point.flushes = wire.flushes;
  point.flush_syscalls = wire.flush_syscalls;
  point.flushed_frames = wire.flushed_frames;
  point.flush_eagain = wire.flush_eagain;
  point.frames_per_flush = wire.frames_per_flush();
  point.syscalls_per_frame = wire.flush_syscalls_per_frame();
  fleet.stop();
  return point;
}

/// One victim pass: tenant 0 runs a pipeline-1 closed loop, optionally with
/// two noisy tenant-1 clients flooding deep pipelines through a tight quota
/// — an in-flight cap (pipeline >> cap, so bursts overflow it immediately)
/// plus a token bucket (so sustained admitted noisy throughput stays far
/// below one worker's capacity and the victim's tail is genuinely shielded).
/// Topology (shards, workers, io threads, quotas) is identical with and
/// without noise so the two p99s are comparable.
VictimRun victim_run(const core::Rafiki& rafiki, std::size_t shards,
                     std::size_t victim_calls,
                     bool with_noisy, std::size_t noisy_pipeline,
                     std::size_t noisy_cap) {
  tenant::FleetOptions fleet_options;
  fleet_options.tenants = 2;
  fleet_options.shard.shards = shards;
  fleet_options.shard.service.workers = 2;
  fleet_options.shard.service.queue_capacity = 4096;
  fleet_options.quota_for = [noisy_cap](serve::TenantId tenant) {
    tenant::QuotaOptions quota;
    if (tenant == 1) {
      quota.max_in_flight = noisy_cap;
      quota.rate_per_s = 500.0;
      quota.burst = 16.0;
    }
    return quota;
  };
  tenant::TenantFleet fleet(fleet_options);
  benchutil::start_backend(fleet, rafiki);

  net::ServerOptions server_options;
  // One IO thread per connection (victim + 2 noisy): the cap under test is
  // the fleet's admission quota, not transport-thread contention.
  server_options.io_threads = 4;
  server_options.max_pipeline = noisy_pipeline + 2;
  const auto server = benchutil::start_server(fleet, server_options);

  constexpr std::size_t kNoisyClients = 2;
  std::atomic<bool> stop{false};
  std::vector<benchutil::BurstTally> noisy(kNoisyClients);
  std::thread noisy_fleet;
  if (with_noisy) {
    noisy_fleet = std::thread([&] {
      benchutil::run_clients(kNoisyClients, [&](std::size_t c) {
        net::ClientOptions client_options;
        client_options.tenant = 1;
        net::Client client(client_options);
        if (client.connect("127.0.0.1", server->port()) != net::NetStatus::kOk) return;
        while (!stop.load(std::memory_order_relaxed)) {
          benchutil::pipelined_burst(client, noisy_pipeline, [](std::size_t b) {
            return serve::Request{.tenant = 1,
                                  .read_ratio = 0.2 + 0.01 * static_cast<double>(b % 50)};
          }, noisy[c]);
          // Pace the bursts: the pressure under test is pipeline depth vs the
          // quota (each burst still overflows the cap and drains the bucket),
          // not raw CPU starvation of the victim's cores by reject spinning.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    });
    // Let the flood actually hit the quota before the victim starts
    // measuring, so the contended pass is contended from its first sample.
    // Bounded spin: with pipeline >> cap the first burst already overflows.
    // det:ok(wall-clock): benchmark warmup deadline
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (fleet.fleet_counters().inflight_rejected == 0) {
      // det:ok(wall-clock): benchmark warmup deadline
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  VictimRun run;
  benchutil::BurstTally victim_tally;
  std::vector<double> latency;
  latency.reserve(victim_calls);
  {
    net::Client victim;  // tenant 0 — the default namespace, no quota
    if (victim.connect("127.0.0.1", server->port()) != net::NetStatus::kOk) {
      victim_tally.send_failed = victim_calls;
    } else {
      // det:ok(wall-clock): benchmark timing
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < victim_calls; ++i) {
        // det:ok(wall-clock): benchmark timing
        const auto c0 = std::chrono::steady_clock::now();
        benchutil::pipelined_burst(victim, 1, [i](std::size_t) {
          return serve::Request{.read_ratio = 0.3 + 0.01 * static_cast<double>(i % 40)};
        }, victim_tally);
        latency.push_back(1e6 * benchutil::seconds_since(c0));
      }
      run.qps = static_cast<double>(victim_tally.ok) / benchutil::seconds_since(t0);
    }
  }
  run.ok = victim_tally.ok;
  run.overloaded = victim_tally.overloaded;
  run.failed = victim_tally.failed() - victim_tally.overloaded;
  stop.store(true, std::memory_order_relaxed);
  if (noisy_fleet.joinable()) noisy_fleet.join();
  server->stop();

  run.p50_us = benchutil::exact_quantile(latency, 0.5);
  run.p99_us = benchutil::exact_quantile(latency, 0.99);
  for (const auto& tally : noisy) {
    run.noisy_ok += tally.ok;
    run.noisy_overloaded += tally.overloaded;
    run.noisy_lost += tally.lost + tally.shutting_down;
  }
  run.fleet = fleet.fleet_counters();
  run.decode_errors = fleet.stats().wire_counters().decode_errors;
  fleet.stop();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = benchutil::parse_flags(
      argc, argv, {.out = "BENCH_fleet.json", .shards = 2, .tenants = 8},
      {"--tenants", "--shards"});
  const bool smoke = flags.smoke;
  const std::size_t shards = flags.shards;
  const std::size_t tenants = smoke ? std::min<std::size_t>(flags.tenants, 4) : flags.tenants;
  const core::Rafiki rafiki = benchutil::train_serving_profile(smoke);

  // Phase A: regime-switching fleet replay through the wire.
  const std::size_t clients_per_tenant = smoke ? 2 : 3;
  const std::size_t calls_per_trace = smoke ? 48 : 240;
  const auto replay = fleet_replay(rafiki, tenants, shards,
                                   clients_per_tenant, calls_per_trace,
                                   /*pipeline=*/8, /*window_every=*/16);
  Table replay_table({"metric", "value"});
  replay_table.add_row({"tenant traces",
                        std::to_string(replay.traces) + " (" +
                            std::to_string(replay.tenants) + " tenants x " +
                            std::to_string(clients_per_tenant) + " clients)"});
  replay_table.add_row({"fleet QPS", Table::ops(replay.qps)});
  replay_table.add_row({"Predict ok", std::to_string(replay.predict_ok)});
  replay_table.add_row({"ObserveWindow ok", std::to_string(replay.windows)});
  replay_table.add_row({"stale-served windows", std::to_string(replay.stale_windows)});
  replay_table.add_row({"failed calls", std::to_string(replay.failed)});
  replay_table.add_row({"decode errors", std::to_string(replay.decode_errors)});
  replay_table.add_row({"frames in / out", std::to_string(replay.frames_in) + " / " +
                                               std::to_string(replay.frames_out)});
  replay_table.add_row({"admitted", std::to_string(replay.fleet.admitted)});
  replay_table.add_row({"tenants republished",
                        std::to_string(replay.tenants_republished) + " / " +
                            std::to_string(replay.tenants)});
  replay_table.add_row({"GA runs (all tenants) / schedule buckets",
                        std::to_string(replay.optimizer_runs) + " / " +
                            std::to_string(replay.schedule_buckets)});
  replay_table.add_row({"unknown-tenant probe",
                        std::to_string(replay.probe_not_ready) + " / " +
                            std::to_string(replay.probe_calls) + " NotReady"});
  benchutil::emit(replay_table, "Phase A: multi-tenant fleet replay (loopback RPC)");
  benchutil::compare("failed calls across the fleet replay", "0",
                     std::to_string(replay.failed));
  benchutil::compare("tenants with a republished model", std::to_string(replay.tenants),
                     std::to_string(replay.tenants_republished));

  // Phase B: noisy-tenant isolation behind the per-tenant in-flight cap.
  const std::size_t victim_calls = smoke ? 300 : 1000;
  IsolationResult isolation;
  isolation.solo = victim_run(rafiki, shards, victim_calls,
                              /*with_noisy=*/false, /*noisy_pipeline=*/32,
                              /*noisy_cap=*/4);
  isolation.contended = victim_run(rafiki, shards, victim_calls,
                                   /*with_noisy=*/true, /*noisy_pipeline=*/32,
                                   /*noisy_cap=*/4);
  isolation.p99_ratio = isolation.solo.p99_us > 0.0
                            ? isolation.contended.p99_us / isolation.solo.p99_us
                            : 0.0;
  Table iso_table({"metric", "solo", "contended"});
  iso_table.add_row({"victim p50 us", Table::num(isolation.solo.p50_us, 1),
                     Table::num(isolation.contended.p50_us, 1)});
  iso_table.add_row({"victim p99 us", Table::num(isolation.solo.p99_us, 1),
                     Table::num(isolation.contended.p99_us, 1)});
  iso_table.add_row({"victim QPS", Table::ops(isolation.solo.qps),
                     Table::ops(isolation.contended.qps)});
  iso_table.add_row({"victim rejected", std::to_string(isolation.solo.overloaded),
                     std::to_string(isolation.contended.overloaded)});
  iso_table.add_row({"noisy answered Ok", std::to_string(isolation.solo.noisy_ok),
                     std::to_string(isolation.contended.noisy_ok)});
  iso_table.add_row({"noisy Overloaded",
                     std::to_string(isolation.solo.noisy_overloaded),
                     std::to_string(isolation.contended.noisy_overloaded)});
  iso_table.add_row({"noisy lost", std::to_string(isolation.solo.noisy_lost),
                     std::to_string(isolation.contended.noisy_lost)});
  iso_table.add_row({"rejects: in-flight cap",
                     std::to_string(isolation.solo.fleet.inflight_rejected),
                     std::to_string(isolation.contended.fleet.inflight_rejected)});
  iso_table.add_row({"rejects: token bucket",
                     std::to_string(isolation.solo.fleet.quota_rejected),
                     std::to_string(isolation.contended.fleet.quota_rejected)});
  benchutil::emit(iso_table,
                  "Phase B: noisy-tenant isolation (in-flight cap 4 + 500/s bucket)");
  benchutil::compare("victim rejects while the noisy tenant floods", "0",
                     std::to_string(isolation.contended.overloaded +
                                    isolation.contended.failed));
  benchutil::compare("contended victim p99 vs solo", "<= 2x",
                     Table::num(isolation.p99_ratio, 2) + "x");

  // Phase C: connection scaling. The full run spreads the
  // fleet across >= 64 tenants and sweeps {64, 256, 1024} connections; smoke
  // keeps the same shape at toy sizes.
  const std::size_t scale_tenants =
      smoke ? tenants : std::max<std::size_t>(tenants, 64);
  const std::vector<std::size_t> connection_sweep =
      smoke ? std::vector<std::size_t>{8, 16}
            : std::vector<std::size_t>{64, 256, 1024};
  const std::size_t scale_calls = smoke ? 8 : 24;
  const std::size_t scale_pipeline = smoke ? 4 : 8;
  std::vector<ScalePoint> scaling;
  for (const auto connections : connection_sweep) {
    benchutil::note("connection scaling: " + std::to_string(connections) +
                    " connections...");
    scaling.push_back(connection_scaling(rafiki, scale_tenants, shards, connections,
                                         scale_calls, scale_pipeline));
  }
  Table scale_table({"connections", "QPS", "client p99 us", "frames/flush",
                     "syscalls/frame", "EAGAIN", "failed", "decode errors"});
  for (const auto& sp : scaling) {
    scale_table.add_row({std::to_string(sp.connections), Table::ops(sp.qps),
                         Table::num(sp.client_p99_us, 1),
                         Table::num(sp.frames_per_flush, 2),
                         Table::num(sp.syscalls_per_frame, 4),
                         std::to_string(sp.flush_eagain),
                         std::to_string(sp.transport_failures),
                         std::to_string(sp.decode_errors)});
  }
  benchutil::emit(scale_table,
                  "Phase C: connection scaling (" +
                      std::to_string(scale_tenants) + " tenants, pipeline " +
                      std::to_string(scale_pipeline) + ")");

  // Perf gates are meaningless under sanitizer instrumentation, and the
  // isolation ratio needs the victim, the two noisy clients, and the four
  // server IO threads to actually run in parallel: on fewer cores a noisy
  // burst's inline-rejected responses are encoded on the victim's core and
  // its p99 measures the scheduler, not the quota.
  const bool ratio_gate = benchutil::kPerfGate && std::thread::hardware_concurrency() >= 8;

  // The 1024-vs-256 QPS ratio needs real parallelism for the same reason the
  // isolation ratio does.
  const bool scaling_qps_gate = benchutil::kPerfGate &&
                                std::thread::hardware_concurrency() >= 8 &&
                                !smoke;

  std::vector<std::string> gates_skipped;
  if (!benchutil::kPerfGate) gates_skipped.push_back("perf");
  if (!ratio_gate) gates_skipped.push_back("isolation_p99_ratio");
  if (!scaling_qps_gate) gates_skipped.push_back("connection_scaling_qps_ratio");
  const auto victim = [](const VictimRun& run) {
    return json::object({{"victim_p50_us", json::fixed(run.p50_us, 1)},
                         {"victim_p99_us", json::fixed(run.p99_us, 1)},
                         {"victim_qps", json::fixed(run.qps, 1)}, {"victim_ok", run.ok},
                         {"victim_overloaded", run.overloaded}, {"victim_failed", run.failed},
                         {"noisy_ok", run.noisy_ok}, {"noisy_overloaded", run.noisy_overloaded},
                         {"noisy_lost", run.noisy_lost},
                         {"quota_rejected", run.fleet.quota_rejected},
                         {"inflight_rejected", run.fleet.inflight_rejected},
                         {"decode_errors", run.decode_errors}});
  };
  json::write(flags.out, {
      {"bench", "fleet_load"}, {"smoke", smoke}, {"hw_threads", benchutil::hw_threads()},
      {"gates_skipped", gates_skipped},
      {"fleet_replay",
       json::object({{"tenants", replay.tenants}, {"shards", replay.shards},
                     {"traces", replay.traces}, {"qps", json::fixed(replay.qps, 1)},
                     {"predict_ok", replay.predict_ok}, {"windows", replay.windows},
                     {"stale_windows", replay.stale_windows}, {"failed", replay.failed},
                     {"decode_errors", replay.decode_errors}, {"frames_in", replay.frames_in},
                     {"frames_out", replay.frames_out}, {"admitted", replay.fleet.admitted},
                     {"quota_rejected", replay.fleet.quota_rejected},
                     {"inflight_rejected", replay.fleet.inflight_rejected},
                     {"unknown_tenant", replay.fleet.unknown_tenant},
                     {"tenants_republished", replay.tenants_republished},
                     {"optimizer_runs", replay.optimizer_runs},
                     {"schedule_buckets", replay.schedule_buckets},
                     {"probe_calls", replay.probe_calls},
                     {"probe_not_ready", replay.probe_not_ready}})},
      {"isolation_solo", victim(isolation.solo)},
      {"isolation_contended", victim(isolation.contended)},
      {"isolation_p99_ratio", json::fixed(isolation.p99_ratio, 2)},
      {"connection_scaling", json::rows(scaling, [](const ScalePoint& sp) {
         return json::object(
             {{"connections", sp.connections}, {"tenants", sp.tenants},
              {"qps", json::fixed(sp.qps, 1)}, {"client_p99_us", json::fixed(sp.client_p99_us, 1)},
              {"ok", sp.ok}, {"transport_failures", sp.transport_failures},
              {"decode_errors", sp.decode_errors}, {"frames_in", sp.frames_in},
              {"frames_out", sp.frames_out}, {"flushes", sp.flushes},
              {"flush_syscalls", sp.flush_syscalls}, {"flushed_frames", sp.flushed_frames},
              {"flush_eagain", sp.flush_eagain},
              {"frames_per_flush", json::fixed(sp.frames_per_flush, 2)},
              {"flush_syscalls_per_frame", json::fixed(sp.syscalls_per_frame, 4)}});
       })},
  });

  const auto count = [](std::uint64_t n) { return std::to_string(n); };
  benchutil::Gates gates;
  // Phase A structural gates (always on, sanitizers included).
  gates.zero("A failed calls", replay.failed);
  gates.zero("A decode errors", replay.decode_errors);
  gates.check(replay.frames_in == replay.frames_out, "A frames out",
              count(replay.frames_out), "== " + count(replay.frames_in) + " frames in");
  gates.zero("A admission rejects (no quotas configured)",
             replay.fleet.quota_rejected + replay.fleet.inflight_rejected);
  gates.at_least("A stale-served windows", replay.stale_windows, 1);
  gates.check(replay.tenants_republished == replay.tenants, "A tenants republished",
              count(replay.tenants_republished), "== " + count(replay.tenants));
  gates.check(replay.optimizer_runs <= replay.schedule_buckets,
              "A GA runs summed over tenants", count(replay.optimizer_runs),
              "<= " + count(replay.schedule_buckets) + " schedule buckets");
  gates.check(replay.probe_calls > 0 && replay.probe_not_ready == replay.probe_calls,
              "A unknown-tenant probe answered NotReady", count(replay.probe_not_ready),
              "== " + count(replay.probe_calls) + " calls (> 0)");
  gates.check(replay.fleet.unknown_tenant >= replay.probe_calls,
              "A unknown-tenant counter", count(replay.fleet.unknown_tenant),
              ">= " + count(replay.probe_calls));
  // Phase B structural gates: the quota speaks kOverloaded to the noisy
  // tenant only, nothing is lost, both quota mechanisms fire, and the
  // fairness counters attribute every reject exactly.
  for (const VictimRun* run : {&isolation.solo, &isolation.contended}) {
    const std::string label = run == &isolation.solo ? "B solo " : "B contended ";
    gates.zero(label + "victim failed or rejected", run->failed + run->overloaded);
    gates.zero(label + "noisy frames lost", run->noisy_lost);
    gates.zero(label + "decode errors", run->decode_errors);
  }
  const auto& solo = isolation.solo;
  const auto& contended = isolation.contended;
  gates.zero("B solo noisy Overloaded", solo.noisy_overloaded);
  gates.zero("B solo quota rejects", solo.fleet.quota_rejected + solo.fleet.inflight_rejected);
  gates.at_least("B contended noisy Overloaded", contended.noisy_overloaded, 1);
  gates.at_least("B contended in-flight cap rejects", contended.fleet.inflight_rejected, 1);
  gates.at_least("B contended token bucket rejects", contended.fleet.quota_rejected, 1);
  gates.check(contended.fleet.inflight_rejected + contended.fleet.quota_rejected ==
                  contended.noisy_overloaded,
              "B contended rejects attributed",
              count(contended.fleet.inflight_rejected + contended.fleet.quota_rejected),
              "== " + count(contended.noisy_overloaded) + " noisy Overloaded");
  if (ratio_gate) {
    gates.check(isolation.p99_ratio <= 2.0, "B contended victim p99 / solo",
                Table::num(isolation.p99_ratio, 2) + "x", "<= 2x");
  }
  // Phase C structural gates: every point — including 1024 connections —
  // moved its full request volume with zero transport failures, zero lost
  // frames, zero decode errors, balanced accounting.
  for (const auto& sp : scaling) {
    const std::uint64_t expected =
        static_cast<std::uint64_t>(sp.connections) * scale_calls;
    const std::string point = "C[" + std::to_string(sp.connections) + " connections] ";
    gates.zero(point + "transport failures", sp.transport_failures);
    gates.zero(point + "decode errors", sp.decode_errors);
    gates.check(sp.ok == expected, point + "answered Ok", count(sp.ok),
                "== " + count(expected));
    gates.check(sp.frames_in >= expected && sp.frames_in == sp.frames_out,
                point + "frames in / out", count(sp.frames_in) + " / " + count(sp.frames_out),
                ">= " + count(expected) + ", in == out");
  }
  if (scaling_qps_gate && scaling.size() >= 2) {
    const ScalePoint& mid = scaling[scaling.size() - 2];
    const ScalePoint& largest = scaling.back();
    gates.check(mid.qps > 0.0 && largest.qps >= 0.9 * mid.qps,
                "C QPS at " + std::to_string(largest.connections) + " vs " +
                    std::to_string(mid.connections) + " connections",
                Table::num(mid.qps > 0.0 ? largest.qps / mid.qps : 0.0, 3) + "x", ">= 0.9x");
  }
  return gates.verdict("fleet_load", gates_skipped);
}
