// rafiki_serverd — standalone serving daemon: trains a small surrogate
// pipeline, publishes the snapshot, and serves the RPC protocol until stdin
// closes (or EOF in a pipe) or SIGINT/SIGTERM arrives, then drains
// gracefully and prints the stats tables. The counterpart of
// tools/rafiki_client.
//
//   rafiki_serverd [--port P] [--host H] [--io-threads N] [--workers N]
//                  [--shards N] [--tenants N] [--worker-budget N]
//                  [--pin-shards] [--full]
//
// Each of the --io-threads IO loops waits on one level-triggered poll() set;
// the drain report shows how those loops batched their flushes.
//
// --shards N (N > 1) serves through the ShardedTuningService router —
// per-(tenant, read-ratio-band) shards, each with its own queue/workers/
// batcher — and prints the cross-shard merged stats table on drain.
// --worker-budget N caps the fleet's total worker threads (divided across
// shards; default derives from --workers capped at the hardware threads) and
// --pin-shards pins each shard's workers to a contiguous CPU range.
//
// --tenants N (N > 1) serves a multi-tenant fleet (tenant::TenantFleet):
// each tenant gets its own model slot and OnlineTuner, requests route by the
// RKF2 header's tenant field, and the drain report includes the fleet's
// admission fairness counters. Tenant ids 0..N-1 are valid; anything else
// answers kNotReady.
//
// The default training profile is the CI smoke profile (seconds); --full
// trains the mid-sized ensemble the benches use (minutes).
//
// Numeric flags take plain decimal digits only: a sign, trailing text or a
// value past the flag's cap exits with status 2 before any training starts.
// Thread counts (--io-threads, --workers, --worker-budget) are capped at
// kMaxThreads.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/online.h"
#include "core/rafiki.h"
#include "engine/params.h"
#include "net/server.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "serve/snapshot.h"
#include "tenant/fleet.h"

using namespace rafiki;

namespace {

// Async-signal-safe shutdown flag; the handler only sets it. Installed
// WITHOUT SA_RESTART so the blocking fgets() on stdin returns EINTR and the
// serve loop falls through to the same graceful drain that EOF triggers.
volatile std::sig_atomic_t g_shutdown_signal = 0;

void on_shutdown_signal(int signo) { g_shutdown_signal = signo; }

constexpr unsigned long kMaxThreads = 256;
constexpr unsigned long kMaxShards = 128;  // the router's own clamp
// Every shard allocates one snapshot slot per tenant.
constexpr unsigned long kMaxTenants = 4096;

/// Parses an unsigned decimal flag value into `out`: digits only, no sign
/// (strtoul would wrap "-1" to ULONG_MAX), no trailing text, at most `max`.
bool parse_count(const char* text, unsigned long max, std::size_t& out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::size_t port = 7117;
  std::size_t io_threads = 2;
  std::size_t workers = 2;
  std::size_t shards = 1;
  std::size_t tenants = 1;
  std::size_t worker_budget = 0;
  bool pin_shards = false;
  bool full = false;
  const auto invalid = [](const std::string& flag, const char* text) {
    std::fprintf(stderr, "invalid %s value '%s'\n", flag.c_str(), text);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--host" && has_value) {
      host = argv[++i];
    } else if (arg == "--port" && has_value) {
      if (!parse_count(argv[++i], 65535, port)) return invalid(arg, argv[i]);
    } else if (arg == "--io-threads" && has_value) {
      if (!parse_count(argv[++i], kMaxThreads, io_threads)) return invalid(arg, argv[i]);
    } else if (arg == "--workers" && has_value) {
      if (!parse_count(argv[++i], kMaxThreads, workers)) return invalid(arg, argv[i]);
    } else if (arg == "--shards" && has_value) {
      if (!parse_count(argv[++i], kMaxShards, shards)) return invalid(arg, argv[i]);
    } else if (arg == "--tenants" && has_value) {
      if (!parse_count(argv[++i], kMaxTenants, tenants)) return invalid(arg, argv[i]);
    } else if (arg == "--worker-budget" && has_value) {
      if (!parse_count(argv[++i], kMaxThreads, worker_budget)) return invalid(arg, argv[i]);
    } else if (arg == "--pin-shards") {
      pin_shards = true;
    } else if (arg == "--full") {
      full = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host H] [--port P] [--io-threads N] "
                   "[--workers N] [--shards N] [--tenants N] "
                   "[--worker-budget N] [--pin-shards] [--full]\n",
                   argv[0]);
      return 2;
    }
  }
  if (tenants == 0) tenants = 1;

  std::printf("training the surrogate ensemble (%s profile)...\n",
              full ? "full" : "smoke");
  core::Rafiki rafiki(core::serving_options(!full));
  rafiki.set_key_params(engine::key_params());
  rafiki.train(rafiki.collect());
  if (!rafiki.trained()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  serve::ServiceOptions service_options;
  service_options.workers = workers;
  core::OnlineTuner tuner(rafiki);  // tenant-0 tuner for the non-fleet paths
  std::unique_ptr<serve::TuningBackend> backend;
  if (tenants > 1) {
    tenant::FleetOptions fleet_options;
    fleet_options.tenants = tenants;
    fleet_options.shard.shards = shards;
    fleet_options.shard.service = service_options;
    fleet_options.shard.worker_budget = worker_budget;
    fleet_options.shard.pin_shards = pin_shards;
    auto fleet = std::make_unique<tenant::TenantFleet>(fleet_options);
    fleet->attach_rafiki(rafiki);
    backend = std::move(fleet);
  } else if (shards > 1) {
    serve::ShardOptions shard_options;
    shard_options.shards = shards;
    shard_options.service = service_options;
    shard_options.worker_budget = worker_budget;
    shard_options.pin_shards = pin_shards;
    backend = std::make_unique<serve::ShardedTuningService>(shard_options);
  } else {
    backend = std::make_unique<serve::TuningService>(service_options);
  }
  serve::TuningBackend& service = *backend;
  service.publish(serve::make_snapshot(rafiki));
  if (tenants == 1) service.attach_tuner(tuner);
  service.start();

  net::ServerOptions server_options;
  server_options.host = host;
  server_options.port = static_cast<std::uint16_t>(port);
  server_options.io_threads = io_threads;
  net::Server server(service, server_options);
  if (!server.start()) {
    std::fprintf(stderr, "server start failed: %s\n", server.last_error().c_str());
    service.stop();
    return 1;
  }

  // Graceful shutdown on SIGINT/SIGTERM: no SA_RESTART, so the fgets() below
  // is interrupted (EINTR -> nullptr) and the normal drain path runs —
  // in-flight requests finish, stats tables still print.
  struct sigaction sa{};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  std::printf("serving on %s:%u (model version %llu, %zu shard%s, %zu tenant%s); "
              "close stdin or SIGINT/SIGTERM to stop\n",
              host.c_str(), server.port(),
              static_cast<unsigned long long>(service.model_version()), shards,
              shards == 1 ? "" : "s", tenants, tenants == 1 ? "" : "s");
  std::fflush(stdout);

  // Serve until stdin closes — works interactively (Ctrl-D), under a pipe,
  // and under process supervisors that hold stdin open for the lifetime —
  // or until a shutdown signal interrupts the read.
  char buffer[256];
  while (g_shutdown_signal == 0 &&
         std::fgets(buffer, sizeof buffer, stdin) != nullptr) {
  }

  if (g_shutdown_signal != 0) {
    std::printf("caught %s, draining...\n",
                g_shutdown_signal == SIGTERM ? "SIGTERM" : "SIGINT");
  } else {
    std::printf("stdin closed, draining...\n");
  }
  const auto before = service.stats().wire_counters();
  server.stop();
  service.stop();
  const auto after = service.stats().wire_counters();

  // Drain report: what the graceful shutdown actually flushed, and how the
  // event loop batched it (one flush = one per-connection drain attempt; the
  // syscalls-per-frame figure is the wire's hardware-independent cost).
  std::printf("drained: %llu frame(s) answered during drain, %llu connection(s) "
              "closed, %llu frame(s) total in / %llu out\n",
              static_cast<unsigned long long>(after.frames_out - before.frames_out),
              static_cast<unsigned long long>(after.connections_closed -
                                              before.connections_closed),
              static_cast<unsigned long long>(after.frames_in),
              static_cast<unsigned long long>(after.frames_out));
  std::printf("io loops: %llu flush(es), %llu flush syscall(s), "
              "%.2f frame(s)/flush, %.4f syscall(s)/frame, %llu EAGAIN "
              "partial write(s)\n",
              static_cast<unsigned long long>(after.flushes),
              static_cast<unsigned long long>(after.flush_syscalls),
              after.frames_per_flush(), after.flush_syscalls_per_frame(),
              static_cast<unsigned long long>(after.flush_eagain));

  // telemetry() merges every shard for a sharded backend; wire-level
  // telemetry always lives in the backend's front-end stats object.
  const serve::Telemetry telemetry = service.telemetry();
  std::printf("\n=== request stats ===\n%s", telemetry.table().render().c_str());
  std::printf("\n=== wire stats ===\n%s", service.stats().wire_table().render().c_str());
  if (tenants > 1) {
    const auto& fc = telemetry.fleet;
    std::printf("\n=== fleet admission ===\nadmitted %llu | quota rejected %llu | "
                "in-flight rejected %llu | unknown tenant %llu\n",
                static_cast<unsigned long long>(fc.admitted),
                static_cast<unsigned long long>(fc.quota_rejected),
                static_cast<unsigned long long>(fc.inflight_rejected),
                static_cast<unsigned long long>(fc.unknown_tenant));
  }
  return 0;
}
