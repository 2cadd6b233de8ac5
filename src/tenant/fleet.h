// Multi-tenant fleet serving: one process answers many tenant namespaces
// from a single sharded backend, with per-tenant models, per-tenant
// admission quotas, and telemetry-driven rebalance.
//
//   client ──RKF2 frame (tenant t)──▶ net::Server
//                                        │ try_submit(request{tenant=t})
//                                        ▼
//                                  TenantFleet ── admission ──▶ kNotReady
//                                        │   (registry: quota,    (unknown)
//                                        │    in-flight cap)   ▶ kOverloaded
//                                        ▼                       (quota)
//                               ShardedTuningService
//                              route (tenant, band) ──▶ shard k
//                                        │                  │ per-tenant
//                                        │                  │ snapshot slot,
//                                        │                  │ retrain keys
//                                        ▼                  ▼
//                                 per-tenant OnlineTuner (registry-owned)
//
// The fleet is a TuningBackend decorator: everything below admission is the
// sharded router, configured with one snapshot slot / version counter /
// retrain key-space per tenant. Tenant 0 is the default namespace, so a
// fleet of one is bit-for-bit the original single-tenant stack.
//
// Admission order is deliberate: registry lookup (unknown tenant -> the
// typed kNotReady the wire already carries), then the in-flight cap, then
// the token bucket — the cheap constant-time checks first, the clock-reading
// bucket last, and only for requests that will otherwise be admitted. The
// response callback is wrapped to release the in-flight slot exactly once,
// whether the backend answers from a worker or fails admission downstream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/online.h"
#include "serve/backend.h"
#include "serve/shard.h"
#include "tenant/registry.h"

namespace rafiki::tenant {

struct FleetOptions {
  /// Tenant namespaces served by this fleet (dense ids [0, tenants)).
  /// Propagated into every shard's ServiceOptions::tenants, so the inner
  /// value in `shard.service` is overwritten.
  std::size_t tenants = 1;
  /// The inner sharded backend (shard count, per-shard service, spill,
  /// rebalance interval).
  serve::ShardOptions shard{};
  /// Per-tenant admission quota. Null (the default) leaves every tenant
  /// unlimited; the fleet bench uses this to give the noisy tenant a tight
  /// in-flight cap while victims run uncapped.
  std::function<QuotaOptions(serve::TenantId)> quota_for;
};

class TenantFleet : public serve::TuningBackend {
 public:
  explicit TenantFleet(FleetOptions options = {});
  ~TenantFleet() override;

  TenantFleet(const TenantFleet&) = delete;
  TenantFleet& operator=(const TenantFleet&) = delete;

  /// Builds one OnlineTuner per tenant over the shared trained model and
  /// wires each into the router (per-tenant publish fan-out, per-tenant
  /// retrain key-space, ObserveWindow binding). `rafiki` must be trained and
  /// must outlive this fleet. Call before start().
  void attach_rafiki(const core::Rafiki& rafiki,
                     core::OnlineTunerOptions tuner_options = {});

  // --- TuningBackend ---
  std::uint64_t publish(serve::ModelSnapshot snapshot) override;
  std::shared_ptr<const serve::ModelSnapshot> snapshot() const override;
  std::uint64_t model_version() const override;
  std::shared_ptr<const serve::ModelSnapshot> tenant_snapshot(
      serve::TenantId tenant) const override;
  std::uint64_t tenant_model_version(serve::TenantId tenant) const override;

  /// Single-tuner attach for the default namespace (tenant 0) — the
  /// pre-fleet surface. Fleets with real tenants use attach_rafiki.
  void attach_tuner(core::OnlineTuner& tuner) override;

  /// Fleet admission, then the router. Extends the backend's admission
  /// verdict set with kNotReady for a tenant id outside the fleet (the
  /// net::Server already answers any non-kOk verdict inline as a typed
  /// error-free response, so unknown tenants get a clean wire answer).
  serve::Status try_submit(serve::Request request,
                           serve::ResponseCallback done) override;

  void start() override;
  void stop() override;

  serve::ServiceStats& stats() noexcept override { return router_.stats(); }
  const serve::ServiceStats& stats() const noexcept override {
    return router_.stats();
  }
  Table stats_table() const override { return router_.stats_table(); }
  serve::ServiceStats::Counters endpoint_counters(
      serve::Endpoint endpoint) const override {
    return router_.endpoint_counters(endpoint);
  }
  serve::ServiceStats::RetrainCounters retrain_counters() const override {
    return router_.retrain_counters();
  }
  double endpoint_latency_quantile(serve::Endpoint endpoint,
                                   double q) const override {
    return router_.endpoint_latency_quantile(endpoint, q);
  }
  double mean_batch_size() const override { return router_.mean_batch_size(); }
  double mean_retrain_latency_us() const override {
    return router_.mean_retrain_latency_us();
  }
  void wait_retrain_idle() override { router_.wait_retrain_idle(); }

  /// Fleet admission fairness counters (admitted / quota_rejected /
  /// inflight_rejected / unknown_tenant), recorded in the router stats.
  serve::ServiceStats::FleetCounters fleet_counters() const {
    return router_.stats().fleet_counters();
  }

  TenantRegistry& registry() noexcept { return registry_; }
  const TenantRegistry& registry() const noexcept { return registry_; }
  serve::ShardedTuningService& router() noexcept { return router_; }
  const serve::ShardedTuningService& router() const noexcept { return router_; }
  /// The tenant's own tuner (null before attach_rafiki / unknown tenant).
  core::OnlineTuner* tuner(serve::TenantId tenant) noexcept {
    TenantState* state = registry_.find(tenant);
    return state ? state->tuner.get() : nullptr;
  }
  std::size_t tenants() const noexcept { return registry_.size(); }
  const FleetOptions& options() const noexcept { return options_; }

 private:
  static FleetOptions sanitize(FleetOptions options);

  FleetOptions options_;
  /// Declared before router_: response callbacks wrapped by try_submit hold
  /// TenantState pointers and may fire as late as the router's destructor
  /// drain, so the registry (and its quotas/tuners) must outlive the router.
  TenantRegistry registry_;
  serve::ShardedTuningService router_;
};

}  // namespace rafiki::tenant
