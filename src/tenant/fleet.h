// Multi-tenant fleet serving: one process answers many tenant namespaces
// from a single sharded backend, with per-tenant models, per-tenant
// admission quotas, and telemetry-driven rebalance.
//
//   client ──RKF2 frame (tenant t)──▶ net::Server
//                                        │ try_submit(request{tenant=t}), or
//                                        │ answer_predicts(round) for Predicts
//                                        ▼
//                       TenantFleet::try_submit ── admission ──▶ kNotReady
//                                        │   (registry: quota,    (unknown)
//                                        │    in-flight cap)   ▶ kOverloaded
//                                        ▼                       (quota)
//                       ShardedTuningService::try_submit (the base class)
//                              route (tenant, band) ──▶ shard k
//                                        │                  │ per-tenant
//                                        │                  │ snapshot slot
//                                        ▼                  ▼
//                                 per-tenant OnlineTuner (registry-owned)
//                                        │ one shared TuneMemo: a bucket is
//                                        ▼ searched once for every tenant
//
// The fleet IS the sharded router, configured with one snapshot slot and
// version counter per tenant: it derives from ShardedTuningService and
// overrides only its two entry points, try_submit and answer_predicts, so
// publish, routing, lifecycle and telemetry are the router's own code.
// Every tenant's tuner reads one TuneMemo over the shared model, so a
// (model, bucket) pair costs one GA run and one retrain task fleet-wide,
// and its result is republished into every tenant's slot. Tenant 0 is the default namespace, so a fleet of one is
// bit-for-bit the original single-tenant stack.
//
// Admission order is deliberate: registry lookup (unknown tenant -> the
// typed kNotReady the wire already carries), then the in-flight cap, then
// the token bucket — the cheap constant-time checks first, the clock-reading
// bucket last, and only for requests that will otherwise be admitted. The
// response callback is wrapped to release the in-flight slot exactly once,
// whether the backend answers from a worker or fails admission downstream;
// an answer_predicts round releases its admitted slots after its forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/online.h"
#include "serve/shard.h"
#include "tenant/registry.h"

namespace rafiki::tenant {

struct FleetOptions {
  /// Tenant namespaces served by this fleet (dense ids [0, tenants)).
  /// Propagated into every shard's ServiceOptions::tenants, so the inner
  /// value in `shard.service` is overwritten.
  std::size_t tenants = 1;
  /// The router the fleet is built on (shard count, per-shard service,
  /// spill, rebalance interval).
  serve::ShardOptions shard{};
  /// Per-tenant admission quota. Null (the default) leaves every tenant
  /// unlimited; the fleet bench uses this to give the noisy tenant a tight
  /// in-flight cap while victims run uncapped.
  std::function<QuotaOptions(serve::TenantId)> quota_for;
};

class TenantFleet : public serve::ShardedTuningService {
 public:
  explicit TenantFleet(FleetOptions options = {});
  /// Stops the router before the registry goes. The registry is a member of
  /// this derived class, so it is destroyed BEFORE the router base; the
  /// wrapped callbacks of still-parked requests hold TenantState pointers
  /// and fire from stop()'s drain, so that drain must run here, while the
  /// registry is alive. (The base destructor's stop() is then a no-op.)
  ~TenantFleet() override;

  TenantFleet(const TenantFleet&) = delete;
  TenantFleet& operator=(const TenantFleet&) = delete;

  /// Builds one OnlineTuner per tenant, all over one TuneMemo of the shared
  /// trained model, and wires each into the router (per-tenant publish
  /// fan-out, ObserveWindow binding; retrain tasks keyed by bucket, so
  /// same-bucket misses from any tenant coalesce). `rafiki` must be trained
  /// and must outlive this fleet. Call before start().
  void attach_rafiki(const core::Rafiki& rafiki,
                     core::OnlineTunerOptions tuner_options = {});

  /// Fleet admission, then the router. Extends the backend's admission
  /// verdict set with kNotReady for a tenant id outside the fleet (the
  /// net::Server already answers any non-kOk verdict inline as a typed
  /// error-free response, so unknown tenants get a clean wire answer).
  serve::Status try_submit(serve::Request request,
                           serve::ResponseCallback done) override;
  /// Fleet admission for every request of the round first, then the router
  /// over the admitted ones; their in-flight slots are released after the
  /// forward. A burst past a tenant's in-flight cap that arrives in one
  /// round is refused for the excess, exactly as if it had queued.
  void answer_predicts(std::span<const serve::Request> requests,
                       std::span<serve::Response> responses,
                       serve::PredictScratch& scratch) override;

  /// Fleet admission fairness counters (admitted / quota_rejected /
  /// inflight_rejected / unknown_tenant), recorded in the router stats.
  serve::ServiceStats::FleetCounters fleet_counters() const {
    return stats().fleet_counters();
  }

  TenantRegistry& registry() noexcept { return registry_; }
  const TenantRegistry& registry() const noexcept { return registry_; }
  /// The tenant's own tuner (null before attach_rafiki / unknown tenant).
  core::OnlineTuner* tuner(serve::TenantId tenant) noexcept {
    TenantState* state = registry_.find(tenant);
    return state ? state->tuner.get() : nullptr;
  }

 private:
  static serve::ShardOptions shard_options(const FleetOptions& options);
  /// Registry lookup (null: unknown tenant), in-flight cap, then token
  /// bucket, each rejection counted. kOk claims an in-flight slot the caller
  /// must release with end_request().
  serve::Status admit(TenantState* state);

  TenantRegistry registry_;
};

}  // namespace rafiki::tenant
