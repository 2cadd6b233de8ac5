#include "tenant/fleet.h"

#include <utility>

namespace rafiki::tenant {

FleetOptions TenantFleet::sanitize(FleetOptions options) {
  if (options.tenants == 0) options.tenants = 1;
  // One snapshot slot / version counter / retrain key-space per tenant in
  // every shard; whatever the caller left in shard.service.tenants is
  // overridden — the fleet is the single source of truth for the tenant set.
  options.shard.service.tenants = options.tenants;
  return options;
}

TenantFleet::TenantFleet(FleetOptions options)
    : options_(sanitize(std::move(options))),
      registry_(options_.tenants, options_.quota_for),
      router_(options_.shard) {}

TenantFleet::~TenantFleet() { stop(); }

void TenantFleet::attach_rafiki(const core::Rafiki& rafiki,
                                core::OnlineTunerOptions tuner_options) {
  for (std::size_t t = 0; t < registry_.size(); ++t) {
    TenantState& state = registry_.at(t);
    state.tuner = std::make_unique<core::OnlineTuner>(rafiki, tuner_options);
    router_.attach_tenant_tuner(static_cast<serve::TenantId>(t), *state.tuner);
  }
}

std::uint64_t TenantFleet::publish(serve::ModelSnapshot snapshot) {
  return router_.publish(std::move(snapshot));
}

std::shared_ptr<const serve::ModelSnapshot> TenantFleet::snapshot() const {
  return router_.snapshot();
}

std::uint64_t TenantFleet::model_version() const { return router_.model_version(); }

std::shared_ptr<const serve::ModelSnapshot> TenantFleet::tenant_snapshot(
    serve::TenantId tenant) const {
  return router_.tenant_snapshot(tenant);
}

std::uint64_t TenantFleet::tenant_model_version(serve::TenantId tenant) const {
  return router_.tenant_model_version(tenant);
}

void TenantFleet::attach_tuner(core::OnlineTuner& tuner) {
  router_.attach_tenant_tuner(0, tuner);
}

serve::Status TenantFleet::try_submit(serve::Request request,
                                      serve::ResponseCallback done) {
  TenantState* state = registry_.find(request.tenant);
  serve::ServiceStats& stats = router_.stats();
  if (state == nullptr) {
    // A tenant id outside the fleet is a client-side configuration error,
    // not an overload: answer with the typed kNotReady (no model will ever
    // be ready for a namespace that does not exist) and count it.
    stats.record_unknown_tenant();
    return serve::Status::kNotReady;
  }
  // In-flight cap before token bucket: the cap is a pure atomic check, the
  // bucket reads a clock and takes a mutex — and a request that would be
  // rejected by the cap must not consume a rate token.
  if (!state->quota.begin_request()) {
    stats.record_inflight_reject();
    return serve::Status::kOverloaded;
  }
  if (!state->quota.try_acquire_token()) {
    state->quota.end_request();
    stats.record_quota_reject();
    return serve::Status::kOverloaded;
  }
  stats.record_tenant_admit();
  // Wrap the completion to release the in-flight slot exactly once. The
  // registry outlives the router (member order), so `state` stays valid for
  // as long as any backend callback can fire.
  auto wrapped = [state, done = std::move(done)](serve::Response response) mutable {
    state->quota.end_request();
    done(std::move(response));
  };
  const serve::Status admitted = router_.try_submit(std::move(request), std::move(wrapped));
  if (admitted != serve::Status::kOk) {
    // Router-level rejection (all shards full / shutting down): the wrapped
    // callback will never fire, so the slot is released here.
    state->quota.end_request();
  }
  return admitted;
}

void TenantFleet::start() { router_.start(); }

void TenantFleet::stop() { router_.stop(); }

}  // namespace rafiki::tenant
