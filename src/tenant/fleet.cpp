#include "tenant/fleet.h"

#include <algorithm>
#include <utility>

namespace rafiki::tenant {

serve::ShardOptions TenantFleet::shard_options(const FleetOptions& options) {
  // One snapshot slot / version counter per tenant in every shard; whatever the caller left in shard.service.tenants is
  // overridden — the fleet is the single source of truth for the tenant set.
  serve::ShardOptions shard = options.shard;
  shard.service.tenants = std::max<std::size_t>(options.tenants, 1);
  return shard;
}

TenantFleet::TenantFleet(FleetOptions options)
    : ShardedTuningService(shard_options(options)),
      registry_(ShardedTuningService::options().service.tenants, options.quota_for) {}

TenantFleet::~TenantFleet() { stop(); }

void TenantFleet::attach_rafiki(const core::Rafiki& rafiki,
                                core::OnlineTunerOptions tuner_options) {
  // One memo for the fleet: a bucket one tenant's window searched is a hit
  // for every other tenant, and its install republishes into every slot.
  const auto memo = std::make_shared<core::TuneMemo>(rafiki, tuner_options.rr_bucket);
  for (std::size_t t = 0; t < registry_.size(); ++t) {
    TenantState& state = registry_.at(t);
    state.tuner = std::make_unique<core::OnlineTuner>(memo, tuner_options);
    attach_tenant_tuner(static_cast<serve::TenantId>(t), *state.tuner);
  }
}

serve::Status TenantFleet::admit(TenantState* state) {
  serve::ServiceStats& fleet_stats = stats();
  if (state == nullptr) {
    // A tenant id outside the fleet is a client-side configuration error,
    // not an overload: answer with the typed kNotReady (no model will ever
    // be ready for a namespace that does not exist) and count it.
    fleet_stats.record_unknown_tenant();
    return serve::Status::kNotReady;
  }
  // In-flight cap before token bucket: the cap is a pure atomic check, the
  // bucket reads a clock and takes a mutex — and a request that would be
  // rejected by the cap must not consume a rate token.
  if (!state->quota.begin_request()) {
    fleet_stats.record_inflight_reject();
    return serve::Status::kOverloaded;
  }
  if (!state->quota.try_acquire_token()) {
    state->quota.end_request();
    fleet_stats.record_quota_reject();
    return serve::Status::kOverloaded;
  }
  fleet_stats.record_tenant_admit();
  return serve::Status::kOk;
}

serve::Status TenantFleet::try_submit(serve::Request request,
                                      serve::ResponseCallback done) {
  TenantState* state = registry_.find(request.tenant);
  const serve::Status verdict = admit(state);
  if (verdict != serve::Status::kOk) return verdict;
  // Wrap the completion to release the in-flight slot exactly once. The
  // destructor drains the router before the registry dies, so `state` stays
  // valid for as long as any backend callback can fire.
  auto wrapped = [state, done = std::move(done)](serve::Response response) mutable {
    state->quota.end_request();
    done(std::move(response));
  };
  const serve::Status admitted =
      ShardedTuningService::try_submit(std::move(request), std::move(wrapped));
  if (admitted != serve::Status::kOk) {
    // Router-level rejection (all shards full / shutting down): the wrapped
    // callback will never fire, so the slot is released here.
    state->quota.end_request();
  }
  return admitted;
}

void TenantFleet::answer_predicts(std::span<const serve::Request> requests,
                                  std::span<serve::Response> responses,
                                  serve::PredictScratch& scratch) {
  // The whole round is admitted before any slot is released, so the cap
  // sees the round's concurrency.
  auto& admitted = scratch.order;
  admitted.clear();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const serve::Status verdict = admit(registry_.find(requests[r].tenant));
    if (verdict == serve::Status::kOk) {
      admitted.push_back(static_cast<std::uint32_t>(r));
    } else {
      responses[r] = serve::Response{};
      responses[r].status = verdict;
    }
  }
  answer_routed(requests, responses, admitted, scratch);
  for (const std::uint32_t r : admitted) registry_.find(requests[r].tenant)->quota.end_request();
}

}  // namespace rafiki::tenant
