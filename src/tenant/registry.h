// The tenant registry: the fleet's authoritative map from tenant id to that
// tenant's admission quota and (once attach_rafiki runs) its own OnlineTuner
// — its own current config and reconfiguration counters, over the memo every
// tenant's tuner shares.
// Tenants are dense ids [0, size); the registry is sized at construction and
// never grows, so find() is a bounds check plus an index — no lock on the
// admission path.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>

#include "serve/types.h"
#include "tenant/quota.h"

namespace rafiki::core {
class OnlineTuner;
}

namespace rafiki::tenant {

/// Everything the fleet tracks for one tenant namespace. Immovable (the
/// quota owns a mutex), so the registry stores states in a deque.
struct TenantState {
  TenantState(serve::TenantId id_, QuotaOptions quota_options)
      : id(id_), quota(std::move(quota_options)) {}

  TenantState(const TenantState&) = delete;
  TenantState& operator=(const TenantState&) = delete;

  const serve::TenantId id;
  /// The tenant's own tuner (null until TenantFleet::attach_rafiki). All
  /// tenants share one trained Rafiki model and one TuneMemo: a bucket tenant
  /// A's window searched is a hit for tenant B, while each tuner keeps its
  /// own current config, regime anchor and counters.
  std::unique_ptr<core::OnlineTuner> tuner;
  TenantQuota quota;
};

class TenantRegistry {
 public:
  /// Builds `tenants` dense states; `quota_for` (may be null) supplies each
  /// tenant's quota — null means every tenant is unlimited.
  TenantRegistry(std::size_t tenants,
                 const std::function<QuotaOptions(serve::TenantId)>& quota_for);

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// The tenant's state, or nullptr for an id outside [0, size()) — the
  /// fleet maps that to kNotReady (unknown tenant), not a crash.
  TenantState* find(serve::TenantId id) noexcept {
    return id < states_.size() ? &states_[id] : nullptr;
  }
  const TenantState* find(serve::TenantId id) const noexcept {
    return id < states_.size() ? &states_[id] : nullptr;
  }

  TenantState& at(std::size_t index) { return states_[index]; }
  const TenantState& at(std::size_t index) const { return states_[index]; }
  std::size_t size() const noexcept { return states_.size(); }

 private:
  std::deque<TenantState> states_;
};

}  // namespace rafiki::tenant
