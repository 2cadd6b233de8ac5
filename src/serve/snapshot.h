// Versioned model snapshot: the immutable {ensemble, search space,
// normalization} bundle every request executes against. Normalization lives
// inside the ensemble (fit at train time, reused at predict time), so
// swapping the snapshot swaps all three consistently — a half-updated model
// is unrepresentable. Published through a VersionedRegistry; the service
// assigns monotonically increasing versions at publish time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "engine/config.h"
#include "engine/params.h"
#include "ml/ensemble.h"
#include "opt/space.h"
#include "serve/registry.h"

namespace rafiki::core {
class Rafiki;
}

namespace rafiki::serve {

/// One optimized configuration republished by the online-tuning path for a
/// read-ratio bucket (OnlineTuner's memo granularity).
struct TunedEntry {
  engine::Config config = engine::Config::defaults();
  double predicted_throughput = 0.0;
};

struct ModelSnapshot {
  /// Assigned by TuningService::publish; 0 until published.
  std::uint64_t version = 0;
  ml::SurrogateEnsemble ensemble;
  /// Parameter subset the ensemble was trained on, in feature order
  /// (after the leading read-ratio feature).
  std::vector<engine::ParamId> key_params;
  /// GA search space spanned by key_params, for the Optimize endpoint.
  /// Shared (immutable) across snapshot versions; null until set, since a
  /// SearchSpace cannot be empty.
  std::shared_ptr<const opt::SearchSpace> space;
  /// Read-ratio bucket width of the `tuned` keys.
  double rr_bucket = 0.1;
  /// Most recent optimized config per bucket, published by OnlineTuner.
  std::map<int, TunedEntry> tuned;

  /// Surrogate feature row for (workload, configuration) in this snapshot's
  /// feature order.
  std::vector<double> feature_row(double read_ratio, const engine::Config& config) const;
  /// Same row written into `out` (key_params.size() + 1 values).
  void write_feature_row(double read_ratio, const engine::Config& config,
                         std::span<double> out) const;
};

/// Copies the trained artifacts of a pipeline into a publishable snapshot
/// (version 0 — the service stamps the real version). Requires key
/// parameters to be selected and the ensemble trained.
ModelSnapshot make_snapshot(const core::Rafiki& rafiki);

using SnapshotRegistry = VersionedRegistry<ModelSnapshot>;

}  // namespace rafiki::serve
