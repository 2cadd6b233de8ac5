// Online reconfiguration controller for dynamic workloads (Sections 1, 2.4.1).
//
// MG-RAST's read ratio shifts abruptly at the 15-minute scale; a static
// configuration is suboptimal most of the time. The controller watches the
// characterized read ratio per window, re-runs the GA against the trained
// surrogate when the workload moves materially (seconds of work, Section
// 4.8), memoizes optimized configurations per read-ratio bucket, and charges
// a reconfiguration downtime when the configuration actually changes.
//
// The decision logic (bucketing, movement thresholds, reconfiguration
// accounting) is separable from optimize-on-miss: decide() only consults the
// memo cache and never runs the GA, while run_optimize() does the expensive
// search with no tuner lock held. on_window() composes the two — inline when
// standalone (the replay-harness shape), or stale-while-revalidate when an
// async-optimize hook routes misses to a background worker (the serve
// layer's RetrainWorker). All shared state is internally synchronized, so
// concurrent on_window / prefetch / run_optimize callers are safe.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>

#include "core/rafiki.h"
#include "util/sync.h"

namespace rafiki::core {

struct OnlineTunerOptions {
  /// Re-optimize when the window's RR moved at least this far from the RR
  /// the current configuration was chosen for.
  double rr_change_threshold = 0.15;
  /// Memoization granularity for optimized configs.
  double rr_bucket = 0.1;
  /// Virtual seconds of degraded service when a new config is applied
  /// (rolling restart); charged by the replay harness.
  double reconfigure_downtime_s = 15.0;
};

class OnlineTuner {
 public:
  /// `rafiki` must already be trained; the tuner holds a reference.
  OnlineTuner(const Rafiki& rafiki, OnlineTunerOptions options = {});

  struct Decision {
    engine::Config config;
    bool reconfigured = false;
    /// The returned config predates this window's regime: the memo cache had
    /// no entry for the (materially moved) read ratio, so the current config
    /// keeps serving while an optimization is pending in the background.
    bool stale = false;
    double predicted_throughput = 0.0;
  };

  /// Feeds the next observed window; returns the configuration to run with.
  /// With an async-optimize hook set, a cache miss returns immediately with
  /// a stale-marked decision and hands the bucket to the hook; without one,
  /// the miss optimizes inline (the original blocking behaviour).
  Decision on_window(double read_ratio);

  /// Decision logic only: cache hits may reconfigure, misses come back
  /// stale-marked. Never runs the optimizer.
  Decision decide(double read_ratio);

  /// Runs the GA for this read ratio's bucket and installs the result in the
  /// memo cache (firing the publish hook). The search itself holds no tuner
  /// lock, so decisions keep flowing while it runs. Returns false when the
  /// call coalesced away — the bucket was already cached, or another thread
  /// was mid-optimization for it (in which case this waits for that result).
  bool run_optimize(double read_ratio);

  /// Pre-computes (and caches) the optimized configuration for a forecast
  /// read ratio (see workload::WorkloadForecaster), so an anticipated regime
  /// switch pays no optimizer latency inside the critical window. Routes
  /// through the async-optimize hook when one is set.
  void prefetch(double read_ratio);

  /// Streams one measured (workload, configuration, throughput) sample into
  /// the Rafiki's knob screen (no-op on a static-mode Rafiki). Cheap: no
  /// model evaluation, no tuner lock — replay harnesses call it per window.
  void observe_sample(double read_ratio, const engine::Config& config,
                      double throughput);

  /// Called whenever a freshly optimized configuration enters the memo cache
  /// (run_optimize, on_window miss, or prefetch). The serve layer hooks this
  /// to republish the result through its versioned snapshot registry, so
  /// every tuned config the background path produces becomes visible to
  /// in-flight readers without locking them.
  using PublishHook = std::function<void(int bucket, const Rafiki::OptimizeResult& result)>;
  void set_publish_hook(PublishHook hook);

  /// When set, cache misses (on_window / prefetch) are delegated here
  /// instead of optimizing inline — the serve layer points this at its
  /// RetrainWorker so no GA ever runs on a request-path thread. Invoked with
  /// the tuner lock held: it must only enqueue, never call into the tuner.
  using AsyncOptimizeHook = std::function<void(int bucket, double read_ratio)>;
  void set_async_optimize_hook(AsyncOptimizeHook hook);

  /// Memoization key shared by on_window and prefetch.
  int bucket_for(double read_ratio) const noexcept;
  /// Whether this read ratio's bucket already has an optimized config.
  bool cached(double read_ratio) const;

  std::size_t reconfigurations() const;
  std::size_t optimizer_runs() const;
  const OnlineTunerOptions& options() const noexcept { return options_; }

 private:
  Decision decide_locked(double read_ratio) REQUIRES(mutex_);

  const Rafiki* rafiki_;
  OnlineTunerOptions options_;

  mutable Mutex mutex_;
  CondVar optimize_done_;
  PublishHook publish_ GUARDED_BY(mutex_);
  AsyncOptimizeHook async_optimize_ GUARDED_BY(mutex_);
  /// bucket -> optimized result
  std::map<int, Rafiki::OptimizeResult> cache_ GUARDED_BY(mutex_);
  /// buckets currently being optimized (lock dropped for the GA itself)
  std::set<int> in_flight_ GUARDED_BY(mutex_);
  engine::Config current_ GUARDED_BY(mutex_) = engine::Config::defaults();
  /// RR the current config was chosen for.
  double current_rr_ GUARDED_BY(mutex_) = -1.0;
  bool have_config_ GUARDED_BY(mutex_) = false;
  std::size_t reconfigurations_ GUARDED_BY(mutex_) = 0;
  std::size_t optimizer_runs_ GUARDED_BY(mutex_) = 0;
};

}  // namespace rafiki::core
