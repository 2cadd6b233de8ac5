// Online reconfiguration controller for dynamic workloads (Sections 1, 2.4.1).
//
// MG-RAST's read ratio shifts abruptly at the 15-minute scale; a static
// configuration is suboptimal most of the time. The controller watches the
// characterized read ratio per window, re-runs the GA against the trained
// surrogate when the workload moves materially (seconds of work, Section
// 4.8), memoizes optimized configurations per read-ratio bucket, and charges
// a reconfiguration downtime when the configuration actually changes.
//
// The memo is a TuneMemo that any number of tuners over one trained Rafiki
// can share: a tenant fleet builds every tenant's tuner over one memo, so a
// (model, bucket) pair is searched once however many tenants reach it (the
// paper's Table 3 idea — one surrogate serving many instances — applied to
// tuning). A standalone tuner creates a private memo; there is one code path.
// The tuner itself keeps only per-tenant decision state: the current config,
// the read ratio it was chosen for, its counters and its hooks.
//
// The decision logic (bucketing, movement thresholds, reconfiguration
// accounting) is separable from optimize-on-miss: decide() only consults the
// memo and never runs the GA, while run_optimize() does the expensive search
// with no lock held. on_window() composes the two — inline when standalone
// (the replay-harness shape), or stale-while-revalidate when an
// async-optimize hook routes misses to a background worker (the serve
// layer's RetrainWorker). All shared state is internally synchronized, so
// concurrent on_window / prefetch / run_optimize callers are safe.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/rafiki.h"
#include "util/sync.h"

namespace rafiki::core {

struct OnlineTunerOptions {
  /// Re-optimize when the window's RR moved at least this far from the RR
  /// the current configuration was chosen for.
  double rr_change_threshold = 0.15;
  /// Memoization granularity for optimized configs. Tuners sharing a
  /// TuneMemo must agree on it (the memo's own width is the key).
  double rr_bucket = 0.1;
  /// Virtual seconds of degraded service when a new config is applied
  /// (rolling restart); charged by the replay harness.
  double reconfigure_downtime_s = 15.0;
};

class OnlineTuner;

/// The per-bucket memo of optimized configurations over one trained Rafiki,
/// shared by every OnlineTuner built over it. The GA is deterministic in
/// (model, bucket, active knob set, GaOptions), so one search per bucket
/// serves every member: the first read ratio that misses a bucket is the one
/// it is searched at, exactly as when many clients share one tuner.
///
/// Bounded by construction: read ratios are clamped into [0, 1] before they
/// are bucketed, so the memo holds at most round(1 / rr_bucket) + 1 entries
/// for one active knob set. Entries are stamped with the active-set
/// generation (Rafiki::tune_stats().changes); when the set changes, the memo
/// empties, and a search that started under the old set is discarded rather
/// than installed.
///
/// The memo is also the one record that a bucket's search is pending: a
/// bucket is handed to a background worker only when it is neither handed
/// off nor in flight, so any number of misses, from any member, cost one
/// background task per bucket.
class TuneMemo {
 public:
  /// `rafiki` must already be trained and must outlive the memo.
  explicit TuneMemo(const Rafiki& rafiki, double rr_bucket = OnlineTunerOptions{}.rr_bucket);

  TuneMemo(const TuneMemo&) = delete;
  TuneMemo& operator=(const TuneMemo&) = delete;

  /// The read ratio every tuner entry point works with: clamped into
  /// [0, 1], NaN mapped to 0.
  static double clamp_read_ratio(double read_ratio) noexcept;
  /// Memo key of a read ratio (clamped first): an integer in
  /// [0, round(1 / rr_bucket)].
  int bucket_for(double read_ratio) const noexcept;

  /// Cached buckets in ascending order (entries of a replaced active knob
  /// set are gone).
  std::vector<int> buckets();

  double rr_bucket() const noexcept { return rr_bucket_; }

 private:
  friend class OnlineTuner;

  /// Whether the bucket holds an optimized config.
  bool contains(int bucket);

  struct Entry {
    engine::Config config;
    double predicted_throughput = 0.0;
  };
  /// Hands a missed bucket to a background search; returns whether the
  /// search was accepted (false: the queue was full or stopping).
  using MissHook = std::function<bool(int bucket, double read_ratio)>;

  /// The bucket's entry, or nullopt. Entries cut for an active knob set that
  /// has since changed are dropped first, so a hit is always current. On a
  /// miss, `on_miss` (may be null) runs with the memo lock held, and only
  /// when the bucket is neither handed off nor being searched: this is the
  /// one place that coalesces background searches. An accepted hand-off
  /// marks the bucket until optimize() starts it or cancel() forgets it; a
  /// refused one leaves it unmarked, so a later miss hands it off again. The
  /// hook must only enqueue, never call back into the memo.
  std::optional<Entry> find(int bucket, double read_ratio, const MissHook* on_miss);

  /// Searches the bucket at `read_ratio` unless it is cached or another
  /// caller is already searching it (then waits for that search). Moves a
  /// hand-off mark into the in-flight set, installs the result and fires
  /// every member's publish hook. Returns true when this call ran the GA.
  bool optimize(int bucket, double read_ratio);

  /// Forgets a hand-off whose search will never run (its task was cancelled
  /// at shutdown), so a later miss hands the bucket off again.
  void cancel(int bucket);

  /// Empties the memo if the active knob set changed since its entries were
  /// cut.
  void sync_generation_locked() REQUIRES(mutex_);

  void join(OnlineTuner* member);
  void leave(OnlineTuner* member);

  const Rafiki* rafiki_;
  double rr_bucket_;

  Mutex mutex_;
  CondVar optimize_done_;
  /// bucket -> optimized config
  std::map<int, Entry> entries_ GUARDED_BY(mutex_);
  /// buckets handed to the async hook whose search has not started yet
  std::set<int> handed_off_ GUARDED_BY(mutex_);
  /// buckets currently being searched (lock dropped for the GA itself)
  std::set<int> in_flight_ GUARDED_BY(mutex_);
  /// Active-set generation every entry in entries_ was cut under.
  std::size_t generation_ GUARDED_BY(mutex_) = 0;

  /// Serializes the publish fan-out and member registration, so a member
  /// never leaves while its hook is running. Taken before any tuner's lock.
  Mutex members_mutex_ ACQUIRED_BEFORE(mutex_);
  /// Every tuner built over this memo, in construction order.
  std::vector<OnlineTuner*> members_ GUARDED_BY(members_mutex_);
};

class OnlineTuner {
 public:
  /// `rafiki` must already be trained; the tuner holds a reference and a
  /// private memo over it.
  explicit OnlineTuner(const Rafiki& rafiki, OnlineTunerOptions options = {});
  /// A tuner that shares `memo` (and its Rafiki) with every other tuner
  /// built over it. Throws std::invalid_argument when options.rr_bucket
  /// differs from the memo's.
  explicit OnlineTuner(std::shared_ptr<TuneMemo> memo, OnlineTunerOptions options = {});
  ~OnlineTuner();

  OnlineTuner(const OnlineTuner&) = delete;
  OnlineTuner& operator=(const OnlineTuner&) = delete;

  struct Decision {
    engine::Config config;
    bool reconfigured = false;
    /// The returned config predates this window's regime: the memo had no
    /// entry for the (materially moved) read ratio, so the current config
    /// keeps serving while an optimization is pending in the background.
    bool stale = false;
    double predicted_throughput = 0.0;
  };

  /// Feeds the next observed window; returns the configuration to run with.
  /// With an async-optimize hook set, a memo miss returns immediately with
  /// a stale-marked decision and hands the bucket to the hook; without one,
  /// the miss optimizes inline (the original blocking behaviour). Every
  /// entry point clamps the read ratio into [0, 1] first.
  Decision on_window(double read_ratio);

  /// Decision logic only: memo hits may reconfigure, misses come back
  /// stale-marked. Never runs the optimizer.
  Decision decide(double read_ratio);

  /// Runs the GA for this read ratio's bucket and installs the result in the
  /// memo (firing the publish hook of every tuner sharing it). The search
  /// itself holds no lock, so decisions keep flowing while it runs. Returns
  /// true when this call ran the GA (even if the active knob set changed
  /// meanwhile and the result was dropped), false when it coalesced away —
  /// the bucket was already cached, or another caller was mid-search for it
  /// (in which case this waits for that result).
  bool run_optimize(double read_ratio);

  /// A search handed off through the async-optimize hook for this read
  /// ratio will never run (its task was cancelled): the memo forgets the
  /// hand-off, so the next miss in the bucket hands it off again.
  void cancel_optimize(double read_ratio);

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

  /// Called whenever a freshly optimized configuration enters the memo —
  /// whichever tuner sharing it ran the search. The serve layer hooks this
  /// to republish the result through its versioned snapshot registry, so
  /// every tuned config the background path produces becomes visible to
  /// in-flight readers without locking them.
  using PublishHook = std::function<void(int bucket, const Rafiki::OptimizeResult& result)>;
  void set_publish_hook(PublishHook hook);

  /// When set, memo misses (on_window / prefetch) are delegated here
  /// instead of optimizing inline — the serve layer points this at its
  /// RetrainWorker so no GA ever runs on a request-path thread. Returns
  /// whether the search was accepted. The memo calls it at most once per
  /// pending search of a bucket, whichever member missed (see
  /// TuneMemo::find). Invoked with the memo lock held: it must only enqueue,
  /// never call into the tuner or its memo.
  using AsyncOptimizeHook = std::function<bool(int bucket, double read_ratio)>;
  void set_async_optimize_hook(AsyncOptimizeHook hook);

  /// Memoization key shared by on_window and prefetch (see
  /// TuneMemo::bucket_for).
  int bucket_for(double read_ratio) const noexcept { return memo_->bucket_for(read_ratio); }
  /// Whether this read ratio's bucket already has an optimized config.
  bool cached(double read_ratio) const;

  std::size_t reconfigurations() const;
  /// GA searches this tuner ran (a bucket another member searched is a
  /// memo hit here, not a run).
  std::size_t optimizer_runs() const;
  const OnlineTunerOptions& options() const noexcept { return options_; }
  const std::shared_ptr<TuneMemo>& memo() const noexcept { return memo_; }

 private:
  friend class TuneMemo;

  /// `hand_off` routes a miss to the async-optimize hook (on_window only).
  Decision decide_locked(double read_ratio, bool hand_off) REQUIRES(mutex_);
  /// Fires this tuner's publish hook (TuneMemo's fan-out; no tuner lock
  /// held across the hook).
  void publish(int bucket, const Rafiki::OptimizeResult& result);

  const Rafiki* rafiki_;
  OnlineTunerOptions options_;
  std::shared_ptr<TuneMemo> memo_;

  /// Taken before the memo's lock (decide_locked looks the memo up).
  mutable Mutex mutex_;
  PublishHook publish_ GUARDED_BY(mutex_);
  AsyncOptimizeHook async_optimize_ GUARDED_BY(mutex_);
  engine::Config current_ GUARDED_BY(mutex_) = engine::Config::defaults();
  /// RR the current config was chosen for.
  double current_rr_ GUARDED_BY(mutex_) = -1.0;
  bool have_config_ GUARDED_BY(mutex_) = false;
  std::size_t reconfigurations_ GUARDED_BY(mutex_) = 0;
  std::size_t optimizer_runs_ GUARDED_BY(mutex_) = 0;
};

}  // namespace rafiki::core
