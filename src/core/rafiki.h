// The Rafiki middleware (Figure 1): the end-to-end pipeline of
//   1. workload characterization          (workload/characterize.h)
//   2. important-parameter identification (one-at-a-time ANOVA)
//   3. data collection                    (collect/)
//   4. surrogate modelling                (ml/ DNN ensemble)
//   5. online configuration optimization  (opt/ genetic algorithm)
// This class owns stages 2-5; stage 1 is a pure function of the trace and is
// consumed through WorkloadSpec.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collect/dataset.h"
#include "engine/config.h"
#include "ml/anova.h"
#include "ml/ensemble.h"
#include "opt/ga.h"
#include "opt/space.h"
#include "tune/screen.h"
#include "tune/subspace.h"
#include "workload/spec.h"

namespace rafiki::core {

struct RafikiOptions {
  /// The benchmarked workload grid: 11 read ratios in 10% steps (Section 4.2).
  std::vector<double> workload_grid = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9, 1.0};
  std::size_t n_configs = 20;
  workload::WorkloadSpec base_workload{};
  collect::CollectOptions collect{};

  /// ANOVA screen settings: measurement replicates per parameter level, and
  /// the representative workload it runs against.
  std::size_t anova_repeats = 3;
  double anova_read_ratio = 0.45;

  /// Number of key parameters; 0 selects automatically with the paper's
  /// "distinct drop in variance" heuristic.
  std::size_t key_param_count = 5;

  ml::EnsembleOptions ensemble{};
  opt::GaOptions ga{};

  /// Risk-aversion of the configuration search: when > 0 the GA maximizes
  /// the ensemble's lower confidence bound (mean − risk_aversion × member
  /// spread) instead of the raw mean. The argmax of a noisy surrogate
  /// systematically overestimates — the search gravitates to wherever the
  /// model happens to err upward — and the penalty steers it toward
  /// configurations the ensemble members agree on. Matters most for
  /// high-dimensional surrogates (dynamic_knobs trains over the full
  /// registry); 0 keeps the paper's raw-mean fitness.
  double ga_risk_aversion = 0.0;

  /// Target the ScyllaDB engine model; parameter selection then applies the
  /// Section 4.10 procedure (strip ignored params, refill by variance).
  bool scylla = false;

  /// Online significance-aware knob selection (src/tune/). When set, the
  /// surrogate is trained over the FULL parameter registry — key_params()
  /// becomes all registered knobs in registry order, so a later re-cut of
  /// the active set never invalidates the trained model — while optimize()
  /// searches only the subspace the tune::ActiveSubspace currently holds,
  /// with inactive knobs pinned at their best-known values. The subspace is
  /// seeded from the offline ANOVA sweep and then follows streamed
  /// (workload, config, throughput) observations via observe_sample() /
  /// rescreen(). `key_param_count` is ignored in this mode.
  bool dynamic_knobs = false;
  tune::ScreenOptions screen{};
  tune::SubspaceOptions subspace{};
};

/// The serving stack's training profile, shared by rafiki_serverd and the
/// load benches. Smoke (seconds; the CI and sanitizer size): workload grid
/// {0.2, 0.8}, 5 configurations, 3000 measured ops, 3 networks of 30 epochs.
/// Full (minutes): {0.1, 0.5, 0.9}, 10 configurations, 20000 ops, 10
/// networks of 100 epochs — a mid-sized ensemble, so per-request work is
/// realistic. Everything else keeps its RafikiOptions default.
RafikiOptions serving_options(bool smoke);

struct ParamRanking {
  engine::ParamId id{};
  double score = 0.0;  ///< stddev of per-level mean throughput (Figure 5)
  double f_statistic = 0.0;
  double p_value = 1.0;
};

class Rafiki {
 public:
  explicit Rafiki(RafikiOptions options = RafikiOptions{});
  ~Rafiki();
  Rafiki(Rafiki&&) noexcept;
  Rafiki& operator=(Rafiki&&) noexcept;

  /// Stage 2a: one-at-a-time sweep + ANOVA over every registered parameter,
  /// sorted by descending score. Results are cached.
  const std::vector<ParamRanking>& rank_parameters();

  /// Stage 2b: choose the key parameters from the ranking (ScyllaDB variant
  /// strips internally-ignored parameters first). Cached.
  const std::vector<engine::ParamId>& select_key_params();

  /// Bypass the ANOVA stage with a known-good selection (e.g. the paper's
  /// five), useful for tests and cheaper benches.
  void set_key_params(std::vector<engine::ParamId> params);

  /// The currently selected key parameters (empty until selected or set);
  /// the serve layer snapshots this alongside the trained ensemble.
  const std::vector<engine::ParamId>& key_params() const noexcept { return key_params_; }

  /// Stage 3: benchmark the workload grid against the sampled configs.
  collect::Dataset collect();

  /// Stage 4: fit the surrogate ensemble on a dataset.
  void train(const collect::Dataset& dataset);
  bool trained() const noexcept { return surrogate_.trained(); }
  const ml::SurrogateEnsemble& surrogate() const noexcept { return surrogate_; }

  /// Surrogate prediction for (workload, configuration) — Equation (2).
  double predict(double read_ratio, const engine::Config& config) const;

  /// Batched variant: one ensemble evaluation for many configurations at a
  /// fixed workload. Bit-for-bit identical to predict() per row.
  std::vector<double> predict_batch(double read_ratio,
                                    const std::vector<engine::Config>& configs) const;

  struct OptimizeResult {
    engine::Config config;
    double predicted_throughput = 0.0;
    std::size_t surrogate_evaluations = 0;
    double wall_seconds = 0.0;
    /// Best feasible predicted throughput per GA generation (the search's
    /// convergence trace); the knob-ablation bench derives its
    /// evaluations-to-quality metric from it.
    std::vector<double> best_history;
    /// Best configuration per GA generation, parallel to best_history.
    /// Entries where best_history is -inf (no feasible individual yet) hold
    /// the default config as a placeholder — check best_history first.
    std::vector<engine::Config> config_history;
  };
  /// Stage 5: GA search over the key-parameter space against the surrogate.
  OptimizeResult optimize(double read_ratio) const;

  /// Search space spanned by the key parameters.
  opt::SearchSpace key_space() const;

  // --- dynamic knob selection (options.dynamic_knobs) -----------------------
  // These methods are const because the dynamic knob state is side-car state
  // of the pipeline (the serve layer holds a const Rafiki&); all of them are
  // thread-safe and no-ops / empties on a static-mode instance.

  bool dynamic() const noexcept { return dynamic_ != nullptr; }

  /// Folds one observed (workload, configuration, throughput) sample into
  /// the streaming significance screen. Cheap (no model evaluation); safe to
  /// call from measurement paths.
  void observe_sample(double read_ratio, const engine::Config& config,
                      double throughput) const;

  /// Re-cuts the active knob set from the current blended ranking. Returns
  /// true when the active set actually changed. Intended to run on the
  /// background optimize path (OnlineTuner::run_optimize / RetrainWorker),
  /// never on a request thread.
  bool rescreen() const;

  /// The knobs the GA currently searches: the active subspace in dynamic
  /// mode, key_params() otherwise.
  std::vector<engine::ParamId> active_params() const;

  /// Current blended significance ranking (empty in static mode).
  std::vector<tune::KnobScore> knob_ranking() const;

  /// Pins the active set explicitly (freezing it against re-cuts) — the
  /// ablation arms and tests. Static-mode fallback: set_key_params.
  void set_active_params(std::vector<engine::ParamId> params);

  /// Telemetry for the dynamic knob layer (all zero in static mode).
  struct TuneStats {
    std::size_t observations = 0;  ///< samples folded into the screen
    std::size_t recuts = 0;        ///< re-cut attempts
    std::size_t changes = 0;       ///< re-cuts that changed the active set
    std::size_t active = 0;        ///< current active-set size
  };
  TuneStats tune_stats() const;

  const RafikiOptions& options() const noexcept { return options_; }

 private:
  struct DynamicKnobs;

  void ensure_full_key_params();

  OptimizeResult optimize_dynamic(double read_ratio) const;

  RafikiOptions options_;
  std::vector<ParamRanking> ranking_;
  std::vector<engine::ParamId> key_params_;
  ml::SurrogateEnsemble surrogate_;
  /// Knob screen + active subspace, null in static mode. unique_ptr keeps
  /// Rafiki movable and — deliberately — lets the dynamic state mutate
  /// through the const references the serve layer holds.
  std::unique_ptr<DynamicKnobs> dynamic_;
};

}  // namespace rafiki::core
