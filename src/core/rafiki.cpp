#include "core/rafiki.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>

#include "core/fitness.h"
#include "engine/scylla.h"
#include "util/parallel.h"
#include "util/sync.h"

namespace rafiki::core {

/// Side-car state for dynamic knob selection. Lives behind a unique_ptr so
/// Rafiki stays movable and the serve layer's const references can stream
/// observations into it.
struct Rafiki::DynamicKnobs {
  DynamicKnobs(const tune::ScreenOptions& screen_options,
               const tune::SubspaceOptions& subspace_options)
      : screen(screen_options), subspace(subspace_options) {}

  mutable Mutex mutex;
  tune::KnobScreen screen GUARDED_BY(mutex);
  tune::ActiveSubspace subspace GUARDED_BY(mutex);
  /// Whether the screen has been seeded from the offline ANOVA sweep.
  bool seeded GUARDED_BY(mutex) = false;
};

RafikiOptions serving_options(bool smoke) {
  RafikiOptions options;
  options.workload_grid = smoke ? std::vector<double>{0.2, 0.8}
                                : std::vector<double>{0.1, 0.5, 0.9};
  options.n_configs = smoke ? 5 : 10;
  options.collect.measure.ops = smoke ? 3000 : 20000;
  options.collect.measure.warmup_ops = smoke ? 300 : 2000;
  options.ensemble.n_nets = smoke ? 3 : 10;
  options.ensemble.train.max_epochs = smoke ? 30 : 100;
  return options;
}

Rafiki::Rafiki(RafikiOptions options) : options_(std::move(options)) {
  options_.collect.measure.scylla = options_.scylla;
  if (options_.dynamic_knobs) {
    dynamic_ = std::make_unique<DynamicKnobs>(options_.screen, options_.subspace);
  }
}

Rafiki::~Rafiki() = default;
Rafiki::Rafiki(Rafiki&&) noexcept = default;
Rafiki& Rafiki::operator=(Rafiki&&) noexcept = default;

void Rafiki::ensure_full_key_params() {
  if (!key_params_.empty()) return;
  key_params_.reserve(engine::kParamCount);
  for (const auto& spec : engine::param_registry()) key_params_.push_back(spec.id);
}

const std::vector<ParamRanking>& Rafiki::rank_parameters() {
  if (!ranking_.empty()) return ranking_;

  workload::WorkloadSpec workload = options_.base_workload;
  workload.read_ratio = options_.anova_read_ratio;

  // Plan every one-at-a-time measurement serially, in the historical seed
  // order, then measure them in parallel into per-point slots: the ranking
  // is bit-identical at any thread count.
  struct Point {
    engine::Config config;
    std::uint64_t seed;
  };
  std::vector<Point> plan;
  std::vector<std::size_t> level_counts;  // per registry entry
  std::uint64_t seed_counter = options_.collect.seed;
  for (const auto& spec : engine::param_registry()) {
    // Vary this parameter alone, others at defaults (Section 3.4.1), with
    // measurement replicates per level forming the ANOVA groups.
    opt::SearchSpace one_dim({{std::string(spec.name),
                               spec.type != engine::ParamType::kReal, spec.lo, spec.hi}});
    const auto levels = one_dim.level_values(0, static_cast<std::size_t>(spec.anova_levels));
    level_counts.push_back(levels.size());
    for (double level : levels) {
      const auto config = engine::Config::defaults().with(spec.id, level);
      for (std::size_t r = 0; r < options_.anova_repeats; ++r) {
        plan.push_back({config, ++seed_counter * 7919 + r});
      }
    }
  }

  std::vector<double> throughput(plan.size());
  parallel_for(plan.size(), 0, [&](std::size_t i) {
    collect::MeasureOptions measure = options_.collect.measure;
    measure.seed = plan[i].seed;
    throughput[i] = collect::measure_throughput(plan[i].config, workload, measure);
  });

  auto next = throughput.begin();
  const auto& registry = engine::param_registry();
  for (std::size_t p = 0; p < registry.size(); ++p) {
    std::vector<std::vector<double>> groups(level_counts[p]);
    for (auto& group : groups) {
      const auto end = next + static_cast<std::ptrdiff_t>(options_.anova_repeats);
      group.assign(next, end);
      next = end;
    }

    ParamRanking entry;
    entry.id = registry[p].id;
    entry.score = ml::level_mean_stddev(groups);
    const auto anova = ml::one_way_anova(groups);
    entry.f_statistic = anova.f_statistic;
    entry.p_value = anova.p_value;
    ranking_.push_back(entry);
  }

  std::sort(ranking_.begin(), ranking_.end(),
            [](const ParamRanking& a, const ParamRanking& b) { return a.score > b.score; });
  return ranking_;
}

const std::vector<engine::ParamId>& Rafiki::select_key_params() {
  if (dynamic_) {
    // Dynamic mode: the surrogate's feature layout is the FULL registry (so
    // re-cuts never invalidate the model); "selection" means seeding the
    // streaming screen from the offline sweep and cutting the first active
    // set. A frozen (forced) subspace skips the expensive sweep entirely.
    ensure_full_key_params();
    bool need_seed = false;
    {
      MutexLock lock(dynamic_->mutex);
      need_seed = !dynamic_->seeded && !dynamic_->subspace.frozen();
    }
    if (need_seed) {
      const auto& ranking = rank_parameters();  // OAT sweep, no lock held
      MutexLock lock(dynamic_->mutex);
      if (!dynamic_->seeded) {
        for (const auto& entry : ranking) dynamic_->screen.seed(entry.id, entry.score);
        dynamic_->subspace.recut(dynamic_->screen.ranking());
        dynamic_->seeded = true;
      }
    }
    return key_params_;
  }

  if (!key_params_.empty()) return key_params_;
  const auto& ranking = rank_parameters();

  std::vector<ParamRanking> usable;
  for (const auto& entry : ranking) {
    // Section 4.5: parameters that merely co-determine a canonical knob's
    // mechanism (flush frequency) are skipped in favour of that knob.
    if (engine::param_spec(entry.id).redundant_with != engine::ParamId::kCount) {
      continue;
    }
    // Section 4.10: strip parameters ScyllaDB's auto-tuner ignores, then
    // refill by variance until the count matches Cassandra's.
    if (options_.scylla) {
      const auto& ignored = engine::ScyllaServer::ignored_params();
      if (std::find(ignored.begin(), ignored.end(), entry.id) != ignored.end()) {
        continue;
      }
    }
    usable.push_back(entry);
  }

  std::size_t k = options_.key_param_count;
  if (k == 0) {
    std::vector<ml::AnovaRanking> scored;
    for (const auto& entry : usable) {
      scored.push_back({std::string(engine::param_name(entry.id)), entry.score,
                        entry.f_statistic, entry.p_value});
    }
    k = ml::distinct_drop_cutoff(scored, 3, 8);
  }
  k = std::min(k, usable.size());
  for (std::size_t i = 0; i < k; ++i) key_params_.push_back(usable[i].id);
  return key_params_;
}

void Rafiki::set_key_params(std::vector<engine::ParamId> params) {
  // In dynamic mode a "known-good selection" means pinning the ACTIVE set —
  // the feature layout stays the full registry regardless.
  if (dynamic_) {
    set_active_params(std::move(params));
    return;
  }
  key_params_ = std::move(params);
}

void Rafiki::set_active_params(std::vector<engine::ParamId> params) {
  if (!dynamic_) {
    key_params_ = std::move(params);
    return;
  }
  ensure_full_key_params();
  MutexLock lock(dynamic_->mutex);
  dynamic_->subspace.force(std::move(params));
}

void Rafiki::observe_sample(double read_ratio, const engine::Config& config,
                            double throughput) const {
  if (!dynamic_) return;
  MutexLock lock(dynamic_->mutex);
  dynamic_->screen.observe(read_ratio, config, throughput);
}

bool Rafiki::rescreen() const {
  if (!dynamic_) return false;
  MutexLock lock(dynamic_->mutex);
  return dynamic_->subspace.recut(dynamic_->screen.ranking());
}

std::vector<engine::ParamId> Rafiki::active_params() const {
  if (!dynamic_) return key_params_;
  MutexLock lock(dynamic_->mutex);
  return dynamic_->subspace.active();
}

std::vector<tune::KnobScore> Rafiki::knob_ranking() const {
  if (!dynamic_) return {};
  MutexLock lock(dynamic_->mutex);
  return dynamic_->screen.ranking();
}

Rafiki::TuneStats Rafiki::tune_stats() const {
  TuneStats stats;
  if (!dynamic_) return stats;
  MutexLock lock(dynamic_->mutex);
  stats.observations = dynamic_->screen.observations();
  stats.recuts = dynamic_->subspace.recuts();
  stats.changes = dynamic_->subspace.changes();
  stats.active = dynamic_->subspace.active().size();
  return stats;
}

collect::Dataset Rafiki::collect() {
  const auto& params = select_key_params();
  // Dynamic mode trains over the full registry but searches a pinned
  // subspace, so the random fill of the collection plan concentrates joint
  // samples on the active slice (coverage extremes still span every knob).
  const auto configs = dynamic_
                           ? collect::sample_configs_focused(
                                 params, active_params(), options_.n_configs,
                                 options_.collect.seed)
                           : collect::sample_configs(params, options_.n_configs,
                                                     options_.collect.seed);
  return collect::collect_dataset(configs, options_.workload_grid, options_.base_workload,
                                  options_.collect);
}

void Rafiki::train(const collect::Dataset& dataset) {
  const auto& params = select_key_params();
  surrogate_.fit(dataset.feature_matrix(params), dataset.targets(), options_.ensemble);
}

double Rafiki::predict(double read_ratio, const engine::Config& config) const {
  if (!surrogate_.trained()) throw std::logic_error("Rafiki::predict: train() first");
  std::vector<double> features;
  features.reserve(key_params_.size() + 1);
  features.push_back(read_ratio);
  for (auto id : key_params_) features.push_back(config.get(id));
  return surrogate_.predict(features);
}

std::vector<double> Rafiki::predict_batch(double read_ratio,
                                          const std::vector<engine::Config>& configs) const {
  if (!surrogate_.trained()) throw std::logic_error("Rafiki::predict_batch: train() first");
  // One flat feature block instead of a vector per config: the batched call
  // stays allocation-lean even when the micro-batcher sends small chunks.
  ml::Matrix rows(configs.size(), key_params_.size() + 1);
  for (std::size_t r = 0; r < configs.size(); ++r) {
    rows(r, 0) = read_ratio;
    for (std::size_t j = 0; j < key_params_.size(); ++j) {
      rows(r, 1 + j) = configs[r].get(key_params_[j]);
    }
  }
  return surrogate_.predict_batch(rows);
}

opt::SearchSpace Rafiki::key_space() const {
  if (key_params_.empty()) throw std::logic_error("Rafiki::key_space: no key params");
  std::vector<opt::Dimension> dims;
  for (auto id : key_params_) {
    const auto& spec = engine::param_spec(id);
    dims.push_back({std::string(spec.name), spec.type != engine::ParamType::kReal,
                    spec.lo, spec.hi});
  }
  return opt::SearchSpace(std::move(dims));
}

Rafiki::OptimizeResult Rafiki::optimize(double read_ratio) const {
  if (!surrogate_.trained()) throw std::logic_error("Rafiki::optimize: train() first");
  if (dynamic_) return optimize_dynamic(read_ratio);
  const auto space = key_space();

  // Whole-cohort surrogate evaluation: the GA scores each generation through
  // one batched ensemble call (matrix-matrix kernels) instead of one
  // matrix-vector pass per individual.
  SurrogateFitness fitness(surrogate_, read_ratio, options_.ga_risk_aversion);

  // det:ok(wall-clock): wall_seconds is reporting-only; no result depends on it
  const auto t0 = std::chrono::steady_clock::now();
  const auto ga = opt::ga_optimize_cohort(space, std::ref(fitness), options_.ga);
  // det:ok(wall-clock): wall_seconds is reporting-only; no result depends on it
  const auto t1 = std::chrono::steady_clock::now();

  OptimizeResult result;
  result.config = engine::Config::from_vector(key_params_, ga.best_point);
  // best_fitness is the (possibly risk-penalized) GA objective; report the
  // raw predicted mean for the chosen configuration.
  result.predicted_throughput = options_.ga_risk_aversion > 0.0
                                    ? predict(read_ratio, result.config)
                                    : ga.best_fitness;
  result.surrogate_evaluations = ga.evaluations;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.best_history = ga.best_history;
  result.config_history.reserve(ga.best_point_history.size());
  for (const auto& genome : ga.best_point_history) {
    result.config_history.push_back(genome.empty()
                                        ? engine::Config::defaults()
                                        : engine::Config::from_vector(key_params_, genome));
  }
  return result;
}

Rafiki::OptimizeResult Rafiki::optimize_dynamic(double read_ratio) const {
  // Snapshot the current subspace mapping, then run the whole search without
  // the knob lock: a concurrent re-cut only affects the NEXT optimize.
  opt::SubspaceMap map = [&] {
    MutexLock lock(dynamic_->mutex);
    if (dynamic_->subspace.active().empty()) {
      throw std::logic_error("Rafiki::optimize: dynamic mode has no active knobs — "
                             "run select_key_params() or set_active_params() first");
    }
    return dynamic_->subspace.map();
  }();

  // The surrogate consumes the FULL registry layout; the GA's genome is only
  // the active subspace, expanded per evaluation with inactive knobs pinned.
  SurrogateFitness fitness(surrogate_, read_ratio, options_.ga_risk_aversion, &map);

  // Warm-start from the incumbent (pinned) configuration so a freshly re-cut
  // genome never searches from scratch: what previous optimizations learned
  // about the surviving knobs enters the initial population.
  opt::GaOptions ga_options = options_.ga;
  ga_options.seed_points.push_back(map.restrict(map.pinned()));

  // det:ok(wall-clock): wall_seconds is reporting-only; no result depends on it
  const auto t0 = std::chrono::steady_clock::now();
  const auto ga = opt::ga_optimize_cohort(map.reduced(), std::ref(fitness), ga_options);
  // det:ok(wall-clock): wall_seconds is reporting-only; no result depends on it
  const auto t1 = std::chrono::steady_clock::now();

  OptimizeResult result;
  result.config = engine::Config::from_vector(key_params_, map.expand(ga.best_point));
  result.predicted_throughput = options_.ga_risk_aversion > 0.0
                                    ? predict(read_ratio, result.config)
                                    : ga.best_fitness;
  result.surrogate_evaluations = ga.evaluations;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.best_history = ga.best_history;
  result.config_history.reserve(ga.best_point_history.size());
  for (const auto& genome : ga.best_point_history) {
    result.config_history.push_back(
        genome.empty() ? engine::Config::defaults()
                       : engine::Config::from_vector(key_params_, map.expand(genome)));
  }

  // The winner becomes the pin: if a later re-cut drops one of today's
  // active knobs, it keeps serving at the value search just chose for it.
  {
    MutexLock lock(dynamic_->mutex);
    dynamic_->subspace.pin(result.config);
  }
  return result;
}

}  // namespace rafiki::core
