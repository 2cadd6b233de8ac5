// Real-coded genetic algorithm for configuration search (Section 3.7.2).
//
// Follows the paper's formulation: the fitness is the surrogate model's
// predicted throughput with the workload fixed; the initial population is
// uniform within bounds; crossover takes a random-weighted average of two
// parents (interpolation, never extrapolation); constraints are handled by
// penalty — offspring whose integer parameters land on fractional values are
// scored with a penalty rather than repaired, per Deb's constraint-handling
// method the paper cites [16, 17].
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "opt/space.h"

namespace rafiki::opt {

struct GaOptions {
  std::size_t population = 48;
  std::size_t generations = 70;
  double crossover_rate = 0.9;
  double mutation_rate = 0.15;
  /// Mutation step as a fraction of the dimension's range.
  double mutation_sigma = 0.12;
  std::size_t tournament = 3;
  std::size_t elites = 2;
  /// Penalty applied per unit of constraint violation, scaled by the
  /// population's fitness spread.
  double penalty_weight = 2.0;
  /// Warm-start points injected into the initial population (snapped into
  /// the space; entries whose size mismatches the space are skipped). They
  /// replace the first random genomes AFTER the whole population is drawn,
  /// so the RNG stream — and therefore every run without seed points — is
  /// bit-identical to before this option existed. Used by the online tuner
  /// to keep the incumbent configuration competitive across re-cuts.
  std::vector<std::vector<double>> seed_points{};
  std::uint64_t seed = 99;
};

struct GaResult {
  std::vector<double> best_point;  ///< snapped to feasibility
  double best_fitness = 0.0;       ///< objective at best_point
  std::size_t evaluations = 0;     ///< objective calls (the "surrogate calls")
  std::vector<double> best_history;  ///< best feasible fitness per generation
  /// Best feasible genome per generation (snapped), parallel to
  /// best_history; empty entries until the first feasible individual
  /// appears. Lets convergence studies re-score the search trajectory
  /// against a ground-truth objective.
  std::vector<std::vector<double>> best_point_history;
};

/// Cohort objective: scores `fitness.size()` genomes stored row-major in
/// `genomes` (space.size() values per genome, so genomes.size() ==
/// fitness.size() * space.size()) and writes one value per genome. The GA
/// hands each generation's offspring over as one contiguous block, so a
/// surrogate-backed objective can pack it into a reused feature matrix and
/// run one batched ensemble evaluation per generation with no per-individual
/// allocation.
using CohortObjective =
    std::function<void(std::span<const double> genomes, std::span<double> fitness)>;

/// Vectorized objective: fitness for a whole set of points at once. Must
/// return exactly one value per input point.
using BatchObjective =
    std::function<std::vector<double>(const std::vector<std::vector<double>>&)>;

/// The GA. The population lives in one flat genome block (plus score, raw
/// and violation arrays) that is double-buffered between generations. Only
/// genome creation draws from the RNG, never fitness evaluation, so the
/// entry points below return bit-identical results for objectives that
/// agree row for row. Throws std::invalid_argument on an empty population.
GaResult ga_optimize_cohort(const SearchSpace& space, const CohortObjective& objective,
                            const GaOptions& options = {});

/// One scalar objective call per genome.
GaResult ga_optimize(const SearchSpace& space, const Objective& objective,
                     const GaOptions& options = {});

/// Vector-of-points adapter over ga_optimize_cohort; throws
/// std::invalid_argument when the objective returns the wrong count.
GaResult ga_optimize_batched(const SearchSpace& space, const BatchObjective& objective,
                             const GaOptions& options = {});

}  // namespace rafiki::opt
