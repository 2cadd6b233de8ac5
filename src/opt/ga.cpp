#include "opt/ga.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace rafiki::opt {
namespace {

/// One generation: genome i occupies genomes[i * dim, (i + 1) * dim), and
/// raw / violation / score are parallel per-individual arrays. Two cohorts
/// are allocated once per run and swapped between generations.
struct Cohort {
  std::size_t dim = 0;
  std::vector<double> genomes;
  std::vector<double> raw;        // objective value
  std::vector<double> violation;  // constraint violation
  std::vector<double> score;      // penalized fitness used for selection

  Cohort(std::size_t size, std::size_t dims)
      : dim(dims), genomes(size * dims), raw(size), violation(size), score(size) {}

  std::size_t size() const noexcept { return raw.size(); }
  std::span<double> genome(std::size_t i) noexcept { return {genomes.data() + i * dim, dim}; }
  std::span<const double> genome(std::size_t i) const noexcept {
    return {genomes.data() + i * dim, dim};
  }
};

}  // namespace

GaResult ga_optimize_cohort(const SearchSpace& space, const CohortObjective& objective,
                            const GaOptions& options) {
  if (options.population == 0) throw std::invalid_argument("ga_optimize: empty population");
  Rng rng(options.seed);
  GaResult result;
  result.best_history.reserve(options.generations + 1);
  result.best_point_history.reserve(options.generations + 1);
  const std::size_t dim = space.size();

  // Genome creation (which consumes the RNG stream) is fully decoupled from
  // fitness evaluation (which does not), so a whole cohort can be scored in
  // one objective call without perturbing the random sequence.
  auto evaluate_from = [&](Cohort& pop, std::size_t first) {
    const std::size_t count = pop.size() - first;
    if (count == 0) return;
    objective({pop.genomes.data() + first * dim, count * dim},
              {pop.raw.data() + first, count});
    for (std::size_t i = first; i < pop.size(); ++i) {
      pop.violation[i] = space.violation(pop.genome(i));
    }
    result.evaluations += count;
  };

  Cohort population(options.population, dim);
  Cohort next(options.population, dim);
  for (std::size_t i = 0; i < population.size(); ++i) {
    space.random_point(rng, population.genome(i));
  }
  // Warm starts overwrite genomes only after every random draw above, so the
  // RNG stream is untouched and seedless runs stay bit-identical.
  std::size_t seeded = 0;
  for (const auto& point : options.seed_points) {
    if (point.size() != space.size() || seeded >= population.size()) continue;
    const auto snapped = space.snap(point);
    std::copy(snapped.begin(), snapped.end(), population.genome(seeded++).begin());
  }
  evaluate_from(population, 0);

  auto rescore = [&](Cohort& pop) {
    // Penalty scale follows the population's fitness spread so the penalty
    // stays meaningful whatever the objective's units are.
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (double raw : pop.raw) {
      lo = std::min(lo, raw);
      hi = std::max(hi, raw);
    }
    const double spread = std::max(hi - lo, 1e-9);
    for (std::size_t i = 0; i < pop.size(); ++i) {
      pop.score[i] = pop.raw[i] - options.penalty_weight * spread * pop.violation[i];
    }
  };
  rescore(population);

  auto tournament_pick = [&](const Cohort& pop) {
    std::size_t best = rng.bounded(pop.size());
    for (std::size_t t = 1; t < options.tournament; ++t) {
      const std::size_t cand = rng.bounded(pop.size());
      if (pop.score[cand] > pop.score[best]) best = cand;
    }
    return best;
  };

  std::vector<double> best_genome;  // empty until a feasible individual appears
  double best_raw = -std::numeric_limits<double>::infinity();
  auto track_best = [&](const Cohort& pop) {
    for (std::size_t i = 0; i < pop.size(); ++i) {
      if (pop.violation[i] == 0.0 && pop.raw[i] > best_raw) {
        best_raw = pop.raw[i];
        best_genome.assign(pop.genome(i).begin(), pop.genome(i).end());
      }
    }
    result.best_history.push_back(best_raw);
    result.best_point_history.push_back(space.snap(best_genome));
  };
  track_best(population);

  std::vector<std::size_t> ranked(population.size());
  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    // Elitism: carry the top scorers unchanged. The indices start in
    // population order every generation, so std::sort sees the same input
    // and ties resolve the same way on every run.
    std::iota(ranked.begin(), ranked.end(), std::size_t{0});
    std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
      return population.score[a] > population.score[b];
    });
    const std::size_t carried = std::min(options.elites, ranked.size());
    for (std::size_t e = 0; e < carried; ++e) {
      const std::size_t from = ranked[e];
      const auto genome = population.genome(from);
      std::copy(genome.begin(), genome.end(), next.genome(e).begin());
      next.raw[e] = population.raw[from];
      next.violation[e] = population.violation[from];
    }

    for (std::size_t slot = carried; slot < next.size(); ++slot) {
      const auto a = population.genome(tournament_pick(population));
      const auto b = population.genome(tournament_pick(population));
      const auto child = next.genome(slot);
      if (rng.bernoulli(options.crossover_rate)) {
        // Random-weighted average per gene: interpolation within the
        // parents' span, as the paper specifies.
        for (std::size_t i = 0; i < dim; ++i) {
          const double r = rng.uniform();
          child[i] = r * a[i] + (1.0 - r) * b[i];
        }
      } else {
        const auto parent = rng.bernoulli(0.5) ? a : b;
        std::copy(parent.begin(), parent.end(), child.begin());
      }
      for (std::size_t i = 0; i < dim; ++i) {
        const auto& d = space.dim(i);
        if (rng.bernoulli(options.mutation_rate)) {
          child[i] += rng.gaussian(0.0, options.mutation_sigma * (d.hi - d.lo));
          child[i] = std::clamp(child[i], d.lo, d.hi);
        }
        // Rounding move for integral genes: interpolating crossover leaves
        // them fractional (penalized), so half the offspring snap back onto
        // the integer lattice, keeping a feasible sub-population alive.
        if (d.integral && rng.bernoulli(0.5)) child[i] = std::round(child[i]);
      }
    }
    evaluate_from(next, carried);

    std::swap(population, next);
    rescore(population);
    track_best(population);
  }

  // Report the best feasible individual, snapped (snapping is a no-op for a
  // feasible point, but also guards the degenerate never-feasible case).
  if (std::isinf(best_raw)) {
    // No feasible individual was ever seen (can only happen with an
    // all-integral space and zero feasible draws); snap the best scorer.
    std::size_t best = 0;
    for (std::size_t i = 1; i < population.size(); ++i) {
      if (population.score[i] > population.score[best]) best = i;
    }
    best_genome.assign(population.genome(best).begin(), population.genome(best).end());
  }
  result.best_point = space.snap(std::move(best_genome));
  objective(result.best_point, {&result.best_fitness, 1});
  ++result.evaluations;
  return result;
}

GaResult ga_optimize(const SearchSpace& space, const Objective& objective,
                     const GaOptions& options) {
  const std::size_t dim = space.size();
  return ga_optimize_cohort(
      space,
      [&objective, dim](std::span<const double> genomes, std::span<double> fitness) {
        for (std::size_t i = 0; i < fitness.size(); ++i) {
          fitness[i] = objective(genomes.subspan(i * dim, dim));
        }
      },
      options);
}

GaResult ga_optimize_batched(const SearchSpace& space, const BatchObjective& objective,
                             const GaOptions& options) {
  const std::size_t dim = space.size();
  std::vector<std::vector<double>> points;
  return ga_optimize_cohort(
      space,
      [&objective, &points, dim](std::span<const double> genomes, std::span<double> fitness) {
        points.resize(fitness.size());
        for (std::size_t i = 0; i < fitness.size(); ++i) {
          const auto genome = genomes.subspan(i * dim, dim);
          points[i].assign(genome.begin(), genome.end());
        }
        const auto values = objective(points);
        if (values.size() != points.size()) {
          throw std::invalid_argument("ga_optimize_batched: objective returned wrong count");
        }
        std::copy(values.begin(), values.end(), fitness.begin());
      },
      options);
}

}  // namespace rafiki::opt
