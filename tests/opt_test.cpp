#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "opt/baselines.h"
#include "opt/ga.h"
#include "opt/space.h"

namespace rafiki::opt {
namespace {

SearchSpace mixed_space() {
  return SearchSpace({{"cat", true, 0, 1},
                      {"count", true, 8, 96},
                      {"ratio", false, 0.05, 0.8}});
}

TEST(SearchSpace, SnapRoundsIntegralsAndClamps) {
  const auto space = mixed_space();
  const auto snapped = space.snap({0.6, 200.0, -1.0});
  EXPECT_DOUBLE_EQ(snapped[0], 1.0);
  EXPECT_DOUBLE_EQ(snapped[1], 96.0);
  EXPECT_DOUBLE_EQ(snapped[2], 0.05);
  EXPECT_TRUE(space.feasible(snapped));
}

TEST(SearchSpace, ViolationMeasuresDistance) {
  const auto space = mixed_space();
  EXPECT_DOUBLE_EQ(space.violation(std::vector<double>{0.0, 32.0, 0.3}), 0.0);
  EXPECT_NEAR(space.violation(std::vector<double>{0.4, 32.5, 0.3}), 0.4 + 0.5, 1e-12);
  EXPECT_NEAR(space.violation(std::vector<double>{0.0, 100.0, 0.9}),
              4.0 + 0.1, 1e-12);
}

TEST(SearchSpace, RandomPointsAreFeasible) {
  const auto space = mixed_space();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(space.feasible(space.random_point(rng)));
  }
}

TEST(SearchSpace, GridEnumeratesFullFactorial) {
  const auto space = mixed_space();
  const std::vector<std::size_t> levels = {2, 3, 4};
  const auto grid = space.grid(levels);
  EXPECT_EQ(grid.size(), space.grid_size(levels));
  EXPECT_EQ(grid.size(), 2u * 3u * 4u);
  for (const auto& point : grid) EXPECT_TRUE(space.feasible(point));
}

TEST(SearchSpace, LevelValuesDeduplicateIntegrals) {
  SearchSpace tiny({{"flag", true, 0, 1}});
  // Asking for 5 levels of a binary dimension yields only {0, 1}.
  EXPECT_EQ(tiny.level_values(0, 5).size(), 2u);
}

/// Concave objective with an interior optimum and an integral dimension:
/// f = -(cat - 1)^2 - (count - 60)^2 / 100 - 40 (ratio - 0.4)^2.
double concave(std::span<const double> p) {
  return -(p[0] - 1.0) * (p[0] - 1.0) - (p[1] - 60.0) * (p[1] - 60.0) / 100.0 -
         40.0 * (p[2] - 0.4) * (p[2] - 0.4);
}

TEST(Ga, FindsInteriorOptimumOfConcaveObjective) {
  const auto space = mixed_space();
  GaOptions options;
  options.seed = 17;
  const auto result = ga_optimize(space, concave, options);
  EXPECT_TRUE(space.feasible(result.best_point));
  EXPECT_DOUBLE_EQ(result.best_point[0], 1.0);
  EXPECT_NEAR(result.best_point[1], 60.0, 4.0);
  EXPECT_NEAR(result.best_point[2], 0.4, 0.05);
}

TEST(Ga, EscapesLocalMaxima) {
  // Two-basin objective: a shallow local optimum near ratio = 0.1 and the
  // global one near 0.7 — the failure mode the paper attributes to
  // hill-climbing tuners (Section 1).
  SearchSpace space({{"x", false, 0.0, 1.0}});
  auto objective = [](std::span<const double> p) {
    const double x = p[0];
    return 0.4 * std::exp(-std::pow((x - 0.1) / 0.05, 2)) +
           1.0 * std::exp(-std::pow((x - 0.7) / 0.05, 2));
  };
  const auto result = ga_optimize(space, objective, {.seed = 23});
  EXPECT_NEAR(result.best_point[0], 0.7, 0.05);
}

TEST(Ga, EvaluationBudgetMatchesPopulationTimesGenerations) {
  const auto space = mixed_space();
  GaOptions options;
  options.population = 30;
  options.generations = 20;
  const auto result = ga_optimize(space, concave, options);
  // Initial population + offspring per generation + final re-evaluation.
  EXPECT_GE(result.evaluations, 30u * 20u / 2);
  EXPECT_LE(result.evaluations, 30u * 21u + 1);
  EXPECT_EQ(result.best_history.size(), 21u);
}

TEST(Ga, BestHistoryIsMonotonic) {
  const auto result = ga_optimize(mixed_space(), concave, {.seed = 31});
  for (std::size_t i = 1; i < result.best_history.size(); ++i) {
    EXPECT_GE(result.best_history[i], result.best_history[i - 1]);
  }
}

TEST(Ga, DeterministicForSeed) {
  const auto a = ga_optimize(mixed_space(), concave, {.seed = 7});
  const auto b = ga_optimize(mixed_space(), concave, {.seed = 7});
  EXPECT_EQ(a.best_point, b.best_point);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Ga, GoldenRunIsBitExact) {
  // Bit patterns of a reference run. Any change to the order of RNG draws,
  // elite comparisons or evaluations moves the answer or the convergence
  // trace, and every tuned configuration the system reports with it.
  GaOptions options;
  options.population = 12;
  options.generations = 8;
  options.seed = 2027;
  const auto result = ga_optimize(mixed_space(), concave, options);

  ASSERT_EQ(result.best_point.size(), 3u);
  EXPECT_EQ(bits(result.best_point[0]), 0x3ff0000000000000u);  // 1
  EXPECT_EQ(bits(result.best_point[1]), 0x404d000000000000u);  // 58
  EXPECT_EQ(bits(result.best_point[2]), 0x3fda4ce3a8c3b6f6u);  // 0.41094295006665449
  EXPECT_EQ(bits(result.best_fitness), 0xbfa6eeb488d667ffu);   // -0.044789926246451721
  // 12 initial + 8 generations x 10 offspring (2 elites carried) + 1 final.
  EXPECT_EQ(result.evaluations, 93u);
  const std::vector<std::uint64_t> history = {
      0xbff31e9540877b1bu, 0xbff31e9540877b1bu, 0xbfdfaaa35de799ccu,
      0xbfdfaaa35de799ccu, 0xbfd758b7d8c8e17au, 0xbfa6eeb488d667ffu,
      0xbfa6eeb488d667ffu, 0xbfa6eeb488d667ffu, 0xbfa6eeb488d667ffu};
  ASSERT_EQ(result.best_history.size(), history.size());
  for (std::size_t g = 0; g < history.size(); ++g) {
    EXPECT_EQ(bits(result.best_history[g]), history[g]) << "generation " << g;
  }
}

TEST(GridSearch, FindsGridOptimum) {
  const auto space = mixed_space();
  const std::vector<std::size_t> levels = {2, 5, 5};
  const auto result = grid_search(space, concave, levels);
  EXPECT_EQ(result.evaluations, space.grid_size(levels));
  EXPECT_DOUBLE_EQ(result.best_point[0], 1.0);
}

TEST(GreedySearch, SucceedsOnSeparableObjective) {
  const auto space = mixed_space();
  const auto result = greedy_search(space, concave, {0.0, 8.0, 0.05}, 9, 2);
  EXPECT_DOUBLE_EQ(result.best_point[0], 1.0);
  EXPECT_NEAR(result.best_point[1], 60.0, 11.0);
}

TEST(GreedySearch, TrapsOnInterdependentObjective) {
  // XOR-flavoured coupling: good points are (0, low) and (1, high); the
  // coordinate sweep from (0, high) cannot reach (1, high) without first
  // getting worse — Figure 6's argument against greedy tuning.
  SearchSpace space({{"a", true, 0, 1}, {"b", false, 0.0, 1.0}});
  auto coupled = [](std::span<const double> p) {
    const bool a = p[0] > 0.5;
    return a ? p[1] : 1.0 - p[1];
  };
  const auto greedy = greedy_search(space, coupled, {0.0, 0.4}, 6, 2);
  const auto ga = ga_optimize(space, coupled, {.seed = 11});
  EXPECT_GE(ga.best_fitness, greedy.best_fitness - 1e-9);
  EXPECT_NEAR(ga.best_fitness, 1.0, 0.02);
}

TEST(RandomSearch, ImprovesWithBudget) {
  const auto space = mixed_space();
  const auto small = random_search(space, concave, 10, 3);
  const auto large = random_search(space, concave, 1000, 3);
  EXPECT_GE(large.best_fitness, small.best_fitness);
  EXPECT_EQ(large.evaluations, 1000u);
}

}  // namespace
}  // namespace rafiki::opt
