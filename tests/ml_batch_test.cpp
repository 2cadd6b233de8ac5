// Bit-for-bit parity of the batched inference paths with their scalar
// originals. The serve layer's micro-batcher and the GA's per-generation
// population evaluation both assume that batching is a pure reshaping of the
// computation — same accumulation order per output element, so EXPECT_EQ
// (exact bits), not EXPECT_NEAR.
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ml/ensemble.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "opt/ga.h"
#include "opt/space.h"
#include "util/rng.h"

namespace rafiki::ml {
namespace {

TEST(ForwardBatch, MatchesForwardBitForBit) {
  // Batch sizes on both sides of every register-tile boundary (the padded
  // lanes of a partial 8-row tile) and topologies whose layer widths are
  // not multiples of the 4-output tile, all through one reused scratch.
  const std::vector<std::vector<std::size_t>> topologies = {{4, 7, 3, 1}, {6, 14, 4, 1}};
  std::vector<std::size_t> batch_sizes;
  for (std::size_t n = 1; n <= 17; ++n) batch_sizes.push_back(n);
  batch_sizes.push_back(33);
  batch_sizes.push_back(46);

  Rng rng(2024);
  for (const auto& topology : topologies) {
    Mlp net(topology);
    net.randomize(rng);
    Mlp::BatchScratch scratch;
    for (const std::size_t rows : batch_sizes) {
      Matrix x(rows, topology.front());
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < topology.front(); ++c) x(r, c) = rng.uniform(-1.0, 1.0);
      }
      const auto batched = net.forward_batch(x);
      std::vector<double> reused(rows);
      net.forward_batch(x, reused, scratch);
      ASSERT_EQ(batched.size(), rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const double scalar = net.forward(x.row(r));
        EXPECT_EQ(batched[r], scalar) << "inputs " << topology.front() << " rows " << rows
                                      << " row " << r;
        EXPECT_EQ(reused[r], scalar) << "inputs " << topology.front() << " rows " << rows
                                     << " row " << r;
      }
    }
  }
}

TEST(ForwardBatch, SingleRowAndEmptyBatch) {
  Mlp net({2, 5, 1});
  Rng rng(7);
  net.randomize(rng);

  Matrix one(1, 2);
  one(0, 0) = 0.3;
  one(0, 1) = -0.8;
  const auto single = net.forward_batch(one);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], net.forward(one.row(0)));

  EXPECT_TRUE(net.forward_batch(Matrix(0, 2)).empty());
}

class EnsembleBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small synthetic regression problem; enough structure that training
    // converges and members disagree slightly (nonzero spread).
    Rng rng(55);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 60; ++i) {
      std::vector<double> row = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0),
                                 rng.uniform(-2.0, 2.0)};
      x.push_back(row);
      y.push_back(3.0 * row[0] - row[1] + 0.5 * row[2] * row[2]);
    }
    EnsembleOptions options;
    options.n_nets = 4;
    options.hidden = {6};
    options.train.max_epochs = 40;
    ensemble_.fit(x, y, options);

    for (int i = 0; i < 17; ++i) {
      queries_.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0),
                          rng.uniform(-2.0, 2.0)});
    }
  }

  SurrogateEnsemble ensemble_;
  std::vector<std::vector<double>> queries_;
};

TEST_F(EnsembleBatch, PredictBatchMatchesPredictBitForBit) {
  ASSERT_TRUE(ensemble_.trained());
  const auto batched = ensemble_.predict_batch(queries_);
  ASSERT_EQ(batched.size(), queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(batched[i], ensemble_.predict(queries_[i])) << "query " << i;
  }
}

TEST_F(EnsembleBatch, UncertaintyBatchMatchesScalarPath) {
  const auto batched = ensemble_.predict_batch_with_uncertainty(queries_);
  ASSERT_EQ(batched.size(), queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    const auto scalar = ensemble_.predict_with_uncertainty(queries_[i]);
    EXPECT_EQ(batched[i].mean, scalar.mean) << "query " << i;
    EXPECT_EQ(batched[i].stddev, scalar.stddev) << "query " << i;
    EXPECT_GE(batched[i].stddev, 0.0);
    EXPECT_TRUE(std::isfinite(batched[i].stddev));
  }
}

TEST_F(EnsembleBatch, ReusedWorkspaceMatchesFreshCalls) {
  // One workspace carried across shrinking and growing batches must leave
  // no trace of the previous shape in the next answer.
  Rng rng(91);
  SurrogateEnsemble::BatchWorkspace workspace;
  for (const std::size_t rows : {46u, 1u, 17u, 46u}) {
    Matrix x(rows, 3);
    for (std::size_t r = 0; r < rows; ++r) {
      x(r, 0) = rng.uniform(0.0, 1.0);
      x(r, 1) = rng.uniform(0.0, 4.0);
      x(r, 2) = rng.uniform(-2.0, 2.0);
    }
    std::vector<double> means(rows);
    ensemble_.predict_batch(x, means, workspace);
    std::vector<SurrogateEnsemble::Prediction> spread(rows);
    ensemble_.predict_batch_with_uncertainty(x, spread, workspace);

    const auto fresh_means = ensemble_.predict_batch(x);
    const auto fresh_spread = ensemble_.predict_batch_with_uncertainty(x);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(means[r], fresh_means[r]) << "rows " << rows << " row " << r;
      EXPECT_EQ(spread[r].mean, fresh_spread[r].mean) << "rows " << rows << " row " << r;
      EXPECT_EQ(spread[r].stddev, fresh_spread[r].stddev) << "rows " << rows << " row " << r;
    }
  }
}

TEST_F(EnsembleBatch, EmptyBatchIsEmpty) {
  const std::vector<std::vector<double>> no_rows;
  EXPECT_TRUE(ensemble_.predict_batch(no_rows).empty());
  EXPECT_TRUE(ensemble_.predict_batch_with_uncertainty(no_rows).empty());
}

}  // namespace
}  // namespace rafiki::ml

namespace rafiki::opt {
namespace {

double rastrigin_like(std::span<const double> x) {
  double value = 0.0;
  for (double v : x) value -= v * v - std::cos(3.0 * v);
  return value;
}

TEST(GaBatched, IdenticalToScalarGa) {
  SearchSpace space(std::vector<Dimension>{{"a", false, -4.0, 4.0},
                                           {"b", true, 0.0, 32.0},
                                           {"c", false, -1.0, 3.0}});
  GaOptions options;
  options.population = 16;
  options.generations = 12;
  options.seed = 321;

  const auto scalar = ga_optimize(space, rastrigin_like, options);
  const auto batched = ga_optimize_batched(
      space,
      [](const std::vector<std::vector<double>>& points) {
        std::vector<double> out;
        out.reserve(points.size());
        for (const auto& point : points) out.push_back(rastrigin_like(point));
        return out;
      },
      options);

  const auto cohort = ga_optimize_cohort(
      space,
      [&space](std::span<const double> genomes, std::span<double> fitness) {
        for (std::size_t i = 0; i < fitness.size(); ++i) {
          fitness[i] = rastrigin_like(genomes.subspan(i * space.size(), space.size()));
        }
      },
      options);

  // Same RNG stream, same evaluations, bit-identical trajectory.
  for (const auto* other : {&batched, &cohort}) {
    EXPECT_EQ(scalar.best_point, other->best_point);
    EXPECT_EQ(scalar.best_fitness, other->best_fitness);
    EXPECT_EQ(scalar.evaluations, other->evaluations);
    EXPECT_EQ(scalar.best_history, other->best_history);
    EXPECT_EQ(scalar.best_point_history, other->best_point_history);
  }
}

TEST(GaBatched, ThrowsOnWrongBatchArity) {
  SearchSpace space(std::vector<Dimension>{{"a", false, 0.0, 1.0}});
  GaOptions options;
  options.population = 8;
  options.generations = 2;
  EXPECT_THROW(ga_optimize_batched(
                   space,
                   [](const std::vector<std::vector<double>>& points) {
                     return std::vector<double>(points.size() + 1, 0.0);
                   },
                   options),
               std::invalid_argument);
}

}  // namespace
}  // namespace rafiki::opt
