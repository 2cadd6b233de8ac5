// Ensemble of independently initialized surrogate networks (Section 3.6.2):
// the paper trains the same topology from 20 different initial weight
// vectors, prunes the 30% with the highest training error and averages the
// rest (leaving 14 active networks in the default setting).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/mlp.h"
#include "ml/trainbr.h"

namespace rafiki::ml {

struct EnsembleOptions {
  std::size_t n_nets = 20;
  /// Fraction of worst-training-error networks removed before averaging.
  double prune_fraction = 0.3;
  /// Hidden-layer sizes; the paper settles on [14, 4] by trial and error.
  std::vector<std::size_t> hidden = {14, 4};
  TrainOptions train;
  std::uint64_t seed = 1234;
  /// Worker threads for member training: 0 = one per hardware thread, 1 =
  /// strictly serial. The paper's members train from independent initial
  /// weights, so they parallelize embarrassingly; per-net RNGs are pre-split
  /// in serial seed order, which keeps the trained weights bit-identical at
  /// any thread count (asserted in determinism_test).
  std::size_t train_threads = 0;
};

class SurrogateEnsemble {
 public:
  /// Fits the ensemble on raw (unnormalized) feature rows and targets;
  /// normalization to [-1, 1] is handled internally and reused at predict
  /// time, mirroring mapminmax + trainbr.
  void fit(const std::vector<std::vector<double>>& X, std::span<const double> y,
           const EnsembleOptions& options = {});

  /// Predicted target for one raw feature row (averaged over active nets).
  double predict(std::span<const double> x) const;

  /// Mean prediction plus the cross-member spread of the active networks
  /// (sample stddev in raw target units) — the uncertainty band the serve
  /// layer attaches to Predict responses.
  struct Prediction {
    double mean = 0.0;
    double stddev = 0.0;
  };
  Prediction predict_with_uncertainty(std::span<const double> x) const;

  /// Reusable buffers for the workspace overloads below: the normalized
  /// input block, the per-row member sums, one member's outputs, and the
  /// member networks' forward scratch. A caller scoring batch after batch
  /// (a GA generation, a serve worker's micro-batch) keeps one workspace, so
  /// after the largest batch it has seen a call allocates nothing.
  struct BatchWorkspace {
    Matrix normalized;
    std::vector<double> sum;
    std::vector<double> sumsq;
    std::vector<double> member;
    Mlp::BatchScratch scratch;
  };

  /// Batched prediction over raw feature rows: one matrix-matrix product per
  /// layer per member (Mlp::forward_batch) instead of a matrix-vector product
  /// per row. Bit-for-bit identical to calling predict() on each row. Writes
  /// x_rows.rows() values to `out`. Every other predict_batch overload
  /// delegates here.
  void predict_batch(const Matrix& x_rows, std::span<double> out,
                     BatchWorkspace& workspace) const;
  /// Mean and cross-member spread per row, bit-identical to
  /// predict_with_uncertainty() per row. Every other uncertainty overload
  /// delegates here.
  void predict_batch_with_uncertainty(const Matrix& x_rows, std::span<Prediction> out,
                                      BatchWorkspace& workspace) const;

  /// Allocating conveniences over the workspace overloads.
  std::vector<double> predict_batch(const Matrix& x_rows) const;
  std::vector<double> predict_batch(const std::vector<std::vector<double>>& x_rows) const;
  std::vector<Prediction> predict_batch_with_uncertainty(const Matrix& x_rows) const;
  std::vector<Prediction> predict_batch_with_uncertainty(
      const std::vector<std::vector<double>>& x_rows) const;

  bool trained() const noexcept { return !nets_.empty(); }
  std::size_t total_nets() const noexcept { return nets_.size(); }
  std::size_t active_nets() const noexcept;
  std::size_t feature_count() const noexcept { return norm_in_.features(); }
  /// Training MSE of each member (normalized target units), for tests.
  const std::vector<double>& member_errors() const noexcept { return errors_; }
  const std::vector<bool>& active_mask() const noexcept { return active_; }
  /// Trained member networks, for the determinism regression test: two runs
  /// from the same seed must produce bit-identical weight vectors.
  const std::vector<Mlp>& nets() const noexcept { return nets_; }

 private:
  /// Shared front half of the workspace overloads: validates x_rows,
  /// normalizes it into the workspace and sums the active members' outputs
  /// per row (and their squares when `squares`), in predict()'s member
  /// order. Returns the active member count.
  std::size_t accumulate(const Matrix& x_rows, std::size_t out_size,
                         BatchWorkspace& workspace, bool squares) const;
  Matrix pack(const std::vector<std::vector<double>>& x_rows) const;

  Normalizer norm_in_;
  Normalizer norm_out_;
  std::vector<Mlp> nets_;
  std::vector<double> errors_;
  std::vector<bool> active_;
};

}  // namespace rafiki::ml
