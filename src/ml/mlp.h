// Feed-forward neural network used as the surrogate performance model
// (Section 3.6). The paper's final architecture is 6 inputs -> hidden [14, 4]
// with tanh activations -> 1 linear output, trained by Levenberg-Marquardt
// with Bayesian regularization (MATLAB's trainbr); see trainbr.h.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"

namespace rafiki::ml {

class Mlp {
 public:
  /// layer_sizes = {inputs, hidden..., outputs}; outputs must be 1.
  explicit Mlp(std::vector<std::size_t> layer_sizes);

  std::size_t input_size() const noexcept { return layers_.front(); }
  std::size_t param_count() const noexcept { return params_.size(); }
  const std::vector<std::size_t>& layers() const noexcept { return layers_; }

  std::span<const double> params() const noexcept { return params_; }
  void set_params(std::span<const double> params);

  /// Small random weights, scaled per-layer so tanh units start in their
  /// linear region regardless of fan-in.
  void randomize(Rng& rng);

  /// Network output for one (already normalized) input vector.
  double forward(std::span<const double> x) const;

  /// Reusable buffers for forward_batch. A caller evaluating many batches
  /// (or many ensemble members) passes the same scratch to every call so the
  /// per-batch cost is pure arithmetic, not allocation.
  struct BatchScratch {
    std::vector<double> a;  // transposed activations, ping (holds the input first)
    std::vector<double> z;  // transposed activations, pong
  };

  /// Batched forward pass: each row of `X` is one normalized input vector,
  /// evaluated with one matrix-matrix product per layer instead of one
  /// matrix-vector product per request. Activations are held transposed
  /// ([unit][row]) with the row dimension padded up to a multiple of
  /// kAffineRowTile (activation.h), so the register-tiled affine kernel
  /// and the tanh sweep never run a scalar tail; padding lanes are computed
  /// and discarded. The per-element accumulation order (bias first, then
  /// weights in ascending input index, mul then add) matches forward()
  /// exactly, so results are bit-for-bit identical to calling forward() row
  /// by row — the serve-layer micro-batcher and the GA population loop rely
  /// on that equivalence. forward() stays the scalar reference.
  std::vector<double> forward_batch(const Matrix& x_rows) const;

  /// Allocation-free variant: writes the x_rows.rows() outputs to `out` and
  /// keeps all intermediates in `scratch`. Same bit-for-bit contract.
  void forward_batch(const Matrix& x_rows, std::span<double> out,
                     BatchScratch& scratch) const;

  /// Output plus d(output)/d(params) via backpropagation; `grad` must have
  /// param_count() entries. One call per sample builds one Jacobian row.
  double forward_with_gradient(std::span<const double> x, std::span<double> grad) const;

 private:
  struct LayerView {
    std::size_t w_offset;  // start of the weight block in params_
    std::size_t b_offset;  // start of the bias block
    std::size_t in;
    std::size_t out;
  };

  std::vector<std::size_t> layers_;
  std::vector<LayerView> views_;
  std::vector<double> params_;
};

/// Min-max feature normalization to [-1, 1], MATLAB mapminmax-style, fit on
/// the training set and reused at prediction time.
class Normalizer {
 public:
  void fit(std::span<const double> values);  // single feature
  void fit_columns(const std::vector<std::vector<double>>& rows);

  double map(double v, std::size_t feature = 0) const;
  double unmap(double v, std::size_t feature = 0) const;
  /// Maps a *distance* in normalized units back to raw units (no offset);
  /// used to express ensemble spread in target units.
  double unmap_delta(double dv, std::size_t feature = 0) const;
  std::vector<double> map_row(std::span<const double> row) const;
  std::size_t features() const noexcept { return lo_.size(); }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace rafiki::ml
