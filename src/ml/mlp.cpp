#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/activation.h"

namespace rafiki::ml {

Mlp::Mlp(std::vector<std::size_t> layer_sizes) : layers_(std::move(layer_sizes)) {
  if (layers_.size() < 2) throw std::invalid_argument("Mlp: need at least two layers");
  if (layers_.back() != 1) throw std::invalid_argument("Mlp: single-output networks only");
  std::size_t offset = 0;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    LayerView view;
    view.in = layers_[l];
    view.out = layers_[l + 1];
    view.w_offset = offset;
    offset += view.in * view.out;
    view.b_offset = offset;
    offset += view.out;
    views_.push_back(view);
  }
  params_.assign(offset, 0.0);
}

void Mlp::set_params(std::span<const double> params) {
  if (params.size() != params_.size()) throw std::invalid_argument("Mlp::set_params: size");
  std::copy(params.begin(), params.end(), params_.begin());
}

void Mlp::randomize(Rng& rng) {
  for (const auto& view : views_) {
    const double scale = 1.0 / std::sqrt(static_cast<double>(view.in));
    for (std::size_t i = 0; i < view.in * view.out; ++i) {
      params_[view.w_offset + i] = rng.uniform(-scale, scale);
    }
    for (std::size_t i = 0; i < view.out; ++i) {
      params_[view.b_offset + i] = rng.uniform(-0.1, 0.1);
    }
  }
}

double Mlp::forward(std::span<const double> x) const {
  if (x.size() != layers_.front()) throw std::invalid_argument("Mlp::forward: input size");
  std::vector<double> a(x.begin(), x.end());
  std::vector<double> z;
  for (std::size_t l = 0; l < views_.size(); ++l) {
    const auto& view = views_[l];
    z.assign(view.out, 0.0);
    for (std::size_t o = 0; o < view.out; ++o) {
      double s = params_[view.b_offset + o];
      const double* w = &params_[view.w_offset + o * view.in];
      for (std::size_t i = 0; i < view.in; ++i) s += w[i] * a[i];
      z[o] = l + 1 < views_.size() ? fast_tanh(s) : s;  // linear output layer
    }
    a = z;
  }
  return a[0];
}

std::vector<double> Mlp::forward_batch(const Matrix& x_rows) const {
  std::vector<double> out(x_rows.rows());
  BatchScratch scratch;
  forward_batch(x_rows, out, scratch);
  return out;
}

void Mlp::forward_batch(const Matrix& x_rows, std::span<double> out,
                        BatchScratch& scratch) const {
  if (x_rows.cols() != layers_.front()) {
    throw std::invalid_argument("Mlp::forward_batch: input size");
  }
  const std::size_t n = x_rows.rows();
  if (out.size() != n) throw std::invalid_argument("Mlp::forward_batch: out size");

  // Activations live transposed ([unit][row]) so every affine inner loop in
  // layer_affine_block runs across the batch — the vector lane is the batch
  // dimension, which stays long no matter how narrow a layer is. The leading
  // dimension is padded to whole register tiles; padding lanes start at zero
  // and stay finite (bias, then tanh of it), and nothing reads them back.
  // Transpose the input once, then ping-pong between the two flat buffers.
  const std::size_t ld = (n + kAffineRowTile - 1) / kAffineRowTile * kAffineRowTile;
  const std::size_t inputs = layers_.front();
  scratch.a.resize(ld * inputs);
  for (std::size_t c = 0; c < inputs; ++c) {
    double* column = scratch.a.data() + c * ld;
    for (std::size_t r = 0; r < n; ++r) column[r] = x_rows(r, c);
    std::fill(column + n, column + ld, 0.0);
  }
  const double* in = scratch.a.data();
  for (std::size_t l = 0; l < views_.size(); ++l) {
    const auto& view = views_[l];
    auto& dst = (l % 2 == 0) ? scratch.z : scratch.a;
    dst.resize(ld * view.out);
    // Bias-first, ascending-input-index accumulation — the same per-element
    // order as forward(), so sums round identically (see activation.h).
    layer_affine_block(in, ld, view.in, &params_[view.w_offset],
                       &params_[view.b_offset], dst.data(), view.out);
    // One SIMD activation sweep over the whole out x ld block instead of a
    // scalar call per element; bit-identical to fast_tanh.
    if (l + 1 < views_.size()) fast_tanh_block(dst.data(), ld * view.out);
    in = dst.data();
  }
  // The output layer has width 1, so its first n lanes are the outputs.
  std::copy(in, in + n, out.begin());
}

double Mlp::forward_with_gradient(std::span<const double> x, std::span<double> grad) const {
  if (x.size() != layers_.front()) throw std::invalid_argument("Mlp: input size");
  if (grad.size() != params_.size()) throw std::invalid_argument("Mlp: grad size");

  // Forward pass, caching activations per layer.
  std::vector<std::vector<double>> acts;
  acts.emplace_back(x.begin(), x.end());
  for (std::size_t l = 0; l < views_.size(); ++l) {
    const auto& view = views_[l];
    std::vector<double> a(view.out);
    for (std::size_t o = 0; o < view.out; ++o) {
      double s = params_[view.b_offset + o];
      const double* w = &params_[view.w_offset + o * view.in];
      for (std::size_t i = 0; i < view.in; ++i) s += w[i] * acts[l][i];
      a[o] = l + 1 < views_.size() ? fast_tanh(s) : s;
    }
    acts.push_back(std::move(a));
  }

  // Backward pass: delta = d(output)/d(pre-activation of layer l).
  std::vector<double> delta{1.0};  // linear output unit
  for (std::size_t li = views_.size(); li-- > 0;) {
    const auto& view = views_[li];
    const auto& a_in = acts[li];
    for (std::size_t o = 0; o < view.out; ++o) {
      grad[view.b_offset + o] = delta[o];
      double* g = &grad[view.w_offset + o * view.in];
      for (std::size_t i = 0; i < view.in; ++i) g[i] = delta[o] * a_in[i];
    }
    if (li == 0) break;
    // Propagate through the weights and the tanh of the previous layer
    // (acts[li] holds tanh(z) so tanh' = 1 - a^2).
    std::vector<double> prev(view.in, 0.0);
    for (std::size_t o = 0; o < view.out; ++o) {
      const double* w = &params_[view.w_offset + o * view.in];
      for (std::size_t i = 0; i < view.in; ++i) prev[i] += w[i] * delta[o];
    }
    for (std::size_t i = 0; i < view.in; ++i) {
      prev[i] *= 1.0 - acts[li][i] * acts[li][i];
    }
    delta = std::move(prev);
  }
  return acts.back()[0];
}

void Normalizer::fit(std::span<const double> values) {
  lo_.assign(1, values.empty() ? 0.0 : values[0]);
  hi_.assign(1, values.empty() ? 1.0 : values[0]);
  for (double v : values) {
    lo_[0] = std::min(lo_[0], v);
    hi_[0] = std::max(hi_[0], v);
  }
}

void Normalizer::fit_columns(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return;
  const std::size_t n = rows.front().size();
  lo_.assign(n, rows.front()[0]);
  hi_.assign(n, rows.front()[0]);
  for (std::size_t c = 0; c < n; ++c) {
    lo_[c] = hi_[c] = rows.front()[c];
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < n; ++c) {
      lo_[c] = std::min(lo_[c], row[c]);
      hi_[c] = std::max(hi_[c], row[c]);
    }
  }
}

double Normalizer::map(double v, std::size_t feature) const {
  const double lo = lo_.at(feature);
  const double hi = hi_.at(feature);
  if (hi <= lo) return 0.0;
  return 2.0 * (v - lo) / (hi - lo) - 1.0;
}

double Normalizer::unmap(double v, std::size_t feature) const {
  const double lo = lo_.at(feature);
  const double hi = hi_.at(feature);
  return lo + (v + 1.0) * 0.5 * (hi - lo);
}

double Normalizer::unmap_delta(double dv, std::size_t feature) const {
  const double lo = lo_.at(feature);
  const double hi = hi_.at(feature);
  return dv * 0.5 * (hi - lo);
}

std::vector<double> Normalizer::map_row(std::span<const double> row) const {
  std::vector<double> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) out[c] = map(row[c], c);
  return out;
}

}  // namespace rafiki::ml
