#include "ml/ensemble.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/parallel.h"

namespace rafiki::ml {

void SurrogateEnsemble::fit(const std::vector<std::vector<double>>& X,
                            std::span<const double> y, const EnsembleOptions& options) {
  if (X.empty() || X.size() != y.size()) {
    throw std::invalid_argument("SurrogateEnsemble::fit: bad training set");
  }
  norm_in_.fit_columns(X);
  norm_out_.fit(y);

  std::vector<std::vector<double>> Xn(X.size());
  for (std::size_t i = 0; i < X.size(); ++i) Xn[i] = norm_in_.map_row(X[i]);
  std::vector<double> yn(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) yn[i] = norm_out_.map(y[i]);

  std::vector<std::size_t> layers;
  layers.push_back(X.front().size());
  layers.insert(layers.end(), options.hidden.begin(), options.hidden.end());
  layers.push_back(1);

  // Pre-split one RNG per member in serial seed order, then train members in
  // parallel: each task touches only its own net/error/RNG slot, so the
  // weights are bit-identical to the old serial loop at any thread count.
  Rng rng(options.seed);
  std::vector<Rng> net_rngs;
  net_rngs.reserve(options.n_nets);
  for (std::size_t k = 0; k < options.n_nets; ++k) net_rngs.push_back(rng.split());

  nets_.assign(options.n_nets, Mlp(layers));
  errors_.assign(options.n_nets, 0.0);

  parallel_for(options.n_nets, options.train_threads, [&](std::size_t k) {
    nets_[k].randomize(net_rngs[k]);
    errors_[k] = train_lm_bayes(nets_[k], Xn, yn, options.train).mse;
  });

  // Prune the worst-performing fraction by training error.
  const auto n_prune = static_cast<std::size_t>(
      options.prune_fraction * static_cast<double>(nets_.size()));
  std::vector<std::size_t> order(nets_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return errors_[a] < errors_[b]; });
  active_.assign(nets_.size(), false);
  for (std::size_t i = 0; i + n_prune < order.size(); ++i) active_[order[i]] = true;
}

std::size_t SurrogateEnsemble::active_nets() const noexcept {
  return static_cast<std::size_t>(std::count(active_.begin(), active_.end(), true));
}

double SurrogateEnsemble::predict(std::span<const double> x) const {
  if (nets_.empty()) throw std::logic_error("SurrogateEnsemble::predict: not trained");
  const auto xn = norm_in_.map_row(x);
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t k = 0; k < nets_.size(); ++k) {
    if (!active_[k]) continue;
    sum += nets_[k].forward(xn);
    ++count;
  }
  return norm_out_.unmap(sum / static_cast<double>(count ? count : 1));
}

SurrogateEnsemble::Prediction SurrogateEnsemble::predict_with_uncertainty(
    std::span<const double> x) const {
  Matrix row(1, x.size());
  std::copy(x.begin(), x.end(), row.row(0).begin());
  Prediction prediction;
  BatchWorkspace workspace;
  predict_batch_with_uncertainty(row, {&prediction, 1}, workspace);
  return prediction;
}

std::size_t SurrogateEnsemble::accumulate(const Matrix& x_rows, std::size_t out_size,
                                          BatchWorkspace& workspace, bool squares) const {
  if (nets_.empty()) throw std::logic_error("SurrogateEnsemble::predict_batch: not trained");
  const std::size_t n = x_rows.rows();
  if (out_size != n) throw std::invalid_argument("SurrogateEnsemble::predict_batch: out size");
  if (n == 0) return 0;
  const std::size_t features = norm_in_.features();
  if (x_rows.cols() != features) {
    throw std::invalid_argument("SurrogateEnsemble::predict_batch: row size");
  }

  auto& xn = workspace.normalized;
  xn.resize(n, features);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < features; ++c) xn(r, c) = norm_in_.map(x_rows(r, c), c);
  }

  // Member order matches predict()'s loop, so the per-row sums round the
  // same way and the batched path is bit-for-bit identical. One scratch and
  // one member buffer serve every net, so the per-batch cost stays in the
  // affine/tanh kernels rather than the allocator.
  auto& sum = workspace.sum;
  auto& sumsq = workspace.sumsq;
  auto& member = workspace.member;
  sum.assign(n, 0.0);
  if (squares) sumsq.assign(n, 0.0);
  member.resize(n);
  std::size_t count = 0;
  for (std::size_t k = 0; k < nets_.size(); ++k) {
    if (!active_[k]) continue;
    nets_[k].forward_batch(xn, member, workspace.scratch);
    for (std::size_t r = 0; r < n; ++r) sum[r] += member[r];
    if (squares) {
      for (std::size_t r = 0; r < n; ++r) sumsq[r] += member[r] * member[r];
    }
    ++count;
  }
  return count;
}

void SurrogateEnsemble::predict_batch(const Matrix& x_rows, std::span<double> out,
                                      BatchWorkspace& workspace) const {
  const std::size_t count = accumulate(x_rows, out.size(), workspace, false);
  const auto denom = static_cast<double>(count ? count : 1);
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = norm_out_.unmap(workspace.sum[r] / denom);
  }
}

void SurrogateEnsemble::predict_batch_with_uncertainty(const Matrix& x_rows,
                                                       std::span<Prediction> out,
                                                       BatchWorkspace& workspace) const {
  const std::size_t count = accumulate(x_rows, out.size(), workspace, true);
  const auto denom = static_cast<double>(count ? count : 1);
  for (std::size_t r = 0; r < out.size(); ++r) {
    const double sum = workspace.sum[r];
    const double mean_n = sum / denom;
    out[r].mean = norm_out_.unmap(mean_n);
    out[r].stddev = 0.0;
    if (count > 1) {
      const double var_n = std::max(
          0.0, (workspace.sumsq[r] - sum * mean_n) / static_cast<double>(count - 1));
      out[r].stddev = norm_out_.unmap_delta(std::sqrt(var_n));
    }
  }
}

Matrix SurrogateEnsemble::pack(const std::vector<std::vector<double>>& x_rows) const {
  if (nets_.empty()) throw std::logic_error("SurrogateEnsemble::predict_batch: not trained");
  Matrix packed(x_rows.size(), norm_in_.features());
  for (std::size_t r = 0; r < x_rows.size(); ++r) {
    if (x_rows[r].size() != norm_in_.features()) {
      throw std::invalid_argument("SurrogateEnsemble::predict_batch: row size");
    }
    std::copy(x_rows[r].begin(), x_rows[r].end(), packed.row(r).begin());
  }
  return packed;
}

std::vector<double> SurrogateEnsemble::predict_batch(const Matrix& x_rows) const {
  std::vector<double> out(x_rows.rows());
  BatchWorkspace workspace;
  predict_batch(x_rows, out, workspace);
  return out;
}

std::vector<double> SurrogateEnsemble::predict_batch(
    const std::vector<std::vector<double>>& x_rows) const {
  return predict_batch(pack(x_rows));
}

std::vector<SurrogateEnsemble::Prediction> SurrogateEnsemble::predict_batch_with_uncertainty(
    const Matrix& x_rows) const {
  std::vector<Prediction> out(x_rows.rows());
  BatchWorkspace workspace;
  predict_batch_with_uncertainty(x_rows, out, workspace);
  return out;
}

std::vector<SurrogateEnsemble::Prediction> SurrogateEnsemble::predict_batch_with_uncertainty(
    const std::vector<std::vector<double>>& x_rows) const {
  return predict_batch_with_uncertainty(pack(x_rows));
}

}  // namespace rafiki::ml
