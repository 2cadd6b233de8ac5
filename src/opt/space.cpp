#include "opt/space.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rafiki::opt {

SearchSpace::SearchSpace(std::vector<Dimension> dims) : dims_(std::move(dims)) {
  if (dims_.empty()) throw std::invalid_argument("SearchSpace: no dimensions");
  for (const auto& d : dims_) {
    if (d.hi < d.lo) throw std::invalid_argument("SearchSpace: bad bounds for " + d.name);
  }
}

std::vector<double> SearchSpace::random_point(Rng& rng) const {
  std::vector<double> point(dims_.size());
  random_point(rng, point);
  return point;
}

void SearchSpace::random_point(Rng& rng, std::span<double> out) const {
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    out[i] = rng.uniform(dims_[i].lo, dims_[i].hi);
    if (dims_[i].integral) out[i] = std::round(out[i]);
  }
}

std::vector<double> SearchSpace::snap(std::vector<double> point) const {
  for (std::size_t i = 0; i < dims_.size() && i < point.size(); ++i) {
    point[i] = std::clamp(point[i], dims_[i].lo, dims_[i].hi);
    if (dims_[i].integral) point[i] = std::round(point[i]);
  }
  return point;
}

bool SearchSpace::feasible(std::span<const double> point) const {
  return violation(point) == 0.0;
}

double SearchSpace::violation(std::span<const double> point) const {
  double total = 0.0;
  for (std::size_t i = 0; i < dims_.size() && i < point.size(); ++i) {
    const auto& d = dims_[i];
    if (point[i] < d.lo) total += d.lo - point[i];
    if (point[i] > d.hi) total += point[i] - d.hi;
    if (d.integral) total += std::abs(point[i] - std::round(point[i]));
  }
  return total;
}

std::vector<double> SearchSpace::level_values(std::size_t dim_index,
                                              std::size_t levels) const {
  const auto& d = dims_.at(dim_index);
  std::vector<double> values;
  if (levels <= 1 || d.hi == d.lo) {
    values.push_back(d.integral ? std::round(d.lo) : d.lo);
    return values;
  }
  for (std::size_t k = 0; k < levels; ++k) {
    double v = d.lo + (d.hi - d.lo) * static_cast<double>(k) /
                          static_cast<double>(levels - 1);
    if (d.integral) v = std::round(v);
    values.push_back(v);
  }
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::size_t SearchSpace::grid_size(std::span<const std::size_t> levels) const {
  std::size_t total = 1;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    total *= level_values(i, levels[i]).size();
  }
  return total;
}

std::vector<std::vector<double>> SearchSpace::grid(
    std::span<const std::size_t> levels) const {
  if (levels.size() != dims_.size()) {
    throw std::invalid_argument("SearchSpace::grid: levels size mismatch");
  }
  std::vector<std::vector<double>> per_dim(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) per_dim[i] = level_values(i, levels[i]);

  std::vector<std::vector<double>> points;
  std::vector<std::size_t> counter(dims_.size(), 0);
  for (;;) {
    std::vector<double> point(dims_.size());
    for (std::size_t i = 0; i < dims_.size(); ++i) point[i] = per_dim[i][counter[i]];
    points.push_back(std::move(point));
    std::size_t i = 0;
    while (i < dims_.size()) {
      if (++counter[i] < per_dim[i].size()) break;
      counter[i] = 0;
      ++i;
    }
    if (i == dims_.size()) break;
  }
  return points;
}

namespace {

std::vector<Dimension> select_dims(const std::vector<Dimension>& full,
                                   const std::vector<std::size_t>& active) {
  if (active.empty()) throw std::invalid_argument("SubspaceMap: no active dimensions");
  std::vector<Dimension> dims;
  dims.reserve(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i] >= full.size()) {
      throw std::invalid_argument("SubspaceMap: active index out of range");
    }
    if (i > 0 && active[i] <= active[i - 1]) {
      throw std::invalid_argument("SubspaceMap: active indices must be strictly increasing");
    }
    dims.push_back(full[active[i]]);
  }
  return dims;
}

}  // namespace

SubspaceMap::SubspaceMap(std::vector<Dimension> full_dims, std::vector<std::size_t> active,
                         std::vector<double> pinned)
    : active_(std::move(active)),
      pinned_(std::move(pinned)),
      reduced_(select_dims(full_dims, active_)) {
  if (pinned_.size() != full_dims.size()) {
    throw std::invalid_argument("SubspaceMap: pinned size must match full dimensions");
  }
}

std::vector<double> SubspaceMap::expand(std::span<const double> reduced_point) const {
  std::vector<double> full(pinned_.size());
  expand(reduced_point, full);
  return full;
}

void SubspaceMap::expand(std::span<const double> reduced_point,
                         std::span<double> full) const {
  std::copy(pinned_.begin(), pinned_.end(), full.begin());
  const std::size_t n = std::min(reduced_point.size(), active_.size());
  for (std::size_t i = 0; i < n; ++i) full[active_[i]] = reduced_point[i];
}

std::vector<double> SubspaceMap::restrict(std::span<const double> full_point) const {
  std::vector<double> reduced;
  reduced.reserve(active_.size());
  for (std::size_t index : active_) {
    reduced.push_back(index < full_point.size() ? full_point[index] : 0.0);
  }
  return reduced;
}

}  // namespace rafiki::opt
