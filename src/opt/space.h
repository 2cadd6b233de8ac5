// Search-space abstraction for the configuration optimizers. Kept generic
// (no engine dependency) so the optimizers are testable on analytic
// functions; core/ maps engine parameter specs onto Dimensions.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace rafiki::opt {

struct Dimension {
  std::string name;
  /// Integral dimensions (integers and categoricals) admit only whole
  /// values; real dimensions are continuous.
  bool integral = false;
  double lo = 0.0;
  double hi = 1.0;
};

/// Objective to maximize, evaluated on a point in dimension order.
using Objective = std::function<double(std::span<const double>)>;

class SearchSpace {
 public:
  explicit SearchSpace(std::vector<Dimension> dims);

  std::size_t size() const noexcept { return dims_.size(); }
  const Dimension& dim(std::size_t i) const { return dims_.at(i); }
  const std::vector<Dimension>& dims() const noexcept { return dims_; }

  std::vector<double> random_point(Rng& rng) const;
  /// Same draws as random_point, written into `out` (size() values).
  void random_point(Rng& rng, std::span<double> out) const;
  /// Clamps into bounds and rounds integral dimensions.
  std::vector<double> snap(std::vector<double> point) const;
  bool feasible(std::span<const double> point) const;
  /// Total constraint violation: distance outside bounds plus distance from
  /// integrality, used by the GA's penalty-based constraint handling.
  double violation(std::span<const double> point) const;

  /// Full-factorial enumeration with `levels[i]` evenly spaced values per
  /// dimension (endpoints included). The exhaustive-search baseline.
  std::vector<std::vector<double>> grid(std::span<const std::size_t> levels) const;
  /// Number of points such a grid would contain.
  std::size_t grid_size(std::span<const std::size_t> levels) const;

  /// Evenly spaced candidate values for one dimension (used by grid and the
  /// greedy sweep); integral dimensions get de-duplicated rounded levels.
  std::vector<double> level_values(std::size_t dim_index, std::size_t levels) const;

 private:
  std::vector<Dimension> dims_;
};

/// Maps between a full search space and a reduced subspace spanned by a
/// subset of its dimensions, with every non-selected dimension pinned at a
/// fixed value. The significance-aware tuning layer (src/tune/) searches the
/// reduced space while models keep consuming full-dimensional points, so
/// re-cutting the subspace never invalidates anything trained on the full
/// space. Kept generic (index-based, no engine dependency) like the rest of
/// this header.
class SubspaceMap {
 public:
  /// `active` must be strictly increasing, in range, and non-empty;
  /// `pinned` must carry one value per full dimension (active entries are
  /// ignored on expand — the reduced point overrides them).
  SubspaceMap(std::vector<Dimension> full_dims, std::vector<std::size_t> active,
              std::vector<double> pinned);

  /// The reduced search space (one Dimension per active index).
  const SearchSpace& reduced() const noexcept { return reduced_; }
  std::size_t full_size() const noexcept { return pinned_.size(); }
  const std::vector<std::size_t>& active() const noexcept { return active_; }
  const std::vector<double>& pinned() const noexcept { return pinned_; }

  /// Full-dimensional point: pinned values with the reduced point's values
  /// substituted at the active indices.
  std::vector<double> expand(std::span<const double> reduced_point) const;
  /// Same as expand, written into `full` (full_size() values).
  void expand(std::span<const double> reduced_point, std::span<double> full) const;
  /// Reduced point: the full point's values at the active indices.
  std::vector<double> restrict(std::span<const double> full_point) const;

 private:
  std::vector<std::size_t> active_;
  std::vector<double> pinned_;
  SearchSpace reduced_;
};

}  // namespace rafiki::opt
