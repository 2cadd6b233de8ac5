// Minimal dense linear algebra for the surrogate-model trainer: row-major
// matrix with the handful of kernels Levenberg-Marquardt needs (products,
// transpose-products, Cholesky solve). No external dependencies.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rafiki::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  /// Reshapes to rows x cols, keeping the allocation when it is already
  /// large enough (so a reused matrix stops allocating once it has seen its
  /// largest shape). Element values are unspecified afterwards.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) noexcept { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  Matrix transpose() const;

  /// this * other; dimensions must agree.
  Matrix multiply(const Matrix& other) const;
  /// this^T * this — the Gauss-Newton Hessian approximation J^T J.
  Matrix gram() const;
  /// this^T * v for a vector v of length rows().
  std::vector<double> transpose_times(std::span<const double> v) const;
  std::vector<double> times(std::span<const double> v) const;

  Matrix& add_diagonal(double value);

  /// Solves (this) x = b for symmetric positive-definite this, via Cholesky.
  /// Returns empty vector if the factorization fails (not SPD).
  std::vector<double> solve_spd(std::span<const double> b) const;

  /// Trace of the inverse via Cholesky (used for the effective number of
  /// parameters gamma in Bayesian regularization). Returns -1 on failure.
  double trace_inverse_spd() const;

 private:
  /// Cholesky factor L (lower) such that A = L L^T; false if not SPD.
  bool cholesky(Matrix& lower) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace rafiki::ml
