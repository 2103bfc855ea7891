// Small dense linear algebra for the reliability engine.
//
// Markov models in this framework have at most a few dozen states (Kronecker
// compositions of the paper's 4-5 state chains), so a straightforward dense
// row-major double matrix with partial-pivoting LU is both sufficient and
// easy to verify.
#pragma once

#include <cstddef>
#include <vector>

namespace nlft::util {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] Matrix transpose() const;

  /// Maximum absolute column sum (the induced 1-norm).
  [[nodiscard]] double norm1() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double k);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double k) { return a *= k; }
  friend Matrix operator*(double k, Matrix a) { return a *= k; }
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix-vector product A*x. Requires x.size() == cols().
  [[nodiscard]] std::vector<double> apply(const std::vector<double>& x) const;
  /// Row-vector product x^T * A. Requires x.size() == rows().
  [[nodiscard]] std::vector<double> applyLeft(const std::vector<double>& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU decomposition with partial pivoting of a square matrix.
///
/// Throws std::invalid_argument for non-square input and std::runtime_error
/// when the matrix is numerically singular.
class LuDecomposition {
 public:
  explicit LuDecomposition(Matrix a);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;
  /// Solves A X = B column by column.
  [[nodiscard]] Matrix solveMatrix(const Matrix& b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> pivots_;
};

/// Matrix exponential exp(A) via scaling-and-squaring with Pade(13)
/// approximation (Higham 2005, fixed order for simplicity). Accurate to
/// near machine precision for the well-conditioned generators used here.
[[nodiscard]] Matrix matrixExponential(const Matrix& a);

/// Kronecker product A (x) B.
[[nodiscard]] Matrix kroneckerProduct(const Matrix& a, const Matrix& b);

/// Kronecker sum A (+) B = A (x) I_b + I_a (x) B (square inputs).
[[nodiscard]] Matrix kroneckerSum(const Matrix& a, const Matrix& b);

}  // namespace nlft::util
