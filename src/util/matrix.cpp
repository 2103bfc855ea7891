#include "util/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace nlft::util {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_{rows}, cols_{cols}, data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t{cols_, rows_};
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  return t;
}

double Matrix::norm1() const {
  double best = 0.0;
  for (std::size_t c = 0; c < cols_; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) sum += std::abs(at(r, c));
    best = std::max(best, sum);
  }
  return best;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) throw std::invalid_argument("matrix shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) throw std::invalid_argument("matrix shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double k) {
  for (double& v : data_) v *= k;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols_ != b.rows_) throw std::invalid_argument("matrix shape mismatch");
  Matrix c{a.rows_, b.cols_};
  for (std::size_t i = 0; i < a.rows_; ++i) {
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols_; ++j) c.at(i, j) += aik * b.at(k, j);
    }
  }
  return c;
}

std::vector<double> Matrix::apply(const std::vector<double>& x) const {
  if (x.size() != cols_) throw std::invalid_argument("matrix/vector shape mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) y[r] += at(r, c) * x[c];
  return y;
}

std::vector<double> Matrix::applyLeft(const std::vector<double>& x) const {
  if (x.size() != rows_) throw std::invalid_argument("matrix/vector shape mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += xr * at(r, c);
  }
  return y;
}

LuDecomposition::LuDecomposition(Matrix a) : lu_{std::move(a)} {
  if (lu_.rows() != lu_.cols()) throw std::invalid_argument("LU requires a square matrix");
  const std::size_t n = lu_.rows();
  pivots_.resize(n);
  for (std::size_t i = 0; i < n; ++i) pivots_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::abs(lu_.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_.at(r, k));
      if (v > best) { best = v; pivot = r; }
    }
    if (best == 0.0) throw std::runtime_error("LU: singular matrix");
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_.at(pivot, c), lu_.at(k, c));
      std::swap(pivots_[pivot], pivots_[k]);
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_.at(r, k) / lu_.at(k, k);
      lu_.at(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) lu_.at(r, c) -= factor * lu_.at(k, c);
    }
  }
}

std::vector<double> LuDecomposition::solve(std::vector<double> b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU solve: size mismatch");
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[pivots_[i]];
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_.at(i, j) * x[j];
  // Back substitution with upper triangle.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= lu_.at(ii, j) * x[j];
    x[ii] /= lu_.at(ii, ii);
  }
  return x;
}

Matrix LuDecomposition::solveMatrix(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  if (b.rows() != n) throw std::invalid_argument("LU solve: size mismatch");
  Matrix x{n, b.cols()};
  std::vector<double> column(n);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n; ++r) column[r] = b.at(r, c);
    const auto solved = solve(column);
    for (std::size_t r = 0; r < n; ++r) x.at(r, c) = solved[r];
  }
  return x;
}

Matrix matrixExponential(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("expm requires a square matrix");
  const std::size_t n = a.rows();

  // Scale so that the scaled norm is below the Pade(13) threshold.
  const double theta13 = 5.371920351148152;
  const double norm = a.norm1();
  int squarings = 0;
  if (norm > theta13) {
    squarings = static_cast<int>(std::ceil(std::log2(norm / theta13)));
  }
  Matrix scaled = a;
  scaled *= std::pow(2.0, -squarings);

  // Pade(13) coefficients.
  static constexpr double b[] = {
      64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0,  129060195264000.0,   10559470521600.0,
      670442572800.0,      33522128640.0,       1323241920.0,
      40840800.0,          960960.0,            16380.0,
      182.0,               1.0};

  const Matrix identity = Matrix::identity(n);
  const Matrix a2 = scaled * scaled;
  const Matrix a4 = a2 * a2;
  const Matrix a6 = a4 * a2;

  Matrix u = a6 * (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * identity;
  u = scaled * u;
  Matrix v = a6 * (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * identity;

  // Solve (V - U) X = (V + U).
  Matrix result = LuDecomposition{v - u}.solveMatrix(v + u);
  for (int s = 0; s < squarings; ++s) result = result * result;
  return result;
}

Matrix kroneckerProduct(const Matrix& a, const Matrix& b) {
  Matrix k{a.rows() * b.rows(), a.cols() * b.cols()};
  for (std::size_t ar = 0; ar < a.rows(); ++ar)
    for (std::size_t ac = 0; ac < a.cols(); ++ac) {
      const double v = a.at(ar, ac);
      if (v == 0.0) continue;
      for (std::size_t br = 0; br < b.rows(); ++br)
        for (std::size_t bc = 0; bc < b.cols(); ++bc)
          k.at(ar * b.rows() + br, ac * b.cols() + bc) = v * b.at(br, bc);
    }
  return k;
}

Matrix kroneckerSum(const Matrix& a, const Matrix& b) {
  if (a.rows() != a.cols() || b.rows() != b.cols())
    throw std::invalid_argument("kroneckerSum requires square matrices");
  return kroneckerProduct(a, Matrix::identity(b.rows())) +
         kroneckerProduct(Matrix::identity(a.rows()), b);
}

}  // namespace nlft::util
