#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace nlft::util {
namespace {

Matrix randomMatrix(std::size_t n, Rng& rng) {
  Matrix m{n, n};
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m.at(r, c) = rng.uniform(-2.0, 2.0);
  return m;
}

TEST(Matrix, IdentityAndMultiply) {
  const Matrix identity = Matrix::identity(3);
  Rng rng{1};
  const Matrix a = randomMatrix(3, rng);
  const Matrix left = identity * a;
  const Matrix right = a * identity;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(left.at(r, c), a.at(r, c));
      EXPECT_DOUBLE_EQ(right.at(r, c), a.at(r, c));
    }
}

TEST(Matrix, NormsMatchHandComputation) {
  Matrix m{2, 2};
  m.at(0, 0) = 1.0;
  m.at(0, 1) = -3.0;
  m.at(1, 0) = 2.0;
  m.at(1, 1) = 0.5;
  EXPECT_DOUBLE_EQ(m.norm1(), 3.5);    // col 1: |-3| + |0.5|
}

TEST(Matrix, ApplyAndApplyLeft) {
  Matrix m{2, 3};
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(0, 2) = 3;
  m.at(1, 0) = 4;
  m.at(1, 1) = 5;
  m.at(1, 2) = 6;
  const auto y = m.apply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const auto z = m.applyLeft({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{2, 2};
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const auto x = LuDecomposition{a}.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, ResidualSmallOnRandomSystems) {
  Rng rng{2};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniformInt(8);
    Matrix a = randomMatrix(n, rng);
    for (std::size_t i = 0; i < n; ++i) a.at(i, i) += 4.0;  // keep well-conditioned
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    const auto x = LuDecomposition{a}.solve(b);
    const auto ax = a.apply(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
  }
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a{2, 2};
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_THROW(LuDecomposition{a}, std::runtime_error);
}

TEST(Expm, ZeroMatrixGivesIdentity) {
  const Matrix e = matrixExponential(Matrix{3, 3});
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(e.at(r, c), r == c ? 1.0 : 0.0, 1e-14);
}

TEST(Expm, DiagonalMatrixExponentiatesElementwise) {
  Matrix a{2, 2};
  a.at(0, 0) = 1.5;
  a.at(1, 1) = -0.5;
  const Matrix e = matrixExponential(a);
  EXPECT_NEAR(e.at(0, 0), std::exp(1.5), 1e-12);
  EXPECT_NEAR(e.at(1, 1), std::exp(-0.5), 1e-12);
  EXPECT_NEAR(e.at(0, 1), 0.0, 1e-14);
}

TEST(Expm, NilpotentMatrixClosedForm) {
  // exp([[0,1],[0,0]]) = [[1,1],[0,1]].
  Matrix a{2, 2};
  a.at(0, 1) = 1.0;
  const Matrix e = matrixExponential(a);
  EXPECT_NEAR(e.at(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(e.at(0, 1), 1.0, 1e-14);
  EXPECT_NEAR(e.at(1, 0), 0.0, 1e-14);
  EXPECT_NEAR(e.at(1, 1), 1.0, 1e-14);
}

TEST(Expm, LargeNormTriggersScalingAndStaysAccurate) {
  // Stiff generator-like matrix: exp should map a distribution correctly.
  // 2-state chain with rates a=1e4 (0->1) and b=1 (1->0):
  // p0(t) = b/(a+b) + a/(a+b) * exp(-(a+b) t).
  const double a = 1e4;
  const double b = 1.0;
  Matrix q{2, 2};
  q.at(0, 0) = -a;
  q.at(0, 1) = a;
  q.at(1, 0) = b;
  q.at(1, 1) = -b;
  const double t = 0.01;
  const Matrix e = matrixExponential(q * t);
  const auto p = e.applyLeft({1.0, 0.0});
  const double expected0 = b / (a + b) + a / (a + b) * std::exp(-(a + b) * t);
  EXPECT_NEAR(p[0], expected0, 1e-9);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
}

TEST(Expm, AdditionPropertyForCommutingMatrices) {
  // exp(A)·exp(A) == exp(2A).
  Rng rng{3};
  const Matrix a = randomMatrix(4, rng) * 0.4;  // keep norms ~1 so 1e-8 abs tolerance is meaningful
  const Matrix e1 = matrixExponential(a);
  const Matrix e2 = matrixExponential(a * 2.0);
  const Matrix prod = e1 * e1;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(prod.at(r, c), e2.at(r, c), 1e-8);
}

TEST(Kronecker, ProductShapeAndValues) {
  Matrix a{2, 2};
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b{2, 2};
  b.at(0, 0) = 0;
  b.at(0, 1) = 5;
  b.at(1, 0) = 6;
  b.at(1, 1) = 7;
  const Matrix k = kroneckerProduct(a, b);
  ASSERT_EQ(k.rows(), 4u);
  ASSERT_EQ(k.cols(), 4u);
  EXPECT_DOUBLE_EQ(k.at(0, 1), 5.0);   // a00*b01
  EXPECT_DOUBLE_EQ(k.at(1, 0), 6.0);   // a00*b10
  EXPECT_DOUBLE_EQ(k.at(2, 3), 4.0 * 5.0);  // a11*b01
  EXPECT_DOUBLE_EQ(k.at(3, 2), 4.0 * 6.0);  // a11*b10
}

TEST(Kronecker, SumExponentialFactorization) {
  // exp(A (+) B) == exp(A) (x) exp(B) — the identity that makes the
  // Kronecker MTTF composition in the reliability engine exact.
  Rng rng{4};
  const Matrix a = randomMatrix(2, rng) * 0.4;
  const Matrix b = randomMatrix(3, rng) * 0.4;
  const Matrix lhs = matrixExponential(kroneckerSum(a, b));
  const Matrix rhs = kroneckerProduct(matrixExponential(a), matrixExponential(b));
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c) EXPECT_NEAR(lhs.at(r, c), rhs.at(r, c), 1e-9);
}

TEST(Matrix, ShapeMismatchThrows) {
  EXPECT_THROW(Matrix(2, 2) += Matrix(3, 3), std::invalid_argument);
  EXPECT_THROW(Matrix(2, 3) * Matrix(2, 3), std::invalid_argument);
  EXPECT_THROW(Matrix(2, 3).apply({1.0}), std::invalid_argument);
  EXPECT_THROW(LuDecomposition{Matrix(2, 3)}, std::invalid_argument);
}

}  // namespace
}  // namespace nlft::util
