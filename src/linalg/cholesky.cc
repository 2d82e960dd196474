#include "linalg/cholesky.h"

#include <cmath>

#include "linalg/blas.h"
#include "linalg/pinv.h"

namespace tpcp {
namespace {

// Solves y L L^T = b for each row b of `rows`, in place: the loops of
// CholeskySolveInPlace with the right-hand side's row and column indices
// swapped. Every element goes through the same operations in the same
// order, so the result is bit-identical to solving the transpose, without
// the two copies. The row loop stays inside the i loop, as there, so the
// rows' independent dependency chains overlap.
void CholeskySolveRowsInPlace(const Matrix& l, Matrix* rows) {
  const int64_t n = l.rows();
  const int64_t m = rows->rows();
  // Forward substitution: y L = b.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t r = 0; r < m; ++r) {
      double* y = rows->row(r);
      double acc = y[i];
      for (int64_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
      y[i] = acc / l(i, i);
    }
  }
  // Back substitution: x L^T = y.
  for (int64_t i = n - 1; i >= 0; --i) {
    for (int64_t r = 0; r < m; ++r) {
      double* y = rows->row(r);
      double acc = y[i];
      for (int64_t k = i + 1; k < n; ++k) acc -= l(k, i) * y[k];
      y[i] = acc / l(i, i);
    }
  }
}

}  // namespace

Status CholeskyFactor(Matrix* a) {
  if (a->rows() != a->cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const int64_t n = a->rows();
  Matrix& m = *a;
  for (int64_t j = 0; j < n; ++j) {
    double diag = m(j, j);
    for (int64_t k = 0; k < j; ++k) diag -= m(j, k) * m(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::FailedPrecondition(
          "matrix is not positive definite (pivot " + std::to_string(j) +
          " = " + std::to_string(diag) + ")");
    }
    const double ljj = std::sqrt(diag);
    m(j, j) = ljj;
    for (int64_t i = j + 1; i < n; ++i) {
      double acc = m(i, j);
      for (int64_t k = 0; k < j; ++k) acc -= m(i, k) * m(j, k);
      m(i, j) = acc / ljj;
    }
    for (int64_t c = j + 1; c < n; ++c) m(j, c) = 0.0;
  }
  return Status::OK();
}

void CholeskySolveInPlace(const Matrix& l, Matrix* b) {
  const int64_t n = l.rows();
  TPCP_CHECK_EQ(l.cols(), n);
  TPCP_CHECK_EQ(b->rows(), n);
  const int64_t nrhs = b->cols();
  // Forward substitution: L y = b.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < nrhs; ++c) {
      double acc = (*b)(i, c);
      for (int64_t k = 0; k < i; ++k) acc -= l(i, k) * (*b)(k, c);
      (*b)(i, c) = acc / l(i, i);
    }
  }
  // Back substitution: L^T x = y.
  for (int64_t i = n - 1; i >= 0; --i) {
    for (int64_t c = 0; c < nrhs; ++c) {
      double acc = (*b)(i, c);
      for (int64_t k = i + 1; k < n; ++k) acc -= l(k, i) * (*b)(k, c);
      (*b)(i, c) = acc / l(i, i);
    }
  }
}

double SolveGramSystem(const Matrix& t, const Matrix& s, Matrix* x) {
  TPCP_CHECK_EQ(s.rows(), s.cols());
  TPCP_CHECK_EQ(t.cols(), s.rows());

  // Fast path: S positive definite — solve X S = T row by row via
  // Cholesky (S is symmetric).
  Matrix factor = s;
  if (CholeskyFactor(&factor).ok()) {
    *x = t;
    CholeskySolveRowsInPlace(factor, x);
    return 0.0;
  }

  // Singular / indefinite-from-rounding path: X = T S^+. Null-space
  // components become 0 (the paper's convention for empty blocks) instead
  // of blowing up, so repeated updates stay bounded.
  *x = MatMul(t, PseudoInverse(s));
  return -1.0;
}

}  // namespace tpcp
