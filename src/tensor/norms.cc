#include "tensor/norms.h"

#include <cmath>

#include "tensor/mttkrp.h"

namespace tpcp {
namespace {

double InnerFromMttkrp(const Matrix& m, const KruskalTensor& k, int mode) {
  const Matrix& a = k.factor(mode);
  double acc = 0.0;
  for (int64_t c = 0; c < a.cols(); ++c) {
    double col = 0.0;
    for (int64_t r = 0; r < a.rows(); ++r) col += m(r, c) * a(r, c);
    acc += k.lambda()[static_cast<size_t>(c)] * col;
  }
  return acc;
}

// A residual that cancels to <= 0 in floating point is an exact fit.
double ResidualFromParts(double x_sq, double inner, double k_sq) {
  const double resid_sq = x_sq - 2.0 * inner + k_sq;
  return std::sqrt(resid_sq > 0.0 ? resid_sq : 0.0);
}

double KruskalSquaredNorm(const KruskalTensor& k) {
  const double norm = k.Norm();
  return norm * norm;
}

}  // namespace

double InnerProduct(const DenseTensor& x, const KruskalTensor& k) {
  return InnerFromMttkrp(Mttkrp(x, k.factors(), 0), k, 0);
}

double InnerProduct(const SparseTensor& x, const KruskalTensor& k) {
  return InnerFromMttkrp(Mttkrp(x, k.factors(), 0), k, 0);
}

double ResidualNorm(const DenseTensor& x, const KruskalTensor& k) {
  return ResidualFromParts(x.SquaredNorm(), InnerProduct(x, k),
                           KruskalSquaredNorm(k));
}

double ResidualNorm(const SparseTensor& x, const KruskalTensor& k) {
  return ResidualFromParts(x.SquaredNorm(), InnerProduct(x, k),
                           KruskalSquaredNorm(k));
}

double FitFromParts(double x_sq, double inner, double k_sq) {
  if (x_sq == 0.0) return 1.0;
  return 1.0 - ResidualFromParts(x_sq, inner, k_sq) / std::sqrt(x_sq);
}

double Fit(const DenseTensor& x, const KruskalTensor& k) {
  return FitFromParts(x.SquaredNorm(), InnerProduct(x, k),
                      KruskalSquaredNorm(k));
}

double Fit(const SparseTensor& x, const KruskalTensor& k) {
  return FitFromParts(x.SquaredNorm(), InnerProduct(x, k),
                      KruskalSquaredNorm(k));
}

}  // namespace tpcp
