// Decomposition quality metrics (Section III-B of the paper):
//   error(X, X̃) = ||X̃ - X||_F / ||X||_F,  accuracy = 1 - error (the "fit").

#ifndef TPCP_TENSOR_NORMS_H_
#define TPCP_TENSOR_NORMS_H_

#include "tensor/kruskal.h"
#include "tensor/sparse_tensor.h"

namespace tpcp {

/// <X, X̃> without materializing X̃, via one MTTKRP.
double InnerProduct(const DenseTensor& x, const KruskalTensor& k);
double InnerProduct(const SparseTensor& x, const KruskalTensor& k);

/// ||X̃ - X||_F computed from norms and the inner product (no full
/// reconstruction): sqrt(||X||² - 2<X,X̃> + ||X̃||²).
double ResidualNorm(const DenseTensor& x, const KruskalTensor& k);
double ResidualNorm(const SparseTensor& x, const KruskalTensor& k);

/// accuracy(X, X̃) = 1 - ||X̃ - X|| / ||X||. Reads X once.
double Fit(const DenseTensor& x, const KruskalTensor& k);
double Fit(const SparseTensor& x, const KruskalTensor& k);

/// The fit from its parts: x_sq = ||X||², inner = <X, X̃>, k_sq = ||X̃||².
/// 1.0 for a zero X; a residual that cancels to <= 0 reports 1.0.
double FitFromParts(double x_sq, double inner, double k_sq);

}  // namespace tpcp

#endif  // TPCP_TENSOR_NORMS_H_
