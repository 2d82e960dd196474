// Matricized-Tensor Times Khatri-Rao Product: the computational core of
// CP-ALS. M = X_(n) * KhatriRaoSkip(factors, n), computed without
// materializing the unfolding or the full Khatri-Rao product.
//
// Dense tensors contract in two GEMM-shaped steps over their row-major
// storage, viewed as left x mid x right (the modes before, at and after
// n): small Khatri-Rao partials KR_left and KR_right are built from the
// factors, each left slab X(l, :, :) is multiplied by KR_right into a
// mid x F partial, and the partial is folded into M with row l of
// KR_left. The last mode is a single X(left x mid)^T * KR_left. Peak
// scratch is the two Khatri-Rao partials plus one mid x F matrix — never
// a tensor-sized buffer.
//
// Sparse layouts (COO, CSF) walk their non-zeros and accumulate one
// length-F row product per entry.
//
// Zero-skip contract, every layout: a zero tensor cell contributes
// nothing, even against a non-finite factor entry (the GEMM kernels skip
// zero multipliers, the fold skips zero partial entries).

#ifndef TPCP_TENSOR_MTTKRP_H_
#define TPCP_TENSOR_MTTKRP_H_

#include <vector>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "tensor/csf_tensor.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"

namespace tpcp {

/// Dense MTTKRP along `mode` (the two-step contraction above). factors[k]
/// must be dim(k) x F for every k. Returns a dim(mode) x F matrix.
Matrix Mttkrp(const DenseTensor& tensor, const std::vector<Matrix>& factors,
              int mode);

/// Sparse MTTKRP along `mode` (iterates non-zeros).
Matrix Mttkrp(const SparseTensor& tensor, const std::vector<Matrix>& factors,
              int mode);

/// Sparse MTTKRP over the compressed fiber layout, streaming fibers in
/// lexicographic order. Bit-identical to the COO kernel over the same
/// non-zeros sorted lexicographically (per-entry products accumulate in
/// ascending mode order either way).
Matrix Mttkrp(const CsfTensor& tensor, const std::vector<Matrix>& factors,
              int mode);

/// Explicit-kernel-variant forms (linalg/kernels.h) — the hooks the
/// bit-identity tests and micro-kernel bench use to compare scalar against
/// SIMD inner loops. The plain overloads above dispatch kSimd.
Matrix MttkrpVariant(const DenseTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant);
Matrix MttkrpVariant(const SparseTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant);
Matrix MttkrpVariant(const CsfTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant);

/// The shared partial of a 3-way dense ALS sweep: T = X x_3 C, an
/// (I*J) x F matrix with row i*J + j equal to sum_k X(i, j, k) C(k, :).
/// C is untouched by the mode-0 and mode-1 updates, so one T serves both
/// of their MTTKRPs (the first level of a dimension tree).
Matrix MttkrpPartial3(const DenseTensor& tensor, const Matrix& last_factor,
                      KernelVariant variant);

/// Mode-0 or mode-1 MTTKRP of a 3-way tensor from its partial T: folds T
/// with factors[1] (mode 0) or factors[0] (mode 1). The mode-1 result is
/// bit-identical to MttkrpVariant's.
Matrix MttkrpFromPartial3(const Matrix& partial,
                          const std::vector<Matrix>& factors, int mode,
                          KernelVariant variant);

}  // namespace tpcp

#endif  // TPCP_TENSOR_MTTKRP_H_
