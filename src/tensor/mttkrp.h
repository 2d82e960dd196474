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
// CSF tensors replay that contraction over their non-zeros: the fiber
// tree is walked in lexicographic (row-major) order, each leaf is one
// kernel step — P += v * KR_right(r) into its level-`mode` node's
// partial, or out(i) += v * KR_left(l) at the last mode — and each node's
// partial is folded with KR_left(l) as in the dense loop. Every output
// element therefore sees the dense kernel's updates in the dense kernel's
// order, minus the zero cells the dense kernels skip: CSF results are
// bit-identical to dense ones over the same cells, on every kernel variant.
//
// COO walks its non-zeros and accumulates one length-F row product per
// entry (its own rounding order, not the dense one).
//
// Zero-skip contract, every layout: a zero tensor cell contributes
// nothing, even against a non-finite factor entry (the GEMM kernels and
// the CSF leaf step skip zero multipliers, the fold skips zero partial
// entries).

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

/// Sparse MTTKRP over the compressed fiber layout: the dense two-step
/// contraction replayed over the non-zeros, bit-identical to Mttkrp on the
/// densified tensor.
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

/// The same partial from a CSF tensor: each (i, j) fiber's leaves add
/// v * C(k, :) to row i*J + j in ascending k, bit-identical to the dense
/// form over the same cells (rows of absent fibers stay zero).
Matrix MttkrpPartial3(const CsfTensor& tensor, const Matrix& last_factor,
                      KernelVariant variant);

/// Mode-0 or mode-1 MTTKRP of a 3-way tensor from its partial T: folds T
/// with factors[1] (mode 0) or factors[0] (mode 1). The mode-1 result is
/// bit-identical to MttkrpVariant's.
Matrix MttkrpFromPartial3(const Matrix& partial,
                          const std::vector<Matrix>& factors, int mode,
                          KernelVariant variant);

}  // namespace tpcp

#endif  // TPCP_TENSOR_MTTKRP_H_
