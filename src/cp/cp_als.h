// In-memory CP-ALS (alternating least squares) — the standard PARAFAC
// algorithm (Section III-B). Used directly as the Phase-1 per-block
// decomposer and as the in-memory reference baseline.

#ifndef TPCP_CP_CP_ALS_H_
#define TPCP_CP_CP_ALS_H_

#include <vector>

#include "cp/init.h"
#include "linalg/kernels.h"
#include "tensor/kruskal.h"
#include "tensor/norms.h"

namespace tpcp {

/// CP-ALS configuration.
struct CpAlsOptions {
  int64_t rank = 10;
  int max_iterations = 50;
  /// Stop when the per-iteration fit improvement drops below this.
  double fit_tolerance = 1e-4;
  /// Relative L2 (ridge) regularization of each factor solve: the normal
  /// matrix becomes S + ridge * (trace(S)/F) * I. Keeps factors bounded on
  /// under-determined blocks (F larger than the block content); 0 disables.
  double ridge = 0.0;
  InitMethod init = InitMethod::kRandom;
  uint64_t seed = 1;
};

/// Per-run diagnostics.
struct CpAlsReport {
  int iterations = 0;
  double final_fit = 0.0;
  bool converged = false;
  std::vector<double> fit_trace;
};

/// Runs CP-ALS on a dense tensor.
KruskalTensor CpAls(const DenseTensor& tensor, const CpAlsOptions& options,
                    CpAlsReport* report = nullptr);

/// Runs CP-ALS on the non-zeros of a CSF tensor. The sweep replays the
/// dense kernels' accumulation order (tensor/mttkrp.h), so factors, lambda
/// and fit trace are bit-identical to CpAls on the densified tensor.
KruskalTensor CpAls(const CsfTensor& tensor, const CpAlsOptions& options,
                    CpAlsReport* report = nullptr);

/// Runs CP-ALS on a sparse tensor: CpAls(CsfTensor::FromSparse(tensor)).
KruskalTensor CpAls(const SparseTensor& tensor, const CpAlsOptions& options,
                    CpAlsReport* report = nullptr);

/// CP-ALS with an explicit kernel variant (linalg/kernels.h) for its
/// MTTKRPs — the hook the scalar/SIMD bit-identity tests use. CpAls
/// dispatches kSimd.
KruskalTensor CpAlsVariant(const DenseTensor& tensor,
                           const CpAlsOptions& options, KernelVariant variant,
                           CpAlsReport* report = nullptr);
KruskalTensor CpAlsVariant(const CsfTensor& tensor,
                           const CpAlsOptions& options, KernelVariant variant,
                           CpAlsReport* report = nullptr);

/// One ALS factor update for `mode` given the MTTKRP result: solves
/// A = M (S + ridge * (trace(S)/F) * I)^{-1} with S = ⊛_{k≠mode} Gram_k.
/// Exposed for reuse by the block engines. grams[k] must equal
/// Gram(factors[k]) for all k; grams[mode] is ignored.
Matrix AlsFactorUpdate(const Matrix& mttkrp, const std::vector<Matrix>& grams,
                       int mode, double ridge = 0.0);

/// Adds ridge * (trace(S)/F) to S's diagonal in place (no-op for ridge=0).
void ApplyRidge(Matrix* s, double ridge);

}  // namespace tpcp

#endif  // TPCP_CP_CP_ALS_H_
