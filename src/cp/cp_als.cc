#include "cp/cp_als.h"

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/elementwise.h"
#include "tensor/mttkrp.h"

namespace tpcp {
namespace {

// The MTTKRP of `mode` within one ALS sweep (modes in ascending order).
// A 3-way tensor contracts its last mode once per sweep, at mode 0, into
// `partial`; modes 0 and 1 fold that partial, mode 2 runs the plain
// kernel. Other tensors run the plain kernel for every mode. Dense and
// CSF overloads of each kernel are bit-identical, so the sweep is too.
template <typename TensorT>
Matrix SweepMttkrp(const TensorT& tensor, const std::vector<Matrix>& factors,
                   int mode, KernelVariant variant, Matrix* partial) {
  if (tensor.num_modes() != 3 || mode == 2) {
    return MttkrpVariant(tensor, factors, mode, variant);
  }
  if (mode == 0) *partial = MttkrpPartial3(tensor, factors[2], variant);
  return MttkrpFromPartial3(*partial, factors, mode, variant);
}

// Sum of the Hadamard product of all Grams: ||[[A_0, ..., A_{N-1}]]||².
double KruskalSquaredNormFromGrams(const std::vector<Matrix>& grams) {
  Matrix acc = grams[0];
  for (size_t k = 1; k < grams.size(); ++k) HadamardInPlace(&acc, grams[k]);
  double sum = 0.0;
  for (int64_t i = 0; i < acc.size(); ++i) sum += acc.data()[i];
  return sum;
}

// Shared ALS loop. The fit needs no extra pass over the tensor: with
// Y = [[A_0, ..., A_{N-1}]] after the sweep, <X, Y> = <M_last, A_last>
// (the last mode's MTTKRP already pairs X with every other updated
// factor) and ||Y||² comes from the Grams the loop keeps.
template <typename TensorT>
KruskalTensor CpAlsImpl(const TensorT& tensor, const CpAlsOptions& options,
                        KernelVariant variant, CpAlsReport* report) {
  TPCP_CHECK_GE(options.rank, 1);
  const int n = tensor.num_modes();
  std::vector<Matrix> factors =
      InitFactors(tensor, options.rank, options.init, options.seed);

  std::vector<Matrix> grams;
  grams.reserve(static_cast<size_t>(n));
  for (const Matrix& f : factors) grams.push_back(Gram(f));

  CpAlsReport local_report;
  CpAlsReport* rep = report != nullptr ? report : &local_report;
  *rep = CpAlsReport();

  const double x_sq = tensor.SquaredNorm();
  Matrix partial;
  double prev_fit = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double inner = 0.0;
    for (int mode = 0; mode < n; ++mode) {
      const Matrix m = SweepMttkrp(tensor, factors, mode, variant, &partial);
      Matrix& a = factors[static_cast<size_t>(mode)];
      a = AlsFactorUpdate(m, grams, mode, options.ridge);
      grams[static_cast<size_t>(mode)] = Gram(a);
      if (mode == n - 1) {
        for (int64_t i = 0; i < m.size(); ++i) {
          inner += m.data()[i] * a.data()[i];
        }
      }
    }
    const double fit =
        FitFromParts(x_sq, inner, KruskalSquaredNormFromGrams(grams));
    rep->fit_trace.push_back(fit);
    rep->iterations = iter + 1;
    if (iter > 0 && fit - prev_fit < options.fit_tolerance) {
      rep->converged = true;
      prev_fit = fit;
      break;
    }
    prev_fit = fit;
  }
  rep->final_fit = prev_fit;

  KruskalTensor result(std::move(factors));
  result.Normalize();
  return result;
}

}  // namespace

void ApplyRidge(Matrix* s, double ridge) {
  if (ridge <= 0.0) return;
  const int64_t f = s->rows();
  double trace = 0.0;
  for (int64_t i = 0; i < f; ++i) trace += (*s)(i, i);
  const double lambda = ridge * trace / static_cast<double>(f);
  for (int64_t i = 0; i < f; ++i) (*s)(i, i) += lambda;
}

Matrix AlsFactorUpdate(const Matrix& mttkrp, const std::vector<Matrix>& grams,
                       int mode, double ridge) {
  const int64_t f = mttkrp.cols();
  Matrix s(f, f, 1.0);
  for (int k = 0; k < static_cast<int>(grams.size()); ++k) {
    if (k == mode) continue;
    HadamardInPlace(&s, grams[static_cast<size_t>(k)]);
  }
  ApplyRidge(&s, ridge);
  Matrix a;
  SolveGramSystem(mttkrp, s, &a);
  return a;
}

KruskalTensor CpAls(const DenseTensor& tensor, const CpAlsOptions& options,
                    CpAlsReport* report) {
  return CpAlsImpl(tensor, options, KernelVariant::kSimd, report);
}

KruskalTensor CpAls(const CsfTensor& tensor, const CpAlsOptions& options,
                    CpAlsReport* report) {
  return CpAlsImpl(tensor, options, KernelVariant::kSimd, report);
}

KruskalTensor CpAls(const SparseTensor& tensor, const CpAlsOptions& options,
                    CpAlsReport* report) {
  return CpAls(CsfTensor::FromSparse(tensor), options, report);
}

KruskalTensor CpAlsVariant(const DenseTensor& tensor,
                           const CpAlsOptions& options, KernelVariant variant,
                           CpAlsReport* report) {
  return CpAlsImpl(tensor, options, variant, report);
}

KruskalTensor CpAlsVariant(const CsfTensor& tensor,
                           const CpAlsOptions& options, KernelVariant variant,
                           CpAlsReport* report) {
  return CpAlsImpl(tensor, options, variant, report);
}

}  // namespace tpcp
