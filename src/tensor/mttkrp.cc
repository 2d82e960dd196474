#include "tensor/mttkrp.h"

#include "tensor/khatri_rao.h"

namespace tpcp {
namespace {

void CheckFactorShapes(const Shape& shape, const std::vector<Matrix>& factors,
                       int mode) {
  TPCP_CHECK_EQ(static_cast<int>(factors.size()), shape.num_modes());
  TPCP_CHECK(mode >= 0 && mode < shape.num_modes());
  const int64_t f = factors[0].cols();
  for (int k = 0; k < shape.num_modes(); ++k) {
    TPCP_CHECK_EQ(factors[static_cast<size_t>(k)].rows(), shape.dim(k));
    TPCP_CHECK_EQ(factors[static_cast<size_t>(k)].cols(), f);
  }
}

// Row-wise Khatri-Rao product of factors[begin, end): one row per index
// tuple of those modes in row-major order (the last mode fastest), so it
// pairs with a contiguous run of the tensor's storage. An empty range is
// the single all-ones row.
Matrix RowKhatriRao(const std::vector<Matrix>& factors, int begin, int end) {
  Matrix kr(1, factors[0].cols(), 1.0);
  for (int k = begin; k < end; ++k) {
    kr = k == begin ? factors[static_cast<size_t>(k)]
                    : KhatriRao(kr, factors[static_cast<size_t>(k)]);
  }
  return kr;
}

// The per-non-zero body shared by every sparse layout: seed the product
// buffer fused with the first skipped-mode factor (prod = v * row_first —
// identical rounding to seed-then-multiply, one pass cheaper), multiply
// the remaining skipped modes in ascending-k order, accumulate into the
// output row. All three inner loops run through the variant-selectable
// kernels (linalg/kernels.h).
inline void AccumulateEntry(const Index& index, double v,
                            const std::vector<Matrix>& factors, int mode,
                            int first, int n, int64_t f, double* prod,
                            Matrix* out, KernelVariant variant) {
  if (first < 0) {
    for (int64_t c = 0; c < f; ++c) prod[c] = v;
  } else {
    const double* first_row =
        factors[static_cast<size_t>(first)].row(
            index[static_cast<size_t>(first)]);
    MttkrpSeed(prod, v, first_row, f, variant);
  }
  for (int k = first + 1; k < n; ++k) {
    if (k == mode) continue;
    const double* row =
        factors[static_cast<size_t>(k)].row(index[static_cast<size_t>(k)]);
    HadamardKernel(prod, row, f, variant);
  }
  MttkrpAccum(out->row(index[static_cast<size_t>(mode)]), prod, f, variant);
}

}  // namespace

Matrix MttkrpVariant(const DenseTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant) {
  const Shape& shape = tensor.shape();
  CheckFactorShapes(shape, factors, mode);
  const int n = shape.num_modes();
  const int64_t f = factors[0].cols();
  const int64_t mid = shape.dim(mode);
  Matrix out(mid, f);

  // Row-major storage views X as left x mid x right, where left/right
  // flatten the modes before/after `mode`.
  const Matrix left = RowKhatriRao(factors, 0, mode);
  if (mode == n - 1) {
    // Nothing to the right: one GEMM, out = X(left x mid)^T * KR_left.
    MicroKernelTN(tensor.data(), mid, left.data(), f, out.data(), f, mid, f,
                  left.rows(), 1.0, variant, KernelArith::kExact);
    return out;
  }
  const Matrix right = RowKhatriRao(factors, mode + 1, n);
  const int64_t slab = mid * right.rows();
  Matrix partial(mid, f);
  for (int64_t l = 0; l < left.rows(); ++l) {
    // P = X(l, :, :) * KR_right, then out(i, :) += KR_left(l, :) .* P(i, :).
    partial.Fill(0.0);
    MicroKernelNN(tensor.data() + l * slab, right.rows(), right.data(), f,
                  partial.data(), f, mid, f, right.rows(), variant,
                  KernelArith::kExact);
    for (int64_t i = 0; i < mid; ++i) {
      MttkrpFold(out.row(i), left.row(l), partial.row(i), f, variant);
    }
  }
  return out;
}

Matrix MttkrpPartial3(const DenseTensor& tensor, const Matrix& last_factor,
                      KernelVariant variant) {
  const Shape& shape = tensor.shape();
  TPCP_CHECK_EQ(shape.num_modes(), 3);
  TPCP_CHECK_EQ(last_factor.rows(), shape.dim(2));
  const int64_t f = last_factor.cols();
  Matrix partial(shape.dim(0) * shape.dim(1), f);
  MicroKernelNN(tensor.data(), shape.dim(2), last_factor.data(), f,
                partial.data(), f, partial.rows(), f, shape.dim(2), variant,
                KernelArith::kExact);
  return partial;
}

Matrix MttkrpFromPartial3(const Matrix& partial,
                          const std::vector<Matrix>& factors, int mode,
                          KernelVariant variant) {
  TPCP_CHECK_EQ(static_cast<int>(factors.size()), 3);
  TPCP_CHECK(mode == 0 || mode == 1);
  const Matrix& a = factors[0];
  const Matrix& b = factors[1];
  const int64_t f = a.cols();
  TPCP_CHECK_EQ(partial.rows(), a.rows() * b.rows());
  TPCP_CHECK_EQ(partial.cols(), f);
  Matrix out(mode == 0 ? a.rows() : b.rows(), f);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      const double* t = partial.row(i * b.rows() + j);
      if (mode == 0) {
        MttkrpFold(out.row(i), b.row(j), t, f, variant);
      } else {
        MttkrpFold(out.row(j), a.row(i), t, f, variant);
      }
    }
  }
  return out;
}

Matrix MttkrpVariant(const SparseTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant) {
  const Shape& shape = tensor.shape();
  CheckFactorShapes(shape, factors, mode);
  const int n = shape.num_modes();
  const int64_t f = factors[0].cols();
  Matrix out(shape.dim(mode), f);

  if (n == 3) {
    // Specialized 3-mode inner loop — the common dataset shape. The two
    // skipped-mode factors are known up front, so each non-zero is a
    // single fused pass with no product buffer at all. The multiply order
    // (v, then the lower-indexed skipped mode, then the higher) matches
    // the generic loop's ascending-k order, keeping results bit-identical.
    const int k1 = mode == 0 ? 1 : 0;
    const int k2 = mode == 2 ? 1 : 2;
    const Matrix& f1 = factors[static_cast<size_t>(k1)];
    const Matrix& f2 = factors[static_cast<size_t>(k2)];
    for (const SparseEntry& e : tensor.entries()) {
      MttkrpRow3(out.row(e.index[static_cast<size_t>(mode)]), e.value,
                 f1.row(e.index[static_cast<size_t>(k1)]),
                 f2.row(e.index[static_cast<size_t>(k2)]), f, variant);
    }
    return out;
  }

  // Generic N-mode fallback.
  std::vector<double> prod(static_cast<size_t>(f));
  const int first = n == 1 ? -1 : (mode == 0 ? 1 : 0);
  for (const SparseEntry& e : tensor.entries()) {
    AccumulateEntry(e.index, e.value, factors, mode, first, n, f,
                    prod.data(), &out, variant);
  }
  return out;
}

Matrix MttkrpVariant(const CsfTensor& tensor,
                     const std::vector<Matrix>& factors, int mode,
                     KernelVariant variant) {
  const Shape& shape = tensor.shape();
  CheckFactorShapes(shape, factors, mode);
  const int n = shape.num_modes();
  const int64_t f = factors[0].cols();
  Matrix out(shape.dim(mode), f);

  if (n == 3) {
    // Fiber-streaming 3-mode path: same per-entry expression as the COO
    // specialization, entries visited in lexicographic order.
    const int k1 = mode == 0 ? 1 : 0;
    const int k2 = mode == 2 ? 1 : 2;
    const Matrix& f1 = factors[static_cast<size_t>(k1)];
    const Matrix& f2 = factors[static_cast<size_t>(k2)];
    tensor.ForEachEntry([&](const Index& index, double v) {
      MttkrpRow3(out.row(index[static_cast<size_t>(mode)]), v,
                 f1.row(index[static_cast<size_t>(k1)]),
                 f2.row(index[static_cast<size_t>(k2)]), f, variant);
    });
    return out;
  }

  std::vector<double> prod(static_cast<size_t>(f));
  const int first = n == 1 ? -1 : (mode == 0 ? 1 : 0);
  tensor.ForEachEntry([&](const Index& index, double v) {
    AccumulateEntry(index, v, factors, mode, first, n, f, prod.data(), &out,
                    variant);
  });
  return out;
}

Matrix Mttkrp(const DenseTensor& tensor, const std::vector<Matrix>& factors,
              int mode) {
  return MttkrpVariant(tensor, factors, mode, KernelVariant::kSimd);
}

Matrix Mttkrp(const SparseTensor& tensor, const std::vector<Matrix>& factors,
              int mode) {
  return MttkrpVariant(tensor, factors, mode, KernelVariant::kSimd);
}

Matrix Mttkrp(const CsfTensor& tensor, const std::vector<Matrix>& factors,
              int mode) {
  return MttkrpVariant(tensor, factors, mode, KernelVariant::kSimd);
}

}  // namespace tpcp
