#include "tensor/mttkrp.h"

#include <algorithm>

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

// The per-non-zero body of the generic COO path: seed the product
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

// The dense two-step contraction (MttkrpVariant on a DenseTensor)
// replayed over a CSF tensor's non-zeros. The fiber tree is visited in
// lexicographic order, which is row-major order, so every output element
// receives the same updates in the same order as in the dense kernel; the
// cells CSF leaves out are zeros, which the dense kernels skip anyway.
class CsfTwoStep {
 public:
  CsfTwoStep(const CsfTensor& tensor, const std::vector<Matrix>& factors,
             int mode, KernelVariant variant, Matrix* out)
      : tensor_(tensor),
        factors_(factors),
        mode_(mode),
        last_(tensor.num_modes() - 1),
        f_(factors[0].cols()),
        variant_(variant),
        out_(out),
        right_(RowKhatriRao(factors, mode + 1, tensor.num_modes())),
        ones_(static_cast<size_t>(f_), 1.0),
        prefix_(static_cast<size_t>(tensor.num_modes() * f_)),
        partial_(static_cast<size_t>(f_)) {}

  void Run() { Prefix(0, 0, tensor_.num_nodes(0), ones_.data()); }

 private:
  // Nodes [begin, end) of `level` <= `mode`; kr is the KR_left row of
  // their common index prefix (all ones at level 0). Each deeper prefix
  // extends it as RowKhatriRao does: the first factor's row itself, then
  // one product per further mode. At the last mode the nodes are one
  // fiber's leaves, each a TN-kernel step out(i) += v * kr. Otherwise each
  // node's subtree forms P = X(l, i, :) * KR_right, folded into out(i)
  // with kr as the dense kernel does for every l.
  void Prefix(int level, int64_t begin, int64_t end, const double* kr) {
    const std::vector<int64_t>& idx = tensor_.idx(level);
    if (level == last_) {
      MttkrpLeaves(out_->data(), f_, kr, 0, tensor_.values().data() + begin,
                   idx.data() + begin, end - begin, f_, variant_);
      return;
    }
    const std::vector<int64_t>& ptr = tensor_.ptr(level);
    for (int64_t k = begin; k < end; ++k) {
      const int64_t i = idx[static_cast<size_t>(k)];
      const int64_t child_begin = ptr[static_cast<size_t>(k)];
      const int64_t child_end = ptr[static_cast<size_t>(k) + 1];
      if (level < mode_) {
        const double* row = factors_[static_cast<size_t>(level)].row(i);
        if (level > 0) {
          double* next = prefix_.data() + level * f_;
          for (int64_t c = 0; c < f_; ++c) next[c] = kr[c] * row[c];
          row = next;
        }
        Prefix(level + 1, child_begin, child_end, row);
        continue;
      }
      std::fill(partial_.begin(), partial_.end(), 0.0);
      Suffix(level + 1, child_begin, child_end, 0);
      MttkrpFold(out_->row(i), kr, partial_.data(), f_, variant_);
    }
  }

  // Nodes [begin, end) of `level` > `mode`; r is the KR_right row of their
  // common index suffix so far. At the last level the nodes are one
  // fiber's leaves, NN-kernel steps P += v * KR_right(r), ascending in r.
  void Suffix(int level, int64_t begin, int64_t end, int64_t r) {
    const std::vector<int64_t>& idx = tensor_.idx(level);
    if (level == last_) {
      MttkrpLeaves(partial_.data(), 0, right_.row(r * tensor_.dim(level)),
                   f_, tensor_.values().data() + begin, idx.data() + begin,
                   end - begin, f_, variant_);
      return;
    }
    const std::vector<int64_t>& ptr = tensor_.ptr(level);
    for (int64_t k = begin; k < end; ++k) {
      Suffix(level + 1, ptr[static_cast<size_t>(k)],
             ptr[static_cast<size_t>(k) + 1],
             r * tensor_.dim(level) + idx[static_cast<size_t>(k)]);
    }
  }

  const CsfTensor& tensor_;
  const std::vector<Matrix>& factors_;
  const int mode_;
  const int last_;
  const int64_t f_;
  const KernelVariant variant_;
  Matrix* out_;
  const Matrix right_;
  const std::vector<double> ones_;
  std::vector<double> prefix_;  // level l: the KR_left row through l
  std::vector<double> partial_;
};

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
  CheckFactorShapes(tensor.shape(), factors, mode);
  Matrix out(tensor.dim(mode), factors[0].cols());
  CsfTwoStep(tensor, factors, mode, variant, &out).Run();
  return out;
}

Matrix MttkrpPartial3(const CsfTensor& tensor, const Matrix& last_factor,
                      KernelVariant variant) {
  TPCP_CHECK_EQ(tensor.num_modes(), 3);
  TPCP_CHECK_EQ(last_factor.rows(), tensor.dim(2));
  const int64_t f = last_factor.cols();
  const int64_t dim1 = tensor.dim(1);
  Matrix partial(tensor.dim(0) * dim1, f);
  const std::vector<int64_t>& idx0 = tensor.idx(0);
  const std::vector<int64_t>& idx1 = tensor.idx(1);
  const std::vector<int64_t>& idx2 = tensor.idx(2);
  const std::vector<int64_t>& ptr0 = tensor.ptr(0);
  const std::vector<int64_t>& ptr1 = tensor.ptr(1);
  const std::vector<double>& values = tensor.values();
  // Row i*J + j of T gathers the (i, j) fiber's leaves in ascending k —
  // the dense NN kernel's order for that row.
  for (int64_t a = 0; a < tensor.num_nodes(0); ++a) {
    const int64_t i = idx0[static_cast<size_t>(a)];
    for (int64_t b = ptr0[static_cast<size_t>(a)];
         b < ptr0[static_cast<size_t>(a) + 1]; ++b) {
      const int64_t first = ptr1[static_cast<size_t>(b)];
      MttkrpLeaves(partial.row(i * dim1 + idx1[static_cast<size_t>(b)]), 0,
                   last_factor.data(), f, values.data() + first,
                   idx2.data() + first,
                   ptr1[static_cast<size_t>(b) + 1] - first, f, variant);
    }
  }
  return partial;
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
