#include "tensor/mttkrp.h"

#include <gtest/gtest.h>

#include <limits>

#include "linalg/blas.h"
#include "tensor/khatri_rao.h"
#include "tensor/unfold.h"
#include "util/random.h"

namespace tpcp {
namespace {

DenseTensor RandomTensor(const Shape& shape, uint64_t seed,
                         double zero_fraction = 0.0) {
  Rng rng(seed);
  DenseTensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) =
        rng.NextDouble() < zero_fraction ? 0.0 : rng.NextGaussian();
  }
  return t;
}

std::vector<Matrix> RandomFactorsFor(const Shape& shape, int64_t rank,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (int m = 0; m < shape.num_modes(); ++m) {
    Matrix f(shape.dim(m), rank);
    for (int64_t i = 0; i < f.size(); ++i) f.data()[i] = rng.NextGaussian();
    factors.push_back(std::move(f));
  }
  return factors;
}

// Reference: M = X_(n) * KhatriRaoSkip(factors, n), fully materialized.
Matrix ReferenceMttkrp(const DenseTensor& t, const std::vector<Matrix>& f,
                       int mode) {
  return MatMul(Unfold(t, mode), KhatriRaoSkip(f, mode));
}

TEST(MttkrpTest, MatchesUnfoldKhatriRaoReference) {
  const Shape shape({4, 5, 3});
  const DenseTensor t = RandomTensor(shape, 1);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 4, 2);
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(t, f, mode),
                                    ReferenceMttkrp(t, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, FourModeReference) {
  const Shape shape({3, 2, 4, 2});
  const DenseTensor t = RandomTensor(shape, 3);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 3, 4);
  for (int mode = 0; mode < 4; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(t, f, mode),
                                    ReferenceMttkrp(t, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, SparseAgreesWithDense) {
  const Shape shape({6, 5, 4});
  const DenseTensor dense = RandomTensor(shape, 5, /*zero_fraction=*/0.8);
  const SparseTensor sparse = SparseTensor::FromDense(dense);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 5, 6);
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(sparse, f, mode),
                                    Mttkrp(dense, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, SparseFourModeTakesGenericPath) {
  // 3 modes run the specialized fused inner loop; anything else must hit
  // the generic N-mode fallback and agree with the dense kernel.
  const Shape shape({4, 3, 3, 2});
  const DenseTensor dense = RandomTensor(shape, 9, /*zero_fraction=*/0.7);
  const SparseTensor sparse = SparseTensor::FromDense(dense);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 9, 5);
  for (int mode = 0; mode < 4; ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(sparse, f, mode),
                                    Mttkrp(dense, f, mode), 1e-10))
        << "mode=" << mode;
  }
}

TEST(MttkrpTest, CsfAgreesWithDenseBitwiseThreeMode) {
  // CSF replays the dense two-step contraction over the non-zeros in the
  // dense kernel's accumulation order, so it must match bit-for-bit, not
  // just within tolerance — the plain kernel and the shared partial both.
  const Shape shape({6, 5, 4});
  const DenseTensor dense = RandomTensor(shape, 15, /*zero_fraction=*/0.8);
  const SparseTensor coo = SparseTensor::FromDense(dense);
  const CsfTensor csf = CsfTensor::FromSparse(coo);
  EXPECT_EQ(csf.nnz(), coo.nnz());
  const std::vector<Matrix> f = RandomFactorsFor(shape, 5, 16);
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix from_dense = Mttkrp(dense, f, mode);
    const Matrix from_csf = Mttkrp(csf, f, mode);
    ASSERT_EQ(from_dense.rows(), from_csf.rows());
    for (int64_t i = 0; i < from_dense.size(); ++i) {
      ASSERT_EQ(from_dense.data()[i], from_csf.data()[i])
          << "mode=" << mode << " i=" << i;
    }
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(coo, f, mode), from_csf, 1e-10))
        << "mode=" << mode;
  }
  const Matrix t_dense = MttkrpPartial3(dense, f[2], KernelVariant::kSimd);
  const Matrix t_csf = MttkrpPartial3(csf, f[2], KernelVariant::kSimd);
  ASSERT_EQ(t_dense.rows(), t_csf.rows());
  for (int64_t i = 0; i < t_dense.size(); ++i) {
    ASSERT_EQ(t_dense.data()[i], t_csf.data()[i]) << "partial i=" << i;
  }
}

TEST(MttkrpTest, CsfFourModeAgreesWithDenseBitwise) {
  // Four modes: the left and right Khatri-Rao partials both have several
  // levels, so the prefix and suffix walks are exercised in full.
  const Shape shape({4, 3, 3, 2});
  const DenseTensor dense = RandomTensor(shape, 17, /*zero_fraction=*/0.7);
  const SparseTensor coo = SparseTensor::FromDense(dense);
  const CsfTensor csf = CsfTensor::FromDense(dense);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 6, 18);
  for (int mode = 0; mode < 4; ++mode) {
    const Matrix from_csf = Mttkrp(csf, f, mode);
    EXPECT_TRUE(Matrix::AlmostEqual(from_csf, Mttkrp(coo, f, mode), 1e-10))
        << "mode=" << mode;
    const Matrix from_dense = Mttkrp(dense, f, mode);
    for (int64_t i = 0; i < from_dense.size(); ++i) {
      ASSERT_EQ(from_dense.data()[i], from_csf.data()[i])
          << "mode=" << mode << " i=" << i;
    }
  }
}

TEST(MttkrpTest, CsfRoundTripPreservesEntries) {
  const Shape shape({5, 1, 6, 2, 3});
  const DenseTensor dense = RandomTensor(shape, 19, /*zero_fraction=*/0.85);
  const CsfTensor csf = CsfTensor::FromDense(dense);
  const DenseTensor back = csf.ToDense();
  ASSERT_EQ(back.NumElements(), dense.NumElements());
  for (int64_t i = 0; i < dense.NumElements(); ++i) {
    ASSERT_EQ(back.at_linear(i), dense.at_linear(i)) << "i=" << i;
  }
}

TEST(MttkrpTest, ZeroTensorGivesZero) {
  const Shape shape({3, 3, 3});
  DenseTensor t(shape);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 2, 7);
  const Matrix m = Mttkrp(t, f, 1);
  EXPECT_EQ(m.FrobeniusNorm(), 0.0);
}

TEST(MttkrpTest, RankOneFactorsKnownResult) {
  // With all-ones factors, M(i, 0) = sum of the mode-i slice of X.
  const Shape shape({2, 3, 2});
  const DenseTensor t = RandomTensor(shape, 8);
  std::vector<Matrix> ones;
  for (int m = 0; m < 3; ++m) ones.emplace_back(shape.dim(m), 1, 1.0);
  const Matrix m0 = Mttkrp(t, ones, 0);
  for (int64_t i = 0; i < 2; ++i) {
    double expected = 0.0;
    for (int64_t j = 0; j < 3; ++j) {
      for (int64_t k = 0; k < 2; ++k) expected += t.at({i, j, k});
    }
    EXPECT_NEAR(m0(i, 0), expected, 1e-12);
  }
}

TEST(MttkrpTest, OneModeTensorIsScaledCopy) {
  // No other mode: the Khatri-Rao product is a row of ones, so every
  // column of M is the tensor itself.
  const Shape shape({5});
  const DenseTensor t = RandomTensor(shape, 13, /*zero_fraction=*/0.4);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 3, 14);
  const Matrix m = Mttkrp(t, f, 0);
  ASSERT_EQ(m.rows(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(m(i, c), t.at_linear(i));
  }
}

TEST(MttkrpTest, SharedPartialMatchesReference) {
  // The 3-way sweep folds T = X x_3 C for modes 0 and 1; mode 1 replays
  // the two-step kernel's arithmetic exactly.
  const Shape shape({5, 4, 6});
  const DenseTensor t = RandomTensor(shape, 23, /*zero_fraction=*/0.3);
  const std::vector<Matrix> f = RandomFactorsFor(shape, 7, 24);
  const Matrix partial = MttkrpPartial3(t, f[2], KernelVariant::kSimd);
  ASSERT_EQ(partial.rows(), 20);
  for (int mode = 0; mode < 2; ++mode) {
    const Matrix m = MttkrpFromPartial3(partial, f, mode, KernelVariant::kSimd);
    EXPECT_TRUE(Matrix::AlmostEqual(m, ReferenceMttkrp(t, f, mode), 1e-10))
        << "mode=" << mode;
  }
  EXPECT_TRUE(MttkrpFromPartial3(partial, f, 1, KernelVariant::kSimd) ==
              Mttkrp(t, f, 1));
}

// A random tensor whose slice `hole` of mode `k` is zero, and factors
// whose row `hole` of factor k is +inf (with_inf) or 0 (with_zero).
struct HoledCase {
  DenseTensor tensor;
  std::vector<Matrix> with_inf;
  std::vector<Matrix> with_zero;
};

HoledCase MakeHoledCase(const Shape& shape, int k, int64_t hole,
                        int64_t rank, uint64_t seed) {
  HoledCase h{RandomTensor(shape, seed, /*zero_fraction=*/0.3),
              RandomFactorsFor(shape, rank, seed + 1), {}};
  for (int64_t i = 0; i < h.tensor.NumElements(); ++i) {
    if (shape.MultiIndex(i)[static_cast<size_t>(k)] == hole) {
      h.tensor.at_linear(i) = 0.0;
    }
  }
  h.with_zero = h.with_inf;
  for (int64_t c = 0; c < rank; ++c) {
    h.with_inf[static_cast<size_t>(k)](hole, c) =
        std::numeric_limits<double>::infinity();
    h.with_zero[static_cast<size_t>(k)](hole, c) = 0.0;
  }
  return h;
}

TEST(MttkrpTest, ZeroCellsContributeNothingAgainstInfFactors) {
  // Every cell that meets the inf row is zero, so each other mode's
  // MTTKRP must stay finite and equal the result with that row zeroed —
  // through the two-step kernel and through the shared 3-way partial.
  const Shape shape({4, 3, 5, 2});
  for (int k = 0; k < shape.num_modes(); ++k) {
    const HoledCase h = MakeHoledCase(shape, k, 1, 5, 25);
    for (int mode = 0; mode < shape.num_modes(); ++mode) {
      if (mode == k) continue;
      EXPECT_TRUE(Mttkrp(h.tensor, h.with_inf, mode) ==
                  Mttkrp(h.tensor, h.with_zero, mode))
          << "inf mode=" << k << " mttkrp mode=" << mode;
    }
  }
  const Shape shape3({3, 4, 5});
  const auto via_partial = [](const DenseTensor& t,
                              const std::vector<Matrix>& f, int mode) {
    return MttkrpFromPartial3(MttkrpPartial3(t, f[2], KernelVariant::kSimd),
                              f, mode, KernelVariant::kSimd);
  };
  for (int k = 0; k < 3; ++k) {
    const HoledCase h = MakeHoledCase(shape3, k, 1, 6, 27);
    for (int mode = 0; mode < 2; ++mode) {
      if (mode == k) continue;
      EXPECT_TRUE(via_partial(h.tensor, h.with_inf, mode) ==
                  via_partial(h.tensor, h.with_zero, mode))
          << "inf mode=" << k << " partial mode=" << mode;
    }
  }
}

TEST(MttkrpTest, CsfExplicitZeroLeavesContributeNothing) {
  // A CSF tree may hold explicit zero leaves (from a COO tensor that
  // stores its zeros). They are skipped like the dense kernels' zero
  // cells, even against an inf factor row, so the result stays equal to
  // the dense one — on the plain kernel and on the shared 3-way partial.
  for (const Shape& shape : {Shape({4, 3, 5, 2}), Shape({3, 4, 5})}) {
    const int n = shape.num_modes();
    for (int k = 0; k < n; ++k) {
      const HoledCase h = MakeHoledCase(shape, k, 1, 5, 29);
      SparseTensor all_cells(shape);
      for (int64_t i = 0; i < h.tensor.NumElements(); ++i) {
        all_cells.Add(shape.MultiIndex(i), h.tensor.at_linear(i));
      }
      const CsfTensor csf = CsfTensor::FromSparse(all_cells);
      ASSERT_EQ(csf.nnz(), h.tensor.NumElements());
      for (int mode = 0; mode < n; ++mode) {
        if (mode == k) continue;
        EXPECT_TRUE(Mttkrp(csf, h.with_inf, mode) ==
                    Mttkrp(h.tensor, h.with_inf, mode))
            << "inf mode=" << k << " mttkrp mode=" << mode;
      }
      if (n == 3 && k == 2) {
        EXPECT_TRUE(
            MttkrpPartial3(csf, h.with_inf[2], KernelVariant::kSimd) ==
            MttkrpPartial3(h.tensor, h.with_inf[2], KernelVariant::kSimd));
      }
    }
  }
}

struct MttkrpCase {
  std::vector<int64_t> dims;
  int64_t rank;
};

class MttkrpSweep : public ::testing::TestWithParam<MttkrpCase> {};

TEST_P(MttkrpSweep, DenseMatchesReferenceEveryMode) {
  const MttkrpCase& c = GetParam();
  const Shape shape(c.dims);
  const DenseTensor t = RandomTensor(shape, 11);
  const std::vector<Matrix> f = RandomFactorsFor(shape, c.rank, 12);
  for (int mode = 0; mode < shape.num_modes(); ++mode) {
    EXPECT_TRUE(Matrix::AlmostEqual(Mttkrp(t, f, mode),
                                    ReferenceMttkrp(t, f, mode), 1e-9))
        << shape.ToString() << " mode=" << mode;
  }
}

TEST_P(MttkrpSweep, CsfMatchesDenseBitwiseEveryMode) {
  const MttkrpCase& c = GetParam();
  const Shape shape(c.dims);
  const DenseTensor t = RandomTensor(shape, 13, /*zero_fraction=*/0.6);
  const CsfTensor csf = CsfTensor::FromDense(t);
  const std::vector<Matrix> f = RandomFactorsFor(shape, c.rank, 14);
  for (int mode = 0; mode < shape.num_modes(); ++mode) {
    for (KernelVariant v : {KernelVariant::kScalar, KernelVariant::kSimd}) {
      EXPECT_TRUE(MttkrpVariant(csf, f, mode, v) ==
                  MttkrpVariant(t, f, mode, v))
          << shape.ToString() << " mode=" << mode;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MttkrpSweep,
    ::testing::Values(MttkrpCase{{2, 2}, 1}, MttkrpCase{{5, 4}, 3},
                      MttkrpCase{{2, 3, 4}, 2}, MttkrpCase{{7, 3, 2}, 6},
                      MttkrpCase{{2, 2, 2, 2}, 3},
                      MttkrpCase{{3, 4, 2, 5}, 7},
                      MttkrpCase{{1, 6, 2}, 2}, MttkrpCase{{3, 1, 4}, 5},
                      MttkrpCase{{4, 5, 1}, 3}, MttkrpCase{{1, 4, 1, 3}, 2},
                      MttkrpCase{{1, 1, 1}, 4}, MttkrpCase{{6, 7, 8}, 10}));

}  // namespace
}  // namespace tpcp
