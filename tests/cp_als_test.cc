#include "cp/cp_als.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/synthetic.h"
#include "tensor/norms.h"

namespace tpcp {
namespace {

DenseTensor ExactLowRank(const Shape& shape, int64_t rank, uint64_t seed) {
  LowRankSpec spec;
  spec.shape = shape;
  spec.rank = rank;
  spec.noise_level = 0.0;
  spec.density = 1.0;
  spec.seed = seed;
  return MakeLowRankTensor(spec);
}

TEST(CpAlsTest, RecoversExactLowRankTensor) {
  const DenseTensor x = ExactLowRank(Shape({12, 10, 8}), 3, 1);
  CpAlsOptions options;
  options.rank = 3;
  options.max_iterations = 200;
  options.fit_tolerance = 1e-9;
  options.seed = 7;
  CpAlsReport report;
  const KruskalTensor k = CpAls(x, options, &report);
  EXPECT_GT(Fit(x, k), 0.999);
  EXPECT_GT(report.iterations, 0);
}

TEST(CpAlsTest, FitTraceIsMonotoneNonDecreasing) {
  const DenseTensor x = ExactLowRank(Shape({10, 9, 8}), 4, 2);
  CpAlsOptions options;
  options.rank = 4;
  options.max_iterations = 40;
  options.fit_tolerance = 0.0;  // run all iterations
  CpAlsReport report;
  CpAls(x, options, &report);
  for (size_t i = 1; i < report.fit_trace.size(); ++i) {
    EXPECT_GE(report.fit_trace[i], report.fit_trace[i - 1] - 1e-9)
        << "iteration " << i;
  }
}

TEST(CpAlsTest, ConvergesAndReports) {
  const DenseTensor x = ExactLowRank(Shape({8, 8, 8}), 2, 3);
  CpAlsOptions options;
  options.rank = 2;
  options.max_iterations = 200;
  options.fit_tolerance = 1e-5;
  CpAlsReport report;
  CpAls(x, options, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.iterations, 200);
  EXPECT_NEAR(report.final_fit, report.fit_trace.back(), 1e-12);
}

TEST(CpAlsTest, ResultIsNormalized) {
  const DenseTensor x = ExactLowRank(Shape({6, 6, 6}), 2, 4);
  CpAlsOptions options;
  options.rank = 2;
  options.max_iterations = 20;
  const KruskalTensor k = CpAls(x, options);
  for (int m = 0; m < 3; ++m) {
    for (int64_t c = 0; c < 2; ++c) {
      double norm = 0.0;
      for (int64_t r = 0; r < 6; ++r) {
        norm += k.factor(m)(r, c) * k.factor(m)(r, c);
      }
      EXPECT_NEAR(norm, 1.0, 1e-8);
    }
  }
}

TEST(CpAlsTest, DeterministicUnderSeed) {
  const DenseTensor x = ExactLowRank(Shape({7, 6, 5}), 2, 5);
  CpAlsOptions options;
  options.rank = 2;
  options.max_iterations = 10;
  options.seed = 123;
  const KruskalTensor a = CpAls(x, options);
  const KruskalTensor b = CpAls(x, options);
  for (int m = 0; m < 3; ++m) {
    EXPECT_TRUE(a.factor(m) == b.factor(m));
  }
}

TEST(CpAlsTest, NoiseToleratedAtModerateLevel) {
  LowRankSpec spec;
  spec.shape = Shape({14, 12, 10});
  spec.rank = 3;
  spec.noise_level = 0.05;
  spec.seed = 6;
  const DenseTensor x = MakeLowRankTensor(spec);
  CpAlsOptions options;
  options.rank = 3;
  options.max_iterations = 100;
  const KruskalTensor k = CpAls(x, options);
  EXPECT_GT(Fit(x, k), 0.8);
}

TEST(CpAlsTest, SparseTensorDecomposition) {
  // The sparse run replays the dense sweep's accumulation order on the
  // non-zeros, so it agrees with the dense run on the same data exactly:
  // factors, lambda and every fit in the trace.
  const DenseTensor dense = ExactLowRank(Shape({9, 8, 7}), 2, 7);
  const SparseTensor sparse = SparseTensor::FromDense(dense);
  CpAlsOptions options;
  options.rank = 2;
  options.max_iterations = 50;
  options.seed = 9;
  CpAlsReport rd, rs;
  const KruskalTensor kd = CpAls(dense, options, &rd);
  const KruskalTensor ks = CpAls(sparse, options, &rs);
  EXPECT_EQ(rd.fit_trace, rs.fit_trace);
  EXPECT_EQ(rd.final_fit, rs.final_fit);
  EXPECT_EQ(kd.lambda(), ks.lambda());
  for (int m = 0; m < 3; ++m) EXPECT_TRUE(kd.factor(m) == ks.factor(m));
}

TEST(CpAlsTest, HosvdInitAtLeastAsGoodEarly) {
  const DenseTensor x = ExactLowRank(Shape({15, 12, 9}), 3, 8);
  CpAlsOptions rnd;
  rnd.rank = 3;
  rnd.max_iterations = 3;
  rnd.fit_tolerance = 0.0;
  CpAlsOptions hosvd = rnd;
  hosvd.init = InitMethod::kHosvd;
  CpAlsReport rnd_report, hosvd_report;
  CpAls(x, rnd, &rnd_report);
  CpAls(x, hosvd, &hosvd_report);
  // HOSVD starts in the dominant subspace; after 3 sweeps it should not be
  // meaningfully behind random init.
  EXPECT_GE(hosvd_report.final_fit, rnd_report.final_fit - 0.05);
}

TEST(CpAlsTest, RankExceedingDimensionsIsHandled) {
  // F=6 over a 4x4x4 tensor: Gram matrices are singular; the regularized
  // solver must keep iterates finite.
  const DenseTensor x = ExactLowRank(Shape({4, 4, 4}), 2, 10);
  CpAlsOptions options;
  options.rank = 6;
  options.max_iterations = 15;
  const KruskalTensor k = CpAls(x, options);
  const double fit = Fit(x, k);
  EXPECT_TRUE(std::isfinite(fit));
  EXPECT_GT(fit, 0.5);
}

TEST(CpAlsTest, TwoModeTensorIsMatrixFactorization) {
  const DenseTensor x = ExactLowRank(Shape({10, 8}), 2, 11);
  CpAlsOptions options;
  options.rank = 2;
  options.max_iterations = 80;
  const KruskalTensor k = CpAls(x, options);
  EXPECT_GT(Fit(x, k), 0.999);
}

DenseTensor NoisyLowRank(const Shape& shape, int64_t rank, uint64_t seed,
                         double density = 1.0) {
  LowRankSpec spec;
  spec.shape = shape;
  spec.rank = rank;
  spec.noise_level = 0.1;
  spec.density = density;
  spec.seed = seed;
  return MakeLowRankTensor(spec);
}

// The sweep's fit (from the last MTTKRP and the Grams) against an explicit
// Fit of the factors after each iteration: a run capped at `it`
// iterations replays the first `it` sweeps of the full run exactly.
template <typename TensorT>
void ExpectTraceMatchesExplicitFit(const TensorT& x, CpAlsOptions options,
                                   const char* label) {
  options.fit_tolerance = -1.0;
  CpAlsReport full;
  CpAls(x, options, &full);
  ASSERT_EQ(static_cast<int>(full.fit_trace.size()), options.max_iterations);
  for (int it = 1; it <= options.max_iterations; ++it) {
    CpAlsOptions capped = options;
    capped.max_iterations = it;
    const KruskalTensor k = CpAls(x, capped);
    EXPECT_NEAR(full.fit_trace[static_cast<size_t>(it - 1)], Fit(x, k), 1e-10)
        << label << " iteration " << it;
  }
}

TEST(CpAlsTest, FitTraceMatchesExplicitFitEveryIteration) {
  CpAlsOptions options;
  options.rank = 3;
  options.max_iterations = 6;
  options.seed = 17;
  ExpectTraceMatchesExplicitFit(NoisyLowRank(Shape({9, 7, 8}), 3, 21),
                                options, "dense 3-way");
  ExpectTraceMatchesExplicitFit(NoisyLowRank(Shape({5, 4, 6, 3}), 3, 22),
                                options, "dense 4-way");
  ExpectTraceMatchesExplicitFit(
      SparseTensor::FromDense(NoisyLowRank(Shape({10, 9, 8}), 3, 23, 0.3)),
      options, "sparse");
  CpAlsOptions ridge = options;
  ridge.rank = 5;
  ridge.ridge = 0.05;
  ExpectTraceMatchesExplicitFit(NoisyLowRank(Shape({6, 5, 7}), 2, 24), ridge,
                                "dense ridge");
}

TEST(CpAlsTest, ExactFitWhoseResidualCancelsReportsOne) {
  // An exact rank-1 input recovered to rounding: the residual
  // ||X||² - 2<X, Y> + ||Y||² cancels to <= 0 and the fit reports exactly
  // 1.0, never above it and never NaN.
  const DenseTensor x = ExactLowRank(Shape({6, 5, 4}), 1, 1);
  CpAlsOptions options;
  options.rank = 1;
  options.max_iterations = 20;
  options.fit_tolerance = -1.0;
  CpAlsReport report;
  const KruskalTensor k = CpAls(x, options, &report);
  EXPECT_GT(Fit(x, k), 1.0 - 1e-6);
  for (double fit : report.fit_trace) {
    EXPECT_FALSE(std::isnan(fit));
    EXPECT_LE(fit, 1.0);
  }
  EXPECT_EQ(report.fit_trace.back(), 1.0);
}

TEST(CpAlsTest, SharedPartialSweepBitIdenticalAcrossKernelVariants) {
  // The 3-way sweep (shared partial T = X x_3 C, then TN for mode 2) and
  // the generic 4-way sweep give the same bytes under scalar and SIMD
  // kernels: factors and every fit in the trace.
  CpAlsOptions options;
  options.rank = 6;
  options.max_iterations = 5;
  options.fit_tolerance = -1.0;
  for (const Shape& shape : {Shape({11, 9, 13}), Shape({5, 4, 6, 3})}) {
    const DenseTensor x = NoisyLowRank(shape, 4, 31, 0.6);
    CpAlsReport rs, rv;
    const KruskalTensor ks =
        CpAlsVariant(x, options, KernelVariant::kScalar, &rs);
    const KruskalTensor kv =
        CpAlsVariant(x, options, KernelVariant::kSimd, &rv);
    ASSERT_EQ(rs.fit_trace.size(), rv.fit_trace.size());
    for (size_t i = 0; i < rs.fit_trace.size(); ++i) {
      EXPECT_EQ(std::memcmp(&rs.fit_trace[i], &rv.fit_trace[i],
                            sizeof(double)),
                0)
          << shape.ToString() << " fit " << i;
    }
    for (int m = 0; m < shape.num_modes(); ++m) {
      EXPECT_EQ(std::memcmp(ks.factor(m).data(), kv.factor(m).data(),
                            static_cast<size_t>(ks.factor(m).ByteSize())),
                0)
          << shape.ToString() << " factor " << m;
    }
  }
}

TEST(AlsFactorUpdateTest, SolvesNormalEquations) {
  // With orthonormal-ish grams it reduces to M * S^{-1}.
  Matrix m{{2, 4}, {6, 8}};
  std::vector<Matrix> grams;
  grams.push_back(Matrix{{1, 0}, {0, 1}});  // mode 0 (ignored)
  grams.push_back(Matrix{{2, 0}, {0, 2}});
  grams.push_back(Matrix{{1, 0}, {0, 1}});
  const Matrix a = AlsFactorUpdate(m, grams, 0);
  // S = gram1 ⊛ gram2 = diag(2,2) -> A = M / 2.
  EXPECT_NEAR(a(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(a(1, 1), 4.0, 1e-12);
}

}  // namespace
}  // namespace tpcp
