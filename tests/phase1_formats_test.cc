// Phase 1 across slab formats: dense slabs run the dense ALS sweep, COO
// and CSF slabs run CP-ALS on their non-zeros. The CSF sweep replays the
// dense kernels' accumulation order, so block factors, per-block fit
// traces and the whole decomposition must be the same bytes for all three
// formats — including ragged edge blocks, an all-zero block, a block with
// a single non-zero, HOSVD init and a ridge.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/two_phase_cp.h"
#include "cp/cp_als.h"
#include "data/synthetic.h"

namespace tpcp {
namespace {

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.ByteSize())) == 0;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct FormatCase {
  std::string name;
  std::vector<int64_t> dims;
  std::vector<int64_t> parts;
  int64_t rank;
  InitMethod init;
  double ridge;
};

// A sparse low-rank-plus-noise tensor whose first block is all zero and
// whose last block holds a single non-zero.
DenseTensor MakeTensor(const GridPartition& grid, uint64_t seed) {
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 3;
  spec.noise_level = 0.1;
  spec.density = 0.3;
  spec.seed = seed;
  DenseTensor x = MakeLowRankTensor(spec);
  const std::vector<BlockIndex> blocks = grid.AllBlocks();
  const BlockIndex& empty = blocks.front();
  const BlockIndex& single = blocks.back();
  const Shape& shape = x.shape();
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    const Index cell = shape.MultiIndex(i);
    for (const BlockIndex* block : {&empty, &single}) {
      const Index offsets = grid.BlockOffsets(*block);
      const std::vector<int64_t> sizes = grid.BlockSizes(*block);
      bool inside = true;
      bool origin = true;
      for (int m = 0; m < shape.num_modes(); ++m) {
        const int64_t local = cell[static_cast<size_t>(m)] -
                              offsets[static_cast<size_t>(m)];
        inside = inside && local >= 0 && local < sizes[static_cast<size_t>(m)];
        origin = origin && local == 0;
      }
      if (inside) x.at_linear(i) = block == &single && origin ? 1.5 : 0.0;
    }
  }
  return x;
}

TwoPhaseCpOptions OptionsFor(const FormatCase& c) {
  TwoPhaseCpOptions options;
  options.rank = c.rank;
  options.init = c.init;
  options.phase1_ridge = c.ridge;
  options.phase1_max_iterations = 8;
  options.phase1_fit_tolerance = -1.0;
  options.max_virtual_iterations = 4;
  options.fit_tolerance = -1.0;
  options.buffer_fraction = 0.5;
  return options;
}

// Everything a decompose of one store produces.
struct Outcome {
  std::vector<Matrix> block_factors;  // block-major, then mode
  double phase1_mean_block_fit = 0.0;
  std::vector<double> phase2_fit_trace;
  std::vector<Matrix> sub_factors;  // mode-major, then part
};

Outcome Decompose(const FormatCase& c, const DenseTensor& x,
                  SlabFormat format) {
  const GridPartition grid(Shape(c.dims), c.parts);
  auto env = NewMemEnv();
  auto input = BlockTensorStore::Create(env.get(), "tensor", grid, format);
  EXPECT_TRUE(input.ok());
  EXPECT_TRUE(input->ImportTensor(x).ok());
  BlockFactorStore factors(env.get(), "factors", grid, c.rank);
  TwoPhaseCp engine(&*input, &factors, OptionsFor(c));
  Outcome out;
  const Status phase1 = engine.RunPhase1();
  EXPECT_TRUE(phase1.ok()) << phase1.ToString();
  for (const BlockIndex& block : grid.AllBlocks()) {
    for (int m = 0; m < grid.num_modes(); ++m) {
      auto f = factors.ReadBlockFactor(block, m);
      EXPECT_TRUE(f.ok());
      if (f.ok()) out.block_factors.push_back(*f);
    }
  }
  const Status phase2 = engine.RunPhase2();
  EXPECT_TRUE(phase2.ok()) << phase2.ToString();
  out.phase1_mean_block_fit = engine.result().phase1_mean_block_fit;
  out.phase2_fit_trace = engine.result().fit_trace;
  for (int m = 0; m < grid.num_modes(); ++m) {
    for (int64_t p = 0; p < grid.parts(m); ++p) {
      auto f = factors.ReadSubFactor(m, p);
      EXPECT_TRUE(f.ok());
      if (f.ok()) out.sub_factors.push_back(*f);
    }
  }
  return out;
}

class Phase1FormatsTest : public ::testing::TestWithParam<FormatCase> {};

TEST_P(Phase1FormatsTest, DecomposeIsByteIdenticalAcrossSlabFormats) {
  const FormatCase& c = GetParam();
  const DenseTensor x = MakeTensor(GridPartition(Shape(c.dims), c.parts), 5);
  const Outcome dense = Decompose(c, x, SlabFormat::kDense);
  ASSERT_FALSE(dense.block_factors.empty());
  for (SlabFormat format : {SlabFormat::kCoo, SlabFormat::kCsf}) {
    const Outcome sparse = Decompose(c, x, format);
    const char* name = SlabFormatName(format);
    ASSERT_EQ(sparse.block_factors.size(), dense.block_factors.size());
    for (size_t i = 0; i < dense.block_factors.size(); ++i) {
      EXPECT_TRUE(SameBytes(sparse.block_factors[i], dense.block_factors[i]))
          << name << " block factor " << i;
    }
    EXPECT_TRUE(SameBytes(std::vector<double>{sparse.phase1_mean_block_fit},
                          std::vector<double>{dense.phase1_mean_block_fit}))
        << name;
    EXPECT_TRUE(SameBytes(sparse.phase2_fit_trace, dense.phase2_fit_trace))
        << name;
    ASSERT_EQ(sparse.sub_factors.size(), dense.sub_factors.size());
    for (size_t i = 0; i < dense.sub_factors.size(); ++i) {
      EXPECT_TRUE(SameBytes(sparse.sub_factors[i], dense.sub_factors[i]))
          << name << " sub-factor " << i;
    }
  }
}

TEST_P(Phase1FormatsTest, BlockAlsTracesAreByteIdenticalAcrossSlabFormats) {
  // Per block, as RunPhase1 reads it: the dense slab through ReadBlock,
  // the sparse slabs through ReadBlockCsf, every fit of the trace equal.
  const FormatCase& c = GetParam();
  const GridPartition grid(Shape(c.dims), c.parts);
  const DenseTensor x = MakeTensor(grid, 6);
  auto env = NewMemEnv();
  std::vector<BlockTensorStore> stores;
  for (SlabFormat format :
       {SlabFormat::kDense, SlabFormat::kCoo, SlabFormat::kCsf}) {
    auto store = BlockTensorStore::Create(
        env.get(), std::string("t_") + SlabFormatName(format), grid, format);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->ImportTensor(x).ok());
    stores.push_back(std::move(store).value());
  }
  CpAlsOptions als;
  als.rank = c.rank;
  als.init = c.init;
  als.ridge = c.ridge;
  als.max_iterations = 8;
  als.fit_tolerance = -1.0;
  int64_t empty_blocks = 0;
  int64_t single_blocks = 0;
  for (const BlockIndex& block : grid.AllBlocks()) {
    auto dense = stores[0].ReadBlock(block);
    ASSERT_TRUE(dense.ok());
    CpAlsReport want;
    const KruskalTensor kd = CpAls(*dense, als, &want);
    for (size_t s = 1; s < stores.size(); ++s) {
      auto csf = stores[s].ReadBlockCsf(block);
      ASSERT_TRUE(csf.ok());
      EXPECT_EQ(csf->nnz(), dense->CountNonZeros());
      empty_blocks += csf->nnz() == 0 ? 1 : 0;
      single_blocks += csf->nnz() == 1 ? 1 : 0;
      CpAlsReport got;
      const KruskalTensor kc = CpAls(*csf, als, &got);
      EXPECT_TRUE(SameBytes(got.fit_trace, want.fit_trace))
          << c.name << " store " << s;
      EXPECT_TRUE(SameBytes(kc.lambda(), kd.lambda()))
          << c.name << " store " << s;
      for (int m = 0; m < grid.num_modes(); ++m) {
        EXPECT_TRUE(SameBytes(kc.factor(m), kd.factor(m)))
            << c.name << " store " << s << " mode " << m;
      }
    }
  }
  // Both sparse stores saw the all-zero and the single-non-zero block.
  EXPECT_EQ(empty_blocks, 2);
  EXPECT_EQ(single_blocks, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Phase1FormatsTest,
    ::testing::Values(
        FormatCase{"ragged3", {13, 11, 9}, {3, 2, 2}, 4, InitMethod::kRandom,
                   0.0},
        FormatCase{"ragged4", {7, 6, 5, 5}, {2, 2, 1, 2}, 3,
                   InitMethod::kRandom, 0.0},
        FormatCase{"hosvd3", {13, 11, 9}, {3, 2, 2}, 4, InitMethod::kHosvd,
                   0.0},
        FormatCase{"hosvd4", {7, 6, 5, 5}, {2, 2, 1, 2}, 3,
                   InitMethod::kHosvd, 0.0},
        FormatCase{"ridge3", {13, 11, 9}, {3, 2, 2}, 4, InitMethod::kRandom,
                   0.05},
        FormatCase{"ridge4", {7, 6, 5, 5}, {2, 2, 1, 2}, 3,
                   InitMethod::kRandom, 0.05}),
    [](const ::testing::TestParamInfo<FormatCase>& info) {
      return info.param.name;
    });

TEST(CsfCpAlsTest, ScalarAndSimdKernelsGiveTheDenseBytes) {
  CpAlsOptions options;
  options.rank = 5;
  options.max_iterations = 6;
  options.fit_tolerance = -1.0;
  for (const Shape& shape : {Shape({11, 9, 13}), Shape({5, 4, 6, 3})}) {
    LowRankSpec spec;
    spec.shape = shape;
    spec.rank = 3;
    spec.density = 0.4;
    spec.seed = 8;
    const DenseTensor x = MakeLowRankTensor(spec);
    const CsfTensor csf = CsfTensor::FromDense(x);
    CpAlsReport want;
    const KruskalTensor kd =
        CpAlsVariant(x, options, KernelVariant::kScalar, &want);
    for (KernelVariant v : {KernelVariant::kScalar, KernelVariant::kSimd}) {
      CpAlsReport got;
      const KruskalTensor kc = CpAlsVariant(csf, options, v, &got);
      EXPECT_TRUE(SameBytes(got.fit_trace, want.fit_trace))
          << shape.ToString() << " " << KernelVariantName(v);
      for (int m = 0; m < shape.num_modes(); ++m) {
        EXPECT_TRUE(SameBytes(kc.factor(m), kd.factor(m)))
            << shape.ToString() << " " << KernelVariantName(v) << " mode "
            << m;
      }
    }
  }
}

TEST(CsfCpAlsTest, CooDuplicatesMergeLikeTheDensify) {
  // A COO tensor that lists a coordinate twice means the sum, as
  // SparseTensor::ToDense reads it; the CSF compression merges the pair
  // into one leaf, so CpAls on it matches CpAls on the densified tensor.
  LowRankSpec spec;
  spec.shape = Shape({5, 4, 3});
  spec.rank = 2;
  spec.density = 0.3;
  spec.seed = 3;
  const Shape& shape = spec.shape;
  const SparseTensor base = SparseTensor::FromDense(MakeLowRankTensor(spec));
  SparseTensor dup(shape);
  for (const SparseEntry& e : base.entries()) {
    dup.Add(e.index, 0.25 * e.value);
    dup.Add(e.index, 0.75 * e.value);
  }
  CpAlsOptions options;
  options.rank = 3;
  options.max_iterations = 5;
  options.fit_tolerance = -1.0;
  CpAlsReport want, got;
  const KruskalTensor kd = CpAls(dup.ToDense(), options, &want);
  const KruskalTensor ks = CpAls(dup, options, &got);
  EXPECT_EQ(CsfTensor::FromSparse(dup).nnz(), base.nnz());
  EXPECT_TRUE(SameBytes(got.fit_trace, want.fit_trace));
  for (int m = 0; m < 3; ++m) {
    EXPECT_TRUE(SameBytes(ks.factor(m), kd.factor(m))) << "mode " << m;
  }
}

}  // namespace
}  // namespace tpcp
