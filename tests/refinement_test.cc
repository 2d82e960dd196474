// Unit tests for RefinementState — the Phase-2 update rule in isolation.

#include "core/refinement_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "tensor/norms.h"

namespace tpcp {
namespace {

struct Fixture {
  std::unique_ptr<Env> env;
  std::unique_ptr<BlockTensorStore> input;
  std::unique_ptr<BlockFactorStore> factors;
  GridPartition grid;
};

// Stages Phase-1 factors for a small low-rank tensor.
Fixture MakeFixture(int64_t rank, uint64_t seed) {
  Fixture f;
  f.env = NewMemEnv();
  f.grid = GridPartition::Uniform(Shape({8, 8, 8}), 2);
  f.input = std::make_unique<BlockTensorStore>(f.env.get(), "t", f.grid);
  LowRankSpec spec;
  spec.shape = f.grid.tensor_shape();
  spec.rank = rank;
  spec.seed = seed;
  TPCP_CHECK(GenerateLowRankIntoStore(spec, f.input.get()).ok());
  f.factors = std::make_unique<BlockFactorStore>(f.env.get(), "f", f.grid,
                                                 rank);
  TwoPhaseCpOptions options;
  options.rank = rank;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  TPCP_CHECK(engine.RunPhase1().ok());
  return f;
}

TEST(RefinementStateTest, InitializePersistsSeededSubFactors) {
  Fixture f = MakeFixture(2, 1);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < 2; ++part) {
      auto a = f.factors->ReadSubFactor(mode, part);
      ASSERT_TRUE(a.ok());
      // Seed = the first block of the slab.
      const BlockIndex first = f.factors->SlabBlocks(mode, part).front();
      auto u = f.factors->ReadBlockFactor(first, mode);
      ASSERT_TRUE(u.ok());
      EXPECT_TRUE(*a == *u);
    }
  }
}

TEST(RefinementStateTest, LoadEvictRoundTrip) {
  Fixture f = MakeFixture(2, 2);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const ModePartition unit{0, 1};
  EXPECT_FALSE(state.IsResident(unit));
  ASSERT_TRUE(state.LoadUnit(unit).ok());
  EXPECT_TRUE(state.IsResident(unit));
  ASSERT_TRUE(state.EvictUnit(unit, /*dirty=*/false).ok());
  EXPECT_FALSE(state.IsResident(unit));
}

TEST(RefinementStateTest, DirtyEvictPersistsUpdatedFactor) {
  Fixture f = MakeFixture(2, 3);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const ModePartition unit{1, 0};
  auto before = f.factors->ReadSubFactor(1, 0);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(state.LoadUnit(unit).ok());
  UpdateStep step;
  step.block = {0, 0, 0};
  step.mode = 1;
  state.ApplyUpdate(step);
  EXPECT_EQ(state.updates_applied(), 1);
  ASSERT_TRUE(state.EvictUnit(unit, /*dirty=*/true).ok());

  auto after = f.factors->ReadSubFactor(1, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(*after == *before);  // the update changed the factor
}

TEST(RefinementStateTest, UpdatesImproveSurrogateFit) {
  Fixture f = MakeFixture(2, 4);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const double initial = state.SurrogateFit();
  // One full mode-centric sweep.
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < 2; ++part) {
      const ModePartition unit{mode, part};
      ASSERT_TRUE(state.LoadUnit(unit).ok());
      UpdateStep step;
      step.block = {0, 0, 0};
      step.block[static_cast<size_t>(mode)] = part;
      step.mode = mode;
      state.ApplyUpdate(step);
      ASSERT_TRUE(state.EvictUnit(unit, true).ok());
    }
  }
  EXPECT_GE(state.SurrogateFit(), initial - 1e-9);
}

TEST(RefinementStateTest, RepeatedUpdatesAreStable) {
  // Applying the same update many times must not blow up (the pinv + ridge
  // safeguards): the surrogate fit sequence stays bounded and monotone
  // after the first application.
  Fixture f = MakeFixture(2, 5);
  RefinementState state(f.factors.get(), /*ridge=*/1e-3);
  ASSERT_TRUE(state.Initialize().ok());
  const ModePartition unit{2, 1};
  ASSERT_TRUE(state.LoadUnit(unit).ok());
  UpdateStep step;
  step.block = {0, 0, 1};
  step.mode = 2;
  double prev = -1e30;
  for (int i = 0; i < 10; ++i) {
    state.ApplyUpdate(step);
    const double fit = state.SurrogateFit();
    EXPECT_TRUE(std::isfinite(fit));
    EXPECT_GE(fit, prev - 1e-9);
    prev = fit;
  }
}

TEST(RefinementStateTest, UpdateOnNonResidentUnitDies) {
  Fixture f = MakeFixture(2, 6);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  UpdateStep step;
  step.block = {0, 0, 0};
  step.mode = 0;
  EXPECT_DEATH(state.ApplyUpdate(step), "non-resident");
}

TEST(RefinementStateTest, SurrogateFitNearBlockFitQuality) {
  // For an exactly low-rank tensor whose blocks decompose near-perfectly,
  // the initial surrogate norm matches the tensor norm closely.
  Fixture f = MakeFixture(3, 7);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  const double fit = state.SurrogateFit();
  EXPECT_TRUE(std::isfinite(fit));
  EXPECT_LE(fit, 1.0);
}

TEST(RefinementStateTest, ResumeUsesPersistedSubFactors) {
  Fixture f = MakeFixture(2, 8);
  // Run a few updates and flush the dirty unit, as an interrupted Phase 2
  // would have.
  {
    RefinementState state(f.factors.get());
    ASSERT_TRUE(state.Initialize().ok());
    const ModePartition unit{0, 0};
    ASSERT_TRUE(state.LoadUnit(unit).ok());
    UpdateStep step;
    step.block = {0, 0, 0};
    step.mode = 0;
    state.ApplyUpdate(step);
    ASSERT_TRUE(state.EvictUnit(unit, /*dirty=*/true).ok());
  }
  auto persisted = f.factors->ReadSubFactor(0, 0);
  ASSERT_TRUE(persisted.ok());

  // A fresh Initialize would overwrite A with the Phase-1 seed; resume
  // must keep the refined value.
  RefinementState resumed(f.factors.get());
  ASSERT_TRUE(resumed.Initialize(/*resume=*/true).ok());
  auto after = f.factors->ReadSubFactor(0, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(*after == *persisted);
}

TEST(RefinementStateTest, ResumeFailsWithoutPersistedSubFactors) {
  Fixture f = MakeFixture(2, 9);
  RefinementState state(f.factors.get());
  // No prior Initialize: the store has block factors but no sub-factors.
  EXPECT_TRUE(state.Initialize(/*resume=*/true).IsNotFound());
}

// A load costs two reads however long the slab: A and the packed S.
TEST(RefinementStateTest, LoadUnitReadsTwoRecords) {
  Fixture f = MakeFixture(2, 3);
  RefinementState state(f.factors.get());
  ASSERT_TRUE(state.Initialize().ok());
  for (const ModePartition& unit : {ModePartition{0, 0}, ModePartition{2, 1}}) {
    const uint64_t before = f.env->stats().reads();
    ASSERT_TRUE(state.LoadUnit(unit).ok());
    EXPECT_EQ(f.env->stats().reads() - before, 2u);
  }
}

// A second Phase 1 under another seed rewrites every block factor; no
// packed slab of the first run may survive it.
TEST(RefinementStateTest, RerunPhase1RepacksEverySlab) {
  Fixture f = MakeFixture(2, 4);
  std::map<std::string, std::string> first;
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < 2; ++part) {
      const std::string name = f.factors->SlabName(mode, part);
      ASSERT_TRUE(f.env->ReadFile(name, &first[name]).ok());
    }
  }
  TwoPhaseCpOptions options;
  options.rank = 2;
  options.seed = 99;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.RunPhase1().ok());
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < 2; ++part) {
      std::string bytes;
      const std::string name = f.factors->SlabName(mode, part);
      ASSERT_TRUE(f.env->ReadFile(name, &bytes).ok());
      EXPECT_NE(bytes, first[name]) << name;
      auto slab = f.factors->ReadSlab(mode, part);
      ASSERT_TRUE(slab.ok()) << slab.status().ToString();
      const std::vector<BlockIndex> blocks = f.factors->SlabBlocks(mode, part);
      ASSERT_EQ(slab->size(), blocks.size());
      for (size_t j = 0; j < blocks.size(); ++j) {
        auto u = f.factors->ReadBlockFactor(blocks[j], mode);
        ASSERT_TRUE(u.ok());
        EXPECT_TRUE((*slab)[j] == *u) << name << " block " << j;
      }
    }
  }
}

}  // namespace
}  // namespace tpcp
