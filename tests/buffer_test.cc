#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace tpcp {
namespace {

GridPartition CubicGrid(int64_t side, int64_t parts) {
  return GridPartition::Uniform(Shape({side, side, side}), parts);
}

TEST(UnitCatalogTest, SizesFollowDefinition4) {
  // ⟨i,ki⟩ = (I_i/K_i · F)(1 + Π_{j≠i} K_j) · 8 bytes.
  const GridPartition grid = CubicGrid(100, 4);
  UnitCatalog catalog(grid, 10);
  const ModePartition unit{0, 0};
  EXPECT_EQ(catalog.FactorBytes(unit), 25u * 10u * 8u);
  EXPECT_EQ(catalog.SlabBlocks(0), 16);
  EXPECT_EQ(catalog.BlockFactorBytes(unit), 16u * 25u * 10u * 8u);
  EXPECT_EQ(catalog.UnitBytes(unit), 17u * 25u * 10u * 8u);
  EXPECT_EQ(catalog.TotalBytes(), 12u * 17u * 25u * 10u * 8u);
  EXPECT_EQ(catalog.MaxUnitBytes(), catalog.UnitBytes(unit));  // cubic
  EXPECT_EQ(catalog.AllUnits().size(), 12u);
}

TEST(UnitCatalogTest, NonCubicUnitsDiffer) {
  const GridPartition grid(Shape({100, 50, 10}), {2, 5, 1});
  UnitCatalog catalog(grid, 4);
  // Mode 0: rows 50, slab 5 blocks; mode 1: rows 10, slab 2; mode 2: rows
  // 10, slab 10.
  EXPECT_EQ(catalog.UnitBytes({0, 0}), (1u + 5u) * 50u * 4u * 8u);
  EXPECT_EQ(catalog.UnitBytes({1, 2}), (1u + 2u) * 10u * 4u * 8u);
  EXPECT_EQ(catalog.UnitBytes({2, 0}), (1u + 10u) * 10u * 4u * 8u);
}

std::unique_ptr<BufferPool> MakePool(const GridPartition& grid, int64_t rank,
                                     double fraction, PolicyType policy,
                                     const UpdateSchedule* schedule) {
  UnitCatalog catalog(grid, rank);
  const uint64_t capacity = std::max<uint64_t>(
      static_cast<uint64_t>(fraction *
                            static_cast<double>(catalog.TotalBytes())),
      catalog.MaxUnitBytes());
  return std::make_unique<BufferPool>(capacity, catalog,
                                      NewPolicy(policy, schedule));
}

TEST(BufferPoolTest, HitsAndMisses) {
  const GridPartition grid = CubicGrid(8, 2);
  auto pool = MakePool(grid, 2, 1.0, PolicyType::kLru, nullptr);
  ASSERT_TRUE(pool->Access({0, 0}, 0).ok());
  ASSERT_TRUE(pool->Access({0, 0}, 1).ok());
  ASSERT_TRUE(pool->Access({1, 1}, 2).ok());
  EXPECT_EQ(pool->stats().accesses, 3u);
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_EQ(pool->stats().swap_ins, 2u);
  EXPECT_EQ(pool->stats().swap_outs, 0u);
  EXPECT_NEAR(pool->stats().HitRate(), 1.0 / 3.0, 1e-12);
  EXPECT_TRUE(pool->IsResident({0, 0}));
  EXPECT_FALSE(pool->IsResident({2, 0}));
}

TEST(BufferPoolTest, CapacityIsRespected) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  // Room for exactly 2 units (cubic: all units equal).
  const uint64_t unit = catalog.UnitBytes({0, 0});
  BufferPool pool(2 * unit, catalog, NewLruPolicy());
  ASSERT_TRUE(pool.Access({0, 0}, 0).ok());
  ASSERT_TRUE(pool.Access({0, 1}, 1).ok());
  EXPECT_EQ(pool.resident_units(), 2);
  ASSERT_TRUE(pool.Access({1, 0}, 2).ok());
  EXPECT_EQ(pool.resident_units(), 2);
  EXPECT_LE(pool.used_bytes(), pool.capacity_bytes());
  EXPECT_EQ(pool.stats().swap_outs, 1u);
  // LRU evicted the oldest.
  EXPECT_FALSE(pool.IsResident({0, 0}));
  EXPECT_TRUE(pool.IsResident({0, 1}));
}

TEST(BufferPoolTest, MruEvictsNewest) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(2 * catalog.UnitBytes({0, 0}), catalog, NewMruPolicy());
  ASSERT_TRUE(pool.Access({0, 0}, 0).ok());
  ASSERT_TRUE(pool.Access({0, 1}, 1).ok());
  ASSERT_TRUE(pool.Access({1, 0}, 2).ok());
  EXPECT_TRUE(pool.IsResident({0, 0}));   // oldest kept
  EXPECT_FALSE(pool.IsResident({0, 1}));  // most recent evicted
}

TEST(BufferPoolTest, LruUsesAccessRecencyNotInsertion) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(2 * catalog.UnitBytes({0, 0}), catalog, NewLruPolicy());
  ASSERT_TRUE(pool.Access({0, 0}, 0).ok());
  ASSERT_TRUE(pool.Access({0, 1}, 1).ok());
  ASSERT_TRUE(pool.Access({0, 0}, 2).ok());  // refresh {0,0}
  ASSERT_TRUE(pool.Access({1, 0}, 3).ok());
  EXPECT_TRUE(pool.IsResident({0, 0}));
  EXPECT_FALSE(pool.IsResident({0, 1}));
}

TEST(BufferPoolTest, EvictCallbackFires) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(catalog.UnitBytes({0, 0}), catalog, NewLruPolicy());
  std::vector<std::pair<ModePartition, bool>> evictions;
  pool.SetEvictCallback([&evictions](const ModePartition& u, bool dirty) {
    evictions.emplace_back(u, dirty);
    return Status::OK();
  });
  ASSERT_TRUE(pool.Access({0, 0}, 0).ok());
  pool.MarkDirty({0, 0});
  ASSERT_TRUE(pool.Access({0, 1}, 1).ok());  // evicts dirty {0,0}
  ASSERT_TRUE(pool.Flush().ok());
  ASSERT_EQ(evictions.size(), 2u);
  EXPECT_TRUE(evictions[0].second);   // {0,0} was dirty
  EXPECT_FALSE(evictions[1].second);  // {0,1} clean
  EXPECT_EQ(pool.stats().dirty_writebacks, 1u);
}

TEST(BufferPoolTest, FlushEmptiesPool) {
  const GridPartition grid = CubicGrid(8, 2);
  auto pool = MakePool(grid, 2, 1.0, PolicyType::kLru, nullptr);
  ASSERT_TRUE(pool->Access({0, 0}, 0).ok());
  ASSERT_TRUE(pool->Access({1, 1}, 1).ok());
  ASSERT_TRUE(pool->Flush().ok());
  EXPECT_EQ(pool->resident_units(), 0);
  EXPECT_EQ(pool->used_bytes(), 0u);
}

TEST(BufferPoolTest, ByteAccountingConsistent) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(2 * catalog.UnitBytes({0, 0}), catalog, NewLruPolicy());
  ASSERT_TRUE(pool.Access({0, 0}, 0).ok());
  ASSERT_TRUE(pool.Access({0, 1}, 1).ok());
  ASSERT_TRUE(pool.Access({1, 0}, 2).ok());
  EXPECT_EQ(pool.stats().bytes_in, 3u * catalog.UnitBytes({0, 0}));
  EXPECT_EQ(pool.stats().bytes_out, 1u * catalog.UnitBytes({0, 0}));
}

TEST(BufferPoolTest, ReservePinsAndReportsEvictionsWithoutCallbacks) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(2 * catalog.UnitBytes({0, 0}), catalog, NewLruPolicy());
  int callback_evictions = 0;
  pool.SetEvictCallback([&callback_evictions](const ModePartition&, bool) {
    ++callback_evictions;
    return Status::OK();
  });
  ASSERT_TRUE(pool.Access({0, 0}, 0).ok());
  pool.MarkDirty({0, 0});
  ASSERT_TRUE(pool.Access({0, 1}, 1).ok());

  std::vector<BufferPool::Eviction> evicted;
  ASSERT_TRUE(pool.Reserve({1, 0}, 2, &evicted).ok());
  // LRU victim {0,0} reported with its dirty bit, evict callback bypassed.
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first.mode, 0);
  EXPECT_EQ(evicted[0].first.part, 0);
  EXPECT_TRUE(evicted[0].second);
  EXPECT_EQ(callback_evictions, 0);
  EXPECT_TRUE(pool.IsResident({1, 0}));
  EXPECT_TRUE(pool.IsPinned({1, 0}));
  EXPECT_EQ(pool.stats().swap_ins, 3u);
  EXPECT_EQ(pool.stats().swap_outs, 1u);
  EXPECT_EQ(pool.stats().dirty_writebacks, 1u);
}

TEST(BufferPoolTest, ReserveFailsCleanlyWhenPinsBlockSpace) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(catalog.UnitBytes({0, 0}), catalog, NewLruPolicy());
  std::vector<BufferPool::Eviction> evicted;
  ASSERT_TRUE(pool.Reserve({0, 0}, 0, &evicted).ok());
  EXPECT_TRUE(evicted.empty());

  const BufferStats before = pool.stats();
  const Status s = pool.Reserve({0, 1}, 1, &evicted);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  // Failure has no side effects.
  EXPECT_TRUE(evicted.empty());
  EXPECT_TRUE(pool.IsResident({0, 0}));
  EXPECT_FALSE(pool.IsResident({0, 1}));
  EXPECT_EQ(pool.stats().accesses, before.accesses);
  EXPECT_EQ(pool.stats().swap_outs, before.swap_outs);

  // Releasing the pin makes the reservation possible again.
  pool.Unpin({0, 0});
  ASSERT_TRUE(pool.Reserve({0, 1}, 2, &evicted).ok());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_FALSE(evicted[0].second);  // {0,0} was clean
}

TEST(BufferPoolTest, AccessNeverEvictsPinnedUnits) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(2 * catalog.UnitBytes({0, 0}), catalog, NewLruPolicy());
  std::vector<BufferPool::Eviction> evicted;
  ASSERT_TRUE(pool.Reserve({0, 0}, 0, &evicted).ok());  // pinned, oldest
  ASSERT_TRUE(pool.Access({0, 1}, 1).ok());
  ASSERT_TRUE(pool.Access({1, 0}, 2).ok());
  // LRU would pick {0,0}; the pin forces {0,1} out instead.
  EXPECT_TRUE(pool.IsResident({0, 0}));
  EXPECT_FALSE(pool.IsResident({0, 1}));
}

TEST(BufferPoolTest, TouchResidentPinsAndRecordAccessCounts) {
  const GridPartition grid = CubicGrid(8, 2);
  UnitCatalog catalog(grid, 2);
  BufferPool pool(2 * catalog.UnitBytes({0, 0}), catalog, NewLruPolicy());
  std::vector<BufferPool::Eviction> evicted;
  ASSERT_TRUE(pool.Reserve({0, 0}, 0, &evicted).ok());
  pool.TouchResident({0, 0}, 1);
  // Steps count when they execute, not when they are reserved.
  EXPECT_EQ(pool.stats().accesses, 0u);
  pool.RecordAccess(/*hit=*/false);
  pool.RecordAccess(/*hit=*/true);
  EXPECT_EQ(pool.stats().accesses, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
  // Two pins are now held; both must be released before eviction.
  pool.Unpin({0, 0});
  EXPECT_TRUE(pool.IsPinned({0, 0}));
  pool.Unpin({0, 0});
  EXPECT_FALSE(pool.IsPinned({0, 0}));
  ASSERT_TRUE(pool.Flush().ok());
  EXPECT_EQ(pool.resident_units(), 0);
}

TEST(PolicyTest, Names) {
  EXPECT_STREQ(PolicyTypeName(PolicyType::kLru), "LRU");
  EXPECT_STREQ(PolicyTypeName(PolicyType::kMru), "MRU");
  EXPECT_STREQ(PolicyTypeName(PolicyType::kForward), "FOR");
}

TEST(ForwardPolicyTest, EvictsFurthestNextUse) {
  const GridPartition grid = CubicGrid(8, 2);
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kFiberOrder, grid);
  auto policy = NewForwardPolicy(schedule);
  // At position 0 (block {0,0,0} mode 0), unit (2,1) is used later than
  // (2,0) under fiber order, so among those two it is the victim.
  const ModePartition victim =
      policy->ChooseVictim({{2, 0}, {2, 1}}, /*pos=*/0);
  EXPECT_EQ(victim.mode, 2);
  EXPECT_EQ(victim.part, 1);
}

TEST(AdvisedPolicyTest, LruPrefersAdvisedDeadUnitsOverRecency) {
  const GridPartition grid = CubicGrid(16, 2);
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kFiberOrder, grid);
  auto lookahead = std::make_shared<ScheduleLookahead>(schedule);
  const int64_t horizon = schedule.virtual_iteration_length();
  // Find, at position 0, one unit the plan would call dead (next use at
  // least a virtual iteration out) and one it would not.
  ModePartition dead{-1, -1}, live{-1, -1};
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      const ModePartition unit{mode, part};
      const int64_t next = lookahead->NextUse(unit, 0);
      if (next >= horizon && dead.mode < 0) dead = unit;
      if (next < horizon && live.mode < 0) live = unit;
    }
  }
  ASSERT_GE(dead.mode, 0);
  ASSERT_GE(live.mode, 0);

  // The live unit is the *least recent*: plain LRU evicts it, while the
  // advised policy must override recency and pick the dead unit.
  auto plain = NewLruPolicy();
  plain->OnInsert(live, 0);
  plain->OnInsert(dead, 1);
  EXPECT_EQ(plain->ChooseVictim({live, dead}, 2), live);

  auto advised = NewLruPolicy(lookahead, horizon);
  advised->OnInsert(live, 0);
  advised->OnInsert(dead, 1);
  EXPECT_EQ(advised->ChooseVictim({live, dead}, 2), dead);

  // With no advised-dead candidate, recency decides exactly as before.
  EXPECT_EQ(advised->ChooseVictim({live}, 2), live);
}

TEST(AdvisedPolicyTest, RecencyBreaksTiesWithinTheAdvisedSet) {
  const GridPartition grid = CubicGrid(16, 2);
  const UpdateSchedule schedule =
      UpdateSchedule::Create(ScheduleType::kFiberOrder, grid);
  auto lookahead = std::make_shared<ScheduleLookahead>(schedule);
  const int64_t horizon = schedule.virtual_iteration_length();
  // Select units that are still advised-dead at the position the victim is
  // chosen (pos 2), matching the policy's `NextUse(unit, pos) - pos` test.
  const int64_t pos = 2;
  std::vector<ModePartition> dead;
  for (int mode = 0; mode < 3 && dead.size() < 2; ++mode) {
    for (int64_t part = 0; part < grid.parts(mode) && dead.size() < 2;
         ++part) {
      if (lookahead->NextUse({mode, part}, pos) - pos >= horizon) {
        dead.push_back({mode, part});
      }
    }
  }
  ASSERT_EQ(dead.size(), 2u);
  auto lru = NewLruPolicy(lookahead, horizon);
  lru->OnInsert(dead[0], 0);
  lru->OnInsert(dead[1], 1);
  EXPECT_EQ(lru->ChooseVictim({dead[0], dead[1]}, pos), dead[0]);
  auto mru = NewMruPolicy(lookahead, horizon);
  mru->OnInsert(dead[0], 0);
  mru->OnInsert(dead[1], 1);
  EXPECT_EQ(mru->ChooseVictim({dead[0], dead[1]}, pos), dead[1]);
}

// The FORWARD policy is Belady's algorithm on the known cyclic trace, so on
// every (schedule, buffer) configuration it must incur no more swaps than
// LRU or MRU. This is the property Figure 12 rests on.
class ForwardOptimalitySweep
    : public ::testing::TestWithParam<std::tuple<ScheduleType, double>> {};

TEST_P(ForwardOptimalitySweep, ForwardNeverWorseThanBackwardLooking) {
  const auto [type, fraction] = GetParam();
  const GridPartition grid = CubicGrid(16, 4);
  const UpdateSchedule schedule = UpdateSchedule::Create(type, grid);

  auto run = [&](PolicyType policy) {
    auto pool = MakePool(grid, 2, fraction, policy, &schedule);
    const int64_t steps = 4 * schedule.cycle_length();
    for (int64_t pos = 0; pos < steps; ++pos) {
      const Status s = pool->Access(schedule.StepAt(pos).unit(), pos);
      TPCP_CHECK(s.ok());
    }
    return pool->stats().swap_ins;
  };

  const uint64_t forward = run(PolicyType::kForward);
  EXPECT_LE(forward, run(PolicyType::kLru));
  EXPECT_LE(forward, run(PolicyType::kMru));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ForwardOptimalitySweep,
    ::testing::Combine(::testing::Values(ScheduleType::kModeCentric,
                                         ScheduleType::kFiberOrder,
                                         ScheduleType::kZOrder,
                                         ScheduleType::kHilbertOrder),
                       ::testing::Values(1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0)));

}  // namespace
}  // namespace tpcp
