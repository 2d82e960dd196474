// Tests for the asynchronous Phase-2 execution engine: the prefetch
// pipeline must change timing only — never results — and background I/O
// errors must surface through RunPhase2's status.

#include "core/phase2_engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "storage/faulty_env.h"
#include "storage/throttled_env.h"
#include "tensor/norms.h"

namespace tpcp {
namespace {

struct Fixture {
  std::unique_ptr<Env> mem;
  Env* env = nullptr;  // the Env the stores talk to (possibly a wrapper)
  std::unique_ptr<Env> wrapper;
  std::unique_ptr<BlockTensorStore> input;
  std::unique_ptr<BlockFactorStore> factors;
  DenseTensor tensor;
};

Fixture MakeFixture(const Shape& shape, int64_t parts, int64_t rank,
                    std::unique_ptr<Env> wrapper_factory(Env*) = nullptr,
                    uint64_t seed = 7) {
  Fixture f;
  f.mem = NewMemEnv();
  f.env = f.mem.get();
  if (wrapper_factory != nullptr) {
    f.wrapper = wrapper_factory(f.mem.get());
    f.env = f.wrapper.get();
  }
  GridPartition grid = GridPartition::Uniform(shape, parts);
  f.input = std::make_unique<BlockTensorStore>(f.env, "tensor", grid);
  f.factors =
      std::make_unique<BlockFactorStore>(f.env, "factors", grid, rank);
  LowRankSpec spec;
  spec.shape = shape;
  spec.rank = rank;
  spec.noise_level = 0.05;
  spec.seed = seed;
  f.tensor = MakeLowRankTensor(spec);
  TPCP_CHECK(f.input->ImportTensor(f.tensor).ok());
  return f;
}

TwoPhaseCpOptions BaseOptions(int64_t rank) {
  TwoPhaseCpOptions options;
  options.rank = rank;
  options.phase1_max_iterations = 40;
  options.max_virtual_iterations = 12;
  options.fit_tolerance = -1.0;  // fixed iteration count for comparisons
  options.buffer_fraction = 1.0 / 3.0;
  return options;
}

TEST(Phase2ConvergedTest, RequiresFiniteNonNegativeImprovementBelowTol) {
  EXPECT_TRUE(Phase2Converged(0.9005, 0.9, 1e-2));
  EXPECT_TRUE(Phase2Converged(0.9, 0.9, 1e-2));       // zero improvement
  EXPECT_FALSE(Phase2Converged(0.95, 0.9, 1e-2));     // still improving
  EXPECT_FALSE(Phase2Converged(0.89, 0.9, 1e-2));     // regression
  EXPECT_FALSE(Phase2Converged(std::nan(""), 0.9, 1e-2));
  EXPECT_FALSE(Phase2Converged(0.9, std::nan(""), 1e-2));
  EXPECT_FALSE(Phase2Converged(0.9, 0.9, -1.0));      // tolerance disabled
}

// prefetch_depth must not change a single bit of the outcome: identical fit
// traces and identical persisted factors for every lookahead depth.
TEST(Phase2AsyncTest, DeterministicAcrossPrefetchDepths) {
  struct Run {
    std::vector<double> trace;
    std::vector<Matrix> factors;
    BufferStats stats;
  };
  auto run_depth = [](int depth) {
    Fixture f = MakeFixture(Shape({16, 16, 16}), 4, 2);
    TwoPhaseCpOptions options = BaseOptions(2);
    options.prefetch_depth = depth;
    options.io_threads = 3;
    TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
    TPCP_CHECK(engine.RunPhase1().ok());
    TPCP_CHECK(engine.RunPhase2().ok());
    Run run;
    run.trace = engine.result().fit_trace;
    run.stats = engine.result().buffer_stats;
    for (int mode = 0; mode < 3; ++mode) {
      auto m = f.factors->AssembleFullFactor(mode);
      TPCP_CHECK(m.ok());
      run.factors.push_back(*std::move(m));
    }
    return run;
  };

  const Run sync = run_depth(0);
  ASSERT_FALSE(sync.trace.empty());
  for (int depth : {1, 8}) {
    const Run async = run_depth(depth);
    ASSERT_EQ(async.trace.size(), sync.trace.size()) << "depth " << depth;
    for (size_t i = 0; i < sync.trace.size(); ++i) {
      EXPECT_EQ(async.trace[i], sync.trace[i])
          << "depth " << depth << " virtual iteration " << i;
    }
    for (int mode = 0; mode < 3; ++mode) {
      EXPECT_TRUE(async.factors[static_cast<size_t>(mode)] ==
                  sync.factors[static_cast<size_t>(mode)])
          << "depth " << depth << " mode " << mode;
    }
    // One access per schedule step in both engines.
    EXPECT_EQ(async.stats.accesses, sync.stats.accesses);
  }
}

// With depth 0 the engine must not even construct a pipeline: swap counts
// match the pre-refactor synchronous engine (the swap-simulator tests pin
// the exact values; here we pin the sync/async stat split).
TEST(Phase2AsyncTest, SynchronousModeReportsNoOverlapStats) {
  Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.max_virtual_iterations = 4;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.RunPhase1().ok());
  ASSERT_TRUE(engine.RunPhase2().ok());
  EXPECT_EQ(engine.result().buffer_stats.prefetch_hits, 0u);
}

TEST(Phase2AsyncTest, AsyncModeRegistersPrefetchHits) {
  Fixture f = MakeFixture(Shape({16, 16, 16}), 4, 2);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.max_virtual_iterations = 6;
  options.prefetch_depth = 6;
  options.io_threads = 3;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.RunPhase1().ok());
  ASSERT_TRUE(engine.RunPhase2().ok());
  const BufferStats& stats = engine.result().buffer_stats;
  EXPECT_GT(stats.swap_ins, 0u);
  EXPECT_GT(stats.prefetch_hits, 0u);
  EXPECT_LE(stats.prefetch_hits, stats.swap_ins);
}

// A read failure injected into a background prefetch load must come back
// as RunPhase2's status instead of crashing a worker thread.
TEST(Phase2AsyncTest, BackgroundLoadErrorPropagates) {
  std::unique_ptr<Env> (*faulty)(Env*) = [](Env* delegate) {
    return std::unique_ptr<Env>(std::make_unique<FaultyEnv>(delegate));
  };
  Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2, faulty);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.prefetch_depth = 4;
  options.io_threads = 3;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.RunPhase1().ok());
  // RefinementState::Initialize performs 30 reads on this 2x2x2 grid (6
  // slab seeds + 8 blocks x 3 modes); allow those and fail during the
  // buffered refinement loop's unit loads (2 reads per load: A and S).
  static_cast<FaultyEnv*>(f.env)->FailReadsAfter(40);
  const Status status = engine.RunPhase2();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

// Phase 2 packs the slabs a store lacks (one written before slabs were
// packed, or with its S records deleted), and the refinement is bitwise
// the one the Phase-1-packed store gives.
TEST(Phase2AsyncTest, MissingSlabsRepackBitIdentical) {
  struct Run {
    std::vector<double> trace;
    std::vector<Matrix> factors;
  };
  auto run = [](bool drop_slabs) {
    Fixture f = MakeFixture(Shape({16, 16, 16}), 4, 2);
    TwoPhaseCpOptions options = BaseOptions(2);
    options.prefetch_depth = 2;
    TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
    TPCP_CHECK(engine.RunPhase1().ok());
    const std::vector<std::string> slabs = f.mem->ListFiles("factors/S_");
    EXPECT_EQ(slabs.size(), 12u);
    if (drop_slabs) {
      for (const std::string& name : slabs) {
        TPCP_CHECK(f.mem->DeleteFile(name).ok());
      }
    }
    TPCP_CHECK(engine.RunPhase2().ok());
    EXPECT_EQ(f.mem->ListFiles("factors/S_"), slabs);
    Run result;
    result.trace = engine.result().fit_trace;
    for (int mode = 0; mode < 3; ++mode) {
      auto m = f.factors->AssembleFullFactor(mode);
      TPCP_CHECK(m.ok());
      result.factors.push_back(*std::move(m));
    }
    return result;
  };
  const Run packed = run(false);
  const Run repacked = run(true);
  ASSERT_FALSE(packed.trace.empty());
  EXPECT_EQ(repacked.trace, packed.trace);
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_TRUE(repacked.factors[static_cast<size_t>(mode)] ==
                packed.factors[static_cast<size_t>(mode)])
        << "mode " << mode;
  }
}

// A damaged S record fails its unit's load with Corruption, whether the
// load runs on the compute thread or on a prefetch worker.
TEST(Phase2AsyncTest, CorruptSlabIsCorruption) {
  for (int depth : {0, 2}) {
    Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2);
    TwoPhaseCpOptions options = BaseOptions(2);
    options.prefetch_depth = depth;
    TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
    ASSERT_TRUE(engine.RunPhase1().ok());
    const std::string name = f.factors->SlabName(1, 0);
    std::string bytes;
    ASSERT_TRUE(f.mem->ReadFile(name, &bytes).ok());
    bytes[bytes.size() / 2] ^= 0x40;
    ASSERT_TRUE(f.mem->WriteFile(name, bytes).ok());
    const Status status = engine.RunPhase2();
    EXPECT_TRUE(status.IsCorruption())
        << "depth " << depth << ": " << status.ToString();
  }
}

// A write failure during a background dirty writeback must also surface.
TEST(Phase2AsyncTest, BackgroundWritebackErrorPropagates) {
  std::unique_ptr<Env> (*faulty)(Env*) = [](Env* delegate) {
    return std::unique_ptr<Env>(std::make_unique<FaultyEnv>(delegate));
  };
  Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2, faulty);
  TwoPhaseCpOptions options = BaseOptions(2);
  options.prefetch_depth = 4;
  options.io_threads = 3;
  TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
  ASSERT_TRUE(engine.RunPhase1().ok());
  // Allow Initialize's 6 sub-factor seed writes, then let the first few
  // dirty writebacks through before the injected full-disk failure.
  static_cast<FaultyEnv*>(f.env)->FailWritesAfter(8);
  const Status status = engine.RunPhase2();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

// A read failure in a speculative prefetch issued past the convergence
// point must not sink the finished run: the step never executes, so the
// engine still flushes the converged factors and reports success.
TEST(Phase2AsyncTest, SpeculativeLoadFailureAfterConvergenceIsBenign) {
  std::unique_ptr<Env> (*faulty)(Env*) = [](Env* delegate) {
    return std::unique_ptr<Env>(std::make_unique<FaultyEnv>(delegate));
  };
  auto make_options = [] {
    TwoPhaseCpOptions options = BaseOptions(2);
    options.fit_tolerance = 1e-3;  // converge before the iteration cap
    options.max_virtual_iterations = 60;
    options.prefetch_depth = 4;
    options.io_threads = 1;  // FIFO loads: the last reads are speculative
    return options;
  };

  // Dry run: count the Phase-2 reads of this fully deterministic config.
  uint64_t phase2_reads;
  bool converged;
  {
    Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2, faulty);
    TwoPhaseCp engine(f.input.get(), f.factors.get(), make_options());
    ASSERT_TRUE(engine.RunPhase1().ok());
    const uint64_t before = f.mem->stats().reads();
    ASSERT_TRUE(engine.RunPhase2().ok());
    phase2_reads = f.mem->stats().reads() - before;
    converged = engine.result().converged;
  }
  ASSERT_TRUE(converged);

  // Real run: fail the very last Phase-2 read — a speculative prefetch
  // for a step the converged loop never executes.
  Fixture f = MakeFixture(Shape({12, 12, 12}), 2, 2, faulty);
  TwoPhaseCp engine(f.input.get(), f.factors.get(), make_options());
  ASSERT_TRUE(engine.RunPhase1().ok());
  static_cast<FaultyEnv*>(f.env)->FailReadsAfter(
      static_cast<int64_t>(phase2_reads) - 1);
  const Status status = engine.RunPhase2();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(engine.result().converged);
  // The converged sub-factors reached the store despite the lost prefetch
  // (lift the injected failure before reading them back).
  static_cast<FaultyEnv*>(f.env)->FailReadsAfter(-1);
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_TRUE(f.factors->AssembleFullFactor(mode).ok());
  }
}

// On a throttled Env the pipeline must hide a large share of the swap
// latency: the compute thread's stall time drops well below the
// synchronous engine's, and wall-clock Phase-2 time improves — with
// identical results. The mode-centric schedule under LRU is the paper's
// pathological thrash case (nearly every step misses), which is exactly
// where concurrent in-flight loads pay off.
TEST(Phase2AsyncTest, PrefetchOverlapsIoOnThrottledEnv) {
  auto run = [](int depth) {
    std::unique_ptr<Env> (*throttled)(Env*) = [](Env* delegate) {
      return std::unique_ptr<Env>(std::make_unique<ThrottledEnv>(
          delegate, /*throughput_mb_per_sec=*/8.0, /*latency_ms=*/2.0));
    };
    Fixture f = MakeFixture(Shape({16, 16, 16}), 4, 2, throttled);
    TwoPhaseCpOptions options = BaseOptions(2);
    options.schedule = ScheduleType::kModeCentric;
    options.policy = PolicyType::kLru;
    options.buffer_fraction = 0.5;
    options.max_virtual_iterations = 6;
    options.prefetch_depth = depth;
    options.io_threads = 4;
    TwoPhaseCp engine(f.input.get(), f.factors.get(), options);
    TPCP_CHECK(engine.RunPhase1().ok());
    TPCP_CHECK(engine.RunPhase2().ok());
    return std::make_tuple(engine.result().buffer_stats,
                           engine.result().phase2_seconds,
                           engine.result().fit_trace);
  };

  const auto [sync_stats, sync_seconds, sync_trace] = run(0);
  const auto [async_stats, async_seconds, async_trace] = run(6);

  std::printf("[ overlap ] stall %.3fs -> %.3fs, wall %.3fs -> %.3fs, "
              "%llu prefetch hits\n",
              sync_stats.stall_seconds, async_stats.stall_seconds,
              sync_seconds, async_seconds,
              static_cast<unsigned long long>(async_stats.prefetch_hits));
  ASSERT_GT(sync_stats.stall_seconds, 0.0);
  EXPECT_LT(async_stats.stall_seconds, 0.75 * sync_stats.stall_seconds);
  EXPECT_LT(async_seconds, sync_seconds);
  EXPECT_GT(async_stats.prefetch_hits, 0u);
  // Overlap must not change the math.
  ASSERT_EQ(async_trace.size(), sync_trace.size());
  for (size_t i = 0; i < sync_trace.size(); ++i) {
    EXPECT_EQ(async_trace[i], sync_trace[i]);
  }
}

}  // namespace
}  // namespace tpcp
