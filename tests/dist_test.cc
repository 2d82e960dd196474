// Distributed Phase 2 (dist/coordinator.h + dist/worker.h). The claims
// under test are the subsystem's whole contract:
//
//   * a 2- and a 4-worker run produce factors, fit traces and convergence
//     outcomes bit-identical to a single-process Phase2Engine run of the
//     same fingerprinted plan,
//   * the coordinator's measured exchange-byte ledger equals the cluster
//     traffic model's prediction exactly (bytes and messages, up, down
//     and persist) — the property `plan --workers` summaries rely on,
//   * with supervision off, a worker crash mid-wave surfaces as a clean
//     coordinator error (no hang, worker named), leaves the base store
//     exactly at the last checkpoint, and a single-process resume
//     completes bit-identically to an uninterrupted run,
//   * with supervision on, the coordinator recovers *in-run*: it respawns
//     the fleet from the last checkpoint, degrades to a smaller fleet
//     (re-planned ownership, re-priced ledger), or finishes in-process —
//     and every recovered run stays bit-identical to an uninterrupted
//     one, with measured == predicted on the committed ledger,
//   * scripted channel chaos (drop/delay/garbage/disconnect, at wave
//     boundaries and mid-wave) is either absorbed or recovered from; the
//     run still completes bit-identically,
//   * transient storage faults are absorbed below the protocol by the
//     retry layer (no respawn needed),
//   * dead metadata absorbs are pruned on block-centric schedules: the
//     relay moves strictly fewer bytes than the unpruned protocol while
//     measured == predicted stays exact and the math does not move.
//
// Workers run as in-process threads here (ServeDistWorker is the exact
// code path the spawned `tpcp_tool dist-worker` processes execute); the
// tool-level fork/exec path is exercised by the CI dist-smoke and
// chaos-smoke jobs.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/phase2_engine.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/exchange.h"
#include "dist/faulty_channel.h"
#include "dist/worker.h"
#include "grid/block_tensor_store.h"
#include "grid/grid_partition.h"
#include "grid/manifest.h"
#include "schedule/planner.h"
#include "storage/env_uri.h"
#include "storage/faulty_env.h"
#include "storage/retry_env.h"

namespace tpcp {
namespace {

constexpr int64_t kDim = 16;
constexpr int64_t kParts = 4;
constexpr uint64_t kGenSeed = 31;

TwoPhaseCpOptions DistOptions() {
  TwoPhaseCpOptions options;
  options.rank = 3;
  options.phase1_max_iterations = 8;
  options.seed = kGenSeed;
  // Mode-centric: multi-step conflict-free waves, so the wave relay and
  // the absorb path actually carry several owners' images per wave.
  options.schedule = ScheduleType::kModeCentric;
  options.buffer_fraction = 0.5;  // workers must actually swap
  options.max_virtual_iterations = 4;
  options.fit_tolerance = -1.0;  // fixed work: never converge early
  return options;
}

GridPartition TestGrid() {
  auto grid = GridPartition::CreateUniform(Shape({kDim, kDim, kDim}), kParts);
  EXPECT_TRUE(grid.ok());
  return *grid;
}

/// Generates the synthetic input tensor into `env` and runs Phase 1, so
/// the factor store at "f" holds the block factors every Phase-2 variant
/// starts from. Deterministic: two envs prepared this way are identical.
void PreparePhase1Store(Env* env, const TwoPhaseCpOptions& options,
                        const GridPartition& grid = TestGrid()) {
  BlockTensorStore input(env, "t", grid);
  LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = options.rank;
  spec.noise_level = 0.05;
  spec.seed = kGenSeed;
  ASSERT_TRUE(GenerateLowRankIntoStore(spec, &input).ok());
  BlockFactorStore factors(env, "f", grid, options.rank);
  TwoPhaseCp cp(&input, &factors, options);
  ASSERT_TRUE(cp.RunPhase1().ok());
}

/// Uninterrupted single-process reference run in its own env.
OpenedEnv RunEngineReference(const std::string& root,
                             const TwoPhaseCpOptions& options,
                             Phase2Result* reference,
                             const GridPartition& grid = TestGrid()) {
  auto env = OpenEnv("posix://" + ::testing::TempDir() + root);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options, grid);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);
  Phase2Engine engine(&factors, options);
  EXPECT_TRUE(engine.Run(reference).ok());
  return std::move(*env);
}

/// Fault-injection plan for one in-process fleet: which worker misbehaves,
/// how, and whether on every (re)spawn or only the first.
struct SpawnFaults {
  int crash_worker = -1;
  int64_t crash_at_step = -1;
  bool crash_every_spawn = false;
  int chaos_worker = -1;
  ChaosSchedule chaos;
  bool chaos_every_spawn = false;
};

/// In-process worker fleet: each spawn runs ServeDistWorker on a thread
/// against the shared base env, exactly as a forked dist-worker process
/// would against its own mapping of the store directory.
struct WorkerFleet {
  std::vector<std::thread> threads;
  std::mutex mu;
  std::vector<Status> statuses;
  std::map<int, int> spawn_counts;

  void Join() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  ~WorkerFleet() { Join(); }
};

std::function<Status(int, int)> SpawnInProcess(WorkerFleet* fleet, Env* env,
                                               SpawnFaults faults = {}) {
  return [fleet, env, faults](int port, int worker) {
    const int spawn_index = fleet->spawn_counts[worker]++;
    DistWorkerHooks hooks;
    if (worker == faults.crash_worker &&
        (faults.crash_every_spawn || spawn_index == 0)) {
      hooks.crash_at_step = faults.crash_at_step;
    }
    if (worker == faults.chaos_worker &&
        (faults.chaos_every_spawn || spawn_index == 0)) {
      hooks.chaos = faults.chaos;
    }
    fleet->threads.emplace_back([fleet, env, hooks, port, worker] {
      const Status status = ServeDistWorker(env, "f", port, worker, hooks);
      std::lock_guard<std::mutex> lock(fleet->mu);
      fleet->statuses.push_back(status);
    });
    return Status::OK();
  };
}

void ExpectFactorsBitIdentical(Env* lhs_env, Env* rhs_env, int64_t rank,
                               const GridPartition& grid = TestGrid()) {
  BlockFactorStore lhs(lhs_env, "f", grid, rank);
  BlockFactorStore rhs(rhs_env, "f", grid, rank);
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      auto a = lhs.ReadSubFactor(mode, part);
      auto b = rhs.ReadSubFactor(mode, part);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_TRUE(*a == *b) << "mode " << mode << " part " << part;
    }
  }
}

/// Measured == predicted, exactly, for every worker slot of the ledger.
void ExpectLedgerExact(const DistributedRunResult& result) {
  ASSERT_EQ(result.measured.size(), result.predicted.size());
  for (size_t w = 0; w < result.measured.size(); ++w) {
    EXPECT_EQ(result.measured[w].up_bytes, result.predicted[w].up_bytes)
        << "worker " << w;
    EXPECT_EQ(result.measured[w].down_bytes, result.predicted[w].down_bytes)
        << "worker " << w;
    EXPECT_EQ(result.measured[w].up_messages, result.predicted[w].up_messages)
        << "worker " << w;
    EXPECT_EQ(result.measured[w].down_messages,
              result.predicted[w].down_messages)
        << "worker " << w;
    EXPECT_EQ(result.measured_persist_bytes[w],
              result.predicted_persist_bytes[w])
        << "worker " << w;
  }
}

void ExpectPhase2Equal(const Phase2Result& got, const Phase2Result& want) {
  EXPECT_EQ(got.virtual_iterations, want.virtual_iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.surrogate_fit, want.surrogate_fit);
  EXPECT_EQ(got.fit_trace, want.fit_trace);
  EXPECT_EQ(got.start_iteration, want.start_iteration);
}

bool LogsContain(const std::vector<std::string>& logs,
                 const std::string& needle) {
  for (const std::string& line : logs) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// The plan both the engine and the coordinator derive from `options` —
/// rebuilt here so tests can reason about positions and fingerprints.
ExecutionPlan PlanFor(const TwoPhaseCpOptions& options,
                      const GridPartition& grid = TestGrid()) {
  return Planner::Build(UpdateSchedule::Create(options.schedule, grid),
                        Phase2PlannerOptions(options, grid));
}

/// First plan position in the second virtual iteration owned by worker 1
/// of a 2-worker fleet (per the weighted ownership map) — a mid-wave
/// crash point *after* the vi-0 checkpoint exists.
int64_t CrashPosInSecondVi(const ExecutionPlan& plan, int64_t rank) {
  const DistributedPlan dplan(&plan, rank, 2);
  const int64_t vi_len = plan.virtual_iteration_length();
  for (int64_t pos = vi_len; pos < 2 * vi_len; ++pos) {
    if (dplan.OwnerAt(pos) == 1) return pos;
  }
  return -1;
}

bool NoDelayOn(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value != 0;
}

TEST(DistChannelTest, BothEndsDisableNagle) {
  // Small protocol frames must not wait for the peer's delayed ACK: the
  // accepted and the connected socket both carry TCP_NODELAY.
  int port = 0;
  auto listen_fd = DistListen(&port);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
  auto client = DistConnect(port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = DistAccept(*listen_fd, 5000);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(NoDelayOn((*client)->fd()));
  EXPECT_TRUE(NoDelayOn((*server)->fd()));
  ::close(*listen_fd);
}

JsonValue Frame(const std::string& text) {
  auto v = JsonValue::Parse(text);
  EXPECT_TRUE(v.ok()) << text;
  return v.ok() ? *v : JsonValue();
}

// Each frame once crashed, or corrupted the heap of, the process that
// decoded it; every one must come back as InvalidArgument.
TEST(DistWireTest, HostileFramesAreRejectedNotFatal) {
  // 2^62 x 4 x 4 overflows the element count.
  auto grid = DecodeGrid(Frame(
      R"({"dims":[4611686018427387904,4,4],"parts":[1,1,1]})"));
  EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument)
      << grid.status().ToString();
  for (const char* frame : {R"({"dims":[0,4,4],"parts":[1,1,1]})",
                            R"({"dims":[],"parts":[]})"}) {
    EXPECT_EQ(DecodeGrid(Frame(frame)).status().code(),
              StatusCode::kInvalidArgument)
        << frame;
  }

  // rows*cols*8 wraps to 0 (2^62 x 4), or past size_t (2^61 x 1).
  for (const char* frame : {R"({"r":4611686018427387904,"c":4,"d":""})",
                            R"({"r":2305843009213693952,"c":1,"d":""})"}) {
    EXPECT_EQ(DecodeMatrix(Frame(frame)).status().code(),
              StatusCode::kInvalidArgument)
        << frame;
  }

  Matrix out(4, 1);
  // A huge claimed shape, and a slice whose end overflows int64: neither
  // may size an allocation or reach the copy.
  for (const char* frame :
       {R"({"r":2305843009213693952,"c":1,"r0":0,"rc":1,"d":"AAAAAAAAAAA="})",
        R"({"r":4,"c":1,"r0":9223372036854775807,"rc":1,"d":"AAAAAAAAAAA="})",
        R"({"r":4,"c":2,"r0":0,"rc":1,"d":"AAAAAAAAAAAAAAAAAAAAAA=="})"}) {
    EXPECT_EQ(DecodeMatrixRowsInto(Frame(frame), &out).code(),
              StatusCode::kInvalidArgument)
        << frame;
  }
  // A well-formed chunk still lands in its rows.
  Matrix src{{1.0}, {2.0}, {3.0}, {4.0}};
  ASSERT_TRUE(DecodeMatrixRowsInto(EncodeMatrixRows(src, 1, 2), &out).ok());
  EXPECT_EQ(out(1, 0), 2.0);
  EXPECT_EQ(out(2, 0), 3.0);
}

TEST(DistPhase2Test, WorkersProduceBitIdenticalFactorsAndExactByteLedger) {
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_ref", options, &reference);
  ASSERT_EQ(reference.virtual_iterations, options.max_virtual_iterations);

  const ExecutionPlan plan = PlanFor(options);
  const GridPartition grid = TestGrid();

  for (const int workers : {2, 4}) {
    const std::string root =
        ::testing::TempDir() + "dist_w" + std::to_string(workers);
    auto env = OpenEnv("posix://" + root);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    PreparePhase1Store(env->get(), options);
    BlockFactorStore factors(env->get(), "f", grid, options.rank);

    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = workers;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, options, dopts, &result);
    fleet.Join();
    ASSERT_TRUE(status.ok()) << workers << " workers: " << status.ToString();
    ASSERT_EQ(fleet.statuses.size(), static_cast<size_t>(workers));
    for (const Status& worker_status : fleet.statuses) {
      EXPECT_TRUE(worker_status.ok()) << worker_status.ToString();
    }

    // Engine-equivalent result, bit for bit; a clean run reports no
    // recovery activity.
    ExpectPhase2Equal(result.phase2, reference);
    EXPECT_EQ(result.plan_fingerprint, plan.fingerprint());
    EXPECT_EQ(result.respawns, 0);
    EXPECT_EQ(result.degrades, 0);
    EXPECT_EQ(result.final_workers, workers);
    EXPECT_FALSE(result.finished_single_process);
    EXPECT_EQ(result.wasted_bytes, 0u);
    ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);

    // The byte ledger: what the coordinator counted on the wire equals
    // what DistributedPlan predicted, exactly, per worker.
    ASSERT_EQ(result.measured.size(), static_cast<size_t>(workers));
    ExpectLedgerExact(result);
    for (int w = 0; w < workers; ++w) {
      // The run did move data: every worker uploaded something at some
      // persist boundary unless it owns nothing (possible only when
      // workers > partitions, not the case here).
      EXPECT_GT(result.measured[static_cast<size_t>(w)].up_bytes +
                    result.measured[static_cast<size_t>(w)].down_bytes,
                0u);
    }
  }
}

// A store without packed S records (written before slabs were packed, or
// with them deleted) gets them from the coordinator before any worker
// loads: the fleet runs clean and bit-identical to the engine.
TEST(DistPhase2Test, StoreWithoutPackedSlabsRunsBitIdentical) {
  const TwoPhaseCpOptions options = DistOptions();
  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_unpacked_ref", options, &reference);

  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_unpacked");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  for (const std::string& name : (*env)->ListFiles("f/S_")) {
    ASSERT_TRUE((*env)->DeleteFile(name).ok());
  }
  BlockFactorStore factors(env->get(), "f", TestGrid(), options.rank);
  WorkerFleet fleet;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
  DistributedRunResult result;
  const Status status =
      RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 0);
  EXPECT_FALSE(result.finished_single_process);
  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  EXPECT_EQ((*env)->ListFiles("f/S_").size(),
            static_cast<size_t>(3 * kParts));
}

TEST(DistPhase2Test, WorkerCrashMidWaveFailsCleanAndResumesBitIdentical) {
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_crash_ref", options, &reference);

  // Crash worker 1 just before its first owned step of the second virtual
  // iteration — after the vi-0 checkpoint exists, in the middle of a wave.
  const ExecutionPlan plan = PlanFor(options);
  const int64_t vi_len = plan.virtual_iteration_length();
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0) << "worker 1 owns nothing in vi 1?";

  const GridPartition grid = TestGrid();
  const std::string root = ::testing::TempDir() + "dist_crash";
  auto env = OpenEnv("posix://" + root);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  {
    WorkerFleet fleet;
    SpawnFaults faults;
    faults.crash_worker = 1;
    faults.crash_at_step = crash_pos;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    // Supervision off: this test pins the *unsupervised* contract — fail
    // clean, leave the checkpoint, let the operator resume.
    dopts.max_respawns = 0;
    dopts.degrade = DegradeMode::kOff;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, options, dopts, &result);
    fleet.Join();
    // Clean coordinator error naming the worker — not OK, not a hang
    // (the test's own timeout enforces the latter).
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("dist worker"), std::string::npos)
        << status.ToString();
  }

  // The base store sits exactly at the last checkpoint: the vi-0 cut,
  // with its cursor and one-entry fit trace.
  auto manifest = ReadManifest(env->get(), "f");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_TRUE(manifest->checkpoint.has_value())
      << "crash erased the checkpoint";
  EXPECT_EQ(manifest->checkpoint->iteration, 1);
  EXPECT_EQ(manifest->checkpoint->cursor, vi_len);
  EXPECT_EQ(manifest->checkpoint->fit_trace.size(), 1u);
  EXPECT_EQ(manifest->checkpoint->plan_fingerprint, plan.fingerprint());

  // A plain single-process resume picks the checkpoint up and finishes
  // bit-identically to the uninterrupted run.
  TwoPhaseCpOptions resume_options = options;
  resume_options.resume_phase2 = true;
  Phase2Result resumed;
  ASSERT_TRUE(Phase2Engine(&factors, resume_options).Run(&resumed).ok());
  EXPECT_EQ(resumed.start_iteration, 1);
  EXPECT_EQ(resumed.virtual_iterations, reference.virtual_iterations);
  EXPECT_EQ(resumed.surrogate_fit, reference.surrogate_fit);
  EXPECT_EQ(resumed.fit_trace, reference.fit_trace);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
}

TEST(DistPhase2Test, SupervisorRespawnsCrashedWorkerInRunBitIdentical) {
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_respawn_ref", options, &reference);

  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_respawn");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;  // first spawn only: the respawn is clean
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  // No operator in the loop: the run completes by itself.
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 1);
  EXPECT_EQ(result.degrades, 0);
  EXPECT_EQ(result.final_workers, 2);
  EXPECT_FALSE(result.finished_single_process);
  // The crashed attempt had moved wave bytes past the vi-0 checkpoint;
  // those were rolled back into wasted_bytes, keeping the committed
  // ledger exact.
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_TRUE(LogsContain(logs, "respawning fleet of 2")) << logs.size();

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  ExpectLedgerExact(result);

  // The recovered store carries a plain manifest — no checkpoint residue.
  auto manifest = ReadManifest(env->get(), "f");
  ASSERT_TRUE(manifest.ok());
  EXPECT_FALSE(manifest->checkpoint.has_value());
}

TEST(DistPhase2Test, SupervisorDegradesToSmallerFleetBitIdentical) {
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_shrink_ref", options, &reference);

  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_shrink");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;
  faults.crash_every_spawn = true;  // worker 1 is a lemon: every spawn dies
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.max_respawns = 1;
  dopts.degrade = DegradeMode::kShrink;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  // One respawn (crashes again), then the supervisor sheds worker 1 and
  // the single-worker fleet finishes: re-planned ownership, re-priced
  // ledger, same bytes in the store.
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 1);
  EXPECT_EQ(result.degrades, 1);
  EXPECT_EQ(result.final_workers, 1);
  EXPECT_FALSE(result.finished_single_process);
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_TRUE(LogsContain(logs, "degrading to 1 worker(s)"));

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  // Worker 0's slots carry the committed 2-worker windows plus the
  // re-priced 1-worker remainder; worker 1's slots carry only its
  // committed windows. Exact either way.
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, SupervisorFallsBackToSingleProcessBitIdentical) {
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_single_ref", options, &reference);

  // Crash in the *first* virtual iteration: no checkpoint exists yet, so
  // the fallback engine resumes from the coordinator's fresh-run seeds —
  // the no-checkpoint resume path.
  const ExecutionPlan plan = PlanFor(options);
  int64_t crash_pos = -1;
  for (int64_t pos = 0; pos < plan.virtual_iteration_length(); ++pos) {
    if (plan.UnitAt(pos).part % 2 == 1) {
      crash_pos = pos;
      break;
    }
  }
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_single");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;
  faults.crash_every_spawn = true;
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.heartbeat_ms = 100;
  dopts.max_respawns = 0;
  dopts.degrade = DegradeMode::kSingle;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 0);
  EXPECT_EQ(result.degrades, 1);
  EXPECT_EQ(result.final_workers, 0);
  EXPECT_TRUE(result.finished_single_process);
  EXPECT_TRUE(LogsContain(logs, "single-process finish"));

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
}

TEST(DistPhase2Test, ChannelChaosIsAbsorbedOrRecoveredBitIdentical) {
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_chaos_ref", options, &reference);
  const GridPartition grid = TestGrid();

  struct Case {
    const char* name;
    ChaosEvent event;
    bool expect_recovery;  // else the fault must be absorbed silently
  };
  // Worker-1 send frames: 0 hello, 1 ready, 2.. first-wave xchg images,
  // then wave_done/wave_ack/… — so index 0 hits fleet formation, 2 hits
  // the first image of a wave (a wave boundary), and higher indices land
  // mid-protocol. Recv frames: 0 init, 1 first wave, 2 first absorb.
  const std::vector<Case> cases = {
      {"drop_hello_at_formation",
       {ChaosEvent::Op::kDrop, ChaosEvent::Dir::kSend, 0, 0},
       true},
      {"drop_first_wave_image",
       {ChaosEvent::Op::kDrop, ChaosEvent::Dir::kSend, 2, 0},
       true},
      {"drop_absorb_mid_wave",
       {ChaosEvent::Op::kDrop, ChaosEvent::Dir::kRecv, 2, 0},
       true},
      {"garbage_mid_wave",
       {ChaosEvent::Op::kGarbage, ChaosEvent::Dir::kSend, 5, 0},
       true},
      {"disconnect_mid_run",
       {ChaosEvent::Op::kDisconnect, ChaosEvent::Dir::kSend, 10, 0},
       true},
      {"delay_absorbed_by_heartbeats",
       {ChaosEvent::Op::kDelay, ChaosEvent::Dir::kSend, 3, 1500},
       false},
  };

  int case_index = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_chaos_" +
                       std::to_string(case_index++));
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    PreparePhase1Store(env->get(), options);
    BlockFactorStore factors(env->get(), "f", grid, options.rank);

    WorkerFleet fleet;
    SpawnFaults faults;
    faults.chaos_worker = 1;
    faults.chaos.events.push_back(c.event);
    std::vector<std::string> logs;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.heartbeat_ms = 100;  // coordinator deadline 1s, worker 6s
    dopts.accept_timeout_ms = 1500;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
    dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, options, dopts, &result);
    fleet.Join();

    ASSERT_TRUE(status.ok()) << status.ToString();
    if (c.expect_recovery) {
      EXPECT_GE(result.respawns, 1);
      EXPECT_TRUE(LogsContain(logs, "respawning fleet"));
    } else {
      EXPECT_EQ(result.respawns, 0);
      EXPECT_TRUE(logs.empty());
    }
    EXPECT_EQ(result.degrades, 0);
    ExpectPhase2Equal(result.phase2, reference);
    ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
    ExpectLedgerExact(result);
  }
}

TEST(DistPhase2Test, TransientStorageFaultsAbsorbedWithoutRecovery) {
  const TwoPhaseCpOptions options = DistOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_flaky_ref", options, &reference);
  const GridPartition grid = TestGrid();

  auto base = OpenEnv("posix://" + ::testing::TempDir() + "dist_flaky");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  PreparePhase1Store(base->get(), options);  // fault-free preparation

  // Every 7th read and every 9th write fails once, run-wide. Workers read
  // the base store through their built-in retry layer; the coordinator's
  // store writes go through an explicit RetryEnv. No fault ever reaches
  // the protocol, so supervision has nothing to do — prove it by turning
  // it off.
  FaultyEnv flaky(base->get());
  flaky.TransientReadFaultEvery(7);
  flaky.TransientWriteFaultEvery(9);
  RetryEnv coordinator_env(&flaky, RetryPolicy());
  BlockFactorStore factors(&coordinator_env, "f", grid, options.rank);

  WorkerFleet fleet;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.max_respawns = 0;
  dopts.degrade = DegradeMode::kOff;
  dopts.spawn_worker = SpawnInProcess(&fleet, &flaky);
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 0);
  EXPECT_EQ(result.degrades, 0);
  for (const Status& worker_status : fleet.statuses) {
    EXPECT_TRUE(worker_status.ok()) << worker_status.ToString();
  }
  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), base->get(), options.rank);
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, DeadAbsorbPruningShrinksLedgerAndPreservesMath) {
  // Block-centric schedule: units refresh once per slab block per cycle,
  // so most images die before anyone reads them — the pruning win the
  // mode-centric tests cannot show (there every image is fit-live and the
  // existing hand-count ledger tests pin the no-op).
  TwoPhaseCpOptions options = DistOptions();
  options.schedule = ScheduleType::kFiberOrder;
  options.max_virtual_iterations = 2;

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_prune_ref", options, &reference);
  const GridPartition grid = TestGrid();

  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_prune");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
  DistributedRunResult result;
  const Status status = RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Pruning is pure bandwidth: the math does not move.
  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  // And the model still prices the relay exactly.
  ExpectLedgerExact(result);

  // The relay moved strictly fewer bytes than the unpruned protocol
  // (every non-owner downloads every image) would have.
  const ExecutionPlan plan = PlanFor(options);
  const DistributedPlan dplan(&plan, options.rank, 2);
  const int64_t executed = static_cast<int64_t>(
      result.phase2.virtual_iterations * plan.virtual_iteration_length());
  uint64_t unpruned_down = 0;
  uint64_t live_down = 0;
  for (int64_t pos = 0; pos < executed; ++pos) {
    for (int v = 0; v < 2; ++v) {
      if (dplan.OwnerAt(pos) == v) continue;
      unpruned_down += dplan.StepExchangeBytes(pos);
      if (dplan.ImageLiveFor(pos, v)) {
        live_down += dplan.StepExchangeBytes(pos);
      }
    }
  }
  const uint64_t measured_down =
      result.measured[0].down_bytes + result.measured[1].down_bytes;
  EXPECT_EQ(measured_down, live_down);
  EXPECT_LT(measured_down, unpruned_down)
      << "fiber-order run relayed every image — pruning did nothing";
}

/// Fiber-order options: singleton waves whose live images the liveness
/// analysis can actually defer — mode-centric waves keep every worker
/// busy every wave, so overlap would be a trivial no-op there.
TwoPhaseCpOptions OverlapOptions() {
  TwoPhaseCpOptions options = DistOptions();
  options.schedule = ScheduleType::kFiberOrder;
  options.max_virtual_iterations = 2;
  return options;
}

TEST(DistPhase2Test, OverlapPipelineBitIdenticalAndExactLedger) {
  const TwoPhaseCpOptions options = OverlapOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_overlap_ref", options, &reference);
  const GridPartition grid = TestGrid();

  for (const int workers : {2, 4}) {
    for (const bool overlap : {false, true}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, overlap " +
                   (overlap ? "on" : "off"));
      const std::string root = ::testing::TempDir() + "dist_overlap_w" +
                               std::to_string(workers) +
                               (overlap ? "_on" : "_off");
      auto env = OpenEnv("posix://" + root);
      ASSERT_TRUE(env.ok()) << env.status().ToString();
      PreparePhase1Store(env->get(), options);
      BlockFactorStore factors(env->get(), "f", grid, options.rank);

      WorkerFleet fleet;
      DistributedRunOptions dopts;
      dopts.num_workers = workers;
      dopts.overlap = overlap;
      dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
      DistributedRunResult result;
      const Status status =
          RunDistributedPhase2(&factors, options, dopts, &result);
      fleet.Join();
      ASSERT_TRUE(status.ok()) << status.ToString();
      for (const Status& worker_status : fleet.statuses) {
        EXPECT_TRUE(worker_status.ok()) << worker_status.ToString();
      }

      // The pipeline is pure latency hiding: identical math, identical
      // wire ledger — only the telemetry shows the deferral happened.
      ExpectPhase2Equal(result.phase2, reference);
      ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
      ExpectLedgerExact(result);
      if (overlap) {
        EXPECT_GT(result.overlapped_bytes, 0u)
            << "fiber-order run deferred nothing — the pipeline idled";
        EXPECT_GE(result.hidden_seconds, 0.0);
      } else {
        EXPECT_EQ(result.overlapped_bytes, 0u);
        EXPECT_EQ(result.hidden_seconds, 0.0);
      }
    }
  }
}

TEST(DistPhase2Test, OverlapSupervisorRecoveryBitIdentical) {
  // A worker dies mid-pipelined-wave (deferred relays in flight): the
  // supervisor must tear down, roll the ledger — including the overlap
  // telemetry — back to the vi-0 checkpoint, and replay byte-identically.
  const TwoPhaseCpOptions options = OverlapOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_overlap_crash_ref", options, &reference);

  const ExecutionPlan plan = PlanFor(options);
  // Strictly past the first step of vi 1: fiber-order waves are
  // singletons, so a crash at vi 1's very first step would waste nothing
  // — at least one committed-then-rolled-back step must precede it.
  const DistributedPlan dplan(&plan, options.rank, 2);
  const int64_t vi_len = plan.virtual_iteration_length();
  int64_t crash_pos = -1;
  for (int64_t pos = vi_len + 1; pos < 2 * vi_len; ++pos) {
    if (dplan.OwnerAt(pos) == 1) {
      crash_pos = pos;
      break;
    }
  }
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_overlap_crash");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.crash_worker = 1;
  faults.crash_at_step = crash_pos;  // first spawn only
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.overlap = true;
  dopts.heartbeat_ms = 100;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status =
      RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.respawns, 1);
  EXPECT_EQ(result.degrades, 0);
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_GT(result.overlapped_bytes, 0u);
  EXPECT_TRUE(LogsContain(logs, "respawning fleet of 2"));

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, OverlapChaosDisconnectMidRelayRecoversExactly) {
  // A disconnect landing while the previous wave's deferred image set is
  // mid-relay: the half-relayed bytes were already counted on the wire,
  // so the rollback must move exactly them (plus the rest of the attempt
  // past its checkpoint) into wasted_bytes, keeping the committed ledger
  // exact — and the replay must stay bit-identical.
  const TwoPhaseCpOptions options = OverlapOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_overlap_chaos_ref", options, &reference);
  const GridPartition grid = TestGrid();

  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_overlap_chaos");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);

  WorkerFleet fleet;
  SpawnFaults faults;
  faults.chaos_worker = 1;
  // Worker-1 recv frames: 0 init, then waves and relayed absorbs. Under
  // overlap on fiber-order, the absorbs arriving while a wave computes
  // are exactly the deferred ones — index 8 lands the disconnect in that
  // stream, mid-run.
  faults.chaos.events.push_back(
      {ChaosEvent::Op::kDisconnect, ChaosEvent::Dir::kRecv, 8, 0});
  std::vector<std::string> logs;
  DistributedRunOptions dopts;
  dopts.num_workers = 2;
  dopts.overlap = true;
  dopts.heartbeat_ms = 100;
  dopts.accept_timeout_ms = 1500;
  dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
  dopts.log = [&logs](const std::string& line) { logs.push_back(line); };
  DistributedRunResult result;
  const Status status =
      RunDistributedPhase2(&factors, options, dopts, &result);
  fleet.Join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(result.respawns, 1);
  EXPECT_TRUE(LogsContain(logs, "respawning fleet"));
  // The severed attempt had relayed bytes (possibly half an image set);
  // they rolled into wasted_bytes, not the committed ledger.
  EXPECT_GT(result.wasted_bytes, 0u);
  EXPECT_GT(result.overlapped_bytes, 0u);

  ExpectPhase2Equal(result.phase2, reference);
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
  ExpectLedgerExact(result);
}

TEST(DistPhase2Test, ResumeUnderDifferentOwnershipMapIsRejected) {
  const TwoPhaseCpOptions options = DistOptions();

  // Crash an unsupervised 2-worker run after the vi-0 checkpoint: the
  // manifest now records the 2-worker ownership fingerprint.
  const ExecutionPlan plan = PlanFor(options);
  const int64_t crash_pos = CrashPosInSecondVi(plan, options.rank);
  ASSERT_GE(crash_pos, 0);

  const GridPartition grid = TestGrid();
  auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_own_resume");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  PreparePhase1Store(env->get(), options);
  BlockFactorStore factors(env->get(), "f", grid, options.rank);
  {
    WorkerFleet fleet;
    SpawnFaults faults;
    faults.crash_worker = 1;
    faults.crash_at_step = crash_pos;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.max_respawns = 0;
    dopts.degrade = DegradeMode::kOff;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get(), faults);
    DistributedRunResult result;
    ASSERT_FALSE(
        RunDistributedPhase2(&factors, options, dopts, &result).ok());
    fleet.Join();
  }
  auto manifest = ReadManifest(env->get(), "f");
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->checkpoint.has_value());
  EXPECT_NE(manifest->checkpoint->ownership_fingerprint, 0u);

  // Resuming with a different fleet size would replay the cursor against
  // a different ownership map: rejected before any worker spawns.
  TwoPhaseCpOptions resume_options = options;
  resume_options.resume_phase2 = true;
  {
    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = 3;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, resume_options, dopts, &result);
    fleet.Join();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_NE(status.ToString().find("ownership"), std::string::npos)
        << status.ToString();
  }

  // The original fleet size picks the checkpoint up and finishes
  // bit-identically to an uninterrupted run.
  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_own_resume_ref", options, &reference);
  {
    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = 2;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, resume_options, dopts, &result);
    fleet.Join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(result.phase2.start_iteration, 1);
    EXPECT_EQ(result.phase2.surrogate_fit, reference.surrogate_fit);
    EXPECT_EQ(result.phase2.fit_trace, reference.fit_trace);
  }
  ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank);
}

TEST(DistPhase2Test, SkewedStoreFleetSizesBitIdentical) {
  // One giant part: mode 0 is a single unit spanning twice the dim, so
  // part % N would pile its every step *and* every part-0 step onto
  // worker 0. The weighted map spreads the rest; the math must not care
  // either way, for 2 and 4 workers, overlap on.
  auto skew = GridPartition::Create(Shape({2 * kDim, kDim, kDim}),
                                    {1, kParts, kParts});
  ASSERT_TRUE(skew.ok()) << skew.status().ToString();
  TwoPhaseCpOptions options = OverlapOptions();

  Phase2Result reference;
  OpenedEnv ref_env =
      RunEngineReference("dist_skew_ref", options, &reference, *skew);

  for (const int workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    auto env = OpenEnv("posix://" + ::testing::TempDir() + "dist_skew_w" +
                       std::to_string(workers));
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    PreparePhase1Store(env->get(), options, *skew);
    BlockFactorStore factors(env->get(), "f", *skew, options.rank);

    WorkerFleet fleet;
    DistributedRunOptions dopts;
    dopts.num_workers = workers;
    dopts.overlap = true;
    dopts.spawn_worker = SpawnInProcess(&fleet, env->get());
    DistributedRunResult result;
    const Status status =
        RunDistributedPhase2(&factors, options, dopts, &result);
    fleet.Join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectPhase2Equal(result.phase2, reference);
    ExpectFactorsBitIdentical(ref_env.get(), env->get(), options.rank,
                              *skew);
    ExpectLedgerExact(result);
  }
}

}  // namespace
}  // namespace tpcp
