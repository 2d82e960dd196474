// JobService: submit/poll/await/cancel lifecycle, concurrent-job
// isolation, and checkpoint resume on resubmission.

#include "api/job_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/progress_observer.h"
#include "data/synthetic.h"
#include "grid/manifest.h"

namespace tpcp {
namespace {

LowRankSpec TestSpec(uint64_t seed) {
  LowRankSpec spec;
  spec.shape = Shape({16, 16, 16});
  spec.rank = 3;
  spec.noise_level = 0.05;
  spec.seed = seed;
  return spec;
}

TwoPhaseCpOptions TestOptions() {
  TwoPhaseCpOptions options;
  options.rank = 3;
  options.phase1_max_iterations = 20;
  options.max_virtual_iterations = 8;
  options.fit_tolerance = -1.0;  // fixed work
  options.buffer_fraction = 0.5;
  return options;
}

/// Stages the seed-`seed` test tensor into `env` under "tensor".
void Stage(Env* env, uint64_t seed,
           SlabFormat format = SlabFormat::kDense) {
  GridPartition grid = GridPartition::Uniform(TestSpec(seed).shape, 2);
  auto store = BlockTensorStore::Create(env, "tensor", grid, format);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(GenerateLowRankIntoStore(TestSpec(seed), &*store).ok());
}

JobSpec SpecFor(Env* env) {
  JobSpec spec;
  spec.session.env = env;
  spec.options = TestOptions();
  return spec;
}

TEST(JobServiceTest, SubmitRejectsUnknownSolverAndBadRank) {
  JobService service(JobServiceOptions{});
  JobSpec spec;
  spec.solver = "definitely-not-a-solver";
  EXPECT_EQ(service.Submit(spec).status().code(),
            StatusCode::kInvalidArgument);
  JobSpec bad_rank;
  bad_rank.options.rank = 0;
  EXPECT_EQ(service.Submit(bad_rank).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.Poll(7).status().IsNotFound());
  EXPECT_TRUE(service.Cancel(7).IsNotFound());
}

TEST(JobServiceTest, JobOnMissingStoreFails) {
  auto env = NewMemEnv();
  JobService service(JobServiceOptions{});
  auto id = service.Submit(SpecFor(env.get()));
  ASSERT_TRUE(id.ok());
  auto info = service.Await(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_TRUE(info->status.IsNotFound()) << info->status.ToString();
}

TEST(JobServiceTest, ConcurrentJobsMatchSequentialRunsBitForBit) {
  // Two jobs on distinct stores, run together on two workers, must leave
  // exactly the factors a sequential Session run produces.
  auto seq_a = NewMemEnv();
  auto seq_b = NewMemEnv();
  auto job_a = NewMemEnv();
  auto job_b = NewMemEnv();
  Stage(seq_a.get(), 21);
  Stage(job_a.get(), 21);
  Stage(seq_b.get(), 22);
  Stage(job_b.get(), 22);

  for (Env* env : {seq_a.get(), seq_b.get()}) {
    SessionOptions options;
    options.env = env;
    auto session = Session::Open(options);
    ASSERT_TRUE(session.ok());
    auto result = (*session)->Decompose("2pcp", TestOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  JobServiceOptions service_options;
  service_options.num_workers = 2;
  JobService service(service_options);
  auto id_a = service.Submit(SpecFor(job_a.get()));
  auto id_b = service.Submit(SpecFor(job_b.get()));
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());
  auto info_a = service.Await(*id_a);
  auto info_b = service.Await(*id_b);
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  ASSERT_EQ(info_a->state, JobState::kSucceeded)
      << info_a->status.ToString();
  ASSERT_EQ(info_b->state, JobState::kSucceeded)
      << info_b->status.ToString();
  EXPECT_TRUE(info_a->result.factors_persisted);
  EXPECT_GT(info_a->result.surrogate_fit, 0.8);

  for (auto [seq_env, job_env] :
       {std::pair<Env*, Env*>{seq_a.get(), job_a.get()},
        std::pair<Env*, Env*>{seq_b.get(), job_b.get()}}) {
    auto seq_factors = BlockFactorStore::Open(seq_env, "factors");
    auto job_factors = BlockFactorStore::Open(job_env, "factors");
    ASSERT_TRUE(seq_factors.ok());
    ASSERT_TRUE(job_factors.ok());
    const GridPartition& grid = seq_factors->grid();
    for (int mode = 0; mode < grid.num_modes(); ++mode) {
      for (int64_t part = 0; part < grid.parts(mode); ++part) {
        auto lhs = seq_factors->ReadSubFactor(mode, part);
        auto rhs = job_factors->ReadSubFactor(mode, part);
        ASSERT_TRUE(lhs.ok());
        ASSERT_TRUE(rhs.ok());
        EXPECT_TRUE(*lhs == *rhs) << "mode " << mode << " part " << part;
      }
    }
  }
}

/// Blocks its job inside Phase 1 until released, so a test can line up
/// queue states deterministically.
class GateObserver : public ProgressObserver {
 public:
  void OnPhase1BlockDone(int64_t done, int64_t total,
                         double block_fit) override {
    (void)done;
    (void)total;
    (void)block_fit;
    std::unique_lock<std::mutex> lock(mu_);
    started_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  void AwaitStarted() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
};

TEST(JobServiceTest, CancelWhileQueuedNeverRuns) {
  auto env_a = NewMemEnv();
  auto env_b = NewMemEnv();
  Stage(env_a.get(), 31);
  Stage(env_b.get(), 32);

  JobServiceOptions service_options;
  service_options.num_workers = 1;  // job B must queue behind job A
  JobService service(service_options);

  GateObserver gate;
  JobSpec spec_a = SpecFor(env_a.get());
  spec_a.options.observer = &gate;
  auto id_a = service.Submit(spec_a);
  ASSERT_TRUE(id_a.ok());
  gate.AwaitStarted();  // A is running on the only worker

  auto id_b = service.Submit(SpecFor(env_b.get()));
  ASSERT_TRUE(id_b.ok());
  EXPECT_EQ(service.Poll(*id_b)->state, JobState::kQueued);
  EXPECT_TRUE(service.Cancel(*id_b).ok());
  auto info_b = service.Await(*id_b);
  ASSERT_TRUE(info_b.ok());
  EXPECT_EQ(info_b->state, JobState::kCancelled);
  EXPECT_TRUE(info_b->status.IsCancelled());
  // B never opened its session: no factor store appears.
  EXPECT_FALSE(env_b->FileExists("factors/MANIFEST"));

  gate.Release();
  auto info_a = service.Await(*id_a);
  ASSERT_TRUE(info_a.ok());
  EXPECT_EQ(info_a->state, JobState::kSucceeded)
      << info_a->status.ToString();
  const auto jobs = service.List();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, *id_a);
  EXPECT_EQ(jobs[1].id, *id_b);
}

/// Cancels its own job at a target virtual iteration (the submitter-side
/// observer is forwarded with no service lock held, so this is safe).
class CancelSelfAtVi : public ProgressObserver {
 public:
  CancelSelfAtVi(JobService* service, int at_vi)
      : service_(service), at_vi_(at_vi) {}
  void set_id(JobId id) { id_ = id; }
  void OnVirtualIteration(int iteration, double fit,
                          uint64_t swap_ins) override {
    (void)fit;
    (void)swap_ins;
    if (iteration >= at_vi_) {
      EXPECT_TRUE(service_->Cancel(id_).ok());
    }
  }

 private:
  JobService* service_;
  JobId id_ = 0;
  int at_vi_;
};

TEST(JobServiceTest, CancelRunningJobCheckpointsAndResubmitResumes) {
  auto env = NewMemEnv();
  auto ref_env = NewMemEnv();
  Stage(env.get(), 41);
  Stage(ref_env.get(), 41);

  JobServiceOptions service_options;
  service_options.num_workers = 1;
  JobService service(service_options);

  // Reference: the same job, uninterrupted.
  auto ref_id = service.Submit(SpecFor(ref_env.get()));
  ASSERT_TRUE(ref_id.ok());
  auto reference = service.Await(*ref_id);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->state, JobState::kSucceeded);

  // Cancelled at iteration 3...
  CancelSelfAtVi canceller(&service, 3);
  JobSpec spec = SpecFor(env.get());
  spec.options.observer = &canceller;
  // JobIds are dense in submission order; the next one is ref_id + 1.
  canceller.set_id(*ref_id + 1);
  auto id = service.Submit(spec);
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(*id, *ref_id + 1);
  auto cancelled = service.Await(*id);
  ASSERT_TRUE(cancelled.ok());
  ASSERT_EQ(cancelled->state, JobState::kCancelled)
      << cancelled->status.ToString();
  EXPECT_TRUE(cancelled->status.IsCancelled());
  // Within one virtual iteration of the request.
  EXPECT_EQ(cancelled->progress.virtual_iteration, 3);
  auto manifest = ReadManifest(env.get(), "factors");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_TRUE(manifest->checkpoint.has_value());

  // ...resubmitted with the very same spec: auto-resume continues from
  // the checkpoint and converges to the reference bit for bit.
  auto resumed_id = service.Submit(SpecFor(env.get()));
  ASSERT_TRUE(resumed_id.ok());
  auto resumed = service.Await(*resumed_id);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->state, JobState::kSucceeded)
      << resumed->status.ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->result.phase2_start_iteration, 3);
  EXPECT_EQ(resumed->result.fit_trace, reference->result.fit_trace);
  EXPECT_EQ(resumed->result.virtual_iterations,
            reference->result.virtual_iterations);

  auto ref_factors = BlockFactorStore::Open(ref_env.get(), "factors");
  auto factors = BlockFactorStore::Open(env.get(), "factors");
  ASSERT_TRUE(ref_factors.ok());
  ASSERT_TRUE(factors.ok());
  const GridPartition& grid = ref_factors->grid();
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      auto lhs = ref_factors->ReadSubFactor(mode, part);
      auto rhs = factors->ReadSubFactor(mode, part);
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      EXPECT_TRUE(*lhs == *rhs) << "mode " << mode << " part " << part;
    }
  }
}

TEST(JobServiceTest, CsfStoreDecomposesAndResumesLikeDense) {
  // A CSF-slab store is a drop-in for a dense one through the whole job
  // lifecycle: decompose, cancel at a checkpoint, auto-resume on
  // resubmission — and every fit along the way matches the dense store's
  // bit for bit (Phase 1 runs on the CSF slabs' non-zeros, and the CSF
  // sweep replays the dense kernels' accumulation order).
  auto csf_env = NewMemEnv();
  auto dense_env = NewMemEnv();
  Stage(csf_env.get(), 43, SlabFormat::kCsf);
  Stage(dense_env.get(), 43);

  JobServiceOptions service_options;
  service_options.num_workers = 1;
  JobService service(service_options);

  // Dense reference, uninterrupted.
  auto ref_id = service.Submit(SpecFor(dense_env.get()));
  ASSERT_TRUE(ref_id.ok());
  auto reference = service.Await(*ref_id);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->state, JobState::kSucceeded);

  // CSF run, cancelled at iteration 3...
  CancelSelfAtVi canceller(&service, 3);
  JobSpec spec = SpecFor(csf_env.get());
  spec.options.observer = &canceller;
  canceller.set_id(*ref_id + 1);
  auto id = service.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto cancelled = service.Await(*id);
  ASSERT_TRUE(cancelled.ok());
  ASSERT_EQ(cancelled->state, JobState::kCancelled);

  // ...resumes from the checkpoint and lands exactly on the dense
  // reference.
  auto resumed_id = service.Submit(SpecFor(csf_env.get()));
  ASSERT_TRUE(resumed_id.ok());
  auto resumed = service.Await(*resumed_id);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->state, JobState::kSucceeded)
      << resumed->status.ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->result.phase2_start_iteration, 3);
  EXPECT_EQ(resumed->result.fit_trace, reference->result.fit_trace);

  auto ref_factors = BlockFactorStore::Open(dense_env.get(), "factors");
  auto factors = BlockFactorStore::Open(csf_env.get(), "factors");
  ASSERT_TRUE(ref_factors.ok());
  ASSERT_TRUE(factors.ok());
  const GridPartition& grid = ref_factors->grid();
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid.parts(mode); ++part) {
      auto lhs = ref_factors->ReadSubFactor(mode, part);
      auto rhs = factors->ReadSubFactor(mode, part);
      ASSERT_TRUE(lhs.ok());
      ASSERT_TRUE(rhs.ok());
      EXPECT_TRUE(*lhs == *rhs) << "mode " << mode << " part " << part;
    }
  }
}

TEST(JobServiceTest, GridParafacCheckpointAutoResumes) {
  // grid-parafac pins its schedule inside the solver; the auto-resume
  // comparison must use the pinned (normalized) configuration, or its
  // checkpoints would never match the resubmitted spec.
  auto env = NewMemEnv();
  Stage(env.get(), 45);
  JobServiceOptions service_options;
  service_options.num_workers = 1;
  JobService service(service_options);

  CancelSelfAtVi canceller(&service, 2);
  JobSpec spec = SpecFor(env.get());
  spec.solver = "grid-parafac";
  spec.options.observer = &canceller;
  canceller.set_id(1);
  ASSERT_TRUE(service.Submit(spec).ok());
  auto cancelled = service.Await(1);
  ASSERT_TRUE(cancelled.ok());
  ASSERT_EQ(cancelled->state, JobState::kCancelled)
      << cancelled->status.ToString();

  JobSpec resubmit = SpecFor(env.get());
  resubmit.solver = "grid-parafac";
  auto id = service.Submit(resubmit);
  ASSERT_TRUE(id.ok());
  auto info = service.Await(*id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kSucceeded) << info->status.ToString();
  EXPECT_TRUE(info->resumed);
  EXPECT_GT(info->result.phase2_start_iteration, 0);
}

TEST(JobServiceTest, ResubmitWithDifferentSeedRestartsInsteadOfResuming) {
  // Auto-resume must only continue a run the new spec would have
  // produced: a different seed (different math) forces a fresh start.
  auto env = NewMemEnv();
  Stage(env.get(), 41);
  JobServiceOptions service_options;
  service_options.num_workers = 1;
  JobService service(service_options);

  CancelSelfAtVi canceller(&service, 2);
  JobSpec spec = SpecFor(env.get());
  spec.options.observer = &canceller;
  canceller.set_id(1);
  ASSERT_TRUE(service.Submit(spec).ok());
  auto cancelled = service.Await(1);
  ASSERT_TRUE(cancelled.ok());
  ASSERT_EQ(cancelled->state, JobState::kCancelled);

  JobSpec different = SpecFor(env.get());
  different.options.seed = spec.options.seed + 1;
  auto id = service.Submit(different);
  ASSERT_TRUE(id.ok());
  auto info = service.Await(*id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kSucceeded) << info->status.ToString();
  EXPECT_FALSE(info->resumed);
  EXPECT_EQ(info->result.phase2_start_iteration, 0);
  EXPECT_GT(info->result.blocks_decomposed, 0) << "phase 1 must rerun";
}

TEST(JobServiceTest, DestructorCancelsOutstandingJobs) {
  auto env = NewMemEnv();
  Stage(env.get(), 51);
  GateObserver gate;
  {
    JobServiceOptions service_options;
    service_options.num_workers = 1;
    JobService service(service_options);
    JobSpec running = SpecFor(env.get());
    running.options.observer = &gate;
    ASSERT_TRUE(service.Submit(running).ok());
    gate.AwaitStarted();
    ASSERT_TRUE(service.Submit(SpecFor(env.get())).ok());  // stays queued
    gate.Release();
    // Destruction must cancel the queued job and join cleanly.
  }
  SUCCEED();
}

TEST(JobServiceTest, SharedBudgetsCapPerJobSettings) {
  auto env = NewMemEnv();
  Stage(env.get(), 61);
  JobServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.total_threads = 4;
  service_options.total_buffer_bytes = 1 << 20;
  JobService service(service_options);
  JobSpec spec = SpecFor(env.get());
  spec.options.num_threads = 16;  // capped to 2 inside the worker
  auto id = service.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto info = service.Await(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kSucceeded) << info->status.ToString();
  // The submitted spec is reported verbatim — the cap is applied to the
  // worker's private copy, not leaked into the record.
  EXPECT_EQ(info->spec.options.num_threads, 16);
}

TEST(JobServiceTest, BoundedAwaitReturnsNonTerminalSnapshotOnTimeout) {
  auto env = NewMemEnv();
  Stage(env.get(), 71);
  GateObserver gate;
  JobServiceOptions service_options;
  service_options.num_workers = 1;
  JobService service(service_options);
  JobSpec spec = SpecFor(env.get());
  spec.options.observer = &gate;
  auto id = service.Submit(spec);
  ASSERT_TRUE(id.ok());
  gate.AwaitStarted();
  // The job is parked inside the observer: a bounded wait must come back
  // with the live (non-terminal) snapshot instead of blocking forever.
  auto running = service.Await(*id, 0.05);
  ASSERT_TRUE(running.ok());
  EXPECT_FALSE(IsTerminal(running->state));
  // Non-positive timeout is a poll.
  auto polled = service.Await(*id, 0.0);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(IsTerminal(polled->state));
  EXPECT_TRUE(service.Await(999, 0.01).status().IsNotFound());
  gate.Release();
  auto done = service.Await(*id, 30.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kSucceeded) << done->status.ToString();
}

TEST(JobServiceTest, ListFiltersByState) {
  auto env = NewMemEnv();
  Stage(env.get(), 72);
  GateObserver gate;
  JobServiceOptions service_options;
  service_options.num_workers = 1;
  JobService service(service_options);
  JobSpec running = SpecFor(env.get());
  running.options.observer = &gate;
  auto first = service.Submit(running);
  ASSERT_TRUE(first.ok());
  gate.AwaitStarted();
  auto second = service.Submit(SpecFor(env.get()));  // stays queued
  ASSERT_TRUE(second.ok());

  const auto running_jobs = service.List(JobState::kRunning);
  ASSERT_EQ(running_jobs.size(), 1u);
  EXPECT_EQ(running_jobs[0].id, *first);
  const auto queued_jobs = service.List(JobState::kQueued);
  ASSERT_EQ(queued_jobs.size(), 1u);
  EXPECT_EQ(queued_jobs[0].id, *second);
  EXPECT_TRUE(service.List(JobState::kFailed).empty());
  EXPECT_EQ(service.List().size(), 2u);

  gate.Release();
  ASSERT_TRUE(service.Await(*first).ok());
  ASSERT_TRUE(service.Await(*second).ok());
  EXPECT_EQ(service.List(JobState::kSucceeded).size(), 2u);
}

TEST(JobServiceTest, TransitionCallbackSeesEveryLifecycleEdge) {
  auto env = NewMemEnv();
  Stage(env.get(), 73);
  std::mutex mu;
  std::vector<std::pair<JobId, JobState>> transitions;
  JobServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.on_transition = [&](const JobInfo& info) {
    std::lock_guard<std::mutex> lock(mu);
    transitions.emplace_back(info.id, info.state);
  };
  JobService service(service_options);
  auto id = service.Submit(SpecFor(env.get()));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Await(*id).ok());
  // A queued job that never runs still reports its retirement.
  GateObserver gate;
  JobSpec blocker = SpecFor(env.get());
  blocker.options.observer = &gate;
  auto third = service.Submit(blocker);
  ASSERT_TRUE(third.ok());
  gate.AwaitStarted();
  auto retired = service.Submit(SpecFor(env.get()));
  ASSERT_TRUE(retired.ok());
  ASSERT_TRUE(service.Cancel(*retired).ok());
  gate.Release();
  ASSERT_TRUE(service.Await(*third).ok());

  const auto count = [&](JobId job, JobState state) {
    std::lock_guard<std::mutex> lock(mu);
    int n = 0;
    for (const auto& [id_, state_] : transitions) {
      if (id_ == job && state_ == state) ++n;
    }
    return n;
  };
  // Await is signalled by the state change itself; the terminal callback
  // may still be in flight for a moment after it returns.
  for (int spin = 0; spin < 500 && count(*third, JobState::kSucceeded) == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(count(*id, JobState::kRunning), 1);
  EXPECT_EQ(count(*id, JobState::kSucceeded), 1);
  EXPECT_EQ(count(*third, JobState::kRunning), 1);
  EXPECT_EQ(count(*third, JobState::kSucceeded), 1);
  // The retired job went queued -> cancelled without ever running.
  EXPECT_EQ(count(*retired, JobState::kRunning), 0);
  EXPECT_EQ(count(*retired, JobState::kCancelled), 1);
}

}  // namespace
}  // namespace tpcp
