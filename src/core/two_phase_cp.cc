#include "core/two_phase_cp.h"

#include <cmath>
#include <mutex>

#include "core/phase2_engine.h"
#include "core/progress_observer.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpcp {
namespace {

// Reads and decomposes one block. Dense slabs run the dense sweep; COO
// and CSF slabs run CP-ALS on their non-zeros, which replays the dense
// sweep's accumulation order and so yields the same bits.
Result<KruskalTensor> DecomposeBlock(const BlockTensorStore& input,
                                     const BlockIndex& block,
                                     const CpAlsOptions& als,
                                     CpAlsReport* report) {
  if (input.format() == SlabFormat::kDense) {
    TPCP_ASSIGN_OR_RETURN(const DenseTensor chunk, input.ReadBlock(block));
    return CpAls(chunk, als, report);
  }
  TPCP_ASSIGN_OR_RETURN(const CsfTensor chunk, input.ReadBlockCsf(block));
  return CpAls(chunk, als, report);
}

}  // namespace

TwoPhaseCp::TwoPhaseCp(BlockTensorStore* input, BlockFactorStore* factors,
                       TwoPhaseCpOptions options)
    : input_(input), factors_(factors), options_(std::move(options)) {
  TPCP_CHECK(input_->grid() == factors_->grid())
      << "input store and factor store must share one grid";
  TPCP_CHECK_EQ(factors_->rank(), options_.rank);
}

Status TwoPhaseCp::RunPhase1(ThreadPool* pool) {
  Stopwatch watch;
  const GridPartition& grid = input_->grid();
  const std::vector<BlockIndex> blocks = grid.AllBlocks();
  const int n = grid.num_modes();

  CpAlsOptions als;
  als.rank = options_.rank;
  als.max_iterations = options_.phase1_max_iterations;
  als.fit_tolerance = options_.phase1_fit_tolerance;
  als.ridge = options_.phase1_ridge;
  als.init = options_.init;

  std::mutex mu;
  Status first_error = Status::OK();
  double fit_sum = 0.0;
  int64_t blocks_done = 0;

  auto decompose_one = [&](int64_t i) {
    const BlockIndex& block = blocks[static_cast<size_t>(i)];
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) {
        first_error = Status::Cancelled("phase 1 cancelled");
      }
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!first_error.ok()) return;
    }
    CpAlsOptions local = als;
    local.seed = options_.seed + 0x9e37u * static_cast<uint64_t>(i + 1);
    CpAlsReport report;
    Result<KruskalTensor> decomposed =
        DecomposeBlock(*input_, block, local, &report);
    if (!decomposed.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = decomposed.status();
      return;
    }
    KruskalTensor& sub = decomposed.value();
    // Spread lambda evenly across modes so stored factors carry the full
    // magnitude (U-products reconstruct the block without a weight vector).
    for (int64_t c = 0; c < sub.rank(); ++c) {
      const double lam = sub.lambda()[static_cast<size_t>(c)];
      const double scale =
          lam > 0.0 ? std::pow(lam, 1.0 / static_cast<double>(n)) : 0.0;
      for (int mode = 0; mode < n; ++mode) {
        Matrix& f = sub.factor(mode);
        for (int64_t r = 0; r < f.rows(); ++r) f(r, c) *= scale;
      }
    }
    for (int mode = 0; mode < n; ++mode) {
      const Status s =
          factors_->WriteBlockFactor(block, mode, sub.factor(mode));
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = s;
        return;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    fit_sum += report.final_fit;
    ++blocks_done;
    if (options_.observer != nullptr) {
      // Under the mutex: observers see serialized calls even when blocks
      // decompose on worker threads.
      options_.observer->OnPhase1BlockDone(
          blocks_done, static_cast<int64_t>(blocks.size()),
          report.final_fit);
    }
  };

  ParallelFor(pool, 0, static_cast<int64_t>(blocks.size()), decompose_one);
  TPCP_RETURN_IF_ERROR(first_error);
  // Every block write dropped the S records it fed; pack them afresh so
  // Phase 2 loads each unit in two reads.
  TPCP_RETURN_IF_ERROR(factors_->PackMissingSlabs(pool));

  result_.phase1_seconds = watch.ElapsedSeconds();
  result_.blocks_decomposed = static_cast<int64_t>(blocks.size());
  result_.phase1_mean_block_fit =
      fit_sum / static_cast<double>(blocks.size());
  phase1_done_ = true;
  if (options_.observer != nullptr) {
    options_.observer->OnPhase1Done(result_.phase1_seconds,
                                    result_.phase1_mean_block_fit);
  }
  return Status::OK();
}

Status TwoPhaseCp::RunPhase2() {
  TPCP_CHECK(phase1_done_) << "RunPhase2 requires RunPhase1 first";
  Phase2Engine engine(factors_, options_);
  Phase2Result phase2;
  const Status status = engine.Run(&phase2);
  if (!status.ok() && !status.IsCancelled()) return status;
  // Copy the phase's outcome on success AND on cancellation: a cancelled
  // run reports its partial trace (alongside Status::Cancelled) so callers
  // can show where the checkpoint was cut.
  result_.phase2_seconds = phase2.seconds;
  result_.virtual_iterations = phase2.virtual_iterations;
  result_.converged = phase2.converged;
  result_.surrogate_fit = phase2.surrogate_fit;
  result_.fit_trace = std::move(phase2.fit_trace);
  result_.buffer_stats = phase2.buffer_stats;
  result_.swaps_per_virtual_iteration = phase2.swaps_per_virtual_iteration;
  result_.phase2_start_iteration = phase2.start_iteration;
  return status;
}

Status TwoPhaseCp::AssembleResult() {
  const GridPartition& grid = factors_->grid();
  std::vector<Matrix> full;
  full.reserve(static_cast<size_t>(grid.num_modes()));
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    TPCP_ASSIGN_OR_RETURN(Matrix f, factors_->AssembleFullFactor(mode));
    full.push_back(std::move(f));
  }
  result_.decomposition = KruskalTensor(std::move(full));
  result_.decomposition.Normalize();
  return Status::OK();
}

Result<KruskalTensor> TwoPhaseCp::Run(ThreadPool* pool) {
  if (options_.resume_phase2) {
    // The block factors of the interrupted (or completed) earlier run are
    // already in the store; redoing Phase 1 would only recompute them.
    AssumePhase1Factors();
  } else {
    TPCP_RETURN_IF_ERROR(RunPhase1(pool));
  }
  TPCP_RETURN_IF_ERROR(RunPhase2());
  TPCP_RETURN_IF_ERROR(AssembleResult());
  return result_.decomposition;
}

}  // namespace tpcp
