#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/cost_model.h"
#include "core/phase2_engine.h"
#include "cp/cp_als.h"
#include "linalg/blas.h"
#include "schedule/planner.h"
#include "storage/crc32.h"
#include "storage/serializer.h"
#include "tensor/kruskal.h"
#include "tensor/mttkrp.h"
#include "tensor/norms.h"
#include "trace.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

constexpr int kRepeats = 5;
constexpr double kMiB = 1024.0 * 1024.0;

/// Median milliseconds of `repeats` calls of `fn`, each timed alone.
template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const int64_t start = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Median(ms);
}

/// Milliseconds per call of a sub-millisecond `fn`: the median over
/// kRepeats batches of `batch` calls.
template <typename Fn>
double BatchedMs(int batch, Fn&& fn) {
  return MedianMs(kRepeats, [&] {
           for (int i = 0; i < batch; ++i) fn();
         }) /
         batch;
}

/// Deterministic factor matrix (values in [-0.5, 0.5)).
tpcp::Matrix ProbeFactor(int64_t rows, int64_t rank, int salt) {
  tpcp::Matrix m(rows, rank);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < rank; ++c) {
      m(r, c) = static_cast<double>((r * 31 + c * 17 + salt * 7) % 97) /
                    97.0 -
                0.5;
    }
  }
  return m;
}

template <typename T>
void Sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

Values RunProbes(const Workload& w, const tpcp::BlockTensorStore& store,
                 tpcp::Env* raw_env) {
  ScopedSpan probes_span("probes");
  const tpcp::GridPartition& grid = store.grid();
  const tpcp::TwoPhaseCpOptions& options = w.options;
  const int64_t rank = options.rank;
  const int modes = grid.num_modes();
  const int64_t n = grid.NumBlocks();
  const std::vector<int64_t> sample = {0, n / 3, 2 * n / 3, n - 1};

  std::vector<double> raw_ms, read_ms, deser_ms, crc_rate, norm_ms, fit_ms,
      gram_ms, solve_ms, als_ms_per_iter, als_iters;
  std::vector<std::vector<double>> mttkrp_ms(static_cast<size_t>(modes));
  double mttkrp_flops = 0.0, mttkrp_seconds = 0.0;

  for (const int64_t flat : sample) {
    const tpcp::BlockIndex block = grid.UnflattenBlock(flat);
    const std::string file = store.BlockFileName(block);
    std::string bytes;
    {
      ScopedSpan span("probe.Env::ReadFile");
      raw_ms.push_back(MedianMs(kRepeats, [&] {
        bytes.clear();
        if (!raw_env->ReadFile(file, &bytes).ok()) bytes.clear();
      }));
    }
    tpcp::DenseTensor x;
    {
      ScopedSpan span("probe.BlockTensorStore::ReadBlock");
      read_ms.push_back(MedianMs(kRepeats, [&] {
        auto r = store.ReadBlock(block);
        if (r.ok()) x = std::move(r).value();
      }));
    }
    {
      ScopedSpan span("probe.DeserializeTensorAny");
      deser_ms.push_back(MedianMs(kRepeats, [&] {
        Sink(tpcp::DeserializeTensorAny(bytes));
      }));
    }
    {
      ScopedSpan span("probe.Crc32");
      const double ms = MedianMs(kRepeats, [&] {
        Sink(tpcp::Crc32(bytes.data(), bytes.size()));
      });
      crc_rate.push_back(static_cast<double>(bytes.size()) / kMiB /
                         (ms / 1e3));
    }
    {
      ScopedSpan span("probe.DenseTensor::FrobeniusNorm");
      norm_ms.push_back(MedianMs(kRepeats, [&] { Sink(x.FrobeniusNorm()); }));
    }

    std::vector<tpcp::Matrix> factors;
    for (int m = 0; m < modes; ++m) {
      factors.push_back(ProbeFactor(x.dim(m), rank, m));
    }
    const double nnz = static_cast<double>(x.CountNonZeros());
    for (int m = 0; m < modes; ++m) {
      ScopedSpan span("probe.Mttkrp");
      const double ms =
          MedianMs(kRepeats, [&] { Sink(tpcp::Mttkrp(x, factors, m)); });
      mttkrp_ms[static_cast<size_t>(m)].push_back(ms);
      // Computed: per non-zero, (N-1)*R multiplies for the Khatri-Rao row
      // and 2R for the multiply-accumulate.
      mttkrp_flops += nnz * static_cast<double>((modes + 1) * rank);
      mttkrp_seconds += ms / 1e3;
    }
    {
      ScopedSpan span("probe.Fit");
      const tpcp::KruskalTensor k(factors);
      fit_ms.push_back(MedianMs(kRepeats, [&] { Sink(tpcp::Fit(x, k)); }));
    }
    std::vector<tpcp::Matrix> grams;
    for (const tpcp::Matrix& f : factors) grams.push_back(tpcp::Gram(f));
    {
      ScopedSpan span("probe.Gram");
      gram_ms.push_back(BatchedMs(50, [&] { Sink(tpcp::Gram(factors[0])); }));
    }
    {
      ScopedSpan span("probe.AlsFactorUpdate");
      const tpcp::Matrix mttkrp = tpcp::Mttkrp(x, factors, 0);
      solve_ms.push_back(BatchedMs(20, [&] {
        Sink(tpcp::AlsFactorUpdate(mttkrp, grams, 0, options.phase1_ridge));
      }));
    }
    {
      // The Phase-1 per-block solve exactly as the engine configures it
      // (seed included), at the workload's fixed iteration count...
      ScopedSpan span("probe.CpAls");
      tpcp::CpAlsOptions als;
      als.rank = rank;
      als.max_iterations = options.phase1_max_iterations;
      als.fit_tolerance = options.phase1_fit_tolerance;
      als.ridge = options.phase1_ridge;
      als.init = options.init;
      als.seed = options.seed + 0x9e37u * static_cast<uint64_t>(flat + 1);
      tpcp::CpAlsReport report;
      const int64_t start = NowNs();
      Sink(tpcp::CpAls(x, als, &report));
      als_ms_per_iter.push_back(static_cast<double>(NowNs() - start) / 1e6 /
                                std::max(1, report.iterations));
      // ...and to the library's default tolerance: the iterations a
      // convergence-driven run would spend on this block.
      const tpcp::CpAlsOptions defaults;
      als.max_iterations = defaults.max_iterations;
      als.fit_tolerance = defaults.fit_tolerance;
      tpcp::CpAlsReport converged;
      Sink(tpcp::CpAls(x, als, &converged));
      als_iters.push_back(converged.iterations);
    }
  }

  Values v;
  v["cp.als_iters_mean"] = 0.0;
  for (const double it : als_iters) v["cp.als_iters_mean"] += it;
  v["cp.als_iters_mean"] /= static_cast<double>(als_iters.size());
  v["cp.als_ms_per_iter"] = Median(als_ms_per_iter);
  for (int m = 0; m < modes; ++m) {
    v["tensor.mttkrp_ms.mode" + std::to_string(m)] =
        Median(mttkrp_ms[static_cast<size_t>(m)]);
  }
  v["tensor.mttkrp_gflops_computed"] = mttkrp_flops / mttkrp_seconds / 1e9;
  v["tensor.fit_ms"] = Median(fit_ms);
  v["tensor.norm_ms"] = Median(norm_ms);
  v["linalg.gram_ms"] = Median(gram_ms);
  v["linalg.solve_ms"] = Median(solve_ms);
  v["storage.crc_mib_per_s"] = Median(crc_rate);
  v["grid.read_block_ms"] = Median(read_ms);
  v["grid.decode_ms"] = Median(read_ms) - Median(raw_ms);
  v["grid.deserialize_ms"] = Median(deser_ms);

  // The Phase-2 plan of the timed run, and what the cost model predicts.
  const tpcp::UpdateSchedule schedule =
      tpcp::UpdateSchedule::Create(options.schedule, grid);
  const tpcp::PlannerOptions planner_options =
      tpcp::Phase2PlannerOptions(options, grid);
  std::vector<double> build_ms;
  tpcp::ExecutionPlan plan = tpcp::Planner::Build(schedule, planner_options);
  {
    ScopedSpan span("probe.Planner::Build");
    for (int i = 0; i < 3; ++i) {
      const int64_t start = NowNs();
      plan = tpcp::Planner::Build(schedule, planner_options);
      build_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
  }
  v["schedule.plan_build_ms"] = Median(build_ms);
  v["schedule.waves"] = static_cast<double>(plan.waves().size());
  v["schedule.max_width"] = static_cast<double>(plan.max_wave_width());
  v["plan.swaps_per_vi"] = plan.stats().effective_swaps();

  const int workers = w.kind == Kind::kDist ? w.workers : 1;
  const tpcp::DistributedPlan dplan(&plan, rank, workers);
  tpcp::ClusterSimConfig sim;
  sim.num_workers = workers;
  sim.policy = options.policy;
  sim.buffer_bytes = planner_options.buffer_bytes;
  sim.victim_hints = options.policy_victim_hints;
  sim.overlap = w.kind == Kind::kDist;
  const tpcp::ClusterOverlapCost cost =
      tpcp::SimulateClusterOverlap(dplan, rank, sim);
  v["plan.seconds_per_vi"] =
      sim.overlap ? cost.pipelined_seconds_per_vi : cost.barrier_seconds_per_vi;
  return v;
}

}  // namespace perfbench
