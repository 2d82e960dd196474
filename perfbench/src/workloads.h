// The benchmark's workloads: set-up (store generation, Phase-1 staging and
// references) and timed runs with their correctness gates and metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/config.h"
#include "grid/slab_format.h"

namespace perfbench {

enum class Kind {
  kDecompose,  // timed: Session::Decompose, both phases
  kRefine,     // timed: TwoPhaseCp::RunPhase2 from staged Phase-1 factors
  kDist,       // timed: RunDistributedPhase2 over forked workers
};

struct Workload {
  const char* name;
  Kind kind;
  /// Cubic tensor edge and grid parts per mode.
  int64_t dim;
  int64_t parts;
  double density;
  tpcp::SlabFormat format;
  /// Options of the timed call. Phase 1 and Phase 2 both run a fixed
  /// number of iterations (tolerance -1), so the work does not depend on
  /// the seed.
  tpcp::TwoPhaseCpOptions options;
  /// Phase-1 ALS iterations when set-up stages the block factors.
  int stage_iterations = 0;
  /// Worker processes (kDist).
  int workers = 0;
};

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Key/value numbers exchanged between the set-up and run processes and
/// printed as results. Doubles round-trip exactly (hex float).
using Values = std::map<std::string, double>;

/// Creates `dir` afresh and prepares the workload in it: generates the
/// store, warms the page cache, stages Phase 1 (refine and dist), and
/// builds the references the run's gates compare against. Writes
/// `dir`/setup.txt. Returns false (with a message on stderr) on failure.
bool Setup(const Workload& w, uint64_t seed, const std::string& dir);

struct RunConfig {
  std::string dir;
  std::string self_exe;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace_event output (traced runs).
  std::string trace_path;
};

/// Runs the timed repetitions for `config.seconds` and prints one JSON
/// line: attempted/failed counts, sample counts and the metrics.
bool Run(const Workload& w, const RunConfig& config);

/// Entry point of a forked distributed Phase-2 worker process.
int ServeWorker(const std::string& root, int port, int worker,
                const std::string& trace_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
