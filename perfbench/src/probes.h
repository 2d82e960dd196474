// Layer probes: after the timed runs, replay single public calls —
// BlockTensorStore::ReadBlock, Crc32, DeserializeTensorAny, Mttkrp per mode,
// Fit, the norm, CpAls, Gram, AlsFactorUpdate and Planner::Build — on a
// fixed sample of blocks, and time each one.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <vector>

#include "grid/block_tensor_store.h"
#include "storage/env.h"
#include "workloads.h"

namespace perfbench {

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// Runs every probe against `store`, whose files `raw_env` reads without
/// any wrapper. Keys are per-layer metric names; "plan.*" keys carry the
/// plan's predictions for ratios the caller completes.
Values RunProbes(const Workload& w, const tpcp::BlockTensorStore& store,
                 tpcp::Env* raw_env);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
