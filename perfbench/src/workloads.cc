#include "workloads.h"

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/block_factors.h"
#include "core/phase2_engine.h"
#include "core/progress_observer.h"
#include "core/two_phase_cp.h"
#include "data/synthetic.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "grid/block_tensor_store.h"
#include "grid/grid_partition.h"
#include "linalg/kernels.h"
#include "storage/env_uri.h"
#include "tensor/norms.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tpcp::Status;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kTensorPrefix = "tensor";
constexpr const char* kFactorPrefix = "factors";
constexpr const char* kReferencePrefix = "reference";

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  tpcp::TwoPhaseCpOptions decompose;
  decompose.rank = 10;
  decompose.phase1_max_iterations = 10;
  decompose.phase1_fit_tolerance = -1.0;
  decompose.schedule = tpcp::ScheduleType::kHilbertOrder;
  decompose.policy = tpcp::PolicyType::kForward;
  decompose.buffer_fraction = 0.5;
  decompose.max_virtual_iterations = 16;
  decompose.fit_tolerance = -1.0;
  decompose.num_threads = 2;
  decompose.compute_threads = 2;

  Workload dense{"decompose-dense", Kind::kDecompose, 112, 4, 1.0,
                 tpcp::SlabFormat::kDense, decompose};
  all.push_back(dense);

  Workload csf{"decompose-csf", Kind::kDecompose, 200, 4, 0.05,
               tpcp::SlabFormat::kCsf, decompose};
  all.push_back(csf);

  tpcp::TwoPhaseCpOptions refine;
  refine.rank = 32;
  refine.schedule = tpcp::ScheduleType::kHilbertOrder;
  refine.policy = tpcp::PolicyType::kLru;
  refine.buffer_fraction = 0.1;
  refine.max_virtual_iterations = 10;
  refine.fit_tolerance = -1.0;
  refine.prefetch_depth = 2;
  refine.io_threads = 1;
  refine.compute_threads = 2;
  Workload tight{"refine-tight", Kind::kRefine, 96, 8, 1.0,
                 tpcp::SlabFormat::kDense, refine};
  tight.stage_iterations = 3;
  all.push_back(tight);

  tpcp::TwoPhaseCpOptions dist = refine;
  dist.rank = 16;
  dist.prefetch_depth = 0;
  dist.compute_threads = 1;
  dist.max_virtual_iterations = 3;
  Workload fleet{"dist-refine", Kind::kDist, 96, 4, 1.0,
                 tpcp::SlabFormat::kDense, dist};
  fleet.stage_iterations = 3;
  fleet.workers = 2;
  all.push_back(fleet);
  return all;
}

template <typename T>
bool Check(const tpcp::Result<T>& r, const char* what) {
  if (r.ok()) return true;
  std::fprintf(stderr, "perfbench: %s: %s\n", what,
               r.status().ToString().c_str());
  return false;
}

bool Check(const Status& s, const char* what) {
  if (s.ok()) return true;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  return false;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// User + system CPU seconds of this process or of its reaped children.
double CpuSeconds(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double MaxRssMiB(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

tpcp::GridPartition GridOf(const Workload& w) {
  return tpcp::GridPartition::Uniform(tpcp::Shape({w.dim, w.dim, w.dim}),
                                      w.parts);
}

std::string StoreRoot(const std::string& dir) {
  return fs::absolute(fs::path(dir) / "store").string();
}

// ---- setup.txt: "key hexfloat" lines ----------------------------------------

bool WriteValues(const std::string& path, const Values& values) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [key, value] : values) {
    std::fprintf(f, "%s %a\n", key.c_str(), value);
  }
  return std::fclose(f) == 0;
}

bool ReadValues(const std::string& path, Values* values) {
  std::ifstream in(path);
  if (!in) return false;
  std::string key, value;
  while (in >> key >> value) values->emplace(key, std::strtod(value.c_str(), nullptr));
  return true;
}

std::vector<double> TraceOf(const Values& values) {
  std::vector<double> trace;
  const auto it = values.find("ref_vi");
  const int vi = it == values.end() ? 0 : static_cast<int>(it->second);
  for (int i = 0; i < vi; ++i) {
    trace.push_back(values.at("ref_trace." + std::to_string(i)));
  }
  return trace;
}

void PutTrace(const std::vector<double>& trace, Values* values) {
  (*values)["ref_vi"] = static_cast<double>(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    (*values)["ref_trace." + std::to_string(i)] = trace[i];
  }
}

bool SameTrace(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

// ---- true fit ----------------------------------------------------------------

/// 1 - ||X - X̃|| / ||X|| against the stored tensor, one block at a time:
/// ||X||² and <X, X̃> accumulate per block in grid order, ||X̃||² comes
/// from the factors.
tpcp::Result<double> TrueFit(const tpcp::BlockTensorStore& store,
                             const tpcp::KruskalTensor& k) {
  const tpcp::GridPartition& grid = store.grid();
  double norm_x2 = 0.0, inner = 0.0;
  for (const tpcp::BlockIndex& block : grid.AllBlocks()) {
    TPCP_ASSIGN_OR_RETURN(tpcp::DenseTensor x, store.ReadBlock(block));
    norm_x2 += x.SquaredNorm();
    const tpcp::Index offsets = grid.BlockOffsets(block);
    const std::vector<int64_t> sizes = grid.BlockSizes(block);
    std::vector<tpcp::Matrix> factors;
    for (int m = 0; m < grid.num_modes(); ++m) {
      const size_t i = static_cast<size_t>(m);
      factors.push_back(
          k.factor(m).RowSlice(offsets[i], offsets[i] + sizes[i]));
    }
    inner += tpcp::InnerProduct(x, tpcp::KruskalTensor(factors, k.lambda()));
  }
  const double norm_k = k.Norm();
  const double resid2 = std::max(0.0, norm_x2 - 2.0 * inner + norm_k * norm_k);
  return 1.0 - std::sqrt(resid2) / std::sqrt(norm_x2);
}

tpcp::Result<tpcp::KruskalTensor> Assemble(
    const tpcp::BlockFactorStore& factors) {
  std::vector<tpcp::Matrix> full;
  for (int m = 0; m < factors.grid().num_modes(); ++m) {
    TPCP_ASSIGN_OR_RETURN(tpcp::Matrix f, factors.AssembleFullFactor(m));
    full.push_back(std::move(f));
  }
  tpcp::KruskalTensor k(std::move(full));
  k.Normalize();
  return k;
}

std::vector<std::string> SubFactorNames(
    const tpcp::BlockFactorStore& factors) {
  std::vector<std::string> names;
  const tpcp::GridPartition& grid = factors.grid();
  for (int m = 0; m < grid.num_modes(); ++m) {
    for (int64_t p = 0; p < grid.parts(m); ++p) {
      names.push_back(factors.SubFactorName(m, p));
    }
  }
  return names;
}

// ---- observer -----------------------------------------------------------------

/// Records Phase-1 block and Phase-2 virtual-iteration spans from the
/// ProgressObserver callbacks (serialized by the engine).
class TraceObserver : public tpcp::ProgressObserver {
 public:
  struct Interval {
    int64_t start_ns;
    int64_t end_ns;
    int thread;
  };

  /// `root`: the benchmark's span around the public call. `phase2_start`:
  /// when Phase 2 begins, if the call starts there (0 otherwise).
  void Start(int64_t root, int64_t phase2_start) {
    *this = TraceObserver();
    root_ = root;
    phase2_start_ = phase2_start;
    last_vi_ = phase2_start;
  }

  void OnPhase1BlockDone(int64_t, int64_t, double) override {
    blocks_.push_back({LastBlockReadStartNs(), NowNs(), ThreadNumber()});
  }

  void OnPhase1Done(double seconds, double) override {
    const int64_t end = NowNs();
    phase1_ = {end - static_cast<int64_t>(seconds * 1e9), end, ThreadNumber()};
    phase2_start_ = end;
    last_vi_ = end;
    const int64_t id = Tracer::Get().Add("phase1", phase1_.start_ns, end,
                                         root_);
    for (const Interval& b : blocks_) {
      Tracer::Get().Add("phase1.block", b.start_ns, b.end_ns, id, b.thread);
    }
  }

  void OnVirtualIteration(int, double, uint64_t) override {
    const int64_t now = NowNs();
    vis_.push_back({last_vi_, now, ThreadNumber()});
    last_vi_ = now;
  }

  void OnPhase2Done(int, bool, double, const tpcp::BufferStats&) override {
    phase2_ = {phase2_start_, NowNs(), ThreadNumber()};
    const int64_t id = Tracer::Get().Add("phase2", phase2_.start_ns,
                                         phase2_.end_ns, root_);
    for (const Interval& vi : vis_) {
      Tracer::Get().Add("phase2.vi", vi.start_ns, vi.end_ns, id, vi.thread);
    }
  }

  const std::vector<Interval>& blocks() const { return blocks_; }
  const std::vector<Interval>& vis() const { return vis_; }
  double phase1_s() const { return Seconds(phase1_.end_ns - phase1_.start_ns); }
  double phase2_s() const { return Seconds(phase2_.end_ns - phase2_.start_ns); }

 private:
  int64_t root_ = 0;
  int64_t phase2_start_ = 0;
  int64_t last_vi_ = 0;
  Interval phase1_{0, 0, 0};
  Interval phase2_{0, 0, 0};
  std::vector<Interval> blocks_;
  std::vector<Interval> vis_;
};

// ---- one repetition --------------------------------------------------------------

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Empty when every gate passed.
  std::string failure;
  /// Per-layer numbers of a traced repetition.
  Values layer;
  double fit = 0.0;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void AddViStats(const std::vector<double>& vi_ms, Values* layer) {
  (*layer)["core.vi_ms_p50"] = Median(vi_ms);
  (*layer)["core.vi_ms_max"] =
      vi_ms.empty() ? 0.0 : *std::max_element(vi_ms.begin(), vi_ms.end());
}

void AddStorage(Values* layer) {
  const StorageCounters& c = Storage();
  (*layer)["storage.read_ops"] = static_cast<double>(c.read_ops.load());
  (*layer)["storage.read_mib"] = static_cast<double>(c.read_bytes.load()) / kMiB;
  (*layer)["storage.read_s"] = Seconds(c.read_ns.load());
  (*layer)["storage.write_ops"] = static_cast<double>(c.write_ops.load());
  (*layer)["storage.write_mib"] =
      static_cast<double>(c.write_bytes.load()) / kMiB;
  (*layer)["storage.write_s"] = Seconds(c.write_ns.load());
}

void AddBuffer(const tpcp::BufferStats& stats, int vi, Values* layer) {
  (*layer)["buffer.swaps_per_vi"] =
      vi > 0 ? static_cast<double>(stats.swap_ins) / vi : 0.0;
  (*layer)["buffer.hit_rate"] = stats.HitRate();
  (*layer)["buffer.prefetch_hits"] = static_cast<double>(stats.prefetch_hits);
  (*layer)["buffer.stall_s"] = stats.stall_seconds;
  (*layer)["buffer.writeback_s"] = stats.writeback_seconds;
}

class Runner {
 public:
  Runner(const Workload& w, const RunConfig& config, Values ref)
      : w_(w), config_(config), ref_(std::move(ref)),
        store_root_(StoreRoot(config.dir)),
        trace_dir_(fs::absolute(fs::path(config.dir) / "trace").string()) {}

  bool Open() {
    auto raw = tpcp::OpenEnv("posix://" + store_root_);
    if (!Check(raw, "open store")) return false;
    raw_ = std::move(raw).value();
    auto tensor = tpcp::BlockTensorStore::Open(raw_.get(), kTensorPrefix);
    if (!Check(tensor, "open tensor store")) return false;
    tensor_.emplace(std::move(tensor).value());
    std::error_code ec;
    fs::create_directories(trace_dir_, ec);
    return true;
  }

  Rep Once(bool traced) {
    Rep rep;
    Tracer& tracer = Tracer::Get();
    if (traced) tracer.Clear();  // the trace file keeps the last one
    Storage().Reset();
    tracer.SetEnabled(traced);
    const std::string uri =
        std::string(traced ? "trace+posix://" : "posix://") + store_root_;
    switch (w_.kind) {
      case Kind::kDecompose:
        Decompose(uri, traced, &rep);
        break;
      case Kind::kRefine:
        Refine(uri, traced, &rep);
        break;
      case Kind::kDist:
        Distributed(uri, traced, &rep);
        break;
    }
    tracer.SetEnabled(false);
    return rep;
  }

  /// The final factor store's true fit, for the kinds whose timed call
  /// does not return a decomposition.
  bool StoreFit(double* fit) {
    auto factors = tpcp::BlockFactorStore::Open(raw_.get(), kFactorPrefix);
    if (!Check(factors, "open factor store")) return false;
    auto k = Assemble(*factors);
    if (!Check(k, "assemble")) return false;
    auto f = TrueFit(*tensor_, *k);
    if (!Check(f, "fit")) return false;
    *fit = *f;
    return true;
  }

  const tpcp::BlockTensorStore& tensor() const { return *tensor_; }
  tpcp::Env* raw_env() const { return raw_.get(); }
  const std::vector<std::string>& worker_events() const {
    return worker_events_;
  }

 private:
  void Decompose(const std::string& uri, bool traced, Rep* rep) {
    auto session = tpcp::Session::Open({uri});
    if (!Check(session, "open session") ||
        !Check((*session)->OpenTensorStore(), "open tensor store")) {
      rep->failure = "session";
      return;
    }
    tpcp::TwoPhaseCpOptions options = w_.options;
    TraceObserver observer;
    if (traced) options.observer = &observer;
    std::optional<tpcp::Result<tpcp::SolveResult>> solved;
    const double cpu0 = CpuSeconds(RUSAGE_SELF);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("Session::Decompose");
      observer.Start(span.id(), 0);
      solved.emplace((*session)->Decompose("2pcp", options));
    }
    rep->wall_s = Seconds(NowNs() - t0);
    rep->cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
    const tpcp::Result<tpcp::SolveResult>& result = *solved;
    if (!Check(result, "decompose")) {
      rep->failure = "decompose failed";
      return;
    }
    auto fit = TrueFit(*tensor_, result->decomposition);
    if (!Check(fit, "fit")) {
      rep->failure = "fit";
      return;
    }
    rep->fit = *fit;
    if (!SameBits(*fit, ref_.at("ref_fit"))) {
      rep->failure = "fit differs from the single-thread reference";
    } else if (!SameTrace(result->fit_trace, TraceOf(ref_))) {
      rep->failure = "fit trace differs from the reference";
    }
    if (!traced) return;

    Values& layer = rep->layer;
    layer["core.phase1_s"] = observer.phase1_s();
    layer["core.phase2_s"] = observer.phase2_s();
    // JobService hand-off and factor assembly: the call minus its phases.
    layer["api.overhead_s"] =
        rep->wall_s - observer.phase1_s() - observer.phase2_s();
    std::vector<double> block_ms;
    double busy = 0.0;
    for (const TraceObserver::Interval& b : observer.blocks()) {
      block_ms.push_back(static_cast<double>(b.end_ns - b.start_ns) / 1e6);
      busy += Seconds(b.end_ns - b.start_ns);
    }
    layer["core.block_ms_p50"] = Percentile(block_ms, 0.5);
    layer["core.block_ms_p90"] = Percentile(block_ms, 0.9);
    layer["core.block_samples"] = static_cast<double>(block_ms.size());
    layer["core.phase1_thread_util"] =
        busy / (options.num_threads * observer.phase1_s());
    std::vector<double> vi_ms;
    for (const TraceObserver::Interval& vi : observer.vis()) {
      vi_ms.push_back(static_cast<double>(vi.end_ns - vi.start_ns) / 1e6);
    }
    AddViStats(vi_ms, &layer);
    AddStorage(&layer);
    AddBuffer(result->buffer_stats, result->virtual_iterations, &layer);
  }

  void Refine(const std::string& uri, bool traced, Rep* rep) {
    auto env = tpcp::OpenEnv(uri);
    if (!Check(env, "open env")) {
      rep->failure = "env";
      return;
    }
    auto input = tpcp::BlockTensorStore::Open(env->get(), kTensorPrefix);
    auto factors = tpcp::BlockFactorStore::Open(env->get(), kFactorPrefix);
    if (!Check(input, "open tensor store") ||
        !Check(factors, "open factor store")) {
      rep->failure = "stores";
      return;
    }
    tpcp::TwoPhaseCpOptions options = w_.options;
    TraceObserver observer;
    if (traced) options.observer = &observer;
    tpcp::TwoPhaseCp cp(&*input, &*factors, options);
    cp.AssumePhase1Factors();
    Status status;
    const double cpu0 = CpuSeconds(RUSAGE_SELF);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("TwoPhaseCp::RunPhase2");
      observer.Start(span.id(), NowNs());
      status = cp.RunPhase2();
    }
    rep->wall_s = Seconds(NowNs() - t0);
    rep->cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
    if (!Check(status, "phase 2")) {
      rep->failure = "phase 2 failed";
      return;
    }
    const tpcp::TwoPhaseCpResult& r = cp.result();
    if (!SameTrace(r.fit_trace, TraceOf(ref_))) {
      rep->failure = "fit trace differs from the single-thread reference";
    }
    if (!traced) return;

    Values& layer = rep->layer;
    layer["core.phase2_s"] = observer.phase2_s();
    std::vector<double> vi_ms;
    for (const TraceObserver::Interval& vi : observer.vis()) {
      vi_ms.push_back(static_cast<double>(vi.end_ns - vi.start_ns) / 1e6);
    }
    AddViStats(vi_ms, &layer);
    AddStorage(&layer);
    AddBuffer(r.buffer_stats, r.virtual_iterations, &layer);
  }

  void Distributed(const std::string& uri, bool traced, Rep* rep) {
    auto env = tpcp::OpenEnv(uri);
    if (!Check(env, "open env")) {
      rep->failure = "env";
      return;
    }
    auto factors = tpcp::BlockFactorStore::Open(env->get(), kFactorPrefix);
    if (!Check(factors, "open factor store")) {
      rep->failure = "factor store";
      return;
    }
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(trace_dir_, ec)) {
      fs::remove(entry.path(), ec);
    }

    // Argument strings are built before fork: the child only execs.
    std::vector<pid_t> children;
    const std::string exe = config_.self_exe;
    const std::string root_arg = "--root=" + store_root_;
    const std::string trace_arg = traced ? "--trace-dir=" + trace_dir_ : "";
    tpcp::DistributedRunOptions dopts;
    dopts.num_workers = w_.workers;
    dopts.overlap = true;
    dopts.max_respawns = 0;
    dopts.spawn_worker = [&](int port, int worker) -> Status {
      const std::string port_arg = "--port=" + std::to_string(port);
      const std::string id_arg = "--id=" + std::to_string(worker);
      std::vector<const char*> argv = {exe.c_str(), "worker",
                                       root_arg.c_str(), port_arg.c_str(),
                                       id_arg.c_str()};
      if (!trace_arg.empty()) argv.push_back(trace_arg.c_str());
      argv.push_back(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) return Status::IOError("fork failed");
      if (pid == 0) {
        ::execv(exe.c_str(), const_cast<char* const*>(argv.data()));
        ::_exit(127);
      }
      children.push_back(pid);
      return Status::OK();
    };

    tpcp::DistributedRunResult result;
    Status status;
    bool workers_ok = true;
    const double cpu0 =
        CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("RunDistributedPhase2");
      status = tpcp::RunDistributedPhase2(&*factors, w_.options, dopts,
                                          &result);
      for (const pid_t pid : children) {
        int wstatus = 0;
        workers_ok = ::waitpid(pid, &wstatus, 0) == pid &&
                     WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0 &&
                     workers_ok;
      }
    }
    const int64_t t1 = NowNs();
    rep->wall_s = Seconds(t1 - t0);
    rep->cpu_s =
        CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN) - cpu0;
    if (!Check(status, "distributed phase 2")) {
      rep->failure = "distributed phase 2 failed";
      return;
    }
    rep->failure = DistGates(result, workers_ok, *factors);
    if (!traced) return;

    Values& layer = rep->layer;
    layer["core.phase2_s"] = rep->wall_s;
    // The coordinator cuts one manifest checkpoint per virtual iteration.
    std::vector<int64_t> cuts;
    {
      std::lock_guard<std::mutex> lock(Storage().mu);
      cuts = Storage().manifest_writes_ns;
    }
    const size_t vi = result.phase2.fit_trace.size();
    std::vector<double> vi_ms;
    if (cuts.size() >= vi && vi > 0) {
      int64_t prev = cuts.size() > vi ? cuts[cuts.size() - vi - 1] : t0;
      for (size_t i = cuts.size() - vi; i < cuts.size(); ++i) {
        vi_ms.push_back(static_cast<double>(cuts[i] - prev) / 1e6);
        prev = cuts[i];
      }
    }
    AddViStats(vi_ms, &layer);
    AddStorage(&layer);
    uint64_t up = 0, down = 0;
    int64_t msgs = 0;
    for (const tpcp::WorkerTraffic& t : result.measured) {
      up += t.up_bytes;
      down += t.down_bytes;
      msgs += t.up_messages + t.down_messages;
    }
    layer["dist.up_mib"] = static_cast<double>(up) / kMiB;
    layer["dist.down_mib"] = static_cast<double>(down) / kMiB;
    layer["dist.msgs"] = static_cast<double>(msgs);
    layer["dist.overlapped_mib"] =
        static_cast<double>(result.overlapped_bytes) / kMiB;
    layer["dist.hidden_s"] = result.hidden_seconds;
    layer["dist.respawns"] = result.respawns;
    layer["dist.slowdown_vs_single"] = rep->wall_s / ref_.at("single_p2_s");

    // Worker-side Env time and spans, written by each worker at exit.
    double worker_storage_s = 0.0;
    worker_events_.clear();
    for (int id = 0; id < w_.workers; ++id) {
      const std::string base = trace_dir_ + "/worker-" + std::to_string(id);
      Values stats;
      if (ReadValues(base + ".stats", &stats)) {
        worker_storage_s += stats["read_s"] + stats["write_s"];
      }
      std::ifstream events(base + ".events");
      std::stringstream text;
      text << events.rdbuf();
      worker_events_.push_back(text.str());
    }
    layer["dist.worker_storage_s"] = worker_storage_s;
  }

  /// The distributed gates: exact ledger, no recovery, byte-identical
  /// factor files against the single-process reference.
  std::string DistGates(const tpcp::DistributedRunResult& r, bool workers_ok,
                        const tpcp::BlockFactorStore& factors) {
    if (!workers_ok) return "a worker process failed";
    if (r.respawns != 0 || r.degrades != 0 || r.finished_single_process) {
      return "the fleet recovered or degraded";
    }
    if (r.wasted_bytes != 0) return "wasted bytes";
    if (r.measured.size() != r.predicted.size() ||
        r.measured_persist_bytes != r.predicted_persist_bytes) {
      return "ledger inexact";
    }
    for (size_t i = 0; i < r.measured.size(); ++i) {
      if (r.measured[i].up_bytes != r.predicted[i].up_bytes ||
          r.measured[i].down_bytes != r.predicted[i].down_bytes ||
          r.measured[i].up_messages != r.predicted[i].up_messages ||
          r.measured[i].down_messages != r.predicted[i].down_messages) {
        return "ledger inexact";
      }
    }
    if (!SameTrace(r.phase2.fit_trace, TraceOf(ref_))) {
      return "fit trace differs from the single-process reference";
    }
    for (const std::string& name : SubFactorNames(factors)) {
      std::string got, want;
      if (!raw_->ReadFile(name, &got).ok() ||
          !raw_->ReadFile(std::string(kReferencePrefix) + "/" + name, &want)
               .ok() ||
          got != want) {
        return "factor file " + name + " differs from the reference";
      }
    }
    return "";
  }

  const Workload& w_;
  const RunConfig& config_;
  const Values ref_;
  const std::string store_root_;
  const std::string trace_dir_;
  tpcp::OpenedEnv raw_;
  std::optional<tpcp::BlockTensorStore> tensor_;
  std::vector<std::string> worker_events_;
};

// ---- JSON output -----------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonObject(const Values& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ",";
    out += JsonString(key) + ":" + Number(value);
  }
  return out + "}";
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> all = MakeWorkloads();
  for (const Workload& w : all) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool Setup(const Workload& w, uint64_t seed, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return false;
  }
  Values v;
  const int64_t t0 = NowNs();
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  auto env = tpcp::OpenEnv("posix://" + StoreRoot(dir));
  if (!Check(env, "open store")) return false;
  const tpcp::GridPartition grid = GridOf(w);
  auto store = tpcp::BlockTensorStore::Create(env->get(), kTensorPrefix, grid,
                                              w.format);
  if (!Check(store, "create tensor store")) return false;
  tpcp::LowRankSpec spec;
  spec.shape = grid.tensor_shape();
  spec.rank = 10;
  spec.noise_level = 0.05;
  spec.density = w.density;
  spec.seed = seed;
  if (!Check(tpcp::GenerateLowRankIntoStore(spec, &*store), "generate")) {
    return false;
  }
  const int64_t t1 = NowNs();
  for (const std::string& name : (*env)->ListFiles("")) {
    std::string bytes;
    if (!Check((*env)->ReadFile(name, &bytes), "warm")) return false;
  }
  const int64_t t2 = NowNs();

  // Set-up runs single-threaded: the references come from a different
  // thread count than the timed runs, so the gates also check the
  // bit-identity of factors across threads.
  tpcp::TwoPhaseCpOptions options = w.options;
  options.num_threads = 1;
  options.compute_threads = 1;
  options.prefetch_depth = 0;
  if (w.kind != Kind::kDecompose) {
    auto factors = tpcp::BlockFactorStore::Create(env->get(), kFactorPrefix,
                                                  grid, options.rank);
    if (!Check(factors, "create factor store")) return false;
    tpcp::TwoPhaseCpOptions stage = options;
    stage.phase1_max_iterations = w.stage_iterations;
    stage.phase1_fit_tolerance = -1.0;
    tpcp::TwoPhaseCp cp(&*store, &*factors, stage);
    if (!Check(cp.RunPhase1(), "stage phase 1")) return false;
  }
  const int64_t t3 = NowNs();

  double fit = 0.0;
  if (w.kind == Kind::kDecompose) {
    auto ref = tpcp::BlockFactorStore::Create(env->get(), kReferencePrefix,
                                              grid, options.rank);
    if (!Check(ref, "create reference store")) return false;
    tpcp::TwoPhaseCp cp(&*store, &*ref, options);
    auto k = cp.Run();
    if (!Check(k, "reference decomposition")) return false;
    auto f = TrueFit(*store, *k);
    if (!Check(f, "reference fit")) return false;
    fit = *f;
    PutTrace(cp.result().fit_trace, &v);
  } else {
    auto factors = tpcp::BlockFactorStore::Open(env->get(), kFactorPrefix);
    if (!Check(factors, "open factor store")) return false;
    const int64_t p0 = NowNs();
    tpcp::Phase2Engine engine(&*factors, options);
    tpcp::Phase2Result r;
    if (!Check(engine.Run(&r), "reference phase 2")) return false;
    v["single_p2_s"] = Seconds(NowNs() - p0);
    PutTrace(r.fit_trace, &v);
    auto k = Assemble(*factors);
    if (!Check(k, "assemble")) return false;
    auto f = TrueFit(*store, *k);
    if (!Check(f, "reference fit")) return false;
    fit = *f;
    for (const std::string& name : SubFactorNames(*factors)) {
      std::string bytes;
      if (!Check((*env)->ReadFile(name, &bytes), "read reference") ||
          !Check((*env)->WriteFile(std::string(kReferencePrefix) + "/" + name,
                                   bytes),
                 "write reference")) {
        return false;
      }
    }
  }
  const int64_t t4 = NowNs();
  v["ref_fit"] = fit;
  v["setup.generate_s"] = Seconds(t1 - t0);
  v["setup.warm_s"] = Seconds(t2 - t1);
  v["setup.stage_s"] = Seconds(t3 - t2);
  v["setup.reference_s"] = Seconds(t4 - t3);
  v["setup.wall_s"] = Seconds(t4 - t0);
  // CPU seconds, not wall: set-up is single-threaded, and its wall time
  // swings with the CPU time the hypervisor steals from the guest.
  v["setup_s"] = CpuSeconds(RUSAGE_SELF) - cpu0;
  if (!WriteValues((fs::path(dir) / "setup.txt").string(), v)) {
    std::fprintf(stderr, "perfbench: cannot write setup.txt\n");
    return false;
  }
  std::printf("%s\n", JsonObject(v).c_str());
  return true;
}

bool Run(const Workload& w, const RunConfig& config) {
  Values ref;
  if (!ReadValues((fs::path(config.dir) / "setup.txt").string(), &ref) ||
      ref.count("ref_fit") == 0) {
    std::fprintf(stderr, "perfbench: no set-up in %s\n", config.dir.c_str());
    return false;
  }
  Tracer::Get().SetDrivingThread();
  Runner runner(w, config, ref);
  if (!runner.Open()) return false;

  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto account = [&](const Rep& rep) {
    ++attempted;
    if (!rep.failure.empty()) {
      ++failed;
      if (failures.size() < 5) failures.push_back(rep.failure);
    }
  };

  // One untimed repetition first: lazy allocation, page faults and the
  // first fork/exec happen outside the measured window.
  account(runner.Once(false));

  std::vector<double> wall, cpu, traced_wall;
  std::vector<Values> layers;
  double fit = 0.0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  const int min_reps = config.trace ? 4 : 3;
  for (int i = 0; NowNs() < deadline || i < min_reps; ++i) {
    // Traced runs alternate untraced and traced repetitions, so the
    // overhead ratio compares neighbours.
    const bool traced = config.trace && i % 2 == 1;
    Rep rep = runner.Once(traced);
    account(rep);
    fit = rep.fit;
    if (traced) {
      traced_wall.push_back(rep.wall_s);
      layers.push_back(std::move(rep.layer));
    } else {
      wall.push_back(rep.wall_s);
      cpu.push_back(rep.cpu_s);
    }
  }
  std::fprintf(stderr, "repetition wall_s:");
  for (const double s : wall) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  double peak_rss = MaxRssMiB(RUSAGE_SELF);
  if (w.kind == Kind::kDist) peak_rss += MaxRssMiB(RUSAGE_CHILDREN);

  if (w.kind != Kind::kDecompose) {
    if (!runner.StoreFit(&fit)) return false;
  }
  if (!SameBits(fit, ref.at("ref_fit"))) {
    ++failed;
    failures.push_back("fit differs from the reference");
  }

  Values metrics;
  const double cells = static_cast<double>(w.dim * w.dim * w.dim);
  metrics["wall_s"] = Median(wall);
  metrics["entries_per_s"] = cells / Median(wall);
  metrics["cpu_s"] = Median(cpu);
  metrics["fit"] = fit;
  metrics["peak_rss_mb"] = peak_rss;
  metrics["ok_ratio"] =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);

  if (config.trace) {
    // Per-layer numbers: medians over the traced repetitions.
    Values layer;
    for (const auto& [key, unused] : layers.front()) {
      std::vector<double> xs;
      for (const Values& l : layers) xs.push_back(l.at(key));
      layer[key] = Median(xs);
    }
    const std::vector<Span> rep_spans = [] {
      std::vector<Span> s = Tracer::Get().Snapshot();
      Nest(&s);
      return s;
    }();
    Tracer::Get().Clear();
    Tracer::Get().SetEnabled(true);
    const Values probes = RunProbes(w, runner.tensor(), runner.raw_env());
    Tracer::Get().SetEnabled(false);
    for (const auto& [key, value] : probes) {
      if (key.rfind("plan.", 0) != 0) layer[key] = value;
    }
    const double vi = ref.at("ref_vi");
    const double phase2_s = layer["core.phase2_s"];
    layer["schedule.swaps_measured_over_predicted"] =
        probes.at("plan.swaps_per_vi") > 0.0 && layer.count("buffer.swaps_per_vi")
            ? layer["buffer.swaps_per_vi"] / probes.at("plan.swaps_per_vi")
            : 0.0;
    layer["cost.phase2_s_predicted_over_measured"] =
        probes.at("plan.seconds_per_vi") * vi / phase2_s;
    layer["trace.overhead_ratio"] = Median(traced_wall) / Median(wall);

    // Every per-layer metric on every workload: a layer the workload does
    // not exercise reads 0.
    for (const char* key :
         {"api.overhead_s", "core.phase1_s", "core.block_ms_p50",
          "core.block_ms_p90", "core.block_samples", "core.phase1_thread_util",
          "buffer.swaps_per_vi", "buffer.hit_rate", "buffer.prefetch_hits",
          "buffer.stall_s", "buffer.writeback_s", "dist.up_mib",
          "dist.down_mib", "dist.msgs", "dist.overlapped_mib", "dist.hidden_s",
          "dist.worker_storage_s", "dist.slowdown_vs_single",
          "dist.respawns"}) {
      layer.emplace(key, 0.0);
    }
    metrics.insert(layer.begin(), layer.end());

    std::vector<Span> all = rep_spans;
    std::vector<Span> probe_spans = Tracer::Get().Snapshot();
    all.insert(all.end(), probe_spans.begin(), probe_spans.end());
    std::vector<std::string> events = {TraceEvents(all, ::getpid())};
    for (const std::string& e : runner.worker_events()) events.push_back(e);
    if (!config.trace_path.empty() &&
        !WriteChromeTrace(config.trace_path, events)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   config.trace_path.c_str());
      return false;
    }
    // Self time per span name over the last traced repetition and probes.
    const std::vector<int64_t> self = SelfTimesNs(all);
    std::map<std::string, std::pair<double, int>> by_name;
    for (size_t i = 0; i < all.size(); ++i) {
      auto& entry = by_name[all[i].name];
      entry.first += Seconds(self[i]);
      ++entry.second;
    }
    std::fprintf(stderr, "self time by span (last traced repetition):\n");
    for (const auto& [name, entry] : by_name) {
      std::fprintf(stderr, "  %-40s %9.4f s  x%d\n", name.c_str(),
                   entry.first, entry.second);
    }
  }

  std::string failure_list = "[";
  for (const std::string& f : failures) {
    if (failure_list.size() > 1) failure_list += ",";
    failure_list += JsonString(f);
  }
  failure_list += "]";
  Values samples = {{"wall_s", static_cast<double>(wall.size())},
                    {"cpu_s", static_cast<double>(cpu.size())},
                    {"traced", static_cast<double>(traced_wall.size())}};
  std::printf(
      "{\"attempted\":%d,\"failed\":%d,\"failures\":%s,\"samples\":%s,"
      "\"build\":{\"type\":%s,\"simd_target\":%s,\"simd_compiled\":%s,"
      "\"ndebug\":%s},"
      "\"metrics\":%s}\n",
      attempted, failed, failure_list.c_str(), JsonObject(samples).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(tpcp::SimdTargetName()).c_str(),
      tpcp::SimdCompiled() ? "true" : "false",
#ifdef NDEBUG
      "true",
#else
      "false",
#endif
      JsonObject(metrics).c_str());
  return true;
}

int ServeWorker(const std::string& root, int port, int worker,
                const std::string& trace_dir) {
  const bool traced = !trace_dir.empty();
  Tracer::Get().SetDrivingThread();
  Tracer::Get().SetEnabled(traced);
  auto env =
      tpcp::OpenEnv(std::string(traced ? "trace+posix://" : "posix://") + root);
  if (!Check(env, "worker env")) return 1;
  Status status;
  {
    ScopedSpan span("ServeDistWorker");
    status = tpcp::ServeDistWorker(env->get(), kFactorPrefix, port, worker);
  }
  if (traced) {
    const std::string base = trace_dir + "/worker-" + std::to_string(worker);
    const StorageCounters& c = Storage();
    Values stats = {{"read_s", Seconds(c.read_ns.load())},
                    {"write_s", Seconds(c.write_ns.load())},
                    {"read_ops", static_cast<double>(c.read_ops.load())},
                    {"write_ops", static_cast<double>(c.write_ops.load())}};
    WriteValues(base + ".stats", stats);
    std::vector<Span> spans = Tracer::Get().Snapshot();
    Nest(&spans);
    std::ofstream(base + ".events") << TraceEvents(spans, ::getpid());
  }
  return Check(status, "worker") ? 0 : 1;
}

}  // namespace perfbench
