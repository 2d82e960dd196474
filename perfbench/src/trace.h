// In-memory span tracing for the benchmark, recorded from outside the
// library: around calls into its public functions, in an Env wrapper
// registered as the "trace" URI layer, and in a ProgressObserver.
//
// Spans stay in memory and are written as a Chrome trace_event file when a
// run ends. A span's self time is its duration minus the part of it that its
// children cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "storage/env.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Small per-process thread number (1 = first thread that asked).
int ThreadNumber();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  /// Id of the causing span, 0 for a root.
  int64_t parent = 0;
  int thread = 0;
  /// Recorded on a thread with no open span of its own: the parent is the
  /// driving thread's innermost span, and Nest() may narrow it.
  bool ambient = false;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span recorder. Disabled by default; while disabled every
/// call is a no-op apart from one relaxed load.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Marks the calling thread as the one whose open spans parent the
  /// spans of library-owned threads.
  void SetDrivingThread() { driving_thread_ = ThreadNumber(); }

  /// Opens a span on the calling thread and returns its id (0 if disabled).
  int64_t Begin(const char* name);
  /// Closes the span `id` opened by Begin on this thread.
  void End(int64_t id);
  /// Records a span whose interval is already known (observer-derived),
  /// on thread `thread` (0: the calling thread).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int thread = 0);

  /// The recorded (closed) spans.
  std::vector<Span> Snapshot() const;
  void Clear();

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> driving_top_{0};
  int driving_thread_ = 1;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span around one call.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(Tracer::Get().Begin(name)) {}
  ~ScopedSpan() { Tracer::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

/// Re-parents each ambient span to the smallest span containing it that ran
/// on the same thread or is a sibling under the recorded parent — so an Env
/// read made by a Phase-1 pool thread lands under that thread's block span,
/// and a Phase-2 swap under the phase span.
void Nest(std::vector<Span>* spans);

/// Self time of every span, indexed like `spans`: duration minus the union
/// of its children's intervals clipped to its own.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Renders spans as trace_event "X" events (no enclosing brackets), for
/// process `pid`.
std::string TraceEvents(const std::vector<Span>& spans, int pid);

/// Writes a Chrome trace_event file from pre-rendered event lists.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::string>& event_lists);

/// Storage counters of the "trace" Env layer, over all its instances.
struct StorageCounters {
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<int64_t> read_ns{0};
  std::atomic<uint64_t> write_ops{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<int64_t> write_ns{0};
  /// Completion times of factor-manifest writes: the distributed
  /// coordinator cuts one checkpoint per virtual iteration.
  std::mutex mu;
  std::vector<int64_t> manifest_writes_ns;  // guarded by mu

  void Reset();
};
StorageCounters& Storage();

/// Start time of the calling thread's latest tensor-block read (0 if none):
/// where a Phase-1 block's work begins.
int64_t LastBlockReadStartNs();

/// Registers the "trace" wrapper with the EnvFactoryRegistry, so
/// "trace+posix:///dir" records spans and counters for every file read and
/// write below it. Idempotent.
void RegisterTraceEnv();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
