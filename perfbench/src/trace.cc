#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "storage/env_uri.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ThreadNumber() {
  static std::atomic<int> next{1};
  thread_local const int number = next.fetch_add(1);
  return number;
}

namespace {

/// The calling thread's open spans, innermost last.
std::vector<int64_t>& OpenStack() {
  thread_local std::vector<int64_t> stack;
  return stack;
}

struct OpenSpan {
  const char* name;
  int64_t start_ns;
  int64_t parent;
  bool ambient;
};

/// Open spans by id, per thread (a span begins and ends on one thread).
std::vector<std::pair<int64_t, OpenSpan>>& OpenSpans() {
  thread_local std::vector<std::pair<int64_t, OpenSpan>> open;
  return open;
}

thread_local int64_t last_block_read_start_ns = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const char* name) {
  if (!enabled()) return 0;
  const int64_t id = next_id_.fetch_add(1);
  std::vector<int64_t>& stack = OpenStack();
  const bool driving = ThreadNumber() == driving_thread_;
  int64_t parent = 0;
  bool ambient = false;
  if (!stack.empty()) {
    parent = stack.back();
  } else if (!driving) {
    parent = driving_top_.load(std::memory_order_relaxed);
    ambient = true;
  }
  stack.push_back(id);
  if (driving) driving_top_.store(id, std::memory_order_relaxed);
  OpenSpans().push_back({id, OpenSpan{name, NowNs(), parent, ambient}});
  return id;
}

void Tracer::End(int64_t id) {
  if (id == 0) return;
  const int64_t end = NowNs();
  auto& open = OpenSpans();
  auto it = std::find_if(open.begin(), open.end(),
                         [id](const auto& entry) { return entry.first == id; });
  if (it == open.end()) return;
  Span span;
  span.name = it->second.name;
  span.start_ns = it->second.start_ns;
  span.end_ns = end;
  span.id = id;
  span.parent = it->second.parent;
  span.ambient = it->second.ambient;
  span.thread = ThreadNumber();
  open.erase(it);
  std::vector<int64_t>& stack = OpenStack();
  stack.erase(std::remove(stack.begin(), stack.end(), id), stack.end());
  if (ThreadNumber() == driving_thread_) {
    driving_top_.store(stack.empty() ? 0 : stack.back(),
                       std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

int64_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int thread) {
  if (!enabled()) return 0;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id_.fetch_add(1);
  span.parent = parent;
  span.thread = thread != 0 ? thread : ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return span.id;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

void Nest(std::vector<Span>* spans) {
  std::vector<const Span*> hosts;  // Env operations are leaves
  for (const Span& span : *spans) {
    if (!span.ambient && std::string(span.name).rfind("env.", 0) != 0) {
      hosts.push_back(&span);
    }
  }
  std::vector<int64_t> parents(spans->size());
  for (size_t i = 0; i < spans->size(); ++i) {
    const Span& span = (*spans)[i];
    parents[i] = span.parent;
    if (!span.ambient) continue;
    // Smallest containing span that ran on the same thread or is a direct
    // child of the recorded (driving-thread) parent.
    const Span* best = nullptr;
    for (const Span* host : hosts) {
      if (host->start_ns > span.start_ns || host->end_ns < span.end_ns) {
        continue;
      }
      if (host->thread != span.thread && host->parent != span.parent) {
        continue;
      }
      if (best == nullptr || host->duration_ns() < best->duration_ns()) {
        best = host;
      }
    }
    if (best != nullptr) parents[i] = best->id;
  }
  for (size_t i = 0; i < spans->size(); ++i) (*spans)[i].parent = parents[i];
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  std::vector<std::pair<int64_t, size_t>> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id.push_back({spans[i].id, i});
  std::sort(by_id.begin(), by_id.end());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    auto it = std::lower_bound(by_id.begin(), by_id.end(),
                               std::make_pair(span.parent, size_t{0}));
    if (it == by_id.end() || it->first != span.parent) continue;
    const Span& parent = spans[it->second];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[it->second].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::string TraceEvents(const std::vector<Span>& spans, int pid) {
  std::string out;
  char line[320];
  for (const Span& span : spans) {
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld}}",
                  out.empty() ? "" : ",\n", span.name,
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.duration_ns()) / 1e3, pid,
                  span.thread, static_cast<long long>(span.id),
                  static_cast<long long>(span.parent));
    out += line;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::string>& event_lists) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const std::string& events : event_lists) {
    if (events.empty()) continue;
    if (!first) std::fputs(",\n", f);
    std::fputs(events.c_str(), f);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void StorageCounters::Reset() {
  read_ops = 0;
  read_bytes = 0;
  read_ns = 0;
  write_ops = 0;
  write_bytes = 0;
  write_ns = 0;
  std::lock_guard<std::mutex> lock(mu);
  manifest_writes_ns.clear();
}

StorageCounters& Storage() {
  static StorageCounters counters;
  return counters;
}

int64_t LastBlockReadStartNs() { return last_block_read_start_ns; }

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Pass-through Env that times every whole-file read and write.
class TracingEnv : public tpcp::Env {
 public:
  explicit TracingEnv(tpcp::Env* base) : base_(base) {}

  tpcp::Status WriteFile(const std::string& name,
                         const std::string& data) override {
    ScopedSpan span("env.write");
    const int64_t start = NowNs();
    tpcp::Status s = base_->WriteFile(name, data);
    const int64_t end = NowNs();
    StorageCounters& c = Storage();
    c.write_ops.fetch_add(1, std::memory_order_relaxed);
    c.write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    c.write_ns.fetch_add(end - start, std::memory_order_relaxed);
    if (EndsWith(name, "/MANIFEST")) {
      std::lock_guard<std::mutex> lock(c.mu);
      c.manifest_writes_ns.push_back(end);
    }
    return s;
  }

  tpcp::Status ReadFile(const std::string& name, std::string* out) override {
    const int64_t start = NowNs();
    if (name.find("/block_") != std::string::npos) {
      last_block_read_start_ns = start;
    }
    ScopedSpan span("env.read");
    tpcp::Status s = base_->ReadFile(name, out);
    StorageCounters& c = Storage();
    c.read_ops.fetch_add(1, std::memory_order_relaxed);
    c.read_bytes.fetch_add(out->size(), std::memory_order_relaxed);
    c.read_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
    return s;
  }

  bool FileExists(const std::string& name) override {
    return base_->FileExists(name);
  }
  tpcp::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  tpcp::Result<uint64_t> FileSize(const std::string& name) override {
    return base_->FileSize(name);
  }
  std::vector<std::string> ListFiles(const std::string& prefix) override {
    return base_->ListFiles(prefix);
  }

 private:
  tpcp::Env* base_;
};

}  // namespace

void RegisterTraceEnv() {
  tpcp::EnvFactoryRegistry::Global().RegisterWrapper(
      "trace", [](tpcp::Env* delegate, tpcp::UriParams*)
                   -> tpcp::Result<std::unique_ptr<tpcp::Env>> {
        return std::unique_ptr<tpcp::Env>(new TracingEnv(delegate));
      });
}

}  // namespace perfbench
