#include "dist/exchange.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "core/names.h"
#include "linalg/kernels.h"

namespace tpcp {
namespace {

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::string Base64Encode(const char* data, size_t size) {
  std::string out;
  out.reserve(((size + 2) / 3) * 4);
  size_t i = 0;
  for (; i + 3 <= size; i += 3) {
    const uint32_t v = (static_cast<uint8_t>(data[i]) << 16) |
                       (static_cast<uint8_t>(data[i + 1]) << 8) |
                       static_cast<uint8_t>(data[i + 2]);
    out.push_back(kB64Alphabet[(v >> 18) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 12) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 6) & 0x3f]);
    out.push_back(kB64Alphabet[v & 0x3f]);
  }
  if (i < size) {
    uint32_t v = static_cast<uint8_t>(data[i]) << 16;
    const bool two = i + 1 < size;
    if (two) v |= static_cast<uint8_t>(data[i + 1]) << 8;
    out.push_back(kB64Alphabet[(v >> 18) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 12) & 0x3f]);
    out.push_back(two ? kB64Alphabet[(v >> 6) & 0x3f] : '=');
    out.push_back('=');
  }
  return out;
}

Result<std::string> Base64Decode(const std::string& text) {
  static const auto value_of = [] {
    std::array<int8_t, 256> table;
    table.fill(-1);
    for (int i = 0; i < 64; ++i) {
      table[static_cast<uint8_t>(kB64Alphabet[i])] = static_cast<int8_t>(i);
    }
    return table;
  }();
  if (text.size() % 4 != 0) {
    return Status::InvalidArgument("base64: length not a multiple of 4");
  }
  std::string out;
  out.reserve((text.size() / 4) * 3);
  for (size_t i = 0; i < text.size(); i += 4) {
    int vals[4];
    int pad = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        if (i + 4 != text.size() || j < 2) {
          return Status::InvalidArgument("base64: misplaced padding");
        }
        vals[j] = 0;
        ++pad;
        continue;
      }
      if (pad > 0) {
        return Status::InvalidArgument("base64: data after padding");
      }
      const int8_t v = value_of[static_cast<uint8_t>(c)];
      if (v < 0) return Status::InvalidArgument("base64: bad character");
      vals[j] = v;
    }
    const uint32_t v = (vals[0] << 18) | (vals[1] << 12) | (vals[2] << 6) |
                       vals[3];
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xff));
  }
  return out;
}

/// Waits for `events` on `fd` for up to `timeout_ms` (< 0 blocks forever).
/// OK when ready; IOError on poll failure or deadline expiry.
Status PollFor(int fd, short events, int timeout_ms, const char* what) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("dist poll: ") +
                             std::strerror(errno));
    }
    if (ready == 0) {
      return Status::IOError(std::string("dist ") + what + " timed out");
    }
    return Status::OK();
  }
}

Status WriteAllNoSig(int fd, const char* data, size_t size, int timeout_ms) {
  size_t sent = 0;
  while (sent < size) {
    if (timeout_ms >= 0) {
      TPCP_RETURN_IF_ERROR(PollFor(fd, POLLOUT, timeout_ms, "send"));
    }
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("dist send: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

int64_t DoubleBits(double value) {
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(value), "double is not 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(int64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

JsonValue EncodeMatrix(const Matrix& m) {
  JsonValue v = JsonValue::Object();
  v.Set("r", m.rows());
  v.Set("c", m.cols());
  v.Set("d", Base64Encode(reinterpret_cast<const char*>(m.data()),
                          static_cast<size_t>(m.size()) * sizeof(double)));
  return v;
}

Result<Matrix> DecodeMatrix(const JsonValue& v) {
  TPCP_ASSIGN_OR_RETURN(const int64_t rows, GetInt(v, "r"));
  TPCP_ASSIGN_OR_RETURN(const int64_t cols, GetInt(v, "c"));
  TPCP_ASSIGN_OR_RETURN(const std::string text, GetString(v, "d"));
  int64_t size = 0;
  if (rows < 0 || cols < 0 || __builtin_mul_overflow(rows, cols, &size) ||
      __builtin_mul_overflow(size, int64_t{sizeof(double)}, &size)) {
    return Status::InvalidArgument("matrix: bad shape");
  }
  TPCP_ASSIGN_OR_RETURN(const std::string bytes, Base64Decode(text));
  if (bytes.size() != static_cast<uint64_t>(size)) {
    return Status::InvalidArgument("matrix: payload does not match shape");
  }
  Matrix m(rows, cols);
  std::memcpy(m.data(), bytes.data(), bytes.size());
  return m;
}

JsonValue EncodeMatrixRows(const Matrix& m, int64_t row0, int64_t row_count) {
  JsonValue v = JsonValue::Object();
  v.Set("r", m.rows());
  v.Set("c", m.cols());
  v.Set("r0", row0);
  v.Set("rc", row_count);
  v.Set("d",
        Base64Encode(reinterpret_cast<const char*>(m.data() +
                                                   row0 * m.cols()),
                     static_cast<size_t>(row_count) *
                         static_cast<size_t>(m.cols()) * sizeof(double)));
  return v;
}

Status DecodeMatrixRowsInto(const JsonValue& v, Matrix* out) {
  TPCP_ASSIGN_OR_RETURN(const int64_t rows, GetInt(v, "r"));
  TPCP_ASSIGN_OR_RETURN(const int64_t cols, GetInt(v, "c"));
  TPCP_ASSIGN_OR_RETURN(const int64_t row0, GetInt(v, "r0"));
  TPCP_ASSIGN_OR_RETURN(const int64_t row_count, GetInt(v, "rc"));
  TPCP_ASSIGN_OR_RETURN(const std::string text, GetString(v, "d"));
  if (rows <= 0 || cols <= 0 || row0 < 0 || row_count < 0 ||
      row0 > rows - row_count) {
    return Status::InvalidArgument("matrix chunk: bad slice");
  }
  // The caller sized *out, so a matching r x c is a real allocation's
  // shape and the byte counts below cannot overflow.
  if (out->rows() != rows || out->cols() != cols) {
    return Status::InvalidArgument("matrix chunk: shape differs from " +
                                   std::to_string(out->rows()) + "x" +
                                   std::to_string(out->cols()));
  }
  TPCP_ASSIGN_OR_RETURN(const std::string bytes, Base64Decode(text));
  if (bytes.size() != static_cast<uint64_t>(row_count * cols) *
                          sizeof(double)) {
    return Status::InvalidArgument("matrix chunk: payload mismatch");
  }
  std::memcpy(out->data() + row0 * cols, bytes.data(), bytes.size());
  return Status::OK();
}

JsonValue EncodeGrid(const GridPartition& grid) {
  JsonValue dims = JsonValue::Array();
  for (int mode = 0; mode < grid.num_modes(); ++mode) {
    dims.Append(grid.tensor_shape().dim(mode));
  }
  JsonValue parts = JsonValue::Array();
  for (const int64_t k : grid.parts()) parts.Append(k);
  JsonValue v = JsonValue::Object();
  v.Set("dims", std::move(dims));
  v.Set("parts", std::move(parts));
  return v;
}

Result<GridPartition> DecodeGrid(const JsonValue& v) {
  const JsonValue* dims = v.Find("dims");
  const JsonValue* parts = v.Find("parts");
  if (dims == nullptr || !dims->is_array() || parts == nullptr ||
      !parts->is_array()) {
    return Status::InvalidArgument("grid: missing dims/parts");
  }
  std::vector<int64_t> dim_values;
  for (const JsonValue& d : dims->array_items()) {
    if (!d.is_int()) return Status::InvalidArgument("grid: bad dim");
    dim_values.push_back(d.int_value());
  }
  if (const auto elements = CheckedElementCount(dim_values); !elements.ok()) {
    return Status::InvalidArgument("grid: " + elements.status().message());
  }
  std::vector<int64_t> part_values;
  for (const JsonValue& p : parts->array_items()) {
    if (!p.is_int()) return Status::InvalidArgument("grid: bad part");
    part_values.push_back(p.int_value());
  }
  return GridPartition::Create(Shape(dim_values), std::move(part_values));
}

JsonValue EncodeOptions(const TwoPhaseCpOptions& options) {
  JsonValue v = JsonValue::Object();
  v.Set("rank", options.rank);
  v.Set("phase1_max_iterations", options.phase1_max_iterations);
  v.Set("phase1_fit_tolerance", DoubleBits(options.phase1_fit_tolerance));
  v.Set("phase1_ridge", DoubleBits(options.phase1_ridge));
  v.Set("init", InitMethodName(options.init));
  v.Set("seed", options.seed);
  v.Set("num_threads", options.num_threads);
  v.Set("schedule", ScheduleTypeName(options.schedule));
  v.Set("policy", PolicyTypeName(options.policy));
  v.Set("buffer_fraction", DoubleBits(options.buffer_fraction));
  v.Set("buffer_bytes", options.buffer_bytes);
  v.Set("max_virtual_iterations", options.max_virtual_iterations);
  v.Set("fit_tolerance", DoubleBits(options.fit_tolerance));
  v.Set("refinement_ridge", DoubleBits(options.refinement_ridge));
  v.Set("resume_phase2", options.resume_phase2);
  v.Set("prefetch_depth", options.prefetch_depth);
  v.Set("io_threads", options.io_threads);
  v.Set("compute_threads", options.compute_threads);
  v.Set("plan_reorder", options.plan_reorder);
  v.Set("plan_reorder_auto", options.plan_reorder_auto);
  v.Set("plan_reorder_window", options.plan_reorder_window);
  v.Set("shard_slab_blocks", options.shard_slab_blocks);
  v.Set("kernel_fma", options.kernel_fma);
  v.Set("policy_victim_hints", options.policy_victim_hints);
  return v;
}

Result<TwoPhaseCpOptions> DecodeOptions(const JsonValue& v) {
  TwoPhaseCpOptions o;
  TPCP_ASSIGN_OR_RETURN(o.rank, GetInt(v, "rank"));
  TPCP_ASSIGN_OR_RETURN(const int64_t p1_iters,
                        GetInt(v, "phase1_max_iterations"));
  o.phase1_max_iterations = static_cast<int>(p1_iters);
  TPCP_ASSIGN_OR_RETURN(const int64_t p1_tol,
                        GetInt(v, "phase1_fit_tolerance"));
  o.phase1_fit_tolerance = BitsToDouble(p1_tol);
  TPCP_ASSIGN_OR_RETURN(const int64_t p1_ridge, GetInt(v, "phase1_ridge"));
  o.phase1_ridge = BitsToDouble(p1_ridge);
  TPCP_ASSIGN_OR_RETURN(const std::string init, GetString(v, "init"));
  TPCP_ASSIGN_OR_RETURN(o.init, InitMethodFromName(init));
  TPCP_ASSIGN_OR_RETURN(const int64_t seed, GetInt(v, "seed"));
  o.seed = static_cast<uint64_t>(seed);
  TPCP_ASSIGN_OR_RETURN(const int64_t threads, GetInt(v, "num_threads"));
  o.num_threads = static_cast<int>(threads);
  TPCP_ASSIGN_OR_RETURN(const std::string schedule,
                        GetString(v, "schedule"));
  TPCP_ASSIGN_OR_RETURN(o.schedule, ScheduleTypeFromName(schedule));
  TPCP_ASSIGN_OR_RETURN(const std::string policy, GetString(v, "policy"));
  TPCP_ASSIGN_OR_RETURN(o.policy, PolicyTypeFromName(policy));
  TPCP_ASSIGN_OR_RETURN(const int64_t frac, GetInt(v, "buffer_fraction"));
  o.buffer_fraction = BitsToDouble(frac);
  TPCP_ASSIGN_OR_RETURN(const int64_t bytes, GetInt(v, "buffer_bytes"));
  o.buffer_bytes = static_cast<uint64_t>(bytes);
  TPCP_ASSIGN_OR_RETURN(const int64_t max_vi,
                        GetInt(v, "max_virtual_iterations"));
  o.max_virtual_iterations = static_cast<int>(max_vi);
  TPCP_ASSIGN_OR_RETURN(const int64_t fit_tol, GetInt(v, "fit_tolerance"));
  o.fit_tolerance = BitsToDouble(fit_tol);
  TPCP_ASSIGN_OR_RETURN(const int64_t ridge,
                        GetInt(v, "refinement_ridge"));
  o.refinement_ridge = BitsToDouble(ridge);
  TPCP_ASSIGN_OR_RETURN(o.resume_phase2, GetBoolOr(v, "resume_phase2", false));
  TPCP_ASSIGN_OR_RETURN(const int64_t depth, GetInt(v, "prefetch_depth"));
  o.prefetch_depth = static_cast<int>(depth);
  TPCP_ASSIGN_OR_RETURN(const int64_t io, GetInt(v, "io_threads"));
  o.io_threads = static_cast<int>(io);
  TPCP_ASSIGN_OR_RETURN(const int64_t compute,
                        GetInt(v, "compute_threads"));
  o.compute_threads = static_cast<int>(compute);
  TPCP_ASSIGN_OR_RETURN(o.plan_reorder, GetBoolOr(v, "plan_reorder", false));
  TPCP_ASSIGN_OR_RETURN(o.plan_reorder_auto,
                        GetBoolOr(v, "plan_reorder_auto", true));
  TPCP_ASSIGN_OR_RETURN(o.plan_reorder_window,
                        GetInt(v, "plan_reorder_window"));
  TPCP_ASSIGN_OR_RETURN(o.shard_slab_blocks,
                        GetInt(v, "shard_slab_blocks"));
  TPCP_ASSIGN_OR_RETURN(o.kernel_fma, GetBoolOr(v, "kernel_fma", false));
  TPCP_ASSIGN_OR_RETURN(o.policy_victim_hints,
                        GetBoolOr(v, "policy_victim_hints", false));
  return o;
}

Status DistChannel::Send(const JsonValue& message) {
  return SendRaw(message);
}

Status DistChannel::Recv(JsonValue* message) { return RecvRaw(message); }

Status DistChannel::SendRaw(const JsonValue& message) {
  TPCP_ASSIGN_OR_RETURN(const std::string frame,
                        EncodeFrame(message.Serialize()));
  return SendBytes(frame.data(), frame.size());
}

Status DistChannel::SendBytes(const char* data, size_t size) {
  // Serialize senders: the worker's heartbeat thread shares the channel
  // with its protocol loop, and interleaved partial frames would corrupt
  // the stream.
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ < 0) return Status::FailedPrecondition("dist channel closed");
  return WriteAllNoSig(fd_, data, size, io_timeout_ms_);
}

Status DistChannel::RecvRaw(JsonValue* message) {
  if (fd_ < 0) return Status::FailedPrecondition("dist channel closed");
  std::string payload;
  while (!decoder_.Next(&payload)) {
    TPCP_RETURN_IF_ERROR(decoder_.error());
    if (io_timeout_ms_ >= 0) {
      // Quiet-period deadline: each arriving byte restarts the clock, so a
      // slow-but-alive peer is fine and a silent one fails in bounded time.
      TPCP_RETURN_IF_ERROR(PollFor(fd_, POLLIN, io_timeout_ms_, "recv"));
    }
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("dist recv: ") +
                             std::strerror(errno));
    }
    if (n == 0) return Status::IOError("dist peer closed connection");
    TPCP_RETURN_IF_ERROR(decoder_.Feed(buf, static_cast<size_t>(n)));
  }
  TPCP_ASSIGN_OR_RETURN(*message, JsonValue::Parse(payload));
  return Status::OK();
}

int DistChannel::ReleaseFd() {
  std::lock_guard<std::mutex> lock(send_mu_);
  return fd_.exchange(-1);
}

void DistChannel::CloseFd() {
  std::lock_guard<std::mutex> lock(send_mu_);
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // A close() alone does not interrupt a recv() blocked on another
    // thread (the overlap pipeline's compute thread closes the channel to
    // abort the protocol loop); shutdown() wakes it with EOF first.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Result<int> DistListen(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("dist socket: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::IOError(std::string("dist bind: ") +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    const Status s = Status::IOError(std::string("dist listen: ") +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status s = Status::IOError(std::string("dist getsockname: ") +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  *port = ntohs(bound.sin_port);
  return fd;
}

namespace {

// Protocol messages are small request/reply frames; with Nagle's algorithm
// on, a frame written right after another can sit in the kernel until the
// peer's delayed ACK fires (~40 ms on Linux loopback), which stalls every
// wave. Both ends of every channel disable it.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<std::unique_ptr<DistChannel>> DistAccept(int listen_fd,
                                                int timeout_ms) {
  for (;;) {
    if (timeout_ms >= 0) {
      pollfd pfd{};
      pfd.fd = listen_fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("dist poll: ") +
                               std::strerror(errno));
      }
      if (ready == 0) return Status::IOError("dist accept timed out");
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("dist accept: ") +
                             std::strerror(errno));
    }
    SetNoDelay(fd);
    return std::make_unique<DistChannel>(fd);
  }
}

namespace {

Result<int> DistConnectOnce(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("dist socket: ") +
                           std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::IOError(std::string("dist connect: ") +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  SetNoDelay(fd);
  return fd;
}

}  // namespace

Result<std::unique_ptr<DistChannel>> DistConnect(int port,
                                                 const RetryPolicy& retry) {
  int fd = -1;
  TPCP_RETURN_IF_ERROR(RetryWithBackoff(
      retry, "dist connect to port " + std::to_string(port), [&] {
        Result<int> attempt = DistConnectOnce(port);
        if (!attempt.ok()) return attempt.status();
        fd = *attempt;
        return Status::OK();
      }));
  return std::make_unique<DistChannel>(fd);
}

}  // namespace tpcp
