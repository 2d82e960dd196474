// Wire vocabulary of the distributed Phase-2 executor (dist/coordinator.h,
// dist/worker.h): a blocking framed-JSON channel over a localhost socket
// plus bit-exact codecs for the values the protocol moves.
//
// The protocol reuses the tpcpd stack — server/json values inside
// server/wire length-prefixed frames — but runs its own message grammar
// ("t"-tagged objects). Two encoding rules keep the distributed run
// bit-identical to a single-process one:
//
//  - Matrices travel as base64 of their raw little-endian double bytes.
//    JSON number round-trips are not bit-faithful for doubles; raw bytes
//    are.
//  - Scalar doubles that must compare bitwise (surrogate fits, option
//    fields feeding ResumeFingerprint) travel as their IEEE-754 bit
//    pattern in an int64 (JSON integers round-trip exactly).
//
// Large payloads (sub-factors, long slab-M lists) are chunked by the
// callers so every frame stays under server/wire's 1 MiB ceiling.

#ifndef TPCP_DIST_EXCHANGE_H_
#define TPCP_DIST_EXCHANGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include <mutex>

#include "core/config.h"
#include "grid/grid_partition.h"
#include "linalg/matrix.h"
#include "server/json.h"
#include "server/wire.h"
#include "util/retry.h"

namespace tpcp {

/// Matrix payload bytes per frame chunk. Well under kMaxFrameBytes even
/// after base64 (4/3) and JSON framing overhead.
constexpr uint64_t kDistChunkBytes = 256u * 1024u;

/// Bit-faithful double <-> int64 (IEEE-754 bit pattern).
int64_t DoubleBits(double value);
double BitsToDouble(int64_t bits);

/// Whole matrix as {"r","c","d"} with d = base64(raw LE doubles).
JsonValue EncodeMatrix(const Matrix& m);
Result<Matrix> DecodeMatrix(const JsonValue& v);

/// Row slice [row0, row0+row_count) of `m` as {"r","c","r0","rc","d"} —
/// the chunked form for matrices larger than one frame.
JsonValue EncodeMatrixRows(const Matrix& m, int64_t row0, int64_t row_count);
/// Installs a row-slice chunk into `*out`, which the caller sizes: a chunk
/// whose r x c differs from out's shape is InvalidArgument, so no
/// allocation is ever sized by the wire.
Status DecodeMatrixRowsInto(const JsonValue& v, Matrix* out);

/// Grid geometry as {"dims","parts"}.
JsonValue EncodeGrid(const GridPartition& grid);
Result<GridPartition> DecodeGrid(const JsonValue& v);

/// Every scalar field of TwoPhaseCpOptions (observer/cancel excluded), so
/// a worker rebuilds options whose ResumeFingerprint and Phase-2 planner
/// inputs equal the coordinator's exactly.
JsonValue EncodeOptions(const TwoPhaseCpOptions& options);
Result<TwoPhaseCpOptions> DecodeOptions(const JsonValue& v);

/// Blocking framed-JSON channel over a connected socket. Sends are
/// mutex-serialized so a heartbeat thread can share the channel with the
/// protocol loop; Recv stays single-consumer. Writes use MSG_NOSIGNAL so a
/// dead peer surfaces as a Status, never SIGPIPE.
///
/// Send/Recv/Close are virtual so the chaos harness (dist/faulty_channel.h)
/// can interpose scripted faults on the exact same code path.
class DistChannel {
 public:
  explicit DistChannel(int fd) : fd_(fd) {}
  virtual ~DistChannel() { CloseFd(); }
  DistChannel(const DistChannel&) = delete;
  DistChannel& operator=(const DistChannel&) = delete;

  virtual Status Send(const JsonValue& message);
  /// Blocks for the next frame. IOError("peer closed") on clean EOF;
  /// IOError("timed out") when an I/O deadline is set and the peer stays
  /// silent past it.
  virtual Status Recv(JsonValue* message);

  virtual void Close() { CloseFd(); }
  int fd() const { return fd_; }

  /// Quiet-period deadline for both directions: Recv fails when no bytes
  /// arrive for `ms`, Send fails when the socket stays unwritable for `ms`
  /// (peer dead with a full buffer). Negative = block forever (default).
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }
  int io_timeout_ms() const { return io_timeout_ms_; }

  /// Detaches and returns the socket without closing it; the channel
  /// becomes unusable. For re-wrapping a fresh connection (chaos harness).
  int ReleaseFd();

 protected:
  /// Send/Recv over the raw socket, bypassing any chaos interposition —
  /// the base implementations subclasses delegate to.
  Status SendRaw(const JsonValue& message);
  Status RecvRaw(JsonValue* message);
  /// Writes raw bytes (not necessarily a valid frame) to the socket.
  /// Exposed for the chaos harness's garbage injection.
  Status SendBytes(const char* data, size_t size);
  void CloseFd();

 private:
  /// Atomic: under the overlap pipeline a worker's compute thread calls
  /// Close() to abort a Recv blocked on the protocol thread, so the fd is
  /// read and invalidated concurrently.
  std::atomic<int> fd_;
  int io_timeout_ms_ = -1;
  std::mutex send_mu_;
  FrameDecoder decoder_;
};

/// Listening socket on 127.0.0.1:`*port` (0 = ephemeral; *port is updated
/// to the bound port).
Result<int> DistListen(int* port);
/// Blocks for one inbound connection on `listen_fd`. With a non-negative
/// `timeout_ms`, returns IOError("accept timed out") when no worker
/// connects in time — a spawn that died before connecting must surface as
/// an error, not a hang.
Result<std::unique_ptr<DistChannel>> DistAccept(int listen_fd,
                                                int timeout_ms = -1);
/// Connects to 127.0.0.1:`port`, retrying transient failures (connection
/// refused while the coordinator is still binding, say) under `retry`.
Result<std::unique_ptr<DistChannel>> DistConnect(
    int port, const RetryPolicy& retry = RetryPolicy());

}  // namespace tpcp

#endif  // TPCP_DIST_EXCHANGE_H_
