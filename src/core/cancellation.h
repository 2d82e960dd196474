// Cooperative cancellation for long-running decompositions.
//
// A CancellationToken is a thread-safe flag shared between a controller
// (JobService::Cancel, a signal handler, a test) and the engines doing the
// work. Engines never abort mid-update: they poll the token at safe
// boundaries — Phase-1 block completions and Phase-2 schedule steps — and
// wind down cleanly, flushing dirty state so the factor store is left
// resumable, then surface Status::Cancelled to the caller.
//
// The token is attached through TwoPhaseCpOptions::cancel (non-owning, like
// the observer) and threads through TwoPhaseCp, Phase2Engine and the
// prefetch pipeline.

#ifndef TPCP_CORE_CANCELLATION_H_
#define TPCP_CORE_CANCELLATION_H_

#include <atomic>

namespace tpcp {

/// A latch-style cancellation flag. Cancel() may be called from any thread,
/// any number of times; cancelled() is a cheap relaxed load suitable for
/// per-step polling.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Engines observe it at their next boundary.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Re-arms the token for reuse (e.g. resubmitting a cancelled job with
  /// the same options struct). Only safe once no engine is polling it.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

}  // namespace tpcp

#endif  // TPCP_CORE_CANCELLATION_H_
