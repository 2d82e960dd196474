#include "buffer/prefetch_pipeline.h"

#include <algorithm>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace tpcp {

PrefetchPipeline::PrefetchPipeline(BufferPool* pool,
                                   const ExecutionPlan* plan,
                                   LoadCallback load,
                                   BufferPool::EvictCallback evict,
                                   Options options)
    : pool_(pool),
      plan_(plan),
      load_(std::move(load)),
      evict_(std::move(evict)),
      options_(std::move(options)),
      next_issue_(options_.start_pos) {
  TPCP_CHECK(pool_ != nullptr);
  TPCP_CHECK(plan_ != nullptr);
  TPCP_CHECK(load_ != nullptr);
  TPCP_CHECK(evict_ != nullptr);
  TPCP_CHECK_GE(plan_->prefetch_depth(), 0);
  if (plan_->prefetch_depth() > 0) {
    TPCP_CHECK_GE(options_.io_threads, 1);
    io_pool_ = std::make_unique<ThreadPool>(options_.io_threads);
  }
}

Status PrefetchPipeline::FirstError() {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void PrefetchPipeline::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok() && first_error_.ok()) first_error_ = status;
}

double PrefetchPipeline::AwaitOp(const std::shared_ptr<AsyncOp>& op) {
  Stopwatch watch;
  std::unique_lock<std::mutex> lock(mu_);
  op_done_.wait(lock, [&] { return op->done; });
  return watch.ElapsedSeconds();
}

Status PrefetchPipeline::WriteBack(const ModePartition& victim) {
  Stopwatch watch;
  const Status status = evict_(victim, /*dirty=*/true);
  RecordError(status);
  std::lock_guard<std::mutex> lock(mu_);
  writeback_seconds_ += watch.ElapsedSeconds();
  return status;
}

bool PrefetchPipeline::TryIssue(int64_t p, bool ahead) {
  // A cancelled run will never execute steps past the one in flight, so
  // speculative loads are wasted I/O; due steps (ahead == false) must
  // still be honored for the engine's final BeginBatch.
  if (ahead && options_.cancel != nullptr && options_.cancel->cancelled()) {
    return false;
  }
  if (options_.owned != nullptr && !options_.owned(p)) {
    ++next_issue_;  // another executor's step: nothing to bring in
    return true;
  }
  const ModePartition unit = plan_->UnitAt(p);

  if (pool_->IsResident(unit)) {
    pool_->TouchResident(unit, p);
    // The unit may still be loading for an earlier window slot; this step
    // must then wait on the same load. A plain hit carries no ahead credit.
    std::shared_ptr<AsyncOp> load;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = loads_.find(unit);
      if (it != loads_.end()) load = it->second;
    }
    window_.push_back(WindowSlot{p, unit, std::move(load),
                                 /*issued_ahead=*/false, /*was_hit=*/true,
                                 /*counts_against_budget=*/false});
    ++next_issue_;
    return true;
  }

  // Ahead-of-time *miss* reservations are capped at half the buffer: each
  // one pins a newly swapped-in unit, shrinking the replacement policy's
  // choice of victims, and letting the prefetch window eat the whole
  // budget trades cache quality (extra swaps) for overlap. Without
  // lookahead the window is only the batch being acquired, which may grow
  // until pinned units fill the buffer (Reserve's own limit). Hits pass
  // freely — pinning a unit the policy already kept costs no swap. The
  // due step (ahead == false) always reserves: the window is empty then.
  const uint64_t bytes = pool_->catalog().UnitBytes(unit);
  const uint64_t budget = pool_->capacity_bytes() / (io_pool_ ? 2 : 1);
  if (ahead && window_load_bytes_ + bytes > budget) return false;

  std::vector<BufferPool::Eviction> evicted;
  const Status reserve = pool_->Reserve(unit, p, &evicted);
  if (reserve.IsResourceExhausted()) {
    return false;  // pinned window fills the buffer; retry after a step
  }
  TPCP_CHECK(reserve.ok()) << reserve.ToString();
  ++next_issue_;

  for (const auto& [victim, dirty] : evicted) {
    {
      // Victims are unpinned, so any load they had is long complete.
      std::lock_guard<std::mutex> lock(mu_);
      loads_.erase(victim);
    }
    if (!dirty) {
      RecordError(evict_(victim, /*dirty=*/false));  // no I/O: inline
    } else if (io_pool_ == nullptr) {
      WriteBack(victim);  // depth 0: inline, error recorded
    } else {
      auto wb = std::make_shared<AsyncOp>();
      {
        std::lock_guard<std::mutex> lock(mu_);
        writebacks_[victim] = wb;
      }
      io_pool_->Submit([this, victim, wb] {
        const Status status = WriteBack(victim);
        {
          std::lock_guard<std::mutex> lock(mu_);
          wb->status = status;
          wb->done = true;
          auto it = writebacks_.find(victim);
          if (it != writebacks_.end() && it->second == wb) {
            writebacks_.erase(it);
          }
        }
        op_done_.notify_all();
      });
    }
  }

  std::shared_ptr<AsyncOp> load;
  if (io_pool_ == nullptr) {
    // Depth 0: the step's load runs here, and the compute thread waits
    // through all of it.
    Stopwatch watch;
    const Status status = load_(unit);
    pool_->RecordStall(watch.ElapsedSeconds());
    if (!status.ok()) {
      // No bytes arrived: drop the reservation, surface the error.
      pool_->Unpin(unit);
      pool_->Discard(unit);
      RecordError(status);
      return true;
    }
  } else {
    load = std::make_shared<AsyncOp>();
    std::shared_ptr<AsyncOp> wb_dep;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = writebacks_.find(unit);
      if (it != writebacks_.end()) wb_dep = it->second;
      loads_[unit] = load;
    }
    io_pool_->Submit([this, unit, load, wb_dep] {
      if (wb_dep != nullptr) {
        // Write-then-read ordering for re-loads of a just-evicted unit.
        // The writeback was submitted first, so it is never stuck behind
        // us.
        std::unique_lock<std::mutex> lock(mu_);
        op_done_.wait(lock, [&] { return wb_dep->done; });
        if (!wb_dep->status.ok()) {
          load->status = wb_dep->status;
          load->done = true;
          lock.unlock();
          op_done_.notify_all();
          return;
        }
      }
      const Status status = load_(unit);
      {
        // Load failures are not recorded in first_error_: they only
        // matter if the step that needs the unit actually runs, and
        // BeginBatch reports them then. A speculative prefetch issued
        // past the convergence point may fail without poisoning a
        // finished run.
        std::lock_guard<std::mutex> lock(mu_);
        load->status = status;
        load->done = true;
      }
      op_done_.notify_all();
    });
  }
  window_.push_back(WindowSlot{p, unit, std::move(load),
                               ahead && io_pool_ != nullptr,
                               /*was_hit=*/false,
                               /*counts_against_budget=*/true});
  window_load_bytes_ += bytes;
  return true;
}

Status PrefetchPipeline::BeginBatch(int64_t pos, int64_t max_count,
                                    int64_t* acquired) {
  TPCP_CHECK(acquired != nullptr);
  TPCP_CHECK_GE(max_count, 1);
  TPCP_RETURN_IF_ERROR(FirstError());

  // If the window has not reached `pos` (deferred reservations, or depth
  // 0), issue the missing steps now. The window is empty in that case —
  // every earlier step already ran and released its pin — so issuing
  // cannot fail.
  while (next_issue_ <= pos) {
    TPCP_CHECK(TryIssue(next_issue_, /*ahead=*/false))
        << "reservation failed with an empty window";
  }
  // Grow the window over the rest of the batch. These are due steps, but
  // unlike the first they may fail to reserve (pinned batch mates and
  // prefetches shrink the pool) — the batch then simply splits here and
  // the remainder is acquired next call. The ahead=true path also keeps
  // the miss-budget cap, so a wide batch of misses cannot pin more than
  // the budget at once.
  while (next_issue_ < pos + max_count) {
    if (!TryIssue(next_issue_, /*ahead=*/true)) break;
  }
  // A failed inline load or writeback (depth 0).
  TPCP_RETURN_IF_ERROR(FirstError());
  TPCP_CHECK(!window_.empty() && window_.front().pos == pos)
      << "step " << pos << " is not the next owned step";
  const int64_t end = std::min(pos + max_count, next_issue_);

  for (WindowSlot& slot : window_) {
    if (slot.pos >= end) break;
    pool_->RecordAccess(slot.was_hit);
    if (slot.load != nullptr) {
      bool already_done;
      {
        std::lock_guard<std::mutex> lock(mu_);
        already_done = slot.load->done;
      }
      if (already_done) {
        if (slot.issued_ahead) pool_->RecordPrefetchHit();
      } else {
        pool_->RecordStall(AwaitOp(slot.load));
      }
      std::lock_guard<std::mutex> lock(mu_);
      TPCP_RETURN_IF_ERROR(slot.load->status);
    }
    // The step's own load is complete; it no longer occupies the in-flight
    // budget, freeing a slot for the window to prefetch further ahead.
    if (slot.counts_against_budget) {
      window_load_bytes_ -= pool_->catalog().UnitBytes(slot.unit);
      slot.counts_against_budget = false;
    }
  }
  *acquired = end - pos;
  return Status::OK();
}

Status PrefetchPipeline::EndBatch(int64_t pos, int64_t count) {
  TPCP_CHECK_GE(count, 1);
  const int64_t end = pos + count;
  while (!window_.empty() && window_.front().pos < end) {
    const WindowSlot slot = window_.front();
    window_.pop_front();
    pool_->Unpin(slot.unit);
    // BeginBatch already released this slot's in-flight budget.
    TPCP_CHECK(!slot.counts_against_budget);
  }
  // Keep the reservation window the plan's depth ahead of the last
  // *executed* step (never of the wave end: a buffer-split wave's tail
  // has not run yet, and overreaching past it would pin units early).
  const int64_t target = end - 1 + plan_->prefetch_depth();
  while (next_issue_ <= target) {
    if (!TryIssue(next_issue_, /*ahead=*/true)) break;
  }
  return FirstError();
}

Status PrefetchPipeline::Drain() {
  if (io_pool_ != nullptr) io_pool_->Wait();
  std::lock_guard<std::mutex> lock(mu_);
  // Never-executed slots whose speculative load failed leave the pool
  // claiming residency for a unit the load callback never materialized;
  // drop that bookkeeping once the unit's last slot unpins it, so a
  // subsequent Flush does not evict a phantom. The failure itself is
  // benign — the step never ran.
  for (const WindowSlot& slot : window_) {
    pool_->Unpin(slot.unit);
    if (slot.load != nullptr && !slot.load->status.ok() &&
        !pool_->IsPinned(slot.unit)) {
      pool_->Discard(slot.unit);
    }
  }
  window_.clear();
  window_load_bytes_ = 0;
  loads_.clear();
  writebacks_.clear();
  pool_->RecordWriteback(writeback_seconds_);
  writeback_seconds_ = 0.0;
  return first_error_;
}

}  // namespace tpcp
