// Job-level types of the stitch service: what callers submit, how they
// observe progress, and the handle through which they wait or cancel.
//
// A StitchJob is a named StitchRequest plus a scheduling priority. The
// service turns each accepted job into a shared JobRecord; the returned
// JobHandle is a thin reference-counted view of that record, so handles
// stay valid (for wait/progress) even after the service has retired the
// job. Providers are NOT owned: the caller keeps the TileProvider alive
// until the job reaches a terminal state.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pipeline/cancel.hpp"
#include "stitch/ledger.hpp"
#include "stitch/request.hpp"
#include "trace/trace.hpp"

namespace hs::serve {

/// Lifecycle: kQueued -> kAdmitted -> kRunning -> one terminal state.
/// A queued job cancelled before admission jumps straight to kCancelled; one
/// refused or evicted by the overload policy goes terminal as kRejected
/// without ever queueing (or from the queue, if evicted later).
enum class JobState {
  kQueued,     ///< accepted, waiting for memory budget + a worker
  kAdmitted,   ///< budget reserved, about to start
  kRunning,    ///< a worker is executing stitch()
  kDone,       ///< finished; result available
  kCancelled,  ///< cancel() won the race; wait() rethrows Cancelled
  kFailed,     ///< the backend threw; wait() rethrows the original error
  kRejected,   ///< overload policy refused it; wait() rethrows Overloaded
};

std::string job_state_name(JobState state);
inline bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kCancelled ||
         state == JobState::kFailed || state == JobState::kRejected;
}

/// What callers submit: a StitchRequest (whose `provider` must outlive the
/// job) plus the service's own fields. The service normalizes an empty
/// tenant to "default", and when `fallback` is empty and the primary is a
/// GPU backend it defaults the chain to {kMtCpu}, so a dying device degrades
/// to the CPU instead of failing the job. `deadline_ms` counts from
/// submit(): a job that expires while queued is shed before admission
/// (state kFailed, DeadlineExceeded), with its final checkpoint written so a
/// resubmit resumes.
struct StitchJob : stitch::StitchRequest {
  std::string name;
  /// Higher runs first among jobs that fit the remaining budget.
  int priority = 0;
  /// When set, the service periodically persists the job's partial
  /// displacement table here (see ServiceConfig::checkpoint_interval_s) and,
  /// if the file already holds a compatible table, resumes from it —
  /// recomputing only the missing pairs. Checkpoints carry a CRC32C footer
  /// and the job's quarantined-tile set; a corrupt file is detected and the
  /// job starts fresh instead of resuming from damage. The quarantine
  /// sidecar extends `pre_quarantined` on resume, so a recovered job does
  /// not re-read tiles a previous incarnation already gave up on.
  std::string checkpoint_path;
  /// Longest this job may wait in the queue before it is shed (kRejected),
  /// milliseconds; 0 falls back to ServiceConfig::max_queue_wait_s.
  std::int64_t max_queue_wait_ms = 0;
};

/// Point-in-time progress snapshot.
struct JobProgress {
  JobState state = JobState::kQueued;
  std::size_t pairs_done = 0;
  std::size_t pairs_total = 0;

  double fraction() const {
    return pairs_total == 0 ? 0.0
                            : static_cast<double>(pairs_done) /
                                  static_cast<double>(pairs_total);
  }
};

/// Per-job timing, microseconds since the service's epoch. start/end are
/// zero until the corresponding transition happened.
struct JobTiming {
  double submit_us = 0.0;
  double start_us = 0.0;
  double end_us = 0.0;

  double queued_us() const { return start_us - submit_us; }
  double run_us() const { return end_us - start_us; }
  double latency_us() const { return end_us - submit_us; }
};

namespace detail {

/// Shared state between the service's scheduler/workers and the caller's
/// JobHandle. Lock ordering: the service mutex is never acquired while
/// `mutex` is held (notify_service is copied out first).
struct JobRecord {
  // Immutable after submit.
  std::string name;
  stitch::StitchRequest request;
  int priority = 0;
  std::size_t footprint_bytes = 0;
  double predicted_seconds = 0.0;
  std::size_t pairs_total = 0;
  /// Per-job trace lane source (only when the service records traces and
  /// the caller did not supply a recorder of their own).
  std::unique_ptr<trace::Recorder> recorder;

  // Written by the controller and polled by the backend.
  pipe::CancelToken cancel;
  std::atomic<std::size_t> pairs_done{0};

  /// Effective max queue wait, seconds (job override or service default);
  /// 0 = unlimited. Immutable after submit.
  double max_queue_wait_s = 0.0;

  // Stall-watchdog bookkeeping: last observed pairs_done and when it last
  // advanced. Touched only by the service's watchdog thread.
  std::size_t wd_last_pairs = ~std::size_t{0};
  std::chrono::steady_clock::time_point wd_last_change{};

  /// Write-ahead journal id; 0 when the service runs without a journal.
  /// Immutable after submit.
  std::uint64_t journal_id = 0;

  // Checkpoint state (set at submit, immutable afterwards; the ledger is
  // internally synchronized, so the checkpoint thread can snapshot it while
  // the job runs).
  std::string checkpoint_path;
  std::unique_ptr<stitch::PairLedger> ledger;
  stitch::DisplacementTable warm;
  bool has_warm = false;

  // Guarded by `mutex`.
  mutable std::mutex mutex;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  stitch::StitchResult result;
  std::exception_ptr error;
  JobTiming timing;
  /// Wakes the service scheduler after a cancel request; cleared when the
  /// service shuts down.
  std::function<void()> notify_service;
};

/// Builds an internally consistent snapshot: pairs_done is clamped to
/// pairs_total so a mid-update read can never report done > total. Callers
/// must read `done` and `state` under the record mutex — terminal states are
/// published under that mutex after the backend's final pair increment, so a
/// terminal snapshot always carries the final count.
inline JobProgress make_progress(JobState state, std::size_t done,
                                 std::size_t total) {
  JobProgress p;
  p.state = state;
  p.pairs_done = done < total ? done : total;
  p.pairs_total = total;
  return p;
}

}  // namespace detail

/// Caller-side view of a submitted job. Copyable; all methods are
/// thread-safe. A default-constructed handle is empty (valid() == false).
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return record_ != nullptr; }
  const std::string& name() const { return record_->name; }
  std::size_t footprint_bytes() const { return record_->footprint_bytes; }
  double predicted_seconds() const { return record_->predicted_seconds; }

  JobState state() const {
    std::lock_guard<std::mutex> lock(record_->mutex);
    return record_->state;
  }

  JobProgress progress() const {
    std::lock_guard<std::mutex> lock(record_->mutex);
    return detail::make_progress(
        record_->state, record_->pairs_done.load(std::memory_order_acquire),
        record_->pairs_total);
  }

  JobTiming timing() const {
    std::lock_guard<std::mutex> lock(record_->mutex);
    return record_->timing;
  }

  /// Requests cooperative cancellation. A queued job transitions to
  /// kCancelled without running; a running job unwinds at its next
  /// preemption point. Idempotent; a no-op once the job is terminal.
  void cancel() {
    record_->cancel.request();
    std::function<void()> notify;
    {
      std::lock_guard<std::mutex> lock(record_->mutex);
      if (is_terminal(record_->state)) return;
      notify = record_->notify_service;
    }
    if (notify) notify();
  }

  /// Blocks until the job reaches a terminal state. Returns the result on
  /// kDone; rethrows Cancelled on kCancelled, the backend's original
  /// exception on kFailed, and Overloaded on kRejected.
  const stitch::StitchResult& wait() const {
    std::unique_lock<std::mutex> lock(record_->mutex);
    record_->cv.wait(lock, [&] { return is_terminal(record_->state); });
    if (record_->state == JobState::kDone) return record_->result;
    if (record_->error) std::rethrow_exception(record_->error);
    throw Cancelled("job " + record_->name + " cancelled before start");
  }

 private:
  friend class StitchService;
  explicit JobHandle(std::shared_ptr<detail::JobRecord> record)
      : record_(std::move(record)) {}

  std::shared_ptr<detail::JobRecord> record_;
};

}  // namespace hs::serve
