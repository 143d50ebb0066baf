#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/thread_util.hpp"
#include "metrics/wellknown.hpp"
#include "stitch/shared_cache.hpp"
#include "stitch/spectrum_store.hpp"
#include "stitch/stitcher.hpp"
#include "stitch/table_io.hpp"

namespace hs::serve {

std::string job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kAdmitted: return "admitted";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

StitchService::StitchService(ServiceConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()),
      breaker_(config_.breaker) {
  HS_REQUIRE(config_.workers >= 1, "workers: must be >= 1");
  HS_REQUIRE(config_.memory_budget_bytes > 0,
             "memory_budget_bytes: must be > 0");
  HS_REQUIRE(config_.max_queued >= 1, "max_queued: must be >= 1");
  HS_REQUIRE(config_.max_queue_wait_s >= 0.0,
             "max_queue_wait_s: must be >= 0");
  HS_REQUIRE(config_.stall_timeout_s >= 0.0, "stall_timeout_s: must be >= 0");
  HS_REQUIRE(config_.watchdog_period_s >= 0.0,
             "watchdog_period_s: must be >= 0");
  HS_REQUIRE(config_.checkpoint_interval_s >= 0.0,
             "checkpoint_interval_s: must be >= 0");
  HS_REQUIRE(config_.soft_watermark >= 0.0 && config_.soft_watermark <= 1.0,
             "soft_watermark: must be a fraction in [0, 1]");
  HS_REQUIRE(config_.hard_watermark >= 0.0 && config_.hard_watermark <= 1.0,
             "hard_watermark: must be a fraction in [0, 1]");
  if (config_.soft_watermark > 0.0 && config_.hard_watermark > 0.0) {
    HS_REQUIRE(config_.soft_watermark <= config_.hard_watermark,
               "soft_watermark: must not exceed hard_watermark (degrade "
               "before defer)");
  }
  if (!config_.spill_dir.empty()) {
    HS_REQUIRE(config_.shared_cache_bytes > 0,
               "spill_dir: the disk spill tier sits under the shared cache; "
               "set shared_cache_bytes > 0 (or clear spill_dir)");
  }
  if (config_.shared_cache_bytes > 0) {
    stitch::SharedSpectrumCache::Config cache_config;
    cache_config.capacity_bytes = config_.shared_cache_bytes;
    if (!config_.spill_dir.empty()) {
      // The store recovers its on-disk index (and GCs dead frames) here,
      // before any job exists — recovered jobs warm-start from it too.
      stitch::SpectrumStore::Config store_config;
      store_config.dir = config_.spill_dir;
      store_config.faults = config_.journal.faults;
      spill_store_ = std::make_unique<stitch::SpectrumStore>(store_config);
      cache_config.store = spill_store_.get();
    }
    shared_cache_ = std::make_unique<stitch::SharedSpectrumCache>(cache_config);
  }
  // Replay + resubmit before any thread exists: recovered jobs sit in the
  // queue when the first worker wakes, and recovered_jobs() is fully
  // populated by the time the constructor returns.
  recover_from_journal();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
  if (config_.checkpoint_interval_s > 0.0) {
    checkpoint_thread_ = std::thread([this] { checkpoint_main(); });
  }
  watchdog_thread_ = std::thread([this] { watchdog_main(); });
}

StitchService::~StitchService() {
  {
    // Refuse new work first, so a submit blocked on backpressure returns
    // (rejected) instead of racing the drain below.
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
  }
  cv_submit_.notify_all();
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_workers_.notify_all();
  cv_checkpoint_.notify_all();
  cv_watchdog_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  // Handles may outlive the service; their cancel() must not call back
  // into a destroyed scheduler.
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records = jobs_;
  }
  for (const Record& record : records) {
    std::lock_guard<std::mutex> lock(record->mutex);
    record->notify_service = nullptr;
  }
}

void StitchService::shutdown(double drain_deadline_s) {
  HS_REQUIRE(drain_deadline_s >= 0.0, "drain_deadline_s: must be >= 0");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
  }
  cv_submit_.notify_all();
  bool drained;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drained = cv_idle_.wait_for(
        lock, std::chrono::duration<double>(drain_deadline_s),
        [&] { return queue_.empty() && running_ == 0; });
  }
  if (!drained) {
    // Past the drain deadline: cancel the stragglers. Running jobs unwind
    // at their next preemption point and write their final checkpoint;
    // queued ones retire (also checkpointed) without running.
    cancel_all();
    wait_idle();
  }
}

double StitchService::watchdog_period_s() const {
  if (config_.watchdog_period_s > 0.0) return config_.watchdog_period_s;
  if (config_.stall_timeout_s > 0.0) {
    return std::clamp(config_.stall_timeout_s / 4.0, 0.001, 0.01);
  }
  return 0.01;
}

double StitchService::elapsed_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void StitchService::recover_from_journal() {
  if (config_.journal.dir.empty()) return;
  journal_ = std::make_unique<Journal>(config_.journal);
  ReplayStats stats;
  const std::vector<ReplayedJob> replayed = journal_->replay(&stats);
  recovery_.replayed_records = stats.records;
  recovery_.truncated_records = stats.truncated_records;
  for (const ReplayedJob& entry : replayed) {
    const stitch::TileProvider* provider =
        config_.provider_resolver ? config_.provider_resolver(entry.name)
                                  : nullptr;
    if (provider == nullptr) {
      // No provider to rebind: the job stays live in the journal (compaction
      // re-emits it), so a later restart with a resolver can still pick it
      // up.
      ++recovery_.unresolved;
      metrics::wellknown::journal_replay_jobs_total("unresolved").add();
      std::fprintf(stderr,
                   "serve: recovered job %s has no provider; leaving it in "
                   "the journal\n",
                   entry.name.c_str());
      continue;
    }
    try {
      StitchJob job;
      static_cast<stitch::StitchRequest&>(job) =
          stitch::deserialize_request(entry.request_text);
      job.provider = provider;
      job.name = entry.name;
      job.priority = entry.priority;
      job.checkpoint_path = entry.checkpoint_path;
      JobHandle handle = submit_internal(std::move(job), entry.id);
      const bool resumed = handle.record_->has_warm;
      if (resumed) {
        ++recovery_.resumed;
      } else {
        ++recovery_.fresh;
      }
      metrics::wellknown::journal_replay_jobs_total(resumed ? "resumed"
                                                            : "fresh")
          .add();
      recovered_.push_back(std::move(handle));
    } catch (const Error& e) {
      ++recovery_.unresolved;
      metrics::wellknown::journal_replay_jobs_total("unresolved").add();
      std::fprintf(stderr, "serve: could not resubmit recovered job %s: %s\n",
                   entry.name.c_str(), e.what());
    }
  }
  // Sweep checkpoint .tmp orphans: a crash between a checkpoint's temp
  // write and its rename leaves `<path>.tmp` behind. Every checkpoint path
  // the journal knows about gets its temp sibling removed — the published
  // path itself is never touched.
  for (const std::string& path : journal_->replayed_checkpoint_paths()) {
    const std::string tmp = path + ".tmp";
    if (std::remove(tmp.c_str()) == 0) {
      ++recovery_.checkpoint_tmp_removed;
      std::fprintf(stderr, "serve: removed orphaned checkpoint temp %s\n",
                   tmp.c_str());
    }
  }
  // Drop the dead history: the fresh segment holds only live jobs, so the
  // next restart replays a journal proportional to outstanding work.
  journal_->compact();
}

JobHandle StitchService::submit(StitchJob job) {
  return submit_internal(std::move(job), /*journal_id=*/0);
}

JobHandle StitchService::submit_internal(StitchJob job,
                                         std::uint64_t journal_id) {
  auto record = std::make_shared<detail::JobRecord>();
  record->name = std::move(job.name);
  record->request = std::move(static_cast<stitch::StitchRequest&>(job));
  // Normalized here once; every later consumer (scheduler, shared cache,
  // journal serde) sees a non-empty tenant.
  if (record->request.tenant.empty()) record->request.tenant = "default";
  if (record->request.fallback.empty() &&
      stitch::is_gpu_backend(record->request.backend)) {
    // GPU jobs degrade to the CPU by default rather than failing outright.
    record->request.fallback = {stitch::Backend::kMtCpu};
  }
  record->request.validate();
  HS_REQUIRE(job.max_queue_wait_ms >= 0, "max_queue_wait_ms: must be >= 0");
  record->max_queue_wait_s = job.max_queue_wait_ms > 0
                                 ? static_cast<double>(job.max_queue_wait_ms) / 1e3
                                 : config_.max_queue_wait_s;
  record->priority = job.priority;
  if (!job.checkpoint_path.empty()) {
    record->checkpoint_path = job.checkpoint_path;
    record->ledger = std::make_unique<stitch::PairLedger>(
        record->request.provider->layout());
    if (std::ifstream(job.checkpoint_path).good()) {
      try {
        stitch::TableFileData data =
            stitch::read_table_file(job.checkpoint_path);
        const img::GridLayout layout = record->request.provider->layout();
        if (data.table.layout.rows == layout.rows &&
            data.table.layout.cols == layout.cols) {
          record->warm = std::move(data.table);
          record->has_warm = true;
          record->ledger->prime(record->warm);
          // Quarantine AFTER the prime: failed pairs round-trip through the
          // CSV as not-computed, so priming alone would re-run them against
          // tiles a previous incarnation already gave up on. The sidecar
          // turns them back into failures and keeps the tiles unread.
          for (const std::size_t tile : data.quarantined) {
            record->ledger->quarantine_tile(tile);
            record->request.pre_quarantined.push_back(tile);
          }
          std::sort(record->request.pre_quarantined.begin(),
                    record->request.pre_quarantined.end());
          record->request.pre_quarantined.erase(
              std::unique(record->request.pre_quarantined.begin(),
                          record->request.pre_quarantined.end()),
              record->request.pre_quarantined.end());
        } else {
          std::fprintf(stderr,
                       "serve: checkpoint %s is a %zux%zu grid but the job "
                       "is %zux%zu; starting fresh\n",
                       job.checkpoint_path.c_str(), data.table.layout.rows,
                       data.table.layout.cols, layout.rows, layout.cols);
        }
      } catch (const Error& e) {
        std::fprintf(stderr,
                     "serve: unreadable checkpoint %s (%s); starting fresh\n",
                     job.checkpoint_path.c_str(), e.what());
      }
    }
  }

  const JobFootprint footprint =
      predict_footprint(record->request, config_.cost);
  record->footprint_bytes = footprint.bytes;
  record->predicted_seconds = footprint.seconds;
  record->pairs_total = record->request.provider->layout().pair_count();
  if (footprint.bytes > config_.memory_budget_bytes && journal_id == 0) {
    // Fresh submits are refused outright. Recovery resubmits are NOT: the
    // job was accepted — and journaled — under some earlier (possibly
    // larger) budget, and accepted work is never shed by a restart. The
    // scheduler admits such an oversized job only when the service is
    // otherwise idle, driving memory_in_use_ above the budget while it
    // runs (pick_locked clamps the headroom to zero for that case).
    throw InvalidArgument(
        "job " + record->name + ": predicted footprint of " +
        std::to_string(footprint.bytes) +
        " bytes exceeds the service memory budget of " +
        std::to_string(config_.memory_budget_bytes) +
        " bytes; it could never be admitted");
  }
  if (config_.record_traces && record->request.options.recorder == nullptr) {
    record->recorder = std::make_unique<trace::Recorder>();
  }
  record->notify_service = [this] {
    // Lock so the wake cannot slip between a worker's predicate check and
    // its wait (the token itself is atomic, not guarded by mutex_).
    std::lock_guard<std::mutex> lock(mutex_);
    cv_workers_.notify_all();
  };

  std::unique_lock<std::mutex> lock(mutex_);
  if (record->name.empty()) {
    record->name = "job" + std::to_string(jobs_.size());
  }

  // Overload handling. Rejection is terminal and fast: the handle comes
  // back already kRejected, never having queued.
  const auto reject = [&](const std::string& why) {
    record->timing.submit_us = elapsed_us();
    {
      std::lock_guard<std::mutex> record_lock(record->mutex);
      record->state = JobState::kRejected;
      record->timing.end_us = record->timing.submit_us;
      record->error = std::make_exception_ptr(
          Overloaded("job " + record->name + ": " + why));
      record->notify_service = nullptr;
    }
    jobs_.push_back(record);
    counters_.submitted.fetch_add(1, std::memory_order_relaxed);
    counters_.shed.fetch_add(1, std::memory_order_relaxed);
    metrics::wellknown::serve_jobs_submitted_total().add();
    metrics::wellknown::serve_shed_total().add();
    record->cv.notify_all();
    return JobHandle(record);
  };

  // Recovery resubmits (journal_id != 0) bypass the overload gates: the
  // work was accepted — and journaled — before the restart, and a restart
  // must never shed it.
  if (journal_id == 0) {
    if (!accepting_ || stopping_) return reject("service is shutting down");
  }
  if (journal_id == 0 && queue_.size() >= config_.max_queued) {
    switch (config_.overload) {
      case OverloadPolicy::kBlock:
        cv_submit_.wait(lock, [&] {
          return queue_.size() < config_.max_queued || !accepting_ ||
                 stopping_;
        });
        if (!accepting_ || stopping_) {
          return reject("service is shutting down");
        }
        break;
      case OverloadPolicy::kReject:
        return reject("queue full (" + std::to_string(config_.max_queued) +
                      " jobs) and overload policy is reject");
      case OverloadPolicy::kShedLowestPriority: {
        // The queue is priority-ordered, so the back is the lowest-priority
        // (and youngest among equals) job.
        Record victim = queue_.back();
        if (victim->priority >= record->priority) {
          return reject("queue full and no lower-priority job to shed");
        }
        queue_.pop_back();
        retire_queued_locked(victim, RetireReason::kShed);
        break;
      }
    }
  }

  record->timing.submit_us = elapsed_us();
  if (record->request.deadline_ms > 0) {
    // The deadline clock starts now: queue wait spends the budget too.
    record->cancel.arm_deadline(
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(record->request.deadline_ms));
  }
  // Priority-ordered insert, FIFO among equals.
  auto it = std::find_if(
      queue_.begin(), queue_.end(),
      [&](const Record& r) { return r->priority < record->priority; });
  queue_.insert(it, record);
  jobs_.push_back(record);
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  metrics::wellknown::serve_jobs_submitted_total().add();
  metrics::wellknown::serve_queue_depth().set(
      static_cast<std::int64_t>(queue_.size()));
  if (journal_ != nullptr) {
    if (journal_id != 0) {
      // Recovery resubmit: the job's submitted record is already in the
      // journal (replay seeded the live table); just rebind the id.
      record->journal_id = journal_id;
    } else {
      // Write-ahead: the submitted record — carrying the full serialized
      // request — lands before the handle is returned, so a crash after
      // this point cannot lose the job.
      record->journal_id = journal_->next_job_id();
      journal_->append_submitted(record->journal_id, record->name,
                                 stitch::serialize_request(record->request),
                                 record->checkpoint_path, record->priority);
    }
  }
  lock.unlock();
  cv_workers_.notify_one();
  return JobHandle(record);
}

void StitchService::journal_terminal(const Record& record, JobState state) {
  if (journal_ == nullptr || record->journal_id == 0) return;
  // Appended BEFORE the terminal state becomes observable to waiters: a
  // caller that saw the job finish must never find it resubmitted (as live)
  // after a crash straddling the transition.
  journal_->append_terminal(record->journal_id, job_state_name(state));
}

void StitchService::retire_queued_locked(const Record& record,
                                         RetireReason reason) {
  // The caller already removed the record from the queue. Final checkpoint
  // first — the terminal state must not become visible before the file a
  // resubmit would resume from exists.
  checkpoint_job(record);
  switch (reason) {
    case RetireReason::kCancelled:
      journal_terminal(record, JobState::kCancelled);
      break;
    case RetireReason::kDeadline:
      journal_terminal(record, JobState::kFailed);
      break;
    case RetireReason::kShed:
      journal_terminal(record, JobState::kRejected);
      break;
  }
  {
    std::lock_guard<std::mutex> lock(record->mutex);
    record->timing.end_us = elapsed_us();
    switch (reason) {
      case RetireReason::kCancelled:
        record->state = JobState::kCancelled;
        break;
      case RetireReason::kDeadline:
        record->state = JobState::kFailed;
        record->error = std::make_exception_ptr(DeadlineExceeded(
            "job " + record->name + ": deadline expired while queued"));
        break;
      case RetireReason::kShed:
        record->state = JobState::kRejected;
        record->error = std::make_exception_ptr(Overloaded(
            "job " + record->name + ": shed from the queue by the overload "
            "policy"));
        break;
    }
  }
  switch (reason) {
    case RetireReason::kCancelled:
      counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
      metrics::wellknown::serve_jobs_cancelled_total().add();
      break;
    case RetireReason::kDeadline:
      counters_.failed.fetch_add(1, std::memory_order_relaxed);
      counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      metrics::wellknown::serve_jobs_failed_total().add();
      metrics::wellknown::serve_deadline_exceeded_total().add();
      trace_job_event(record, "deadline", "expired-queued:" + record->name);
      break;
    case RetireReason::kShed:
      counters_.shed.fetch_add(1, std::memory_order_relaxed);
      metrics::wellknown::serve_shed_total().add();
      break;
  }
  metrics::wellknown::serve_queue_depth().set(
      static_cast<std::int64_t>(queue_.size()));
  record->cv.notify_all();
  cv_idle_.notify_all();
  cv_submit_.notify_all();
}

void StitchService::scan_queue_locked() {
  const double now_us = elapsed_us();
  for (auto it = queue_.begin(); it != queue_.end();) {
    Record record = *it;
    RetireReason reason;
    if (record->cancel.requested()) {
      reason = RetireReason::kCancelled;
    } else if (record->cancel.deadline_expired()) {
      reason = RetireReason::kDeadline;
    } else if (record->max_queue_wait_s > 0.0 &&
               (now_us - record->timing.submit_us) / 1e6 >
                   record->max_queue_wait_s) {
      reason = RetireReason::kShed;
    } else {
      ++it;
      continue;
    }
    it = queue_.erase(it);
    retire_queued_locked(record, reason);
  }
}

std::size_t StitchService::soft_watermark_bytes() const {
  return config_.soft_watermark > 0.0
             ? static_cast<std::size_t>(
                   config_.soft_watermark *
                   static_cast<double>(config_.memory_budget_bytes))
             : 0;
}

std::size_t StitchService::hard_watermark_bytes() const {
  return config_.hard_watermark > 0.0
             ? static_cast<std::size_t>(
                   config_.hard_watermark *
                   static_cast<double>(config_.memory_budget_bytes))
             : 0;
}

int StitchService::update_pressure_locked() {
  int level = 0;
  const std::size_t hard = hard_watermark_bytes();
  const std::size_t soft = soft_watermark_bytes();
  if (hard > 0 && memory_in_use_ >= hard) {
    level = 2;
  } else if (soft > 0 && memory_in_use_ >= soft) {
    level = 1;
  }
  if (level != pressure_level_) {
    pressure_level_ = level;
    metrics::wellknown::serve_memory_pressure().set(level);
    if (shared_cache_ != nullptr) {
      // Above the soft watermark the shared cache goes disk-primary: fresh
      // spectra spill instead of growing the resident set, while spilled
      // reuse keeps skipping forward FFTs.
      shared_cache_->set_pressure(level >= 1);
    }
  }
  return level;
}

StitchService::Record StitchService::pick_locked() {
  scan_queue_locked();
  // Clamp, don't subtract blindly: an oversized recovery resubmit running
  // alone drives memory_in_use_ above the budget, and the unsigned
  // difference would wrap to ~SIZE_MAX — admitting everything at once.
  const std::size_t headroom =
      config_.memory_budget_bytes > memory_in_use_
          ? config_.memory_budget_bytes - memory_in_use_
          : 0;
  // Watermark degradation: above the soft watermark the admission limit
  // shrinks from the full budget to hard * budget; at/above the hard
  // watermark nothing is admitted until memory drains. Deferred jobs stay
  // queued — pressure never sheds accepted work.
  const int pressure = update_pressure_locked();
  std::size_t wm_headroom = headroom;
  if (pressure >= 2) {
    wm_headroom = 0;
  } else if (pressure == 1 && hard_watermark_bytes() > 0) {
    const std::size_t limit = hard_watermark_bytes();
    wm_headroom = limit > memory_in_use_ ? limit - memory_in_use_ : 0;
  }
  // Within the highest priority class that has an admissible job, pick the
  // weighted-fair winner: smallest virtual start time, FIFO among ties.
  auto best = queue_.end();
  double best_vstart = 0.0;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const Record& record = *it;
    // The queue is priority-ordered; once a candidate exists, lower
    // classes no longer compete.
    if (best != queue_.end() && record->priority < (*best)->priority) break;
    if (record->footprint_bytes > config_.memory_budget_bytes) {
      // Only reachable via recovery resubmit. Admissible solely when the
      // service is idle, so it runs alone rather than never.
      if (memory_in_use_ != 0 || running_ != 0) continue;
    } else if (record->footprint_bytes > headroom) {
      continue;
    } else if (record->footprint_bytes > wm_headroom) {
      // Fits the budget but not the watermark-shrunk limit: deferred, not
      // shed — it runs when memory drains below the watermarks.
      counters_.watermark_deferrals.fetch_add(1, std::memory_order_relaxed);
      metrics::wellknown::serve_watermark_deferrals_total().add();
      continue;
    }
    TenantState& tenant = tenants_[record->request.tenant];
    const std::size_t quota = record->request.tenant_quota_bytes;
    if (quota != 0 &&
        tenant.in_use_bytes + record->footprint_bytes > quota) {
      ++tenant.quota_deferrals;
      metrics::wellknown::tenant_quota_deferrals(record->request.tenant)
          .add();
      continue;
    }
    const double vstart = std::max(vclock_, tenant.vtime);
    if (best == queue_.end() || vstart < best_vstart) {
      best = it;
      best_vstart = vstart;
    }
  }
  if (best == queue_.end()) return nullptr;
  Record record = *best;
  queue_.erase(best);
  TenantState& tenant = tenants_[record->request.tenant];
  tenant.weight = record->request.tenant_weight;
  const double cost =
      record->predicted_seconds > 0.0 ? record->predicted_seconds : 1.0;
  tenant.vtime = best_vstart + cost / tenant.weight;
  vclock_ = best_vstart;
  tenant.in_use_bytes += record->footprint_bytes;
  ++tenant.admitted;
  metrics::wellknown::tenant_jobs_admitted(record->request.tenant).add();
  metrics::wellknown::tenant_memory_in_use_bytes(record->request.tenant)
      .set(static_cast<std::int64_t>(tenant.in_use_bytes));
  metrics::wellknown::serve_queue_depth().set(
      static_cast<std::int64_t>(queue_.size()));
  return record;
}

void StitchService::worker_main(std::size_t id) {
  set_current_thread_name("serve/worker-" + std::to_string(id));
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Record job;
    cv_workers_.wait(lock, [&] {
      if (stopping_) return true;
      job = pick_locked();
      return job != nullptr;
    });
    if (job == nullptr) return;  // stopping, queue drained
    memory_in_use_ += job->footprint_bytes;
    ++running_;
    metrics::wellknown::serve_memory_in_use_bytes().set(
        static_cast<std::int64_t>(memory_in_use_));
    update_pressure_locked();
    // Admission freed a queue slot: a backpressured submit may proceed.
    cv_submit_.notify_all();
    lock.unlock();
    run_job(job);
    lock.lock();
    memory_in_use_ -= job->footprint_bytes;
    --running_;
    metrics::wellknown::serve_memory_in_use_bytes().set(
        static_cast<std::int64_t>(memory_in_use_));
    update_pressure_locked();
    TenantState& tenant = tenants_[job->request.tenant];
    tenant.in_use_bytes -= std::min(tenant.in_use_bytes, job->footprint_bytes);
    metrics::wellknown::tenant_memory_in_use_bytes(job->request.tenant)
        .set(static_cast<std::int64_t>(tenant.in_use_bytes));
    // A completed job returns budget: other queued jobs may now fit, a
    // backpressured submit may proceed, wait_idle may resolve.
    cv_workers_.notify_all();
    cv_submit_.notify_all();
    cv_idle_.notify_all();
  }
}

void StitchService::run_job(const Record& record) {
  if (record->cancel.requested()) {  // lost the race to a cancel
    checkpoint_job(record);
    journal_terminal(record, JobState::kCancelled);
    std::lock_guard<std::mutex> lock(record->mutex);
    record->state = JobState::kCancelled;
    record->timing.end_us = elapsed_us();
    counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
    metrics::wellknown::serve_jobs_cancelled_total().add();
    record->cv.notify_all();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(record->mutex);
    record->state = JobState::kAdmitted;
    record->timing.start_us = elapsed_us();
    const auto wait_us = static_cast<std::uint64_t>(
        std::max(0.0, record->timing.queued_us()));
    counters_.admitted.fetch_add(1, std::memory_order_relaxed);
    counters_.queue_wait_us.fetch_add(wait_us, std::memory_order_relaxed);
    metrics::wellknown::serve_jobs_admitted_total().add();
    metrics::wellknown::serve_queue_wait_us().observe(wait_us);
  }
  if (journal_ != nullptr && record->journal_id != 0) {
    journal_->append_started(record->journal_id);
  }

  stitch::StitchRequest request = record->request;
  request.options.cancel = &record->cancel;
  request.options.pairs_done = &record->pairs_done;
  if (shared_cache_ != nullptr) {
    // Bind the service-owned cross-job cache: identical tiles submitted by
    // any job share one spectrum, charged to this job's tenant.
    request.options.shared_cache = shared_cache_.get();
    request.options.shared_tenant = request.tenant;
    request.options.shared_tenant_quota_bytes = request.tenant_quota_bytes;
  }
  if (record->recorder != nullptr) {
    request.options.recorder = record->recorder.get();
  }
  if (record->ledger != nullptr) {
    request.options.ledger = record->ledger.get();
    if (record->has_warm) request.options.warm_start = &record->warm;
  }

  // Circuit breaker over GPU-primary jobs. When the breaker refuses the
  // attempt and the fallback chain offers a CPU backend, skip straight to
  // it — the job pays no doomed GPU attempt. A refused job with no CPU
  // fallback runs unguarded (failing it outright would be worse) and its
  // outcome is not treated as a probe verdict.
  bool breaker_verdict_due = false;
  if (stitch::is_gpu_backend(request.backend)) {
    if (breaker_.allow()) {
      breaker_verdict_due = true;
    } else {
      const auto cpu = std::find_if(
          request.fallback.begin(), request.fallback.end(),
          [](stitch::Backend b) { return !stitch::is_gpu_backend(b); });
      if (cpu != request.fallback.end()) {
        trace_job_event(record, "breaker",
                        "skip-gpu:" + record->name + "->" +
                            stitch::backend_name(*cpu));
        request.backend = *cpu;
        request.fallback.erase(request.fallback.begin(), cpu + 1);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(record->mutex);
    record->state = JobState::kRunning;
  }

  // Every terminal path writes a final checkpoint *before* the transition
  // becomes visible, so a caller woken by wait() can rely on the file.
  const auto note_terminal = [&](std::atomic<std::uint64_t>& local,
                                 metrics::Counter& global) {
    // Called with record->mutex held, after end_us was stamped.
    const auto run_us =
        static_cast<std::uint64_t>(std::max(0.0, record->timing.run_us()));
    local.fetch_add(1, std::memory_order_relaxed);
    counters_.run_us.fetch_add(run_us, std::memory_order_relaxed);
    global.add();
    metrics::wellknown::serve_run_us().observe(run_us);
  };
  try {
    stitch::StitchResult result = stitch::stitch(request);
    checkpoint_job(record);
    if (breaker_verdict_due) {
      // Fallbacks taken mean the guarded GPU attempt device-faulted even
      // though a later backend rescued the job.
      if (result.fallbacks_taken > 0) {
        breaker_.record_failure();
      } else {
        breaker_.record_success();
      }
    }
    const std::uint64_t fallbacks = result.fallbacks_taken;
    journal_terminal(record, JobState::kDone);
    std::lock_guard<std::mutex> lock(record->mutex);
    record->result = std::move(result);
    record->state = JobState::kDone;
    record->timing.end_us = elapsed_us();
    counters_.fallbacks.fetch_add(fallbacks, std::memory_order_relaxed);
    if (fallbacks > 0) {
      metrics::wellknown::serve_fallbacks_total().add(fallbacks);
    }
    note_terminal(counters_.done, metrics::wellknown::serve_jobs_done_total());
  } catch (const Cancelled&) {
    checkpoint_job(record);
    // The guarded attempt's verdict never materialized.
    if (breaker_verdict_due) breaker_.record_abandoned();
    journal_terminal(record, JobState::kCancelled);
    std::lock_guard<std::mutex> lock(record->mutex);
    record->error = std::current_exception();
    record->state = JobState::kCancelled;
    record->timing.end_us = elapsed_us();
    note_terminal(counters_.cancelled,
                  metrics::wellknown::serve_jobs_cancelled_total());
  } catch (const DeadlineExceeded&) {
    checkpoint_job(record);
    // Running out of time says nothing about device health.
    if (breaker_verdict_due) breaker_.record_abandoned();
    trace_job_event(record, "deadline", "expired-running:" + record->name);
    counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    metrics::wellknown::serve_deadline_exceeded_total().add();
    journal_terminal(record, JobState::kFailed);
    std::lock_guard<std::mutex> lock(record->mutex);
    record->error = std::current_exception();
    record->state = JobState::kFailed;
    record->timing.end_us = elapsed_us();
    note_terminal(counters_.failed,
                  metrics::wellknown::serve_jobs_failed_total());
  } catch (...) {
    checkpoint_job(record);
    if (breaker_verdict_due) {
      // A job only fails with a device fault once its whole fallback chain
      // is exhausted — the guarded GPU attempt certainly faulted then. Any
      // other exception (bad tile, invalid option) is not the device's
      // fault.
      try {
        throw;
      } catch (const DeviceError&) {
        breaker_.record_failure();
      } catch (const OutOfDeviceMemory&) {
        breaker_.record_failure();
      } catch (...) {
        breaker_.record_success();
      }
    }
    journal_terminal(record, JobState::kFailed);
    std::lock_guard<std::mutex> lock(record->mutex);
    record->error = std::current_exception();
    record->state = JobState::kFailed;
    record->timing.end_us = elapsed_us();
    note_terminal(counters_.failed,
                  metrics::wellknown::serve_jobs_failed_total());
  }
  record->cv.notify_all();
}

void StitchService::watchdog_main() {
  set_current_thread_name("serve/watchdog");
  const auto period = std::chrono::duration<double>(watchdog_period_s());
  const auto stall_timeout =
      std::chrono::duration<double>(config_.stall_timeout_s);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_watchdog_.wait_for(lock, period, [&] { return stopping_; });
    if (stopping_) return;
    // Queued jobs first: shed the expired and the overstayed even when no
    // worker wakes to pick — this is what bounds a queued job's latency to
    // deadline + one watchdog period.
    scan_queue_locked();
    if (!queue_.empty()) cv_workers_.notify_all();
    if (config_.stall_timeout_s <= 0.0) continue;
    std::vector<Record> snapshot = jobs_;
    lock.unlock();
    const auto now = std::chrono::steady_clock::now();
    for (const Record& record : snapshot) {
      bool running;
      {
        std::lock_guard<std::mutex> record_lock(record->mutex);
        running = record->state == JobState::kRunning;
      }
      if (!running) continue;
      if (record->cancel.stall_pending()) {
        // A previous interrupt is still unwinding toward its fallback; give
        // the next attempt a fresh full window once it acknowledges.
        record->wd_last_pairs = ~std::size_t{0};
        continue;
      }
      const std::size_t pairs =
          record->pairs_done.load(std::memory_order_acquire);
      if (pairs != record->wd_last_pairs) {
        record->wd_last_pairs = pairs;
        record->wd_last_change = now;
        continue;
      }
      if (now - record->wd_last_change >= stall_timeout) {
        record->cancel.request_stall();
        record->wd_last_pairs = ~std::size_t{0};
        counters_.watchdog_stalls.fetch_add(1, std::memory_order_relaxed);
        metrics::wellknown::serve_watchdog_stalls_total().add();
        trace_job_event(record, "watchdog", "stall:" + record->name);
      }
    }
    lock.lock();
  }
}

void StitchService::trace_job_event(const Record& record, const char* lane,
                                    const std::string& what) {
  trace::Recorder* recorder = record->recorder != nullptr
                                  ? record->recorder.get()
                                  : record->request.options.recorder;
  if (recorder == nullptr) return;
  const double t = recorder->now_us();
  recorder->record(lane, what, t, t);
}

ServiceMetrics StitchService::metrics() const {
  ServiceMetrics m;
  m.jobs_submitted = counters_.submitted.load(std::memory_order_relaxed);
  m.jobs_admitted = counters_.admitted.load(std::memory_order_relaxed);
  m.jobs_done = counters_.done.load(std::memory_order_relaxed);
  m.jobs_failed = counters_.failed.load(std::memory_order_relaxed);
  m.jobs_cancelled = counters_.cancelled.load(std::memory_order_relaxed);
  m.fallbacks_taken = counters_.fallbacks.load(std::memory_order_relaxed);
  m.jobs_shed = counters_.shed.load(std::memory_order_relaxed);
  m.jobs_deadline_exceeded =
      counters_.deadline_exceeded.load(std::memory_order_relaxed);
  m.watchdog_stalls =
      counters_.watchdog_stalls.load(std::memory_order_relaxed);
  m.watermark_deferrals =
      counters_.watermark_deferrals.load(std::memory_order_relaxed);
  m.breaker_state = static_cast<int>(breaker_.state());
  m.queue_wait_us_total =
      counters_.queue_wait_us.load(std::memory_order_relaxed);
  m.run_us_total = counters_.run_us.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  m.queued = queue_.size();
  m.running = running_;
  m.memory_in_use_bytes = memory_in_use_;
  m.memory_pressure = pressure_level_;
  return m;
}

std::vector<TenantMetrics> StitchService::tenant_metrics() const {
  std::vector<TenantMetrics> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(tenants_.size());
    for (const auto& [name, state] : tenants_) {
      TenantMetrics m;
      m.tenant = name;
      m.admitted = state.admitted;
      m.quota_deferrals = state.quota_deferrals;
      m.memory_in_use_bytes = state.in_use_bytes;
      out.push_back(std::move(m));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TenantMetrics& a, const TenantMetrics& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

void StitchService::checkpoint_job(const Record& record) {
  if (record->ledger == nullptr || record->checkpoint_path.empty()) return;
  fault::FaultPlan* faults = config_.journal.faults != nullptr
                                 ? config_.journal.faults
                                 : record->request.options.faults;
  const auto damage = [faults](const std::string& tmp) {
    fault::Corruption corruption;
    if (faults != nullptr &&
        faults->corruption_point(fault::Site::kCheckpointCorrupt,
                                 &corruption)) {
      fault::apply_corruption(tmp, corruption);
    }
  };
  try {
    // publish_file syncs the table before the rename publishes the path,
    // and the directory after it, so the journal's checkpoint record never
    // names a file a crash could lose: a crash between the steps leaves the
    // old checkpoint or the new one, never a half-written one.
    stitch::write_table_file(record->checkpoint_path,
                             record->ledger->snapshot(),
                             record->ledger->quarantined(), damage);
    if (journal_ != nullptr && record->journal_id != 0) {
      journal_->append_checkpoint(record->journal_id);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "serve: checkpoint of job %s failed: %s\n",
                 record->name.c_str(), e.what());
  }
}

void StitchService::checkpoint_main() {
  set_current_thread_name("serve/ckpt");
  const auto interval =
      std::chrono::duration<double>(config_.checkpoint_interval_s);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_checkpoint_.wait_for(lock, interval, [&] { return stopping_; });
    if (stopping_) return;
    std::vector<Record> snapshot = jobs_;
    lock.unlock();
    for (const Record& record : snapshot) {
      bool running;
      {
        std::lock_guard<std::mutex> record_lock(record->mutex);
        running = record->state == JobState::kRunning;
      }
      if (running) checkpoint_job(record);
    }
    lock.lock();
  }
}

void StitchService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void StitchService::cancel_all() {
  std::vector<Record> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = jobs_;
  }
  for (const Record& record : snapshot) record->cancel.request();
  std::lock_guard<std::mutex> lock(mutex_);
  cv_workers_.notify_all();
}

std::size_t StitchService::memory_in_use_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_in_use_;
}

std::size_t StitchService::queued_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t StitchService::running_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void StitchService::compose_timeline(trace::Recorder& out) const {
  std::vector<Record> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = jobs_;
  }
  for (const Record& record : snapshot) {
    JobTiming timing;
    JobState state;
    {
      std::lock_guard<std::mutex> lock(record->mutex);
      timing = record->timing;
      state = record->state;
    }
    if (record->recorder != nullptr) {
      // Per-job recorders start their clock at submit; shift their spans
      // onto the service clock.
      out.import(*record->recorder, record->name + ".", timing.submit_us);
    }
    if (state == JobState::kQueued) continue;
    const double begin =
        timing.start_us > 0.0 ? timing.start_us : timing.submit_us;
    const double end = timing.end_us > 0.0 ? timing.end_us : elapsed_us();
    out.record("serve.jobs",
               record->name + " (" + job_state_name(state) + ")", begin, end);
  }
}

}  // namespace hs::serve
