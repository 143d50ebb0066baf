#include "serve/journal.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "common/error.hpp"
#include "common/file.hpp"
#include "metrics/wellknown.hpp"

namespace hs::serve {

namespace fs = std::filesystem;

namespace {

// "HSJL" read as a little-endian u32; a frame not starting with it is torn.
constexpr std::uint32_t kMagic = 0x4C4A5348u;
// Records larger than this are rejected as corrupt on replay: a garbage
// length field must not make replay try to allocate gigabytes.
constexpr std::uint32_t kMaxPayload = 16u << 20;

}  // namespace

std::string fsync_policy_name(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kEveryRecord: return "every-record";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& name) {
  if (name == "never") return FsyncPolicy::kNever;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "every-record" || name == "every_record") {
    return FsyncPolicy::kEveryRecord;
  }
  throw InvalidArgument("fsync policy '" + name +
                        "': expected never, interval, or every-record");
}

std::string record_type_name(RecordType type) {
  switch (type) {
    case RecordType::kSubmitted: return "submitted";
    case RecordType::kStarted: return "started";
    case RecordType::kCheckpoint: return "checkpoint";
    case RecordType::kTerminal: return "terminal";
  }
  return "?";
}

Journal::Journal(JournalConfig config) : config_(std::move(config)) {
  HS_REQUIRE(!config_.dir.empty(), "journal dir: must not be empty");
  HS_REQUIRE(config_.fsync_interval_s >= 0.0,
             "journal fsync_interval_s: must be >= 0");
  HS_REQUIRE(config_.rotate_bytes > 0, "journal rotate_bytes: must be > 0");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw IoError("cannot create journal dir " + config_.dir + ": " +
                  ec.message());
  }
  // Scan for existing segments; replay() reads them, the first append after
  // that lands in a fresh one.
  for (const fs::directory_entry& entry : fs::directory_iterator(config_.dir)) {
    const std::string name = entry.path().filename().string();
    unsigned long long index = 0;
    if (std::sscanf(name.c_str(), "wal-%6llu.log", &index) == 1 &&
        name.size() == 14) {
      segments_.push_back(index);
      std::error_code size_ec;
      const auto size = fs::file_size(entry.path(), size_ec);
      if (!size_ec) older_bytes_ += size;
    }
  }
  std::sort(segments_.begin(), segments_.end());
  segment_index_ = segments_.empty() ? 0 : segments_.back();
  last_fsync_ = std::chrono::steady_clock::now();
  metrics::wellknown::journal_bytes().set(
      static_cast<std::int64_t>(older_bytes_));
}

Journal::~Journal() {
  std::lock_guard<std::mutex> lock(mutex_);
  maybe_fsync_locked(/*force=*/config_.fsync != FsyncPolicy::kNever);
}

std::string Journal::segment_path(std::uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof name, "wal-%06llu.log",
                static_cast<unsigned long long>(index));
  return config_.dir + "/" + name;
}

std::uint64_t Journal::next_job_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::uint64_t Journal::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return older_bytes_ + (segment_ ? segment_->size() : 0);
}

std::uint64_t Journal::append_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return append_failures_;
}

void Journal::trace_event(const std::string& what) {
  trace::Recorder* recorder = config_.recorder;
  if (recorder == nullptr) return;
  const double t = recorder->now_us();
  recorder->record("journal", what, t, t);
}

std::string Journal::submitted_payload(std::uint64_t id, const LiveJob& job) {
  std::string payload;
  payload += "id=" + std::to_string(id) + "\n";
  payload += "type=submitted\n";
  payload += "name=" + job.name + "\n";
  payload += "ckpt=" + job.checkpoint_path + "\n";
  payload += "priority=" + std::to_string(job.priority) + "\n";
  payload += "request:\n";
  payload += job.request_text;
  return payload;
}

void Journal::append_submitted(std::uint64_t id, const std::string& name,
                               const std::string& request_text,
                               const std::string& checkpoint_path,
                               int priority) {
  HS_REQUIRE(name.find('\n') == std::string::npos,
             "job name must not contain newlines");
  HS_REQUIRE(checkpoint_path.find('\n') == std::string::npos,
             "checkpoint path must not contain newlines");
  std::lock_guard<std::mutex> lock(mutex_);
  live_[id] = LiveJob{name, request_text, checkpoint_path, priority, false};
  append_locked(RecordType::kSubmitted, id, submitted_payload(id, live_[id]));
}

void Journal::append_started(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = live_.find(id);
  if (it != live_.end()) it->second.started = true;
  append_locked(RecordType::kStarted, id,
                "id=" + std::to_string(id) + "\ntype=started\n");
}

void Journal::append_checkpoint(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(RecordType::kCheckpoint, id,
                "id=" + std::to_string(id) + "\ntype=checkpoint\n");
}

void Journal::append_terminal(std::uint64_t id, const std::string& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.erase(id);
  append_locked(RecordType::kTerminal, id,
                "id=" + std::to_string(id) + "\ntype=terminal\nstate=" +
                    state + "\n");
}

void Journal::open_segment_locked(std::uint64_t index) {
  segment_.emplace(segment_path(index), kMagic);
  segment_index_ = index;
  if (std::find(segments_.begin(), segments_.end(), index) ==
      segments_.end()) {
    segments_.push_back(index);
  }
  // Make the new segment's directory entry durable: a crash right after
  // rotation must still find the file.
  if (config_.fsync != FsyncPolicy::kNever) fsync_path(config_.dir);
}

void Journal::rotate_locked() {
  // Fresh segment first, then re-emit every live job's story into it —
  // submitted (with request), plus started if it was running. Terminal jobs
  // simply are not carried over: rotation *is* compaction.
  const std::uint64_t fresh = segment_index_ + 1;
  const std::vector<std::uint64_t> stale = segments_;
  segments_.clear();
  rotating_ = true;
  open_segment_locked(fresh);
  older_bytes_ = 0;
  for (const auto& [id, job] : live_) {
    append_locked(RecordType::kSubmitted, id, submitted_payload(id, job));
    if (job.started) {
      append_locked(RecordType::kStarted, id,
                    "id=" + std::to_string(id) + "\ntype=started\n");
    }
  }
  rotating_ = false;
  // The re-emitted records must be durable before the old segments go away.
  maybe_fsync_locked(/*force=*/config_.fsync != FsyncPolicy::kNever);
  for (const std::uint64_t index : stale) {
    if (index == fresh) continue;
    std::error_code ec;
    fs::remove(segment_path(index), ec);
  }
  trace_event("rotate:" + std::to_string(fresh));
}

void Journal::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  rotate_locked();
  metrics::wellknown::journal_bytes().set(
      static_cast<std::int64_t>(older_bytes_ + segment_->size()));
}

void Journal::append_locked(RecordType type, std::uint64_t id,
                            const std::string& payload) {
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kJournalWrite, id)) {
    ++append_failures_;
    std::fprintf(stderr,
                 "journal: injected append failure (%s, job %llu); record "
                 "dropped\n",
                 record_type_name(type).c_str(),
                 static_cast<unsigned long long>(id));
    return;
  }
  if (!segment_) {
    open_segment_locked(segment_index_ + 1);
  } else if (segment_->size() >= config_.rotate_bytes && !rotating_) {
    // rotating_ guards the re-emission appends below: a live set larger
    // than rotate_bytes must not recurse into another rotation.
    rotate_locked();
  }

  // Deterministic damage for the torture tests: corrupt the record just
  // written, byte-addressed relative to its frame.
  FrameLog::Damage damage;
  if (config_.faults != nullptr) {
    damage = [this](std::uint64_t offset) {
      fault::Corruption at;
      if (!config_.faults->corruption_point(fault::Site::kJournalWrite, &at)) {
        return;
      }
      at.at_byte += offset;
      try {
        fault::apply_corruption(segment_->path(), at);
      } catch (const Error& e) {
        std::fprintf(stderr, "journal: corruption injection failed: %s\n",
                     e.what());
      }
    };
  }
  if (!segment_->append(payload, damage)) {
    ++append_failures_;
    std::fprintf(stderr,
                 "journal: short append (%s, job %llu); record dropped\n",
                 record_type_name(type).c_str(),
                 static_cast<unsigned long long>(id));
    return;
  }

  metrics::wellknown::journal_appends_total().add();
  metrics::wellknown::journal_bytes().set(
      static_cast<std::int64_t>(older_bytes_ + segment_->size()));
  trace_event("append:" + record_type_name(type) + ":" + std::to_string(id));
  maybe_fsync_locked(/*force=*/config_.fsync == FsyncPolicy::kEveryRecord);
}

void Journal::maybe_fsync_locked(bool force) {
  if (!segment_) return;
  const auto now = std::chrono::steady_clock::now();
  if (!force) {
    if (config_.fsync != FsyncPolicy::kInterval) return;
    if (std::chrono::duration<double>(now - last_fsync_).count() <
        config_.fsync_interval_s) {
      return;
    }
  }
  if (segment_->fsync()) metrics::wellknown::journal_fsyncs_total().add();
  last_fsync_ = now;
}

void Journal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  maybe_fsync_locked(/*force=*/true);
}

namespace {

/// Parsed payload fields; request text is everything after the "request:"
/// line, verbatim.
struct ParsedRecord {
  std::uint64_t id = 0;
  std::string type;
  std::string name;
  std::string ckpt;
  std::string state;
  std::string request_text;
  int priority = 0;
  bool has_id = false;
};

bool parse_payload(const std::string& payload, ParsedRecord* out) {
  std::size_t begin = 0;
  while (begin < payload.size()) {
    std::size_t end = payload.find('\n', begin);
    if (end == std::string::npos) end = payload.size();
    const std::string line = payload.substr(begin, end - begin);
    begin = end + 1;
    if (line == "request:") {
      out->request_text = payload.substr(begin);
      break;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      if (!line.empty()) return false;
      continue;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "id") {
      char* parse_end = nullptr;
      out->id = std::strtoull(value.c_str(), &parse_end, 10);
      if (parse_end == value.c_str() || *parse_end != '\0') return false;
      out->has_id = true;
    } else if (key == "type") {
      out->type = value;
    } else if (key == "name") {
      out->name = value;
    } else if (key == "ckpt") {
      out->ckpt = value;
    } else if (key == "priority") {
      char* parse_end = nullptr;
      out->priority = static_cast<int>(std::strtol(value.c_str(), &parse_end, 10));
      if (parse_end == value.c_str() || *parse_end != '\0') return false;
    } else if (key == "state") {
      out->state = value;
    }
    // Unknown keys: ignored, same forward-compat stance as the request
    // serde.
  }
  return out->has_id && !out->type.empty();
}

}  // namespace

std::vector<ReplayedJob> Journal::replay(ReplayStats* stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  HS_REQUIRE(!replayed_, "journal replay() may only run once");
  replayed_ = true;
  ReplayStats local;
  std::uint64_t max_id = 0;
  std::size_t terminal_seen = 0;
  older_bytes_ = 0;  // recounted from what replay keeps

  for (const std::uint64_t index : segments_) {
    const std::string path = segment_path(index);
    const FrameLog::Replay replay = FrameLog::replay(
        path, kMagic, kMaxPayload, [&](std::string_view payload) {
          ParsedRecord record;
          if (!parse_payload(std::string(payload), &record)) return false;
          ++local.records;
          max_id = std::max(max_id, record.id);
          if (record.type == "submitted") {
            live_[record.id] = LiveJob{record.name, record.request_text,
                                       record.ckpt, record.priority, false};
            if (!record.ckpt.empty() &&
                std::find(replayed_checkpoint_paths_.begin(),
                          replayed_checkpoint_paths_.end(),
                          record.ckpt) == replayed_checkpoint_paths_.end()) {
              // Captured here, not at terminal time: a terminal job's .tmp
              // orphan (crash mid-checkpoint) still needs the startup sweep.
              replayed_checkpoint_paths_.push_back(record.ckpt);
            }
          } else if (record.type == "started") {
            const auto it = live_.find(record.id);
            if (it != live_.end()) it->second.started = true;
          } else if (record.type == "terminal") {
            if (live_.erase(record.id) != 0) ++terminal_seen;
          }
          // checkpoint records only matter as liveness markers; the
          // checkpoint file itself is the durable artifact.
          return true;
        });
    // Bytes past the last whole, parseable record — a crash mid-header
    // included — were cut.
    if (replay.torn()) {
      ++local.truncated_records;
      metrics::wellknown::journal_truncated_records_total().add();
      std::fprintf(stderr,
                   "journal: torn/corrupt tail in %s at byte %zu of %zu; "
                   "truncated\n",
                   path.c_str(), replay.valid_bytes, replay.file_bytes);
      trace_event("truncate:" + std::to_string(index) + "@" +
                  std::to_string(replay.valid_bytes));
    }
    older_bytes_ += replay.valid_bytes;
  }

  next_id_ = std::max(next_id_, max_id + 1);
  local.live_jobs = live_.size();
  local.terminal_jobs = terminal_seen;
  metrics::wellknown::journal_bytes().set(
      static_cast<std::int64_t>(older_bytes_));
  trace_event("replay:" + std::to_string(local.records) + " records, " +
              std::to_string(local.live_jobs) + " live");

  std::vector<ReplayedJob> jobs;
  jobs.reserve(live_.size());
  for (const auto& [id, job] : live_) {
    ReplayedJob replayed;
    replayed.id = id;
    replayed.name = job.name;
    replayed.request_text = job.request_text;
    replayed.checkpoint_path = job.checkpoint_path;
    replayed.priority = job.priority;
    replayed.started = job.started;
    jobs.push_back(std::move(replayed));
  }
  if (stats != nullptr) *stats = local;
  return jobs;
}

}  // namespace hs::serve
