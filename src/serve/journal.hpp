// Write-ahead journal of job lifecycle events — the durability layer that
// makes a StitchService restart survivable.
//
// Every accepted job appends a `submitted` record carrying its full
// serialized StitchRequest before the caller's handle becomes usable;
// `started`, `checkpoint` and `terminal` records follow as the job moves
// through its lifecycle, with the terminal record appended *before* the
// terminal state becomes observable to waiters. A restarted service replays
// the journal, truncates any torn/corrupt tail at the last valid record,
// and resubmits every non-terminal job — warm-starting from its last
// checkpoint, so recovered output is bit-identical to an uninterrupted run.
//
// On-disk format: segments named wal-NNNNNN.log, each a FrameLog
// (common/file.hpp) of records framed as
//   [magic u32][payload length u32][crc32c(payload) u32][payload]
// (all little-endian). A record whose frame fails any check — bad magic,
// length past EOF, checksum mismatch, unparseable payload — marks the torn
// tail: replay truncates the segment there and counts the cut in
// hs_journal_truncated_records_total. An append the disk cuts short is cut
// back to its frame's start, so later records never land behind it.
// Rotation starts a fresh segment once the active one exceeds rotate_bytes,
// re-emitting only the *live* jobs' records into it and deleting the old
// segments — compaction of terminal jobs falls out of rotation for free.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/file.hpp"
#include "fault/plan.hpp"
#include "trace/trace.hpp"

namespace hs::serve {

/// When the journal forces its appends to disk. The policy trades restart
/// completeness against append latency; every policy preserves *integrity*
/// (a torn tail is detected and cut), only the amount of recent history at
/// risk differs. It is the only source of segment and directory fsyncs.
enum class FsyncPolicy {
  kNever,        ///< leave flushing to the OS; crash loses unsynced tail
  kInterval,     ///< fsync at most once per fsync_interval_s (the default)
  kEveryRecord,  ///< fsync after every append; nothing is ever lost
};

std::string fsync_policy_name(FsyncPolicy policy);
/// Accepts "never", "interval", "every-record" (and "every_record").
/// Throws InvalidArgument on anything else.
FsyncPolicy parse_fsync_policy(const std::string& name);

struct JournalConfig {
  /// Directory the segments live in; created if missing. Empty = journaling
  /// disabled (the service never constructs a Journal).
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  /// Minimum spacing between automatic fsyncs under kInterval, seconds.
  double fsync_interval_s = 0.25;
  /// Rotate (and thereby compact) once the active segment exceeds this.
  std::size_t rotate_bytes = 1ull << 20;
  /// Fault hooks: Site::kJournalWrite should_fail() makes an append fail
  /// (the journal warns and carries on — durability degrades, the service
  /// never dies on journal I/O); corruption_point() damages the record just
  /// written, byte-addressed relative to the record's frame.
  fault::FaultPlan* faults = nullptr;
  /// Journal events land in this recorder's "journal" lane when set.
  trace::Recorder* recorder = nullptr;
};

enum class RecordType { kSubmitted, kStarted, kCheckpoint, kTerminal };
std::string record_type_name(RecordType type);

/// One non-terminal job reconstructed by replay, in submit order.
struct ReplayedJob {
  std::uint64_t id = 0;
  std::string name;
  /// serialize_request() text from the submitted record.
  std::string request_text;
  std::string checkpoint_path;
  int priority = 0;
  /// Whether a started record was seen (the job was running when the
  /// process died, not merely queued).
  bool started = false;
};

struct ReplayStats {
  std::size_t records = 0;           ///< valid records replayed
  std::size_t truncated_records = 0; ///< torn/corrupt tails cut
  std::size_t live_jobs = 0;
  std::size_t terminal_jobs = 0;
};

class Journal {
 public:
  /// Opens (creating if needed) the journal directory and scans for
  /// existing segments. No records are read until replay().
  explicit Journal(JournalConfig config);
  /// Flushes (fsyncs) the active segment.
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Replays every segment in order, physically truncating torn/corrupt
  /// tails in place, and returns the non-terminal jobs in submit order.
  /// Seeds the in-memory live-job table rotation compacts from, and bumps
  /// next_job_id() past every id seen. Call once, before any append.
  std::vector<ReplayedJob> replay(ReplayStats* stats = nullptr);

  /// Forces a rotation: live jobs' records are re-written into a fresh
  /// segment and every older segment is deleted. The service calls this
  /// after replay so a recovering restart does not re-read dead history.
  void compact();

  /// Monotonic job ids; replay() advances the counter past history.
  std::uint64_t next_job_id();

  void append_submitted(std::uint64_t id, const std::string& name,
                        const std::string& request_text,
                        const std::string& checkpoint_path, int priority = 0);
  void append_started(std::uint64_t id);
  void append_checkpoint(std::uint64_t id);
  /// `state` is the terminal JobState's name ("done", "failed", ...).
  void append_terminal(std::uint64_t id, const std::string& state);

  /// fsyncs the active segment regardless of policy.
  void flush();

  /// Bytes across this journal's live segment files.
  std::uint64_t bytes() const;
  /// Appends that failed and were dropped with a warning: injected faults,
  /// and real write errors, short writes included (the torn frame is cut
  /// back, so the records after it still replay).
  std::uint64_t append_failures() const;

  /// Every distinct checkpoint path named by a replayed submitted record —
  /// terminal jobs included (their path is captured before the terminal
  /// record retires them). The service sweeps `<path>.tmp` orphans left by
  /// a crash between a checkpoint's temp write and its rename.
  const std::vector<std::string>& replayed_checkpoint_paths() const {
    return replayed_checkpoint_paths_;
  }

 private:
  /// A live (non-terminal) job as rotation re-emits it.
  struct LiveJob {
    std::string name;
    std::string request_text;
    std::string checkpoint_path;
    int priority = 0;
    bool started = false;
  };

  void append_locked(RecordType type, std::uint64_t id,
                     const std::string& payload);
  void open_segment_locked(std::uint64_t index);
  void rotate_locked();
  void maybe_fsync_locked(bool force);
  void trace_event(const std::string& what);
  std::string segment_path(std::uint64_t index) const;
  static std::string submitted_payload(std::uint64_t id, const LiveJob& job);

  JournalConfig config_;

  mutable std::mutex mutex_;
  std::optional<FrameLog> segment_;     ///< active segment
  std::uint64_t segment_index_ = 0;     ///< index of the active segment
  std::uint64_t older_bytes_ = 0;       ///< bytes across older segments
  std::vector<std::uint64_t> segments_; ///< existing segment indices, sorted
  std::uint64_t next_id_ = 1;
  std::uint64_t append_failures_ = 0;
  bool replayed_ = false;
  bool rotating_ = false;  ///< re-emission appends must not re-rotate
  std::chrono::steady_clock::time_point last_fsync_;
  /// Submit-ordered live jobs; terminal records erase their entry, and
  /// rotation re-emits what remains.
  std::map<std::uint64_t, LiveJob> live_;
  /// Distinct checkpoint paths seen during replay (live and terminal jobs).
  std::vector<std::string> replayed_checkpoint_paths_;
};

}  // namespace hs::serve
