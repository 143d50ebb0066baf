// Execution tracing — the stand-in for NVIDIA's visual profiler.
//
// The paper's Figs 7 and 9 are profiler timelines contrasting the sparse
// kernel row of Simple-GPU with the dense kernel row of Pipelined-GPU. This
// recorder captures named spans per lane ("gpu0.kernel", "gpu0.copy",
// "cpu.read", ...) from both real executions (wall clock) and the
// discrete-event simulator (virtual clock), and renders them as
// chrome://tracing JSON and as terminal timelines with occupancy statistics.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace hs::trace {

struct Span {
  std::string lane;
  std::string name;
  double t0_us = 0.0;
  double t1_us = 0.0;

  double duration_us() const { return t1_us - t0_us; }
};

/// Busy/gap statistics for one lane over an interval (union of spans, so
/// overlapping spans are not double counted).
struct LaneStats {
  std::size_t span_count = 0;
  double busy_us = 0.0;
  double interval_us = 0.0;
  double occupancy = 0.0;       // busy / interval
  double largest_gap_us = 0.0;  // longest idle stretch inside the interval
};

class Recorder {
 public:
  explicit Recorder(bool enabled = true);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void set_enabled(bool enabled);
  bool enabled() const;

  /// Microseconds of wall clock since this recorder was constructed.
  double now_us() const;

  /// Records a span with explicit timestamps (used by the DES with virtual
  /// time, and by RAII guards with wall time). No-op when disabled.
  void record(std::string lane, std::string name, double t0_us, double t1_us);

  /// RAII wall-clock span. A null recorder records nothing, so optional
  /// tracing needs no branch at the call site.
  class Scoped {
   public:
    Scoped(Recorder* recorder, std::string lane, std::string name);
    ~Scoped();
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    Recorder* recorder_;
    std::string lane_;
    std::string name_;
    double t0_us_;
  };
  Scoped scoped(std::string lane, std::string name) {
    return Scoped(this, std::move(lane), std::move(name));
  }

  /// Snapshot of all recorded spans (sorted by start time).
  std::vector<Span> spans() const;
  void clear();

  /// Copies every span of `other` into this recorder, prefixing each lane
  /// with `lane_prefix` and shifting timestamps by `offset_us`. Used by the
  /// serve layer to compose per-job recorders (each with its own epoch)
  /// into one service-wide timeline. Safe against concurrent record() on
  /// either recorder; importing a recorder into itself is not supported.
  void import(const Recorder& other, const std::string& lane_prefix,
              double offset_us);

  /// Lanes present, in first-seen order.
  std::vector<std::string> lanes() const;

  /// Busy/gap statistics for a set of lanes taken together: busy time is
  /// the union of their spans, so overlapping spans count once. The
  /// interval defaults to the full recorded extent when t1_us <= t0_us.
  LaneStats lane_stats(const std::vector<std::string>& lanes,
                       double t0_us = 0.0, double t1_us = -1.0) const;
  /// The same for one lane.
  LaneStats lane_stats(const std::string& lane, double t0_us = 0.0,
                       double t1_us = -1.0) const;

  /// chrome://tracing "traceEvents" JSON (one tid per lane).
  void write_chrome_json(const std::string& path) const;

  /// Terminal timeline: one row per lane, `width` time buckets, shading by
  /// bucket occupancy. The reproduction of the paper's profiler figures.
  std::string ascii_timeline(std::size_t width = 96, double t0_us = 0.0,
                             double t1_us = -1.0) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hs::trace
