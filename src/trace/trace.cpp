#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/error.hpp"

namespace hs::trace {

struct Recorder::Impl {
  std::atomic<bool> enabled{true};
  std::chrono::steady_clock::time_point epoch;
  mutable std::mutex mutex;
  std::vector<Span> spans;
};

Recorder::Recorder(bool enabled) : impl_(std::make_unique<Impl>()) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
  impl_->epoch = std::chrono::steady_clock::now();
}

Recorder::~Recorder() = default;

void Recorder::set_enabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool Recorder::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - impl_->epoch)
      .count();
}

void Recorder::record(std::string lane, std::string name, double t0_us,
                      double t1_us) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.push_back(
      Span{std::move(lane), std::move(name), t0_us, t1_us});
}

Recorder::Scoped::Scoped(Recorder* recorder, std::string lane,
                         std::string name)
    : recorder_(recorder),
      lane_(std::move(lane)),
      name_(std::move(name)),
      t0_us_(recorder != nullptr ? recorder->now_us() : 0.0) {}

Recorder::Scoped::~Scoped() {
  if (recorder_ == nullptr) return;
  recorder_->record(std::move(lane_), std::move(name_), t0_us_,
                    recorder_->now_us());
}

std::vector<Span> Recorder::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    out = impl_->spans;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.t0_us < b.t0_us; });
  return out;
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.clear();
}

void Recorder::import(const Recorder& other, const std::string& lane_prefix,
                      double offset_us) {
  HS_REQUIRE(&other != this, "cannot import a recorder into itself");
  const std::vector<Span> imported = other.spans();  // locks other.mutex only
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.reserve(impl_->spans.size() + imported.size());
  for (const Span& s : imported) {
    impl_->spans.push_back(Span{lane_prefix + s.lane, s.name,
                                s.t0_us + offset_us, s.t1_us + offset_us});
  }
}

std::vector<std::string> Recorder::lanes() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  for (const Span& s : impl_->spans) {
    if (std::find(out.begin(), out.end(), s.lane) == out.end()) {
      out.push_back(s.lane);
    }
  }
  return out;
}

namespace {

bool in_lanes(const Span& span, const std::vector<std::string>& lanes) {
  return std::find(lanes.begin(), lanes.end(), span.lane) != lanes.end();
}

/// Returns the union of [t0, t1] clipped span intervals over `lanes`,
/// merged and sorted.
std::vector<std::pair<double, double>> merged_intervals(
    const std::vector<Span>& spans, const std::vector<std::string>& lanes,
    double t0, double t1) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans) {
    if (!in_lanes(s, lanes)) continue;
    const double a = std::max(s.t0_us, t0);
    const double b = std::min(s.t1_us, t1);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& [a, b] : iv) {
    if (!merged.empty() && a <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, b);
    } else {
      merged.emplace_back(a, b);
    }
  }
  return merged;
}

std::pair<double, double> full_extent(const std::vector<Span>& spans) {
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const Span& s : spans) {
    if (first) {
      lo = s.t0_us;
      hi = s.t1_us;
      first = false;
    } else {
      lo = std::min(lo, s.t0_us);
      hi = std::max(hi, s.t1_us);
    }
  }
  return {lo, hi};
}

}  // namespace

LaneStats Recorder::lane_stats(const std::string& lane, double t0_us,
                               double t1_us) const {
  return lane_stats(std::vector<std::string>{lane}, t0_us, t1_us);
}

LaneStats Recorder::lane_stats(const std::vector<std::string>& lanes,
                               double t0_us, double t1_us) const {
  const std::vector<Span> all = spans();
  if (t1_us <= t0_us) {
    std::tie(t0_us, t1_us) = full_extent(all);
  }
  LaneStats stats;
  stats.interval_us = t1_us - t0_us;
  const auto merged = merged_intervals(all, lanes, t0_us, t1_us);
  double cursor = t0_us;
  for (const auto& [a, b] : merged) {
    stats.busy_us += b - a;
    stats.largest_gap_us = std::max(stats.largest_gap_us, a - cursor);
    cursor = b;
  }
  stats.largest_gap_us = std::max(stats.largest_gap_us, t1_us - cursor);
  for (const Span& s : all) {
    if (!in_lanes(s, lanes)) continue;
    // An instantaneous span (t0 == t1) never strictly overlaps anything, so
    // test it against the closed interval; it still counts as a span even
    // though it contributes no busy time.
    const bool overlaps = s.t1_us == s.t0_us
                              ? s.t0_us >= t0_us && s.t0_us <= t1_us
                              : s.t1_us > t0_us && s.t0_us < t1_us;
    if (overlaps) ++stats.span_count;
  }
  stats.occupancy =
      stats.interval_us > 0.0 ? stats.busy_us / stats.interval_us : 0.0;
  return stats;
}

void Recorder::write_chrome_json(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw IoError("cannot create trace file: " + path);
  const std::vector<Span> all = spans();
  const std::vector<std::string> lane_names = lanes();
  auto lane_id = [&](const std::string& lane) {
    const auto it = std::find(lane_names.begin(), lane_names.end(), lane);
    return static_cast<int>(it - lane_names.begin());
  };
  file << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < lane_names.size(); ++i) {
    if (!first) file << ",\n";
    first = false;
    file << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << i
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << lane_names[i]
         << "\"}}";
  }
  char buf[256];
  for (const Span& s : all) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  lane_id(s.lane), s.name.c_str(), s.t0_us, s.duration_us());
    file << buf;
  }
  file << "\n]}\n";
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to trace file: " + path);
}

std::string Recorder::ascii_timeline(std::size_t width, double t0_us,
                                     double t1_us) const {
  HS_REQUIRE(width >= 8, "timeline too narrow");
  const std::vector<Span> all = spans();
  if (all.empty()) return "(no spans recorded)\n";
  if (t1_us <= t0_us) {
    std::tie(t0_us, t1_us) = full_extent(all);
  }
  double total = t1_us - t0_us;
  if (total <= 0.0) {
    // Every span is instantaneous at one timestamp; widen to a 1 us window
    // so each lane still renders a row instead of an empty table.
    t1_us = t0_us + 1.0;
    total = 1.0;
  }
  const double bucket = total / static_cast<double>(width);

  const std::vector<std::string> lane_names = lanes();
  std::size_t label_width = 4;
  for (const auto& lane : lane_names) {
    label_width = std::max(label_width, lane.size());
  }

  std::string out;
  char header[128];
  std::snprintf(header, sizeof header,
                "%-*s  |%.3f ms .. %.3f ms, %.3f ms/char|\n",
                static_cast<int>(label_width), "lane", t0_us / 1e3,
                t1_us / 1e3, bucket / 1e3);
  out += header;
  for (const auto& lane : lane_names) {
    const auto merged = merged_intervals(all, {lane}, t0_us, t1_us);
    std::string row(width, ' ');
    for (std::size_t i = 0; i < width; ++i) {
      const double a = t0_us + bucket * static_cast<double>(i);
      const double b = a + bucket;
      double busy = 0.0;
      for (const auto& [x, y] : merged) {
        busy += std::max(0.0, std::min(y, b) - std::max(x, a));
      }
      const double frac = busy / bucket;
      row[i] = frac > 0.75 ? '#' : frac > 0.25 ? '=' : frac > 0.0 ? '.' : ' ';
    }
    out += lane;
    out += std::string(label_width - lane.size(), ' ');
    out += "  [" + row + "]\n";
  }
  return out;
}

}  // namespace hs::trace
