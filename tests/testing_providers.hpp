// Shared test fixtures for the stitching suites: synthetic grid presets,
// fast option presets, fault-injecting tile providers, and table
// comparison helpers. Header-only so every test binary can use them
// without another library target.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "simdata/plate.hpp"
#include "stitch/stitcher.hpp"
#include "trace/trace.hpp"

namespace hs::testing {

/// Feature-rich grid with stage jitter and camera noise — the standard
/// input of the cross-backend integration tests.
inline sim::SyntheticGrid make_grid(std::size_t rows, std::size_t cols,
                                    std::uint64_t seed = 7) {
  sim::AcquisitionParams acq;
  acq.grid_rows = rows;
  acq.grid_cols = cols;
  acq.tile_height = 48;
  acq.tile_width = 64;
  acq.overlap_fraction = 0.25;
  acq.stage_jitter_sd = 2.0;
  acq.stage_jitter_max = 5.0;
  acq.camera_noise_sd = 100.0;
  acq.seed = seed;
  return sim::make_synthetic_grid(acq);
}

/// Small clean 3x4 grid used by the robustness/failure tests.
inline sim::SyntheticGrid small_grid(std::uint64_t seed = 3) {
  sim::AcquisitionParams acq;
  acq.grid_rows = 3;
  acq.grid_cols = 4;
  acq.tile_height = 32;
  acq.tile_width = 48;
  acq.overlap_fraction = 0.25;
  acq.seed = seed;
  return sim::make_synthetic_grid(acq);
}

/// Options sized for fast test runs while still exercising every thread
/// pool and both virtual GPUs.
inline stitch::StitchOptions fast_options() {
  stitch::StitchOptions options;
  options.threads = 3;
  options.read_threads = 1;
  options.ccf_threads = 2;
  options.gpu_count = 2;
  options.gpu_memory_bytes = 64ull << 20;
  // Lets CI run the whole tier-1 suite down the half-spectrum path without
  // duplicating every test (scripts/check.sh toggles this both ways).
  if (std::getenv("HS_USE_REAL_FFT") != nullptr) options.use_real_fft = true;
  return options;
}

/// Fraction of edges whose recovered displacement equals ground truth.
inline double truth_accuracy(const sim::SyntheticGrid& grid,
                             const stitch::DisplacementTable& table) {
  std::size_t good = 0, total = 0;
  const auto& layout = grid.layout;
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      const img::TilePos pos{r, c};
      if (c > 0) {
        const auto [dx, dy] = grid.truth.displacement(
            layout.index_of({r, c - 1}), layout.index_of(pos));
        const stitch::Translation& t = table.west_of(pos);
        ++total;
        if (t.x == dx && t.y == dy) ++good;
      }
      if (r > 0) {
        const auto [dx, dy] = grid.truth.displacement(
            layout.index_of({r - 1, c}), layout.index_of(pos));
        const stitch::Translation& t = table.north_of(pos);
        ++total;
        if (t.x == dx && t.y == dy) ++good;
      }
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(good) / static_cast<double>(total);
}

inline bool tables_identical(const stitch::DisplacementTable& a,
                             const stitch::DisplacementTable& b) {
  if (a.west.size() != b.west.size()) return false;
  for (std::size_t i = 0; i < a.west.size(); ++i) {
    if (!(a.west[i] == b.west[i]) || !(a.north[i] == b.north[i])) {
      return false;
    }
  }
  return true;
}

/// Span counts keyed "lane:label" over the lanes starting with
/// `lane_prefix` — the command fingerprint of a traced virtual-GPU run.
inline std::map<std::string, std::size_t> span_label_counts(
    const trace::Recorder& recorder, const std::string& lane_prefix) {
  std::map<std::string, std::size_t> counts;
  for (const trace::Span& span : recorder.spans()) {
    if (span.lane.starts_with(lane_prefix)) {
      ++counts[span.lane + ":" + span.name];
    }
  }
  return counts;
}

/// Serves a synthetic grid but throws on one designated tile, optionally
/// only after it was served `fail_after` times (exercises mid-pipeline
/// failure while other stages are in flight).
class FailingProvider final : public stitch::TileProvider {
 public:
  FailingProvider(const sim::SyntheticGrid& grid, img::TilePos poison)
      : grid_(grid), poison_(poison) {}

  img::GridLayout layout() const override { return grid_.layout; }
  std::size_t tile_height() const override { return grid_.tile_height; }
  std::size_t tile_width() const override { return grid_.tile_width; }

  img::ImageU16 load(img::TilePos pos) const override {
    loads_.fetch_add(1, std::memory_order_relaxed);
    if (pos == poison_) {
      throw IoError("injected read failure at tile (" +
                    std::to_string(pos.row) + "," + std::to_string(pos.col) +
                    ")");
    }
    return grid_.tile(pos);
  }

  std::size_t loads() const { return loads_.load(std::memory_order_relaxed); }

 private:
  const sim::SyntheticGrid& grid_;
  img::TilePos poison_;
  mutable std::atomic<std::size_t> loads_{0};
};

/// Sleeps on every load — makes jobs reliably observable (and cancellable)
/// mid-run for the service and checkpoint tests.
class SlowProvider final : public stitch::TileProvider {
 public:
  SlowProvider(const stitch::TileProvider* inner, int delay_ms)
      : inner_(inner), delay_ms_(delay_ms) {}

  img::GridLayout layout() const override { return inner_->layout(); }
  std::size_t tile_height() const override { return inner_->tile_height(); }
  std::size_t tile_width() const override { return inner_->tile_width(); }
  img::ImageU16 load(img::TilePos pos) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return inner_->load(pos);
  }

 private:
  const stitch::TileProvider* inner_;
  int delay_ms_;
};

}  // namespace hs::testing
