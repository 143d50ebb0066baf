// Process-wide, thread-safe cache of FFT plans.
//
// Planning (especially at kMeasure/kPatient rigor) is expensive relative to
// a single execution — the paper reports 4 min 20 s of FFTW patient planning,
// amortized by reuse. All stitching implementations share plans through this
// cache so each (size, direction, rigor) is planned exactly once per process.
// It holds the three 2-D plan kinds make_fft_pipeline requests; a plan builds
// its row and column 1-D plans itself.
#pragma once

#include <memory>

#include "fft/plan2d.hpp"
#include "fft/types.hpp"

namespace hs::fft {

class PlanCache {
 public:
  /// The singleton instance used by the stitching implementations.
  static PlanCache& instance();

  /// Returns a shared plan, creating (and caching) it on first use.
  /// The returned pointer remains valid for the cache's lifetime.
  std::shared_ptr<const Plan2d> plan_2d(std::size_t height, std::size_t width,
                                        Direction dir,
                                        Rigor rigor = Rigor::kEstimate);
  std::shared_ptr<const PlanR2c2d> plan_r2c_2d(std::size_t height,
                                               std::size_t width,
                                               Rigor rigor = Rigor::kEstimate);
  std::shared_ptr<const PlanC2r2d> plan_c2r_2d(std::size_t height,
                                               std::size_t width,
                                               Rigor rigor = Rigor::kEstimate);

  /// Drops all cached plans (test isolation).
  void clear();

  std::size_t size() const;

  PlanCache();
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hs::fft
