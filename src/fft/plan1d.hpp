// One-dimensional complex-to-complex FFT plan.
//
// Strategy selection:
//   * n whose prime factors are all <= kMaxDirectRadix runs a recursive
//     decimation-in-time mixed-radix kernel with per-depth precomputed
//     twiddle tables (specialized radix-2/4 butterflies; a conjugate-pair
//     odd-radix butterfly otherwise).
//   * Outermost-radix rule: kEstimate orders the largest radix outermost —
//     odd radices descending, then a leftover 2, then the 4s (696 ->
//     [29 3 2 4], 520 -> [13 5 2 4]). The radix at depth d runs over
//     n / (r_0 * ... * r_d) columns, so this gives the costliest butterflies
//     the widest column runs, where the vector codelets apply. kMeasure and
//     kPatient also time the 4s-first, odd-ascending ordering (and more),
//     so a measured plan is never slower than that ordering.
//   * n with a larger prime factor falls back to Bluestein's chirp-z
//     algorithm over a power-of-two transform of length >= 2n-1. This is
//     exactly the regime the paper's 1392x1040 microscope tiles flirt with
//     (1392 = 2^4*3*29, 1040 = 2^4*5*13): awkward factors that make padding
//     to small-prime sizes profitable (paper SVI, future work).
//
// Plans are immutable after construction and safe to execute concurrently
// from many threads; per-thread scratch is drawn from a thread_local arena.
#pragma once

#include <memory>
#include <vector>

#include "common/simd.hpp"
#include "fft/types.hpp"

namespace hs::fft {

inline constexpr int kMaxDirectRadix = 31;

/// Columns one lane-kernel run transforms together (Plan1d::execute_columns).
/// A constant, not a setting: on c2c 520x696, 4 lanes measured slower than
/// 8, and 16 within noise of it.
inline constexpr std::size_t kLanes = 8;

/// Returns true when every prime factor of n is <= kMaxDirectRadix, i.e. the
/// mixed-radix kernel applies without a Bluestein fallback.
bool is_smooth(std::size_t n);

/// Smallest m >= n whose prime factors are all in {2, 3, 5, 7}; the padding
/// target recommended by the paper's future-work section.
std::size_t next_smooth(std::size_t n);

class Plan1d {
 public:
  Plan1d(std::size_t n, Direction dir, Rigor rigor = Rigor::kEstimate);
  ~Plan1d();

  Plan1d(const Plan1d&) = delete;
  Plan1d& operator=(const Plan1d&) = delete;
  Plan1d(Plan1d&&) noexcept;
  Plan1d& operator=(Plan1d&&) noexcept;

  /// Out-of-place transform; `in` and `out` must not alias and must each
  /// hold size() elements.
  void execute(const Complex* in, Complex* out) const;

  /// In-place transform (uses scratch internally).
  void execute_inplace(Complex* data) const;

  /// Transforms every column of the size() x cols row-major array `data` in
  /// place, bit for bit as execute_inplace on each gathered column would.
  /// A smooth plan runs kLanes adjacent columns per butterfly: element
  /// (i, lane b) sits at i * kLanes + b of an n x kLanes block, each lane
  /// follows the one-column operation sequence, and the leaves read the
  /// columns where they lie, so no transpose or full-size scratch is
  /// needed. A partial last block runs with zero lanes. Bluestein plans go
  /// column by column.
  void execute_columns(Complex* data, std::size_t cols) const;

  std::size_t size() const;
  Direction direction() const;

  /// The SIMD codelet tier this plan executes with: measured rigors record
  /// the fastest tier in wisdom; kEstimate uses the widest the dispatch cap
  /// allows. Fixed at plan time.
  common::SimdTier simd_tier() const;

  bool uses_bluestein() const;

  /// The factor ordering chosen by the planner (empty for Bluestein plans).
  const std::vector<int>& factors() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Scales `data[0..n)` by 1/n; convenience for normalized inverse transforms.
void normalize(Complex* data, std::size_t n);

}  // namespace hs::fft
