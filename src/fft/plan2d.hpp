// Two-dimensional FFT plans over row-major arrays.
//
// The complex plan is the workhorse of the stitching algorithm: every tile's
// forward transform and every pair's inverse NCC transform is a Plan2d
// execution (paper Table I: 3nm-n-m transforms for an n x m grid). Every
// plan pairs a row pass with a column pass that its column Plan1d runs in
// place through the lane kernel (Plan1d::execute_columns: kLanes adjacent
// columns per butterfly, read where they lie, no transposes and no
// full-size scratch); the c2r plan runs its columns first. Every row pass
// also takes kLanes rows at a time through the lane kernel: the complex
// plan's through an in-cache block transpose, the r2c and c2r plans'
// through their 1-D plans' row body (PlanR2c1d/PlanC2r1d::execute_rows),
// which gathers the rows' packed half-length signals into a block and
// untangles (or retangles) each row on its own, since those steps read
// mirror bins.
#pragma once

#include <cstddef>

#include "common/simd.hpp"
#include "fft/plan1d.hpp"
#include "fft/real.hpp"
#include "fft/types.hpp"

namespace hs::fft {

namespace codelets {
struct Set;
}

class Plan2d {
 public:
  /// Plans a height x width transform (row-major: element (r, c) at
  /// index r*width + c).
  Plan2d(std::size_t height, std::size_t width, Direction dir,
         Rigor rigor = Rigor::kEstimate);

  /// Out-of-place transform; in/out must each hold height()*width()
  /// elements and must not alias.
  void execute(const Complex* in, Complex* out) const;

  /// In-place transform.
  void execute_inplace(Complex* data) const;

  std::size_t height() const { return h_; }
  std::size_t width() const { return w_; }
  std::size_t count() const { return h_ * w_; }
  Direction direction() const { return dir_; }

  /// The tier of the transpose codelet the row blocks run, captured at plan
  /// time (row/column 1-D plans carry their own tiers via
  /// Plan1d::simd_tier()).
  common::SimdTier transpose_tier() const;

  /// The butterfly codelet tier of the embedded row 1-D plan (columns
  /// resolve identically: both plans were built under the same dispatch).
  common::SimdTier fft_tier() const { return row_.simd_tier(); }

 private:
  // Row transforms of `in` into `out` (which may be `in`).
  void row_pass(const Complex* in, Complex* out) const;

  std::size_t h_;
  std::size_t w_;
  Direction dir_;
  Plan1d row_;
  Plan1d col_;
  const codelets::Set* cod_;  // the row blocks' transpose
};

/// Forward real-to-complex 2-D transform: h x w reals in, h x (w/2+1)
/// half-spectrum complex out (rows are half spectra; columns full FFTs).
class PlanR2c2d {
 public:
  PlanR2c2d(std::size_t height, std::size_t width,
            Rigor rigor = Rigor::kEstimate);

  /// Out of place: a copy of `in` into the padded layout in `out`, then
  /// the in-place body.
  void execute(const double* in, Complex* out) const;

  /// In-place padded layout for device buffers of spectrum_count() complex
  /// values: on entry, row r's width() real samples live at double offset
  /// r * 2 * spectrum_width() (i.e. each real row is stored at the start of
  /// its own spectrum row, FFTW style); on exit the buffer holds the
  /// height() x spectrum_width() half spectrum. Safe because each block of
  /// kLanes rows reads all of its rows before it writes its bins, which
  /// occupy exactly its own input region; the column pass then runs in
  /// place.
  void execute_inplace_padded(Complex* data) const;

  std::size_t height() const { return h_; }
  std::size_t width() const { return w_; }
  std::size_t spectrum_width() const { return w_ / 2 + 1; }
  std::size_t spectrum_count() const { return h_ * spectrum_width(); }

  /// Butterfly codelet tier of the embedded column 1-D plan (the row r2c
  /// plans resolve identically under the same dispatch).
  common::SimdTier fft_tier() const { return col_.simd_tier(); }

  /// The tier of the transpose codelet the row blocks run (the row plan's).
  common::SimdTier transpose_tier() const { return row_.codelet_tier(); }

 private:
  std::size_t h_;
  std::size_t w_;
  PlanR2c1d row_;
  Plan1d col_;
};

/// Inverse of PlanR2c2d (unnormalized: round trip scales by h*w).
class PlanC2r2d {
 public:
  PlanC2r2d(std::size_t height, std::size_t width,
            Rigor rigor = Rigor::kEstimate);

  /// Out of place: a copy of `in` into the in-place layout, the in-place
  /// body, then a copy of the packed doubles to `out`.
  void execute(const Complex* in, double* out) const;

  /// In-place for device buffers: `data` holds the height() x
  /// spectrum_width() half spectrum; on exit the same buffer holds
  /// height()*width() packed doubles (the real inverse image). The column
  /// pass runs in place first; then each block of kLanes rows [r, r+k)
  /// reads all of its bins before it writes doubles [r*w, (r+k)*w), which
  /// end before the next block's bins start at (r+k)*2*sw.
  void execute_inplace_half(Complex* data) const;

  std::size_t height() const { return h_; }
  std::size_t width() const { return w_; }
  std::size_t spectrum_width() const { return w_ / 2 + 1; }
  std::size_t spectrum_count() const { return h_ * spectrum_width(); }

  /// Butterfly codelet tier of the embedded column 1-D plan (the row c2r
  /// plans resolve identically under the same dispatch).
  common::SimdTier fft_tier() const { return col_.simd_tier(); }

  /// The tier of the transpose codelet the row blocks run (the row plan's).
  common::SimdTier transpose_tier() const { return row_.codelet_tier(); }

 private:
  std::size_t h_;
  std::size_t w_;
  PlanC2r1d row_;
  Plan1d col_;
};

}  // namespace hs::fft
