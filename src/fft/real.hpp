// Real-input transforms.
//
// The paper's implementations transform tiles as full complex arrays (16*h*w
// bytes per transform); its future-work section calls out real-to-complex
// transforms as a planned optimization ("doing less work ... reduce the
// computation's memory footprint"). This module implements that extension:
//   * PlanR2c1d / PlanC2r1d — half-spectrum transforms via the even/odd
//     packing trick (one complex FFT of length n/2 for even n; odd lengths
//     run a full complex transform of length n on the widened row, so every
//     extent the mixed-radix/Bluestein planner accepts works here too). Each
//     plan has one row body, execute_rows: kLanes rows per block through
//     the inner plan's lane kernel (Plan1d::execute_columns), which the 2-D
//     real plans run over every row and the 1-D execute over one.
//   * fft_two_reals_2d — the two-for-one trick: a single complex 2-D FFT
//     transforms two real signals at once.
#pragma once

#include <memory>

#include "fft/plan1d.hpp"
#include "fft/types.hpp"

namespace hs::fft {

class Plan2d;

namespace codelets {
struct Set;
}

/// Forward real-to-complex 1-D transform. Output is the half spectrum:
/// n/2 + 1 complex bins (indices 0..n/2); the remaining bins are the
/// conjugate mirror and are not stored.
class PlanR2c1d {
 public:
  explicit PlanR2c1d(std::size_t n, Rigor rigor = Rigor::kEstimate);

  /// `in` holds n reals; `out` receives n/2+1 complex bins. `in` and `out`
  /// may overlap. A copy into the padded layout, then a block of one row:
  /// only tests call it, and it runs kLanes - 1 zero lanes.
  void execute(const double* in, Complex* out) const;

  /// The row body, in place in the padded layout: row r's n reals start at
  /// data + r * spectrum_size() (double offset r * 2 * spectrum_size()) and
  /// become its spectrum_size() bins there. Rows run kLanes at a time (the
  /// rows % kLanes leftovers as one narrower block), and a block reads all
  /// of its rows before it writes any. Even n transposes the block's rows
  /// into a block whose first n/2 rows are the packed half-length signals,
  /// runs the inner plan's execute_columns over them, then untangles each
  /// row and sets its Nyquist bin; odd n widens the rows into an n x kLanes
  /// block and keeps the first n/2+1 bins.
  void execute_rows(Complex* data, std::size_t rows) const;

  std::size_t size() const { return n_; }
  std::size_t spectrum_size() const { return n_ / 2 + 1; }
  /// True when the even/odd half-length packing applies (even n); odd n runs
  /// a full complex transform of the widened row instead.
  bool uses_packing() const { return n_ % 2 == 0; }
  /// The tier of the untangle and transpose codelets, fixed at plan time.
  common::SimdTier codelet_tier() const;

 private:
  std::size_t n_;
  Plan1d inner_;                   // length n/2 (even n) or n (odd n)
  std::vector<Complex> twiddle_;   // e^(-2*pi*i*k/n), k in [0, n/2]; even n
  const codelets::Set* cod_;       // untangle/transpose, fixed at plan time
};

/// Inverse complex-to-real 1-D transform (unnormalized, like FFTW's c2r):
/// executing R2C then C2R multiplies the signal by n.
class PlanC2r1d {
 public:
  explicit PlanC2r1d(std::size_t n, Rigor rigor = Rigor::kEstimate);

  /// `in` holds n/2+1 half-spectrum bins; `out` receives n reals. `in` and
  /// `out` may overlap. A block of one row, like PlanR2c1d::execute.
  void execute(const Complex* in, double* out) const;

  /// The row body: row r's spectrum_size() bins at in + r * spectrum_size()
  /// become n packed reals at out + r * n. `out` may alias `in`: a block of
  /// kLanes rows reads all of its rows before it writes any, and its reals
  /// end before the next block's bins start (n <= 2 * spectrum_size()).
  /// Even n retangles each row into a packed half-length signal, runs the
  /// (n/2) x kLanes block through execute_columns and writes the results
  /// as (even, odd) pairs; odd n rebuilds each row's full spectrum from the
  /// conjugate mirror and keeps the real parts.
  void execute_rows(const Complex* in, double* out, std::size_t rows) const;

  std::size_t size() const { return n_; }
  std::size_t spectrum_size() const { return n_ / 2 + 1; }
  bool uses_packing() const { return n_ % 2 == 0; }
  /// The tier of the retangle and transpose codelets, fixed at plan time.
  common::SimdTier codelet_tier() const;

 private:
  std::size_t n_;
  Plan1d inner_;                   // length n/2 (even n) or n (odd n)
  std::vector<Complex> twiddle_;
  const codelets::Set* cod_;       // retangle/transpose, fixed at plan time
};

/// 2-D two-for-one: transforms two real height x width signals with one
/// complex 2-D FFT and untangles the full spectra via the 2-D conjugate
/// mirror. Used by the NaivePairwise baseline so its per-pair double forward
/// transform costs one complex FFT.
void fft_two_reals_2d(const Plan2d& forward_plan, const double* a,
                      const double* b, Complex* spec_a, Complex* spec_b);

}  // namespace hs::fft
