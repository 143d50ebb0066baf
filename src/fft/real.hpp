// Real-input transforms.
//
// The paper's implementations transform tiles as full complex arrays (16*h*w
// bytes per transform); its future-work section calls out real-to-complex
// transforms as a planned optimization ("doing less work ... reduce the
// computation's memory footprint"). This module implements that extension:
//   * PlanR2c1d / PlanC2r1d — half-spectrum transforms via the even/odd
//     packing trick (one complex FFT of length n/2 for even n; odd lengths
//     fall back to a full complex transform of length n, so every extent the
//     mixed-radix/Bluestein planner accepts works here too).
//   * fft_two_reals / fft_two_reals_2d — the two-for-one trick: a single
//     complex FFT transforms two real signals at once.
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
  /// may overlap (all input is buffered before any output is written), which
  /// the padded in-place 2-D layout relies on.
  void execute(const double* in, Complex* out) const;

  std::size_t size() const { return n_; }
  std::size_t spectrum_size() const { return n_ / 2 + 1; }
  /// True when the even/odd half-length packing applies (even n); odd n runs
  /// a full complex transform instead.
  bool uses_packing() const { return n_ % 2 == 0; }

 private:
  std::size_t n_;
  Plan1d inner_;                   // length n/2 (even n) or n (odd fallback)
  std::vector<Complex> twiddle_;   // e^(-2*pi*i*k/n), k in [0, n/2]; even n
  const codelets::Set* cod_;       // untangle codelet, fixed at plan time
};

/// Inverse complex-to-real 1-D transform (unnormalized, like FFTW's c2r):
/// executing R2C then C2R multiplies the signal by n.
class PlanC2r1d {
 public:
  explicit PlanC2r1d(std::size_t n, Rigor rigor = Rigor::kEstimate);

  /// `in` holds n/2+1 half-spectrum bins; `out` receives n reals. `in` and
  /// `out` may overlap (input is buffered before output is written).
  void execute(const Complex* in, double* out) const;

  std::size_t size() const { return n_; }
  bool uses_packing() const { return n_ % 2 == 0; }

 private:
  std::size_t n_;
  Plan1d inner_;                   // length n/2 (even n) or n (odd fallback)
  std::vector<Complex> twiddle_;
  const codelets::Set* cod_;       // retangle codelet, fixed at plan time
};

/// 2-D two-for-one: transforms two real height x width signals with one
/// complex 2-D FFT and untangles the full spectra via the 2-D conjugate
/// mirror. Used by the NaivePairwise baseline so its per-pair double forward
/// transform costs one complex FFT.
void fft_two_reals_2d(const Plan2d& forward_plan, const double* a,
                      const double* b, Complex* spec_a, Complex* spec_b);

}  // namespace hs::fft
