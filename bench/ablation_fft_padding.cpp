// Ablation for the paper's future-work optimizations (SVI-A):
//   1. "Padding image tiles (or trimming them) to have smaller prime
//      factors ... is known to enhance the performance of FFTW and cuFFT."
//   2. "Using real to complex transforms will further improve performance
//      by doing less work; it will also reduce the computation's memory
//      footprint."
// Measured on this host with the scaled paper tile: 260 x 348 has the exact
// prime structure of 1040 x 1392 (2^2*5*13 by 2^2*3*29); the padded target
// 270 x 350 is 7-smooth.
#include <cstdio>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "fft/plan1d.hpp"
#include "fft/plan2d.hpp"

using namespace hs;
using fft::Complex;

namespace {

double time_c2c(std::size_t h, std::size_t w, int reps) {
  Rng rng(h * w);
  std::vector<Complex> in(h * w), out(h * w);
  for (auto& v : in) v = Complex(rng.next_double(), rng.next_double());
  fft::Plan2d plan(h, w, fft::Direction::kForward);
  plan.execute(in.data(), out.data());  // warm-up
  Stopwatch stopwatch;
  for (int i = 0; i < reps; ++i) plan.execute(in.data(), out.data());
  return stopwatch.seconds() / reps;
}

double time_r2c(std::size_t h, std::size_t w, int reps) {
  Rng rng(h + w);
  std::vector<double> in(h * w);
  for (auto& v : in) v = rng.next_double();
  fft::PlanR2c2d plan(h, w);
  std::vector<Complex> out(h * plan.spectrum_width());
  plan.execute(in.data(), out.data());  // warm-up
  Stopwatch stopwatch;
  for (int i = 0; i < reps; ++i) plan.execute(in.data(), out.data());
  return stopwatch.seconds() / reps;
}

}  // namespace

int main() {
  std::printf("== Ablation: tile padding and real-to-complex transforms "
              "(paper SVI-A future work) ==\n\n");
  const int reps = 6;

  struct Case {
    const char* label;
    std::size_t h, w;
  };
  const Case cases[] = {
      {"paper tile structure (awkward primes)", 260, 348},
      {"padded to 7-smooth", 270, 350},
      {"power of two", 256, 256},
  };

  TextTable table({"size", "factors note", "C2C 2-D FFT", "R2C 2-D FFT",
                   "R2C speedup"});
  double awkward_c2c = 0.0, awkward_r2c = 0.0, padded_c2c = 0.0;
  for (const Case& c : cases) {
    const double c2c = time_c2c(c.h, c.w, reps);
    const double r2c = time_r2c(c.h, c.w, reps);
    if (c.h == 260) {
      awkward_c2c = c2c;
      awkward_r2c = r2c;
    }
    if (c.h == 270) padded_c2c = c2c;
    table.add_row({std::to_string(c.h) + " x " + std::to_string(c.w), c.label,
                   format_num(c2c * 1e3, 2) + " ms",
                   format_num(r2c * 1e3, 2) + " ms",
                   format_num(c2c / r2c, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());

  // The per-pixel ratio says whether a padded pixel is cheaper; the
  // end-to-end ratio (padded tiles carry extra pixels) says whether padding
  // a tile pays, so it decides the verdict.
  const double awkward_per_px = awkward_c2c / (260.0 * 348.0);
  const double padded_per_px = padded_c2c / (270.0 * 350.0);
  const double pad_gain = awkward_c2c / padded_c2c;
  const double r2c_gain = awkward_c2c / awkward_r2c;
  std::printf("awkward-size C2C: %.2f ns/pixel; padded: %.2f ns/pixel "
              "(%.2fx per-pixel)\n",
              awkward_per_px * 1e9, padded_per_px * 1e9,
              awkward_per_px / padded_per_px);
  std::printf("end-to-end padded vs awkward (includes the extra pixels): "
              "%.2fx\n\n",
              pad_gain);
  std::printf("Paper's expectation: padding helps because \"the "
              "implementations use divide and conquer approaches\"; R2C "
              "halves the spectrum work.\n");
  std::printf("  padding to 7-smooth: %s here (%.2fx end to end)\n",
              pad_gain > 1.0 ? "reproduces" : "does not reproduce", pad_gain);
  std::printf("  R2C over C2C at the paper tile structure: %s here (%.2fx)"
              "\n\n",
              r2c_gain > 1.0 ? "reproduces" : "does not reproduce", r2c_gain);

  // The footprint half of the SVI-A claim, at the paper's full tile size:
  // a kept half spectrum stores h*(w/2+1) of the h*w complex bins.
  const double full_mb = 16.0 * 1040.0 * 1392.0 / 1e6;
  const double half_mb = 16.0 * 1040.0 * (1392.0 / 2.0 + 1.0) / 1e6;
  std::printf("Memory per kept transform at 1040 x 1392: complex %.1f MB, "
              "half-spectrum %.1f MB (%.2fx smaller; the Fig 5 cliff moves "
              "out by the same factor).\n",
              full_mb, half_mb, full_mb / half_mb);
  return 0;
}
