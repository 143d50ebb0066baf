#include "fft/real.hpp"

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "fft/codelets.hpp"
#include "fft/plan2d.hpp"

namespace hs::fft {

namespace {

std::size_t checked_inner(std::size_t n) {
  HS_REQUIRE(n >= 1, "real transforms require positive length");
  // Even lengths run the even/odd packing at half length; odd lengths fall
  // back to a full complex transform of length n.
  return n % 2 == 0 ? n / 2 : n;
}

std::vector<Complex> make_half_twiddles(std::size_t n) {
  if (n % 2 != 0) return {};  // odd fallback path does not untangle
  // e^(-2*pi*i*k/n) for k in [0, n/2].
  std::vector<Complex> tw(n / 2 + 1);
  const double theta = -2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < tw.size(); ++k) {
    tw[k] = Complex(std::cos(theta * static_cast<double>(k)),
                    std::sin(theta * static_cast<double>(k)));
  }
  return tw;
}

}  // namespace

PlanR2c1d::PlanR2c1d(std::size_t n, Rigor rigor)
    : n_(n),
      inner_(checked_inner(n), Direction::kForward, rigor),
      twiddle_(make_half_twiddles(n)),
      cod_(&codelets::set_for(inner_.simd_tier())) {}

void PlanR2c1d::execute(const double* in, Complex* out) const {
  if (!uses_packing()) {
    // Odd-length fallback: widen to complex, full transform, keep the half
    // spectrum. All input is read before any output is written, so in/out
    // may overlap.
    std::vector<Complex> z(n_), zf(n_);
    for (std::size_t j = 0; j < n_; ++j) z[j] = Complex(in[j], 0.0);
    inner_.execute(z.data(), zf.data());
    for (std::size_t k = 0; k <= n_ / 2; ++k) out[k] = zf[k];
    return;
  }
  const std::size_t h = n_ / 2;
  // Pack evens/odds into a complex signal and transform once at half length.
  // (even, odd) interleaved pairs are exactly the memory layout of a complex
  // array, so the packing is a straight copy.
  std::vector<Complex> z(h), zf(h);
  std::memcpy(reinterpret_cast<double*>(z.data()), in,
              2 * h * sizeof(double));
  inner_.execute(z.data(), zf.data());
  // Untangle: E[k] = spectrum of evens, O[k] = spectrum of odds.
  cod_->r2c_untangle(zf.data(), twiddle_.data(), out, h);
  // Nyquist bin: X[n/2] = E[0] - O[0], purely real.
  out[h] = Complex(zf[0].real() - zf[0].imag(), 0.0);
}

PlanC2r1d::PlanC2r1d(std::size_t n, Rigor rigor)
    : n_(n),
      inner_(checked_inner(n), Direction::kInverse, rigor),
      twiddle_(make_half_twiddles(n)),
      cod_(&codelets::set_for(inner_.simd_tier())) {}

void PlanC2r1d::execute(const Complex* in, double* out) const {
  if (!uses_packing()) {
    // Odd-length fallback: rebuild the full spectrum from the half via the
    // conjugate mirror, inverse transform (unnormalized, matching the even
    // path's round-trip-by-n convention), keep the real parts.
    std::vector<Complex> z(n_), zt(n_);
    for (std::size_t k = 0; k <= n_ / 2; ++k) z[k] = in[k];
    for (std::size_t k = n_ / 2 + 1; k < n_; ++k) {
      z[k] = std::conj(in[n_ - k]);
    }
    inner_.execute(z.data(), zt.data());
    for (std::size_t j = 0; j < n_; ++j) out[j] = zt[j].real();
    return;
  }
  const std::size_t h = n_ / 2;
  std::vector<Complex> z(h), zt(h);
  // Retangle the half spectrum; the missing factor 1/2 in E and O makes the
  // overall round trip scale by n, matching FFTW's unnormalized c2r.
  cod_->c2r_retangle(in, twiddle_.data(), z.data(), h);
  inner_.execute(z.data(), zt.data());
  // (real, imag) pairs are the interleaved (even, odd) output layout.
  std::memcpy(out, reinterpret_cast<const double*>(zt.data()),
              2 * h * sizeof(double));
}

void fft_two_reals_2d(const Plan2d& forward_plan, const double* a,
                      const double* b, Complex* spec_a, Complex* spec_b) {
  HS_REQUIRE(forward_plan.direction() == Direction::kForward,
             "fft_two_reals_2d needs a forward plan");
  const std::size_t h = forward_plan.height();
  const std::size_t w = forward_plan.width();
  const std::size_t count = h * w;
  std::vector<Complex> z(count), zf(count);
  for (std::size_t j = 0; j < count; ++j) z[j] = Complex(a[j], b[j]);
  forward_plan.execute(z.data(), zf.data());
  // Untangle with the 2-D conjugate mirror (-r mod h, -c mod w).
  for (std::size_t r = 0; r < h; ++r) {
    const std::size_t mr = (h - r) % h;
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t mc = (w - c) % w;
      const Complex zk = zf[r * w + c];
      const Complex zmk = std::conj(zf[mr * w + mc]);
      spec_a[r * w + c] = 0.5 * (zk + zmk);
      spec_b[r * w + c] = Complex(0.0, -0.5) * (zk - zmk);
    }
  }
}

}  // namespace hs::fft
