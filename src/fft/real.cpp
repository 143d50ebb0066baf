#include "fft/real.hpp"

#include <algorithm>
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
  // Even lengths run the even/odd packing at half length; odd lengths run a
  // full complex transform of the widened row.
  return n % 2 == 0 ? n / 2 : n;
}

std::vector<Complex> make_half_twiddles(std::size_t n) {
  if (n % 2 != 0) return {};  // odd lengths do not untangle
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

common::SimdTier PlanR2c1d::codelet_tier() const { return cod_->tier; }

void PlanR2c1d::execute(const double* in, Complex* out) const {
  // Into the padded layout (n reals at the start of the bins), then a block
  // of one row.
  std::memmove(reinterpret_cast<double*>(out), in, n_ * sizeof(double));
  execute_rows(out, 1);
}

void PlanR2c1d::execute_rows(Complex* data, std::size_t rows) const {
  const std::size_t sw = spectrum_size();
  const std::size_t len = inner_.size();
  // The block is a plain vector, not the scratch arena: execute_columns
  // takes the thread's only lease. Even n gathers whole sw-bin rows (the
  // last bin rides along below the block's len rows) and keeps a
  // kLanes x len row-major copy for the untangle.
  std::vector<Complex> buf(uses_packing() ? (sw + len) * kLanes
                                          : len * kLanes);
  Complex* block = buf.data();
  Complex* packed = block + sw * kLanes;
  for (std::size_t r = 0; r < rows; r += kLanes) {
    const std::size_t lanes = std::min(kLanes, rows - r);
    Complex* row0 = data + r * sw;
    // Gather: element i of the block's row b goes to block[i * lanes + b].
    if (uses_packing()) {
      // (even, odd) pairs of reals are the packed half-length signal. The
      // transpose reads each row's whole sw-bin slot; its last bin, which
      // the Nyquist bin fills below, may never have been written, so it is
      // zeroed first.
      for (std::size_t b = 0; b < lanes; ++b) row0[b * sw + len] = Complex();
      cod_->transpose(row0, block, lanes, sw);
    } else {
      const double* reals = reinterpret_cast<const double*>(row0);
      for (std::size_t b = 0; b < lanes; ++b) {
        for (std::size_t i = 0; i < len; ++i) {
          block[i * lanes + b] = Complex(reals[b * 2 * sw + i], 0.0);
        }
      }
    }
    inner_.execute_columns(block, lanes);
    if (uses_packing()) {
      // Untangle: E[k] = spectrum of evens, O[k] = spectrum of odds; the
      // Nyquist bin X[n/2] = E[0] - O[0] is purely real.
      cod_->transpose(block, packed, len, lanes);
      for (std::size_t b = 0; b < lanes; ++b) {
        const Complex* zf = packed + b * len;
        cod_->r2c_untangle(zf, twiddle_.data(), row0 + b * sw, len);
        row0[b * sw + len] = Complex(zf[0].real() - zf[0].imag(), 0.0);
      }
    } else {
      for (std::size_t b = 0; b < lanes; ++b) {
        for (std::size_t k = 0; k < sw; ++k) {
          row0[b * sw + k] = block[k * lanes + b];
        }
      }
    }
  }
}

PlanC2r1d::PlanC2r1d(std::size_t n, Rigor rigor)
    : n_(n),
      inner_(checked_inner(n), Direction::kInverse, rigor),
      twiddle_(make_half_twiddles(n)),
      cod_(&codelets::set_for(inner_.simd_tier())) {}

common::SimdTier PlanC2r1d::codelet_tier() const { return cod_->tier; }

void PlanC2r1d::execute(const Complex* in, double* out) const {
  execute_rows(in, out, 1);
}

void PlanC2r1d::execute_rows(const Complex* in, double* out,
                             std::size_t rows) const {
  const std::size_t sw = spectrum_size();
  const std::size_t len = inner_.size();
  // A plain vector for the block (see PlanR2c1d::execute_rows); even n
  // retangles each row into a kLanes x len row-major copy first.
  std::vector<Complex> buf(len * kLanes * (uses_packing() ? 2 : 1));
  Complex* block = buf.data();
  Complex* packed = block + len * kLanes;
  for (std::size_t r = 0; r < rows; r += kLanes) {
    const std::size_t lanes = std::min(kLanes, rows - r);
    const Complex* src = in + r * sw;
    if (uses_packing()) {
      // Retangle each row; the missing factor 1/2 in E and O makes the
      // round trip scale by n, matching FFTW's unnormalized c2r.
      for (std::size_t b = 0; b < lanes; ++b) {
        cod_->c2r_retangle(src + b * sw, twiddle_.data(), packed + b * len,
                           len);
      }
      cod_->transpose(packed, block, lanes, len);
    } else {
      // The full spectrum from the half via the conjugate mirror.
      for (std::size_t b = 0; b < lanes; ++b) {
        const Complex* row = src + b * sw;
        for (std::size_t k = 0; k < len; ++k) {
          block[k * lanes + b] = k < sw ? row[k] : std::conj(row[len - k]);
        }
      }
    }
    inner_.execute_columns(block, lanes);
    // Even n: (real, imag) pairs are the interleaved (even, odd) reals.
    double* dst = out + r * n_;
    for (std::size_t b = 0; b < lanes; ++b) {
      double* row = dst + b * n_;
      if (uses_packing()) {
        for (std::size_t i = 0; i < len; ++i) {
          row[2 * i] = block[i * lanes + b].real();
          row[2 * i + 1] = block[i * lanes + b].imag();
        }
      } else {
        for (std::size_t j = 0; j < len; ++j) {
          row[j] = block[j * lanes + b].real();
        }
      }
    }
  }
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
