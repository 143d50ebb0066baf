#include "fft/codelets.hpp"

#include <algorithm>

#include "fft/codelets_impl.hpp"
#include "fft/plan1d.hpp"

namespace hs::fft::codelets {

namespace detail {

// The bit-identity references every vector variant is tested against.

void bf2_scalar(Complex* out, const Complex* tw, std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    const Complex a = out[k];
    const Complex b = out[m + k] * tw[m + k];
    out[k] = a + b;
    out[m + k] = a - b;
  }
}

void bf4_scalar(Complex* out, const Complex* tw, std::size_t m, bool forward) {
  for (std::size_t k = 0; k < m; ++k) {
    const Complex a0 = out[k];
    const Complex a1 = out[m + k] * tw[m + k];
    const Complex a2 = out[2 * m + k] * tw[2 * m + k];
    const Complex a3 = out[3 * m + k] * tw[3 * m + k];
    const Complex t0 = a0 + a2;
    const Complex t1 = a0 - a2;
    const Complex t2 = a1 + a3;
    const Complex t3 = a1 - a3;
    // W_4^1 is -i forward, +i inverse.
    const Complex t3w = forward ? Complex(t3.imag(), -t3.real())
                                : Complex(-t3.imag(), t3.real());
    out[k] = t0 + t2;
    out[2 * m + k] = t0 - t2;
    out[m + k] = t1 + t3w;
    out[3 * m + k] = t1 - t3w;
  }
}

void bfr_scalar(Complex* out, const Complex* tw, const Complex* wr, int r,
                std::size_t m) {
  bfr_scalar_from(out, tw, wr, r, m, 0);
}

void bfr_scalar_from(Complex* out, const Complex* tw, const Complex* wr, int r,
                     std::size_t m, std::size_t k_begin) {
  const auto at = [m](int j, std::size_t k) {
    return static_cast<std::size_t>(j) * m + k;
  };
  if (r % 2 == 0) {
    // Even composite radices (wisdom-only, e.g. 6 or 8): dense r x r product.
    Complex t[kMaxDirectRadix + 1];
    for (std::size_t k = k_begin; k < m; ++k) {
      for (int j = 0; j < r; ++j) t[j] = out[at(j, k)] * tw[at(j, k)];
      for (int q = 0; q < r; ++q) {
        Complex acc = t[0];
        for (int j = 1; j < r; ++j) {
          acc += t[j] * wr[static_cast<std::size_t>(j) * r + q];
        }
        out[at(q, k)] = acc;
      }
    }
    return;
  }
  // Odd radix, conjugate-pair form. W^((r-j)q) = conj(W^(jq)), so with
  // s_j = t_j + t_(r-j) and d_j = t_j - t_(r-j) (j = 1..h, h = (r-1)/2):
  //   X_q     = a + i*b,  X_(r-q) = a - i*b,  where
  //   a = t_0 + sum_j s_j * Re W^(jq),   b = sum_j d_j * Im W^(jq).
  // Row 0 of tw is all ones, so t_0 skips its twiddle multiply.
  const int h = r / 2;
  Complex s[kMaxDirectRadix / 2 + 1];
  Complex d[kMaxDirectRadix / 2 + 1];
  for (std::size_t k = k_begin; k < m; ++k) {
    const Complex t0 = out[k];
    Complex sum = t0;
    for (int j = 1; j <= h; ++j) {
      const Complex lo = out[at(j, k)] * tw[at(j, k)];
      const Complex hi = out[at(r - j, k)] * tw[at(r - j, k)];
      s[j] = lo + hi;
      d[j] = lo - hi;
      sum += s[j];
    }
    out[k] = sum;
    for (int q = 1; q <= h; ++q) {
      const Complex w1 = wr[static_cast<std::size_t>(r) + q];
      double are = t0.real() + s[1].real() * w1.real();
      double aim = t0.imag() + s[1].imag() * w1.real();
      double bre = d[1].real() * w1.imag();
      double bim = d[1].imag() * w1.imag();
      for (int j = 2; j <= h; ++j) {
        const Complex w = wr[static_cast<std::size_t>(j) * r + q];
        are = are + s[j].real() * w.real();
        aim = aim + s[j].imag() * w.real();
        bre = bre + d[j].real() * w.imag();
        bim = bim + d[j].imag() * w.imag();
      }
      out[at(q, k)] = Complex(are - bim, aim + bre);
      out[at(r - q, k)] = Complex(are + bim, aim - bre);
    }
  }
}

void transpose_scalar(const Complex* in, Complex* out, std::size_t rows,
                      std::size_t cols) {
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t rend = std::min(rows, rb + kBlock);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t cend = std::min(cols, cb + kBlock);
      for (std::size_t r = rb; r < rend; ++r) {
        for (std::size_t c = cb; c < cend; ++c) {
          out[c * rows + r] = in[r * cols + c];
        }
      }
    }
  }
}

void r2c_untangle_scalar(const Complex* zf, const Complex* tw, Complex* out,
                         std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) {
    const Complex zk = zf[k];
    const Complex zmk = std::conj(zf[(h - k) % h]);
    const Complex e = 0.5 * (zk + zmk);
    const Complex od = Complex(0.0, -0.5) * (zk - zmk);
    out[k] = e + tw[k] * od;
  }
}

void c2r_retangle_scalar(const Complex* in, const Complex* tw, Complex* z,
                         std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) {
    const Complex xk = in[k];
    const Complex xmk = std::conj(in[h - k]);
    const Complex e = xk + xmk;
    const Complex od = std::conj(tw[k]) * (xk - xmk);
    z[k] = e + Complex(0.0, 1.0) * od;
  }
}

}  // namespace detail

const Set& scalar_set() {
  static const Set set{common::SimdTier::kScalar,
                       detail::bf2_scalar,
                       detail::bf4_scalar,
                       detail::bfr_scalar,
                       detail::transpose_scalar,
                       detail::r2c_untangle_scalar,
                       detail::c2r_retangle_scalar};
  return set;
}

const Set& sse2_set() {
  // Transpose stays scalar: complexes are 16 bytes, so the blocked scalar
  // copy already moves full registers and SSE2 adds nothing.
  static const Set set{common::SimdTier::kSse2,
                       detail::bf2_sse2,
                       detail::bf4_sse2,
                       detail::bfr_sse2,
                       detail::transpose_scalar,
                       detail::r2c_untangle_sse2,
                       detail::c2r_retangle_sse2};
  return set;
}

const Set& avx2_set() {
  static const Set set{common::SimdTier::kAvx2,
                       detail::bf2_avx2,
                       detail::bf4_avx2,
                       detail::bfr_avx2,
                       detail::transpose_avx2,
                       detail::r2c_untangle_avx2,
                       detail::c2r_retangle_avx2};
  return set;
}

const Set& set_for(common::SimdTier tier) {
  switch (tier) {
    case common::SimdTier::kAvx2:
      return avx2_set();
    case common::SimdTier::kSse2:
      return sse2_set();
    case common::SimdTier::kScalar:
      break;
  }
  return scalar_set();
}

const Set& active_set() { return set_for(common::active_tier()); }

}  // namespace hs::fft::codelets
