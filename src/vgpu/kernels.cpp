#include "vgpu/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/simd.hpp"
#include "metrics/wellknown.hpp"
#include "vgpu/kernels_impl.hpp"

namespace hs::vgpu {

namespace {

// Per-family dispatch: read the active tier and keep the family's
// hs_kernel_dispatch info gauges current. The gauge write happens only when
// the tier actually changes (one relaxed exchange per call otherwise), so
// the hot kernels pay nothing for the instrumentation.
common::SimdTier family_tier(const char* family, std::atomic<int>& last) {
  const common::SimdTier tier = common::active_tier();
  const int t = static_cast<int>(tier);
  if (last.exchange(t, std::memory_order_relaxed) != t) {
    metrics::wellknown::note_kernel_dispatch(family, tier);
  }
  return tier;
}

common::SimdTier ncc_tier() {
  static std::atomic<int> last{-1};
  return family_tier("ncc", last);
}

common::SimdTier max_abs_tier() {
  static std::atomic<int> last{-1};
  return family_tier("max_abs", last);
}

common::SimdTier u16_tier() {
  static std::atomic<int> last{-1};
  return family_tier("u16_convert", last);
}

// The top-k insertion scan shared by complex and real surfaces; `square`
// maps an element to its squared magnitude. Single pass maintaining a small
// sorted list of the k best (k is 1..8 in practice, so insertion into the
// array beats a heap); strict comparisons keep the lowest index on ties.
template <typename T, typename Square>
std::vector<MaxAbsResult> topk_scan(const T* data, std::size_t count,
                                    std::size_t k, Square square) {
  std::vector<double> best_sq(k, -1.0);
  std::vector<std::size_t> best_idx(k, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const double sq = square(data[i]);
    if (sq <= best_sq[k - 1]) continue;
    std::size_t slot = k - 1;
    while (slot > 0 && sq > best_sq[slot - 1]) {
      best_sq[slot] = best_sq[slot - 1];
      best_idx[slot] = best_idx[slot - 1];
      --slot;
    }
    best_sq[slot] = sq;
    best_idx[slot] = i;
  }
  std::vector<MaxAbsResult> out;
  out.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    if (best_sq[s] < 0.0) break;  // count < k
    out.push_back(MaxAbsResult{std::sqrt(best_sq[s]), best_idx[s]});
  }
  return out;
}

}  // namespace

void k_u16_to_complex_scalar(const std::uint16_t* src, fft::Complex* dst,
                             std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = fft::Complex(static_cast<double>(src[i]), 0.0);
  }
}

void k_u16_to_complex(const std::uint16_t* src, fft::Complex* dst,
                      std::size_t count) {
  switch (u16_tier()) {
    case common::SimdTier::kAvx2:
      detail::u16_to_complex_avx2(src, dst, count);
      return;
    case common::SimdTier::kSse2:
      detail::u16_to_complex_sse2(src, dst, count);
      return;
    case common::SimdTier::kScalar:
      break;
  }
  k_u16_to_complex_scalar(src, dst, count);
}

void k_u16_to_real_scalar(const std::uint16_t* src, double* dst,
                          std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<double>(src[i]);
  }
}

void k_u16_to_real(const std::uint16_t* src, double* dst, std::size_t count) {
  switch (u16_tier()) {
    case common::SimdTier::kAvx2:
      detail::u16_to_real_avx2(src, dst, count);
      return;
    case common::SimdTier::kSse2:
      detail::u16_to_real_sse2(src, dst, count);
      return;
    case common::SimdTier::kScalar:
      break;
  }
  k_u16_to_real_scalar(src, dst, count);
}

void k_u16_to_real_padded(const std::uint16_t* src, fft::Complex* dst,
                          std::size_t height, std::size_t width) {
  const std::size_t sw = width / 2 + 1;
  auto* d = reinterpret_cast<double*>(dst);
  for (std::size_t r = 0; r < height; ++r) {
    k_u16_to_real(src + r * width, d + r * 2 * sw, width);
  }
}

void k_ncc_scalar(const fft::Complex* fi, const fft::Complex* fj,
                  fft::Complex* out, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const double re = fi[i].real() * fj[i].real() + fi[i].imag() * fj[i].imag();
    const double im = fi[i].imag() * fj[i].real() - fi[i].real() * fj[i].imag();
    const double mag = std::sqrt(re * re + im * im);
    if (mag > 0.0) {
      out[i] = fft::Complex(re / mag, im / mag);
    } else {
      out[i] = fft::Complex(0.0, 0.0);
    }
  }
}

void k_ncc(const fft::Complex* fi, const fft::Complex* fj, fft::Complex* out,
           std::size_t count) {
  switch (ncc_tier()) {
    case common::SimdTier::kAvx2:
      detail::ncc_avx2(fi, fj, out, count);
      return;
    case common::SimdTier::kSse2:
      detail::ncc_sse2(fi, fj, out, count);
      return;
    case common::SimdTier::kScalar:
      break;
  }
  k_ncc_scalar(fi, fj, out, count);
}

MaxAbsResult k_max_abs_scalar(const fft::Complex* data, std::size_t count) {
  MaxAbsResult best;
  // Compare on |z|^2 (monotone in |z|) to avoid count sqrt calls; convert
  // once at the end.
  double best_sq = -1.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double sq = data[i].real() * data[i].real() +
                      data[i].imag() * data[i].imag();
    if (sq > best_sq) {
      best_sq = sq;
      best.index = i;
    }
  }
  best.value = std::sqrt(best_sq < 0.0 ? 0.0 : best_sq);
  return best;
}

MaxAbsResult k_max_abs(const fft::Complex* data, std::size_t count) {
  switch (max_abs_tier()) {
    case common::SimdTier::kAvx2:
      return detail::max_abs_avx2(data, count);
    case common::SimdTier::kSse2:
      return detail::max_abs_sse2(data, count);
    case common::SimdTier::kScalar:
      break;
  }
  return k_max_abs_scalar(data, count);
}

MaxAbsResult k_max_abs_real_scalar(const double* data, std::size_t count) {
  MaxAbsResult best;
  double best_sq = -1.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double sq = data[i] * data[i];
    if (sq > best_sq) {
      best_sq = sq;
      best.index = i;
    }
  }
  best.value = std::sqrt(best_sq < 0.0 ? 0.0 : best_sq);
  return best;
}

MaxAbsResult k_max_abs_real(const double* data, std::size_t count) {
  switch (max_abs_tier()) {
    case common::SimdTier::kAvx2:
      return detail::max_abs_real_avx2(data, count);
    case common::SimdTier::kSse2:
      return detail::max_abs_real_sse2(data, count);
    case common::SimdTier::kScalar:
      break;
  }
  return k_max_abs_real_scalar(data, count);
}

std::vector<MaxAbsResult> k_max_abs_topk(const fft::Complex* data,
                                         std::size_t count, std::size_t k) {
  k = std::min(k, count);
  // k == 1 is the common single-peak path: the vectorized reduction's
  // semantics (first strict max) match the insertion loop's exactly.
  if (k == 1) return {k_max_abs(data, count)};
  return topk_scan(data, count, k, [](const fft::Complex& z) {
    return z.real() * z.real() + z.imag() * z.imag();
  });
}

std::vector<MaxAbsResult> k_max_abs_topk_real(const double* data,
                                              std::size_t count,
                                              std::size_t k) {
  k = std::min(k, count);
  if (k == 1) return {k_max_abs_real(data, count)};
  return topk_scan(data, count, k, [](double x) { return x * x; });
}

}  // namespace hs::vgpu
