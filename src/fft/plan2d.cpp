#include "fft/plan2d.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "fft/codelets.hpp"

namespace hs::fft {

Plan2d::Plan2d(std::size_t height, std::size_t width, Direction dir,
               Rigor rigor)
    : h_(height),
      w_(width),
      dir_(dir),
      row_(width, dir, rigor),
      col_(height, dir, rigor),
      cod_(&codelets::set_for(common::active_tier())) {
  HS_REQUIRE(height >= 1 && width >= 1, "2-D FFT dimensions must be positive");
}

common::SimdTier Plan2d::transpose_tier() const { return cod_->tier; }

void Plan2d::row_pass(const Complex* in, Complex* out) const {
  // kLanes rows at a time: transpose them into a w x kLanes block (in
  // cache), transform its columns with the lane kernel, transpose back. The
  // h mod kLanes leftover rows make one narrower block.
  std::vector<Complex> block(w_ * kLanes);
  for (std::size_t r = 0; r < h_; r += kLanes) {
    const std::size_t rows = std::min(kLanes, h_ - r);
    cod_->transpose(in + r * w_, block.data(), rows, w_);
    row_.execute_columns(block.data(), rows);
    cod_->transpose(block.data(), out + r * w_, w_, rows);
  }
}

void Plan2d::execute(const Complex* in, Complex* out) const {
  HS_ASSERT(in != out);
  row_pass(in, out);
  col_.execute_columns(out, w_);
}

void Plan2d::execute_inplace(Complex* data) const {
  row_pass(data, data);
  col_.execute_columns(data, w_);
}

PlanR2c2d::PlanR2c2d(std::size_t height, std::size_t width, Rigor rigor)
    : h_(height), w_(width), row_(width, rigor),
      col_(height, Direction::kForward, rigor) {
  HS_REQUIRE(height >= 1, "2-D FFT dimensions must be positive");
}

void PlanR2c2d::execute(const double* in, Complex* out) const {
  const std::size_t sw = spectrum_width();
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(in + r * w_, out + r * sw);
  }
  // Full complex FFT down each of the sw retained columns.
  col_.execute_columns(out, sw);
}

void PlanR2c2d::execute_inplace_padded(Complex* data) const {
  const std::size_t sw = spectrum_width();
  // Row r's reals start at double offset r*2*sw — the same memory its half
  // spectrum occupies, so each row transform is an exact-overlap execute.
  const double* reals = reinterpret_cast<const double*>(data);
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(reals + r * 2 * sw, data + r * sw);
  }
  col_.execute_columns(data, sw);
}

PlanC2r2d::PlanC2r2d(std::size_t height, std::size_t width, Rigor rigor)
    : h_(height), w_(width), row_(width, rigor),
      col_(height, Direction::kInverse, rigor) {
  HS_REQUIRE(height >= 1, "2-D FFT dimensions must be positive");
}

void PlanC2r2d::execute(const Complex* in, double* out) const {
  const std::size_t sw = spectrum_width();
  // Inverse column pass first (undoing the forward order) on a copy of
  // `in`, since it runs in place; then row c2r.
  std::vector<Complex> cols(in, in + h_ * sw);
  col_.execute_columns(cols.data(), sw);
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(cols.data() + r * sw, out + r * w_);
  }
}

void PlanC2r2d::execute_inplace_half(Complex* data) const {
  const std::size_t sw = spectrum_width();
  col_.execute_columns(data, sw);
  // Row c2r in row order into packed doubles at the front of the buffer.
  double* reals = reinterpret_cast<double*>(data);
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(data + r * sw, reals + r * w_);
  }
}

}  // namespace hs::fft
