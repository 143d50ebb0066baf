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
  double* reals = reinterpret_cast<double*>(out);
  for (std::size_t r = 0; r < h_; ++r) {
    std::copy_n(in + r * w_, w_, reals + r * 2 * spectrum_width());
  }
  execute_inplace_padded(out);
}

void PlanR2c2d::execute_inplace_padded(Complex* data) const {
  row_.execute_rows(data, h_);
  // Full complex FFT down each of the sw retained columns.
  col_.execute_columns(data, spectrum_width());
}

PlanC2r2d::PlanC2r2d(std::size_t height, std::size_t width, Rigor rigor)
    : h_(height), w_(width), row_(width, rigor),
      col_(height, Direction::kInverse, rigor) {
  HS_REQUIRE(height >= 1, "2-D FFT dimensions must be positive");
}

void PlanC2r2d::execute(const Complex* in, double* out) const {
  std::vector<Complex> data(in, in + spectrum_count());
  execute_inplace_half(data.data());
  std::copy_n(reinterpret_cast<const double*>(data.data()), h_ * w_, out);
}

void PlanC2r2d::execute_inplace_half(Complex* data) const {
  // Inverse column pass first (undoing the forward order), then the rows
  // into packed doubles at the front of the buffer.
  col_.execute_columns(data, spectrum_width());
  row_.execute_rows(data, reinterpret_cast<double*>(data), h_);
}

}  // namespace hs::fft
