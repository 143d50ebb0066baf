#include "fft/plan2d.hpp"

#include <vector>

#include "common/error.hpp"
#include "fft/codelets.hpp"

namespace hs::fft {

namespace {

// The column pass every 2-D entry point shares: transpose the rows x cols
// array `in` into scratch, transform each column there as a unit-stride row,
// transpose back into `out`. `out` may be `in`.
void column_pass(const codelets::Set& cod, const Plan1d& col,
                 const Complex* in, Complex* out, std::size_t rows,
                 std::size_t cols) {
  std::vector<Complex> scratch(rows * cols);
  cod.transpose(in, scratch.data(), rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    col.execute_inplace(scratch.data() + c * rows);
  }
  cod.transpose(scratch.data(), out, cols, rows);
}

}  // namespace

void transpose(const Complex* in, Complex* out, std::size_t rows,
               std::size_t cols) {
  // Free-function form dispatches per call; plans capture their codelet set
  // once at construction instead.
  codelets::active_set().transpose(in, out, rows, cols);
}

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

common::SimdTier Plan2d::simd_tier() const { return cod_->tier; }

void Plan2d::execute(const Complex* in, Complex* out) const {
  HS_ASSERT(in != out);
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(in + r * w_, out + r * w_);
  }
  column_pass(*cod_, col_, out, out, h_, w_);
}

void Plan2d::execute_inplace(Complex* data) const {
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute_inplace(data + r * w_);
  }
  column_pass(*cod_, col_, data, data, h_, w_);
}

PlanR2c2d::PlanR2c2d(std::size_t height, std::size_t width, Rigor rigor)
    : h_(height), w_(width), row_(width, rigor),
      col_(height, Direction::kForward, rigor),
      cod_(&codelets::set_for(common::active_tier())) {
  HS_REQUIRE(height >= 1, "2-D FFT dimensions must be positive");
}

common::SimdTier PlanR2c2d::simd_tier() const { return cod_->tier; }

void PlanR2c2d::execute(const double* in, Complex* out) const {
  const std::size_t sw = spectrum_width();
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(in + r * w_, out + r * sw);
  }
  // Full complex FFT down each of the sw retained columns.
  column_pass(*cod_, col_, out, out, h_, sw);
}

void PlanR2c2d::execute_inplace_padded(Complex* data) const {
  const std::size_t sw = spectrum_width();
  // Row r's reals start at double offset r*2*sw — the same memory its half
  // spectrum occupies, so each row transform is an exact-overlap execute.
  const double* reals = reinterpret_cast<const double*>(data);
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(reals + r * 2 * sw, data + r * sw);
  }
  column_pass(*cod_, col_, data, data, h_, sw);
}

PlanC2r2d::PlanC2r2d(std::size_t height, std::size_t width, Rigor rigor)
    : h_(height), w_(width), row_(width, rigor),
      col_(height, Direction::kInverse, rigor),
      cod_(&codelets::set_for(common::active_tier())) {
  HS_REQUIRE(height >= 1, "2-D FFT dimensions must be positive");
}

common::SimdTier PlanC2r2d::simd_tier() const { return cod_->tier; }

void PlanC2r2d::execute(const Complex* in, double* out) const {
  const std::size_t sw = spectrum_width();
  // Inverse column pass first (undoing the forward order), then row c2r.
  std::vector<Complex> cols(h_ * sw);
  column_pass(*cod_, col_, in, cols.data(), h_, sw);
  for (std::size_t r = 0; r < h_; ++r) {
    row_.execute(cols.data() + r * sw, out + r * w_);
  }
}

void PlanC2r2d::execute_inplace_half(Complex* data) const {
  // execute() reads all of `in` into its column buffers before it writes
  // `out`, so the real rows can pack into the front of the same buffer.
  execute(data, reinterpret_cast<double*>(data));
}

}  // namespace hs::fft
