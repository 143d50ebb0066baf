#include "vgpu/vfft.hpp"

#include "common/error.hpp"
#include "fft/plan_cache.hpp"

namespace hs::vgpu {

namespace {

/// Runs `kernel` as one FFT kernel on `device`: serialized against every
/// other FFT kernel on the device (Fermi), or free to overlap with FFT
/// kernels on other streams when the device models Kepler/Hyper-Q.
template <typename Kernel>
void run_fft_kernel(Device& device, const Kernel& kernel) {
  if (device.config().concurrent_fft_kernels) {
    kernel();
    return;
  }
  std::lock_guard<std::mutex> lock(device.fft_mutex());
  kernel();
}

}  // namespace

VFftPlan2d::VFftPlan2d(Device& device, std::size_t height, std::size_t width,
                       fft::Direction dir, fft::Rigor rigor)
    : device_(&device),
      plan_(fft::PlanCache::instance().plan_2d(height, width, dir, rigor)) {}

void VFftPlan2d::enqueue(Stream& stream, const DeviceBuffer& in,
                         DeviceBuffer& out, std::string label) const {
  HS_REQUIRE(in.size() >= bytes() && out.size() >= bytes(),
             "FFT buffers smaller than the planned transform");
  HS_REQUIRE(&stream.device() == device_, "stream belongs to another device");
  const auto* src = in.as<const fft::Complex>();
  auto* dst = out.as<fft::Complex>();
  stream.enqueue(std::move(label), [self = *this, src, dst] {
    run_fft_kernel(*self.device_, [&] { self.plan_->execute(src, dst); });
  });
}

void VFftPlan2d::enqueue_inplace(Stream& stream, DeviceBuffer& data,
                                 std::string label) const {
  HS_REQUIRE(data.size() >= bytes(),
             "FFT buffer smaller than the planned transform");
  HS_REQUIRE(&stream.device() == device_, "stream belongs to another device");
  stream.enqueue(std::move(label),
                 [self = *this, ptr = data.as<fft::Complex>()] {
                   self.execute_inplace(ptr);
                 });
}

void VFftPlan2d::execute_inplace(fft::Complex* data) const {
  run_fft_kernel(*device_, [&] { plan_->execute_inplace(data); });
}

VFftPlanR2c2d::VFftPlanR2c2d(Device& device, std::size_t height,
                             std::size_t width, fft::Rigor rigor)
    : device_(&device),
      plan_(fft::PlanCache::instance().plan_r2c_2d(height, width, rigor)) {}

void VFftPlanR2c2d::execute_inplace_padded(fft::Complex* data) const {
  run_fft_kernel(*device_, [&] { plan_->execute_inplace_padded(data); });
}

VFftPlanC2r2d::VFftPlanC2r2d(Device& device, std::size_t height,
                             std::size_t width, fft::Rigor rigor)
    : device_(&device),
      plan_(fft::PlanCache::instance().plan_c2r_2d(height, width, rigor)) {}

void VFftPlanC2r2d::execute_inplace_half(fft::Complex* data) const {
  run_fft_kernel(*device_, [&] { plan_->execute_inplace_half(data); });
}

}  // namespace hs::vgpu
