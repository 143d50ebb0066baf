#include "vgpu/vfft.hpp"

#include "common/error.hpp"
#include "fft/plan_cache.hpp"

namespace hs::vgpu {

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

}  // namespace hs::vgpu
