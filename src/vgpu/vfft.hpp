// cuFFT-analog: FFT plans executing on virtual-GPU streams.
//
// Mirrors the paper's cuFFT usage: plans are created per tile size and
// executed on a device's streams. Every device FFT kernel — a VFftPlan2d
// command, or one transform of the stitching pipeline inside a stream
// command — runs through run_fft_kernel, which applies the device's
// FFT-kernel rule: reproducing the Fermi-era cuFFT register pressure
// restriction the paper calls out, at most one FFT kernel runs on a device
// at a time (Device::fft_mutex), unless the device models Kepler's
// concurrent FFT kernels (DeviceConfig::concurrent_fft_kernels).
#pragma once

#include <memory>
#include <mutex>

#include "fft/plan2d.hpp"
#include "vgpu/stream.hpp"

namespace hs::vgpu {

/// Runs `kernel` as one FFT kernel on `device`: serialized against every
/// other FFT kernel on the device (Fermi), or free to overlap with FFT
/// kernels on other streams when the device models Kepler/Hyper-Q. Call it
/// from inside a stream command.
template <typename Kernel>
void run_fft_kernel(Device& device, const Kernel& kernel) {
  if (device.config().concurrent_fft_kernels) {
    kernel();
    return;
  }
  std::lock_guard<std::mutex> lock(device.fft_mutex());
  kernel();
}

class VFftPlan2d {
 public:
  /// Plans a height x width transform for `device`.
  VFftPlan2d(Device& device, std::size_t height, std::size_t width,
             fft::Direction dir, fft::Rigor rigor = fft::Rigor::kEstimate);

  /// Enqueues an out-of-place transform of `in` into `out` on `stream`.
  /// Both buffers must hold height*width Complex values and stay alive
  /// until the stream passes this command.
  void enqueue(Stream& stream, const DeviceBuffer& in, DeviceBuffer& out,
               std::string label = "fft2d") const;

  /// Enqueues an in-place transform.
  void enqueue_inplace(Stream& stream, DeviceBuffer& data,
                       std::string label = "fft2d") const;

  /// Runs an in-place transform of count() Complex values of device memory
  /// on the calling thread, as one device FFT kernel. Call it from inside a
  /// stream command (e.g. one that groups several transforms).
  void execute_inplace(fft::Complex* data) const;

  std::size_t height() const { return plan_->height(); }
  std::size_t width() const { return plan_->width(); }
  std::size_t count() const { return plan_->count(); }
  std::size_t bytes() const { return count() * sizeof(fft::Complex); }

 private:
  Device* device_;
  std::shared_ptr<const fft::Plan2d> plan_;
};

}  // namespace hs::vgpu
