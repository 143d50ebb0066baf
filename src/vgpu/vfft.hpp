// The device FFT-kernel rule, the cuFFT analog of the paper's GPU path.
//
// Every device FFT runs one transform of the stitching pipeline
// (stitch::FftPipeline) inside a stream command, through run_fft_kernel,
// which applies the device's FFT-kernel rule: reproducing the Fermi-era
// cuFFT register pressure restriction the paper calls out, at most one FFT
// kernel runs on a device at a time (Device::fft_mutex), unless the device
// models Kepler's concurrent FFT kernels
// (DeviceConfig::concurrent_fft_kernels).
#pragma once

#include <mutex>

#include "vgpu/device.hpp"

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

}  // namespace hs::vgpu
