// cuFFT-analog: FFT plans executing on virtual-GPU streams.
//
// Mirrors the paper's cuFFT usage: plans are created per tile size and
// executed on a device's streams. Every device FFT kernel — a stream
// command of its own (enqueue*) or one transform inside a command that
// groups several (execute*) — runs through one execute path in vfft.cpp
// that applies the device's FFT-kernel rule: reproducing the Fermi-era
// cuFFT register pressure restriction the paper calls out, at most one FFT
// kernel runs on a device at a time (Device::fft_mutex), unless the device
// models Kepler's concurrent FFT kernels
// (DeviceConfig::concurrent_fft_kernels).
#pragma once

#include <memory>

#include "fft/plan2d.hpp"
#include "vgpu/stream.hpp"

namespace hs::vgpu {

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

/// Device-side forward real-to-complex plan (cuFFT R2C analog). Operates on
/// a pooled buffer of spectrum_count() Complex values in the padded in-place
/// layout (see PlanR2c2d::execute_inplace_padded): real rows staged at
/// double stride 2*(w/2+1), half spectrum on completion.
class VFftPlanR2c2d {
 public:
  VFftPlanR2c2d(Device& device, std::size_t height, std::size_t width,
                fft::Rigor rigor = fft::Rigor::kEstimate);

  /// Runs the transform on the calling thread as one device FFT kernel;
  /// call it from inside a stream command.
  void execute_inplace_padded(fft::Complex* data) const;

  std::size_t height() const { return plan_->height(); }
  std::size_t width() const { return plan_->width(); }
  std::size_t spectrum_count() const { return plan_->spectrum_count(); }
  std::size_t bytes() const { return spectrum_count() * sizeof(fft::Complex); }

 private:
  Device* device_;
  std::shared_ptr<const fft::PlanR2c2d> plan_;
};

/// Device-side inverse complex-to-real plan (cuFFT C2R analog). The buffer
/// holds the half spectrum on entry and height*width packed doubles on
/// completion (see PlanC2r2d::execute_inplace_half).
class VFftPlanC2r2d {
 public:
  VFftPlanC2r2d(Device& device, std::size_t height, std::size_t width,
                fft::Rigor rigor = fft::Rigor::kEstimate);

  /// Runs the transform on the calling thread as one device FFT kernel;
  /// call it from inside a stream command.
  void execute_inplace_half(fft::Complex* data) const;

  std::size_t height() const { return plan_->height(); }
  std::size_t width() const { return plan_->width(); }
  std::size_t spectrum_count() const { return plan_->spectrum_count(); }
  std::size_t bytes() const { return spectrum_count() * sizeof(fft::Complex); }

 private:
  Device* device_;
  std::shared_ptr<const fft::PlanC2r2d> plan_;
};

}  // namespace hs::vgpu
