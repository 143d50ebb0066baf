// Virtual GPU device: memory arena + stream execution contexts.
//
// This container has no CUDA hardware, so the runtime the paper builds on is
// reproduced in software with the same semantics the paper's design exploits
// (and the same ones its Simple-GPU baseline suffers under):
//   * a device owns a fixed-capacity memory arena; allocations beyond it
//     throw (the 6 GB C2070 limit that forces the buffer-pool design),
//   * streams are in-order asynchronous command queues; commands in
//     different streams execute concurrently (one worker thread per stream),
//   * events provide cross-stream and host synchronization,
//   * cuFFT's Fermi-era restriction — FFT kernels cannot execute
//     concurrently — is modeled by a device-wide FFT mutex that every device
//     FFT takes while executing, through run_fft_kernel (vfft.hpp; the
//     paper's pipeline handles this by launching one FFT at a time).
// "Device memory" is host memory, so kernels are plain functions run by
// stream workers; what is preserved is ordering, capacity, and concurrency
// structure, which is what the paper's contribution is about.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "trace/trace.hpp"

namespace hs::fault {
class FaultPlan;
}

namespace hs::pipe {
class CancelToken;
}

namespace hs::vgpu {

struct DeviceConfig {
  std::string name = "vTesla-C2070";
  /// Arena capacity. The real card had 6 GB; scaled-down experiments use
  /// smaller arenas to exercise the same out-of-memory behaviour. The arena
  /// is reserved, not zeroed: host memory is committed only for the pages
  /// that buffers touch, and a fresh allocation's contents are unspecified,
  /// as with cudaMalloc.
  std::size_t memory_bytes = 512ull << 20;
  /// Optional trace recorder; stream activity is recorded into lanes named
  /// "<trace_prefix>.<stream>".
  hs::trace::Recorder* recorder = nullptr;
  std::string trace_prefix = "gpu0";
  /// Fermi-era cuFFT cannot run FFT kernels concurrently (register
  /// pressure, paper SIV-B); Kepler GK110's Hyper-Q lifts that (paper
  /// SVI-A). false = Fermi behaviour (run_fft_kernel serializes on the
  /// device FFT mutex), true = Kepler behaviour (FFTs on different streams
  /// overlap).
  bool concurrent_fft_kernels = false;
  /// Optional fault-injection plan (tests/benches only). Null in
  /// production: the hooks then cost one pointer compare each.
  hs::fault::FaultPlan* faults = nullptr;
  /// Optional stop token for the job driving this device. An injected hang
  /// at the stream-exec site blocks until this token requests a stop (the
  /// watchdog's stall interrupt, a deadline, a cancel), which keeps hung
  /// attempts recoverable instead of wedging a stage thread forever.
  const hs::pipe::CancelToken* cancel = nullptr;
};

class Device;

/// RAII device allocation. Movable, non-copyable; frees on destruction.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&& other) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer();

  void* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

  template <typename T>
  T* as() const {
    return static_cast<T*>(data_);
  }

  void release();

 private:
  friend class Device;
  DeviceBuffer(Device* device, void* data, std::size_t size)
      : device_(device), data_(data), size_(size) {}

  Device* device_ = nullptr;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

class Device {
 public:
  explicit Device(DeviceConfig config = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Allocates from the arena; throws OutOfDeviceMemory when it cannot fit.
  /// The buffer's contents are unspecified (as with cudaMalloc): they may
  /// hold whatever an earlier buffer left there, so write before reading.
  DeviceBuffer alloc(std::size_t bytes);

  std::size_t capacity() const { return config_.memory_bytes; }
  std::size_t allocated() const;
  std::size_t allocation_count() const;

  const DeviceConfig& config() const { return config_; }
  hs::trace::Recorder* recorder() const { return config_.recorder; }

  /// Serializes FFT kernel execution (see file comment).
  std::mutex& fft_mutex() { return fft_mutex_; }

 private:
  friend class DeviceBuffer;
  void free(void* data, std::size_t size);

  struct Arena;
  DeviceConfig config_;
  std::unique_ptr<Arena> arena_;
  std::mutex fft_mutex_;
};

}  // namespace hs::vgpu
