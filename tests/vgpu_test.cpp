// Virtual-GPU runtime tests: memory arena, streams/events, buffer pool,
// kernels, and vfft.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "fft/dft_ref.hpp"
#include "vgpu/buffer_pool.hpp"
#include "vgpu/device.hpp"
#include "vgpu/kernels.hpp"
#include "vgpu/stream.hpp"
#include "vgpu/vfft.hpp"

namespace hs::vgpu {
namespace {

DeviceConfig small_device(std::size_t mb = 16) {
  DeviceConfig config;
  config.memory_bytes = mb << 20;
  return config;
}

// --- Device arena ------------------------------------------------------------

TEST(Device, AllocationAccounting) {
  Device device(small_device());
  EXPECT_EQ(device.allocated(), 0u);
  DeviceBuffer a = device.alloc(1000);
  EXPECT_GE(device.allocated(), 1000u);
  EXPECT_EQ(device.allocation_count(), 1u);
  a.release();
  EXPECT_EQ(device.allocated(), 0u);
}

TEST(Device, ThrowsWhenFull) {
  Device device(small_device(1));
  DeviceBuffer a = device.alloc(900 << 10);
  EXPECT_THROW(device.alloc(900 << 10), OutOfDeviceMemory);
}

TEST(Device, FreeingMakesRoomAgain) {
  Device device(small_device(1));
  {
    DeviceBuffer a = device.alloc(900 << 10);
  }
  DeviceBuffer b = device.alloc(900 << 10);  // must succeed after free
  EXPECT_TRUE(b.valid());
}

TEST(Device, CoalescingAllowsLargeRealloc) {
  Device device(small_device(1));
  DeviceBuffer a = device.alloc(300 << 10);
  DeviceBuffer b = device.alloc(300 << 10);
  DeviceBuffer c = device.alloc(300 << 10);
  a.release();
  b.release();
  // a+b coalesce into one block big enough for 600 KiB.
  DeviceBuffer d = device.alloc(600 << 10);
  EXPECT_TRUE(d.valid());
}

TEST(Device, MoveSemanticsTransferOwnership) {
  Device device(small_device());
  DeviceBuffer a = device.alloc(128);
  void* ptr = a.data();
  DeviceBuffer b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(device.allocation_count(), 1u);
}

TEST(Device, ZeroByteAllocRejected) {
  Device device(small_device());
  EXPECT_THROW(device.alloc(0), InvalidArgument);
}

TEST(Device, ConcurrentAllocFreeIsSafe) {
  Device device(small_device(32));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        try {
          DeviceBuffer buffer = device.alloc(64 << 10);
          std::memset(buffer.data(), 0xAB, 64);
        } catch (const OutOfDeviceMemory&) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(device.allocated(), 0u);
}

// --- Streams and events --------------------------------------------------------

TEST(Stream, CommandsExecuteInOrder) {
  Device device(small_device());
  Stream stream(device, "s");
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    stream.enqueue("op", [&order, i] { order.push_back(i); });
  }
  stream.synchronize();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Stream, MemcpyRoundTrip) {
  Device device(small_device());
  Stream stream(device, "s");
  DeviceBuffer buffer = device.alloc(1024);
  std::vector<std::uint8_t> src(1024), dst(1024, 0);
  std::iota(src.begin(), src.end(), 0);
  stream.memcpy_h2d(buffer, src.data(), src.size());
  stream.memcpy_d2h(dst.data(), buffer, dst.size());
  stream.synchronize();
  EXPECT_EQ(src, dst);
}

TEST(Stream, OversizedCopyRejected) {
  Device device(small_device());
  Stream stream(device, "s");
  DeviceBuffer buffer = device.alloc(16);
  std::vector<std::uint8_t> big(32);
  EXPECT_THROW(stream.memcpy_h2d(buffer, big.data(), big.size()),
               InvalidArgument);
}

TEST(Event, SignalsAfterPriorCommands) {
  Device device(small_device());
  Stream stream(device, "s");
  std::atomic<bool> ran{false};
  stream.enqueue("slow", [&ran] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ran = true;
  });
  Event event = stream.record_event();
  event.wait();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(event.ready());
}

TEST(Event, CrossStreamOrdering) {
  Device device(small_device());
  Stream a(device, "a"), b(device, "b");
  std::atomic<int> stage{0};
  a.enqueue("first", [&stage] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stage = 1;
  });
  Event done_on_a = a.record_event();
  b.wait_event(done_on_a);
  int seen_by_b = -1;
  b.enqueue("second", [&] { seen_by_b = stage.load(); });
  b.synchronize();
  EXPECT_EQ(seen_by_b, 1);
}

TEST(Stream, DifferentStreamsOverlap) {
  Device device(small_device());
  Stream a(device, "a"), b(device, "b");
  std::atomic<bool> a_started{false}, b_observed_a{false};
  a.enqueue("block", [&] {
    a_started = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  b.enqueue("probe", [&] {
    // Runs while stream a is still inside its command.
    for (int i = 0; i < 100 && !a_started.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    b_observed_a = a_started.load();
  });
  a.synchronize();
  b.synchronize();
  EXPECT_TRUE(b_observed_a.load());
}

TEST(Stream, TracesIntoRecorderLane) {
  hs::trace::Recorder recorder;
  DeviceConfig config = small_device();
  config.recorder = &recorder;
  config.trace_prefix = "gpuX";
  Device device(config);
  {
    Stream stream(device, "copy");
    stream.enqueue("memcpy_h2d", [] {});
    stream.synchronize();
  }
  const auto lanes = recorder.lanes();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0], "gpuX.copy");
}

// --- BufferPool ----------------------------------------------------------------

TEST(BufferPool, AcquireReleaseCycles) {
  Device device(small_device());
  BufferPool pool(device, 3, 4096);
  EXPECT_EQ(pool.available(), 3u);
  {
    PooledBuffer a = pool.acquire();
    PooledBuffer b = pool.acquire();
    EXPECT_EQ(pool.available(), 1u);
  }
  EXPECT_EQ(pool.available(), 3u);
}

TEST(BufferPool, TryAcquireFailsWhenDry) {
  Device device(small_device());
  BufferPool pool(device, 1, 128);
  PooledBuffer a = pool.acquire();
  EXPECT_FALSE(pool.try_acquire().has_value());
  a.release();
  EXPECT_TRUE(pool.try_acquire().has_value());
}

TEST(BufferPool, AcquireBlocksUntilRelease) {
  Device device(small_device());
  BufferPool pool(device, 1, 128);
  PooledBuffer held = pool.acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    PooledBuffer b = pool.acquire();
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  held.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(BufferPool, PreallocationFailsWhenPoolExceedsDevice) {
  Device device(small_device(1));
  EXPECT_THROW(BufferPool(device, 64, 1 << 20), OutOfDeviceMemory);
}

// --- kernels --------------------------------------------------------------------

TEST(Kernels, U16ToComplexWidens) {
  std::vector<std::uint16_t> src = {0, 1, 65535};
  std::vector<fft::Complex> dst(3);
  k_u16_to_complex(src.data(), dst.data(), 3);
  EXPECT_EQ(dst[2], fft::Complex(65535.0, 0.0));
  EXPECT_EQ(dst[0], fft::Complex(0.0, 0.0));
}

TEST(Kernels, NccNormalizesToUnitMagnitude) {
  Rng rng(3);
  std::vector<fft::Complex> a(64), b(64), out(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = fft::Complex(rng.normal(), rng.normal());
    b[i] = fft::Complex(rng.normal(), rng.normal());
  }
  k_ncc(a.data(), b.data(), out.data(), 64);
  for (const auto& v : out) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  }
}

TEST(Kernels, NccPhaseMatchesConjugateProduct) {
  std::vector<fft::Complex> a = {{3.0, 4.0}};
  std::vector<fft::Complex> b = {{1.0, 2.0}};
  std::vector<fft::Complex> out(1);
  k_ncc(a.data(), b.data(), out.data(), 1);
  const fft::Complex expected = a[0] * std::conj(b[0]);
  EXPECT_NEAR(std::arg(out[0]), std::arg(expected), 1e-12);
}

TEST(Kernels, NccZeroInputYieldsZero) {
  std::vector<fft::Complex> a = {{0.0, 0.0}};
  std::vector<fft::Complex> out(1);
  k_ncc(a.data(), a.data(), out.data(), 1);
  EXPECT_EQ(out[0], fft::Complex(0.0, 0.0));
}

TEST(Kernels, MaxAbsFindsPeakAndIndex) {
  std::vector<fft::Complex> data(100, fft::Complex(0.1, 0.0));
  data[37] = fft::Complex(3.0, 4.0);
  const MaxAbsResult result = k_max_abs(data.data(), data.size());
  EXPECT_EQ(result.index, 37u);
  EXPECT_NEAR(result.value, 5.0, 1e-12);
}

TEST(Kernels, MaxAbsTieBreaksToLowestIndex) {
  std::vector<fft::Complex> data(10, fft::Complex(0.0, 0.0));
  data[4] = fft::Complex(2.0, 0.0);
  data[8] = fft::Complex(2.0, 0.0);
  EXPECT_EQ(k_max_abs(data.data(), data.size()).index, 4u);
}

TEST(Kernels, MaxAbsTieAcrossSimdLanes) {
  // Equal maxima on an odd index (lane 1) before an even index (lane 0):
  // the vectorized reduction must still pick the lower index, like the
  // scalar loop does.
  std::vector<fft::Complex> data(12, fft::Complex(0.0, 0.0));
  data[5] = fft::Complex(3.0, 0.0);
  data[8] = fft::Complex(3.0, 0.0);
  EXPECT_EQ(k_max_abs(data.data(), data.size()).index, 5u);
}

// --- SSE vs scalar bit-identity (paper SIV-A: hand-coded SSE kernels) --------

class SimdKernelSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdKernelSizes, NccMatchesScalarBitExactly) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 1);
  std::vector<fft::Complex> a(n), b(n), vec(n), ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = fft::Complex(rng.normal(), rng.normal());
    b[i] = fft::Complex(rng.normal(), rng.normal());
  }
  if (n > 2) b[n / 2] = a[n / 2] = fft::Complex(0.0, 0.0);  // zero guard
  k_ncc(a.data(), b.data(), vec.data(), n);
  k_ncc_scalar(a.data(), b.data(), ref.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(vec[i].real(), ref[i].real()) << i;
    ASSERT_EQ(vec[i].imag(), ref[i].imag()) << i;
  }
}

TEST_P(SimdKernelSizes, MaxAbsMatchesScalarExactly) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  Rng rng(n * 37 + 5);
  std::vector<fft::Complex> data(n);
  for (auto& v : data) v = fft::Complex(rng.normal(), rng.normal());
  const MaxAbsResult vec = k_max_abs(data.data(), n);
  const MaxAbsResult ref = k_max_abs_scalar(data.data(), n);
  EXPECT_EQ(vec.index, ref.index);
  EXPECT_EQ(vec.value, ref.value);
}

// Odd sizes exercise the scalar tail; 1 and 2 the degenerate vectors.
INSTANTIATE_TEST_SUITE_P(Sizes, SimdKernelSizes,
                         ::testing::Values(1, 2, 3, 7, 8, 63, 64, 65, 1000,
                                           1392 * 4 + 1));

// --- vfft -----------------------------------------------------------------------

TEST(Vfft, MatchesHostFft) {
  Device device(small_device());
  Stream stream(device, "fft");
  const std::size_t h = 12, w = 16;
  VFftPlan2d plan(device, h, w, fft::Direction::kForward);

  Rng rng(8);
  std::vector<fft::Complex> x(h * w);
  for (auto& v : x) v = fft::Complex(rng.next_double(), rng.next_double());

  DeviceBuffer in = device.alloc(plan.bytes());
  DeviceBuffer out = device.alloc(plan.bytes());
  stream.memcpy_h2d(in, x.data(), plan.bytes());
  plan.enqueue(stream, in, out);
  std::vector<fft::Complex> result(h * w);
  stream.memcpy_d2h(result.data(), out, plan.bytes());
  stream.synchronize();

  const auto ref = fft::dft_reference_2d(x, h, w, fft::Direction::kForward);
  for (std::size_t i = 0; i < h * w; ++i) {
    EXPECT_LT(std::abs(result[i] - ref[i]), 1e-9);
  }
}

TEST(Vfft, InplaceMatchesOutOfPlace) {
  Device device(small_device());
  Stream stream(device, "fft");
  const std::size_t h = 8, w = 20;
  VFftPlan2d plan(device, h, w, fft::Direction::kInverse);
  Rng rng(9);
  std::vector<fft::Complex> x(h * w);
  for (auto& v : x) v = fft::Complex(rng.next_double(), rng.next_double());

  DeviceBuffer a = device.alloc(plan.bytes());
  DeviceBuffer b = device.alloc(plan.bytes());
  stream.memcpy_h2d(a, x.data(), plan.bytes());
  plan.enqueue_inplace(stream, a);
  stream.memcpy_h2d(b, x.data(), plan.bytes());
  // out-of-place into a scratch buffer
  DeviceBuffer c = device.alloc(plan.bytes());
  plan.enqueue(stream, b, c);
  std::vector<fft::Complex> inplace(h * w), oop(h * w);
  stream.memcpy_d2h(inplace.data(), a, plan.bytes());
  stream.memcpy_d2h(oop.data(), c, plan.bytes());
  stream.synchronize();
  for (std::size_t i = 0; i < h * w; ++i) {
    EXPECT_EQ(inplace[i], oop[i]);
  }
}

TEST(Vfft, KernelRuleFollowsDeviceGeneration) {
  // Every device FFT runs through one execute path: on a Fermi device it
  // waits for the device's FFT mutex, on a Kepler device it does not.
  for (const bool kepler : {false, true}) {
    DeviceConfig config = small_device();
    config.concurrent_fft_kernels = kepler;
    Device device(config);
    VFftPlan2d plan(device, 8, 8, fft::Direction::kForward);
    std::vector<fft::Complex> data(plan.count());
    std::atomic<bool> done{false};
    std::unique_lock<std::mutex> held(device.fft_mutex());
    std::thread kernel([&] {
      plan.execute_inplace(data.data());
      done = true;
    });
    if (kepler) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!done && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(done.load(), kepler) << "kepler=" << kepler;
    held.unlock();
    kernel.join();
    EXPECT_TRUE(done.load());
  }
}

TEST(Vfft, RejectsUndersizedBuffer) {
  Device device(small_device());
  Stream stream(device, "fft");
  VFftPlan2d plan(device, 16, 16, fft::Direction::kForward);
  DeviceBuffer tiny = device.alloc(64);
  DeviceBuffer ok = device.alloc(plan.bytes());
  EXPECT_THROW(plan.enqueue(stream, tiny, ok), InvalidArgument);
}

TEST(Vfft, RejectsForeignStream) {
  Device device_a(small_device()), device_b(small_device());
  Stream stream_b(device_b, "s");
  VFftPlan2d plan(device_a, 8, 8, fft::Direction::kForward);
  DeviceBuffer in = device_a.alloc(plan.bytes());
  DeviceBuffer out = device_a.alloc(plan.bytes());
  EXPECT_THROW(plan.enqueue(stream_b, in, out), InvalidArgument);
}

}  // namespace
}  // namespace hs::vgpu
