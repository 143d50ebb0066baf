// Kernel micro-benchmarks: the per-pair operators of the PCIAM pipeline
// (paper SIV-A lists custom NCC and max-reduction kernels plus CPU CCF
// code). Sizes are the paper tile (1392x1040) and the scaled tile used by
// the real-compute harnesses.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "gbench_json.hpp"
#include "imgio/image.hpp"
#include "imgio/tiff.hpp"
#include "stitch/ccf.hpp"
#include "stitch/cli_flags.hpp"
#include "vgpu/kernels.hpp"

namespace {

using hs::fft::Complex;

std::vector<Complex> random_spectrum(std::size_t n) {
  hs::Rng rng(n ^ 0xabcd);
  std::vector<Complex> out(n);
  for (auto& v : out) v = Complex(rng.normal(), rng.normal());
  return out;
}

hs::img::ImageU16 random_tile(std::size_t h, std::size_t w) {
  hs::Rng rng(h * w);
  hs::img::ImageU16 out(h, w);
  for (auto& p : out.pixels()) {
    p = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  }
  return out;
}

void BM_NccKernelScalar(benchmark::State& state) {
  // Baseline for the paper's SIV-A claim that hand-vectorized kernels beat
  // what the compiler emits; compare with BM_NccKernel (tier dispatch) and
  // the per-tier BM_NccDispatch sweep below.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_spectrum(n);
  const auto b = random_spectrum(n + 1);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    hs::vgpu::k_ncc_scalar(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_NccKernelScalar)->Arg(1392 * 1040)->Repetitions(3);

void BM_MaxAbsReductionScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = random_spectrum(n);
  for (auto _ : state) {
    auto result = hs::vgpu::k_max_abs_scalar(data.data(), n);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MaxAbsReductionScalar)->Arg(1392 * 1040)->Repetitions(3);

void BM_NccKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_spectrum(n);
  const auto b = random_spectrum(n + 1);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    hs::vgpu::k_ncc(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16 * 2);
}
BENCHMARK(BM_NccKernel)->Arg(256 * 192)->Arg(1392 * 1040)->Repetitions(3);

void BM_MaxAbsReduction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = random_spectrum(n);
  for (auto _ : state) {
    auto result = hs::vgpu::k_max_abs(data.data(), n);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 16);
}
BENCHMARK(BM_MaxAbsReduction)->Arg(256 * 192)->Arg(1392 * 1040)->Repetitions(3);

void BM_U16ToComplex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tile = random_tile(1, n);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    hs::vgpu::k_u16_to_complex(tile.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_U16ToComplex)->Arg(256 * 192)->Arg(1392 * 1040)->Repetitions(3);

void BM_CcfFourCandidates(benchmark::State& state) {
  // One disambiguation = four overlap Pearson evaluations (paper Fig 2
  // steps 8-11) at a typical ~15% overlap.
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  const auto a = random_tile(h, w);
  const auto b = random_tile(h + 1, w);  // different content, same shape
  const auto b2 = b.crop(0, 0, h, w);
  const std::size_t peak_x = w - w / 7;
  const std::size_t peak_y = 3;
  for (auto _ : state) {
    auto t = hs::stitch::disambiguate_peak(a, b2, peak_x, peak_y);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_CcfFourCandidates)->Args({192, 256})->Args({1040, 1392})->Repetitions(3);

void BM_CcfSingleOverlap(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  const auto a = random_tile(h, w);
  const auto dx = static_cast<std::int64_t>(w - w / 7);
  for (auto _ : state) {
    const double c = hs::stitch::ccf(a, a, dx, 2);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CcfSingleOverlap)->Args({192, 256})->Args({1040, 1392})->Repetitions(3);

// --- forced-tier dispatch benches: the same kernel at the paper tile size
// under scalar / sse2 / avx2 / auto (-1), mirroring --kernel-dispatch. The
// auto-vs-scalar ratios land in BENCH_kernels.json as derived entries.

void BM_NccDispatch(benchmark::State& state) {
  const auto dispatch =
      static_cast<hs::common::KernelDispatch>(state.range(0));
  hs::common::ScopedKernelDispatch forced(dispatch);
  const std::size_t n = 1392 * 1040;
  const auto a = random_spectrum(n);
  const auto b = random_spectrum(n + 1);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    hs::vgpu::k_ncc(a.data(), b.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(
      hs::common::tier_name(hs::common::resolve_dispatch(dispatch)));
}
BENCHMARK(BM_NccDispatch)
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kScalar))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kSse2))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAvx2))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAuto))
    ->Repetitions(3);

void BM_MaxAbsDispatch(benchmark::State& state) {
  const auto dispatch =
      static_cast<hs::common::KernelDispatch>(state.range(0));
  hs::common::ScopedKernelDispatch forced(dispatch);
  const std::size_t n = 1392 * 1040;
  const auto data = random_spectrum(n);
  for (auto _ : state) {
    auto result = hs::vgpu::k_max_abs(data.data(), n);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(
      hs::common::tier_name(hs::common::resolve_dispatch(dispatch)));
}
BENCHMARK(BM_MaxAbsDispatch)
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kScalar))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kSse2))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAvx2))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAuto))
    ->Repetitions(3);

void BM_U16ToRealDispatch(benchmark::State& state) {
  const auto dispatch =
      static_cast<hs::common::KernelDispatch>(state.range(0));
  hs::common::ScopedKernelDispatch forced(dispatch);
  const std::size_t n = 1392 * 1040;
  const auto tile = random_tile(1, n);
  std::vector<double> out(n);
  for (auto _ : state) {
    hs::vgpu::k_u16_to_real(tile.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(
      hs::common::tier_name(hs::common::resolve_dispatch(dispatch)));
}
BENCHMARK(BM_U16ToRealDispatch)
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kScalar))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAuto))
    ->Repetitions(3);

// --- the read stage and the integrity checksum at the perfbench tile size
// (520x696): read_tiff_u16 over a page-cached file, and crc32c, which the
// shared cache runs over every tile's bytes (tile_content_digest). The
// CRC's auto-vs-scalar ratio falls to ~1.0 if the hardware body silently
// falls back to the table loop.

void BM_Crc32cDispatch(benchmark::State& state) {
  const auto dispatch =
      static_cast<hs::common::KernelDispatch>(state.range(0));
  hs::common::ScopedKernelDispatch forced(dispatch);
  const auto tile = random_tile(520, 696);
  const std::size_t bytes = tile.pixel_count() * sizeof(std::uint16_t);
  for (auto _ : state) {
    const std::uint32_t crc = hs::crc32c(tile.data(), bytes);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(
      hs::common::tier_name(hs::common::resolve_dispatch(dispatch)));
}
BENCHMARK(BM_Crc32cDispatch)
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kScalar))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAuto))
    ->Repetitions(3);

void BM_ReadTiffU16(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hs_bench_kernels_" + std::to_string(::getpid()) + ".tif"))
          .string();
  hs::img::write_tiff_u16(path, random_tile(h, w));
  (void)hs::img::read_tiff_u16(path);  // page-cache the file before timing
  for (auto _ : state) {
    const auto image = hs::img::read_tiff_u16(path);
    benchmark::DoNotOptimize(image.data());
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h * w * 2));
}
BENCHMARK(BM_ReadTiffU16)->Args({520, 696})->Repetitions(3);

}  // namespace

// Custom main (see bench_fft.cpp): console output plus the
// BENCH_kernels.json trajectory snapshot via --json-out.
int main(int argc, char** argv) {
  const std::string json_out =
      hs::stitch::extract_json_out_flag(&argc, argv, "BENCH_kernels.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  hs::benchjson::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const std::map<std::string, double>& rows = reporter.real_ns();
  std::map<std::string, double> derived;
  const auto ratio = [&rows, &derived](const char* key, const char* scalar,
                                       const char* autod) {
    const auto s = rows.find(scalar);
    const auto a = rows.find(autod);
    if (s != rows.end() && a != rows.end() && a->second > 0.0) {
      derived[key] = s->second / a->second;
    }
  };
  ratio("ncc_auto_over_scalar_speedup", "BM_NccDispatch/0",
        "BM_NccDispatch/-1");
  ratio("max_abs_auto_over_scalar_speedup", "BM_MaxAbsDispatch/0",
        "BM_MaxAbsDispatch/-1");
  ratio("u16_to_real_auto_over_scalar_speedup", "BM_U16ToRealDispatch/0",
        "BM_U16ToRealDispatch/-1");
  ratio("crc32c_auto_over_scalar_speedup", "BM_Crc32cDispatch/0",
        "BM_Crc32cDispatch/-1");

  if (!json_out.empty() && !rows.empty()) {
    if (!hs::benchjson::write_json(json_out, "kernels", rows, derived)) {
      std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                   json_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
