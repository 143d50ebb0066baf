// FFT micro-benchmarks (paper SIV-A prose claims):
//   * planning rigor: the paper reports FFTW patient mode ~2x faster than
//     estimate mode at 1392x1040 — compare rigors at a scaled tile.
//   * awkward vs smooth sizes: 1392 = 2^4*3*29 and 1040 = 2^4*5*13 "do not
//     play well with the divide-and-conquer approach".
//   * 2-D transforms at the scaled working size used by the real-compute
//     benches elsewhere in this suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/plan1d.hpp"
#include "fft/plan2d.hpp"
#include "fft/real.hpp"
#include "gbench_json.hpp"
#include "stitch/cli_flags.hpp"

namespace {

using hs::fft::Complex;
using hs::fft::Direction;
using hs::fft::Plan1d;
using hs::fft::Plan2d;
using hs::fft::PlanR2c2d;
using hs::fft::Rigor;

std::vector<Complex> random_signal(std::size_t n) {
  hs::Rng rng(n);
  std::vector<Complex> out(n);
  for (auto& v : out) v = Complex(rng.next_double(), rng.next_double());
  return out;
}

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_signal(n);
  Plan1d plan(n, Direction::kForward);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    plan.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(plan.uses_bluestein() ? "bluestein" : "mixed-radix");
}
// 1040 and 1392: the paper's exact tile dimensions. 1024: the nearby power
// of two. 1050/1400: their 7-smooth padding targets. 1021: prime.
BENCHMARK(BM_Fft1d)->Arg(1024)->Arg(1040)->Arg(1050)->Arg(1392)->Arg(1400)
    ->Arg(1021)->Repetitions(3);

void BM_Fft1dRigor(benchmark::State& state) {
  const std::size_t n = 1392;
  const auto rigor = static_cast<Rigor>(state.range(0));
  const auto x = random_signal(n);
  Plan1d plan(n, Direction::kForward, rigor);
  std::vector<Complex> out(n);
  for (auto _ : state) {
    plan.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(rigor == Rigor::kEstimate ? "estimate"
                 : rigor == Rigor::kMeasure ? "measure"
                                            : "patient");
}
BENCHMARK(BM_Fft1dRigor)
    ->Arg(static_cast<int>(Rigor::kEstimate))
    ->Arg(static_cast<int>(Rigor::kMeasure))
    ->Arg(static_cast<int>(Rigor::kPatient))->Repetitions(3);

void BM_Fft2d(benchmark::State& state) {
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  const auto x = random_signal(h * w);
  Plan2d plan(h, w, Direction::kForward);
  std::vector<Complex> out(h * w);
  for (auto _ : state) {
    plan.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h * w));
}
// 260x348 is the paper tile at 1/4 scale per side (same prime structure:
// 348 = 2^2*3*29, 260 = 2^2*5*13); 520x696 the half-scale tile perfbench
// stitches; 256x256 the smooth reference; 270x350 the padded target.
BENCHMARK(BM_Fft2d)
    ->Args({256, 256})
    ->Args({260, 348})
    ->Args({520, 696})
    ->Args({270, 350})->Repetitions(3);

void BM_Fft2dRealToComplex(benchmark::State& state) {
  // The paper's future-work optimization: real-to-complex transforms "do
  // less work" — compare against BM_Fft2d at the same size.
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  hs::Rng rng(h * w);
  std::vector<double> x(h * w);
  for (auto& v : x) v = rng.next_double();
  PlanR2c2d plan(h, w);
  std::vector<Complex> out(h * plan.spectrum_width());
  for (auto _ : state) {
    plan.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Fft2dRealToComplex)
    ->Args({256, 256})
    ->Args({260, 348})
    ->Args({520, 696})->Repetitions(3);

void BM_Fft2dComplexToReal(benchmark::State& state) {
  // Inverse leg of the half-spectrum pipeline: Hermitian bins back to a
  // real correlation surface.
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  hs::Rng rng(h * w);
  std::vector<double> x(h * w);
  for (auto& v : x) v = rng.next_double();
  hs::fft::PlanR2c2d r2c(h, w);
  hs::fft::PlanC2r2d c2r(h, w);
  std::vector<Complex> half(h * r2c.spectrum_width());
  r2c.execute(x.data(), half.data());
  std::vector<double> back(h * w);
  for (auto _ : state) {
    c2r.execute(half.data(), back.data());
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_Fft2dComplexToReal)->Args({256, 256})->Args({260, 348})->Repetitions(3);

void BM_Fft2dInPlace(benchmark::State& state) {
  // The in-place entry points every executor runs through FftPipeline:
  // kind 0 = Plan2d::execute_inplace (complex), 1 =
  // PlanR2c2d::execute_inplace_padded, 2 = PlanC2r2d::execute_inplace_half.
  // Each call overwrites its input, so the input is restored with timing
  // paused before every call.
  const auto kind = state.range(0);
  const auto h = static_cast<std::size_t>(state.range(1));
  const auto w = static_cast<std::size_t>(state.range(2));
  const Plan2d c2c(h, w, Direction::kForward);
  const PlanR2c2d r2c(h, w);
  const hs::fft::PlanC2r2d c2r(h, w);
  std::vector<Complex> input;
  if (kind == 0) {
    input = random_signal(h * w);
  } else {
    // Padded r2c layout: row r's w reals start at double offset r * 2 * sw.
    const std::size_t sw = r2c.spectrum_width();
    input.assign(h * sw, Complex(0.0, 0.0));
    auto* rows = reinterpret_cast<double*>(input.data());
    hs::Rng rng(h * w);
    for (std::size_t r = 0; r < h; ++r) {
      for (std::size_t c = 0; c < w; ++c) {
        rows[r * 2 * sw + c] = rng.next_double();
      }
    }
    // The c2r leg inverts a real signal's half spectrum.
    if (kind == 2) r2c.execute_inplace_padded(input.data());
  }
  std::vector<Complex> data(input.size());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(input.begin(), input.end(), data.begin());
    state.ResumeTiming();
    if (kind == 0) {
      c2c.execute_inplace(data.data());
    } else if (kind == 1) {
      r2c.execute_inplace_padded(data.data());
    } else {
      c2r.execute_inplace_half(data.data());
    }
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(kind == 0 ? "c2c" : kind == 1 ? "r2c_padded" : "c2r_half");
}
BENCHMARK(BM_Fft2dInPlace)
    ->ArgsProduct({{0, 1, 2}, {260}, {348}})
    ->ArgsProduct({{0, 1, 2}, {520}, {696}})
    ->Repetitions(3);

void BM_Fft2dTwoForOne(benchmark::State& state) {
  // Both tiles of a pair through one complex transform (the NaivePairwise
  // complex-mode path); compare against 2x BM_Fft2d.
  const auto h = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  hs::Rng rng(h + w + 1);
  std::vector<double> a(h * w), b(h * w);
  for (auto& v : a) v = rng.next_double();
  for (auto& v : b) v = rng.next_double();
  Plan2d plan(h, w, Direction::kForward);
  std::vector<Complex> sa(h * w), sb(h * w);
  for (auto _ : state) {
    hs::fft::fft_two_reals_2d(plan, a.data(), b.data(), sa.data(), sb.data());
    benchmark::DoNotOptimize(sa.data());
    benchmark::DoNotOptimize(sb.data());
  }
}
BENCHMARK(BM_Fft2dTwoForOne)->Args({256, 256})->Args({260, 348})->Repetitions(3);

void BM_Fft2dDispatch(benchmark::State& state) {
  // The same 2-D forward transform under a forced codelet tier (-1 = auto,
  // the widest the CPU supports). The plan is built inside the forced scope
  // so the tier applies at plan time, exactly like --kernel-dispatch. The
  // scalar-vs-auto ratio is the tentpole gate checked in main() below.
  const auto dispatch =
      static_cast<hs::common::KernelDispatch>(state.range(0));
  hs::common::ScopedKernelDispatch forced(dispatch);
  const std::size_t h = 260, w = 348;
  const auto x = random_signal(h * w);
  Plan2d plan(h, w, Direction::kForward);
  std::vector<Complex> out(h * w);
  for (auto _ : state) {
    plan.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(
      hs::common::tier_name(hs::common::resolve_dispatch(dispatch)));
}
BENCHMARK(BM_Fft2dDispatch)
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kScalar))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kSse2))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAvx2))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAuto))
    ->Repetitions(3);

void BM_Fft2dRealToComplexDispatch(benchmark::State& state) {
  // The r2c half-spectrum forward path under a forced tier: exercises the
  // even/odd untangle codelets on top of the butterfly/transpose ones.
  const auto dispatch =
      static_cast<hs::common::KernelDispatch>(state.range(0));
  hs::common::ScopedKernelDispatch forced(dispatch);
  const std::size_t h = 260, w = 348;
  hs::Rng rng(h * w);
  std::vector<double> x(h * w);
  for (auto& v : x) v = rng.next_double();
  PlanR2c2d plan(h, w);
  std::vector<Complex> out(h * plan.spectrum_width());
  for (auto _ : state) {
    plan.execute(x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(
      hs::common::tier_name(hs::common::resolve_dispatch(dispatch)));
}
BENCHMARK(BM_Fft2dRealToComplexDispatch)
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kScalar))
    ->Arg(static_cast<int>(hs::common::KernelDispatch::kAuto))
    ->Repetitions(3);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): collects per-benchmark real
// times, writes the BENCH_fft.json trajectory snapshot (--json-out), and
// enforces the dispatch speedup budget so scripts/check.sh fails loudly if
// the SIMD codelets stop paying for themselves.
int main(int argc, char** argv) {
  const std::string json_out =
      hs::stitch::extract_json_out_flag(&argc, argv, "BENCH_fft.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  hs::benchjson::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const std::map<std::string, double>& rows = reporter.real_ns();
  std::map<std::string, double> derived;
  const auto scalar = rows.find("BM_Fft2dDispatch/0");
  const auto autod = rows.find("BM_Fft2dDispatch/-1");
  if (scalar != rows.end() && autod != rows.end() && autod->second > 0.0) {
    derived["fft2d_auto_over_scalar_speedup"] =
        scalar->second / autod->second;
  }
  const auto r2c_scalar = rows.find("BM_Fft2dRealToComplexDispatch/0");
  const auto r2c_auto = rows.find("BM_Fft2dRealToComplexDispatch/-1");
  if (r2c_scalar != rows.end() && r2c_auto != rows.end() &&
      r2c_auto->second > 0.0) {
    derived["fft2d_r2c_auto_over_scalar_speedup"] =
        r2c_scalar->second / r2c_auto->second;
  }

  if (!json_out.empty() && !rows.empty()) {
    if (!hs::benchjson::write_json(json_out, "fft", rows, derived)) {
      std::fprintf(stderr, "bench_fft: cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }

  // Tentpole budget: runtime dispatch must win >= 1.3x over the scalar
  // codelets on the default-extent 2-D forward transform. Skipped when the
  // CPU (or HS_KERNEL_DISPATCH) pins dispatch to scalar — there is nothing
  // to win then.
  const auto speedup = derived.find("fft2d_auto_over_scalar_speedup");
  if (speedup != derived.end() &&
      hs::common::active_tier() != hs::common::SimdTier::kScalar) {
    std::printf("fft2d dispatch speedup (auto vs scalar): %.2fx (budget >= 1.30x)\n",
                speedup->second);
    if (speedup->second < 1.3) {
      std::fprintf(stderr,
                   "bench_fft: FAIL — dispatch speedup %.2fx below the 1.30x "
                   "budget\n",
                   speedup->second);
      return 1;
    }
  }
  return 0;
}
