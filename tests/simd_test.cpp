// Cross-tier SIMD codelet tests: the contract is that --kernel-dispatch
// changes wall-clock time and NOTHING else. Every vectorized variant (SSE2,
// AVX2) must be bit-identical to its scalar reference — same per-element
// arithmetic, same strictly-greater reductions, same lowest-index tie
// breaks — at every extent, including awkward sizes that leave scalar
// tails, unaligned surfaces, zero-magnitude inputs, and exact ties.
//
// On a scalar-only host the forced tiers clamp to scalar and every
// comparison trivially holds, so this suite passes (vacuously) everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/plan1d.hpp"
#include "fft/plan2d.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real.hpp"
#include "fft/types.hpp"
#include "fft/wisdom.hpp"
#include "metrics/wellknown.hpp"
#include "stitch/pciam.hpp"
#include "stitch/request.hpp"
#include "stitch/stitcher.hpp"
#include "testing_providers.hpp"
#include "vgpu/kernels.hpp"

namespace hs {
namespace {

using common::KernelDispatch;
using common::ScopedKernelDispatch;
using common::SimdTier;
using fft::Complex;
using fft::Direction;

// Tiers to force in the identity sweeps. Anything wider than the CPU
// supports clamps to detected_tier(), making the comparison scalar-vs-
// scalar — still a valid (if vacuous) run of the test body.
const KernelDispatch kForcedTiers[] = {
    KernelDispatch::kScalar, KernelDispatch::kSse2, KernelDispatch::kAvx2,
    KernelDispatch::kAuto};

// Awkward extents: below one vector, exactly one vector, vector + tail,
// the paper-adjacent odd sizes (29 | 1392, 1041 = 3 * 347, 1391 = 13 * 107),
// and smooth powers of two.
const std::size_t kExtents[] = {1, 2, 3, 4, 5, 7, 8, 29, 240, 256, 257, 1041,
                                1391};

std::vector<Complex> random_spectrum(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out) v = Complex(rng.normal(), rng.normal());
  return out;
}

std::vector<std::uint16_t> random_pixels(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint16_t> out(n);
  for (auto& v : out) {
    v = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  }
  return out;
}

// --- dispatch control units ----------------------------------------------

TEST(SimdDispatch, ParseRoundTripsTheVocabulary) {
  for (const auto d : kForcedTiers) {
    EXPECT_EQ(common::parse_dispatch(common::dispatch_name(d)), d);
  }
  EXPECT_EQ(common::parse_dispatch("auto"), KernelDispatch::kAuto);
  EXPECT_EQ(common::parse_dispatch("scalar"), KernelDispatch::kScalar);
  EXPECT_EQ(common::parse_dispatch("sse2"), KernelDispatch::kSse2);
  EXPECT_EQ(common::parse_dispatch("avx2"), KernelDispatch::kAvx2);
}

TEST(SimdDispatch, ParseRejectsEverythingElse) {
  for (const char* bad : {"", "AVX2", "sse", "avx512", "fastest", "0"}) {
    EXPECT_THROW(common::parse_dispatch(bad), InvalidArgument) << bad;
  }
}

TEST(SimdDispatch, ResolveClampsToDetectedCapabilities) {
  const SimdTier detected = common::detected_tier();
  EXPECT_EQ(common::resolve_dispatch(KernelDispatch::kAuto), detected);
  EXPECT_EQ(common::resolve_dispatch(KernelDispatch::kScalar),
            SimdTier::kScalar);
  // Forcing can only narrow, never widen past the CPU.
  EXPECT_LE(static_cast<int>(common::resolve_dispatch(KernelDispatch::kAvx2)),
            static_cast<int>(detected));
  EXPECT_LE(static_cast<int>(common::resolve_dispatch(KernelDispatch::kSse2)),
            static_cast<int>(detected));
}

TEST(SimdDispatch, ScopedGuardForcesAndRestores) {
  const KernelDispatch before = common::forced_tier();
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    EXPECT_EQ(common::active_tier(), SimdTier::kScalar);
  }
  EXPECT_EQ(common::forced_tier(), before);
}

TEST(SimdDispatch, GaugeTracksTheDispatchedTier) {
  // Exercise the ncc family under a forced scalar tier, then under auto;
  // the info gauge must read 1 exactly on the tier last dispatched to.
  const auto a = random_spectrum(64, 1);
  const auto b = random_spectrum(64, 2);
  std::vector<Complex> out(64);
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    vgpu::k_ncc(a.data(), b.data(), out.data(), 64);
  }
  EXPECT_EQ(metrics::wellknown::kernel_dispatch("ncc", "scalar").value(), 1);
  const char* active = nullptr;
  {
    // kAuto overrides any HS_KERNEL_DISPATCH forcing for the scope, so the
    // tier actually dispatched to is the one active INSIDE the guard.
    ScopedKernelDispatch forced(KernelDispatch::kAuto);
    vgpu::k_ncc(a.data(), b.data(), out.data(), 64);
    active = common::tier_name(common::active_tier());
  }
  EXPECT_EQ(metrics::wellknown::kernel_dispatch("ncc", active).value(), 1);
  for (const char* tier : metrics::wellknown::kSimdTiers) {
    if (std::string(tier) != active) {
      EXPECT_EQ(metrics::wellknown::kernel_dispatch("ncc", tier).value(), 0)
          << tier;
    }
  }
}

// --- kernel bit-identity --------------------------------------------------

TEST(SimdKernels, NccMatchesScalarAtEveryExtentAndTier) {
  for (const std::size_t n : kExtents) {
    auto a = random_spectrum(n, n);
    auto b = random_spectrum(n, n + 1);
    if (n >= 3) {
      a[n / 2] = Complex(0.0, 0.0);  // zero-magnitude product -> 0 branch
      b[n / 3] = Complex(0.0, 0.0);
    }
    std::vector<Complex> expect(n);
    vgpu::k_ncc_scalar(a.data(), b.data(), expect.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      std::vector<Complex> got(n, Complex(42.0, 42.0));
      vgpu::k_ncc(a.data(), b.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expect[i].real(), got[i].real())
            << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
        EXPECT_EQ(expect[i].imag(), got[i].imag())
            << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
      }
    }
  }
}

TEST(SimdKernels, NccMatchesScalarOnUnalignedSurfaces) {
  // data() + 1 shifts every pointer off 16/32-byte alignment; the variants
  // use unaligned loads/stores so results must not change.
  const std::size_t n = 1041;
  const auto a = random_spectrum(n + 1, 3);
  const auto b = random_spectrum(n + 1, 4);
  std::vector<Complex> expect(n + 1), got(n + 1);
  vgpu::k_ncc_scalar(a.data() + 1, b.data() + 1, expect.data() + 1, n);
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    vgpu::k_ncc(a.data() + 1, b.data() + 1, got.data() + 1, n);
    for (std::size_t i = 1; i <= n; ++i) {
      EXPECT_EQ(expect[i].real(), got[i].real()) << i;
      EXPECT_EQ(expect[i].imag(), got[i].imag()) << i;
    }
  }
}

TEST(SimdKernels, MaxAbsMatchesScalarIncludingTies) {
  for (const std::size_t n : kExtents) {
    auto data = random_spectrum(n, n ^ 0x5a5a);
    if (n >= 8) {
      // Exact duplicated maxima straddling different lanes and iterations:
      // the winner must be the lowest index under every tier.
      const Complex big(1e6, -1e6);
      data[1] = big;
      data[5] = big;
      data[n - 1] = big;
    }
    const auto expect = vgpu::k_max_abs_scalar(data.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      const auto got = vgpu::k_max_abs(data.data(), n);
      EXPECT_EQ(expect.value, got.value)
          << "n=" << n << " " << common::dispatch_name(tier);
      EXPECT_EQ(expect.index, got.index)
          << "n=" << n << " " << common::dispatch_name(tier);
    }
  }
}

TEST(SimdKernels, MaxAbsRealMatchesScalarIncludingTies) {
  for (const std::size_t n : kExtents) {
    Rng rng(n ^ 0xfeed);
    std::vector<double> data(n);
    for (auto& v : data) v = rng.normal();
    if (n >= 8) {
      data[2] = -7e5;  // |x| ties across sign
      data[6] = 7e5;
      data[n - 1] = 7e5;
    }
    const auto expect = vgpu::k_max_abs_real_scalar(data.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      const auto got = vgpu::k_max_abs_real(data.data(), n);
      EXPECT_EQ(expect.value, got.value)
          << "n=" << n << " " << common::dispatch_name(tier);
      EXPECT_EQ(expect.index, got.index)
          << "n=" << n << " " << common::dispatch_name(tier);
    }
  }
}

TEST(SimdKernels, TopkWithKOneMatchesMaxAbsExactly) {
  // The k == 1 fast path must keep the insertion loop's tie semantics.
  const std::size_t n = 257;
  auto data = random_spectrum(n, 9);
  data[3] = Complex(5e5, 0.0);
  data[200] = Complex(5e5, 0.0);
  Rng rng(10);
  std::vector<double> real_data(n);
  for (auto& v : real_data) v = rng.normal();
  real_data[4] = -9e5;
  real_data[99] = 9e5;
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    const auto one = vgpu::k_max_abs_topk(data.data(), n, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].value, vgpu::k_max_abs(data.data(), n).value);
    EXPECT_EQ(one[0].index, vgpu::k_max_abs(data.data(), n).index);
    const auto one_real = vgpu::k_max_abs_topk_real(real_data.data(), n, 1);
    ASSERT_EQ(one_real.size(), 1u);
    EXPECT_EQ(one_real[0].value,
              vgpu::k_max_abs_real(real_data.data(), n).value);
    EXPECT_EQ(one_real[0].index,
              vgpu::k_max_abs_real(real_data.data(), n).index);
  }
  EXPECT_TRUE(vgpu::k_max_abs_topk(data.data(), 0, 1).empty());
}

TEST(SimdKernels, PixelWideningMatchesScalarAtEveryExtentAndTier) {
  for (const std::size_t n : kExtents) {
    const auto pixels = random_pixels(n + 1, n);  // +1 for the offset runs
    std::vector<double> expect_real(n), got_real(n);
    std::vector<Complex> expect_cplx(n), got_cplx(n);
    vgpu::k_u16_to_real_scalar(pixels.data(), expect_real.data(), n);
    vgpu::k_u16_to_complex_scalar(pixels.data(), expect_cplx.data(), n);
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      vgpu::k_u16_to_real(pixels.data(), got_real.data(), n);
      vgpu::k_u16_to_complex(pixels.data(), got_cplx.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expect_real[i], got_real[i]) << "n=" << n << " i=" << i;
        EXPECT_EQ(expect_cplx[i].real(), got_cplx[i].real()) << i;
        EXPECT_EQ(expect_cplx[i].imag(), got_cplx[i].imag()) << i;
      }
      // Unaligned source: u16 loads start mid-vector.
      if (n >= 2) {
        vgpu::k_u16_to_real(pixels.data() + 1, got_real.data(), n - 1);
        for (std::size_t i = 0; i < n - 1; ++i) {
          EXPECT_EQ(static_cast<double>(pixels[i + 1]), got_real[i]);
        }
      }
    }
  }
}

TEST(SimdKernels, PaddedWideningMatchesRowByRowReference) {
  const std::size_t h = 29, w = 37;  // odd width: padded rows, scalar tails
  const auto pixels = random_pixels(h * w, 77);
  const std::size_t sw = w / 2 + 1;
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    std::vector<Complex> padded(h * sw, Complex(-1.0, -1.0));
    vgpu::k_u16_to_real_padded(pixels.data(), padded.data(), h, w);
    for (std::size_t r = 0; r < h; ++r) {
      const double* row = reinterpret_cast<const double*>(padded.data()) +
                          r * 2 * sw;
      for (std::size_t c = 0; c < w; ++c) {
        EXPECT_EQ(static_cast<double>(pixels[r * w + c]), row[c])
            << "r=" << r << " c=" << c;
      }
    }
  }
}

// --- FFT plan bit-identity ------------------------------------------------

// Plans n in both directions under every forced tier and checks each
// output bit-identical to the scalar tier's.
void expect_plan1d_identical_across_tiers(std::size_t n) {
  const auto x = random_spectrum(n, n);
  for (const auto dir : {Direction::kForward, Direction::kInverse}) {
    std::vector<Complex> expect(n);
    {
      ScopedKernelDispatch forced(KernelDispatch::kScalar);
      fft::Plan1d plan(n, dir);
      EXPECT_EQ(plan.simd_tier(), SimdTier::kScalar);
      plan.execute(x.data(), expect.data());
    }
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      fft::Plan1d plan(n, dir);
      std::vector<Complex> got(n);
      plan.execute(x.data(), got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(expect[i].real(), got[i].real())
            << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
        EXPECT_EQ(expect[i].imag(), got[i].imag())
            << "n=" << n << " i=" << i << " " << common::dispatch_name(tier);
      }
    }
  }
}

TEST(SimdFft, Plan1dBitIdenticalAcrossTiers) {
  // 87 = [29 3] runs radix 29 over m = 3 columns: one vector step plus a
  // scalar tail. 93 = [31 3] does the same for radix 31; the paper-shaped
  // lengths (260/348, 520/696, 1040/1392) put 13 and 29 outermost.
  for (const std::size_t n :
       {std::size_t{29}, std::size_t{240}, std::size_t{256}, std::size_t{1041},
        std::size_t{1391}, std::size_t{87}, std::size_t{93}, std::size_t{260},
        std::size_t{348}, std::size_t{520}, std::size_t{696},
        std::size_t{1040}, std::size_t{1392}}) {
    expect_plan1d_identical_across_tiers(n);
  }
}

TEST(SimdFft, WisdomEvenRadixPlanBitIdenticalAcrossTiers) {
  // Even composite radices reach bfr only through wisdom; they keep the
  // dense r x r product in every tier.
  fft::wisdom_clear();
  fft::wisdom_remember(240, Direction::kForward, {8, 6, 5});
  fft::wisdom_remember(240, Direction::kInverse, {8, 6, 5});
  {
    fft::Plan1d plan(240, Direction::kForward);
    EXPECT_EQ(plan.factors(), (std::vector<int>{8, 6, 5}));
  }
  expect_plan1d_identical_across_tiers(240);
  fft::wisdom_clear();
}

TEST(SimdFft, Plan2dBitIdenticalAcrossTiers) {
  const std::size_t h = 26, w = 58;  // 58 = 2 * 29: transpose + odd radix
  const auto x = random_spectrum(h * w, 123);
  std::vector<Complex> expect(h * w);
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    fft::Plan2d plan(h, w, Direction::kForward);
    plan.execute(x.data(), expect.data());
  }
  for (const auto tier : kForcedTiers) {
    ScopedKernelDispatch forced(tier);
    fft::Plan2d plan(h, w, Direction::kForward);
    std::vector<Complex> got(h * w);
    plan.execute(x.data(), got.data());
    for (std::size_t i = 0; i < h * w; ++i) {
      EXPECT_EQ(expect[i].real(), got[i].real()) << i;
      EXPECT_EQ(expect[i].imag(), got[i].imag()) << i;
    }
  }
}

TEST(SimdFft, RealTransformsBitIdenticalAcrossTiers) {
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{26, 34},
                            {29, 37},   // odd width: untangle fallback
                            {30, 58},
                            {520, 696}}) {  // perfbench's half-scale tile
    Rng rng(h * 100 + w);
    std::vector<double> x(h * w);
    for (auto& v : x) v = rng.normal();
    const std::size_t sw = w / 2 + 1;
    std::vector<Complex> expect_half(h * sw);
    std::vector<double> expect_back(h * w);
    {
      ScopedKernelDispatch forced(KernelDispatch::kScalar);
      fft::PlanR2c2d r2c(h, w);
      fft::PlanC2r2d c2r(h, w);
      r2c.execute(x.data(), expect_half.data());
      c2r.execute(expect_half.data(), expect_back.data());
    }
    for (const auto tier : kForcedTiers) {
      ScopedKernelDispatch forced(tier);
      fft::PlanR2c2d r2c(h, w);
      fft::PlanC2r2d c2r(h, w);
      std::vector<Complex> half(h * sw);
      std::vector<double> back(h * w);
      r2c.execute(x.data(), half.data());
      for (std::size_t i = 0; i < half.size(); ++i) {
        EXPECT_EQ(expect_half[i].real(), half[i].real())
            << h << "x" << w << " i=" << i;
        EXPECT_EQ(expect_half[i].imag(), half[i].imag())
            << h << "x" << w << " i=" << i;
      }
      c2r.execute(half.data(), back.data());
      for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(expect_back[i], back[i]) << h << "x" << w << " i=" << i;
      }
    }
  }
}

// --- wisdom & plan cache --------------------------------------------------

TEST(SimdWisdom, RememberedTierRoundTripsThroughTheFile) {
  fft::wisdom_clear();
  fft::wisdom_remember(240, Direction::kForward, {8, 6, 5},
                       SimdTier::kScalar);
  fft::wisdom_remember(240, Direction::kInverse, {8, 6, 5});  // unspecified
  const std::string path = "simd_wisdom_" + std::to_string(getpid()) + ".txt";
  fft::wisdom_save(path);
  fft::wisdom_clear();
  fft::wisdom_load(path);
  std::filesystem::remove(path);
  const auto fwd = fft::wisdom_lookup_entry(240, Direction::kForward);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->tier, static_cast<int>(SimdTier::kScalar));
  EXPECT_EQ(fwd->factors, (std::vector<int>{8, 6, 5}));
  const auto inv = fft::wisdom_lookup_entry(240, Direction::kInverse);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->tier, fft::kTierUnspecified);
  fft::wisdom_clear();
}

TEST(SimdWisdom, MeasuredPlanningRecordsTheWinningTier) {
  fft::wisdom_clear();
  fft::Plan1d plan(48, Direction::kForward, fft::Rigor::kMeasure);
  const auto entry = fft::wisdom_lookup_entry(48, Direction::kForward);
  ASSERT_TRUE(entry.has_value());
  ASSERT_NE(entry->tier, fft::kTierUnspecified);
  EXPECT_EQ(entry->tier, static_cast<int>(plan.simd_tier()));
  // The recorded tier can never exceed what this CPU supports.
  EXPECT_LE(entry->tier, static_cast<int>(common::detected_tier()));
  fft::wisdom_clear();
}

TEST(SimdPlanCache, ForcedTierJoinsTheCacheKey) {
  // The same geometry under different forced tiers must yield different
  // plans (a scalar-planned codelet set must not be re-executed by an auto
  // caller); repeated lookups under one tier must hit.
  auto& cache = fft::PlanCache::instance();
  cache.clear();
  std::shared_ptr<const fft::Plan2d> scalar_plan, auto_plan;
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    scalar_plan = cache.plan_2d(8, 8, Direction::kForward);
    EXPECT_EQ(cache.plan_2d(8, 8, Direction::kForward), scalar_plan);
    EXPECT_EQ(scalar_plan->fft_tier(), SimdTier::kScalar);
  }
  {
    ScopedKernelDispatch forced(KernelDispatch::kAuto);
    auto_plan = cache.plan_2d(8, 8, Direction::kForward);
    EXPECT_EQ(auto_plan->fft_tier(), common::active_tier());
  }
  if (common::detected_tier() != SimdTier::kScalar) {
    EXPECT_NE(scalar_plan, auto_plan);
  }
  cache.clear();
}

TEST(SimdPlanCache, EveryPlanNotesTheTransposeFamily) {
  // Every 2-D plan's row blocks run a transpose: Plan2d's block transpose
  // and the r2c/c2r row bodies' gathers. Building a pipeline of either kind
  // under a forced tier moves the transpose gauge to that tier.
  using metrics::wellknown::kernel_dispatch;
  auto& cache = fft::PlanCache::instance();
  cache.clear();
  const char* wide = nullptr;
  {
    ScopedKernelDispatch forced(KernelDispatch::kAuto);
    stitch::make_fft_pipeline(8, 12, fft::Rigor::kEstimate, false);
    wide = common::tier_name(common::active_tier());
  }
  EXPECT_EQ(kernel_dispatch("transpose", wide).value(), 1);
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    stitch::make_fft_pipeline(8, 12, fft::Rigor::kEstimate, true);
    EXPECT_EQ(kernel_dispatch("fft", "scalar").value(), 1);
    EXPECT_EQ(kernel_dispatch("transpose", "scalar").value(), 1);
  }
  {
    ScopedKernelDispatch forced(KernelDispatch::kAuto);
    stitch::make_fft_pipeline(8, 12, fft::Rigor::kEstimate, true);
    EXPECT_EQ(kernel_dispatch("transpose", wide).value(), 1);
  }
  cache.clear();
}

// --- option plumbing ------------------------------------------------------

TEST(SimdOptions, JobRequestLeavesProcessTierAlone) {
  // The tier is process-wide and jobs carry none: a request naming one (as
  // journals written by older builds do) must neither fail to replay nor
  // change the tier every concurrent and later job runs under.
  ScopedKernelDispatch guard(KernelDispatch::kAuto);
  const auto grid = testing::make_grid(2, 2);
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  stitch::StitchRequest request = stitch::deserialize_request(
      "backend=simple-cpu\no.kernel_dispatch=scalar\n");
  request.provider = &provider;
  (void)stitch::stitch(request);
  EXPECT_EQ(common::forced_tier(), KernelDispatch::kAuto);
}

// --- end-to-end: displacement tables are tier-invariant -------------------

class AllBackendsAllTiers
    : public ::testing::TestWithParam<std::tuple<stitch::Backend,
                                                 KernelDispatch>> {};

TEST_P(AllBackendsAllTiers, TableBitIdenticalToScalarReference) {
  const auto [backend, dispatch] = GetParam();
  const auto grid = testing::make_grid(3, 3);
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto options = testing::fast_options();

  stitch::StitchResult reference;
  {
    ScopedKernelDispatch forced(KernelDispatch::kScalar);
    reference = stitch::stitch(stitch::Backend::kSimpleCpu, provider, options);
  }
  ScopedKernelDispatch forced(dispatch);
  const auto result = stitch::stitch(backend, provider, options);
  EXPECT_TRUE(testing::tables_identical(reference.table, result.table))
      << stitch::backend_name(backend) << " under "
      << common::dispatch_name(dispatch);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByTier, AllBackendsAllTiers,
    ::testing::Combine(::testing::ValuesIn(stitch::kAllBackends),
                       ::testing::Values(KernelDispatch::kScalar,
                                         KernelDispatch::kSse2,
                                         KernelDispatch::kAvx2,
                                         KernelDispatch::kAuto)),
    [](const auto& param_info) {
      std::string name = stitch::backend_name(std::get<0>(param_info.param)) +
                         std::string("_") +
                         common::dispatch_name(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest names must be alphanumeric
      }
      return name;
    });

}  // namespace
}  // namespace hs
