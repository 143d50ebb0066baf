// Algorithm-level stitching tests: CCF math, peak interpretation, PCIAM on
// controlled inputs, traversal orders, and the transform cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/plan_cache.hpp"
#include "simdata/plate.hpp"
#include "stitch/ccf.hpp"
#include "stitch/pciam.hpp"
#include "stitch/transform_cache.hpp"
#include "stitch/traversal.hpp"
#include "vgpu/kernels.hpp"

namespace hs::stitch {
namespace {

img::ImageU16 random_tile(std::size_t h, std::size_t w, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageU16 out(h, w);
  for (auto& p : out.pixels()) {
    p = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  }
  return out;
}

// --- ccf ----------------------------------------------------------------------

TEST(Ccf, IdenticalTilesAtZeroShiftCorrelatePerfectly) {
  const auto tile = random_tile(16, 20, 1);
  EXPECT_NEAR(ccf(tile, tile, 0, 0), 1.0, 1e-12);
}

TEST(Ccf, PerfectOverlapAtTrueShift) {
  // Two crops of one plane; at the true displacement the overlap is
  // pixel-identical, so Pearson is exactly 1.
  const auto plane = random_tile(64, 64, 2);
  const auto a = plane.crop(0, 0, 32, 40);
  const auto b = plane.crop(5, 7, 32, 40);
  EXPECT_NEAR(ccf(a, b, 7, 5), 1.0, 1e-12);
  EXPECT_LT(ccf(a, b, 0, 0), 0.5);
}

TEST(Ccf, NegativeDisplacementsSupported) {
  const auto plane = random_tile(64, 64, 3);
  const auto a = plane.crop(10, 12, 32, 32);
  const auto b = plane.crop(4, 5, 32, 32);  // b is up-left of a
  EXPECT_NEAR(ccf(a, b, -7, -6), 1.0, 1e-12);
}

TEST(Ccf, NoOverlapReturnsRejectionSentinel) {
  const auto tile = random_tile(8, 8, 4);
  EXPECT_EQ(ccf(tile, tile, 8, 0), kCcfRejected);
  EXPECT_EQ(ccf(tile, tile, 0, -8), kCcfRejected);
}

TEST(Ccf, MinOverlapThresholdApplies) {
  const auto tile = random_tile(8, 8, 5);
  EXPECT_EQ(ccf(tile, tile, 6, 0, /*min_overlap_px=*/3), kCcfRejected);
  EXPECT_NE(ccf(tile, tile, 6, 0, /*min_overlap_px=*/2), kCcfRejected);
}

TEST(Ccf, ConstantRegionHasZeroCorrelation) {
  img::ImageU16 flat(8, 8, 1000);
  EXPECT_EQ(ccf(flat, flat, 2, 2), 0.0);
}

TEST(Ccf, AntiCorrelatedRegionsGoNegative) {
  img::ImageU16 a(4, 4), b(4, 4);
  for (std::size_t i = 0; i < 16; ++i) {
    a.data()[i] = static_cast<std::uint16_t>(i * 100);
    b.data()[i] = static_cast<std::uint16_t>(1500 - i * 100);
  }
  EXPECT_NEAR(ccf(a, b, 0, 0), -1.0, 1e-12);
}

TEST(Ccf, MismatchedShapesRejected) {
  img::ImageU16 a(4, 4), b(4, 5);
  EXPECT_THROW(ccf(a, b, 0, 0), InvalidArgument);
}

// --- peak interpretation --------------------------------------------------------

TEST(PeakInterpretations, FourSignCombinations) {
  const auto candidates = peak_interpretations(30, 3, 128, 96);
  EXPECT_EQ(candidates[0], (std::pair<std::int64_t, std::int64_t>{30, 3}));
  EXPECT_EQ(candidates[1],
            (std::pair<std::int64_t, std::int64_t>{30 - 128, 3}));
  EXPECT_EQ(candidates[2],
            (std::pair<std::int64_t, std::int64_t>{30, 3 - 96}));
  EXPECT_EQ(candidates[3],
            (std::pair<std::int64_t, std::int64_t>{30 - 128, 3 - 96}));
}

TEST(Disambiguate, PicksTrueQuadrant) {
  // Build crops with a known negative-y displacement and confirm the wrapped
  // peak resolves to it.
  const auto plane = random_tile(128, 128, 6);
  const auto a = plane.crop(40, 10, 48, 64);
  const auto b = plane.crop(33, 60, 48, 64);  // dx=+50, dy=-7
  // Peak as PCIAM would see it: (dx mod w, dy mod h) = (50, 41).
  const Translation t = disambiguate_peak(a, b, 50, 48 - 7);
  EXPECT_EQ(t.x, 50);
  EXPECT_EQ(t.y, -7);
  EXPECT_NEAR(t.correlation, 1.0, 1e-12);
}

// --- pciam ----------------------------------------------------------------------

class PciamShift : public ::testing::TestWithParam<
                       std::pair<std::int64_t, std::int64_t>> {};

TEST_P(PciamShift, RecoversPlantedDisplacement) {
  const auto [dx, dy] = GetParam();
  sim::PlateParams plate_params;
  plate_params.height = 320;
  plate_params.width = 320;
  plate_params.seed = 11;
  const auto plate = sim::generate_plate(plate_params);
  const std::size_t h = 96, w = 112;
  const std::int64_t base_y = 100, base_x = 100;
  const auto a = plate.crop(base_y, base_x, h, w);
  const auto b = plate.crop(static_cast<std::size_t>(base_y + dy),
                            static_cast<std::size_t>(base_x + dx), h, w);
  PciamScratch scratch;
  for (const bool real_fft : {false, true}) {
    const auto pipeline =
        make_fft_pipeline(h, w, fft::Rigor::kEstimate, real_fft);
    const Translation t = pciam_full(a, b, pipeline, scratch, nullptr);
    EXPECT_EQ(t.x, dx) << "real_fft=" << real_fft;
    EXPECT_EQ(t.y, dy) << "real_fft=" << real_fft;
    EXPECT_GT(t.correlation, 0.99) << "real_fft=" << real_fft;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShiftSweep, PciamShift,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{90, 2},
                      std::pair<std::int64_t, std::int64_t>{85, -5},
                      std::pair<std::int64_t, std::int64_t>{-80, 3},
                      std::pair<std::int64_t, std::int64_t>{4, 80},
                      std::pair<std::int64_t, std::int64_t>{-6, -75},
                      std::pair<std::int64_t, std::int64_t>{0, 60},
                      std::pair<std::int64_t, std::int64_t>{70, 0},
                      std::pair<std::int64_t, std::int64_t>{33, 41}));

TEST(Pciam, CountsOperations) {
  const auto a = random_tile(32, 32, 7);
  const auto b = random_tile(32, 32, 8);
  PciamScratch scratch;
  {
    // Complex mode: the pair's two real tiles share one two-for-one FFT.
    const auto pipeline =
        make_fft_pipeline(32, 32, fft::Rigor::kEstimate, false);
    OpCountsAtomic counts;
    (void)pciam_full(a, b, pipeline, scratch, &counts);
    const OpCounts ops = counts.snapshot();
    EXPECT_EQ(ops.forward_ffts, 1u);
    EXPECT_EQ(ops.transform_bins, 2u * 32 * 32);
    EXPECT_EQ(ops.ncc_multiplies, 1u);
    EXPECT_EQ(ops.inverse_ffts, 1u);
    EXPECT_EQ(ops.max_reductions, 1u);
    EXPECT_EQ(ops.ccf_evaluations, 4u);
  }
  {
    // Real mode: one half-spectrum r2c per tile.
    const auto pipeline =
        make_fft_pipeline(32, 32, fft::Rigor::kEstimate, true);
    OpCountsAtomic counts;
    (void)pciam_full(a, b, pipeline, scratch, &counts);
    const OpCounts ops = counts.snapshot();
    EXPECT_EQ(ops.forward_ffts, 2u);
    EXPECT_EQ(ops.transform_bins, 2u * 32 * (32 / 2 + 1));
    EXPECT_EQ(ops.inverse_ffts, 1u);
  }
}

// --- in-place pipeline steps vs the out-of-place plans ----------------------

// Every path transforms in place through FftPipeline. Spectra written by the
// out-of-place plans (spill frames, shared-cache entries) stay valid only if
// both forms produce the same bits, so compare bytes, not values. The odd
// widths exercise the r2c odd-length fallback.
class FftPipelineInPlace
    : public ::testing::TestWithParam<std::tuple<
          std::size_t, std::size_t, bool, common::KernelDispatch>> {};

TEST_P(FftPipelineInPlace, BitIdenticalToOutOfPlacePlans) {
  const auto [h, w, real_fft, dispatch] = GetParam();
  const common::ScopedKernelDispatch forced(dispatch);
  const FftPipeline pipeline =
      make_fft_pipeline(h, w, fft::Rigor::kEstimate, real_fft);
  const std::size_t count = h * w;
  const std::size_t bins = pipeline.spectrum_count();

  // Forward: tile_forward_spectrum vs widen + the out-of-place plan.
  auto out_of_place_spectrum = [&](const img::ImageU16& tile) {
    std::vector<fft::Complex> spectrum(bins);
    if (real_fft) {
      std::vector<double> reals(count);
      vgpu::k_u16_to_real_scalar(tile.data(), reals.data(), count);
      pipeline.r2c->execute(reals.data(), spectrum.data());
    } else {
      std::vector<fft::Complex> widened(count);
      vgpu::k_u16_to_complex_scalar(tile.data(), widened.data(), count);
      pipeline.forward->execute(widened.data(), spectrum.data());
    }
    return spectrum;
  };
  PciamScratch scratch;
  std::vector<std::vector<fft::Complex>> spectra;
  for (const std::uint64_t seed : {21, 22}) {
    const auto tile = random_tile(h, w, seed);
    spectra.emplace_back(bins);
    tile_forward_spectrum(tile, pipeline, spectra.back().data(), scratch);
    EXPECT_EQ(std::memcmp(spectra.back().data(),
                          out_of_place_spectrum(tile).data(),
                          bins * sizeof(fft::Complex)),
              0)
        << "forward, tile seed " << seed;
  }

  // Inverse: inverse_inplace vs the out-of-place plan on one NCC product.
  std::vector<fft::Complex> product(bins);
  vgpu::k_ncc(spectra[0].data(), spectra[1].data(), product.data(), bins);
  std::vector<fft::Complex> surface = product;
  pipeline.inverse_inplace(surface.data());
  if (real_fft) {
    std::vector<double> reference(count);
    pipeline.c2r->execute(product.data(), reference.data());
    EXPECT_EQ(std::memcmp(surface.data(), reference.data(),
                          count * sizeof(double)),
              0);
  } else {
    std::vector<fft::Complex> reference(count);
    pipeline.inverse->execute(product.data(), reference.data());
    EXPECT_EQ(std::memcmp(surface.data(), reference.data(),
                          count * sizeof(fft::Complex)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesModesTiers, FftPipelineInPlace,
    ::testing::Combine(::testing::Values<std::size_t>(29, 520),
                       ::testing::Values<std::size_t>(29, 87, 696),
                       ::testing::Bool(),
                       ::testing::Values(common::KernelDispatch::kScalar,
                                         common::KernelDispatch::kSse2,
                                         common::KernelDispatch::kAvx2)),
    [](const auto& param_info) {
      const auto& p = param_info.param;
      return "h" + std::to_string(std::get<0>(p)) + "_w" +
             std::to_string(std::get<1>(p)) +
             (std::get<2>(p) ? "_r2c_" : "_c2c_") +
             common::dispatch_name(std::get<3>(p));
    });

// --- golden transform bits ---------------------------------------------------

// The identity tests above compare one path with another, so a drift that
// every 2-D path shares (they all run one column pass) passes them. These
// constants pin the bits themselves: CRC32C of each 2-D entry point's output
// and of the FftPipeline sequence. Tiers agree bit for bit, so one constant
// serves every tier. A change that moves these bits must update them and
// bump fft::kTransformRevision together (DESIGN §14).
struct GoldenCrcs {
  std::size_t height;
  std::size_t width;
  bool real_fft;
  std::uint32_t forward;   // Plan2d / PlanR2c2d, out of place and in place
  std::uint32_t inverse;   // Plan2d / PlanC2r2d of that spectrum, both forms
  std::uint32_t pipeline;  // stage -> forward -> k_ncc -> inverse, peaks(3)
};

constexpr GoldenCrcs kGoldenCrcs[] = {
    {1, 87, false, 0xCA44C0B9u, 0x4412CD8Eu, 0x973D795Au},
    {1, 87, true, 0xD5D52D05u, 0xCEE9F8F8u, 0x077789A7u},
    {29, 87, false, 0x88DDFC43u, 0x35DA3DA4u, 0x809C20A6u},
    {29, 87, true, 0x5895086Fu, 0x3C942FC4u, 0xF1688064u},
    {37, 53, false, 0x9373C6A1u, 0x5DBDCA05u, 0x9130EEE5u},
    {37, 53, true, 0xB856D3DAu, 0x64EA1DC6u, 0xF8EA91D6u},
    {30, 35, false, 0x0DC2E21Bu, 0x7AB6170Bu, 0x548621C7u},
    {30, 35, true, 0xA3799F51u, 0x6A95AD5Du, 0xFF500693u},
    {260, 348, false, 0xE1ECBE43u, 0x029E00B1u, 0x5D56AF9Cu},
    {260, 348, true, 0x2250EB85u, 0x4D314800u, 0xFDC5191Eu},
    {520, 696, false, 0x40C5E66Du, 0x35690845u, 0x287D7E46u},
    {520, 696, true, 0xD87DD2C4u, 0x3C17DBD2u, 0x0608ABB4u},
};

template <typename T>
std::uint32_t crc_of(const std::vector<T>& v) {
  return crc32c(v.data(), v.size() * sizeof(T));
}

class TransformGoldenBits
    : public ::testing::TestWithParam<
          std::tuple<GoldenCrcs, common::KernelDispatch>> {};

TEST_P(TransformGoldenBits, MatchCapturedCrc32c) {
  const auto [golden, dispatch] = GetParam();
  const common::ScopedKernelDispatch forced(dispatch);
  const std::size_t h = golden.height;
  const std::size_t w = golden.width;
  const std::size_t count = h * w;
  Rng rng(1000 * h + w);

  if (golden.real_fft) {
    const fft::PlanR2c2d r2c(h, w);
    const fft::PlanC2r2d c2r(h, w);
    const std::size_t sw = r2c.spectrum_width();
    std::vector<double> reals(count);
    for (auto& v : reals) v = rng.next_double();
    std::vector<fft::Complex> spectrum(h * sw);
    r2c.execute(reals.data(), spectrum.data());
    EXPECT_EQ(crc_of(spectrum), golden.forward) << "r2c execute";
    std::vector<fft::Complex> padded(h * sw);
    auto* rows = reinterpret_cast<double*>(padded.data());
    for (std::size_t r = 0; r < h; ++r) {
      std::copy_n(reals.data() + r * w, w, rows + r * 2 * sw);
    }
    r2c.execute_inplace_padded(padded.data());
    EXPECT_EQ(crc_of(padded), golden.forward) << "r2c execute_inplace_padded";

    std::vector<double> surface(count);
    c2r.execute(spectrum.data(), surface.data());
    EXPECT_EQ(crc_of(surface), golden.inverse) << "c2r execute";
    std::vector<fft::Complex> half = spectrum;
    c2r.execute_inplace_half(half.data());
    EXPECT_EQ(crc32c(half.data(), count * sizeof(double)), golden.inverse)
        << "c2r execute_inplace_half";
  } else {
    const fft::Plan2d forward(h, w, fft::Direction::kForward);
    const fft::Plan2d inverse(h, w, fft::Direction::kInverse);
    std::vector<fft::Complex> x(count);
    for (auto& v : x) v = fft::Complex(rng.next_double(), rng.next_double());
    std::vector<fft::Complex> spectrum(count);
    forward.execute(x.data(), spectrum.data());
    EXPECT_EQ(crc_of(spectrum), golden.forward) << "forward execute";
    std::vector<fft::Complex> inplace = x;
    forward.execute_inplace(inplace.data());
    EXPECT_EQ(crc_of(inplace), golden.forward) << "forward execute_inplace";

    std::vector<fft::Complex> surface(count);
    inverse.execute(spectrum.data(), surface.data());
    EXPECT_EQ(crc_of(surface), golden.inverse) << "inverse execute";
    inplace = spectrum;
    inverse.execute_inplace(inplace.data());
    EXPECT_EQ(crc_of(inplace), golden.inverse) << "inverse execute_inplace";
  }

  const FftPipeline pipeline =
      make_fft_pipeline(h, w, fft::Rigor::kEstimate, golden.real_fft);
  const std::size_t bins = pipeline.spectrum_count();
  std::vector<fft::Complex> a(bins), b(bins), surface(bins);
  pipeline.stage(random_tile(h, w, 31), a.data());
  pipeline.forward_inplace(a.data());
  pipeline.stage(random_tile(h, w, 32), b.data());
  pipeline.forward_inplace(b.data());
  vgpu::k_ncc(a.data(), b.data(), surface.data(), bins);
  pipeline.inverse_inplace(surface.data());
  std::uint32_t crc = crc32c(
      surface.data(),
      count * (golden.real_fft ? sizeof(double) : sizeof(fft::Complex)));
  for (const vgpu::MaxAbsResult& peak : pipeline.peaks(surface.data(), 3)) {
    crc = crc32c(&peak.index, sizeof(peak.index), crc);
    crc = crc32c(&peak.value, sizeof(peak.value), crc);
  }
  EXPECT_EQ(crc, golden.pipeline) << "pipeline sequence";
}

INSTANTIATE_TEST_SUITE_P(
    ShapesModesTiers, TransformGoldenBits,
    ::testing::Combine(::testing::ValuesIn(kGoldenCrcs),
                       ::testing::Values(common::KernelDispatch::kScalar,
                                         common::KernelDispatch::kSse2,
                                         common::KernelDispatch::kAvx2)),
    [](const auto& param_info) {
      const GoldenCrcs& g = std::get<0>(param_info.param);
      return "h" + std::to_string(g.height) + "_w" + std::to_string(g.width) +
             (g.real_fft ? "_r2c_" : "_c2c_") +
             common::dispatch_name(std::get<1>(param_info.param));
    });

// --- traversal -------------------------------------------------------------------

class TraversalOrders : public ::testing::TestWithParam<Traversal> {};

TEST_P(TraversalOrders, IsAPermutationOfAllTiles) {
  const img::GridLayout layout{5, 7};
  const auto order = traversal_order(layout, GetParam());
  ASSERT_EQ(order.size(), layout.tile_count());
  std::set<std::size_t> seen;
  for (const auto pos : order) seen.insert(layout.index_of(pos));
  EXPECT_EQ(seen.size(), layout.tile_count());
}

TEST_P(TraversalOrders, SingleTileGridTrivial) {
  const img::GridLayout layout{1, 1};
  const auto order = traversal_order(layout, GetParam());
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], (img::TilePos{0, 0}));
}

TEST_P(TraversalOrders, NameRoundTripsThroughParse) {
  EXPECT_EQ(parse_traversal(traversal_name(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllOrders, TraversalOrders,
                         ::testing::ValuesIn(kAllTraversals));

TEST(Traversal, RowOrderIsRowMajor) {
  const auto order = traversal_order(img::GridLayout{2, 3}, Traversal::kRow);
  EXPECT_EQ(order[0], (img::TilePos{0, 0}));
  EXPECT_EQ(order[2], (img::TilePos{0, 2}));
  EXPECT_EQ(order[3], (img::TilePos{1, 0}));
}

TEST(Traversal, ChainedRowAlternates) {
  const auto order =
      traversal_order(img::GridLayout{2, 3}, Traversal::kRowChained);
  EXPECT_EQ(order[3], (img::TilePos{1, 2}));  // second row right-to-left
  EXPECT_EQ(order[5], (img::TilePos{1, 0}));
}

TEST(Traversal, DiagonalVisitsAntiDiagonalsInOrder) {
  const auto order =
      traversal_order(img::GridLayout{3, 3}, Traversal::kDiagonal);
  // Anti-diagonal sums must be non-decreasing.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(order[i].row + order[i].col, order[i - 1].row + order[i - 1].col);
  }
}

TEST(Traversal, WorkingSetsOrderedDiagonalSmallest) {
  const img::GridLayout wide{4, 100};
  EXPECT_LT(traversal_working_set(wide, Traversal::kDiagonalChained),
            traversal_working_set(wide, Traversal::kRow));
  EXPECT_EQ(traversal_working_set(wide, Traversal::kDiagonalChained), 5u);
  EXPECT_EQ(traversal_working_set(wide, Traversal::kRow), 101u);
  EXPECT_EQ(traversal_working_set(wide, Traversal::kColumn), 5u);
}

TEST(Traversal, UnknownNameThrows) {
  EXPECT_THROW(parse_traversal("zigzag"), InvalidArgument);
}

// --- transform cache ---------------------------------------------------------------

TEST(TransformCache, PairDegreeMatchesPosition) {
  const img::GridLayout layout{3, 3};
  EXPECT_EQ(TransformCache::pair_degree(layout, {0, 0}), 2u);
  EXPECT_EQ(TransformCache::pair_degree(layout, {0, 1}), 3u);
  EXPECT_EQ(TransformCache::pair_degree(layout, {1, 1}), 4u);
  EXPECT_EQ(TransformCache::pair_degree(img::GridLayout{1, 1}, {0, 0}), 0u);
}

TEST(TransformCache, ComputesOnceAndFreesAtZero) {
  sim::AcquisitionParams acq;
  acq.grid_rows = 2;
  acq.grid_cols = 2;
  acq.tile_height = 32;
  acq.tile_width = 32;
  const auto grid = sim::make_synthetic_grid(acq);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto pipeline = make_fft_pipeline(32, 32, fft::Rigor::kEstimate, false);
  OpCountsAtomic counts;
  // Every tile of a 2x2 grid is in two pairs.
  TransformCache cache(provider, pipeline, &counts, {2, 2, 2, 2});

  const fft::Complex* first = cache.transform({0, 0});
  const fft::Complex* second = cache.transform({0, 0});
  EXPECT_EQ(first, second);
  EXPECT_EQ(counts.snapshot().forward_ffts, 1u);
  EXPECT_EQ(cache.live_transforms(), 1u);

  // Corner tile has degree 2: two releases free it.
  cache.release({0, 0});
  EXPECT_EQ(cache.live_transforms(), 1u);
  cache.release({0, 0});
  EXPECT_EQ(cache.live_transforms(), 0u);
  EXPECT_EQ(cache.peak_live_transforms(), 1u);
}

TEST(TransformCache, TileAccessibleWhileLive) {
  sim::AcquisitionParams acq;
  acq.grid_rows = 1;
  acq.grid_cols = 2;
  acq.tile_height = 16;
  acq.tile_width = 16;
  const auto grid = sim::make_synthetic_grid(acq);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto pipeline = make_fft_pipeline(16, 16, fft::Rigor::kEstimate, false);
  TransformCache cache(provider, pipeline, nullptr, {1, 1});
  cache.transform({0, 1});
  const img::ImageU16& tile = cache.tile({0, 1});
  EXPECT_EQ(tile.at(3, 3), grid.tile({0, 1}).at(3, 3));
}

TEST(TransformCache, HalfSpectrumHalvesPeakBytes) {
  sim::AcquisitionParams acq;
  acq.grid_rows = 2;
  acq.grid_cols = 3;
  acq.tile_height = 32;
  acq.tile_width = 48;
  const auto grid = sim::make_synthetic_grid(acq);
  MemoryTileProvider provider(&grid.tiles, grid.layout);

  auto peak_bytes = [&](bool real_fft) {
    const auto pipeline =
        make_fft_pipeline(32, 48, fft::Rigor::kEstimate, real_fft);
    TransformCache cache(provider, pipeline, nullptr, {2, 3, 2, 2, 3, 2});
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 3; ++c) cache.transform({r, c});
    }
    return cache.peak_transform_bytes();
  };

  const std::size_t full = peak_bytes(false);
  const std::size_t half = peak_bytes(true);
  // Same tiles live at peak either way, so the byte ratio is exactly the
  // bin ratio w / (w/2+1) — just under 2x.
  EXPECT_EQ(full, 6u * 32 * 48 * sizeof(fft::Complex));
  EXPECT_EQ(half, 6u * 32 * (48 / 2 + 1) * sizeof(fft::Complex));
  EXPECT_GT(static_cast<double>(full) / static_cast<double>(half), 1.9);
}

}  // namespace
}  // namespace hs::stitch
