// Integration tests across all six stitching backends: ground-truth
// recovery, cross-backend bit-identity, Table I operation counts, traversal
// independence, disk-dataset round trips, and configuration validation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

#include "simdata/plate.hpp"
#include "stitch/request.hpp"
#include "stitch/stitcher.hpp"
#include "testing_providers.hpp"
#include "trace/trace.hpp"

namespace hs::stitch {
namespace {

using hs::testing::fast_options;
using hs::testing::make_grid;
using hs::testing::tables_identical;
using hs::testing::truth_accuracy;

// --- parameterized over backends ----------------------------------------------

class AllBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(AllBackends, RecoversGroundTruthExactly) {
  const auto grid = make_grid(3, 4);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult result = stitch(GetParam(), provider, fast_options());
  EXPECT_EQ(truth_accuracy(grid, result.table), 1.0)
      << backend_name(GetParam());
}

TEST_P(AllBackends, MatchesReferenceBackendBitExactly) {
  const auto grid = make_grid(4, 3, 13);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult reference =
      stitch(Backend::kSimpleCpu, provider, fast_options());
  const StitchResult result = stitch(GetParam(), provider, fast_options());
  EXPECT_TRUE(tables_identical(reference.table, result.table))
      << backend_name(GetParam());
}

TEST_P(AllBackends, HandlesSingleTileGrid) {
  const auto grid = make_grid(1, 1);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult result = stitch(GetParam(), provider, fast_options());
  EXPECT_EQ(result.table.layout.tile_count(), 1u);
}

TEST_P(AllBackends, HandlesSingleRowGrid) {
  const auto grid = make_grid(1, 5);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult result = stitch(GetParam(), provider, fast_options());
  EXPECT_EQ(truth_accuracy(grid, result.table), 1.0);
}

TEST_P(AllBackends, HandlesSingleColumnGrid) {
  const auto grid = make_grid(5, 1);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult result = stitch(GetParam(), provider, fast_options());
  EXPECT_EQ(truth_accuracy(grid, result.table), 1.0);
}

TEST_P(AllBackends, OperationCountsMatchTableOne) {
  // Table I: n*m reads & forward transforms (cached backends), 2nm-n-m of
  // each pair operation.
  const std::size_t rows = 3, cols = 4;
  const auto grid = make_grid(rows, cols);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const StitchResult result = stitch(GetParam(), provider, fast_options());
  const std::uint64_t tiles = rows * cols;
  const std::uint64_t pairs = 2 * rows * cols - rows - cols;
  EXPECT_EQ(result.ops.ncc_multiplies, pairs);
  EXPECT_EQ(result.ops.inverse_ffts, pairs);
  EXPECT_EQ(result.ops.max_reductions, pairs);
  EXPECT_EQ(result.ops.ccf_evaluations, 4 * pairs);
  if (GetParam() == Backend::kNaivePairwise) {
    // The no-cache baseline re-reads both tiles per pair. In complex mode
    // the two-for-one trick folds the pair's two forward transforms into
    // one; the half-spectrum path keeps one r2c transform per tile.
    const std::uint64_t per_pair_ffts =
        fast_options().use_real_fft ? 2u : 1u;
    EXPECT_EQ(result.ops.forward_ffts, per_pair_ffts * pairs);
    EXPECT_EQ(result.ops.tile_reads, 2 * pairs);
  } else if (GetParam() == Backend::kPipelinedGpu) {
    // Row-band partitioning re-reads halo rows; never more than one extra
    // row per additional GPU.
    EXPECT_GE(result.ops.forward_ffts, tiles);
    EXPECT_LE(result.ops.forward_ffts, tiles + 2 * cols);
    EXPECT_EQ(result.ops.forward_ffts, result.ops.tile_reads);
  } else {
    EXPECT_EQ(result.ops.forward_ffts, tiles);
    EXPECT_EQ(result.ops.tile_reads, tiles);
  }
}

TEST_P(AllBackends, WorksFromOnDiskDataset) {
  const auto grid = make_grid(2, 3, 21);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("hs_backend_ds_" + std::to_string(::getpid()) + "_" +
        backend_name(GetParam())))
          .string();
  const auto dataset = sim::write_dataset(grid, dir, "t_r{r}_c{c}.tif");
  DatasetTileProvider provider(dataset);
  const StitchResult result = stitch(GetParam(), provider, fast_options());
  EXPECT_EQ(truth_accuracy(grid, result.table), 1.0);
  std::filesystem::remove_all(dir);
}

TEST_P(AllBackends, BackendNameRoundTrips) {
  EXPECT_EQ(parse_backend(backend_name(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, AllBackends,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           std::string name = backend_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- half-spectrum (r2c) path ---------------------------------------------------

TEST_P(AllBackends, RealFftTableIdenticalToComplexPath) {
  // The half-spectrum pipeline changes the transform representation but not
  // the answer: the final Translation comes from spatial-domain CCFs, so
  // the displacement tables must match the complex path exactly.
  const auto grid = make_grid(3, 4, 13);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.use_real_fft = false;
  const StitchResult reference = stitch(GetParam(), provider, options);
  options.use_real_fft = true;
  const StitchResult result = stitch(GetParam(), provider, options);
  EXPECT_TRUE(tables_identical(reference.table, result.table))
      << backend_name(GetParam());
  EXPECT_EQ(truth_accuracy(grid, result.table), 1.0)
      << backend_name(GetParam());
}

TEST(RealFft, PredictedPoolBytesDropRoughlyInHalf) {
  // Transforms dominate every backend's pool; halving their bins should
  // show up as close to a 2x drop in the admission charge (the u16 tile
  // buffers and bookkeeping keep it slightly under w / (w/2+1)).
  const auto grid = make_grid(3, 4);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  for (const Backend backend : kAllBackends) {
    StitchRequest req;
    req.backend = backend;
    req.provider = &provider;
    req.options = fast_options();
    req.options.use_real_fft = false;
    const double full = static_cast<double>(req.predicted_pool_bytes());
    req.options.use_real_fft = true;
    const double half = static_cast<double>(req.predicted_pool_bytes());
    const double ratio = full / half;
    EXPECT_GT(ratio, 1.5) << backend_name(backend);
    EXPECT_LT(ratio, 2.2) << backend_name(backend);
  }
}

// --- traversal invariance -------------------------------------------------------

class SimpleCpuTraversals : public ::testing::TestWithParam<Traversal> {};

TEST_P(SimpleCpuTraversals, ResultIndependentOfTraversal) {
  const auto grid = make_grid(3, 3, 31);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  const StitchResult reference = stitch(Backend::kSimpleCpu, provider, options);
  options.traversal = GetParam();
  const StitchResult result = stitch(Backend::kSimpleCpu, provider, options);
  EXPECT_TRUE(tables_identical(reference.table, result.table));
}

INSTANTIATE_TEST_SUITE_P(AllTraversals, SimpleCpuTraversals,
                         ::testing::ValuesIn(kAllTraversals));

TEST(TraversalMemory, DiagonalKeepsFewerTransformsLiveThanRow) {
  // The paper's rationale for the chained-diagonal default: earlier
  // recycling. On a wide grid the row orders must keep a whole row alive.
  const auto grid = make_grid(3, 8, 41);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.traversal = Traversal::kRow;
  const auto row = stitch(Backend::kSimpleCpu, provider, options);
  options.traversal = Traversal::kDiagonalChained;
  const auto diag = stitch(Backend::kSimpleCpu, provider, options);
  EXPECT_LT(diag.peak_live_transforms, row.peak_live_transforms);
  EXPECT_LE(diag.peak_live_transforms, 3u + 2u);
}

// --- GPU-specific behaviour -------------------------------------------------------

TEST(PipelinedGpu, MultiGpuMatchesSingleGpu) {
  const auto grid = make_grid(4, 4, 51);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  for (std::size_t batch : {1ul, 4ul}) {
    StitchOptions options = fast_options();
    options.gpu_batch_pairs = batch;
    options.gpu_count = 1;
    const auto one = stitch(Backend::kPipelinedGpu, provider, options);
    options.gpu_count = 3;
    const auto three = stitch(Backend::kPipelinedGpu, provider, options);
    EXPECT_TRUE(tables_identical(one.table, three.table)) << "batch=" << batch;
  }
}

TEST(PipelinedGpu, GpuCountClampedToRows) {
  const auto grid = make_grid(2, 3, 52);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.gpu_count = 16;  // more GPUs than rows
  const auto result = stitch(Backend::kPipelinedGpu, provider, options);
  EXPECT_EQ(truth_accuracy(grid, result.table), 1.0);
}

TEST(PipelinedGpu, TooSmallDeviceMemoryThrows) {
  const auto grid = make_grid(2, 2, 53);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.gpu_memory_bytes = 1 << 16;  // cannot hold even one transform pool
  EXPECT_THROW(stitch(Backend::kPipelinedGpu, provider, options),
               OutOfDeviceMemory);
}

TEST(PipelinedGpu, TooSmallPoolRejected) {
  const auto grid = make_grid(4, 4, 54);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.pool_buffers = 2;  // below the traversal working set
  EXPECT_THROW(stitch(Backend::kPipelinedGpu, provider, options),
               InvalidArgument);
}

TEST(PipelinedGpu, RecordsKernelTraceLanes) {
  const auto grid = make_grid(2, 3, 55);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  hs::trace::Recorder recorder;
  StitchOptions options = fast_options();
  options.gpu_count = 1;
  options.recorder = &recorder;
  (void)stitch(Backend::kPipelinedGpu, provider, options);
  const auto lanes = recorder.lanes();
  const auto has_lane = [&](const std::string& name) {
    return std::find(lanes.begin(), lanes.end(), name) != lanes.end();
  };
  EXPECT_TRUE(has_lane("gpu0.copy"));
  EXPECT_TRUE(has_lane("gpu0.fft"));
  EXPECT_TRUE(has_lane("gpu0.disp"));
}

TEST(SimpleGpu, SingleStreamLaneOnly) {
  const auto grid = make_grid(2, 2, 56);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  hs::trace::Recorder recorder;
  StitchOptions options = fast_options();
  options.recorder = &recorder;
  (void)stitch(Backend::kSimpleGpu, provider, options);
  const auto lanes = recorder.lanes();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0], "gpu0.default");
  // The paper's Fig 7 command stream, all on the one default stream: per
  // tile an H2D copy and a forward FFT, per pair ncc -> inverse FFT ->
  // max_reduce -> D2H of the peaks (2x2 grid: 4 tiles, 4 pairs).
  const bool real = options.use_real_fft;
  const std::map<std::string, std::size_t> expected = {
      {"gpu0.default:memcpy_h2d", 4},
      {real ? "gpu0.default:fft2d_r2c" : "gpu0.default:fft2d", 4},
      {"gpu0.default:ncc", 4},
      {real ? "gpu0.default:ifft2d_c2r" : "gpu0.default:ifft2d", 4},
      {"gpu0.default:max_reduce", 4},
      {"gpu0.default:memcpy_d2h", 4}};
  EXPECT_EQ(hs::testing::span_label_counts(recorder, "gpu0."), expected);
}

// --- determinism -------------------------------------------------------------------

TEST(Determinism, RepeatRunsIdenticalAcrossThreadCounts) {
  const auto grid = make_grid(3, 3, 61);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = fast_options();
  options.threads = 1;
  const auto a = stitch(Backend::kPipelinedCpu, provider, options);
  options.threads = 7;
  const auto b = stitch(Backend::kPipelinedCpu, provider, options);
  EXPECT_TRUE(tables_identical(a.table, b.table));
}

TEST(Correlations, AllEdgesStronglyCorrelatedOnFeatureRichData) {
  const auto grid = make_grid(3, 3, 62);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto result = stitch(Backend::kSimpleCpu, provider, fast_options());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (c > 0) EXPECT_GT(result.table.west_of({r, c}).correlation, 0.5);
      if (r > 0) EXPECT_GT(result.table.north_of({r, c}).correlation, 0.5);
    }
  }
}

TEST(FeatureSparse, LowDensityPlatesStillStitch) {
  // The paper's motivating hard case: early-phase plates with few colonies.
  // Phase correlation still locks onto specimen microstructure.
  sim::AcquisitionParams acq;
  acq.grid_rows = 2;
  acq.grid_cols = 3;
  acq.tile_height = 48;
  acq.tile_width = 64;
  acq.overlap_fraction = 0.25;
  acq.camera_noise_sd = 60.0;
  sim::PlateParams plate;
  plate.feature_density = 0.0;  // zero colonies
  const auto grid = sim::make_synthetic_grid(acq, plate);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto result = stitch(Backend::kSimpleCpu, provider, fast_options());
  EXPECT_EQ(truth_accuracy(grid, result.table), 1.0);
}

}  // namespace
}  // namespace hs::stitch
