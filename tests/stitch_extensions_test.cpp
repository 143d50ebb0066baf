// Tests for the SVI future-work extensions (peer-to-peer halo sharing,
// Kepler/Hyper-Q concurrent FFT issue) and the validation / table-I/O
// utilities.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "simdata/plate.hpp"
#include "stitch/stitcher.hpp"
#include "stitch/table_io.hpp"
#include "stitch/validate.hpp"

namespace hs::stitch {
namespace {

sim::SyntheticGrid make_grid(std::size_t rows, std::size_t cols,
                             std::uint64_t seed = 7) {
  sim::AcquisitionParams acq;
  acq.grid_rows = rows;
  acq.grid_cols = cols;
  acq.tile_height = 48;
  acq.tile_width = 64;
  acq.overlap_fraction = 0.25;
  acq.camera_noise_sd = 90.0;
  acq.seed = seed;
  return sim::make_synthetic_grid(acq);
}

StitchOptions gpu_options(std::size_t gpus) {
  StitchOptions options;
  options.gpu_count = gpus;
  options.ccf_threads = 2;
  options.gpu_memory_bytes = 64ull << 20;
  return options;
}

// --- peer-to-peer halo sharing -------------------------------------------------

TEST(P2p, EliminatesHaloDuplication) {
  const auto grid = make_grid(6, 4);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = gpu_options(3);
  const auto baseline = stitch(Backend::kPipelinedGpu, provider, options);
  options.use_p2p = true;
  const auto p2p = stitch(Backend::kPipelinedGpu, provider, options);
  // Without p2p: 2 halo rows re-read and re-transformed (2 * 4 tiles).
  EXPECT_EQ(baseline.ops.forward_ffts, 24u + 8u);
  EXPECT_EQ(p2p.ops.forward_ffts, 24u);
  EXPECT_EQ(p2p.ops.tile_reads, 24u);
  EXPECT_TRUE(diff_tables(baseline.table, p2p.table).identical());
}

TEST(P2p, MatchesReferenceOnEveryBandCount) {
  const auto grid = make_grid(5, 3, 21);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  // Bit-identity with the sequential reference is the invariant (truth
  // recovery on this particular content is a property of the workload, not
  // of the band count, and is covered by the backends suite).
  const auto reference = stitch(Backend::kSimpleCpu, provider, gpu_options(1));
  for (std::size_t batch : {1ul, 4ul}) {
    for (std::size_t gpus : {2ul, 4ul, 5ul}) {
      StitchOptions options = gpu_options(gpus);
      options.use_p2p = true;
      options.gpu_batch_pairs = batch;
      const auto result = stitch(Backend::kPipelinedGpu, provider, options);
      EXPECT_TRUE(diff_tables(reference.table, result.table).identical())
          << "gpus=" << gpus << " batch=" << batch;
      EXPECT_EQ(result.ops.forward_ffts, grid.layout.tile_count())
          << "gpus=" << gpus << " batch=" << batch;
    }
  }
}

TEST(P2p, SingleBandDegeneratesToBaseline) {
  // gpu_count is clamped to the row count, so a 1-row grid with 2 requested
  // GPUs runs a single band; use_p2p then has no halo to share and must
  // degenerate to the non-p2p path (requesting p2p with gpu_count == 1
  // outright is rejected by StitchRequest::validate()).
  const auto grid = make_grid(1, 6, 22);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  StitchOptions options = gpu_options(2);
  const auto baseline = stitch(Backend::kPipelinedGpu, provider, options);
  options.use_p2p = true;
  const auto result = stitch(Backend::kPipelinedGpu, provider, options);
  EXPECT_EQ(result.ops.tile_reads, 6u);
  EXPECT_TRUE(diff_tables(baseline.table, result.table).identical());
}

// --- Kepler / Hyper-Q -------------------------------------------------------------

TEST(Kepler, ConcurrentFftStreamsMatchBaseline) {
  const auto grid = make_grid(4, 4, 31);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  for (std::size_t batch : {1ul, 4ul}) {
    StitchOptions options = gpu_options(2);
    options.gpu_batch_pairs = batch;
    const auto baseline = stitch(Backend::kPipelinedGpu, provider, options);
    options.kepler_concurrent_fft = true;
    options.fft_streams = 3;
    const auto kepler = stitch(Backend::kPipelinedGpu, provider, options);
    EXPECT_TRUE(diff_tables(baseline.table, kepler.table).identical())
        << "batch=" << batch;
    EXPECT_EQ(baseline.ops.forward_ffts, kepler.ops.forward_ffts)
        << "batch=" << batch;
  }
}

TEST(Kepler, CombinesWithP2p) {
  const auto grid = make_grid(6, 3, 32);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto reference = stitch(Backend::kSimpleCpu, provider, gpu_options(1));
  for (std::size_t batch : {1ul, 4ul}) {
    StitchOptions options = gpu_options(3);
    options.kepler_concurrent_fft = true;
    options.fft_streams = 2;
    options.use_p2p = true;
    options.gpu_batch_pairs = batch;
    const auto result = stitch(Backend::kPipelinedGpu, provider, options);
    EXPECT_EQ(result.ops.forward_ffts, 18u) << "batch=" << batch;
    EXPECT_TRUE(diff_tables(reference.table, result.table).identical())
        << "batch=" << batch;
  }
}

// --- validate -----------------------------------------------------------------------

TEST(Validate, TruthTableScoresPerfect) {
  const auto grid = make_grid(3, 4, 41);
  const auto table = table_from_truth(grid, 0.95);
  const AccuracyReport report = compare_to_truth(table, grid);
  EXPECT_EQ(report.total_edges, grid.layout.pair_count());
  EXPECT_EQ(report.exact_edges, report.total_edges);
  EXPECT_EQ(report.max_abs_error_px, 0);
  EXPECT_DOUBLE_EQ(report.mean_correlation, 0.95);
  EXPECT_DOUBLE_EQ(report.exact_fraction(), 1.0);
}

TEST(Validate, PerturbationCounted) {
  const auto grid = make_grid(3, 3, 42);
  auto table = table_from_truth(grid);
  table.west_of({1, 1}).x += 1;  // within one px
  table.north_of({2, 2}).y += 7; // gross error
  const AccuracyReport report = compare_to_truth(table, grid);
  EXPECT_EQ(report.exact_edges, report.total_edges - 2);
  EXPECT_EQ(report.within_one_px, report.total_edges - 1);
  EXPECT_EQ(report.max_abs_error_px, 7);
  EXPECT_NEAR(report.mean_abs_error_px,
              8.0 / static_cast<double>(report.total_edges), 1e-12);
}

TEST(Validate, DiffFindsExactDisagreements) {
  const auto grid = make_grid(2, 3, 43);
  const auto a = table_from_truth(grid);
  auto b = a;
  EXPECT_TRUE(diff_tables(a, b).identical());
  b.west_of({0, 1}).x += 2;
  b.north_of({1, 2}).correlation = 0.1;
  const TableDiff diff = diff_tables(a, b);
  ASSERT_EQ(diff.differing.size(), 2u);
  EXPECT_TRUE(diff.differing[0].is_west);
  EXPECT_EQ(diff.differing[0].pos, (img::TilePos{0, 1}));
}

TEST(Validate, LayoutMismatchRejected) {
  const auto grid = make_grid(2, 2, 44);
  DisplacementTable other(img::GridLayout{3, 3});
  EXPECT_THROW(compare_to_truth(other, grid), InvalidArgument);
  EXPECT_THROW(diff_tables(other, table_from_truth(grid)), InvalidArgument);
}

// --- table I/O ---------------------------------------------------------------------

class TableIoTest : public ::testing::Test {
 protected:
  std::string path() const {
    return (std::filesystem::temp_directory_path() /
            ("hs_table_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".csv"))
        .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path(), ec);
  }
};

TEST_F(TableIoTest, RoundTripsExactly) {
  const auto grid = make_grid(3, 4, 51);
  MemoryTileProvider provider(&grid.tiles, grid.layout);
  const auto result = stitch(Backend::kSimpleCpu, provider);
  write_table_csv(path(), result.table);
  const DisplacementTable loaded = read_table_csv(path());
  EXPECT_TRUE(diff_tables(result.table, loaded).identical());
  EXPECT_EQ(loaded.layout.rows, 3u);
  EXPECT_EQ(loaded.layout.cols, 4u);
}

TEST_F(TableIoTest, CorrelationSurvivesBitExactly) {
  DisplacementTable table(img::GridLayout{1, 2});
  table.west_of({0, 1}) = Translation{101, -3, 0.12345678901234567};
  write_table_csv(path(), table);
  const DisplacementTable loaded = read_table_csv(path());
  EXPECT_EQ(loaded.west_of({0, 1}).correlation,
            table.west_of({0, 1}).correlation);
}

TEST_F(TableIoTest, RejectsWrongMagic) {
  std::ofstream(path()) << "definitely,not,a,table\n";
  EXPECT_THROW(read_table_csv(path()), IoError);
}

TEST_F(TableIoTest, RejectsMissingEdges) {
  const auto grid = make_grid(2, 2, 52);
  write_table_csv(path(), table_from_truth(grid));
  // Drop the crc32c footer and the last edge row (a footerless file is
  // accepted as a legacy table, so the edge-count check must catch this).
  std::ifstream in(path());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  lines.pop_back();
  lines.pop_back();
  std::ofstream out(path(), std::ios::trunc);
  for (const auto& line : lines) out << line << "\n";
  out.close();
  EXPECT_THROW(read_table_csv(path()), IoError);
}

TEST_F(TableIoTest, RejectsOutOfGridEdge) {
  const auto grid = make_grid(2, 2, 53);
  write_table_csv(path(), table_from_truth(grid));
  std::ofstream(path(), std::ios::app) << "west,9,9,1,1,0.5\n";
  EXPECT_THROW(read_table_csv(path()), IoError);
}

TEST_F(TableIoTest, RejectsMissingFile) {
  EXPECT_THROW(read_table_csv("/nonexistent/table.csv"), IoError);
}

namespace {

/// Rewrites a LF file with CRLF line endings; optionally drops the final
/// newline (as editors and scp-from-Windows round trips commonly do).
void to_crlf(const std::string& path, bool trailing_newline) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (i + 1 < lines.size() || trailing_newline) out << "\r\n";
  }
}

}  // namespace

// Regression: checkpoint tables written on (or passed through) Windows carry
// CRLF line endings; the "\r" used to stick to the last CSV field, so the
// magic line and every row failed to parse.
TEST_F(TableIoTest, ToleratesCrlfLineEndings) {
  const auto grid = make_grid(3, 4, 54);
  const DisplacementTable table = table_from_truth(grid);
  write_table_csv(path(), table);
  to_crlf(path(), true);
  const DisplacementTable loaded = read_table_csv(path());
  EXPECT_TRUE(diff_tables(table, loaded).identical());
}

TEST_F(TableIoTest, ToleratesCrlfWithoutTrailingNewline) {
  const auto grid = make_grid(2, 3, 55);
  const DisplacementTable table = table_from_truth(grid);
  write_table_csv(path(), table);
  to_crlf(path(), false);
  const DisplacementTable loaded = read_table_csv(path());
  EXPECT_TRUE(diff_tables(table, loaded).identical());
}

TEST_F(TableIoTest, MalformedCrlfRowStillRejected) {
  const auto grid = make_grid(2, 2, 56);
  write_table_csv(path(), table_from_truth(grid));
  to_crlf(path(), true);
  std::ofstream(path(), std::ios::app | std::ios::binary)
      << "west,9,9,1,1,0.5\r\n";
  EXPECT_THROW(read_table_csv(path()), IoError);
}

}  // namespace
}  // namespace hs::stitch
