// Crash-safety suite: write-ahead journal framing and replay, torn-tail
// truncation, rotation-as-compaction, checkpoint integrity (CRC footer +
// quarantine sidecar), and full StitchService startup recovery — including
// a deterministic crash-torture harness that cuts the journal at every
// frame boundary (and inside frames) and proves recovery resubmits exactly
// the accepted-but-unfinished jobs with bit-identical results.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "fault/plan.hpp"
#include "fault/provider.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "stitch/request.hpp"
#include "stitch/spectrum_store.hpp"
#include "stitch/table_io.hpp"
#include "file_size_limit.hpp"
#include "testing_providers.hpp"

using namespace hs;
using testing_grid = sim::SyntheticGrid;
namespace fs = std::filesystem;
using hs::testing::fast_options;
using hs::testing::FileSizeLimit;
using hs::testing::small_grid;
using hs::testing::tables_identical;

namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::trunc | std::ios::binary);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(file.good()) << path;
}

/// Journal segments in `dir`, sorted by index.
std::vector<std::string> wal_segments(const std::string& dir) {
  std::vector<std::string> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name.size() == 14) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t le32(const std::string& bytes, std::size_t at) {
  const auto* b = reinterpret_cast<const unsigned char*>(bytes.data() + at);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

constexpr std::uint32_t kWalMagic = 0x4C4A5348u;  // "HSJL" little-endian
constexpr std::size_t kFrameHeader = 12;

/// One framed journal record as it sits in a segment file.
struct Frame {
  std::size_t offset = 0;
  std::size_t size = 0;  // header + payload
  std::string payload;
};

/// Parses a well-formed segment into frames; fails the test on any framing
/// error — the input is always a journal this process just wrote.
std::vector<Frame> parse_frames(const std::string& bytes) {
  std::vector<Frame> frames;
  std::size_t offset = 0;
  while (offset + kFrameHeader <= bytes.size()) {
    EXPECT_EQ(le32(bytes, offset), kWalMagic) << "bad magic at " << offset;
    const std::uint32_t length = le32(bytes, offset + 4);
    EXPECT_LE(offset + kFrameHeader + length, bytes.size());
    Frame frame;
    frame.offset = offset;
    frame.size = kFrameHeader + length;
    frame.payload = bytes.substr(offset + kFrameHeader, length);
    EXPECT_EQ(crc32c(frame.payload), le32(bytes, offset + 8));
    frames.push_back(std::move(frame));
    offset += kFrameHeader + length;
  }
  EXPECT_EQ(offset, bytes.size()) << "trailing garbage in segment";
  return frames;
}

/// Value of `key=` in a record payload; empty when absent.
std::string payload_field(const std::string& payload, const std::string& key) {
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + "=", 0) == 0) return line.substr(key.size() + 1);
  }
  return {};
}

/// Deterministic hand-built table covering every edge of a rows x cols grid.
stitch::DisplacementTable make_table(std::size_t rows, std::size_t cols) {
  stitch::DisplacementTable table(img::GridLayout{rows, cols});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const img::TilePos pos{r, c};
      if (c > 0) {
        table.west_of(pos) = stitch::Translation{
            static_cast<std::int64_t>(40 + c), static_cast<std::int64_t>(r),
            0.25 * static_cast<double>(r + c)};
      }
      if (r > 0) {
        table.north_of(pos) = stitch::Translation{
            static_cast<std::int64_t>(c), static_cast<std::int64_t>(30 + r),
            0.125 * static_cast<double>(r + c)};
      }
    }
  }
  return table;
}

/// Counts loads of one watched tile — proves a quarantined tile is never
/// re-read by a recovered job.
class WatchedTileProvider final : public stitch::TileProvider {
 public:
  WatchedTileProvider(const testing_grid& grid, img::TilePos watched)
      : grid_(grid), watched_(watched) {}

  img::GridLayout layout() const override { return grid_.layout; }
  std::size_t tile_height() const override { return grid_.tile_height; }
  std::size_t tile_width() const override { return grid_.tile_width; }
  img::ImageU16 load(img::TilePos pos) const override {
    if (pos == watched_) {
      watched_loads_.fetch_add(1, std::memory_order_relaxed);
    }
    return grid_.tile(pos);
  }

  std::size_t watched_loads() const {
    return watched_loads_.load(std::memory_order_relaxed);
  }

 private:
  const testing_grid& grid_;
  img::TilePos watched_;
  mutable std::atomic<std::size_t> watched_loads_{0};
};

class RecoveryDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            ("hs_recovery_" + std::to_string(::getpid()) + "_" +
             info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  serve::JournalConfig journal_config() const {
    serve::JournalConfig config;
    config.dir = dir_ + "/wal";
    config.fsync = serve::FsyncPolicy::kNever;
    return config;
  }

  std::string dir_;
};

using JournalTest = RecoveryDirTest;
using TableIoTest = RecoveryDirTest;
using ServiceRecoveryTest = RecoveryDirTest;
using RecoveryTortureTest = RecoveryDirTest;
using SpillRecoveryTest = RecoveryDirTest;

// ---------------------------------------------------------------------------
// CRC32C and framing primitives
// ---------------------------------------------------------------------------

TEST(Crc32cTest, MatchesStandardCheckValue) {
  // The RFC 3720 check value for the Castagnoli polynomial.
  EXPECT_EQ(crc32c(std::string("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string("")), 0u);
}

TEST(FsyncPolicyTest, NamesRoundTripAndBadNamesThrow) {
  for (const serve::FsyncPolicy policy :
       {serve::FsyncPolicy::kNever, serve::FsyncPolicy::kInterval,
        serve::FsyncPolicy::kEveryRecord}) {
    EXPECT_EQ(serve::parse_fsync_policy(serve::fsync_policy_name(policy)),
              policy);
  }
  EXPECT_EQ(serve::parse_fsync_policy("every_record"),
            serve::FsyncPolicy::kEveryRecord);
  EXPECT_THROW((void)serve::parse_fsync_policy("sometimes"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Journal: append / replay / truncate / rotate
// ---------------------------------------------------------------------------

TEST_F(JournalTest, AppendReplayRoundTrip) {
  const std::string request_text = "backend=simple-cpu\nthreads=3\n";
  std::uint64_t id_a = 0, id_b = 0, id_c = 0;
  {
    serve::Journal journal(journal_config());
    journal.replay();
    id_a = journal.next_job_id();
    id_b = journal.next_job_id();
    id_c = journal.next_job_id();
    journal.append_submitted(id_a, "alpha", request_text, dir_ + "/a.ckpt", 5);
    journal.append_started(id_a);
    journal.append_checkpoint(id_a);
    journal.append_submitted(id_b, "beta", request_text, "", -2);
    journal.append_submitted(id_c, "gamma", request_text, "", 0);
    journal.append_started(id_c);
    journal.append_terminal(id_c, "done");
    journal.flush();
  }

  serve::Journal reopened(journal_config());
  serve::ReplayStats stats;
  const std::vector<serve::ReplayedJob> jobs = reopened.replay(&stats);
  EXPECT_EQ(stats.records, 7u);
  EXPECT_EQ(stats.truncated_records, 0u);
  EXPECT_EQ(stats.live_jobs, 2u);
  EXPECT_EQ(stats.terminal_jobs, 1u);
  ASSERT_EQ(jobs.size(), 2u);

  EXPECT_EQ(jobs[0].id, id_a);
  EXPECT_EQ(jobs[0].name, "alpha");
  EXPECT_EQ(jobs[0].request_text, request_text);
  EXPECT_EQ(jobs[0].checkpoint_path, dir_ + "/a.ckpt");
  EXPECT_EQ(jobs[0].priority, 5);
  EXPECT_TRUE(jobs[0].started);

  EXPECT_EQ(jobs[1].id, id_b);
  EXPECT_EQ(jobs[1].name, "beta");
  EXPECT_EQ(jobs[1].checkpoint_path, "");
  EXPECT_EQ(jobs[1].priority, -2);
  EXPECT_FALSE(jobs[1].started);

  // Ids never collide with history.
  EXPECT_GT(reopened.next_job_id(), id_c);
}

TEST_F(JournalTest, ReplayRunsOnlyOnce) {
  serve::Journal journal(journal_config());
  journal.replay();
  EXPECT_THROW((void)journal.replay(), Error);
}

TEST_F(JournalTest, TornTailIsTruncatedInPlace) {
  const serve::JournalConfig config = journal_config();
  {
    serve::Journal journal(config);
    journal.replay();
    for (int i = 0; i < 3; ++i) {
      journal.append_submitted(journal.next_job_id(),
                               "job" + std::to_string(i), "k=v\n", "", 0);
    }
    journal.flush();
  }
  const std::vector<std::string> segments = wal_segments(config.dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string valid = read_bytes(segments[0]);

  // A crash mid-append leaves a partial frame: half a header plus garbage.
  write_bytes(segments[0], valid + std::string("\x48\x53\x4a\x4c gar", 8));
  {
    serve::Journal journal(config);
    serve::ReplayStats stats;
    const auto jobs = journal.replay(&stats);
    EXPECT_EQ(jobs.size(), 3u);
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.truncated_records, 1u);
  }
  // The cut is physical: the file is back to its last-valid-record length,
  // so the next replay is clean.
  EXPECT_EQ(fs::file_size(segments[0]), valid.size());
  {
    serve::Journal journal(config);
    serve::ReplayStats stats;
    const auto jobs = journal.replay(&stats);
    EXPECT_EQ(jobs.size(), 3u);
    EXPECT_EQ(stats.truncated_records, 0u);
  }
}

TEST_F(JournalTest, BitFlipCutsTailFromDamagedRecord) {
  const serve::JournalConfig config = journal_config();
  {
    serve::Journal journal(config);
    journal.replay();
    for (int i = 0; i < 4; ++i) {
      journal.append_submitted(journal.next_job_id(),
                               "job" + std::to_string(i), "k=v\n", "", 0);
    }
    journal.flush();
  }
  const std::vector<std::string> segments = wal_segments(config.dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::vector<Frame> frames = parse_frames(read_bytes(segments[0]));
  ASSERT_EQ(frames.size(), 4u);

  // Bit-rot inside the third record's payload: everything from that record
  // onward is untrustworthy and must be cut, keeping the first two.
  fault::Corruption flip;
  flip.kind = fault::Corruption::Kind::kBitFlip;
  flip.at_byte = frames[2].offset + kFrameHeader + 2;
  fault::apply_corruption(segments[0], flip);

  serve::Journal journal(config);
  serve::ReplayStats stats;
  const auto jobs = journal.replay(&stats);
  EXPECT_EQ(jobs.size(), 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.truncated_records, 1u);
  EXPECT_EQ(fs::file_size(segments[0]), frames[2].offset);
}

TEST_F(JournalTest, RotationCompactsTerminalJobs) {
  serve::JournalConfig config = journal_config();
  config.rotate_bytes = 256;  // tiny: every few appends rotate
  std::uint64_t survivor = 0;
  {
    serve::Journal journal(config);
    journal.replay();
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t id = journal.next_job_id();
      journal.append_submitted(id, "job" + std::to_string(i),
                               "backend=simple-cpu\n", "", i);
      journal.append_started(id);
      if (i != 6) {
        journal.append_terminal(id, "done");
      } else {
        survivor = id;
      }
    }
    journal.compact();
    journal.flush();
  }
  // Compaction leaves exactly one segment holding only the live job's story.
  EXPECT_EQ(wal_segments(config.dir).size(), 1u);

  serve::Journal journal(config);
  serve::ReplayStats stats;
  const auto jobs = journal.replay(&stats);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, survivor);
  EXPECT_EQ(jobs[0].name, "job6");
  EXPECT_EQ(jobs[0].priority, 6);
  EXPECT_TRUE(jobs[0].started);
  EXPECT_EQ(stats.terminal_jobs, 0u);  // dead history is gone, not replayed
}

TEST_F(JournalTest, InjectedAppendFailuresAreAbsorbed) {
  fault::FaultPlan plan;
  plan.fail_from_nth(fault::Site::kJournalWrite, 1);  // first append only
  serve::JournalConfig config = journal_config();
  config.faults = &plan;
  {
    serve::Journal journal(config);
    journal.replay();
    journal.append_submitted(1, "kept", "k=v\n", "", 0);
    EXPECT_NO_THROW(journal.append_submitted(2, "dropped-a", "k=v\n", "", 0));
    EXPECT_NO_THROW(journal.append_started(1));
    EXPECT_EQ(journal.append_failures(), 2u);
    journal.flush();
  }
  serve::JournalConfig clean = journal_config();
  serve::Journal journal(clean);
  const auto jobs = journal.replay();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, "kept");
  EXPECT_FALSE(jobs[0].started);  // the started record was the one dropped
}

TEST_F(JournalTest, InjectedCorruptionIsDetectedOnReplay) {
  fault::FaultPlan plan;
  fault::Corruption flip;
  flip.kind = fault::Corruption::Kind::kBitFlip;
  flip.at_byte = kFrameHeader + 1;  // inside the second record's payload
  plan.corrupt_from_nth(fault::Site::kJournalWrite, 1, flip);
  serve::JournalConfig config = journal_config();
  config.faults = &plan;
  {
    serve::Journal journal(config);
    journal.replay();
    for (int i = 0; i < 3; ++i) {
      journal.append_submitted(journal.next_job_id(),
                               "job" + std::to_string(i), "k=v\n", "", 0);
    }
    journal.flush();
  }
  serve::Journal journal(journal_config());
  serve::ReplayStats stats;
  const auto jobs = journal.replay(&stats);
  EXPECT_EQ(jobs.size(), 1u);
  EXPECT_EQ(stats.truncated_records, 1u);
}

TEST_F(JournalTest, ShortAppendIsCutBackAndLaterRecordsReplay) {
  {
    serve::Journal journal(journal_config());
    journal.replay();
    for (std::uint64_t id = 1; id <= 3; ++id) {
      journal.append_submitted(id, "job" + std::to_string(id), "k=v\n", "", 0);
    }
    const std::vector<std::string> segments = wal_segments(dir_ + "/wal");
    ASSERT_EQ(segments.size(), 1u);
    {
      // Room for five bytes of job 4's frame: the disk cuts it short.
      const FileSizeLimit limit(fs::file_size(segments[0]) + 5);
      journal.append_submitted(4, "job4", "k=v\n", "", 0);
    }
    journal.append_submitted(5, "job5", "k=v\n", "", 0);
    journal.append_submitted(6, "job6", "k=v\n", "", 0);
    EXPECT_EQ(journal.append_failures(), 1u);
    std::uint64_t on_disk = 0;
    for (const std::string& segment : wal_segments(dir_ + "/wal")) {
      on_disk += fs::file_size(segment);
    }
    EXPECT_EQ(journal.bytes(), on_disk);
    // Five whole frames and no torn bytes between them.
    EXPECT_EQ(parse_frames(read_bytes(segments[0])).size(), 5u);
  }
  serve::Journal journal(journal_config());
  serve::ReplayStats stats;
  std::vector<std::uint64_t> ids;
  for (const serve::ReplayedJob& job : journal.replay(&stats)) {
    ids.push_back(job.id);
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 5, 6}));
  EXPECT_EQ(stats.truncated_records, 0u);
}

// ---------------------------------------------------------------------------
// Request serde
// ---------------------------------------------------------------------------

TEST(RequestSerdeTest, RoundTripsEveryReplayableField) {
  stitch::StitchRequest request;
  request.backend = stitch::Backend::kPipelinedGpu;
  request.options.threads = 7;
  request.options.read_threads = 2;
  request.options.ccf_threads = 3;
  request.options.gpu_count = 3;
  request.options.gpu_memory_bytes = 96ull << 20;
  request.options.pool_buffers = 5;
  request.options.traversal = stitch::Traversal::kDiagonal;
  request.options.kepler_concurrent_fft = true;
  request.options.fft_streams = 2;
  request.options.use_p2p = true;
  request.options.peak_candidates = 3;
  request.options.min_overlap_px = 9;
  request.options.use_real_fft = true;
  request.options.steal_threshold = 4;
  request.options.gpu_batch_pairs = 2;
  request.retry.max_attempts = 3;
  request.retry.backoff_us = 50;
  request.retry.backoff_multiplier = 1.5;
  request.retry.quarantine = true;
  request.fallback = {stitch::Backend::kMtCpu, stitch::Backend::kSimpleCpu};
  request.pre_quarantined = {2, 5};
  request.deadline_ms = 1234;

  const stitch::StitchRequest out =
      stitch::deserialize_request(stitch::serialize_request(request));
  EXPECT_EQ(out.backend, request.backend);
  EXPECT_EQ(out.provider, nullptr);  // process-local, never serialized
  EXPECT_EQ(out.options.threads, request.options.threads);
  EXPECT_EQ(out.options.read_threads, request.options.read_threads);
  EXPECT_EQ(out.options.ccf_threads, request.options.ccf_threads);
  EXPECT_EQ(out.options.gpu_count, request.options.gpu_count);
  EXPECT_EQ(out.options.gpu_memory_bytes, request.options.gpu_memory_bytes);
  EXPECT_EQ(out.options.pool_buffers, request.options.pool_buffers);
  EXPECT_EQ(out.options.traversal, request.options.traversal);
  EXPECT_EQ(out.options.kepler_concurrent_fft,
            request.options.kepler_concurrent_fft);
  EXPECT_EQ(out.options.fft_streams, request.options.fft_streams);
  EXPECT_EQ(out.options.use_p2p, request.options.use_p2p);
  EXPECT_EQ(out.options.peak_candidates, request.options.peak_candidates);
  EXPECT_EQ(out.options.min_overlap_px, request.options.min_overlap_px);
  EXPECT_EQ(out.options.use_real_fft, request.options.use_real_fft);
  EXPECT_EQ(out.options.steal_threshold, request.options.steal_threshold);
  EXPECT_EQ(out.options.gpu_batch_pairs, request.options.gpu_batch_pairs);
  EXPECT_EQ(out.retry.max_attempts, request.retry.max_attempts);
  EXPECT_EQ(out.retry.backoff_us, request.retry.backoff_us);
  EXPECT_EQ(out.retry.backoff_multiplier, request.retry.backoff_multiplier);
  EXPECT_EQ(out.retry.quarantine, request.retry.quarantine);
  EXPECT_EQ(out.fallback, request.fallback);
  EXPECT_EQ(out.pre_quarantined, request.pre_quarantined);
  EXPECT_EQ(out.deadline_ms, request.deadline_ms);
}

TEST(RequestSerdeTest, UnknownKeysAreIgnored) {
  stitch::StitchRequest request;
  request.options.threads = 6;
  const std::string text =
      stitch::serialize_request(request) + "future_knob=enabled\n";
  const stitch::StitchRequest out = stitch::deserialize_request(text);
  EXPECT_EQ(out.options.threads, 6u);
}

// ---------------------------------------------------------------------------
// Checkpoint file integrity
// ---------------------------------------------------------------------------

TEST_F(TableIoTest, CrcFooterAndQuarantineSidecarRoundTrip) {
  const std::string path = dir_ + "/table.csv";
  const stitch::DisplacementTable table = make_table(3, 4);
  stitch::write_table_file(path, table, {5, 9});

  const stitch::TableFileData data = stitch::read_table_file(path);
  EXPECT_TRUE(data.had_crc);
  EXPECT_EQ(data.quarantined, (std::vector<std::size_t>{5, 9}));
  EXPECT_TRUE(tables_identical(data.table, table));
}

TEST_F(TableIoTest, LegacyFooterlessFileIsAccepted) {
  const std::string path = dir_ + "/table.csv";
  const stitch::DisplacementTable table = make_table(2, 3);
  stitch::write_table_file(path, table, {});
  std::string content = read_bytes(path);
  const std::size_t footer_at = content.rfind("# crc32c,");
  ASSERT_NE(footer_at, std::string::npos);
  write_bytes(path, content.substr(0, footer_at));

  const stitch::TableFileData data = stitch::read_table_file(path);
  EXPECT_FALSE(data.had_crc);
  EXPECT_TRUE(tables_identical(data.table, table));
}

TEST_F(TableIoTest, BitFlipIsDetected) {
  const std::string path = dir_ + "/table.csv";
  stitch::write_table_file(path, make_table(2, 3), {});
  fault::Corruption flip;
  flip.kind = fault::Corruption::Kind::kBitFlip;
  flip.at_byte = fs::file_size(path) / 2;
  fault::apply_corruption(path, flip);
  EXPECT_THROW((void)stitch::read_table_file(path), IoError);
}

TEST_F(TableIoTest, TornWriteIsDetected) {
  const std::string path = dir_ + "/table.csv";
  stitch::write_table_file(path, make_table(2, 3), {});
  fault::Corruption cut;
  cut.kind = fault::Corruption::Kind::kTruncate;
  cut.at_byte = (fs::file_size(path) * 3) / 5;
  fault::apply_corruption(path, cut);
  EXPECT_THROW((void)stitch::read_table_file(path), IoError);
}

TEST_F(TableIoTest, DuplicateEdgeIsRejected) {
  const std::string path = dir_ + "/table.csv";
  stitch::write_table_file(path, make_table(2, 3), {});
  std::string content = read_bytes(path);
  content.resize(content.rfind("# crc32c,"));  // back to legacy body
  const std::size_t row = content.find("west,");
  ASSERT_NE(row, std::string::npos);
  const std::size_t row_end = content.find('\n', row);
  content += content.substr(row, row_end - row + 1);  // re-emit one edge
  write_bytes(path, content);
  EXPECT_THROW((void)stitch::read_table_file(path), IoError);
}

TEST_F(TableIoTest, NonFiniteCorrelationIsRejected) {
  const std::string path = dir_ + "/table.csv";
  write_bytes(path,
              "# hybridstitch displacement table v1\n"
              "# grid,1,2\n"
              "direction,row,col,x,y,correlation\n"
              "west,0,1,40,0,nan\n");
  EXPECT_THROW((void)stitch::read_table_file(path), IoError);
}

TEST_F(TableIoTest, QuarantinedTileOutsideGridIsRejected) {
  const std::string path = dir_ + "/table.csv";
  write_bytes(path,
              "# hybridstitch displacement table v1\n"
              "# grid,1,2\n"
              "direction,row,col,x,y,correlation\n"
              "west,0,1,40,0,0.5\n"
              "# quarantined,99\n");
  EXPECT_THROW((void)stitch::read_table_file(path), IoError);
}

TEST_F(TableIoTest, CorruptionPastEofIsANoop) {
  const std::string path = dir_ + "/blob";
  write_bytes(path, "hello");
  fault::Corruption flip;
  flip.kind = fault::Corruption::Kind::kBitFlip;
  flip.at_byte = 100;
  fault::apply_corruption(path, flip);
  EXPECT_EQ(read_bytes(path), "hello");

  fault::Corruption cut;
  cut.kind = fault::Corruption::Kind::kTruncate;
  cut.at_byte = 100;
  fault::apply_corruption(path, cut);
  EXPECT_EQ(read_bytes(path), "hello");

  flip.at_byte = 0;  // in range: flips 'h' (0x68) to 'i' (0x69)
  fault::apply_corruption(path, flip);
  EXPECT_EQ(read_bytes(path), "iello");
}

TEST_F(TableIoTest, FailedRewriteKeepsThePreviousTable) {
  const std::string path = dir_ + "/table.csv";
  stitch::write_table_file(path, make_table(2, 3), {});
  const std::string before = read_bytes(path);
  {
    // The 6x6 rewrite is larger than the 2x3 table it replaces; the limit
    // stops it a few bytes past the old size.
    const FileSizeLimit limit(before.size() + 5);
    EXPECT_THROW(stitch::write_table_file(path, make_table(6, 6), {}),
                 IoError);
  }
  EXPECT_EQ(read_bytes(path), before);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Service startup recovery
// ---------------------------------------------------------------------------

TEST_F(ServiceRecoveryTest, FreshRecoveryRunsJobToCompletion) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);

  stitch::StitchRequest reference_request{stitch::Backend::kSimpleCpu,
                                          &provider, fast_options()};
  const stitch::StitchResult reference = stitch::stitch(reference_request);

  // A journal from a process that accepted a job and died before running it.
  {
    serve::Journal journal(journal_config());
    journal.replay();
    journal.append_submitted(journal.next_job_id(), "orphan",
                             stitch::serialize_request(reference_request),
                             dir_ + "/orphan.ckpt", 0);
    journal.flush();
  }

  serve::ServiceConfig config;
  config.workers = 1;
  config.journal = journal_config();
  config.provider_resolver = [&provider](const std::string&) {
    return &provider;
  };
  {
    serve::StitchService service(config);
    ASSERT_EQ(service.recovered_jobs().size(), 1u);
    EXPECT_EQ(service.recovery_stats().fresh, 1u);
    EXPECT_EQ(service.recovery_stats().resumed, 0u);
    EXPECT_EQ(service.recovery_stats().unresolved, 0u);
    serve::JobHandle handle = service.recovered_jobs()[0];
    EXPECT_EQ(handle.name(), "orphan");
    EXPECT_TRUE(tables_identical(handle.wait().table, reference.table));
  }

  // The finished job reached a terminal record: a second restart finds
  // nothing left to recover.
  serve::StitchService again(config);
  EXPECT_TRUE(again.recovered_jobs().empty());
  EXPECT_EQ(again.recovery_stats().unresolved, 0u);
}

TEST_F(ServiceRecoveryTest, ResumesFromCheckpointBitIdentical) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const std::string ckpt = dir_ + "/resume.ckpt";

  stitch::StitchRequest reference_request{stitch::Backend::kSimpleCpu,
                                          &provider, fast_options()};
  const stitch::StitchResult reference = stitch::stitch(reference_request);

  // First incarnation: cancelled mid-run, leaving a partial checkpoint (the
  // terminal transition always writes one).
  {
    hs::testing::SlowProvider slow(&provider, 4);
    serve::ServiceConfig config;
    config.workers = 1;
    serve::StitchService service(config);
    serve::StitchJob job;
    job.name = "resume";
    job.backend = stitch::Backend::kSimpleCpu;
    job.provider = &slow;
    job.options = fast_options();
    job.checkpoint_path = ckpt;
    serve::JobHandle handle = service.submit(std::move(job));
    while (handle.progress().pairs_done < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    handle.cancel();
    EXPECT_THROW((void)handle.wait(), Cancelled);
  }
  ASSERT_TRUE(fs::exists(ckpt));
  EXPECT_TRUE(stitch::read_table_file(ckpt).had_crc);

  // The journal the dead process would have left behind.
  {
    serve::Journal journal(journal_config());
    journal.replay();
    const std::uint64_t id = journal.next_job_id();
    journal.append_submitted(id, "resume",
                             stitch::serialize_request(reference_request),
                             ckpt, 0);
    journal.append_started(id);
    journal.flush();
  }

  serve::ServiceConfig config;
  config.workers = 1;
  config.journal = journal_config();
  config.provider_resolver = [&provider](const std::string&) {
    return &provider;
  };
  serve::StitchService service(config);
  ASSERT_EQ(service.recovered_jobs().size(), 1u);
  EXPECT_EQ(service.recovery_stats().resumed, 1u);
  EXPECT_EQ(service.recovery_stats().fresh, 0u);
  serve::JobHandle handle = service.recovered_jobs()[0];
  EXPECT_TRUE(tables_identical(handle.wait().table, reference.table));
}

TEST_F(ServiceRecoveryTest, QuarantineSurvivesRecovery) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const img::TilePos poison{1, 2};
  const std::size_t poison_index = grid.layout.index_of(poison);
  const std::string ckpt = dir_ + "/quarantine.ckpt";

  stitch::StitchRequest request{stitch::Backend::kSimpleCpu, &provider,
                                fast_options()};
  request.retry.max_attempts = 2;
  request.retry.quarantine = true;

  // First incarnation: tile (1,2) is permanently unreadable; the job
  // quarantines it and its checkpoint records that in the sidecar.
  stitch::StitchResult source;
  {
    fault::FaultPlan plan;
    plan.fail_key_permanently(fault::Site::kTileRead, poison_index);
    fault::FaultInjectingProvider faulty(provider, plan);
    serve::ServiceConfig config;
    config.workers = 1;
    serve::StitchService service(config);
    serve::StitchJob job;
    job.name = "quarantine";
    job.backend = request.backend;
    job.provider = &faulty;
    job.options = request.options;
    job.options.faults = &plan;
    job.retry = request.retry;
    job.checkpoint_path = ckpt;
    source = service.submit(std::move(job)).wait();
  }
  EXPECT_EQ(stitch::read_table_file(ckpt).quarantined,
            std::vector<std::size_t>{poison_index});

  {
    serve::Journal journal(journal_config());
    journal.replay();
    const std::uint64_t id = journal.next_job_id();
    journal.append_submitted(id, "quarantine",
                             stitch::serialize_request(request), ckpt, 0);
    journal.append_started(id);
    journal.flush();
  }

  // Recovery rebinds to a healthy-looking provider that counts reads of the
  // poisoned tile: the sidecar must keep the tile unread AND keep its pairs
  // failed — otherwise this run would "heal" and diverge from the original.
  WatchedTileProvider watched(grid, poison);
  serve::ServiceConfig config;
  config.workers = 1;
  config.journal = journal_config();
  config.provider_resolver = [&watched](const std::string&) {
    return &watched;
  };
  serve::StitchService service(config);
  ASSERT_EQ(service.recovered_jobs().size(), 1u);
  EXPECT_EQ(service.recovery_stats().resumed, 1u);
  serve::JobHandle handle = service.recovered_jobs()[0];
  EXPECT_TRUE(tables_identical(handle.wait().table, source.table));
  EXPECT_EQ(watched.watched_loads(), 0u);
}

TEST_F(ServiceRecoveryTest, CorruptCheckpointFallsBackToFreshRun) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const std::string ckpt = dir_ + "/corrupt.ckpt";

  stitch::StitchRequest request{stitch::Backend::kSimpleCpu, &provider,
                                fast_options()};
  const stitch::StitchResult reference = stitch::stitch(request);

  stitch::write_table_file(ckpt, reference.table, {});
  fault::Corruption flip;
  flip.kind = fault::Corruption::Kind::kBitFlip;
  flip.at_byte = fs::file_size(ckpt) / 2;
  fault::apply_corruption(ckpt, flip);

  {
    serve::Journal journal(journal_config());
    journal.replay();
    journal.append_submitted(journal.next_job_id(), "corrupt",
                             stitch::serialize_request(request), ckpt, 0);
    journal.flush();
  }

  serve::ServiceConfig config;
  config.workers = 1;
  config.journal = journal_config();
  config.provider_resolver = [&provider](const std::string&) {
    return &provider;
  };
  serve::StitchService service(config);
  ASSERT_EQ(service.recovered_jobs().size(), 1u);
  // The damage is detected (CRC mismatch), the warm start is refused, and
  // the job still produces the right answer from scratch.
  EXPECT_EQ(service.recovery_stats().resumed, 0u);
  EXPECT_EQ(service.recovery_stats().fresh, 1u);
  serve::JobHandle handle = service.recovered_jobs()[0];
  EXPECT_TRUE(tables_identical(handle.wait().table, reference.table));
}

TEST_F(ServiceRecoveryTest, CheckpointCorruptionSiteDamagesTheFile) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const std::string ckpt = dir_ + "/damaged.ckpt";

  fault::FaultPlan plan;
  fault::Corruption flip;
  flip.kind = fault::Corruption::Kind::kBitFlip;
  flip.at_byte = 64;
  plan.corrupt_from_nth(fault::Site::kCheckpointCorrupt, 0, flip);

  stitch::StitchResult reference;
  {
    serve::ServiceConfig config;
    config.workers = 1;
    serve::StitchService service(config);
    serve::StitchJob job;
    job.name = "damaged";
    job.backend = stitch::Backend::kSimpleCpu;
    job.provider = &provider;
    job.options = fast_options();
    job.options.faults = &plan;
    job.checkpoint_path = ckpt;
    reference = service.submit(std::move(job)).wait();
  }
  // The injected bit-rot hit the finalized checkpoint; the CRC catches it.
  ASSERT_TRUE(fs::exists(ckpt));
  EXPECT_THROW((void)stitch::read_table_file(ckpt), IoError);

  // A resubmit against the damaged file starts fresh and still succeeds.
  serve::ServiceConfig config;
  config.workers = 1;
  serve::StitchService service(config);
  serve::StitchJob job;
  job.name = "damaged";
  job.backend = stitch::Backend::kSimpleCpu;
  job.provider = &provider;
  job.options = fast_options();
  job.checkpoint_path = ckpt;
  EXPECT_TRUE(tables_identical(service.submit(std::move(job)).wait().table,
                               reference.table));
}

TEST_F(ServiceRecoveryTest, UnresolvedJobsStayInTheJournal) {
  stitch::StitchRequest request;
  request.options = fast_options();
  {
    serve::Journal journal(journal_config());
    journal.replay();
    journal.append_submitted(journal.next_job_id(), "stranger",
                             stitch::serialize_request(request), "", 0);
    journal.flush();
  }
  {
    serve::ServiceConfig config;
    config.workers = 1;
    config.journal = journal_config();  // no provider_resolver
    serve::StitchService service(config);
    EXPECT_TRUE(service.recovered_jobs().empty());
    EXPECT_EQ(service.recovery_stats().unresolved, 1u);
  }
  // Declining a job is not dropping it: compaction carried it into the
  // fresh segment for a later restart that can resolve it.
  serve::Journal journal(journal_config());
  const auto jobs = journal.replay();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, "stranger");
}

// ---------------------------------------------------------------------------
// Spill-tier recovery: warm-start survives damage, orphans are collected
// ---------------------------------------------------------------------------

/// Spectrum frame files (*.spec) currently in a spill directory, sorted.
std::vector<std::string> spill_frames(const std::string& dir) {
  std::vector<std::string> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".spec") == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(SpillRecoveryTest, SpectrumFramesSurviveRestartBitIdentical) {
  const std::string spill = dir_ + "/spill";
  stitch::SpectrumKey key;
  key.digest = 0x0123456789ABCDEFull;
  key.height = 8;
  key.width = 6;
  std::vector<fft::Complex> bins(48);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    bins[i] = fft::Complex{0.5 * static_cast<double>(i), -1.0 / (1.0 + i)};
  }
  stitch::Translation t{17, -4, 0.875};
  stitch::PairKey pkey;
  pkey.digest_reference = 1;
  pkey.digest_moved = 2;
  pkey.height = 8;
  pkey.width = 6;
  {
    stitch::SpectrumStore store({spill, nullptr});
    EXPECT_TRUE(store.put(key, bins));
    store.put_pair(pkey, t);
  }
  stitch::SpectrumStore reopened({spill, nullptr});
  EXPECT_EQ(reopened.stats().spectrum_frames, 1u);
  EXPECT_EQ(reopened.stats().pairs, 1u);
  const auto loaded = reopened.load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(*loaded, bins);  // memcpy round trip: bit-identical
  stitch::Translation out;
  ASSERT_TRUE(reopened.load_pair(pkey, &out));
  EXPECT_TRUE(out == t);
}

TEST_F(SpillRecoveryTest, BitFlippedFrameAtRestartIsDetectedAndRecomputed) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);

  serve::ServiceConfig config;
  config.workers = 1;
  config.shared_cache_bytes = 16ull << 20;
  config.spill_dir = dir_ + "/spill";

  stitch::StitchResult reference;
  {
    serve::StitchService service(config);
    serve::StitchJob job;
    job.name = "seed";
    job.backend = stitch::Backend::kSimpleCpu;
    job.provider = &provider;
    job.options = fast_options();
    reference = service.submit(std::move(job)).wait();
  }
  std::vector<std::string> frames = spill_frames(config.spill_dir);
  ASSERT_FALSE(frames.empty());

  // Bit rot inside the first frame's payload while the service is down.
  fault::Corruption flip;
  flip.kind = fault::Corruption::Kind::kBitFlip;
  flip.at_byte = fs::file_size(frames[0]) / 2;
  fault::apply_corruption(frames[0], flip);

  // Restart: recovery CRC-validates every frame, deletes the damaged one,
  // counts it, and the resubmit recomputes — bit-identical, no crash.
  serve::StitchService service(config);
  ASSERT_NE(service.spill_store(), nullptr);
  EXPECT_EQ(service.spill_store()->stats().corrupt_frames, 1u);
  EXPECT_EQ(service.spill_store()->stats().spectrum_frames, frames.size() - 1);
  EXPECT_FALSE(fs::exists(frames[0]));
  serve::StitchJob job;
  job.name = "after-rot";
  job.backend = stitch::Backend::kSimpleCpu;
  job.provider = &provider;
  job.options = fast_options();
  EXPECT_TRUE(tables_identical(service.submit(std::move(job)).wait().table,
                               reference.table));
}

TEST_F(SpillRecoveryTest, TruncatedFrameAndTornPairLogAreCutAtRestart) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);

  serve::ServiceConfig config;
  config.workers = 1;
  config.shared_cache_bytes = 16ull << 20;
  config.spill_dir = dir_ + "/spill";

  stitch::StitchResult reference;
  {
    serve::StitchService service(config);
    serve::StitchJob job;
    job.name = "seed";
    job.backend = stitch::Backend::kSimpleCpu;
    job.provider = &provider;
    job.options = fast_options();
    reference = service.submit(std::move(job)).wait();
  }
  const std::vector<std::string> frames = spill_frames(config.spill_dir);
  ASSERT_FALSE(frames.empty());
  std::size_t pairs_before = 0;
  {
    stitch::SpectrumStore probe({config.spill_dir, nullptr});
    pairs_before = probe.stats().pairs;
  }
  ASSERT_GT(pairs_before, 1u);

  // A short write: the frame ends mid-payload. And a torn pair-log tail:
  // the last record is cut in half.
  fault::Corruption cut;
  cut.kind = fault::Corruption::Kind::kTruncate;
  cut.at_byte = fs::file_size(frames[0]) - 7;
  fault::apply_corruption(frames[0], cut);
  const std::string pair_log = config.spill_dir + "/pairs.log";
  ASSERT_TRUE(fs::exists(pair_log));
  fault::Corruption tail;
  tail.kind = fault::Corruption::Kind::kTruncate;
  tail.at_byte = fs::file_size(pair_log) - 5;
  fault::apply_corruption(pair_log, tail);

  serve::StitchService service(config);
  const stitch::SpectrumStore::Stats stats = service.spill_store()->stats();
  EXPECT_EQ(stats.corrupt_frames, 2u);  // the frame + the torn tail record
  EXPECT_EQ(stats.spectrum_frames, frames.size() - 1);
  EXPECT_EQ(stats.pairs, pairs_before - 1);  // valid prefix kept
  serve::StitchJob job;
  job.name = "after-tear";
  job.backend = stitch::Backend::kSimpleCpu;
  job.provider = &provider;
  job.options = fast_options();
  EXPECT_TRUE(tables_identical(service.submit(std::move(job)).wait().table,
                               reference.table));
}

/// Rewrites the transform revision of the frame at byte `frame_at` of
/// `path` (the u16 at payload offset `revision_at`) and recomputes the
/// frame's CRC, so the frame stays intact and only its revision differs.
void restamp_revision(const std::string& path, std::size_t frame_at,
                      std::size_t revision_at, std::uint16_t revision) {
  std::string bytes = read_bytes(path);
  const std::size_t payload_at = frame_at + kFrameHeader;
  const std::uint32_t len = le32(bytes, frame_at + 4);
  ASSERT_LE(payload_at + len, bytes.size());
  bytes[payload_at + revision_at] = static_cast<char>(revision & 0xFF);
  bytes[payload_at + revision_at + 1] = static_cast<char>(revision >> 8);
  const std::uint32_t crc =
      crc32c(bytes.data() + payload_at, std::size_t{len});
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[frame_at + 8 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  write_bytes(path, bytes);
}

TEST_F(SpillRecoveryTest, FrameOfAnotherTransformRevisionIsRecomputed) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);

  serve::ServiceConfig config;
  config.workers = 1;
  config.shared_cache_bytes = 16ull << 20;
  config.spill_dir = dir_ + "/spill";

  const auto submit = [&](serve::StitchService& service) {
    serve::StitchJob job;
    job.name = "window";
    job.backend = stitch::Backend::kSimpleCpu;
    job.provider = &provider;
    job.options = fast_options();
    return service.submit(std::move(job)).wait();
  };
  stitch::StitchResult reference;
  {
    serve::StitchService service(config);
    reference = submit(service);
  }
  const std::vector<std::string> frames = spill_frames(config.spill_dir);
  ASSERT_FALSE(frames.empty());

  // An intact frame that a build with other transform bits wrote (revision 0
  // is what every frame from before the revision existed reads). Without
  // the pair log every pair needs its spectra, so the recompute shows.
  restamp_revision(frames[0], 0, 18, 0);
  fs::remove(config.spill_dir + "/pairs.log");

  serve::StitchService service(config);
  const stitch::SpectrumStore::Stats stats = service.spill_store()->stats();
  EXPECT_EQ(stats.corrupt_frames, 0u);  // stale, not damaged
  EXPECT_EQ(stats.gc_removed, 1u);
  EXPECT_EQ(stats.spectrum_frames, frames.size() - 1);
  EXPECT_FALSE(fs::exists(frames[0]));
  const stitch::StitchResult rerun = submit(service);
  EXPECT_EQ(rerun.ops.forward_ffts, 1u);
  EXPECT_TRUE(tables_identical(rerun.table, reference.table));
}

TEST_F(SpillRecoveryTest, PairRecordOfAnotherTransformRevisionIsSkipped) {
  const std::string spill = dir_ + "/spill";
  std::vector<stitch::PairKey> keys(3);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i].digest_reference = 10 + i;
    keys[i].digest_moved = 20 + i;
    keys[i].height = 8;
    keys[i].width = 6;
  }
  {
    stitch::SpectrumStore store({spill, nullptr});
    for (std::size_t i = 0; i < keys.size(); ++i) {
      store.put_pair(keys[i], stitch::Translation{static_cast<std::int64_t>(i),
                                                  -1, 0.5});
    }
  }
  // The middle record: 12 header bytes + 64 payload bytes per record, and
  // the revision follows the tier byte at payload offset 26.
  const std::string log = spill + "/pairs.log";
  const auto size_before = fs::file_size(log);
  restamp_revision(log, 76, 26, 0);

  stitch::SpectrumStore reopened({spill, nullptr});
  EXPECT_EQ(reopened.stats().corrupt_frames, 0u);
  EXPECT_EQ(reopened.stats().pairs, 2u);
  EXPECT_EQ(fs::file_size(log), size_before);  // skipped, not truncated
  stitch::Translation out;
  EXPECT_TRUE(reopened.load_pair(keys[0], &out));
  EXPECT_FALSE(reopened.load_pair(keys[1], &out));
  ASSERT_TRUE(reopened.load_pair(keys[2], &out));
  EXPECT_EQ(out.x, 2);
}

TEST_F(SpillRecoveryTest, StartupGcSweepsTmpFilesAndGarbageFrames) {
  const std::string spill = dir_ + "/spill";
  fs::create_directories(spill);
  // A crash mid-put leaves a temp file; a garbage .spec is not a frame.
  write_bytes(spill + "/sp-0000000000000001-8x6-c0.spec.tmp", "half-written");
  write_bytes(spill + "/garbage.spec", "not a spectrum frame at all");
  write_bytes(spill + "/unrelated.txt", "left alone");

  stitch::SpectrumStore store({spill, nullptr});
  const stitch::SpectrumStore::Stats stats = store.stats();
  EXPECT_EQ(stats.gc_removed, 2u);
  EXPECT_EQ(stats.spectrum_frames, 0u);
  EXPECT_FALSE(fs::exists(spill + "/sp-0000000000000001-8x6-c0.spec.tmp"));
  EXPECT_FALSE(fs::exists(spill + "/garbage.spec"));
  EXPECT_TRUE(fs::exists(spill + "/unrelated.txt"));  // never touched
}

TEST_F(SpillRecoveryTest, ShortPairAppendIsCutBackAndLaterPairsReplay) {
  const std::string spill = dir_ + "/spill";
  const std::string log = spill + "/pairs.log";
  std::vector<stitch::PairKey> keys(3);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i].digest_reference = 10 + i;
    keys[i].digest_moved = 20 + i;
    keys[i].height = 8;
    keys[i].width = 6;
  }
  const auto value = [](std::size_t i) {
    return stitch::Translation{static_cast<std::int64_t>(i), -1, 0.5};
  };
  {
    stitch::SpectrumStore store({spill, nullptr});
    store.put_pair(keys[0], value(0));
    {
      // Room for five bytes of the second record: the disk cuts it short.
      const FileSizeLimit limit(fs::file_size(log) + 5);
      store.put_pair(keys[1], value(1));
    }
    store.put_pair(keys[2], value(2));
    EXPECT_EQ(store.stats().write_failures, 1u);
    EXPECT_EQ(fs::file_size(log), 2u * 76u);  // two whole 76-byte records
  }
  stitch::SpectrumStore reopened({spill, nullptr});
  EXPECT_EQ(reopened.stats().pairs, 2u);
  EXPECT_EQ(reopened.stats().corrupt_frames, 0u);
  stitch::Translation out;
  EXPECT_TRUE(reopened.load_pair(keys[0], &out));
  EXPECT_FALSE(reopened.load_pair(keys[1], &out));
  ASSERT_TRUE(reopened.load_pair(keys[2], &out));
  EXPECT_EQ(out.x, 2);
}

TEST_F(SpillRecoveryTest, FailedSpectrumPutLeavesNoTmpFile) {
  const std::string spill = dir_ + "/spill";
  stitch::SpectrumKey key;
  key.digest = 0x42;
  key.height = 16;
  key.width = 16;
  const std::vector<fft::Complex> bins(256, fft::Complex(1.0, -1.0));
  stitch::SpectrumStore store({spill, nullptr});
  {
    const FileSizeLimit limit(1000);  // the frame is over 4 KiB
    EXPECT_FALSE(store.put(key, bins));
  }
  EXPECT_EQ(store.stats().write_failures, 1u);
  EXPECT_FALSE(store.contains(key));
  for (const fs::directory_entry& entry : fs::directory_iterator(spill)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_TRUE(spill_frames(spill).empty());
  EXPECT_TRUE(store.put(key, bins));  // with room again the put lands
  EXPECT_EQ(spill_frames(spill).size(), 1u);
}

TEST_F(ServiceRecoveryTest, OrphanedCheckpointTmpIsSweptAtStartup) {
  const testing_grid grid = small_grid();
  stitch::MemoryTileProvider provider(&grid.tiles, grid.layout);
  const std::string ckpt = dir_ + "/swept.ckpt";

  stitch::StitchRequest request{stitch::Backend::kSimpleCpu, &provider,
                                fast_options()};
  // The journal of a process that died between a checkpoint's temp write
  // and its rename: the job even finished (terminal), but the .tmp orphan
  // is still on disk.
  {
    serve::Journal journal(journal_config());
    journal.replay();
    const std::uint64_t id = journal.next_job_id();
    journal.append_submitted(id, "swept",
                             stitch::serialize_request(request), ckpt, 0);
    journal.append_started(id);
    journal.append_terminal(id, "done");
    journal.flush();
  }
  write_bytes(ckpt, "published checkpoint, must survive");
  write_bytes(ckpt + ".tmp", "torn half-checkpoint");

  serve::ServiceConfig config;
  config.workers = 1;
  config.journal = journal_config();
  config.provider_resolver = [&provider](const std::string&) {
    return &provider;
  };
  serve::StitchService service(config);
  EXPECT_EQ(service.recovery_stats().checkpoint_tmp_removed, 1u);
  EXPECT_FALSE(fs::exists(ckpt + ".tmp"));
  EXPECT_EQ(read_bytes(ckpt), "published checkpoint, must survive");
}

// ---------------------------------------------------------------------------
// Crash torture: cut the journal everywhere, recover, demand exactness
// ---------------------------------------------------------------------------

TEST_F(RecoveryTortureTest, EveryPrefixRecoversExactlyTheUnfinishedJobs) {
  // Source run: three journaled jobs (two with checkpoints) through a
  // single-worker service, run to completion so the journal holds the full
  // submitted/started/checkpoint/terminal story of each.
  const testing_grid grids[3] = {small_grid(3), small_grid(11),
                                 small_grid(12)};
  std::vector<stitch::MemoryTileProvider> providers;
  providers.reserve(3);
  for (const testing_grid& grid : grids) {
    providers.emplace_back(&grid.tiles, grid.layout);
  }
  std::map<std::string, const stitch::TileProvider*> by_name;
  std::map<std::string, stitch::DisplacementTable> reference;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "j" + std::to_string(i);
    by_name[name] = &providers[i];
    stitch::StitchRequest request{stitch::Backend::kSimpleCpu, &providers[i],
                                  fast_options()};
    reference[name] = stitch::stitch(request).table;
  }

  const std::string source_wal = dir_ + "/wal";
  {
    serve::ServiceConfig config;
    config.workers = 1;
    config.journal.dir = source_wal;
    config.journal.fsync = serve::FsyncPolicy::kNever;
    serve::StitchService service(config);
    for (int i = 0; i < 3; ++i) {
      serve::StitchJob job;
      job.name = "j" + std::to_string(i);
      job.backend = stitch::Backend::kSimpleCpu;
      job.provider = &providers[i];
      job.options = fast_options();
      if (i < 2) job.checkpoint_path = dir_ + "/j" + std::to_string(i) + ".ckpt";
      service.submit(std::move(job)).wait();
    }
  }
  const std::vector<std::string> segments = wal_segments(source_wal);
  ASSERT_EQ(segments.size(), 1u);
  const std::string bytes = read_bytes(segments[0]);
  const std::vector<Frame> frames = parse_frames(bytes);
  ASSERT_GE(frames.size(), 9u);  // 3 x (submitted + started + terminal) min

  // Expected survivors of a crash after the first `count` records: jobs
  // submitted but not yet terminal in that prefix.
  const auto expected_live = [&](std::size_t count) {
    std::map<std::uint64_t, std::string> live;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string type = payload_field(frames[i].payload, "type");
      const std::uint64_t id =
          std::stoull(payload_field(frames[i].payload, "id"));
      if (type == "submitted") {
        live[id] = payload_field(frames[i].payload, "name");
      } else if (type == "terminal") {
        live.erase(id);
      }
    }
    std::set<std::string> names;
    for (const auto& [id, name] : live) names.insert(name);
    return names;
  };

  // One recovery per crash image; `valid` is how many whole records the
  // image holds (everything after them is torn garbage, or absent).
  const auto torture = [&](const std::string& image, std::size_t valid,
                           const std::string& what) {
    SCOPED_TRACE(what);
    const std::string wal = dir_ + "/torture";
    fs::remove_all(wal);
    fs::create_directories(wal);
    write_bytes(wal + "/wal-000001.log", image);

    const std::set<std::string> expected = expected_live(valid);
    serve::ServiceConfig config;
    config.workers = 2;
    config.journal.dir = wal;
    config.journal.fsync = serve::FsyncPolicy::kNever;
    config.provider_resolver =
        [&by_name](const std::string& name) -> const stitch::TileProvider* {
      const auto it = by_name.find(name);
      return it == by_name.end() ? nullptr : it->second;
    };
    serve::StitchService service(config);
    EXPECT_EQ(service.recovery_stats().unresolved, 0u);

    // Exactness: every unfinished job comes back, nothing else does, and
    // no job is duplicated.
    std::set<std::string> recovered;
    for (const serve::JobHandle& handle : service.recovered_jobs()) {
      EXPECT_TRUE(recovered.insert(handle.name()).second)
          << "job " << handle.name() << " recovered twice";
    }
    EXPECT_EQ(recovered, expected);

    // Bit-identity: a recovered run (warm or fresh) equals the reference.
    for (serve::JobHandle handle : service.recovered_jobs()) {
      EXPECT_TRUE(
          tables_identical(handle.wait().table, reference.at(handle.name())))
          << "job " << handle.name();
    }
  };

  // (a) Every frame boundary — the crash landed between two appends.
  for (std::size_t count = 0; count <= frames.size(); ++count) {
    const std::size_t end =
        count == frames.size() ? bytes.size() : frames[count].offset;
    torture(bytes.substr(0, end), count,
            "boundary after " + std::to_string(count) + " records");
  }
  // (b) Mid-record cuts — the crash landed inside an append.
  for (std::size_t cut = 0; cut < frames.size(); cut += 2) {
    const std::size_t end = frames[cut].offset + frames[cut].size / 2;
    torture(bytes.substr(0, end), cut,
            "cut inside record " + std::to_string(cut));
  }
  // (c) Bit-rot — a full-length journal with one payload byte flipped must
  // be cut from the damaged record onward.
  for (std::size_t hit = 1; hit < frames.size(); hit += 3) {
    std::string image = bytes;
    image[frames[hit].offset + kFrameHeader] ^= 1;
    torture(image, hit, "bit flip in record " + std::to_string(hit));
  }

  // After a full boundary sweep the torture journal's last image has been
  // recovered and finished; one more restart must find it empty.
  serve::ServiceConfig config;
  config.workers = 1;
  config.journal.dir = dir_ + "/torture";
  config.journal.fsync = serve::FsyncPolicy::kNever;
  config.provider_resolver =
      [&by_name](const std::string& name) -> const stitch::TileProvider* {
    const auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second;
  };
  serve::StitchService service(config);
  EXPECT_TRUE(service.recovered_jobs().empty());
}

}  // namespace
