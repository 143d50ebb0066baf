// Unit tests for the common utility library.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cli.hpp"
#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/file.hpp"
#include "common/log.hpp"
#include "common/move_function.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace hs {
namespace {

// --- AlignedBuffer ---------------------------------------------------------

TEST(AlignedBuffer, AllocatesAlignedMemory) {
  AlignedBuffer<double> buffer(1000);
  EXPECT_EQ(buffer.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) % 64, 0u);
}

TEST(AlignedBuffer, CustomAlignment) {
  AlignedBuffer<float> buffer(17, 128);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) % 128, 0u);
}

TEST(AlignedBuffer, EmptyBufferIsValid) {
  AlignedBuffer<int> buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.data(), nullptr);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 42;
  int* ptr = a.data();
  AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, MoveAssignReleasesOld) {
  AlignedBuffer<int> a(10), b(20);
  b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
}

TEST(AlignedBuffer, SpanCoversAllElements) {
  AlignedBuffer<int> a(7);
  EXPECT_EQ(a.span().size(), 7u);
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng forked = a.fork();
  EXPECT_NE(a.next_u64(), forked.next_u64());
}

// --- CliParser -------------------------------------------------------------

TEST(Cli, ParsesEqualsAndSpaceForms) {
  CliParser cli("prog", "test");
  cli.add_flag("rows", "rows", "4");
  cli.add_flag("cols", "cols", "5");
  const char* argv[] = {"prog", "--rows=7", "--cols", "9"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("rows"), 7);
  EXPECT_EQ(cli.get_int("cols"), 9);
}

TEST(Cli, DefaultsSurviveWhenNotGiven) {
  CliParser cli("prog", "test");
  cli.add_flag("mode", "mode", "fast");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get("mode"), "fast");
}

TEST(Cli, SwitchDefaultsFalseAndSets) {
  CliParser cli("prog", "test");
  cli.add_switch("verbose", "verbose");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("prog", "test");
  cli.add_flag("n", "n", "1");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(Cli, NonIntegerValueThrows) {
  CliParser cli("prog", "test");
  cli.add_flag("n", "n", "1");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli.parse(3 - 1, argv));
  EXPECT_THROW(cli.get_int("n"), InvalidArgument);
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "a", "b"};
  ASSERT_TRUE(cli.parse(3, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "a");
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, DuplicateFlagDeclarationThrows) {
  CliParser cli("prog", "test");
  cli.add_flag("x", "x", "1");
  EXPECT_THROW(cli.add_flag("x", "again", "2"), InvalidArgument);
}

// Regression: strtoll saturates on overflow and only reports it via errno,
// so "99999999999999999999" used to parse as INT64_MAX instead of failing.
TEST(Cli, IntegerOverflowThrows) {
  CliParser cli("prog", "test");
  cli.add_flag("n", "n", "1");
  const char* argv[] = {"prog", "--n=99999999999999999999"};
  ASSERT_TRUE(cli.parse(2, argv));
  try {
    cli.get_int("n");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Cli, IntegerBoundaryValuesStillParse) {
  CliParser cli("prog", "test");
  cli.add_flag("lo", "lo", "-9223372036854775808");
  cli.add_flag("hi", "hi", "9223372036854775807");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("lo"), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(cli.get_int("hi"), std::numeric_limits<std::int64_t>::max());
}

// Regression: strtod happily accepts "inf", "nan", and hex floats, none of
// which make sense for stitching flags; overflow ("1e400") returned HUGE_VAL.
TEST(Cli, DoubleRejectsInfNanHexAndOverflow) {
  CliParser cli("prog", "test");
  cli.add_flag("x", "x", "0");
  for (const char* bad : {"inf", "-inf", "nan", "NaN", "0x10", "1e400", ""}) {
    const char* argv[] = {"prog", "--x", bad};
    ASSERT_TRUE(cli.parse(3, argv)) << bad;
    EXPECT_THROW(cli.get_double("x"), InvalidArgument) << "'" << bad << "'";
  }
}

TEST(Cli, DoubleAcceptsPlainDecimalForms) {
  CliParser cli("prog", "test");
  cli.add_flag("x", "x", "0");
  const std::pair<const char*, double> good[] = {
      {"1e-3", 1e-3}, {"+0.5", 0.5}, {".5", 0.5}, {"-2.25", -2.25}, {"3", 3.0}};
  for (const auto& [text, want] : good) {
    const char* argv[] = {"prog", "--x", text};
    ASSERT_TRUE(cli.parse(3, argv)) << text;
    EXPECT_DOUBLE_EQ(cli.get_double("x"), want) << text;
  }
}

// Regression: get_bool used to return false for any unrecognized value, so
// a typo like --verbose=ture silently disabled the feature.
TEST(Cli, BoolRejectsUnrecognizedValues) {
  CliParser cli("prog", "test");
  cli.add_flag("v", "v", "false");
  const char* argv[] = {"prog", "--v=ture"};
  ASSERT_TRUE(cli.parse(2, argv));
  try {
    cli.get_bool("v");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("flag --v expects a boolean"),
              std::string::npos);
  }
  for (const char* text : {"true", "1", "yes"}) {
    const char* argv2[] = {"prog", "--v", text};
    ASSERT_TRUE(cli.parse(3, argv2));
    EXPECT_TRUE(cli.get_bool("v")) << text;
  }
  for (const char* text : {"false", "0", "no"}) {
    const char* argv2[] = {"prog", "--v", text};
    ASSERT_TRUE(cli.parse(3, argv2));
    EXPECT_FALSE(cli.get_bool("v")) << text;
  }
}

// --- TextTable -------------------------------------------------------------

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table({"name", "time"});
  table.add_row({"simple", "636 s"});
  table.add_row({"pipelined", "49.7 s"});
  const std::string out = table.render();
  EXPECT_NE(out.find("simple"), std::string::npos);
  EXPECT_NE(out.find("49.7 s"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgument);
}

TEST(TextTable, MarkdownHasSeparatorRow) {
  TextTable table({"a", "b"});
  table.add_row({"1", "2"});
  const std::string md = table.render_markdown();
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(FormatNum, TrimsTrailingZeros) {
  EXPECT_EQ(format_num(1.50), "1.5");
  EXPECT_EQ(format_num(2.00), "2");
  EXPECT_EQ(format_num(0.25, 2), "0.25");
}

TEST(FormatDuration, MatchesPaperStyle) {
  EXPECT_EQ(format_duration(49.7), "49.7 s");
  EXPECT_EQ(format_duration(636.0), "10.6 min");
  EXPECT_EQ(format_duration(12960.0), "3.6 h");
}

// --- MoveFunction ----------------------------------------------------------

TEST(MoveFunction, InvokesMoveOnlyCapture) {
  auto owned = std::make_unique<int>(41);
  MoveFunction fn = [owned = std::move(owned)]() mutable { ++*owned; };
  fn();
}

TEST(MoveFunction, EmptyIsFalsy) {
  MoveFunction fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(MoveFunction, MoveTransfersCallable) {
  int hits = 0;
  MoveFunction a = [&hits] { ++hits; };
  MoveFunction b = std::move(a);
  b();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(static_cast<bool>(a));
}

// --- Log -------------------------------------------------------------------

TEST(Log, ParseLevelsCaseInsensitive) {
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_THROW(parse_log_level("loud"), InvalidArgument);
}

TEST(Log, ThresholdFilters) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

// --- Errors ----------------------------------------------------------------

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw OutOfDeviceMemory("x"), Error);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    HS_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("numbers disagree"),
              std::string::npos);
  }
}

// --- CRC32C ------------------------------------------------------------------
//
// The hardware body (SSE4.2, where the CPU has it) must return the table
// loop's value for every input: journals, checkpoints, spill frames and
// shared-cache keys on disk never depend on the body that wrote them. The
// table loop runs whenever dispatch is forced to scalar.

std::uint32_t table_crc(const void* data, std::size_t size,
                        std::uint32_t seed = 0) {
  common::ScopedKernelDispatch scalar(common::KernelDispatch::kScalar);
  return crc32c(data, size, seed);
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(size);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next_u64());
  return out;
}

TEST(Crc32cDispatch, CheckValueOnBothBodies) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(check), 0xE3069283u);
  EXPECT_EQ(table_crc(check.data(), check.size()), 0xE3069283u);
}

TEST(Crc32cDispatch, MatchesTableLoopAtEveryShortLengthAndMisalignment) {
  const auto bytes = random_bytes(64 + 8, 1);
  for (std::size_t skew = 0; skew < 8; ++skew) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = bytes.data() + skew;
      ASSERT_EQ(crc32c(p, len), table_crc(p, len))
          << "length " << len << ", misalignment " << skew;
    }
  }
}

TEST(Crc32cDispatch, MatchesTableLoopAtRandomLengthsUpToOneMebibyte) {
  constexpr std::size_t kMax = std::size_t{1} << 20;
  const auto bytes = random_bytes(kMax + 8, 2);
  Rng rng(3);
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(65, static_cast<std::int64_t>(kMax)));
    const std::size_t skew = trial % 8;
    const unsigned char* p = bytes.data() + skew;
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_EQ(crc32c(p, len, seed), table_crc(p, len, seed))
        << "length " << len << ", misalignment " << skew;
  }
}

TEST(Crc32cDispatch, ContinuedInPiecesEqualsOnePass) {
  const auto bytes = random_bytes(4099, 4);
  const std::uint32_t whole = table_crc(bytes.data(), bytes.size());
  for (const std::size_t cut : {0ul, 1ul, 7ul, 8ul, 13ul, 2048ul, 4098ul,
                                4099ul}) {
    const std::uint32_t a = crc32c(bytes.data(), cut);
    EXPECT_EQ(crc32c(bytes.data() + cut, bytes.size() - cut, a), whole)
        << "cut at " << cut;
    const std::uint32_t ta = table_crc(bytes.data(), cut);
    EXPECT_EQ(table_crc(bytes.data() + cut, bytes.size() - cut, ta), whole)
        << "cut at " << cut;
  }
}

// --- read_file -----------------------------------------------------------------

class ReadFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hs_common_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(ReadFileTest, ReadsRegularFilesWhole) {
  const auto bytes = random_bytes(200 * 1024 + 3, 5);
  const std::string expected(bytes.begin(), bytes.end());
  std::ofstream(path("a.bin"), std::ios::binary) << expected;
  std::ofstream(path("empty.bin"), std::ios::binary).flush();
  std::string out = "stale";
  ASSERT_TRUE(read_file(path("a.bin"), &out));
  EXPECT_EQ(out, expected);
  ASSERT_TRUE(read_file(path("empty.bin"), &out));
  EXPECT_TRUE(out.empty());
}

TEST_F(ReadFileTest, MissingFileAndDirectoryFail) {
  std::string out;
  EXPECT_FALSE(read_file(path("absent.bin"), &out));
  EXPECT_FALSE(read_file(dir_.string(), &out));
}

TEST_F(ReadFileTest, UnsizedFileReadsToEof) {
  // A FIFO has no stat size: the chunked path must grow past its first
  // 64 KiB chunk and stop at the writer's EOF.
  const std::string fifo = path("fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const auto bytes = random_bytes(150 * 1024, 6);
  const std::string expected(bytes.begin(), bytes.end());
  std::thread writer([&] {
    std::ofstream(fifo, std::ios::binary) << expected;
  });
  std::string out;
  const bool ok = read_file(fifo, &out);
  writer.join();
  ASSERT_TRUE(ok);
  EXPECT_EQ(out, expected);
}

// --- frame codec -----------------------------------------------------------

constexpr std::uint32_t kTestMagic = 0x54534554u;  // "TEST"

TEST(FrameCodec, IntegersAndFramesRoundTrip) {
  std::string bytes;
  put_u16(bytes, 0xBEEF);
  put_u32(bytes, 0xDEADBEEFu);
  put_u64(bytes, 0x0123456789ABCDEFull);
  ASSERT_EQ(bytes.size(), 14u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0xEFu);  // little-endian
  EXPECT_EQ(static_cast<unsigned char>(bytes[13]), 0x01u);
  EXPECT_EQ(get_u16(bytes.data()), 0xBEEF);
  EXPECT_EQ(get_u32(bytes.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(get_u64(bytes.data() + 6), 0x0123456789ABCDEFull);

  const std::string payload("with\0nul", 8);
  const std::string frame = encode_frame(kTestMagic, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  EXPECT_EQ(get_u32(frame.data()), kTestMagic);
  EXPECT_EQ(get_u32(frame.data() + 4), payload.size());
  EXPECT_EQ(get_u32(frame.data() + 8), crc32c(payload));
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), payload);

  const std::string log = frame + encode_frame(kTestMagic, "") + frame;
  std::vector<std::string> seen;
  EXPECT_EQ(scan_frames(log, kTestMagic, 64,
                        [&](std::string_view p) {
                          seen.emplace_back(p);
                          return true;
                        }),
            log.size());
  EXPECT_EQ(seen, (std::vector<std::string>{payload, "", payload}));
}

TEST(FrameCodec, ScanStopsAtTheFirstBadFrame) {
  const std::string a = encode_frame(kTestMagic, "first");
  const std::string b = encode_frame(kTestMagic, "second");
  const std::string c = encode_frame(kTestMagic, "third");
  // Payloads seen and the valid prefix returned for `bytes`.
  const auto scan = [](const std::string& bytes, std::uint32_t max_payload) {
    std::vector<std::string> seen;
    const std::size_t valid =
        scan_frames(bytes, kTestMagic, max_payload, [&](std::string_view p) {
          seen.emplace_back(p);
          return true;
        });
    return std::make_pair(valid, seen);
  };
  const std::vector<std::string> only_first{"first"};

  std::string bad_magic = a + b + c;
  bad_magic[a.size()] ^= 0x01;
  EXPECT_EQ(scan(bad_magic, 64), std::make_pair(a.size(), only_first));

  // "second" is one byte over a 5-byte bound; "first" fits it exactly.
  EXPECT_EQ(scan(a + b + c, 5), std::make_pair(a.size(), only_first));

  std::string bad_crc = a + b + c;
  bad_crc[a.size() + kFrameHeaderBytes + 2] ^= 0x01;  // inside "second"
  EXPECT_EQ(scan(bad_crc, 64), std::make_pair(a.size(), only_first));

  // A frame running past the end, and a leftover shorter than a header.
  EXPECT_EQ(scan(a + b.substr(0, b.size() - 1), 64),
            std::make_pair(a.size(), only_first));
  EXPECT_EQ(scan(a + b.substr(0, 7), 64),
            std::make_pair(a.size(), only_first));

  // The callback refusing a frame stops the scan there too.
  EXPECT_EQ(scan_frames(a + b + c, kTestMagic, 64,
                        [](std::string_view p) { return p != "second"; }),
            a.size());
}

}  // namespace
}  // namespace hs
