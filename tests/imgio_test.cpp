// Image container + TIFF/PNM codecs + grid layout tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "imgio/grid.hpp"
#include "imgio/image.hpp"
#include "imgio/pnm.hpp"
#include "imgio/tiff.hpp"
#include "file_size_limit.hpp"

namespace hs::img {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("hs_imgio_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

ImageU16 random_image(std::size_t h, std::size_t w, std::uint64_t seed) {
  Rng rng(seed);
  ImageU16 out(h, w);
  for (auto& p : out.pixels()) {
    p = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  }
  return out;
}

/// Hand-builds an uncompressed grayscale TIFF in either byte order: the
/// header, the strips back to back from offset 8, out-of-line strip arrays
/// when there are several strips, then the IFD. Strips are raw file bytes,
/// so a test controls exactly where samples fall across strip boundaries.
void write_strip_tiff(const std::string& path, bool big_endian,
                      std::uint32_t width, std::uint32_t height,
                      std::uint16_t bits,
                      const std::vector<std::vector<std::uint8_t>>& strips) {
  std::vector<std::uint8_t> bytes;
  auto put = [&](std::uint32_t v, int size) {
    for (int i = 0; i < size; ++i) {
      const int shift = 8 * (big_endian ? size - 1 - i : i);
      bytes.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
    }
  };
  bytes.assign(2, big_endian ? 'M' : 'I');
  put(42, 2);
  put(0, 4);  // IFD offset, patched below
  std::vector<std::uint32_t> offsets, counts;
  for (const auto& strip : strips) {
    offsets.push_back(static_cast<std::uint32_t>(bytes.size()));
    counts.push_back(static_cast<std::uint32_t>(strip.size()));
    bytes.insert(bytes.end(), strip.begin(), strip.end());
  }
  auto array = [&](const std::vector<std::uint32_t>& values) {
    if (values.size() == 1) return values[0];  // stored inline
    const auto at = static_cast<std::uint32_t>(bytes.size());
    for (std::uint32_t v : values) put(v, 4);
    return at;
  };
  const std::uint32_t offsets_value = array(offsets);
  const std::uint32_t counts_value = array(counts);
  const auto ifd = static_cast<std::uint32_t>(bytes.size());
  put(8, 2);  // entry count
  auto entry = [&](std::uint16_t tag, std::uint16_t type, std::uint32_t count,
                   std::uint32_t value) {
    put(tag, 2);
    put(type, 2);
    put(count, 4);
    if (type == 3) {  // SHORT: left-justified in the value field
      put(value, 2);
      put(0, 2);
    } else {
      put(value, 4);
    }
  };
  const auto strip_count = static_cast<std::uint32_t>(strips.size());
  entry(256, 4, 1, width);
  entry(257, 4, 1, height);
  entry(258, 3, 1, bits);
  entry(259, 3, 1, 1);  // no compression
  entry(262, 3, 1, 1);  // BlackIsZero
  entry(273, 4, strip_count, offsets_value);
  entry(278, 4, 1, height);  // rows per strip: the reader ignores it
  entry(279, 4, strip_count, counts_value);
  put(0, 4);  // no next IFD
  for (int i = 0; i < 4; ++i) {
    const int shift = 8 * (big_endian ? 3 - i : i);
    bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((ifd >> shift) & 0xFF);
  }
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

/// Sample i of the strip tests: its two bytes differ, so a swapped, shifted
/// or dropped byte changes the value.
std::uint16_t strip_sample(std::size_t i) {
  return static_cast<std::uint16_t>(0x0103 * (i + 1));
}

/// `count` strip samples as file bytes in the given order.
std::vector<std::uint8_t> sample_bytes(std::size_t count, bool big_endian) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint16_t v = strip_sample(i);
    const auto hi = static_cast<std::uint8_t>(v >> 8);
    const auto lo = static_cast<std::uint8_t>(v & 0xFF);
    out.push_back(big_endian ? hi : lo);
    out.push_back(big_endian ? lo : hi);
  }
  return out;
}

/// Cuts `bytes` into consecutive strips of the given sizes.
std::vector<std::vector<std::uint8_t>> cut_strips(
    const std::vector<std::uint8_t>& bytes,
    const std::vector<std::size_t>& sizes) {
  std::vector<std::vector<std::uint8_t>> out;
  std::size_t at = 0;
  for (const std::size_t size : sizes) {
    out.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     bytes.begin() + static_cast<std::ptrdiff_t>(at + size));
    at += size;
  }
  EXPECT_EQ(at, bytes.size()) << "strip sizes must cover the bytes";
  return out;
}

void expect_strip_samples(const ImageU16& image, std::size_t height,
                          std::size_t width) {
  ASSERT_EQ(image.height(), height);
  ASSERT_EQ(image.width(), width);
  for (std::size_t i = 0; i < height * width; ++i) {
    ASSERT_EQ(image.data()[i], strip_sample(i)) << "pixel " << i;
  }
}

// --- Image container ---------------------------------------------------------

TEST(Image, RowMajorLayout) {
  ImageU16 image(3, 5);
  image.at(1, 2) = 42;
  EXPECT_EQ(image.data()[1 * 5 + 2], 42);
  EXPECT_EQ(image.row(1)[2], 42);
}

TEST(Image, FillValueApplied) {
  ImageU16 image(4, 4, 7);
  for (auto p : image.pixels()) EXPECT_EQ(p, 7);
}

TEST(Image, CropExtractsSubrectangle) {
  ImageU16 image = random_image(10, 12, 1);
  ImageU16 crop = image.crop(2, 3, 4, 5);
  ASSERT_EQ(crop.height(), 4u);
  ASSERT_EQ(crop.width(), 5u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(crop.at(r, c), image.at(2 + r, 3 + c));
    }
  }
}

TEST(Image, CropOutOfBoundsThrows) {
  ImageU16 image(4, 4);
  EXPECT_THROW(image.crop(2, 2, 3, 1), InvalidArgument);
}

TEST(Image, ConvertClampedSaturates) {
  ImageF64 image(1, 3);
  image.at(0, 0) = -5.0;
  image.at(0, 1) = 300.0;
  image.at(0, 2) = 128.4;
  const auto out = image.convert_clamped<std::uint8_t>();
  EXPECT_EQ(out.at(0, 0), 0);
  EXPECT_EQ(out.at(0, 1), 255);
  EXPECT_EQ(out.at(0, 2), 128);
}

TEST(Image, ToDoubleWidensLosslessly) {
  ImageU16 image = random_image(5, 7, 2);
  const auto d = to_double(image);
  for (std::size_t i = 0; i < image.pixel_count(); ++i) {
    EXPECT_EQ(d.data()[i], static_cast<double>(image.data()[i]));
  }
}

// --- TIFF --------------------------------------------------------------------

TEST(Tiff, RoundTrips16Bit) {
  TempDir dir;
  const ImageU16 original = random_image(33, 47, 3);
  write_tiff_u16(dir.str("a.tif"), original);
  TiffInfo info;
  const ImageU16 loaded = read_tiff_u16(dir.str("a.tif"), &info);
  ASSERT_TRUE(loaded.same_shape(original));
  EXPECT_EQ(info.bits_per_sample, 16u);
  EXPECT_FALSE(info.big_endian);
  for (std::size_t i = 0; i < original.pixel_count(); ++i) {
    ASSERT_EQ(loaded.data()[i], original.data()[i]) << "pixel " << i;
  }
}

TEST(Tiff, RoundTripsAcrossStripSizes) {
  TempDir dir;
  const ImageU16 original = random_image(65, 29, 4);
  for (std::size_t rows_per_strip : {1ul, 7ul, 64ul, 1000ul}) {
    const std::string path = dir.str("s" + std::to_string(rows_per_strip) + ".tif");
    write_tiff_u16(path, original, rows_per_strip);
    const ImageU16 loaded = read_tiff_u16(path);
    for (std::size_t i = 0; i < original.pixel_count(); ++i) {
      ASSERT_EQ(loaded.data()[i], original.data()[i]);
    }
  }
}

TEST(Tiff, EightBitWidensTo16) {
  TempDir dir;
  ImageU8 original(9, 11);
  Rng rng(5);
  for (auto& p : original.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  write_tiff_u8(dir.str("b.tif"), original);
  TiffInfo info;
  const ImageU16 loaded = read_tiff_u16(dir.str("b.tif"), &info);
  EXPECT_EQ(info.bits_per_sample, 8u);
  for (std::size_t i = 0; i < original.pixel_count(); ++i) {
    EXPECT_EQ(loaded.data()[i], original.data()[i] * 257);
  }
}

TEST(Tiff, ReadsBigEndianFiles) {
  // A tiny 2x2 big-endian 16-bit TIFF, one strip.
  TempDir dir;
  const std::string path = dir.str("be.tif");
  write_strip_tiff(path, /*big_endian=*/true, 2, 2, 16,
                   {{0, 1, 0, 2, 0, 3, 0, 4}});

  TiffInfo info;
  const ImageU16 loaded = read_tiff_u16(path, &info);
  EXPECT_TRUE(info.big_endian);
  ASSERT_EQ(loaded.height(), 2u);
  ASSERT_EQ(loaded.width(), 2u);
  EXPECT_EQ(loaded.at(0, 0), 1);
  EXPECT_EQ(loaded.at(0, 1), 2);
  EXPECT_EQ(loaded.at(1, 0), 3);
  EXPECT_EQ(loaded.at(1, 1), 4);
}

TEST(Tiff, SampleSplitAcrossStripsDecodes) {
  // Odd strip byte counts put the strip boundaries inside samples 2 and 5.
  TempDir dir;
  const std::string path = dir.str("split.tif");
  write_strip_tiff(path, false, 3, 3, 16,
                   cut_strips(sample_bytes(9, false), {5, 6, 7}));
  expect_strip_samples(read_tiff_u16(path), 3, 3);
}

TEST(Tiff, BigEndianAcrossSeveralStrips) {
  TempDir dir;
  const auto bytes = sample_bytes(20, true);
  // One strip per row, then odd strips that split samples.
  const std::string rows = dir.str("rows.tif");
  write_strip_tiff(rows, true, 4, 5, 16, cut_strips(bytes, {8, 8, 8, 8, 8}));
  expect_strip_samples(read_tiff_u16(rows), 5, 4);
  const std::string odd = dir.str("odd.tif");
  write_strip_tiff(odd, true, 4, 5, 16, cut_strips(bytes, {3, 13, 1, 23}));
  TiffInfo info;
  expect_strip_samples(read_tiff_u16(odd, &info), 5, 4);
  EXPECT_TRUE(info.big_endian);
}

TEST(Tiff, StripBytesPastImageAreIgnored) {
  TempDir dir;
  // 16-bit: the raster ends inside the second strip, and a third strip
  // holds nothing but excess bytes.
  auto bytes = sample_bytes(6, false);
  bytes.insert(bytes.end(), {0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11});
  const std::string wide = dir.str("excess16.tif");
  write_strip_tiff(wide, false, 3, 2, 16, cut_strips(bytes, {7, 9, 3}));
  expect_strip_samples(read_tiff_u16(wide), 2, 3);

  // 8-bit: same, with the widening to 16 bits.
  const std::string narrow = dir.str("excess8.tif");
  write_strip_tiff(narrow, true, 2, 2, 8, {{10, 20, 30}, {40, 99}, {98}});
  const ImageU16 loaded = read_tiff_u16(narrow);
  ASSERT_EQ(loaded.pixel_count(), 4u);
  EXPECT_EQ(loaded.at(0, 0), 10 * 257);
  EXPECT_EQ(loaded.at(0, 1), 20 * 257);
  EXPECT_EQ(loaded.at(1, 0), 30 * 257);
  EXPECT_EQ(loaded.at(1, 1), 40 * 257);
}

TEST(Tiff, ShortFinalWriteThrows) {
  // The whole file fits in the stream's buffer, so the short write happens
  // in the final flush.
  TempDir dir;
  const ImageU16 image = random_image(8, 8, 5);
  const hs::testing::FileSizeLimit limit(100);
  EXPECT_THROW(write_tiff_u16(dir.str("t.tif"), image), IoError);
}

TEST(Tiff, RejectsMissingFile) {
  EXPECT_THROW(read_tiff_u16("/nonexistent/path/x.tif"), IoError);
}

TEST(Tiff, RejectsGarbage) {
  TempDir dir;
  std::ofstream(dir.str("junk.tif"), std::ios::binary) << "not a tiff at all";
  EXPECT_THROW(read_tiff_u16(dir.str("junk.tif")), IoError);
}

TEST(Tiff, RejectsTruncatedPixelData) {
  TempDir dir;
  const ImageU16 original = random_image(16, 16, 6);
  write_tiff_u16(dir.str("t.tif"), original, 1000);
  // Truncate mid-pixel-data.
  const auto size = fs::file_size(dir.str("t.tif"));
  fs::resize_file(dir.str("t.tif"), size / 2);
  EXPECT_THROW(read_tiff_u16(dir.str("t.tif")), IoError);
}

// --- malformed-header corpus -------------------------------------------------
//
// Hand-patched files exercising the defects a long-running acquisition
// system actually meets: interrupted writers, bad firmware, overwritten
// directories. Every one must throw IoError — never crash, hang, or read
// out of bounds. The files are little-endian (our writer's byte order), so
// the patch helpers below are little-endian too.

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t le32(const std::vector<std::uint8_t>& b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) | (b[off + 1] << 8) |
         (b[off + 2] << 16) | (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

void patch32(std::vector<std::uint8_t>& b, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

/// Offset of the 12-byte IFD entry for `tag` (the value field is at +8).
std::size_t entry_offset(const std::vector<std::uint8_t>& b,
                         std::uint16_t tag) {
  const std::size_t ifd = le32(b, 4);
  const std::size_t count = b[ifd] | (b[ifd + 1] << 8);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t e = ifd + 2 + i * 12;
    if ((b[e] | (b[e + 1] << 8)) == tag) return e;
  }
  ADD_FAILURE() << "tag " << tag << " not found";
  return 0;
}

TEST(TiffCorpus, TruncatedStripTableRejected) {
  TempDir dir;
  const std::string path = dir.str("strips.tif");
  // One strip per row forces the strip arrays out of line; claiming vastly
  // more strips than the file holds walks the arrays past EOF.
  write_tiff_u16(path, random_image(8, 8, 11), 1);
  auto bytes = slurp(path);
  patch32(bytes, entry_offset(bytes, 273) + 4, 1u << 20);  // StripOffsets
  patch32(bytes, entry_offset(bytes, 279) + 4, 1u << 20);  // StripByteCounts
  spit(path, bytes);
  EXPECT_THROW(read_tiff_u16(path), IoError);
}

TEST(TiffCorpus, StripOffsetPastEofRejected) {
  TempDir dir;
  const std::string path = dir.str("offset.tif");
  write_tiff_u16(path, random_image(8, 8, 12), 1000);  // single inline strip
  auto bytes = slurp(path);
  patch32(bytes, entry_offset(bytes, 273) + 8,
          static_cast<std::uint32_t>(bytes.size()) + 1000);
  spit(path, bytes);
  EXPECT_THROW(read_tiff_u16(path), IoError);
}

TEST(TiffCorpus, ZeroBitsPerSampleRejected) {
  TempDir dir;
  const std::string path = dir.str("bits.tif");
  write_tiff_u16(path, random_image(4, 4, 13), 1000);
  auto bytes = slurp(path);
  const std::size_t value = entry_offset(bytes, 258) + 8;
  bytes[value] = 0;  // inline SHORT value, little-endian low byte
  bytes[value + 1] = 0;
  spit(path, bytes);
  EXPECT_THROW(read_tiff_u16(path), IoError);
}

TEST(TiffCorpus, IfdCycleRejectedNotHung) {
  TempDir dir;
  const std::string path = dir.str("cycle.tif");
  write_tiff_u16(path, random_image(4, 4, 14), 1000);
  auto bytes = slurp(path);
  // The writer puts the IFD last: its trailing next-IFD pointer is the
  // final 4 bytes. Point it back at the IFD itself.
  patch32(bytes, bytes.size() - 4, le32(bytes, 4));
  spit(path, bytes);
  EXPECT_THROW(read_tiff_u16(path), IoError);
}

TEST(TiffCorpus, SecondIfdEntryTablePastEofRejected) {
  TempDir dir;
  const std::string path = dir.str("chain.tif");
  write_tiff_u16(path, random_image(4, 4, 15), 1000);
  auto bytes = slurp(path);
  // Chain to a "directory" at EOF whose claimed entry table cannot fit.
  const std::uint32_t bogus = static_cast<std::uint32_t>(bytes.size());
  patch32(bytes, bytes.size() - 4, bogus);
  bytes.push_back(0xFF);  // entry count low byte: 255 entries, no bytes
  bytes.push_back(0x00);
  spit(path, bytes);
  EXPECT_THROW(read_tiff_u16(path), IoError);
}

TEST(TiffCorpus, ExtentsBeyondFileRejectedBeforeAllocating) {
  TempDir dir;
  const std::string path = dir.str("huge.tif");
  write_tiff_u16(path, random_image(4, 4, 16), 1000);
  auto bytes = slurp(path);
  // 2^31 x 2^31 16-bit samples: 2^63 bytes, far past the file's size.
  patch32(bytes, entry_offset(bytes, 256) + 8, 1u << 31);  // ImageWidth
  patch32(bytes, entry_offset(bytes, 257) + 8, 1u << 31);  // ImageLength
  spit(path, bytes);
  EXPECT_THROW(read_tiff_u16(path), IoError);
}

// --- PNM ---------------------------------------------------------------------

TEST(Pgm, RoundTrips16Bit) {
  TempDir dir;
  const ImageU16 original = random_image(21, 17, 7);
  write_pgm_u16(dir.str("a.pgm"), original);
  const ImageU16 loaded = read_pgm_u16(dir.str("a.pgm"));
  ASSERT_TRUE(loaded.same_shape(original));
  for (std::size_t i = 0; i < original.pixel_count(); ++i) {
    ASSERT_EQ(loaded.data()[i], original.data()[i]);
  }
}

TEST(Pgm, ShortFinalWriteThrows) {
  TempDir dir;
  ImageU8 image(16, 16);
  const hs::testing::FileSizeLimit limit(100);  // of 269 bytes
  EXPECT_THROW(write_pgm_u8(dir.str("a.pgm"), image), IoError);
}

TEST(Pgm, ReadsCommentsInHeader) {
  TempDir dir;
  const std::string path = dir.str("c.pgm");
  std::ofstream file(path, std::ios::binary);
  file << "P5\n# a comment\n2 1\n255\n";
  file.put(static_cast<char>(10));
  file.put(static_cast<char>(200));
  file.close();
  const ImageU16 loaded = read_pgm_u16(path);
  EXPECT_EQ(loaded.at(0, 0), 10);
  EXPECT_EQ(loaded.at(0, 1), 200);
}

TEST(Pgm, RejectsNonPgm) {
  TempDir dir;
  std::ofstream(dir.str("x.pgm"), std::ios::binary) << "P6 1 1 255 xxx";
  EXPECT_THROW(read_pgm_u16(dir.str("x.pgm")), IoError);
}

// Regression: non-canonical maxvals (10-bit cameras write 1023) used to be
// loaded verbatim, leaving the image ~64x too dark for the NCC stage. They
// are now rescaled to the full 16-bit range, rounding to nearest.
TEST(Pgm, RescalesTenBitMaxval) {
  TempDir dir;
  const std::string path = dir.str("tenbit.pgm");
  std::ofstream file(path, std::ios::binary);
  file << "P5\n3 1\n1023\n";
  // Big-endian 16-bit samples: 0, 512, 1023.
  const std::uint8_t raw[] = {0, 0, 2, 0, 3, 255};
  file.write(reinterpret_cast<const char*>(raw), sizeof raw);
  file.close();
  const ImageU16 loaded = read_pgm_u16(path);
  EXPECT_EQ(loaded.at(0, 0), 0);
  EXPECT_EQ(loaded.at(0, 1), (512u * 65535 + 511) / 1023);
  EXPECT_EQ(loaded.at(0, 2), 65535);
}

TEST(Pgm, RescalesNarrowMaxval) {
  TempDir dir;
  const std::string path = dir.str("narrow.pgm");
  std::ofstream file(path, std::ios::binary);
  file << "P5\n2 1\n100\n";
  file.put(static_cast<char>(0));
  file.put(static_cast<char>(100));
  file.close();
  const ImageU16 loaded = read_pgm_u16(path);
  EXPECT_EQ(loaded.at(0, 0), 0);
  EXPECT_EQ(loaded.at(0, 1), 65535) << "full-scale must map to full-scale";
}

TEST(Pgm, RejectsSampleAboveMaxval) {
  TempDir dir;
  const std::string path = dir.str("over.pgm");
  std::ofstream file(path, std::ios::binary);
  file << "P5\n1 1\n1023\n";
  const std::uint8_t raw[] = {4, 0};  // 1024 > maxval 1023
  file.write(reinterpret_cast<const char*>(raw), sizeof raw);
  file.close();
  EXPECT_THROW(read_pgm_u16(path), IoError);
}

TEST(Pgm, CanonicalMaxvalsStayVerbatim) {
  TempDir dir;
  const std::string path = dir.str("canon.pgm");
  std::ofstream file(path, std::ios::binary);
  file << "P5\n1 1\n65535\n";
  const std::uint8_t raw[] = {1, 2};  // 258, must not be rescaled
  file.write(reinterpret_cast<const char*>(raw), sizeof raw);
  file.close();
  EXPECT_EQ(read_pgm_u16(path).at(0, 0), 258);
}

TEST(Pgm, RejectsExtentsBeyondFile) {
  // 2^32 x 2^32 used to wrap to zero pixels and load as an empty image.
  TempDir dir;
  const std::string path = dir.str("huge.pgm");
  std::ofstream(path, std::ios::binary) << "P5\n4294967296 4294967296\n65535\n";
  EXPECT_THROW(read_pgm_u16(path), IoError);
}

TEST(Pgm, RejectsHeaderNumberPastSizeMax) {
  // 2^64 + 1 used to wrap to a width of 1.
  TempDir dir;
  const std::string path = dir.str("wrap.pgm");
  std::ofstream(path, std::ios::binary) << "P5\n18446744073709551617 1\n255\nx";
  EXPECT_THROW(read_pgm_u16(path), IoError);
}

TEST(Ppm, WritesExpectedSize) {
  TempDir dir;
  RgbImage image(4, 6);
  image.set(2, 3, {255, 0, 0});
  write_ppm(dir.str("a.ppm"), image);
  // Header "P6\n6 4\n255\n" = 11 bytes + 72 pixel bytes.
  EXPECT_EQ(fs::file_size(dir.str("a.ppm")), 11u + 4 * 6 * 3);
}

// --- grid layout -------------------------------------------------------------

TEST(GridLayout, IndexRoundTrip) {
  GridLayout layout{4, 7};
  for (std::size_t i = 0; i < layout.tile_count(); ++i) {
    EXPECT_EQ(layout.index_of(layout.pos_of(i)), i);
  }
}

TEST(GridLayout, NeighborPredicates) {
  GridLayout layout{3, 3};
  EXPECT_FALSE(layout.has_west(TilePos{0, 0}));
  EXPECT_FALSE(layout.has_north(TilePos{0, 0}));
  EXPECT_TRUE(layout.has_east(TilePos{0, 0}));
  EXPECT_TRUE(layout.has_south(TilePos{0, 0}));
  EXPECT_FALSE(layout.has_east(TilePos{2, 2}));
  EXPECT_FALSE(layout.has_south(TilePos{2, 2}));
}

TEST(GridLayout, PairCountMatchesPaperFormula) {
  // Table I: 2nm - n - m adjacent pairs.
  EXPECT_EQ((GridLayout{42, 59}).pair_count(), 2u * 42 * 59 - 42 - 59);
  EXPECT_EQ((GridLayout{1, 1}).pair_count(), 0u);
  EXPECT_EQ((GridLayout{1, 5}).pair_count(), 4u);
  EXPECT_EQ((GridLayout{5, 1}).pair_count(), 4u);
}

TEST(Pattern, ExpandsFieldsAndPadding) {
  EXPECT_EQ(expand_pattern("t_r{r}_c{c}.tif", TilePos{4, 17}, 99),
            "t_r4_c17.tif");
  EXPECT_EQ(expand_pattern("img_{i:5}.tif", TilePos{0, 0}, 42),
            "img_00042.tif");
  EXPECT_EQ(expand_pattern("r{r:2}c{c:2}.pgm", TilePos{3, 11}, 0),
            "r03c11.pgm");
}

TEST(Pattern, RejectsUnknownField) {
  EXPECT_THROW(expand_pattern("{z}.tif", TilePos{0, 0}, 0), InvalidArgument);
}

TEST(Pattern, RejectsUnterminatedBrace) {
  EXPECT_THROW(expand_pattern("tile_{r.tif", TilePos{0, 0}, 0),
               InvalidArgument);
}

TEST(Dataset, LoadsTilesByPattern) {
  TempDir dir;
  const ImageU16 a = random_image(8, 8, 10);
  const ImageU16 b = random_image(8, 8, 11);
  write_tiff_u16(dir.str("tile_r0_c0.tif"), a);
  write_tiff_u16(dir.str("tile_r0_c1.tif"), b);
  TileGridDataset dataset(dir.str(""), "tile_r{r}_c{c}.tif", GridLayout{1, 2});
  EXPECT_TRUE(dataset.missing_tiles().empty());
  const ImageU16 loaded = dataset.load(TilePos{0, 1});
  EXPECT_EQ(loaded.at(3, 3), b.at(3, 3));
}

TEST(Dataset, ReportsMissingTiles) {
  TempDir dir;
  write_tiff_u16(dir.str("tile_r0_c0.tif"), random_image(4, 4, 12));
  TileGridDataset dataset(dir.str(""), "tile_r{r}_c{c}.tif", GridLayout{1, 3});
  const auto missing = dataset.missing_tiles();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_NE(missing[0].find("tile_r0_c1.tif"), std::string::npos);
}

TEST(Dataset, PgmExtensionUsesPgmCodec) {
  TempDir dir;
  const ImageU16 a = random_image(6, 6, 13);
  write_pgm_u16(dir.str("t_0.pgm"), a);
  TileGridDataset dataset(dir.str(""), "t_{i}.pgm", GridLayout{1, 1});
  const ImageU16 loaded = dataset.load(TilePos{0, 0});
  EXPECT_EQ(loaded.at(5, 5), a.at(5, 5));
}

}  // namespace
}  // namespace hs::img
