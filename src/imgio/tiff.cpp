#include "imgio/tiff.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/file.hpp"

namespace hs::img {

namespace {

// TIFF tag numbers used by the baseline grayscale subset.
enum : std::uint16_t {
  kTagImageWidth = 256,
  kTagImageLength = 257,
  kTagBitsPerSample = 258,
  kTagCompression = 259,
  kTagPhotometric = 262,
  kTagStripOffsets = 273,
  kTagSamplesPerPixel = 277,
  kTagRowsPerStrip = 278,
  kTagStripByteCounts = 279,
  kTagSampleFormat = 339,
};

enum : std::uint16_t {
  kTypeShort = 3,  // 2 bytes
  kTypeLong = 4,   // 4 bytes
};

class Reader {
 public:
  Reader(std::string bytes, std::string path)
      : bytes_(std::move(bytes)), path_(std::move(path)) {}

  std::uint16_t u16(std::size_t off) const {
    const char* p = reinterpret_cast<const char*>(at(off, 2));
    return big_endian_ ? __builtin_bswap16(get_u16(p)) : get_u16(p);
  }

  std::uint32_t u32(std::size_t off) const {
    const char* p = reinterpret_cast<const char*>(at(off, 4));
    return big_endian_ ? __builtin_bswap32(get_u32(p)) : get_u32(p);
  }

  const std::uint8_t* at(std::size_t off, std::size_t len) const {
    check(off, len);
    return reinterpret_cast<const std::uint8_t*>(bytes_.data()) + off;
  }

  void set_big_endian(bool value) { big_endian_ = value; }
  bool big_endian() const { return big_endian_; }
  std::size_t size() const { return bytes_.size(); }
  const std::string& path() const { return path_; }

  [[noreturn]] void fail(const std::string& why) const {
    throw IoError("TIFF '" + path_ + "': " + why);
  }

 private:
  void check(std::size_t off, std::size_t len) const {
    if (off + len > bytes_.size() || off + len < off) {
      fail("truncated file (offset past end)");
    }
  }
  std::string bytes_;
  std::string path_;
  bool big_endian_ = false;
};

struct IfdEntry {
  std::uint16_t type = 0;
  std::uint32_t count = 0;
  std::size_t value_offset = 0;  // offset of the value field itself
};

std::size_t type_size(std::uint16_t type) {
  switch (type) {
    case kTypeShort: return 2;
    case kTypeLong: return 4;
    default: return 0;
  }
}

/// Reads element i of an entry's value array (inline or via offset).
std::uint32_t entry_value(const Reader& r, const IfdEntry& e, std::uint32_t i) {
  const std::size_t elem = type_size(e.type);
  if (elem == 0) {
    throw IoError("TIFF '" + r.path() + "': unsupported field type " +
                  std::to_string(e.type));
  }
  const std::size_t total = elem * e.count;
  std::size_t base = e.value_offset;
  if (total > 4) base = r.u32(e.value_offset);  // stored out of line
  const std::size_t off = base + elem * i;
  return e.type == kTypeShort ? r.u16(off) : r.u32(off);
}

}  // namespace

ImageU16 read_tiff_u16(const std::string& path, TiffInfo* info) {
  std::string bytes;
  if (!read_file(path, &bytes)) throw IoError("cannot open TIFF file: " + path);
  Reader r(std::move(bytes), path);
  if (r.size() < 8) r.fail("too small for a header");

  const std::uint8_t b0 = *r.at(0, 1);
  const std::uint8_t b1 = *r.at(1, 1);
  if (b0 == 'I' && b1 == 'I') {
    r.set_big_endian(false);
  } else if (b0 == 'M' && b1 == 'M') {
    r.set_big_endian(true);
  } else {
    r.fail("bad byte-order mark");
  }
  if (r.u16(2) != 42) r.fail("bad magic number");

  const std::uint32_t ifd_offset = r.u32(4);
  const std::uint16_t entry_count = r.u16(ifd_offset);
  std::map<std::uint16_t, IfdEntry> entries;
  for (std::uint16_t i = 0; i < entry_count; ++i) {
    const std::size_t e = ifd_offset + 2 + static_cast<std::size_t>(i) * 12;
    const std::uint16_t tag = r.u16(e);
    entries[tag] = IfdEntry{r.u16(e + 2), r.u32(e + 4), e + 8};
  }

  // Walk the rest of the IFD chain defensively. Directories past the first
  // are not decoded (single-image subset), but a malformed chain — a cycle,
  // or a directory whose entry table runs past the file — must fail cleanly
  // instead of hanging or reading out of bounds. A next-IFD pointer cut off
  // by EOF is the one field legacy writers omit; treat it as "no next".
  auto next_ifd = [&](std::size_t off) -> std::uint32_t {
    return off + 4 <= r.size() ? r.u32(off) : 0;
  };
  std::unordered_set<std::uint32_t> visited{ifd_offset};
  std::uint32_t next =
      next_ifd(ifd_offset + 2 + static_cast<std::size_t>(entry_count) * 12);
  while (next != 0) {
    if (!visited.insert(next).second) r.fail("IFD chain contains a cycle");
    if (visited.size() > 4096) r.fail("unreasonably long IFD chain");
    const std::uint16_t n = r.u16(next);
    (void)r.at(next + 2, static_cast<std::size_t>(n) * 12);
    next = next_ifd(next + 2 + static_cast<std::size_t>(n) * 12);
  }

  auto required = [&](std::uint16_t tag) -> const IfdEntry& {
    auto it = entries.find(tag);
    if (it == entries.end()) {
      r.fail("missing required tag " + std::to_string(tag));
    }
    return it->second;
  };
  auto scalar_or = [&](std::uint16_t tag, std::uint32_t fallback) {
    auto it = entries.find(tag);
    return it == entries.end() ? fallback : entry_value(r, it->second, 0);
  };

  const std::size_t width = entry_value(r, required(kTagImageWidth), 0);
  const std::size_t height = entry_value(r, required(kTagImageLength), 0);
  const std::uint32_t bits = scalar_or(kTagBitsPerSample, 1);
  if (bits != 8 && bits != 16) {
    r.fail("unsupported bits-per-sample " + std::to_string(bits));
  }
  if (scalar_or(kTagCompression, 1) != 1) r.fail("compressed data unsupported");
  if (scalar_or(kTagSamplesPerPixel, 1) != 1) {
    r.fail("only single-sample grayscale supported");
  }
  if (const auto fmt = scalar_or(kTagSampleFormat, 1); fmt != 1) {
    r.fail("only unsigned-integer samples supported");
  }
  if (width == 0 || height == 0) r.fail("zero image dimension");

  const IfdEntry& offsets = required(kTagStripOffsets);
  const IfdEntry& counts = required(kTagStripByteCounts);
  if (offsets.count != counts.count) {
    r.fail("strip offset/count arrays disagree");
  }

  // The declared extents must fit in the file before anything is allocated.
  // The division form cannot overflow, however large the IFD's values.
  const std::size_t bytes_per_pixel = bits / 8;
  if (width > r.size() / bytes_per_pixel / height) {
    r.fail("image extents exceed the file size");
  }
  const std::size_t expected = width * height * bytes_per_pixel;

  // Strips concatenate, in order, into the raster; each is decoded straight
  // into the image. A 16-bit sample may straddle two strips (the byte copy
  // does not care), and strip bytes past the raster are ignored, though
  // every strip must still lie inside the file.
  ImageU16 out(height, width);
  auto* raster = reinterpret_cast<std::uint8_t*>(out.data());
  std::size_t filled = 0;
  for (std::uint32_t s = 0; s < offsets.count; ++s) {
    const std::uint32_t off = entry_value(r, offsets, s);
    const std::uint32_t len = entry_value(r, counts, s);
    const std::uint8_t* src = r.at(off, len);
    const std::size_t take = std::min<std::size_t>(len, expected - filled);
    if (bits == 16) {
      std::memcpy(raster + filled, src, take);
    } else {
      // Widen 8-bit to the full 16-bit range (255 -> 65535).
      std::uint16_t* dst = out.data() + filled;
      for (std::size_t i = 0; i < take; ++i) {
        dst[i] = static_cast<std::uint16_t>(src[i] * 257u);
      }
    }
    filled += take;
  }
  if (filled < expected) r.fail("pixel data shorter than image");
  const bool host_big_endian = std::endian::native == std::endian::big;
  if (bits == 16 && r.big_endian() != host_big_endian) {
    for (std::uint16_t& px : out.pixels()) {
      px = static_cast<std::uint16_t>((px << 8) | (px >> 8));
    }
  }

  if (info != nullptr) {
    *info = TiffInfo{width, height, bits, r.big_endian()};
  }
  return out;
}

namespace {

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_u16(bytes_, v); }
  void u32(std::uint32_t v) { put_u32(bytes_, v); }
  void raw(const void* data, std::size_t len) {
    bytes_.append(static_cast<const char*>(data), len);
  }
  void patch_u32(std::size_t off, std::uint32_t v) {
    std::string le;
    put_u32(le, v);
    bytes_.replace(off, le.size(), le);
  }
  std::size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

struct TagValue {
  std::uint16_t tag;
  std::uint16_t type;
  std::uint32_t count;
  std::uint32_t value;  // inline value or offset (arrays pre-written)
};

void write_tiff_impl(const std::string& path, const std::uint8_t* pixels,
                     std::size_t height, std::size_t width, unsigned bits,
                     std::size_t rows_per_strip) {
  HS_REQUIRE(height > 0 && width > 0, "cannot write empty TIFF");
  HS_REQUIRE(rows_per_strip > 0, "rows_per_strip must be positive");
  const std::size_t bytes_per_row = width * (bits / 8);
  const std::size_t strip_count = (height + rows_per_strip - 1) / rows_per_strip;

  Writer w;
  w.u8('I');
  w.u8('I');
  w.u16(42);
  const std::size_t ifd_offset_pos = w.size();
  w.u32(0);  // patched once the IFD position is known

  // Pixel strips.
  std::vector<std::uint32_t> strip_offsets, strip_counts;
  for (std::size_t s = 0; s < strip_count; ++s) {
    const std::size_t row0 = s * rows_per_strip;
    const std::size_t rows = std::min(rows_per_strip, height - row0);
    strip_offsets.push_back(static_cast<std::uint32_t>(w.size()));
    strip_counts.push_back(static_cast<std::uint32_t>(rows * bytes_per_row));
    w.raw(pixels + row0 * bytes_per_row, rows * bytes_per_row);
  }

  // Out-of-line strip arrays (only needed when they exceed 4 bytes).
  std::uint32_t offsets_value = strip_offsets[0];
  std::uint32_t counts_value = strip_counts[0];
  if (strip_count > 1) {
    offsets_value = static_cast<std::uint32_t>(w.size());
    for (std::uint32_t v : strip_offsets) w.u32(v);
    counts_value = static_cast<std::uint32_t>(w.size());
    for (std::uint32_t v : strip_counts) w.u32(v);
  }

  const std::vector<TagValue> tags = {
      {kTagImageWidth, kTypeLong, 1, static_cast<std::uint32_t>(width)},
      {kTagImageLength, kTypeLong, 1, static_cast<std::uint32_t>(height)},
      {kTagBitsPerSample, kTypeShort, 1, bits},
      {kTagCompression, kTypeShort, 1, 1},
      {kTagPhotometric, kTypeShort, 1, 1},  // BlackIsZero
      {kTagStripOffsets, kTypeLong, static_cast<std::uint32_t>(strip_count),
       offsets_value},
      {kTagSamplesPerPixel, kTypeShort, 1, 1},
      {kTagRowsPerStrip, kTypeLong, 1,
       static_cast<std::uint32_t>(rows_per_strip)},
      {kTagStripByteCounts, kTypeLong, static_cast<std::uint32_t>(strip_count),
       counts_value},
      {kTagSampleFormat, kTypeShort, 1, 1},
  };

  const std::uint32_t ifd_offset = static_cast<std::uint32_t>(w.size());
  w.u16(static_cast<std::uint16_t>(tags.size()));
  for (const TagValue& t : tags) {
    w.u16(t.tag);
    w.u16(t.type);
    w.u32(t.count);
    if (t.type == kTypeShort && t.count == 1) {
      w.u16(static_cast<std::uint16_t>(t.value));
      w.u16(0);
    } else {
      w.u32(t.value);
    }
  }
  w.u32(0);  // no next IFD
  w.patch_u32(ifd_offset_pos, ifd_offset);

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw IoError("cannot create TIFF file: " + path);
  file.write(w.bytes().data(), static_cast<std::streamsize>(w.size()));
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to TIFF file: " + path);
}

}  // namespace

void write_tiff_u16(const std::string& path, const ImageU16& image,
                    std::size_t rows_per_strip) {
  // Host is little-endian x86 and the file format chosen is little-endian,
  // so the pixel buffer can be written directly.
  write_tiff_impl(path, reinterpret_cast<const std::uint8_t*>(image.data()),
                  image.height(), image.width(), 16, rows_per_strip);
}

void write_tiff_u8(const std::string& path, const ImageU8& image,
                   std::size_t rows_per_strip) {
  write_tiff_impl(path, image.data(), image.height(), image.width(), 8,
                  rows_per_strip);
}

}  // namespace hs::img
