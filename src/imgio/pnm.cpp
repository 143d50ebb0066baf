#include "imgio/pnm.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>

#include "common/file.hpp"

namespace hs::img {

namespace {

void write_header(std::ofstream& file, const char* magic, std::size_t width,
                  std::size_t height, unsigned maxval) {
  file << magic << "\n" << width << " " << height << "\n" << maxval << "\n";
}

/// Skips whitespace and '#' comments from `*pos`, then reads one unsigned
/// integer and consumes the single character after it. A value that does
/// not fit in size_t is malformed, not wrapped.
std::size_t read_token(const std::string& bytes, std::size_t* pos,
                       const std::string& path) {
  const auto ch = [&bytes](std::size_t i) {
    return static_cast<unsigned char>(bytes[i]);
  };
  std::size_t i = *pos;
  while (i < bytes.size()) {
    if (ch(i) == '#') {
      while (i < bytes.size() && ch(i) != '\n') ++i;
    } else if (std::isspace(ch(i))) {
      ++i;
    } else {
      break;
    }
  }
  if (i == bytes.size() || !std::isdigit(ch(i))) {
    throw IoError("malformed PGM: " + path);
  }
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t value = 0;
  for (; i < bytes.size() && std::isdigit(ch(i)); ++i) {
    const auto digit = static_cast<std::size_t>(ch(i) - '0');
    if (value > (kMax - digit) / 10) {
      throw IoError("malformed PGM (number too large): " + path);
    }
    value = value * 10 + digit;
  }
  *pos = std::min(i + 1, bytes.size());
  return value;
}

}  // namespace

void write_pgm_u16(const std::string& path, const ImageU16& image) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw IoError("cannot create PGM file: " + path);
  write_header(file, "P5", image.width(), image.height(), 65535);
  std::vector<std::uint8_t> row(image.width() * 2);
  for (std::size_t r = 0; r < image.height(); ++r) {
    const std::uint16_t* src = image.row(r);
    for (std::size_t c = 0; c < image.width(); ++c) {
      row[2 * c] = static_cast<std::uint8_t>(src[c] >> 8);  // big-endian
      row[2 * c + 1] = static_cast<std::uint8_t>(src[c] & 0xFF);
    }
    file.write(reinterpret_cast<const char*>(row.data()),
               static_cast<std::streamsize>(row.size()));
  }
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to PGM file: " + path);
}

void write_pgm_u8(const std::string& path, const ImageU8& image) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw IoError("cannot create PGM file: " + path);
  write_header(file, "P5", image.width(), image.height(), 255);
  file.write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(image.pixel_count()));
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to PGM file: " + path);
}

ImageU16 read_pgm_u16(const std::string& path) {
  std::string bytes;
  if (!read_file(path, &bytes)) throw IoError("cannot open PGM file: " + path);
  if (bytes.size() < 2 || bytes[0] != 'P' || bytes[1] != '5') {
    throw IoError("not a binary PGM: " + path);
  }
  std::size_t pos = 2;
  const std::size_t width = read_token(bytes, &pos, path);
  const std::size_t height = read_token(bytes, &pos, path);
  const std::size_t maxval = read_token(bytes, &pos, path);
  if (maxval == 0 || maxval > 65535) throw IoError("bad PGM maxval: " + path);

  // The declared extents must fit in the bytes after the header before
  // anything is allocated. The division form cannot overflow.
  const bool wide = maxval > 255;
  const std::size_t sample_bytes = wide ? 2 : 1;
  if (height != 0 && width > (bytes.size() - pos) / sample_bytes / height) {
    throw IoError("truncated PGM: " + path);
  }
  ImageU16 out(height, width);
  const auto* raw = reinterpret_cast<const std::uint8_t*>(bytes.data() + pos);
  // Samples at the two canonical depths (maxval 255 / 65535) are stored
  // verbatim; any other maxval (e.g. 10-bit cameras writing 1023) is rescaled
  // to the full 16-bit range so downstream NCC sees consistent intensities.
  const bool rescale = maxval != 255 && maxval != 65535;
  for (std::size_t i = 0; i < width * height; ++i) {
    std::size_t sample = wide ? static_cast<std::size_t>((raw[2 * i] << 8) |
                                                         raw[2 * i + 1])
                              : static_cast<std::size_t>(raw[i]);
    if (sample > maxval) {
      throw IoError("PGM sample " + std::to_string(sample) + " exceeds maxval " +
                    std::to_string(maxval) + ": " + path);
    }
    if (rescale) sample = (sample * 65535 + maxval / 2) / maxval;
    out.data()[i] = static_cast<std::uint16_t>(sample);
  }
  return out;
}

void write_ppm(const std::string& path, const RgbImage& image) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw IoError("cannot create PPM file: " + path);
  write_header(file, "P6", image.width, image.height, 255);
  file.write(reinterpret_cast<const char*>(image.pixels.data()),
             static_cast<std::streamsize>(image.pixels.size()));
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to PPM file: " + path);
}

}  // namespace hs::img
