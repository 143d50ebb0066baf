#include "compose/streaming.hpp"

#include <algorithm>
#include <fstream>

#include "common/error.hpp"

namespace hs::compose {

namespace {

double feather_weight(std::size_t r, std::size_t c, std::size_t th,
                      std::size_t tw) {
  const double wy = static_cast<double>(std::min(r, th - 1 - r)) + 1.0;
  const double wx = static_cast<double>(std::min(c, tw - 1 - c)) + 1.0;
  return wy * wx;
}

}  // namespace

StreamingComposer::StreamingComposer(const stitch::TileProvider& provider,
                                     const GlobalPositions& positions,
                                     BlendMode mode, std::size_t band_rows)
    : provider_(provider),
      positions_(positions),
      mode_(mode),
      band_rows_(band_rows == 0 ? provider.tile_height() : band_rows) {
  HS_REQUIRE(positions.x.size() == provider.layout().tile_count(),
             "positions do not match provider layout");
  HS_REQUIRE(band_rows_ >= 1, "band must be at least one row");
  std::int64_t max_x = 0, max_y = 0;
  for (std::size_t i = 0; i < positions.x.size(); ++i) {
    max_x = std::max(max_x, positions.x[i]);
    max_y = std::max(max_y, positions.y[i]);
  }
  height_ = static_cast<std::size_t>(max_y) + provider.tile_height();
  width_ = static_cast<std::size_t>(max_x) + provider.tile_width();

  tiles_by_y_.resize(positions.x.size());
  for (std::size_t i = 0; i < tiles_by_y_.size(); ++i) tiles_by_y_[i] = i;
  // Stable sort keeps row-major order among equal-y tiles so overlay
  // results are identical to the in-memory composer's.
  std::stable_sort(tiles_by_y_.begin(), tiles_by_y_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return positions.y[a] < positions.y[b];
                   });
}

void StreamingComposer::run(
    const std::function<void(std::size_t, const img::ImageU16&)>& sink) {
  const std::size_t th = provider_.tile_height();
  const std::size_t tw = provider_.tile_width();
  const bool weighted =
      mode_ == BlendMode::kAverage || mode_ == BlendMode::kLinear;

  std::vector<double> acc, weight;
  std::vector<std::uint8_t> written;

  for (std::size_t band_start = 0; band_start < height_;
       band_start += band_rows_) {
    const std::size_t band_end = std::min(height_, band_start + band_rows_);
    const std::size_t rows = band_end - band_start;
    img::ImageU16 band(rows, width_, 0);
    if (weighted) {
      acc.assign(rows * width_, 0.0);
      weight.assign(rows * width_, 0.0);
    } else {
      written.assign(rows * width_, 0);
    }

    // Tiles intersecting this band have y0 in (band_start - th, band_end);
    // locate the range in the y-sorted index.
    const auto first = std::lower_bound(
        tiles_by_y_.begin(), tiles_by_y_.end(),
        static_cast<std::int64_t>(band_start) -
            static_cast<std::int64_t>(th) + 1,
        [&](std::size_t i, std::int64_t y) { return positions_.y[i] < y; });
    // Within the range, compose in tile-index order so kOverlay and kFirst
    // match the in-memory composer exactly.
    std::vector<std::size_t> in_band;
    for (auto it = first; it != tiles_by_y_.end(); ++it) {
      if (positions_.y[*it] >= static_cast<std::int64_t>(band_end)) break;
      in_band.push_back(*it);
    }
    std::sort(in_band.begin(), in_band.end());

    for (const std::size_t index : in_band) {
      const img::TilePos pos = provider_.layout().pos_of(index);
      const img::ImageU16 tile = provider_.load(pos);
      const auto y0 = positions_.y[index];
      const auto x0 = static_cast<std::size_t>(positions_.x[index]);
      const std::size_t tile_r_begin = static_cast<std::size_t>(
          std::max<std::int64_t>(0, static_cast<std::int64_t>(band_start) - y0));
      const std::size_t tile_r_end = static_cast<std::size_t>(
          std::min<std::int64_t>(static_cast<std::int64_t>(th),
                                 static_cast<std::int64_t>(band_end) - y0));
      for (std::size_t tr = tile_r_begin; tr < tile_r_end; ++tr) {
        const std::uint16_t* src = tile.row(tr);
        const std::size_t band_row =
            static_cast<std::size_t>(y0 + static_cast<std::int64_t>(tr)) -
            band_start;
        const std::size_t base = band_row * width_ + x0;
        switch (mode_) {
          case BlendMode::kOverlay:
            for (std::size_t c = 0; c < tw; ++c) band.data()[base + c] = src[c];
            break;
          case BlendMode::kFirst:
            for (std::size_t c = 0; c < tw; ++c) {
              if (!written[base + c]) {
                band.data()[base + c] = src[c];
                written[base + c] = 1;
              }
            }
            break;
          case BlendMode::kAverage:
            for (std::size_t c = 0; c < tw; ++c) {
              acc[base + c] += static_cast<double>(src[c]);
              weight[base + c] += 1.0;
            }
            break;
          case BlendMode::kLinear:
            for (std::size_t c = 0; c < tw; ++c) {
              const double fw = feather_weight(tr, c, th, tw);
              acc[base + c] += fw * static_cast<double>(src[c]);
              weight[base + c] += fw;
            }
            break;
        }
      }
    }
    if (weighted) {
      for (std::size_t i = 0; i < acc.size(); ++i) {
        if (weight[i] > 0.0) {
          band.data()[i] = static_cast<std::uint16_t>(
              std::clamp(acc[i] / weight[i], 0.0, 65535.0));
        }
      }
    }
    sink(band_start, band);
  }
}

MosaicStats compose_mosaic_to_pgm(const stitch::TileProvider& provider,
                                  const GlobalPositions& positions,
                                  BlendMode mode, const std::string& path,
                                  std::size_t band_rows) {
  StreamingComposer composer(provider, positions, mode, band_rows);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw IoError("cannot create PGM file: " + path);
  file << "P5\n" << composer.width() << " " << composer.height() << "\n65535\n";
  std::vector<std::uint8_t> row_bytes(composer.width() * 2);
  composer.run([&](std::size_t, const img::ImageU16& band) {
    for (std::size_t r = 0; r < band.height(); ++r) {
      const std::uint16_t* src = band.row(r);
      for (std::size_t c = 0; c < band.width(); ++c) {
        row_bytes[2 * c] = static_cast<std::uint8_t>(src[c] >> 8);
        row_bytes[2 * c + 1] = static_cast<std::uint8_t>(src[c] & 0xFF);
      }
      file.write(reinterpret_cast<const char*>(row_bytes.data()),
                 static_cast<std::streamsize>(row_bytes.size()));
    }
  });
  file.close();  // flushes: a short final write fails here
  if (!file) throw IoError("short write to PGM file: " + path);
  return MosaicStats{composer.height(), composer.width(),
                     provider.layout().tile_count()};
}

}  // namespace hs::compose
