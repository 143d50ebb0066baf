#include "stitch/table_io.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/file.hpp"

namespace hs::stitch {

namespace {

std::string render_table(const DisplacementTable& table,
                         const std::vector<std::size_t>& quarantined) {
  std::ostringstream out;
  out << "# hybridstitch displacement table v1\n";
  out << "# grid," << table.layout.rows << "," << table.layout.cols << "\n";
  out << "direction,row,col,x,y,correlation\n";
  char line[160];
  for (std::size_t r = 0; r < table.layout.rows; ++r) {
    for (std::size_t c = 0; c < table.layout.cols; ++c) {
      const img::TilePos pos{r, c};
      auto emit = [&](const char* direction, const Translation& t) {
        std::snprintf(line, sizeof line,
                      "%s,%zu,%zu,%" PRId64 ",%" PRId64 ",%.17g\n", direction,
                      r, c, t.x, t.y, t.correlation);
        out << line;
      };
      if (c > 0) emit("west", table.west_of(pos));
      if (r > 0) emit("north", table.north_of(pos));
    }
  }
  for (const std::size_t index : quarantined) {
    out << "# quarantined," << index << "\n";
  }
  return out.str();
}

}  // namespace

void write_table_file(
    const std::string& path, const DisplacementTable& table,
    const std::vector<std::size_t>& quarantined,
    const std::function<void(const std::string& tmp)>& before_rename) {
  std::string bytes = render_table(table, quarantined);
  char footer[32];
  std::snprintf(footer, sizeof footer, "# crc32c,%08x\n", crc32c(bytes));
  bytes += footer;
  if (!publish_file(path, bytes, before_rename)) {
    throw IoError("cannot write table file: " + path);
  }
}

void write_table_csv(const std::string& path, const DisplacementTable& table) {
  write_table_file(path, table, {});
}

namespace {

// Splits `content` into lines, tolerating CRLF checkpoints copied from
// another OS (a trailing '\r' is stripped so a blank CRLF line reads as
// empty) and a missing trailing newline on the last line.
std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin <= content.size()) {
    const std::size_t end = content.find('\n', begin);
    if (end == std::string::npos) {
      if (begin < content.size()) lines.push_back(content.substr(begin));
      break;
    }
    std::string line = content.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
    begin = end + 1;
  }
  return lines;
}

}  // namespace

TableFileData read_table_file(const std::string& path) {
  std::string content;
  if (!read_file(path, &content)) {
    throw IoError("cannot open or read table file: " + path);
  }

  TableFileData data;

  // Normalize CRLF before anything else: the CRC covers the normalized
  // bytes, so a checkpoint that round-tripped through Windows line endings
  // still verifies (the writer always emits LF, so the digests agree).
  if (content.find("\r\n") != std::string::npos) {
    std::string normalized;
    normalized.reserve(content.size());
    for (std::size_t i = 0; i < content.size(); ++i) {
      if (content[i] == '\r' && i + 1 < content.size() &&
          content[i + 1] == '\n') {
        continue;
      }
      normalized.push_back(content[i]);
    }
    content = std::move(normalized);
  }

  // Footer first: everything before the "# crc32c," line must hash to the
  // recorded value, or the whole file is untrustworthy — a torn checkpoint
  // must not warm-start a job from half-written rows that happen to parse.
  const std::size_t footer_at = content.rfind("# crc32c,");
  if (footer_at != std::string::npos &&
      (footer_at == 0 || content[footer_at - 1] == '\n')) {
    unsigned recorded = 0;
    if (std::sscanf(content.c_str() + footer_at, "# crc32c,%x", &recorded) !=
        1) {
      throw IoError("malformed crc32c footer in table: " + path);
    }
    const std::uint32_t actual = crc32c(content.data(), footer_at);
    if (actual != recorded) {
      char what[128];
      std::snprintf(what, sizeof what,
                    "crc32c mismatch in table '%s': recorded %08x, actual "
                    "%08x",
                    path.c_str(), recorded, actual);
      throw IoError(what);
    }
    data.had_crc = true;
    // Anything past the footer line is unauthenticated — rows appended after
    // the digest would otherwise be silently dropped instead of rejected.
    const std::size_t footer_end = content.find('\n', footer_at);
    if (footer_end != std::string::npos && footer_end + 1 < content.size()) {
      throw IoError("trailing data after crc32c footer in table: " + path);
    }
    content.resize(footer_at);
  }

  const std::vector<std::string> lines = split_lines(content);
  std::size_t at = 0;
  if (at >= lines.size() ||
      lines[at].rfind("# hybridstitch displacement table", 0) != 0) {
    throw IoError("not a displacement table: " + path);
  }
  ++at;
  std::size_t rows = 0, cols = 0;
  if (at >= lines.size() ||
      std::sscanf(lines[at].c_str(), "# grid,%zu,%zu", &rows, &cols) != 2 ||
      rows == 0 || cols == 0) {
    throw IoError("bad grid header in table: " + path);
  }
  ++at;
  if (at >= lines.size() || lines[at].rfind("direction,", 0) != 0) {
    throw IoError("missing column header in table: " + path);
  }
  ++at;

  DisplacementTable table(img::GridLayout{rows, cols});
  // Duplicate detection: one slot per (tile, direction), bit-packed as
  // index * 2 + is_west.
  std::vector<bool> seen(rows * cols * 2, false);
  std::size_t edges_read = 0;
  for (; at < lines.size(); ++at) {
    const std::string& line = lines[at];
    if (line.empty()) continue;
    std::size_t q = 0;
    if (std::sscanf(line.c_str(), "# quarantined,%zu", &q) == 1) {
      if (q >= rows * cols) {
        throw IoError("quarantined tile outside grid in table: " + path);
      }
      data.quarantined.push_back(q);
      continue;
    }
    if (line[0] == '#') continue;  // future sidecar lines
    char direction[16];
    std::size_t r = 0, c = 0;
    std::int64_t x = 0, y = 0;
    double correlation = 0.0;
    if (std::sscanf(line.c_str(),
                    "%15[^,],%zu,%zu,%" SCNd64 ",%" SCNd64 ",%lf", direction,
                    &r, &c, &x, &y, &correlation) != 6) {
      throw IoError("malformed row in table '" + path + "': " + line);
    }
    if (r >= rows || c >= cols) {
      throw IoError("edge outside grid in table: " + path);
    }
    if (!std::isfinite(correlation)) {
      throw IoError("non-finite correlation in table '" + path +
                    "': " + line);
    }
    const img::TilePos pos{r, c};
    const std::string dir = direction;
    const std::size_t index = table.layout.index_of(pos);
    if (dir == "west") {
      HS_REQUIRE(c > 0, "west edge on first column in " + path);
      if (seen[index * 2 + 1]) {
        throw IoError("duplicate west edge (" + std::to_string(r) + "," +
                      std::to_string(c) + ") in table: " + path);
      }
      seen[index * 2 + 1] = true;
      table.west_of(pos) = Translation{x, y, correlation};
    } else if (dir == "north") {
      HS_REQUIRE(r > 0, "north edge on first row in " + path);
      if (seen[index * 2]) {
        throw IoError("duplicate north edge (" + std::to_string(r) + "," +
                      std::to_string(c) + ") in table: " + path);
      }
      seen[index * 2] = true;
      table.north_of(pos) = Translation{x, y, correlation};
    } else {
      throw IoError("unknown edge direction '" + dir + "' in " + path);
    }
    ++edges_read;
  }
  if (edges_read != table.layout.pair_count()) {
    throw IoError("table '" + path + "' has " + std::to_string(edges_read) +
                  " edges, expected " +
                  std::to_string(table.layout.pair_count()));
  }
  data.table = std::move(table);
  return data;
}

DisplacementTable read_table_csv(const std::string& path) {
  return read_table_file(path).table;
}

}  // namespace hs::stitch
