// Displacement-table persistence.
//
// The MIST tool that grew out of this paper writes per-edge translation
// tables so downstream tools (and re-runs of phases 2/3) can skip phase 1.
// Format: CSV with one row per edge,
//   direction,row,col,x,y,correlation
// where direction is "west" or "north" and (row, col) addresses the moved
// tile. A header line carries the grid dimensions.
//
// Checkpoint extensions (all optional on read, so handmade and pre-existing
// tables stay loadable):
//   # quarantined,<tile index>   one line per quarantined tile, so a
//                                recovered job neither re-reads a poisoned
//                                tile nor burns its retry budget on it
//   # crc32c,<8 hex digits>      footer checksumming every preceding byte;
//                                a mismatch means a torn or bit-rotted
//                                checkpoint and the file is rejected whole
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "stitch/types.hpp"

namespace hs::stitch {

/// Writes the table with a CRC32C footer through publish_file
/// (common/file.hpp): `<path>.tmp`, fsync, rename. Throws IoError when any
/// step fails; `path` then keeps its previous bytes.
void write_table_csv(const std::string& path, const DisplacementTable& table);

/// Reads a table written by write_table_csv; throws IoError on malformed
/// input (wrong header, missing/duplicate edges, out-of-range coordinates,
/// non-finite correlations, checksum mismatch).
DisplacementTable read_table_csv(const std::string& path);

/// A checkpoint file: the table plus the sidecar state a resumed job needs.
struct TableFileData {
  DisplacementTable table;
  /// Tile indices quarantined when the checkpoint was written, in
  /// first-quarantine order.
  std::vector<std::size_t> quarantined;
  /// Whether the file carried (and passed) a CRC32C footer. False for
  /// legacy tables written before checksumming existed.
  bool had_crc = false;
};

/// write_table_csv plus the quarantined-tile sidecar lines. `before_rename`
/// is publish_file's hook: checkpoint fault injection damages the tmp file.
void write_table_file(
    const std::string& path, const DisplacementTable& table,
    const std::vector<std::size_t>& quarantined,
    const std::function<void(const std::string& tmp)>& before_rename = nullptr);

/// read_table_csv plus the sidecar state. Verifies the CRC32C footer when
/// present; a file without one is accepted (had_crc = false).
TableFileData read_table_file(const std::string& path);

}  // namespace hs::stitch
