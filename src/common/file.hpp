// Whole-file reads for every loader: TIFF and PGM tiles, checkpoint tables,
// journal segments and spill frames. A regular file arrives in one read
// sized by its stat size, not through a byte-at-a-time stream slurp.
#pragma once

#include <string>

namespace hs {

/// Reads all of `path` into `*out`. Returns false when the file cannot be
/// opened or read (missing, a directory, an I/O error); `*out` is then
/// unspecified. A regular file is read with one read sized by stat; a file
/// without a size (a pipe, a character device) is read in chunks to EOF.
bool read_file(const std::string& path, std::string* out);

}  // namespace hs
