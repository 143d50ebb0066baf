// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum the durability
// layer frames journal records and checkpoint files with. Castagnoli rather
// than the zlib polynomial because its error-detection properties are better
// for short records and it is the checksum ext4/Btrfs journals use, so the
// on-disk format matches what filesystem tooling expects to see.
//
// It is also on the hot path: the shared cache hashes every tile of every
// job (tile_content_digest), and spill frames carry megabytes of spectrum.
// On x86-64 CPUs with SSE4.2 the CRC32 instruction does the work eight
// bytes per step (crc32c_sse42.cpp). The one-table loop stays as the
// portable reference and runs whenever the active SIMD tier is scalar
// (HS_KERNEL_DISPATCH=scalar, ScopedKernelDispatch). Both bodies return
// the same value for every input, so checksums on disk never depend on
// the body that wrote them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace hs {

/// CRC32C of `size` bytes starting at `data`, seeded with `crc` (pass the
/// previous call's return value to checksum a buffer in pieces; the default
/// seed starts a fresh checksum).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t crc = 0);

inline std::uint32_t crc32c(const std::string& s, std::uint32_t crc = 0) {
  return crc32c(s.data(), s.size(), crc);
}

}  // namespace hs
