// Internal CRC32C bodies behind crc32c() in crc32c.hpp. Both run on the
// inverted register state (the caller applies the ~ before and after) and
// return bit-identical values for every input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hs::detail {

/// The reference body: one reflected-table lookup per byte (crc32c.cpp).
std::uint32_t crc32c_table(const unsigned char* bytes, std::size_t size,
                           std::uint32_t state);

/// The SSE4.2 body: the CRC32 instruction over 8-byte words, then bytes
/// (crc32c_sse42.cpp, compiled with -msse4.2). Forwards to the table body
/// where the toolchain cannot target SSE4.2, so it is callable everywhere;
/// crc32c() only calls it once CPUID has reported SSE4.2.
std::uint32_t crc32c_sse42(const unsigned char* bytes, std::size_t size,
                           std::uint32_t state);

}  // namespace hs::detail
