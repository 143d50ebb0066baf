// SSE4.2 CRC32C body. The CRC32 instruction computes exactly the
// Castagnoli polynomial, so the result equals the table loop's bit for bit;
// it consumes eight bytes per step instead of one table lookup per byte.
// Compiled with -msse4.2; the guard below forwards to the table body on
// toolchains without the flag (or without the 64-bit form of the
// instruction), so the dispatcher in crc32c.cpp needs no compile-time path.
#include "common/crc32c_impl.hpp"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <nmmintrin.h>

#include <cstring>

namespace hs::detail {

std::uint32_t crc32c_sse42(const unsigned char* bytes, std::size_t size,
                           std::uint32_t state) {
  std::uint64_t crc = state;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, sizeof word);  // any alignment
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; i < size; ++i) tail = _mm_crc32_u8(tail, bytes[i]);
  return tail;
}

}  // namespace hs::detail

#else  // !(defined(__SSE4_2__) && defined(__x86_64__))

namespace hs::detail {

std::uint32_t crc32c_sse42(const unsigned char* bytes, std::size_t size,
                           std::uint32_t state) {
  return crc32c_table(bytes, size, state);
}

}  // namespace hs::detail

#endif
