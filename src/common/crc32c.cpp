#include "common/crc32c.hpp"

#include <array>

#include "common/crc32c_impl.hpp"
#include "common/simd.hpp"

namespace hs {

namespace {

// Reflected table for the Castagnoli polynomial (0x1EDC6F41, reflected
// 0x82F63B78), built once at first use.
std::array<std::uint32_t, 256> build_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

bool cpu_has_sse42() {
#if defined(__x86_64__)
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
#else
  return false;
#endif
}

}  // namespace

namespace detail {

std::uint32_t crc32c_table(const unsigned char* bytes, std::size_t size,
                           std::uint32_t state) {
  static const std::array<std::uint32_t, 256> table = build_table();
  for (std::size_t i = 0; i < size; ++i) {
    state = table[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  // The table loop is the reference and runs whenever dispatch is forced
  // to scalar, so HS_KERNEL_DISPATCH=scalar reruns still cover it.
  const bool hardware = cpu_has_sse42() &&
                        common::active_tier() != common::SimdTier::kScalar;
  return ~(hardware ? detail::crc32c_sse42(bytes, size, ~crc)
                    : detail::crc32c_table(bytes, size, ~crc));
}

}  // namespace hs
