#pragma once

// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
// guard on every mesh transport frame and every checkpoint-journal record
// (DESIGN.md §14). zlib-compatible: crc32("123456789") == 0xCBF43926, and
// crc32_update chains across fragments, so a record's checksum can be
// accumulated field by field without materialising a contiguous buffer.

#include <array>
#include <cstddef>
#include <cstdint>

namespace rocket {

namespace detail {

/// Slicing-by-8 tables: kCrc32Tables[0] is the classic byte table, and
/// kCrc32Tables[k][b] advances byte b's CRC contribution through k more
/// zero bytes, so eight table lookups fold eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t t = 1; t < 8; ++t) {
      const std::uint32_t prev = tables[t - 1][i];
      tables[t][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr auto kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load from any alignment.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Extend `crc` (a previous crc32 result, or 0 to start) over `size` bytes.
inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t size) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32_update(0, data, size);
}

}  // namespace rocket
