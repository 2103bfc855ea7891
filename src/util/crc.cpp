#include "util/crc.hpp"

#include <array>

namespace nlft::util {

namespace {

constexpr std::array<std::uint32_t, 256> makeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

/// MSB-first CRC-16-CCITT slicing tables: table k holds the remainder of
/// each byte value followed by k zero bytes, shifted into the top of the
/// register (table 0 is the classic byte-at-a-time table).
constexpr std::array<std::array<std::uint16_t, 256>, 4> makeCrc16Tables() {
  std::array<std::array<std::uint16_t, 256>, 4> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i << 8;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 0x8000U) ? (c << 1) ^ 0x1021U : (c << 1);
    }
    tables[0][i] = static_cast<std::uint16_t>(c);
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint16_t prev = tables[k - 1][i];
      tables[k][i] = static_cast<std::uint16_t>((prev << 8) ^ tables[0][prev >> 8]);
    }
  }
  return tables;
}

constexpr auto kCrc32Table = makeCrc32Table();
constexpr auto kCrc16Tables = makeCrc16Tables();

}  // namespace

std::uint32_t crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  crc = ~crc;
  for (std::uint8_t byte : data) {
    crc = kCrc32Table[(crc ^ byte) & 0xFFU] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) { return crc32Update(0, data); }

std::uint16_t crc16Ccitt(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ kCrc16Tables[0][(crc >> 8) ^ byte]);
  }
  return crc;
}

std::uint32_t crc32Words(std::span<const std::uint32_t> words) {
  std::uint32_t crc = 0;
  for (std::uint32_t w : words) {
    const std::uint8_t bytes[4] = {
        static_cast<std::uint8_t>(w), static_cast<std::uint8_t>(w >> 8),
        static_cast<std::uint8_t>(w >> 16), static_cast<std::uint8_t>(w >> 24)};
    crc = crc32Update(crc, bytes);
  }
  return crc;
}

std::uint16_t crc16CcittWords(std::span<const std::uint32_t> words) {
  // Slicing-by-4: a word's little-endian bytes b0..b3 enter the register in
  // that order, and the register (16 bits) overlaps only b0 and b1, so one
  // word folds into four table lookups, b0 looked up with three zero bytes
  // after it and b3 with none.
  std::uint32_t crc = 0xFFFF;
  for (const std::uint32_t w : words) {
    crc = kCrc16Tables[3][(w & 0xFFU) ^ (crc >> 8)] ^
          kCrc16Tables[2][((w >> 8) & 0xFFU) ^ (crc & 0xFFU)] ^
          kCrc16Tables[1][(w >> 16) & 0xFFU] ^ kCrc16Tables[0][w >> 24];
  }
  return static_cast<std::uint16_t>(crc);
}

}  // namespace nlft::util
