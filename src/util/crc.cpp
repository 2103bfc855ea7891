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

/// MSB-first CRC-16-CCITT remainders of each byte value shifted into the top
/// of the register.
constexpr std::array<std::uint16_t, 256> makeCrc16Table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i << 8;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 0x8000U) ? (c << 1) ^ 0x1021U : (c << 1);
    }
    table[i] = static_cast<std::uint16_t>(c);
  }
  return table;
}

constexpr auto kCrc32Table = makeCrc32Table();
constexpr auto kCrc16Table = makeCrc16Table();

std::uint16_t crc16Byte(std::uint16_t crc, std::uint8_t byte) {
  return static_cast<std::uint16_t>((crc << 8) ^ kCrc16Table[(crc >> 8) ^ byte]);
}

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
  for (std::uint8_t byte : data) crc = crc16Byte(crc, byte);
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
  std::uint16_t crc = 0xFFFF;
  for (std::uint32_t w : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      crc = crc16Byte(crc, static_cast<std::uint8_t>(w >> shift));
    }
  }
  return crc;
}

}  // namespace nlft::util
