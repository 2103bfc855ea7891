#include "util/crc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace nlft::util {
namespace {

std::vector<std::uint8_t> bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = bytes("the quick brown fox jumps over the lazy dog");
  const std::uint32_t oneShot = crc32(data);
  std::uint32_t crc = 0;
  crc = crc32Update(crc, std::span{data}.subspan(0, 10));
  crc = crc32Update(crc, std::span{data}.subspan(10));
  EXPECT_EQ(crc, oneShot);
}

TEST(Crc16Ccitt, KnownVector) {
  EXPECT_EQ(crc16Ccitt(bytes("123456789")), 0x29B1u);
}

/// Bit-serial CRC-16-CCITT (MSB-first, polynomial 0x1021, init 0xFFFF): the
/// definition the table-driven implementation must reproduce.
std::uint16_t crc16BitSerial(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000U) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021U)
                            : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

std::vector<std::uint8_t> littleEndianBytes(std::span<const std::uint32_t> words) {
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t w : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>(w >> shift));
    }
  }
  return bytes;
}

TEST(Crc16Ccitt, TableMatchesBitSerialReference) {
  Rng rng{1021};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> data(rng.uniformInt(65));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniformInt(256));
    ASSERT_EQ(crc16Ccitt(data), crc16BitSerial(data)) << "length " << data.size();
  }
}

TEST(Crc16CcittWords, MatchesLittleEndianByteSerialization) {
  Rng rng{16};
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint32_t> words(rng.uniformInt(17));
    for (auto& w : words) w = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{1} << 32));
    ASSERT_EQ(crc16CcittWords(words), crc16Ccitt(littleEndianBytes(words)))
        << words.size() << " words";
  }
  const std::uint32_t words[] = {0x11223344u, 0xA5A5A5A5u};
  const std::uint8_t raw[] = {0x44, 0x33, 0x22, 0x11, 0xA5, 0xA5, 0xA5, 0xA5};
  EXPECT_EQ(crc16CcittWords(words), crc16BitSerial(raw));
}

TEST(Crc32Words, MatchesByteSerialization) {
  const std::uint32_t words[] = {0x11223344u, 0xA5A5A5A5u};
  const std::uint8_t raw[] = {0x44, 0x33, 0x22, 0x11, 0xA5, 0xA5, 0xA5, 0xA5};
  EXPECT_EQ(crc32Words(words), crc32(raw));
}

// Property: CRC-32 detects every single-bit error (exhaustive for a small
// payload), which is what the end-to-end integrity checks rely on.
TEST(Crc32, DetectsAllSingleBitErrors) {
  const auto original = bytes("NLFT frame payload!");
  const std::uint32_t good = crc32(original);
  for (std::size_t i = 0; i < original.size() * 8; ++i) {
    auto corrupted = original;
    corrupted[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NE(crc32(corrupted), good) << "undetected single-bit flip at bit " << i;
  }
}

TEST(Crc32, DetectsAllDoubleBitErrorsInSmallPayload) {
  const auto original = bytes("TEMvote");
  const std::uint32_t good = crc32(original);
  const std::size_t bits = original.size() * 8;
  for (std::size_t i = 0; i < bits; ++i) {
    for (std::size_t j = i + 1; j < bits; ++j) {
      auto corrupted = original;
      corrupted[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
      corrupted[j / 8] ^= static_cast<std::uint8_t>(1u << (j % 8));
      ASSERT_NE(crc32(corrupted), good) << "undetected double flip " << i << "," << j;
    }
  }
}

TEST(Crc16Ccitt, DetectsAllSingleBitErrors) {
  const auto original = bytes("brake force frame");
  const std::uint16_t good = crc16Ccitt(original);
  for (std::size_t i = 0; i < original.size() * 8; ++i) {
    auto corrupted = original;
    corrupted[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NE(crc16Ccitt(corrupted), good);
  }
}

TEST(Crc32, RandomCorruptionIsDetectedWithHighProbability) {
  Rng rng{99};
  std::vector<std::uint8_t> payload(64);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniformInt(256));
  const std::uint32_t good = crc32(payload);
  int undetected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    auto corrupted = payload;
    const int flips = 1 + static_cast<int>(rng.uniformInt(8));
    for (int f = 0; f < flips; ++f) {
      const auto bit = rng.uniformInt(corrupted.size() * 8);
      corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    // Random flips may cancel each other; recompute to skip no-ops.
    if (corrupted == payload) continue;
    undetected += crc32(corrupted) == good;
  }
  EXPECT_EQ(undetected, 0);  // 2^-32 per trial; expected zero over 5000
}

}  // namespace
}  // namespace nlft::util
