// SEC-DED Hamming code for 32-bit words (39-bit codewords: 32 data bits,
// 6 Hamming parity bits, 1 overall parity bit).
//
// The ECC memory stores full codewords; fault injection flips arbitrary
// codeword bits (data or parity). Decoding corrects any single-bit error and
// detects any double-bit error, exactly the behaviour the paper's Table 1
// assumes for "Error correcting codes (ECC)".
//
// Codeword layout: bit 0 holds the overall parity; bits 1..38 are classic
// 1-indexed Hamming positions. Power-of-two positions (1,2,4,8,16,32) carry
// parity; the remaining 32 positions carry data bits in ascending order, in
// five contiguous runs (3, 5-7, 9-15, 17-31, 33-38). The code is linear over
// GF(2), so encoding is a five-term shift-and-mask scatter plus parities
// under constant masks, and the decode syndrome is six such parities.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace nlft::hw {

/// Result of decoding a codeword.
enum class EccStatus : std::uint8_t {
  Clean,          ///< no error
  Corrected,      ///< single-bit error corrected
  Uncorrectable,  ///< double-bit (or worse detectable) error
};

struct EccDecodeResult {
  EccStatus status = EccStatus::Clean;
  std::uint32_t data = 0;          ///< corrected data (valid unless Uncorrectable)
  std::uint64_t codeword = 0;      ///< corrected codeword
};

/// Number of bits in a codeword (for fault injectors choosing a bit).
inline constexpr int kEccCodewordBits = 39;

namespace detail {

inline constexpr std::uint64_t kEccCodewordMask = (1ULL << kEccCodewordBits) - 1;

/// Syndrome bit k is the parity of the Hamming positions p in 1..38 that
/// have bit k set; parity position 2^k is the only parity bit under mask k.
inline constexpr std::array<std::uint64_t, 6> kEccSyndromeMasks = {
    0x2AAAAAAAAAULL, 0x4CCCCCCCCCULL, 0x70F0F0F0F0ULL,
    0x00FF00FF00ULL, 0x00FFFF0000ULL, 0x7F00000000ULL,
};

constexpr std::uint64_t eccParity(std::uint64_t bits) {
  return static_cast<std::uint64_t>(std::popcount(bits)) & 1u;
}

constexpr unsigned eccSyndrome(std::uint64_t codeword) {
  unsigned syndrome = 0;
  for (unsigned k = 0; k < kEccSyndromeMasks.size(); ++k) {
    syndrome |= static_cast<unsigned>(eccParity(codeword & kEccSyndromeMasks[k])) << k;
  }
  return syndrome;
}

/// Data bits 0 | 1-3 | 4-10 | 11-25 | 26-31 -> positions 3 | 5-7 | 9-15 | 17-31 | 33-38.
constexpr std::uint64_t eccScatterData(std::uint32_t data) {
  const std::uint64_t d = data;
  return (d & 0x1u) << 3 | (d & 0xEu) << 4 | (d & 0x7F0u) << 5 | (d & 0x3FFF800u) << 6 |
         (d & 0xFC000000u) << 7;
}

constexpr std::uint32_t eccGatherData(std::uint64_t codeword) {
  return static_cast<std::uint32_t>((codeword >> 3 & 0x1u) | (codeword >> 4 & 0xEu) |
                                    (codeword >> 5 & 0x7F0u) | (codeword >> 6 & 0x3FFF800u) |
                                    (codeword >> 7 & 0xFC000000u));
}

}  // namespace detail

/// Encodes 32 data bits into a 39-bit SEC-DED codeword (stored in the low
/// 39 bits of the return value). eccEncode(0) == 0.
[[nodiscard]] constexpr std::uint64_t eccEncode(std::uint32_t data) {
  std::uint64_t codeword = detail::eccScatterData(data);
  // Each Hamming parity bit makes its syndrome bit even; it sits under no
  // other mask, so setting it leaves the other syndrome bits alone.
  const unsigned syndrome = detail::eccSyndrome(codeword);
  for (unsigned k = 0; k < detail::kEccSyndromeMasks.size(); ++k) {
    codeword |= static_cast<std::uint64_t>(syndrome >> k & 1u) << (1u << k);
  }
  // Overall parity over bits 1..38 stored at bit 0 (even overall parity).
  return codeword | detail::eccParity(codeword);
}

/// Decodes a 39-bit codeword, correcting a single-bit error if present.
/// Bits above the codeword are ignored.
[[nodiscard]] constexpr EccDecodeResult eccDecode(std::uint64_t codeword) {
  codeword &= detail::kEccCodewordMask;
  const unsigned syndrome = detail::eccSyndrome(codeword);
  if (detail::eccParity(codeword) == 0) {
    // Even overall parity: clean, or a double-bit error.
    if (syndrome != 0) return {EccStatus::Uncorrectable, 0, codeword};
    return {EccStatus::Clean, detail::eccGatherData(codeword), codeword};
  }
  // Odd overall parity: a single-bit error at position `syndrome` (0 is the
  // overall parity bit itself), unless the syndrome names no position.
  if (syndrome >= static_cast<unsigned>(kEccCodewordBits)) {
    return {EccStatus::Uncorrectable, 0, codeword};
  }
  codeword ^= 1ULL << syndrome;
  return {EccStatus::Corrected, detail::eccGatherData(codeword), codeword};
}

}  // namespace nlft::hw
