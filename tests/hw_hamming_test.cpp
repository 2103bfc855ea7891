#include "hw/hamming.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>

#include "util/rng.hpp"

namespace nlft::hw {
namespace {

// Bit-serial reference model of the code: encoder and decoder loop over
// every codeword position. The SEC-DED property tests below would accept
// any valid code; comparing against this model pins THE code, whose
// codewords every campaign outcome and behavior digest depends on.
constexpr bool isPowerOfTwo(unsigned v) { return v != 0 && (v & (v - 1)) == 0; }
constexpr std::uint64_t bit(unsigned position) { return 1ULL << position; }

std::uint64_t referenceEncode(std::uint32_t data) {
  std::uint64_t codeword = 0;
  unsigned dataIndex = 0;
  for (unsigned position = 1; position <= 38; ++position) {
    if (isPowerOfTwo(position)) continue;
    if ((data >> dataIndex) & 1u) codeword |= bit(position);
    ++dataIndex;
  }
  for (unsigned k = 0; k < 6; ++k) {
    const unsigned parityPos = 1u << k;
    unsigned parity = 0;
    for (unsigned position = 1; position <= 38; ++position) {
      if ((position & parityPos) && (codeword & bit(position))) parity ^= 1u;
    }
    if (parity) codeword |= bit(parityPos);
  }
  unsigned overall = 0;
  for (unsigned position = 1; position <= 38; ++position) {
    if (codeword & bit(position)) overall ^= 1u;
  }
  if (overall) codeword |= bit(0);
  return codeword;
}

EccDecodeResult referenceDecode(std::uint64_t codeword) {
  EccDecodeResult result;
  codeword &= (1ULL << kEccCodewordBits) - 1;
  unsigned syndrome = 0;
  for (unsigned position = 1; position <= 38; ++position) {
    if (codeword & bit(position)) syndrome ^= position;
  }
  unsigned overall = 0;
  for (unsigned position = 0; position <= 38; ++position) {
    if (codeword & bit(position)) overall ^= 1u;
  }
  if (syndrome == 0 && overall == 0) {
    result.status = EccStatus::Clean;
  } else if (overall == 1) {
    if (syndrome == 0) {
      codeword ^= bit(0);
    } else if (syndrome <= 38) {
      codeword ^= bit(syndrome);
    } else {
      result.status = EccStatus::Uncorrectable;
      result.codeword = codeword;
      return result;
    }
    result.status = EccStatus::Corrected;
  } else {
    result.status = EccStatus::Uncorrectable;
    result.codeword = codeword;
    return result;
  }
  std::uint32_t data = 0;
  unsigned dataIndex = 0;
  for (unsigned position = 1; position <= 38; ++position) {
    if (isPowerOfTwo(position)) continue;
    if (codeword & bit(position)) data |= 1u << dataIndex;
    ++dataIndex;
  }
  result.data = data;
  result.codeword = codeword;
  return result;
}

void expectSameDecode(std::uint64_t codeword) {
  const EccDecodeResult got = eccDecode(codeword);
  const EccDecodeResult want = referenceDecode(codeword);
  ASSERT_EQ(got.status, want.status) << std::hex << codeword;
  ASSERT_EQ(got.data, want.data) << std::hex << codeword;
  ASSERT_EQ(got.codeword, want.codeword) << std::hex << codeword;
}

TEST(Hamming, ZeroEncodesToZero) {
  // EccMemory's dirty-word bitmap relies on this: untouched words are 0.
  static_assert(eccEncode(0) == 0);
  EXPECT_EQ(referenceEncode(0), 0u);
}

TEST(Hamming, EncodeMatchesReferenceModel) {
  // Equality on 0 and on every unit vector, plus linearity of both encoders
  // over GF(2), gives equality on all 2^32 inputs.
  EXPECT_EQ(eccEncode(0), referenceEncode(0));
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(eccEncode(1u << i), referenceEncode(1u << i)) << "data bit " << i;
  }
  util::Rng rng{80};
  for (int trial = 0; trial < 10000; ++trial) {
    const auto a = static_cast<std::uint32_t>(rng.next());
    const auto b = static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(eccEncode(a ^ b), eccEncode(a) ^ eccEncode(b));
    ASSERT_EQ(referenceEncode(a ^ b), referenceEncode(a) ^ referenceEncode(b));
    ASSERT_EQ(eccEncode(a), referenceEncode(a));
  }
}

TEST(Hamming, DecodeMatchesReferenceOnEveryOneAndTwoBitError) {
  util::Rng rng{81};
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t clean = referenceEncode(static_cast<std::uint32_t>(rng.next()));
    expectSameDecode(clean);
    for (int i = 0; i < kEccCodewordBits; ++i) {
      expectSameDecode(clean ^ (1ULL << i));
      for (int j = i + 1; j < kEccCodewordBits; ++j) {
        expectSameDecode(clean ^ (1ULL << i) ^ (1ULL << j));
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Hamming, DecodeMatchesReferenceOnRandomCodewords) {
  // Arbitrary 40-bit values: every error weight, and bit 39 (outside the
  // codeword) set half the time, which decoding must ignore.
  util::Rng rng{82};
  for (int trial = 0; trial < 100000; ++trial) {
    const std::uint64_t value = rng.next() & ((1ULL << 40) - 1);
    expectSameDecode(value);
    if (::testing::Test::HasFatalFailure()) return;
    const EccDecodeResult low = eccDecode(value & ~(1ULL << 39));
    const EccDecodeResult high = eccDecode(value | (1ULL << 39));
    ASSERT_EQ(low.status, high.status);
    ASSERT_EQ(low.data, high.data);
    ASSERT_EQ(low.codeword, high.codeword);
  }
}

TEST(Hamming, CleanRoundTrip) {
  for (std::uint32_t word : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu, 0x80000001u}) {
    const auto decoded = eccDecode(eccEncode(word));
    EXPECT_EQ(decoded.status, EccStatus::Clean);
    EXPECT_EQ(decoded.data, word);
  }
}

TEST(Hamming, RandomWordsRoundTrip) {
  util::Rng rng{77};
  for (int i = 0; i < 2000; ++i) {
    const auto word = static_cast<std::uint32_t>(rng.next());
    const auto decoded = eccDecode(eccEncode(word));
    ASSERT_EQ(decoded.status, EccStatus::Clean);
    ASSERT_EQ(decoded.data, word);
  }
}

// Exhaustive single-error correction over every codeword bit position.
class HammingSingleBit : public ::testing::TestWithParam<int> {};

TEST_P(HammingSingleBit, EverySingleBitFlipIsCorrected) {
  const int bit = GetParam();
  for (std::uint32_t word : {0u, 0xFFFFFFFFu, 0xA5A5A5A5u, 0x12345678u}) {
    const std::uint64_t corrupted = eccEncode(word) ^ (1ULL << bit);
    const auto decoded = eccDecode(corrupted);
    EXPECT_EQ(decoded.status, EccStatus::Corrected) << "bit " << bit;
    EXPECT_EQ(decoded.data, word) << "bit " << bit;
    EXPECT_EQ(decoded.codeword, eccEncode(word)) << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, HammingSingleBit, ::testing::Range(0, kEccCodewordBits));

TEST(Hamming, EveryDoubleBitFlipIsDetected) {
  const std::uint32_t word = 0xC001D00Du;
  const std::uint64_t clean = eccEncode(word);
  for (int i = 0; i < kEccCodewordBits; ++i) {
    for (int j = i + 1; j < kEccCodewordBits; ++j) {
      const auto decoded = eccDecode(clean ^ (1ULL << i) ^ (1ULL << j));
      ASSERT_EQ(decoded.status, EccStatus::Uncorrectable) << i << "," << j;
    }
  }
}

TEST(Hamming, RandomDoubleFlipsNeverMiscorrect) {
  util::Rng rng{78};
  for (int trial = 0; trial < 5000; ++trial) {
    const auto word = static_cast<std::uint32_t>(rng.next());
    const std::uint64_t clean = eccEncode(word);
    const int i = static_cast<int>(rng.uniformInt(kEccCodewordBits));
    int j = static_cast<int>(rng.uniformInt(kEccCodewordBits));
    while (j == i) j = static_cast<int>(rng.uniformInt(kEccCodewordBits));
    const auto decoded = eccDecode(clean ^ (1ULL << i) ^ (1ULL << j));
    // A double error must never be silently "corrected" into wrong data.
    ASSERT_EQ(decoded.status, EccStatus::Uncorrectable);
  }
}

TEST(Hamming, CodewordFitsIn39Bits) {
  for (std::uint32_t word : {0xFFFFFFFFu, 0x0u, 0x55555555u}) {
    EXPECT_EQ(eccEncode(word) >> kEccCodewordBits, 0u);
  }
}

TEST(Hamming, DistinctWordsGetDistinctCodewords) {
  util::Rng rng{79};
  for (int trial = 0; trial < 1000; ++trial) {
    const auto a = static_cast<std::uint32_t>(rng.next());
    const auto b = static_cast<std::uint32_t>(rng.next());
    if (a == b) continue;
    ASSERT_NE(eccEncode(a), eccEncode(b));
  }
}

}  // namespace
}  // namespace nlft::hw
