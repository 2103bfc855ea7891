#include "hw/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace nlft::hw {
namespace {

TEST(EccMemory, ReadBackWrites) {
  EccMemory mem{1024};
  EXPECT_TRUE(mem.write(0, 0xDEADBEEF));
  EXPECT_TRUE(mem.write(1020, 42));
  const auto a = mem.read(0);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.value, 0xDEADBEEFu);
  const auto b = mem.read(1020);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(b.value, 42u);
}

TEST(EccMemory, FreshMemoryReadsZero) {
  EccMemory mem{64};
  for (std::uint32_t addr = 0; addr < 64; addr += 4) {
    const auto r = mem.read(addr);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 0u);
  }
}

TEST(EccMemory, RejectsMisalignedAndOutOfRange) {
  EccMemory mem{64};
  EXPECT_FALSE(mem.read(2).ok);
  EXPECT_FALSE(mem.read(64).ok);
  EXPECT_FALSE(mem.write(3, 1));
  EXPECT_FALSE(mem.write(68, 1));
  EXPECT_FALSE(mem.flipBit(2, 0));
  EXPECT_FALSE(mem.flipBit(0, 39));
  EXPECT_FALSE(mem.flipBit(0, -1));
}

TEST(EccMemory, SingleBitUpsetIsCorrectedAndScrubbed) {
  EccMemory mem{64};
  mem.write(8, 0x1234);
  EXPECT_TRUE(mem.flipBit(8, 5));
  const auto first = mem.read(8);
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(first.corrected);
  EXPECT_EQ(first.value, 0x1234u);
  EXPECT_EQ(mem.correctedErrors(), 1u);
  // Scrub-on-read means the second read is clean.
  const auto second = mem.read(8);
  EXPECT_TRUE(second.ok);
  EXPECT_FALSE(second.corrected);
  EXPECT_EQ(mem.correctedErrors(), 1u);
}

TEST(EccMemory, DoubleBitUpsetIsUncorrectable) {
  EccMemory mem{64};
  mem.write(8, 0x1234);
  mem.flipBit(8, 3);
  mem.flipBit(8, 17);
  const auto r = mem.read(8);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(mem.uncorrectableErrors(), 1u);
}

TEST(EccMemory, RewriteClearsLatentUpset) {
  EccMemory mem{64};
  mem.write(8, 0x1234);
  mem.flipBit(8, 3);
  mem.flipBit(8, 17);
  mem.write(8, 0x5678);  // fresh codeword
  const auto r = mem.read(8);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0x5678u);
}

TEST(EccMemory, ParityBitUpsetsAreAlsoCorrected) {
  // Bits beyond the data payload (parity positions) must also be covered.
  EccMemory mem{64};
  mem.write(4, 0xCAFE);
  for (int bit = 0; bit < kEccCodewordBits; ++bit) {
    mem.write(4, 0xCAFE);
    mem.flipBit(4, bit);
    const auto r = mem.read(4);
    ASSERT_TRUE(r.ok) << "bit " << bit;
    ASSERT_EQ(r.value, 0xCAFEu) << "bit " << bit;
  }
}

TEST(EccMemory, SizeRoundsDownToWords) {
  EccMemory mem{10};
  EXPECT_EQ(mem.sizeBytes(), 8u);
  EXPECT_EQ(mem.wordCount(), 2u);
}

TEST(EccMemory, ScrubHealsLatentSingleBitUpsets) {
  EccMemory mem{256};
  mem.write(8, 0x1111);
  mem.write(64, 0x2222);
  mem.flipBit(8, 3);
  mem.flipBit(64, 20);
  EXPECT_EQ(mem.scrub(), 2u);
  EXPECT_EQ(mem.scrub(), 0u);  // everything clean now
  EXPECT_EQ(mem.read(8).value, 0x1111u);
  EXPECT_EQ(mem.read(64).value, 0x2222u);
}

TEST(EccMemory, ScrubbingPreventsDoubleBitAccumulation) {
  // Two single-bit upsets in the SAME word, separated in time: without a
  // scrub in between the word becomes unreadable; with one it survives.
  EccMemory unscrubbed{64};
  unscrubbed.write(4, 0xAAAA);
  unscrubbed.flipBit(4, 2);
  unscrubbed.flipBit(4, 9);
  EXPECT_FALSE(unscrubbed.read(4).ok);

  EccMemory scrubbed{64};
  scrubbed.write(4, 0xAAAA);
  scrubbed.flipBit(4, 2);
  EXPECT_EQ(scrubbed.scrub(), 1u);  // the scrubber runs between the upsets
  scrubbed.flipBit(4, 9);
  const auto r = scrubbed.read(4);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xAAAAu);
}

TEST(EccMemory, ScrubLeavesUncorrectableWordsAlone) {
  EccMemory mem{64};
  mem.write(4, 1);
  mem.flipBit(4, 0);
  mem.flipBit(4, 1);
  EXPECT_EQ(mem.scrub(), 0u);
  EXPECT_GT(mem.uncorrectableErrors(), 0u);
  EXPECT_FALSE(mem.read(4).ok);  // still bad; a rewrite is needed
  mem.write(4, 2);
  EXPECT_TRUE(mem.read(4).ok);
}

TEST(EccMemory, RandomisedUpsetSweep) {
  util::Rng rng{123};
  EccMemory mem{256};
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint32_t addr = 4 * static_cast<std::uint32_t>(rng.uniformInt(64));
    const auto value = static_cast<std::uint32_t>(rng.next());
    mem.write(addr, value);
    const int flips = 1 + static_cast<int>(rng.uniformInt(2));
    int firstBit = static_cast<int>(rng.uniformInt(kEccCodewordBits));
    mem.flipBit(addr, firstBit);
    if (flips == 2) {
      int secondBit = static_cast<int>(rng.uniformInt(kEccCodewordBits));
      while (secondBit == firstBit) secondBit = static_cast<int>(rng.uniformInt(kEccCodewordBits));
      mem.flipBit(addr, secondBit);
      ASSERT_FALSE(mem.read(addr).ok);
    } else {
      const auto r = mem.read(addr);
      ASSERT_TRUE(r.ok);
      ASSERT_EQ(r.value, value);
    }
  }
}

// Differential test of the dirty-word bitmap: random operation sequences on
// a few memories against plain codeword vectors. After every operation the
// bitmap invariant holds (a clear bit means a zero codeword), the summary
// marks exactly the nonzero bitmap words, and the raw codewords and error
// counters equal the model's.
struct ModelledMemory {
  explicit ModelledMemory(std::uint32_t words) : memory{4 * words}, codewords(words, 0) {}

  EccMemory memory;
  std::vector<std::uint64_t> codewords;
  std::uint64_t corrected = 0;
  std::uint64_t uncorrectable = 0;

  /// What a read or scrub of `word` does to the model.
  EccDecodeResult decodeInModel(std::uint32_t word) {
    const EccDecodeResult decoded = eccDecode(codewords[word]);
    if (decoded.status == EccStatus::Corrected) {
      codewords[word] = decoded.codeword;
      ++corrected;
    } else if (decoded.status == EccStatus::Uncorrectable) {
      ++uncorrectable;
    }
    return decoded;
  }
};

void expectMatchesModel(const ModelledMemory& m) {
  const std::span<const std::uint64_t> dirty = m.memory.dirtyWords();
  const std::span<const std::uint64_t> summary = m.memory.dirtySummary();
  ASSERT_EQ(dirty.size(), (m.codewords.size() + 63) / 64);
  ASSERT_EQ(summary.size(), (dirty.size() + 63) / 64);
  ASSERT_EQ(m.memory.rawCodewords(), m.codewords);
  for (std::size_t word = 0; word < m.codewords.size(); ++word) {
    const bool isDirty = (dirty[word / 64] >> (word % 64)) & 1u;
    if (!isDirty && m.codewords[word] != 0) FAIL() << "clean word " << word << " is nonzero";
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const bool marked = (summary[i / 64] >> (i % 64)) & 1u;
    ASSERT_EQ(marked, dirty[i] != 0) << "summary bit " << i;
  }
  // Bits past the last word, and past the last bitmap word, stay clear.
  if (m.codewords.size() % 64 != 0) {
    ASSERT_EQ(dirty.back() >> (m.codewords.size() % 64), 0u);
  }
  if (dirty.size() % 64 != 0) {
    ASSERT_EQ(summary.back() >> (dirty.size() % 64), 0u);
  }
  ASSERT_EQ(m.memory.correctedErrors(), m.corrected);
  ASSERT_EQ(m.memory.uncorrectableErrors(), m.uncorrectable);
}

void runAgainstModel(const std::vector<std::uint32_t>& startSizes, std::uint64_t seed, int steps) {
  util::Rng rng{seed};
  std::vector<ModelledMemory> memories;
  for (const std::uint32_t words : startSizes) memories.emplace_back(words);
  for (int step = 0; step < steps; ++step) {
    ModelledMemory& m = memories[rng.uniformInt(memories.size())];
    const auto words = static_cast<std::uint32_t>(m.codewords.size());
    // Words cluster low, as guest programs do, so many stay clean.
    const auto word = static_cast<std::uint32_t>(rng.uniformInt(rng.bernoulli(0.8) ? 8 : words));
    switch (rng.uniformInt(7)) {
      case 0: {
        const auto value = rng.bernoulli(0.2) ? 0u : static_cast<std::uint32_t>(rng.next());
        ASSERT_TRUE(m.memory.write(4 * word, value));
        m.codewords[word] = eccEncode(value);
        break;
      }
      case 1: {
        const int bitIndex = static_cast<int>(rng.uniformInt(kEccCodewordBits));
        ASSERT_TRUE(m.memory.flipBit(4 * word, bitIndex));
        m.codewords[word] ^= 1ULL << bitIndex;
        break;
      }
      case 2: {
        const MemoryReadResult read = m.memory.read(4 * word);
        const EccDecodeResult expected = m.decodeInModel(word);
        ASSERT_EQ(read.ok, expected.status != EccStatus::Uncorrectable);
        ASSERT_EQ(read.corrected, expected.status == EccStatus::Corrected);
        if (read.ok) {
          ASSERT_EQ(read.value, expected.data);
        }
        break;
      }
      case 3: {
        std::uint32_t expected = 0;
        for (std::uint32_t w = 0; w < words; ++w) {
          if (m.decodeInModel(w).status == EccStatus::Corrected) ++expected;
        }
        ASSERT_EQ(m.memory.scrub(), expected);
        break;
      }
      case 4: {
        // A restore may also change the size (to any, or back to a starting
        // size, so large memories stay in play), and may carry codeword bits
        // above bit 38 (the blob format does not forbid them).
        const std::size_t size = rng.bernoulli(0.5)   ? words
                                 : rng.bernoulli(0.5) ? 64 + rng.uniformInt(200)
                                                      : startSizes[rng.uniformInt(startSizes.size())];
        std::vector<std::uint64_t> raw(size, 0);
        for (std::uint64_t& codeword : raw) {
          if (rng.bernoulli(0.1)) codeword = rng.next() >> rng.uniformInt(40);
        }
        m.codewords = raw;
        m.corrected = rng.uniformInt(5);
        m.uncorrectable = rng.uniformInt(5);
        m.memory.restoreRaw(std::move(raw), m.corrected, m.uncorrectable);
        break;
      }
      default: {
        // Copy assignment in every direction, including self-assignment and
        // the size-changing copies between memories of different sizes.
        const ModelledMemory& source = memories[rng.uniformInt(memories.size())];
        m.memory = source.memory;
        m.codewords = source.codewords;
        m.corrected = source.corrected;
        m.uncorrectable = source.uncorrectable;
        break;
      }
    }
    for (const ModelledMemory& checked : memories) {
      expectMatchesModel(checked);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EccMemory, DirtyWordBitmapMatchesPlainModel) {
  // Small memories take many operations: two of 256 words and one of 100,
  // which is not a multiple of 64.
  runAgainstModel({256, 256, 100}, 2024, 20000);
  if (HasFatalFailure()) return;
  // Large ones reach the summary beyond its first word: two of the guest
  // size (16 384 words, four summary words) and one of 5 000 words (two
  // summary words, the last one partial). A scrub walks every word, so
  // fewer steps.
  runAgainstModel({16384, 16384, 5000}, 2025, 1500);
}

TEST(EccMemory, CopiesAndMovesKeepTheBitmap) {
  EccMemory source{1024};
  source.write(4, 7);
  source.flipBit(900, 3);
  const EccMemory copied{source};
  EXPECT_EQ(copied.rawCodewords(), source.rawCodewords());
  EXPECT_TRUE(std::ranges::equal(copied.dirtyWords(), source.dirtyWords()));
  EccMemory temporary{source};
  const EccMemory moved{std::move(temporary)};
  EXPECT_EQ(moved.rawCodewords(), source.rawCodewords());
  EXPECT_TRUE(std::ranges::equal(moved.dirtyWords(), source.dirtyWords()));
  temporary = source;  // a moved-from memory takes a copy like any other
  EXPECT_EQ(temporary.rawCodewords(), source.rawCodewords());
  EXPECT_TRUE(std::ranges::equal(temporary.dirtyWords(), source.dirtyWords()));
  EXPECT_EQ(temporary.read(4).value, 7u);
  EccMemory assigned{64};
  assigned = EccMemory{source};
  EXPECT_EQ(assigned.rawCodewords(), source.rawCodewords());
  EXPECT_TRUE(std::ranges::equal(assigned.dirtyWords(), source.dirtyWords()));
}

// A moved-from memory, and so a moved-from hw::Machine, is an empty memory
// that refuses every access, not one whose word count outlives its storage.
void expectHoldsNoWords(EccMemory& memory) {
  EXPECT_EQ(memory.wordCount(), 0u);
  EXPECT_TRUE(memory.rawCodewords().empty());
  EXPECT_TRUE(memory.dirtyWords().empty());
  EXPECT_TRUE(memory.dirtySummary().empty());
  const MemoryReadResult read = memory.read(4);
  EXPECT_FALSE(read.ok);
  EXPECT_FALSE(read.corrected);
  EXPECT_FALSE(memory.write(4, 1));
  EXPECT_FALSE(memory.flipBit(4, 0));
  EXPECT_EQ(memory.rawCodeword(1), 0u);
  EXPECT_EQ(memory.scrub(), 0u);
}

TEST(EccMemory, MovedFromMemoryHoldsNoWords) {
  EccMemory source{1024};
  source.write(4, 7);
  source.flipBit(900, 3);
  const EccMemory expected{source};
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the subject.
  EccMemory constructed{std::move(source)};
  expectHoldsNoWords(source);
  EccMemory assigned{64};
  assigned = std::move(constructed);
  expectHoldsNoWords(constructed);
  // NOLINTEND(bugprone-use-after-move)
  EXPECT_EQ(assigned.rawCodewords(), expected.rawCodewords());
  EXPECT_TRUE(std::ranges::equal(assigned.dirtySummary(), expected.dirtySummary()));
  // An emptied memory takes a copy again.
  source = assigned;
  EXPECT_EQ(source.wordCount(), 256u);
  EXPECT_EQ(source.read(4).value, 7u);
  EXPECT_EQ(source.rawCodewords(), expected.rawCodewords());
  EXPECT_TRUE(std::ranges::equal(source.dirtyWords(), expected.dirtyWords()));
  EXPECT_TRUE(std::ranges::equal(source.dirtySummary(), expected.dirtySummary()));
}

}  // namespace
}  // namespace nlft::hw
