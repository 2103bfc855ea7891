#include "hw/memory.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace nlft::hw {

// The dirty-word invariant rests on this: a never-touched word, whose
// codeword is 0, reads as a clean zero.
static_assert(eccEncode(0) == 0);

namespace {

/// 64-bit words that hold `bits` bits.
std::uint32_t wordsFor(std::uint32_t bits) { return (bits + 63u) / 64u; }

}  // namespace

EccMemory::EccMemory(std::uint32_t sizeBytes)
    : wordCount_{sizeBytes / 4},
      bitmapWords_{wordsFor(wordCount_)},
      codewords_(wordCount_, 0),
      dirty_(bitmapWords_ + wordsFor(bitmapWords_), 0) {}

EccMemory::EccMemory(EccMemory&& other) noexcept : wordCount_{0}, bitmapWords_{0} {
  *this = std::move(other);
}

EccMemory& EccMemory::operator=(EccMemory&& other) noexcept {
  // Each exchange reads `other` before clearing it, so self-move keeps all.
  wordCount_ = std::exchange(other.wordCount_, 0);
  bitmapWords_ = std::exchange(other.bitmapWords_, 0);
  codewords_ = std::exchange(other.codewords_, {});
  dirty_ = std::exchange(other.dirty_, {});
  correctedErrors_ = std::exchange(other.correctedErrors_, 0);
  uncorrectableErrors_ = std::exchange(other.uncorrectableErrors_, 0);
  return *this;
}

EccMemory& EccMemory::operator=(const EccMemory& other) {
  // Every vector's size follows from the word count (a moved-from memory
  // has none), so equal counts mean equal shapes.
  if (wordCount_ != other.wordCount_) {
    wordCount_ = other.wordCount_;
    bitmapWords_ = other.bitmapWords_;
    codewords_.assign(other.codewords_.size(), 0);
    dirty_.assign(other.dirty_.size(), 0);
  }
  // A bitmap word zero on both sides covers 64 words that are 0 on both
  // sides; in every other one, each word dirty on either side is copied.
  // Self-assignment copies dirty words onto themselves.
  for (std::size_t s = bitmapWords_; s < dirty_.size(); ++s) {
    for (std::uint64_t blocks = dirty_[s] | other.dirty_[s]; blocks != 0; blocks &= blocks - 1) {
      const std::size_t i =
          64 * (s - bitmapWords_) + static_cast<std::size_t>(std::countr_zero(blocks));
      for (std::uint64_t pending = dirty_[i] | other.dirty_[i]; pending != 0;
           pending &= pending - 1) {
        const std::size_t word = 64 * i + static_cast<std::size_t>(std::countr_zero(pending));
        codewords_[word] = other.codewords_[word];
      }
      dirty_[i] = other.dirty_[i];
    }
    dirty_[s] = other.dirty_[s];
  }
  correctedErrors_ = other.correctedErrors_;
  uncorrectableErrors_ = other.uncorrectableErrors_;
  return *this;
}

MemoryReadResult EccMemory::read(std::uint32_t address) {
  MemoryReadResult result;
  if (!validAddress(address)) return result;
  auto& codeword = codewords_[address / 4];
  const EccDecodeResult decoded = eccDecode(codeword);
  switch (decoded.status) {
    case EccStatus::Clean:
      result.ok = true;
      result.value = decoded.data;
      break;
    case EccStatus::Corrected:
      // Scrub on read: store the corrected codeword back (the word held a
      // nonzero codeword, so it is already dirty).
      codeword = decoded.codeword;
      ++correctedErrors_;
      result.ok = true;
      result.corrected = true;
      result.value = decoded.data;
      break;
    case EccStatus::Uncorrectable:
      ++uncorrectableErrors_;
      break;
  }
  return result;
}

bool EccMemory::write(std::uint32_t address, std::uint32_t value) {
  if (!validAddress(address)) return false;
  codewords_[address / 4] = eccEncode(value);
  markDirty(address / 4);
  return true;
}

std::uint64_t EccMemory::rawCodeword(std::uint32_t wordIndex) const {
  return wordIndex < wordCount_ ? codewords_[wordIndex] : 0;
}

void EccMemory::restoreRaw(std::vector<std::uint64_t> codewords, std::uint64_t correctedErrors,
                           std::uint64_t uncorrectableErrors) {
  wordCount_ = static_cast<std::uint32_t>(codewords.size());
  bitmapWords_ = wordsFor(wordCount_);
  codewords_ = std::move(codewords);
  // One bitmap word per 64 codewords. Most blocks of a guest memory are all
  // zero, and the block's OR (which vectorizes) skips them.
  dirty_.assign(bitmapWords_ + wordsFor(bitmapWords_), 0);
  for (std::size_t i = 0; i < bitmapWords_; ++i) {
    const std::size_t first = 64 * i;
    const std::size_t last = std::min<std::size_t>(first + 64, wordCount_);
    std::uint64_t any = 0;
    for (std::size_t word = first; word < last; ++word) any |= codewords_[word];
    std::uint64_t bits = 0;
    for (std::size_t word = first; any != 0 && word < last; ++word) {
      bits |= static_cast<std::uint64_t>(codewords_[word] != 0) << (word - first);
    }
    dirty_[i] = bits;
    dirty_[bitmapWords_ + i / 64] |= static_cast<std::uint64_t>(bits != 0) << (i % 64);
  }
  correctedErrors_ = correctedErrors;
  uncorrectableErrors_ = uncorrectableErrors;
}

std::uint32_t EccMemory::scrub() {
  std::uint32_t corrected = 0;
  for (std::uint32_t word = 0; word < wordCount_; ++word) {
    const EccDecodeResult decoded = eccDecode(codewords_[word]);
    switch (decoded.status) {
      case EccStatus::Clean:
        break;
      case EccStatus::Corrected:
        codewords_[word] = decoded.codeword;
        ++correctedErrors_;
        ++corrected;
        break;
      case EccStatus::Uncorrectable:
        ++uncorrectableErrors_;
        break;
    }
  }
  return corrected;
}

bool EccMemory::flipBit(std::uint32_t address, int bitIndex) {
  if (!validAddress(address) || bitIndex < 0 || bitIndex >= kEccCodewordBits) return false;
  codewords_[address / 4] ^= 1ULL << bitIndex;
  markDirty(address / 4);
  return true;
}

}  // namespace nlft::hw
