// ECC-protected word-addressable memory.
//
// Every 32-bit word is stored as a 39-bit SEC-DED codeword. Reads decode the
// codeword: single-bit upsets are corrected transparently (and counted),
// double-bit upsets raise an uncorrectable-ECC error that the machine turns
// into a bus-error exception. Fault injectors flip raw codeword bits, so
// parity bits are exposed to faults exactly like data bits.
//
// A dirty-word bitmap records every word that may hold a nonzero codeword.
// Since eccEncode(0) == 0, a word whose bit is clear holds codeword 0. A
// summary level above it has one bit per bitmap word (4 summary words for
// 64 KiB), so copy assignment (every machine fork) and fi::behaviorDigest
// visit the summary words, then the bitmap words with a dirty bit, then the
// dirty words: they cost what the guest touched, not the memory size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/hamming.hpp"

namespace nlft::hw {

/// Outcome of a memory read.
struct MemoryReadResult {
  bool ok = false;           ///< false on uncorrectable ECC error or bad address
  bool corrected = false;    ///< a single-bit error was corrected
  std::uint32_t value = 0;
};

class EccMemory {
 public:
  /// Creates a memory of `sizeBytes` (rounded down to whole words), zeroed.
  explicit EccMemory(std::uint32_t sizeBytes);

  EccMemory(const EccMemory&) = default;
  /// Leaves `other` an empty memory: no words, so it refuses every access.
  EccMemory(EccMemory&& other) noexcept;
  /// Copies only the words dirty on either side, then both bitmap levels; a
  /// size change first resets this memory to all-clean words of the new size.
  EccMemory& operator=(const EccMemory& other);
  /// Leaves `other` an empty memory, as the move constructor does.
  EccMemory& operator=(EccMemory&& other) noexcept;

  [[nodiscard]] std::uint32_t sizeBytes() const { return wordCount_ * 4; }
  [[nodiscard]] std::uint32_t wordCount() const { return wordCount_; }

  /// Aligned 32-bit read with ECC decode. `address` must be word-aligned and
  /// in range; otherwise ok=false with corrected=false.
  [[nodiscard]] MemoryReadResult read(std::uint32_t address);

  /// Aligned 32-bit write (re-encodes a fresh codeword, clearing any latent
  /// upsets in that word). Returns false on bad address.
  bool write(std::uint32_t address, std::uint32_t value);

  /// Raw read without ECC decode (for golden-run snapshots and scrubbing).
  [[nodiscard]] std::uint64_t rawCodeword(std::uint32_t wordIndex) const;

  /// The whole codeword array, raw (for machine snapshots and state digests).
  [[nodiscard]] const std::vector<std::uint64_t>& rawCodewords() const { return codewords_; }

  /// The dirty-word bitmap: bit `w % 64` of element `w / 64` is set once
  /// word `w` is written, flipped or restored nonzero; only restoreRaw()
  /// and copy assignment clear bits. A clear bit guarantees
  /// `rawCodeword(w) == 0`.
  [[nodiscard]] std::span<const std::uint64_t> dirtyWords() const {
    return {dirty_.data(), bitmapWords_};
  }

  /// The summary of the bitmap: bit `i % 64` of element `i / 64` is set
  /// exactly when `dirtyWords()[i]` is nonzero.
  [[nodiscard]] std::span<const std::uint64_t> dirtySummary() const {
    return std::span<const std::uint64_t>{dirty_}.subspan(bitmapWords_);
  }

  /// Restores the exact raw state captured by a snapshot: one codeword per
  /// word (resizing the memory to match) plus both error counters. Latent
  /// upsets present at save time come back latent. Both bitmap levels are
  /// rebuilt from the nonzero codewords.
  void restoreRaw(std::vector<std::uint64_t> codewords, std::uint64_t correctedErrors,
                  std::uint64_t uncorrectableErrors);

  /// Flips one codeword bit (0..38) of the addressed word; the model for a
  /// memory single-event upset. Returns false on bad address/bit.
  bool flipBit(std::uint32_t address, int bitIndex);

  /// Memory scrubbing: decodes every word, rewriting corrected codewords.
  /// Periodic scrubbing keeps latent single-bit upsets from accumulating
  /// into uncorrectable double-bit errors. Returns the number of words
  /// corrected in this pass (uncorrectable words are left untouched and
  /// counted via uncorrectableErrors()).
  std::uint32_t scrub();

  /// Number of single-bit errors corrected since construction.
  [[nodiscard]] std::uint64_t correctedErrors() const { return correctedErrors_; }
  /// Number of uncorrectable (double-bit) errors observed by reads.
  [[nodiscard]] std::uint64_t uncorrectableErrors() const { return uncorrectableErrors_; }

  [[nodiscard]] bool validAddress(std::uint32_t address) const {
    return address % 4 == 0 && address / 4 < wordCount_;
  }

 private:
  void markDirty(std::uint32_t word) {
    dirty_[word / 64] |= 1ULL << (word % 64);
    dirty_[bitmapWords_ + word / 4096] |= 1ULL << (word / 64 % 64);
  }

  std::uint32_t wordCount_;
  std::uint32_t bitmapWords_;  ///< dirty_'s bitmap words; its summary follows them
  std::vector<std::uint64_t> codewords_;
  /// The bitmap, then its summary, in one allocation: a vector of its own
  /// for the summary raised machine_fi's peak RSS by about 1.3 %.
  std::vector<std::uint64_t> dirty_;
  std::uint64_t correctedErrors_ = 0;
  std::uint64_t uncorrectableErrors_ = 0;
};

}  // namespace nlft::hw
