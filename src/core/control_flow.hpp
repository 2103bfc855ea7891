// Control-flow error detection (paper Section 2.7): block-signature
// monitoring. The task reports every basic block it enters; at the end the
// accumulated signature must equal the signature of a legal path. Detects
// illegal jumps within the task that the MMU cannot see.
#pragma once

#include <cstdint>
#include <vector>

namespace nlft::tem {

/// Accumulates a running signature of executed block ids and checks it
/// against pre-recorded legal path signatures.
class SignatureMonitor {
 public:
  /// Records a legal path (sequence of block ids) during integration.
  void addLegalPath(const std::vector<std::uint32_t>& blockIds);

  /// Starts a fresh run.
  void begin();
  /// Reports entry into a basic block.
  void enterBlock(std::uint32_t blockId);
  /// True if the accumulated signature matches any legal path.
  [[nodiscard]] bool finishAndCheck() const;

  [[nodiscard]] static std::uint32_t signatureOf(const std::vector<std::uint32_t>& blockIds);

 private:
  std::vector<std::uint32_t> legalSignatures_;
  std::uint32_t running_ = 0;
};

}  // namespace nlft::tem
