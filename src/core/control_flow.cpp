#include "core/control_flow.hpp"

#include <algorithm>

#include "util/crc.hpp"

namespace nlft::tem {

std::uint32_t SignatureMonitor::signatureOf(const std::vector<std::uint32_t>& blockIds) {
  return util::crc32Words(blockIds);
}

void SignatureMonitor::addLegalPath(const std::vector<std::uint32_t>& blockIds) {
  legalSignatures_.push_back(signatureOf(blockIds));
}

void SignatureMonitor::begin() { running_ = 0; }

void SignatureMonitor::enterBlock(std::uint32_t blockId) {
  // Serialise exactly like crc32Words so incremental and one-shot agree.
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(blockId), static_cast<std::uint8_t>(blockId >> 8),
      static_cast<std::uint8_t>(blockId >> 16), static_cast<std::uint8_t>(blockId >> 24)};
  running_ = util::crc32Update(running_, bytes);
}

bool SignatureMonitor::finishAndCheck() const {
  return std::find(legalSignatures_.begin(), legalSignatures_.end(), running_) !=
         legalSignatures_.end();
}

}  // namespace nlft::tem
