#include "core/replication.hpp"

#include <algorithm>

#include "util/state_hash.hpp"

namespace nlft::tem {

bool DuplexArbiter::offer(std::uint64_t sequence) {
  const auto it = std::lower_bound(settled_.begin(), settled_.end(), sequence);
  if (it != settled_.end() && *it == sequence) {
    ++duplicatesDropped_;
    return false;
  }
  settled_.insert(it, sequence);
  ++delivered_;
  return true;
}

std::uint64_t DuplexArbiter::stateDigest() const {
  util::StateHash digest;
  for (const std::uint64_t sequence : settled_) digest.u64(sequence);
  return digest.finish();
}

}  // namespace nlft::tem
