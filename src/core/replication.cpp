#include "core/replication.hpp"

#include <algorithm>

#include "util/state_hash.hpp"

namespace nlft::tem {

bool DuplexArbiter::offer(std::uint64_t sequence) {
  // Sequences arrive nearly in order: a new one usually lies past every
  // settled one, and the partner's duplicate usually equals the last one.
  // Neither needs a search.
  auto it = settled_.end();
  if (!settled_.empty() && sequence <= settled_.back()) {
    --it;
    if (sequence < *it) it = std::lower_bound(settled_.begin(), it, sequence);
  }
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
