#include "core/replication.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/state_hash.hpp"

namespace nlft::tem {

DuplexArbiter::DuplexArbiter(Policy policy, Duration compareWindow)
    : policy_{policy}, window_{compareWindow} {
  if (compareWindow <= Duration{}) throw std::invalid_argument("DuplexArbiter: bad window");
}

void DuplexArbiter::settle(std::uint64_t sequence) {
  settled_.insert(std::lower_bound(settled_.begin(), settled_.end(), sequence), sequence);
}

bool DuplexArbiter::settled(std::uint64_t sequence) const {
  return std::binary_search(settled_.begin(), settled_.end(), sequence);
}

bool DuplexArbiter::offer(int replica, std::uint64_t sequence,
                          std::span<const std::uint32_t> payload, SimTime now) {
  if (replica != 0 && replica != 1) throw std::invalid_argument("DuplexArbiter: bad replica");

  if (settled(sequence)) {
    ++duplicatesDropped_;
    return false;
  }

  if (policy_ == Policy::FirstValid) {
    settle(sequence);
    ++delivered_;
    return true;
  }

  // CompareAndFlag.
  const auto pendingIt = pending_.find(sequence);
  if (pendingIt == pending_.end()) {
    pending_[sequence] = Pending{replica, {payload.begin(), payload.end()}, now};
    return false;
  }
  if (pendingIt->second.replica == replica) {
    ++duplicatesDropped_;  // same replica retransmitted
    return false;
  }

  const bool match = std::ranges::equal(pendingIt->second.payload, payload);
  pending_.erase(pendingIt);
  settle(sequence);
  if (match) {
    ++delivered_;
    return true;
  }
  ++mismatches_;
  if (onMismatch_) onMismatch_(sequence);
  return false;
}

std::uint64_t DuplexArbiter::stateDigest() const {
  util::StateHash digest;
  digest.u64(static_cast<std::uint64_t>(policy_));
  digest.i64(window_.us());
  for (const auto& [sequence, pending] : pending_) {
    digest.u64(sequence);
    digest.u64(static_cast<std::uint64_t>(pending.replica));
    digest.i64(pending.arrivedAt.us());
    digest.u64(pending.payload.size());
    for (const std::uint32_t word : pending.payload) digest.u64(word);
  }
  for (const std::uint64_t sequence : settled_) digest.u64(sequence);
  return digest.finish();
}

std::vector<std::vector<std::uint32_t>> DuplexArbiter::poll(SimTime now) {
  std::vector<std::vector<std::uint32_t>> released;
  if (policy_ != Policy::CompareAndFlag) return released;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.arrivedAt >= window_) {
      settle(it->first);
      ++delivered_;
      ++singleSource_;
      released.push_back(std::move(it->second.payload));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return released;
}

}  // namespace nlft::tem
