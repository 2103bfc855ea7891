// Consumer-side arbitration of messages from an actively replicated
// (duplex) sender pair — e.g. the wheel nodes consuming the two central
// units' brake commands.
//
// Replica determinism (paper reference [12] and Section 4) means both
// replicas of a round send the same sequence number with — ideally — the
// same payload. The arbiter accepts the first arrival of every sequence
// number and drops the partner's duplicate: the lowest latency, relying on
// each node's own NLFT to keep the values trustworthy.
#pragma once

#include <cstdint>
#include <vector>

namespace nlft::tem {

class DuplexArbiter {
 public:
  /// Offers one replica message of `sequence`. Returns true for the first
  /// arrival of the sequence (the caller then consumes its own words) and
  /// false for every later copy, which is counted as a dropped duplicate.
  [[nodiscard]] bool offer(std::uint64_t sequence);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }

  /// 64-bit digest of the arbitration state: the SET of settled sequences.
  /// Settle times are not kept, and the delivery counters are deliberately
  /// excluded: they never feed back into arbitration decisions, and after a
  /// masked fault (e.g. a CU omission bridged by the partner replica) a
  /// sequence settles at a legitimately later instant — pinning the digest
  /// to that bookkeeping would block the snapshot engine's golden-rejoin
  /// check forever.
  [[nodiscard]] std::uint64_t stateDigest() const;

 private:
  /// Delivered sequences, sorted. Sequences arrive nearly in order, so an
  /// insert is almost always an append.
  std::vector<std::uint64_t> settled_;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicatesDropped_ = 0;
};

}  // namespace nlft::tem
