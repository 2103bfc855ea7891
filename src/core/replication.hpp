// Consumer-side arbitration of messages from an actively replicated
// (duplex) sender pair — e.g. the wheel nodes consuming the two central
// units' brake commands.
//
// Replica determinism (paper reference [12] and Section 4) means both
// replicas of a round send the same sequence number with — ideally — the
// same payload. Two policies are provided:
//
//   * FirstValid      — accept the first arrival of every sequence number,
//                       drop the duplicate. Lowest latency; relies on each
//                       node's own NLFT to keep the values trustworthy.
//   * CompareAndFlag  — hold the first arrival until the partner's copy (or
//                       a timeout): matching copies are delivered, a
//                       mismatch is flagged as a detected error and NOT
//                       delivered (turning replica divergence into an
//                       omission), and a timeout delivers the single copy
//                       (the partner is presumed down).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "util/time.hpp"

namespace nlft::tem {

using util::Duration;
using util::SimTime;

class DuplexArbiter {
 public:
  enum class Policy : std::uint8_t { FirstValid, CompareAndFlag };

  /// `compareWindow` is how long CompareAndFlag waits for the partner copy.
  explicit DuplexArbiter(Policy policy, Duration compareWindow = Duration::milliseconds(10));

  /// Offers one replica message. Returns true when the arbiter delivers
  /// `payload` at this point (first arrival, or matching second copy); the
  /// caller then consumes its own words. A held first copy is stored.
  [[nodiscard]] bool offer(int replica, std::uint64_t sequence,
                           std::span<const std::uint32_t> payload, SimTime now);

  /// Flushes timed-out pending sequences; returns the payloads that are
  /// released single-source (partner missing). Call periodically.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> poll(SimTime now);

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] std::uint64_t singleSourceDeliveries() const { return singleSource_; }

  /// Invoked on every CompareAndFlag mismatch (a detected replica error).
  void setMismatchHandler(std::function<void(std::uint64_t sequence)> handler) {
    onMismatch_ = std::move(handler);
  }

  /// 64-bit digest of the arbitration state: every pending sequence
  /// (replica, payload, arrival time) and the SET of settled sequences.
  /// Settle times are not kept, and the delivery counters are deliberately
  /// excluded: they never feed back into arbitration decisions, and after a
  /// masked fault (e.g. a CU omission bridged by the partner replica) a
  /// sequence settles at a legitimately later instant — pinning the digest
  /// to that bookkeeping would block the snapshot engine's golden-rejoin
  /// check forever.
  [[nodiscard]] std::uint64_t stateDigest() const;

 private:
  struct Pending {
    int replica;
    std::vector<std::uint32_t> payload;
    SimTime arrivedAt;
  };

  /// Records `sequence` as delivered or flagged.
  void settle(std::uint64_t sequence);
  [[nodiscard]] bool settled(std::uint64_t sequence) const;

  Policy policy_;
  Duration window_;
  std::map<std::uint64_t, Pending> pending_;
  /// Delivered/flagged sequences, sorted. Sequences arrive nearly in order,
  /// so an insert is almost always an append.
  std::vector<std::uint64_t> settled_;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicatesDropped_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t singleSource_ = 0;
  std::function<void(std::uint64_t)> onMismatch_;
};

}  // namespace nlft::tem
