#include "net/bus.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/crc.hpp"
#include "util/state_hash.hpp"

namespace nlft::net {

std::uint16_t frameCrc(std::span<const std::uint32_t> payload) {
  return util::crc16CcittWords(payload);
}

void flipFrameBit(Frame& frame, std::uint32_t bitIndex) {
  const std::uint32_t payloadBits = static_cast<std::uint32_t>(frame.payload.size()) * 32;
  const std::uint32_t totalBits = payloadBits + 16;
  bitIndex %= totalBits;
  if (bitIndex < payloadBits) {
    frame.payload[bitIndex / 32] ^= 1u << (bitIndex % 32);
  } else {
    frame.crc = static_cast<std::uint16_t>(frame.crc ^ (1u << (bitIndex - payloadBits)));
  }
}

TdmaBus::TdmaBus(sim::Simulator& simulator, TdmaConfig config)
    : simulator_{simulator}, component_{simulator.addComponent(this)}, config_{std::move(config)} {
  if (config_.staticSchedule.empty()) throw std::invalid_argument("TdmaBus: empty schedule");
  if (config_.slotLength <= Duration{}) throw std::invalid_argument("TdmaBus: bad slot length");
  for (const NodeId owner : config_.staticSchedule) slotRows_.push_back(port(owner).row);
}

Duration TdmaBus::cycleLength() const {
  return config_.slotLength * static_cast<std::int64_t>(config_.staticSchedule.size()) +
         config_.minislotLength * static_cast<std::int64_t>(config_.dynamicMinislots);
}

std::size_t TdmaBus::position(NodeId node) const {
  const auto it = std::lower_bound(byId_.begin(), byId_.end(), node,
                                   [this](std::uint32_t r, NodeId id) { return rows_[r].node < id; });
  return static_cast<std::size_t>(it - byId_.begin());
}

std::uint32_t TdmaBus::find(NodeId node) const {
  const std::size_t at = position(node);
  return at < byId_.size() && rows_[byId_[at]].node == node ? byId_[at] : kNoRow;
}

TdmaBus::Port TdmaBus::port(NodeId node) {
  if (const std::uint32_t index = find(node); index != kNoRow) return Port{index};
  const auto index = static_cast<std::uint32_t>(rows_.size());
  byId_.insert(byId_.begin() + static_cast<std::ptrdiff_t>(position(node)), index);
  rows_.emplace_back().node = node;
  return Port{index};
}

void TdmaBus::attach(ReceiveFn receive) { receivers_.push_back(std::move(receive)); }

void TdmaBus::sendStatic(Port port, std::span<const std::uint32_t> payload) {
  NodeRow& sender = rows_[port.row];
  sender.pending = true;
  sender.payload.assign(payload.begin(), payload.end());
}

void TdmaBus::sendDynamic(NodeId node, std::uint32_t priority,
                          std::span<const std::uint32_t> payload) {
  if (dynamicPending_ == dynamicFrames_.size()) dynamicFrames_.emplace_back();
  Frame& frame = dynamicFrames_[dynamicPending_++];
  frame.sender = node;
  frame.slot = ~0u;
  frame.priority = priority;
  frame.payload.assign(payload.begin(), payload.end());
}

void TdmaBus::setNodeSilent(NodeId node, bool silent) { row(node).silent = silent; }

bool TdmaBus::nodeSilent(NodeId node) const {
  const std::uint32_t index = find(node);
  return index != kNoRow && rows_[index].silent;
}

void TdmaBus::corruptNextFrame(NodeId node, std::vector<std::uint32_t> flipBits) {
  if (flipBits.empty()) flipBits.push_back(0);
  row(node).corruption = std::move(flipBits);
}

bool TdmaBus::injectionArmed() const {
  return std::any_of(rows_.begin(), rows_.end(),
                     [](const NodeRow& r) { return !r.corruption.empty(); });
}

std::uint64_t TdmaBus::stateDigest() const {
  util::StateHash digest;
  for (const std::uint32_t index : byId_) {
    const NodeRow& r = rows_[index];
    if (!r.pending) continue;
    digest.u64(r.node);
    digest.u64(r.payload.size());
    for (const std::uint32_t word : r.payload) digest.u64(word);
  }
  for (std::size_t i = 0; i < dynamicPending_; ++i) {
    const Frame& frame = dynamicFrames_[i];
    digest.u64(frame.sender);
    digest.u64(frame.priority);
    digest.u64(frame.payload.size());
    for (const std::uint32_t word : frame.payload) digest.u64(word);
  }
  for (const std::uint32_t index : byId_) {
    if (rows_[index].silent) digest.u64(rows_[index].node);
  }
  for (const std::uint32_t index : byId_) {
    const NodeRow& r = rows_[index];
    if (r.corruption.empty()) continue;
    digest.u64(r.node);
    for (const std::uint32_t bit : r.corruption) digest.u64(bit);
  }
  return digest.finish();
}

void TdmaBus::start() {
  if (started_) throw std::logic_error("TdmaBus: already started");
  started_ = true;
  startCycle();
}

void TdmaBus::startCycle() {
  // Only the first slot boundary is scheduled now; each slot schedules the
  // next, so the queue holds one bus boundary at a time. Frames are
  // delivered at the END of their slot (transmission complete). The cycle
  // end is scheduled here, at the cycle start, which fixes its order among
  // the other Observer events at its instant.
  scheduleSlot(0);
  simulator_.scheduleAfter(cycleLength(), event<&TdmaBus::endCycle>(),
                           sim::EventPriority::Observer);
}

void TdmaBus::endCycle(std::uint64_t) {
  ++cycles_;
  startCycle();
}

void TdmaBus::scheduleSlot(std::uint32_t slot) {
  simulator_.scheduleAfter(config_.slotLength, event<&TdmaBus::runStaticSlot>(slot),
                           sim::EventPriority::Network);
}

void TdmaBus::runStaticSlot(std::uint64_t slotWord) {
  const auto slot = static_cast<std::uint32_t>(slotWord);
  if (slot + 1 < config_.staticSchedule.size()) {
    scheduleSlot(slot + 1);
  } else if (config_.dynamicMinislots > 0) {
    // Arbitration happens when the static segment closes, right after the
    // last slot's frame; each winning frame is delivered at the end of its
    // minislot.
    simulator_.scheduleAfter(Duration{}, event<&TdmaBus::runDynamicSegment>(),
                             sim::EventPriority::Network);
  }
  NodeRow& owner = rows_[slotRows_[slot]];
  if (owner.silent || !owner.pending) return;
  owner.pending = false;
  Frame& frame = staticFrame_;
  frame.sender = owner.node;
  frame.slot = slot;
  frame.priority = 0;
  frame.crc = 0;
  frame.payload.swap(owner.payload);
  deliver(frame, std::exchange(owner.corruption, {}));
}

void TdmaBus::runDynamicSegment(std::uint64_t) {
  // Minislot arbitration: pending frames transmit in priority order; each
  // consumes one minislot. Frames beyond the segment capacity wait.
  // A stable insertion sort (ties keep send order) moves frames in place,
  // so arbitration allocates nothing.
  for (std::size_t i = 1; i < dynamicPending_; ++i) {
    for (std::size_t j = i; j > 0 && dynamicFrames_[j].priority < dynamicFrames_[j - 1].priority;
         --j) {
      std::swap(dynamicFrames_[j], dynamicFrames_[j - 1]);
    }
  }
  std::uint32_t used = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < dynamicPending_; ++i) {
    Frame& frame = dynamicFrames_[i];
    if (nodeSilent(frame.sender)) continue;  // silent nodes transmit nothing
    if (used >= config_.dynamicMinislots) {
      if (kept != i) std::swap(dynamicFrames_[kept], frame);
      ++kept;
      continue;
    }
    if (used == inFlight_.size()) inFlight_.emplace_back();
    InFlight& winner = inFlight_[used];
    std::swap(winner.frame, frame);
    winner.flipBits.clear();
    if (const std::uint32_t sender = find(winner.frame.sender); sender != kNoRow) {
      std::swap(winner.flipBits, rows_[sender].corruption);
    }
    ++used;
    simulator_.scheduleAfter(config_.minislotLength * static_cast<std::int64_t>(used),
                             event<&TdmaBus::deliverInFlight>(used - 1),
                             sim::EventPriority::Network);
  }
  dynamicPending_ = kept;
}

void TdmaBus::deliverInFlight(std::uint64_t index) {
  InFlight& delivery = inFlight_[index];
  deliver(delivery.frame, delivery.flipBits);
}

void TdmaBus::deliver(Frame& frame, std::span<const std::uint32_t> flipBits) {
  // Transmission stamps the frame check sequence; injected corruption then
  // strikes the frame in transit (after the CRC is computed, as on a real
  // bus). Every receiver recomputes the CRC and drops the frame on mismatch
  // — and since all receivers see the same bits, they drop it consistently
  // (the atomic broadcast property of TDMA buses).
  frame.crc = frameCrc(frame.payload);
  if (!flipBits.empty()) {
    ++corruptionsInjected_;
    for (const std::uint32_t bit : flipBits) flipFrameBit(frame, bit);
  }
  if (frameCrc(frame.payload) != frame.crc) {
    ++dropped_;
    ++crcRejected_;
    if (dropTap_) dropTap_(frame, "crc");
    return;
  }
  ++delivered_;
  for (const ReceiveFn& receive : receivers_) receive(frame);
}

}  // namespace nlft::net
