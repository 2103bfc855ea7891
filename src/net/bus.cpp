#include "net/bus.hpp"

#include <algorithm>
#include <stdexcept>

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
    : simulator_{simulator}, config_{std::move(config)} {
  if (config_.staticSchedule.empty()) throw std::invalid_argument("TdmaBus: empty schedule");
  if (config_.slotLength <= Duration{}) throw std::invalid_argument("TdmaBus: bad slot length");
}

Duration TdmaBus::cycleLength() const {
  return config_.slotLength * static_cast<std::int64_t>(config_.staticSchedule.size()) +
         config_.minislotLength * static_cast<std::int64_t>(config_.dynamicMinislots);
}

void TdmaBus::attach(NodeId node, ReceiveFn receive) {
  attached_.push_back({node, std::move(receive)});
}

void TdmaBus::sendStatic(NodeId node, std::span<const std::uint32_t> payload) {
  StaticSlot& slot = pendingStatic_[node];
  slot.pending = true;
  slot.payload.assign(payload.begin(), payload.end());
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

void TdmaBus::setNodeSilent(NodeId node, bool silent) { silent_[node] = silent; }

bool TdmaBus::nodeSilent(NodeId node) const {
  const auto it = silent_.find(node);
  return it != silent_.end() && it->second;
}

void TdmaBus::corruptNextFrame(NodeId node, std::vector<std::uint32_t> flipBits) {
  if (flipBits.empty()) flipBits.push_back(0);
  corruptNext_[node] = std::move(flipBits);
}

std::vector<std::uint32_t> TdmaBus::takeCorruption(NodeId node) {
  const auto it = corruptNext_.find(node);
  if (it == corruptNext_.end()) return {};
  std::vector<std::uint32_t> bits = std::move(it->second);
  corruptNext_.erase(it);
  return bits;
}

bool TdmaBus::injectionArmed() const {
  for (const auto& entry : corruptNext_) {
    if (!entry.second.empty()) return true;
  }
  return false;
}

std::uint64_t TdmaBus::stateDigest() const {
  util::StateHash digest;
  for (const auto& [node, slot] : pendingStatic_) {
    if (!slot.pending) continue;
    digest.u64(node);
    digest.u64(slot.payload.size());
    for (const std::uint32_t word : slot.payload) digest.u64(word);
  }
  for (std::size_t i = 0; i < dynamicPending_; ++i) {
    const Frame& frame = dynamicFrames_[i];
    digest.u64(frame.sender);
    digest.u64(frame.priority);
    digest.u64(frame.payload.size());
    for (const std::uint32_t word : frame.payload) digest.u64(word);
  }
  for (const auto& [node, silent] : silent_) {
    if (silent) digest.u64(node);
  }
  for (const auto& [node, bits] : corruptNext_) {
    if (bits.empty()) continue;
    digest.u64(node);
    for (const std::uint32_t bit : bits) digest.u64(bit);
  }
  return digest.finish();
}

void TdmaBus::start() {
  if (started_) throw std::logic_error("TdmaBus: already started");
  started_ = true;
  scheduleNextCycle();
}

void TdmaBus::scheduleNextCycle() {
  // Schedule every slot boundary of the upcoming cycle. Frames are delivered
  // at the END of their slot (transmission complete).
  const SimTime cycleStart = simulator_.now();
  for (std::uint32_t slot = 0; slot < config_.staticSchedule.size(); ++slot) {
    const SimTime slotEnd = cycleStart + config_.slotLength * static_cast<std::int64_t>(slot + 1);
    simulator_.scheduleAt(slotEnd, [this, slot] { runStaticSlot(slot); },
                          sim::EventPriority::Network);
  }
  const SimTime staticEnd =
      cycleStart + config_.slotLength * static_cast<std::int64_t>(config_.staticSchedule.size());
  const SimTime cycleEnd = cycleStart + cycleLength();
  if (config_.dynamicMinislots > 0) {
    // Arbitration happens when the static segment closes; each winning frame
    // is delivered at the end of its minislot.
    simulator_.scheduleAt(staticEnd, [this] { runDynamicSegment(); },
                          sim::EventPriority::Network);
  }
  simulator_.scheduleAt(cycleEnd,
                        [this] {
                          ++cycles_;
                          scheduleNextCycle();
                        },
                        sim::EventPriority::Observer);
}

void TdmaBus::runStaticSlot(std::uint32_t slot) {
  const NodeId owner = config_.staticSchedule[slot];
  if (nodeSilent(owner)) return;
  const auto it = pendingStatic_.find(owner);
  if (it == pendingStatic_.end() || !it->second.pending) return;
  it->second.pending = false;
  Frame& frame = staticFrame_;
  frame.sender = owner;
  frame.slot = slot;
  frame.priority = 0;
  frame.crc = 0;
  frame.payload.swap(it->second.payload);
  deliver(frame, takeCorruption(owner));
}

void TdmaBus::runDynamicSegment() {
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
    winner.flipBits = takeCorruption(winner.frame.sender);
    ++used;
    simulator_.scheduleAfter(config_.minislotLength * static_cast<std::int64_t>(used),
                             [this, index = used - 1] {
                               InFlight& delivery = inFlight_[index];
                               deliver(delivery.frame, delivery.flipBits);
                             },
                             sim::EventPriority::Network);
  }
  dynamicPending_ = kept;
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
  for (const Attached& attached : attached_) {
    if (attached.node == frame.sender) continue;
    attached.receive(frame);
  }
}

}  // namespace nlft::net
