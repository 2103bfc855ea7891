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

void TdmaBus::sendDynamic(NodeId node, std::uint32_t priority, std::vector<std::uint32_t> payload) {
  Frame frame;
  frame.sender = node;
  frame.slot = ~0u;
  frame.priority = priority;
  frame.payload = std::move(payload);
  pendingDynamic_.push_back(std::move(frame));
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
  for (const Frame& frame : pendingDynamic_) {
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
  if (pendingDynamic_.empty()) return;
  std::stable_sort(pendingDynamic_.begin(), pendingDynamic_.end(),
                   [](const Frame& a, const Frame& b) { return a.priority < b.priority; });
  std::uint32_t used = 0;
  std::deque<Frame> keep;
  while (!pendingDynamic_.empty()) {
    Frame frame = std::move(pendingDynamic_.front());
    pendingDynamic_.pop_front();
    if (nodeSilent(frame.sender)) continue;  // silent nodes transmit nothing
    if (used >= config_.dynamicMinislots) {
      keep.push_back(std::move(frame));
      continue;
    }
    ++used;
    std::vector<std::uint32_t> flipBits = takeCorruption(frame.sender);
    simulator_.scheduleAfter(config_.minislotLength * static_cast<std::int64_t>(used),
                             [this, frame = std::move(frame),
                              flipBits = std::move(flipBits)]() mutable {
                               deliver(frame, flipBits);
                             },
                             sim::EventPriority::Network);
  }
  pendingDynamic_ = std::move(keep);
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
