// Time-triggered broadcast bus with FlexRay-style communication cycles
// (paper Section 2.1: "time-triggered ... or even more preferable, a mix of
// event- and time-triggered communication (such as provided by the FlexRay
// protocol)").
//
// A communication cycle (round) consists of:
//   * a static segment: one slot per entry in the static schedule, each
//     owned by one node (time-triggered; used for all critical messages);
//   * a dynamic segment: minislot arbitration by frame priority (event-
//     triggered; used for sporadic traffic such as diagnostics or state
//     re-synchronisation requests).
//
// Frames carry a CRC-16; the channel is assumed reliable by the paper, but
// corruption can be injected to exercise receiver-side end-to-end checks
// (corrupted frames are dropped and counted, never delivered).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace nlft::net {

using util::Duration;
using util::SimTime;

using NodeId = std::uint32_t;

struct Frame {
  NodeId sender = 0;
  std::uint32_t slot = 0;      ///< static slot index, or ~0u for dynamic frames
  std::uint32_t priority = 0;  ///< dynamic frames: lower value wins arbitration
  std::vector<std::uint32_t> payload;
  std::uint16_t crc = 0;  ///< frame check sequence, stamped at transmission
};

/// CRC-16-CCITT over the payload words (little-endian byte order) — the
/// frame check sequence every transmitted frame carries. The generator
/// polynomial 0x1021 has Hamming distance 4 over these frame sizes, so ANY
/// 1-, 2- or 3-bit corruption is guaranteed to be caught at the receiver.
[[nodiscard]] std::uint16_t frameCrc(std::span<const std::uint32_t> payload);

/// Flips one bit of a frame in transit. The bit index space covers the
/// payload first (32 bits per word, little-endian) and then the 16 CRC
/// bits; indices wrap modulo the frame length.
void flipFrameBit(Frame& frame, std::uint32_t bitIndex);

struct TdmaConfig {
  Duration slotLength = Duration::milliseconds(1);
  std::vector<NodeId> staticSchedule;  ///< slot index -> owning node
  std::uint32_t dynamicMinislots = 0;  ///< minislots per cycle (0 = none)
  Duration minislotLength = Duration::microseconds(100);
};

class TdmaBus {
 public:
  using ReceiveFn = std::function<void(const Frame&)>;

  TdmaBus(sim::Simulator& simulator, TdmaConfig config);
  TdmaBus(const TdmaBus&) = delete;
  TdmaBus& operator=(const TdmaBus&) = delete;

  /// Registers a bus-wide receiver, which is passed every delivered frame,
  /// whoever sent it; a receiver that listens for one node skips that
  /// node's own frames itself. The frame is owned by the bus and valid only
  /// during the callback; a receiver that keeps words must copy them.
  /// Receivers are called in the order they were attached.
  void attach(ReceiveFn receive);

  /// A node's sending row, resolved once by port(); valid while the bus
  /// lives, since a row never moves once created.
  struct Port {
    std::uint32_t row = 0;
  };
  /// The port of `node`, creating its row on first use.
  [[nodiscard]] Port port(NodeId node);

  /// Copies the payload into the port's static-slot buffer for its NEXT
  /// static slot. One frame per slot; a newer message replaces a pending one
  /// (freshest-value semantics, as in state message protocols). The buffer
  /// is reused from cycle to cycle, so a steady payload size allocates
  /// nothing.
  void sendStatic(Port port, std::span<const std::uint32_t> payload);
  /// The same, looking the node's port up first.
  void sendStatic(NodeId node, std::span<const std::uint32_t> payload) {
    sendStatic(port(node), payload);
  }

  /// Copies the payload into an event-triggered frame for the dynamic
  /// segment. Lower priority value transmits first (ties in send order).
  /// Frames that do not fit wait for the next cycle. Frame buffers are reused
  /// from cycle to cycle, so steady traffic allocates nothing.
  void sendDynamic(NodeId node, std::uint32_t priority, std::span<const std::uint32_t> payload);

  /// Starts the first communication cycle at the current simulated time.
  void start();

  /// Marks a node as silent: its static slots stay empty and its dynamic
  /// frames are discarded (fail-silent failure, or node powered down).
  void setNodeSilent(NodeId node, bool silent);
  [[nodiscard]] bool nodeSilent(NodeId node) const;

  /// Fault injection: flips the given bits of the node's next transmitted
  /// frame (payload bits first, then the 16 CRC bits; indices wrap modulo
  /// the frame length; an empty list flips bit 0). Receivers verify the CRC
  /// and drop the frame on mismatch — with 1..3 flipped bits the CRC-16
  /// catches the corruption with certainty (Hamming distance 4).
  void corruptNextFrame(NodeId node, std::vector<std::uint32_t> flipBits);

  /// Observer for dropped frames: (frame, reason) with reason "crc" (failed
  /// frame check).
  using DropTap = std::function<void(const Frame&, const char* reason)>;
  void setDropTap(DropTap tap) { dropTap_ = std::move(tap); }

  [[nodiscard]] Duration cycleLength() const;
  [[nodiscard]] std::uint64_t cyclesCompleted() const { return cycles_; }
  [[nodiscard]] std::uint64_t framesDelivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t framesDropped() const { return dropped_; }
  /// Frames that had injected corruption applied in transit.
  [[nodiscard]] std::uint64_t corruptionsInjected() const { return corruptionsInjected_; }
  /// Frames dropped because the receiver-side CRC check failed.
  [[nodiscard]] std::uint64_t crcRejected() const { return crcRejected_; }

  [[nodiscard]] const TdmaConfig& config() const { return config_; }

  /// True while any injected disturbance is still armed: a pending
  /// corruptNextFrame that no transmission has consumed yet. The system fork
  /// engine (fi::SystemBaseline) refuses to splice a faulted run back onto
  /// the golden timeline until this returns false.
  [[nodiscard]] bool injectionArmed() const;

  /// 64-bit digest of the EVOLUTION-RELEVANT bus state: queued static
  /// payloads, pending dynamic frames, silenced nodes and armed corruptions,
  /// each in ascending node-id order. Monotone delivery counters are
  /// excluded, and so are rows that carry no such state (a node un-silenced
  /// via setNodeSilent(node, false) must not perturb the digest). Two buses
  /// with equal digests queue and deliver the same frames from here on.
  [[nodiscard]] std::uint64_t stateDigest() const;

 private:
  /// One node's sending state. A row stays once created, so its buffers are
  /// reused from cycle to cycle.
  struct NodeRow {
    NodeId node = 0;
    bool pending = false;  ///< `payload` holds a static frame not yet sent
    bool silent = false;
    std::vector<std::uint32_t> payload;
    std::vector<std::uint32_t> corruption;  ///< bits to flip in the next frame; empty = none
  };
  /// A frame that won dynamic arbitration, with the corruption it carries.
  struct InFlight {
    Frame frame;
    std::vector<std::uint32_t> flipBits;
  };

  /// Schedules the end of static slot `slot`, one slot length from now.
  void scheduleSlot(std::uint32_t slot);
  /// Typed-event handlers; the payload is the slot or in-flight index.
  void runStaticSlot(std::uint64_t slot);
  void runDynamicSegment(std::uint64_t);
  void deliverInFlight(std::uint64_t index);
  void endCycle(std::uint64_t);
  /// A typed event of this bus that calls `Handler`.
  template <void (TdmaBus::*Handler)(std::uint64_t)>
  [[nodiscard]] sim::Event event(std::uint64_t word = 0) const {
    return sim::Event{&sim::callMember<TdmaBus, Handler>, component_, word};
  }
  /// Stamps the CRC, applies `flipBits` and hands `frame` to the receivers
  /// (or the drop tap on a CRC mismatch).
  void deliver(Frame& frame, std::span<const std::uint32_t> flipBits);
  /// Opens a communication cycle at the current time: schedules its first
  /// slot boundary and its end.
  void startCycle();
  /// Where `node`'s row index is, or would be inserted, in `byId_`.
  [[nodiscard]] std::size_t position(NodeId node) const;
  static constexpr std::uint32_t kNoRow = ~0u;
  /// The index in `rows_` of `node`'s row, or kNoRow if it has none.
  [[nodiscard]] std::uint32_t find(NodeId node) const;
  /// The row of `node`, created if it is new.
  NodeRow& row(NodeId node) { return rows_[port(node).row]; }

  sim::Simulator& simulator_;
  std::uint32_t component_;  ///< this bus's index in the simulator
  TdmaConfig config_;
  std::vector<ReceiveFn> receivers_;
  /// One row per node, in creation order; the schedule's owners have rows
  /// from construction on. Rows are only appended, so an index into `rows_`
  /// (a Port, a slot's owner) never goes stale.
  std::vector<NodeRow> rows_;
  /// Indices into `rows_` in ascending node-id order: the one lookup by id
  /// searches it, and every walk that must not depend on registration order
  /// (the digest) follows it.
  std::vector<std::uint32_t> byId_;
  /// Static slot index -> its owner's index in `rows_`.
  std::vector<std::uint32_t> slotRows_;
  /// The frame receivers see for a static slot; its payload buffer is
  /// swapped with the sender's row buffer, so neither is reallocated.
  Frame staticFrame_;
  /// Dynamic frames awaiting arbitration occupy the first `dynamicPending_`
  /// entries, in send order (frames kept from an earlier segment first); the
  /// entries beyond are spare, kept for their payload buffers.
  std::vector<Frame> dynamicFrames_;
  std::size_t dynamicPending_ = 0;
  /// The current segment's winners; entry k is delivered at the end of
  /// minislot k + 1. The segment ends before the next cycle's arbitration
  /// reuses the entries.
  std::vector<InFlight> inFlight_;
  DropTap dropTap_;
  std::uint64_t cycles_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corruptionsInjected_ = 0;
  std::uint64_t crcRejected_ = 0;
  bool started_ = false;
};

}  // namespace nlft::net
