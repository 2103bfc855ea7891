// Membership and reintegration on top of the TDMA bus.
//
// Every alive node broadcasts a heartbeat in its static slot each cycle.
// Each node maintains a local membership view: a peer is a member while its
// heartbeats keep arriving; it is expelled after `missTolerance` consecutive
// silent cycles; and after coming back it is re-admitted only after
// `reintegrationCycles` consecutive heartbeats (the node must prove itself
// stable before it may carry load again). The restart/reintegration times
// behind the paper's repair rates mu_R (3 s) and mu_OM (1.6 s) are exactly
// these protocol latencies plus the local reboot/diagnosis time.
//
// The protocol state is a dense table in ascending node-id order: one row
// per node, and in each row one peer entry per node. One bus receiver takes
// every frame for all nodes: it finds the sender's entry once, by scanning
// the few registered ids, and then walks the receivers' rows, so no frame
// does a tree lookup; every walk (delivery, evaluation, taps, views, digest)
// visits ids in ascending order, as an ordered map would.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "net/bus.hpp"

namespace nlft::net {

struct MembershipConfig {
  std::uint32_t missTolerance = 1;        ///< silent cycles before expulsion
  std::uint32_t reintegrationCycles = 2;  ///< heartbeats needed to rejoin
};

/// Runs the heartbeat protocol for a set of nodes sharing one bus.
///
/// Heartbeat payloads use one reserved word prepended to application data in
/// the node's slot; this service owns the slot traffic of its nodes (it
/// forwards any application payload given via queueAppData).
class MembershipService {
 public:
  MembershipService(sim::Simulator& simulator, TdmaBus& bus, MembershipConfig config = {});
  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  /// Registers a node; `alive` nodes heartbeat from the next cycle on.
  void addNode(NodeId node, bool alive = true);

  /// Node liveness toggles: a fail-silent failure sets alive=false; a
  /// completed restart sets alive=true (reintegration then takes
  /// reintegrationCycles before peers re-admit the node).
  void setAlive(NodeId node, bool alive);
  [[nodiscard]] bool alive(NodeId node) const;

  /// Copies application data to ride along the node's next heartbeat (into
  /// a buffer the node reuses from cycle to cycle).
  void queueAppData(NodeId node, std::span<const std::uint32_t> data);

  /// Membership view of `observer`: which peers it currently counts as
  /// members (the observer itself is always included while alive).
  [[nodiscard]] std::set<NodeId> membershipView(NodeId observer) const;

  /// True if `observer` counts `peer` as a member.
  [[nodiscard]] bool isMember(NodeId observer, NodeId peer) const;

  /// Application receive hook: called with (receiver, sender, data) for
  /// every heartbeat frame carrying application data. `data` views the
  /// delivered frame and is valid only during the call.
  using AppReceiveFn = std::function<void(NodeId, NodeId, std::span<const std::uint32_t>)>;
  void setAppReceive(AppReceiveFn fn) { appReceive_ = std::move(fn); }

  /// Observer for membership transitions: (observer, peer, nowMember) fires
  /// whenever `observer` expels or re-admits `peer` from its local view.
  using MembershipTap = std::function<void(NodeId, NodeId, bool)>;
  void setMembershipTap(MembershipTap tap) { membershipTap_ = std::move(tap); }

  /// Must be called once after all nodes are added; also starts the bus.
  /// The first evaluation comes one bus cycle later, whenever the service
  /// starts.
  void start();

  /// 64-bit digest of the full protocol state: per-node liveness, queued
  /// application data and every peer-view entry (membership, consecutive
  /// heard/missed streaks, last-heard cycle). Two services with equal
  /// digests make the same expulsion/re-admission decisions from here on.
  [[nodiscard]] std::uint64_t stateDigest() const;

 private:
  struct PeerState {
    bool member = false;
    std::uint32_t consecutiveHeard = 0;
    std::uint32_t consecutiveMissed = 0;
    std::uint64_t lastHeardCycle = ~0ULL;
  };
  /// `peers` has one entry per registered node, in the order of `ids_`; a
  /// node's entry for itself is unused.
  struct NodeState {
    bool alive = true;
    std::vector<std::uint32_t> pendingAppData;
    std::vector<PeerState> peers;
  };

  /// Index of `node` in `ids_`; throws std::out_of_range if not registered.
  [[nodiscard]] std::size_t indexOf(NodeId node) const;
  /// The cycle tick (a typed event): evaluates the cycle that just ended,
  /// queues the next heartbeats and schedules the next tick.
  void onCycle(std::uint64_t);
  /// Schedules the next tick, one bus cycle from now.
  void scheduleTick();
  /// Updates every node's view of its peers from the cycle that just ended.
  void evaluateCycle();
  /// Queues each alive node's heartbeat (with its application data).
  void queueHeartbeats();
  /// Takes one delivered frame for every registered node but its sender.
  void onFrame(const Frame& frame);

  sim::Simulator& simulator_;
  std::uint32_t component_;  ///< this service's index in the simulator
  TdmaBus& bus_;
  MembershipConfig config_;
  std::vector<NodeId> ids_;       ///< registered nodes, ascending
  std::vector<NodeState> nodes_;  ///< nodes_[i] belongs to ids_[i]
  /// ports_[i] is ids_[i]'s bus port, resolved once at start(): the nodes
  /// are fixed from then on, so a heartbeat does no lookup.
  std::vector<TdmaBus::Port> ports_;
  std::vector<std::uint32_t> heartbeat_;  ///< onCycle()'s reused payload buffer
  AppReceiveFn appReceive_;
  MembershipTap membershipTap_;
  bool started_ = false;
};

}  // namespace nlft::net
