#include "net/membership.hpp"

#include <stdexcept>

#include "util/state_hash.hpp"

namespace nlft::net {

namespace {
constexpr std::uint32_t kHeartbeatMagic = 0x48427631;  // "HBv1"
}

MembershipService::MembershipService(sim::Simulator& simulator, TdmaBus& bus,
                                     MembershipConfig config)
    : simulator_{simulator}, bus_{bus}, config_{config} {
  if (config_.reintegrationCycles == 0)
    throw std::invalid_argument("MembershipService: reintegrationCycles must be >= 1");
}

void MembershipService::addNode(NodeId node, bool alive) {
  if (started_) throw std::logic_error("MembershipService: addNode after start");
  NodeState state;
  state.alive = alive;
  nodes_[node] = std::move(state);
  // Everyone already registered learns about the new node and vice versa;
  // initially-alive nodes are members of each other's view (static config).
  for (auto& [id, other] : nodes_) {
    if (id == node) continue;
    other.peers[node].member = alive;
    nodes_[node].peers[id].member = other.alive;
  }
  bus_.setNodeSilent(node, !alive);
}

void MembershipService::setAlive(NodeId node, bool alive) {
  auto& state = nodes_.at(node);
  if (state.alive == alive) return;
  state.alive = alive;
  bus_.setNodeSilent(node, !alive);
  if (alive) {
    // Fresh restart: the node's own view of its peers rebuilds from traffic.
    for (auto& [id, peer] : state.peers) {
      peer.member = false;
      peer.consecutiveHeard = 0;
      peer.consecutiveMissed = 0;
    }
  }
}

bool MembershipService::alive(NodeId node) const { return nodes_.at(node).alive; }

void MembershipService::queueAppData(NodeId node, std::span<const std::uint32_t> data) {
  nodes_.at(node).pendingAppData.assign(data.begin(), data.end());
}

std::set<NodeId> MembershipService::membershipView(NodeId observer) const {
  const NodeState& state = nodes_.at(observer);
  std::set<NodeId> view;
  if (!state.alive) return view;  // a down node has no view at all
  view.insert(observer);
  for (const auto& [id, peer] : state.peers) {
    if (peer.member) view.insert(id);
  }
  return view;
}

bool MembershipService::isMember(NodeId observer, NodeId peer) const {
  if (observer == peer) return nodes_.at(observer).alive;
  return nodes_.at(observer).peers.at(peer).member;
}

void MembershipService::start() {
  if (started_) throw std::logic_error("MembershipService: already started");
  started_ = true;
  for (auto& [id, state] : nodes_) {
    bus_.attach(id, [this, id = id](const Frame& frame) { onFrame(id, frame); });
  }
  onCycle();  // queue the first heartbeats
  bus_.start();
  // Evaluate and re-queue at every cycle boundary, with a self-rescheduling
  // tick. The tick runs at Application priority, i.e. before the bus's own
  // cycle-advance event at the same instant, so cyclesCompleted() still
  // names the cycle that just ended.
  const Duration cycle = bus_.cycleLength();
  struct Ticker {
    MembershipService* service;
    Duration cycle;
    void operator()() const {
      service->onCycle();
      service->simulator_.scheduleAfter(cycle, *this, sim::EventPriority::Application);
    }
  };
  simulator_.scheduleAfter(cycle, Ticker{this, cycle}, sim::EventPriority::Application);
}

std::uint64_t MembershipService::stateDigest() const {
  util::StateHash digest;
  for (const auto& [id, state] : nodes_) {
    digest.u64(id);
    digest.boolean(state.alive);
    digest.u64(state.pendingAppData.size());
    for (const std::uint32_t word : state.pendingAppData) digest.u64(word);
    for (const auto& [peerId, peer] : state.peers) {
      digest.u64(peerId);
      digest.boolean(peer.member);
      digest.u64(peer.consecutiveHeard);
      digest.u64(peer.consecutiveMissed);
      digest.u64(peer.lastHeardCycle);
    }
  }
  return digest.finish();
}

void MembershipService::onCycle() {
  // Evaluate the cycle that just ended (skipped on the very first call,
  // where no lastHeardCycle can match the sentinel).
  const std::uint64_t endedCycle = bus_.cyclesCompleted();
  if (simulator_.now() > SimTime::zero()) {
    for (auto& [observerId, observer] : nodes_) {
      if (!observer.alive) continue;
      for (auto& [peerId, peer] : observer.peers) {
        const bool heard = peer.lastHeardCycle == endedCycle;
        if (heard) {
          peer.consecutiveMissed = 0;
          ++peer.consecutiveHeard;
          if (!peer.member && peer.consecutiveHeard >= config_.reintegrationCycles) {
            peer.member = true;
            if (membershipTap_) membershipTap_(observerId, peerId, true);
          }
        } else {
          peer.consecutiveHeard = 0;
          ++peer.consecutiveMissed;
          if (peer.member && peer.consecutiveMissed >= config_.missTolerance) {
            peer.member = false;
            if (membershipTap_) membershipTap_(observerId, peerId, false);
          }
        }
      }
    }
  }
  // Queue heartbeats (with piggybacked application data) for the new cycle.
  for (auto& [id, state] : nodes_) {
    if (!state.alive) continue;
    heartbeat_.assign(1, kHeartbeatMagic);
    heartbeat_.insert(heartbeat_.end(), state.pendingAppData.begin(),
                      state.pendingAppData.end());
    state.pendingAppData.clear();
    bus_.sendStatic(id, heartbeat_);
  }
}

void MembershipService::onFrame(NodeId receiver, const Frame& frame) {
  if (frame.payload.empty() || frame.payload[0] != kHeartbeatMagic) return;
  NodeState& state = nodes_.at(receiver);
  if (!state.alive) return;  // a down node hears nothing
  auto peerIt = state.peers.find(frame.sender);
  if (peerIt == state.peers.end()) return;
  peerIt->second.lastHeardCycle = bus_.cyclesCompleted();
  if (appReceive_ && frame.payload.size() > 1) {
    appReceive_(receiver, frame.sender, std::span{frame.payload}.subspan(1));
  }
}

}  // namespace nlft::net
