#include "net/membership.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/state_hash.hpp"

namespace nlft::net {

namespace {
constexpr std::uint32_t kHeartbeatMagic = 0x48427631;  // "HBv1"
}

MembershipService::MembershipService(sim::Simulator& simulator, TdmaBus& bus,
                                     MembershipConfig config)
    : simulator_{simulator}, component_{simulator.addComponent(this)}, bus_{bus}, config_{config} {
  if (config_.reintegrationCycles == 0)
    throw std::invalid_argument("MembershipService: reintegrationCycles must be >= 1");
}

std::size_t MembershipService::indexOf(NodeId node) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), node);
  if (it == ids_.end() || *it != node) throw std::out_of_range("MembershipService: unknown node");
  return static_cast<std::size_t>(it - ids_.begin());
}

void MembershipService::addNode(NodeId node, bool alive) {
  if (started_) throw std::logic_error("MembershipService: addNode after start");
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), node);
  const auto index = static_cast<std::size_t>(it - ids_.begin());
  if (it == ids_.end() || *it != node) {
    ids_.insert(it, node);
    for (NodeState& other : nodes_) {
      other.peers.insert(other.peers.begin() + static_cast<std::ptrdiff_t>(index), PeerState{});
    }
    nodes_.insert(nodes_.begin() + static_cast<std::ptrdiff_t>(index), NodeState{});
  }
  // (Re)registering starts the node's own row afresh. Everyone else learns
  // about the node and vice versa; initially-alive nodes are members of each
  // other's view (static config).
  NodeState& state = nodes_[index];
  state.alive = alive;
  state.pendingAppData.clear();
  state.peers.assign(ids_.size(), PeerState{});
  for (std::size_t other = 0; other < nodes_.size(); ++other) {
    if (other == index) continue;
    nodes_[other].peers[index].member = alive;
    state.peers[other].member = nodes_[other].alive;
  }
  bus_.setNodeSilent(node, !alive);
}

void MembershipService::setAlive(NodeId node, bool alive) {
  auto& state = nodes_[indexOf(node)];
  if (state.alive == alive) return;
  state.alive = alive;
  bus_.setNodeSilent(node, !alive);
  if (alive) {
    // Fresh restart: the node's own view of its peers rebuilds from traffic.
    for (PeerState& peer : state.peers) {
      peer.member = false;
      peer.consecutiveHeard = 0;
      peer.consecutiveMissed = 0;
    }
  }
}

bool MembershipService::alive(NodeId node) const { return nodes_[indexOf(node)].alive; }

void MembershipService::queueAppData(NodeId node, std::span<const std::uint32_t> data) {
  nodes_[indexOf(node)].pendingAppData.assign(data.begin(), data.end());
}

std::set<NodeId> MembershipService::membershipView(NodeId observer) const {
  const NodeState& state = nodes_[indexOf(observer)];
  std::set<NodeId> view;
  if (!state.alive) return view;  // a down node has no view at all
  view.insert(observer);
  for (std::size_t peer = 0; peer < ids_.size(); ++peer) {
    if (ids_[peer] != observer && state.peers[peer].member) view.insert(ids_[peer]);
  }
  return view;
}

bool MembershipService::isMember(NodeId observer, NodeId peer) const {
  const NodeState& state = nodes_[indexOf(observer)];
  if (observer == peer) return state.alive;
  return state.peers[indexOf(peer)].member;
}

void MembershipService::start() {
  if (started_) throw std::logic_error("MembershipService: already started");
  started_ = true;
  for (const NodeId node : ids_) ports_.push_back(bus_.port(node));
  bus_.attach([this](const Frame& frame) { onFrame(frame); });
  queueHeartbeats();  // nothing has been heard yet, so there is nothing to evaluate
  bus_.start();
  // Evaluate and re-queue at every cycle boundary, with a self-rescheduling
  // tick. The tick runs at Application priority, i.e. before the bus's own
  // cycle-advance event at the same instant, so cyclesCompleted() still
  // names the cycle that just ended.
  scheduleTick();
}

std::uint64_t MembershipService::stateDigest() const {
  util::StateHash digest;
  for (std::size_t index = 0; index < ids_.size(); ++index) {
    const NodeState& state = nodes_[index];
    digest.u64(ids_[index]);
    digest.boolean(state.alive);
    digest.u64(state.pendingAppData.size());
    for (const std::uint32_t word : state.pendingAppData) digest.u64(word);
    for (std::size_t peerIndex = 0; peerIndex < ids_.size(); ++peerIndex) {
      if (peerIndex == index) continue;
      const PeerState& peer = state.peers[peerIndex];
      digest.u64(ids_[peerIndex]);
      digest.boolean(peer.member);
      digest.u64(peer.consecutiveHeard);
      digest.u64(peer.consecutiveMissed);
      digest.u64(peer.lastHeardCycle);
    }
  }
  return digest.finish();
}

void MembershipService::onCycle(std::uint64_t) {
  evaluateCycle();
  queueHeartbeats();
  scheduleTick();
}

void MembershipService::scheduleTick() {
  simulator_.scheduleAfter(bus_.cycleLength(),
                           sim::Event{&sim::callMember<MembershipService,
                                                       &MembershipService::onCycle>,
                                      component_, 0},
                           sim::EventPriority::Application);
}

void MembershipService::evaluateCycle() {
  const std::uint64_t endedCycle = bus_.cyclesCompleted();
  for (std::size_t index = 0; index < ids_.size(); ++index) {
    NodeState& observer = nodes_[index];
    if (!observer.alive) continue;
    for (std::size_t peerIndex = 0; peerIndex < ids_.size(); ++peerIndex) {
      if (peerIndex == index) continue;
      PeerState& peer = observer.peers[peerIndex];
      const bool heard = peer.lastHeardCycle == endedCycle;
      if (heard) {
        peer.consecutiveMissed = 0;
        ++peer.consecutiveHeard;
        if (!peer.member && peer.consecutiveHeard >= config_.reintegrationCycles) {
          peer.member = true;
          if (membershipTap_) membershipTap_(ids_[index], ids_[peerIndex], true);
        }
      } else {
        peer.consecutiveHeard = 0;
        ++peer.consecutiveMissed;
        if (peer.member && peer.consecutiveMissed >= config_.missTolerance) {
          peer.member = false;
          if (membershipTap_) membershipTap_(ids_[index], ids_[peerIndex], false);
        }
      }
    }
  }
}

void MembershipService::queueHeartbeats() {
  // Piggybacked application data rides along each heartbeat of the new cycle.
  for (std::size_t index = 0; index < ids_.size(); ++index) {
    NodeState& state = nodes_[index];
    if (!state.alive) continue;
    heartbeat_.assign(1, kHeartbeatMagic);
    heartbeat_.insert(heartbeat_.end(), state.pendingAppData.begin(),
                      state.pendingAppData.end());
    state.pendingAppData.clear();
    bus_.sendStatic(ports_[index], heartbeat_);
  }
}

void MembershipService::onFrame(const Frame& frame) {
  if (frame.payload.empty() || frame.payload[0] != kHeartbeatMagic) return;
  const auto found = std::find(ids_.begin(), ids_.end(), frame.sender);
  if (found == ids_.end()) return;
  const auto sender = static_cast<std::size_t>(found - ids_.begin());
  const std::uint64_t cycle = bus_.cyclesCompleted();
  const std::span<const std::uint32_t> appData = std::span{frame.payload}.subspan(1);
  for (std::size_t receiver = 0; receiver < ids_.size(); ++receiver) {
    if (receiver == sender) continue;
    NodeState& state = nodes_[receiver];
    if (!state.alive) continue;  // a down node hears nothing
    state.peers[sender].lastHeardCycle = cycle;
    if (appReceive_ && !appData.empty()) appReceive_(ids_[receiver], frame.sender, appData);
  }
}

}  // namespace nlft::net
