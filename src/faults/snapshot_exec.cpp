#include "faults/snapshot_exec.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "util/state_hash.hpp"

namespace nlft::fi {

std::uint64_t behaviorDigest(const hw::Machine& machine) {
  // FNV-1a over 64-bit lanes: a single differing lane can never cancel, and
  // multi-lane cancellation is vanishingly unlikely; the differential suite
  // cross-checks the classifications end to end.
  util::StateHash digest;
  const hw::CpuState& cpu = machine.cpu();
  for (const std::uint32_t reg : cpu.regs) digest.u64(reg);
  digest.u64(cpu.pc);
  digest.u64((cpu.flagZero ? 1u : 0u) | (cpu.flagNegative ? 2u : 0u) |
             (machine.halted() ? 4u : 0u));
  digest.u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(machine.armedFetchCorruptionBit())));
  // One lane per codeword, in address order. Words clear in the dirty
  // bitmap hold codeword 0, so each run of them folds in as a power of the
  // prime: the same value as hashing every codeword. The walk visits only
  // the bitmap words the summary marks nonzero.
  const hw::EccMemory& memory = machine.memory();
  const std::vector<std::uint64_t>& codewords = memory.rawCodewords();
  const std::span<const std::uint64_t> dirty = memory.dirtyWords();
  const std::span<const std::uint64_t> summary = memory.dirtySummary();
  std::size_t hashed = 0;  // words folded in so far
  for (std::size_t s = 0; s < summary.size(); ++s) {
    for (std::uint64_t blocks = summary[s]; blocks != 0; blocks &= blocks - 1) {
      const std::size_t i = 64 * s + static_cast<std::size_t>(std::countr_zero(blocks));
      for (std::uint64_t bits = dirty[i]; bits != 0; bits &= bits - 1) {
        const std::size_t word = 64 * i + static_cast<std::size_t>(std::countr_zero(bits));
        digest.zeros(word - hashed);
        digest.u64(codewords[word]);
        hashed = word + 1;
      }
    }
  }
  digest.zeros(codewords.size() - hashed);
  return digest.finish();
}

void MachineBaseline::forkAt(std::uint64_t instructions, hw::Machine& scratch) {
  if (!sweep_ || position_ > instructions) {
    sweep_ = start_;  // cold start, or a backward fork
    position_ = 0;
  }
  if (position_ < instructions) {
    sweepInstructions_ += sweep_->run(instructions - position_).executedInstructions;
    position_ = instructions;
  }
  scratch = *sweep_;  // copies the words dirty in either machine; never serializes
  ++resumePoints_;
}

SystemBaseline::SystemBaseline(bbw::BbwSimConfig config, util::Duration checkpointStride)
    : config_(std::move(config)) {
  strideUs_ = checkpointStride.us() > 0 ? checkpointStride.us()
                                        : bbw::bbwDeployment().controlPeriod.us();

  // One golden simulation does double duty: it records the checkpoint grid
  // on the way (runUntil + saveState compose exactly with a straight run,
  // pinned by the roundtrip tests) and then finalizes the golden result.
  bbw::BbwSystemSim sweep{config_};
  const std::int64_t horizonUs = config_.horizon.us();
  for (std::int64_t grid = strideUs_; grid < horizonUs; grid += strideUs_) {
    sweep.runUntil(util::SimTime::fromUs(grid));
    // The advance loop gates on the PRE-step clock, so it overshoots the
    // grid by up to one event gap — record the actual clock; restoreBefore
    // compares injection instants against it, not the nominal grid time.
    const std::int64_t clock = sweep.simulator().now().us();
    if (clock < grid) break;  // vehicle stopped (or events drained) mid-interval
    SystemCheckpoint checkpoint;
    checkpoint.gridUs = grid;
    checkpoint.clockUs = clock;
    checkpoint.behavior = sweep.behaviorFingerprint();
    checkpoint.counters = sweep.counterSnapshot();
    checkpoint.blob = sweep.saveState();
    checkpoints_.push_back(std::move(checkpoint));
  }
  golden_ = sweep.run();
  finalCounters_ = sweep.counterSnapshot();
  sweepEvents_ = finalCounters_.eventsProcessed;
}

void SystemBaseline::primeCache(snap::SnapshotCache& cache) const {
  for (const SystemCheckpoint& checkpoint : checkpoints_) {
    cache.insert({static_cast<std::uint64_t>(checkpoint.gridUs), 0}, checkpoint.blob);
  }
}

std::optional<std::size_t> SystemBaseline::restoreBefore(bbw::BbwSystemSim& scratch,
                                                         std::int64_t atUs,
                                                         snap::SnapshotCache& cache) const {
  // First checkpoint NOT strictly before the injection instant…
  const auto bound = std::partition_point(
      checkpoints_.begin(), checkpoints_.end(),
      [atUs](const SystemCheckpoint& checkpoint) { return checkpoint.clockUs < atUs; });
  // …then walk down past cache misses (each probe counts into the chunk's
  // hit/miss counters deterministically).
  for (std::size_t i = static_cast<std::size_t>(bound - checkpoints_.begin()); i-- > 0;) {
    const std::vector<std::uint8_t>* blob =
        cache.find({static_cast<std::uint64_t>(checkpoints_[i].gridUs), 0});
    if (blob == nullptr) continue;
    scratch.restoreState(*blob);  // throws loudly on a corrupted blob
    return i;
  }
  return std::nullopt;
}

std::optional<bbw::BbwSimResult> SystemBaseline::runToRejoin(
    bbw::BbwSystemSim& scratch, std::int64_t injectedAtUs,
    std::optional<std::size_t> restoredAt) const {
  // The restore replays the golden prefix verbatim (fingerprint-verified),
  // so the scratch counters at the restore point ARE the golden ones there;
  // a fork from t=0 starts the interval deltas from zero.
  bbw::BbwSystemCounters previous =
      restoredAt ? checkpoints_[*restoredAt].counters : bbw::BbwSystemCounters{};
  unsigned consecutive = 0;
  for (std::size_t i = restoredAt ? *restoredAt + 1 : 0; i < checkpoints_.size(); ++i) {
    const SystemCheckpoint& checkpoint = checkpoints_[i];
    scratch.runUntil(util::SimTime::fromUs(checkpoint.gridUs));
    if (scratch.simulator().now().us() < checkpoint.gridUs) {
      return std::nullopt;  // the faulted run stopped inside this interval
    }
    const bbw::BbwSystemCounters current = scratch.counterSnapshot();
    const bbw::BbwSystemCounters goldenPrevious =
        i == 0 ? bbw::BbwSystemCounters{} : checkpoints_[i - 1].counters;
    // The injection event itself is an extra processed event in its
    // interval, so the event-count delta can only match once the interval
    // is injection-free — gating on the injection time is belt and braces.
    const bool matches = checkpoint.gridUs > injectedAtUs && scratch.injectionQuiescent() &&
                         scratch.behaviorFingerprint() == checkpoint.behavior &&
                         current.minus(previous) == checkpoint.counters.minus(goldenPrevious);
    if (matches) {
      if (++consecutive >= kRejoinConfirmations) {
        // Splice: the scratch state equals the golden state here, so its
        // future is the golden tail. Counters continue from the scratch
        // totals by the golden tail deltas; trajectory and terminal fields
        // come from the golden final (nodesDownAtEnd is empty on both
        // sides: the behavior fingerprint pins every kernel alive).
        const bbw::BbwSystemCounters tail = finalCounters_.minus(checkpoint.counters);
        const bbw::BbwSystemCounters total = [&] {
          bbw::BbwSystemCounters sum = current;
          sum.commandFramesDelivered += tail.commandFramesDelivered;
          sum.duplicateCommandsDropped += tail.duplicateCommandsDropped;
          sum.busFramesDropped += tail.busFramesDropped;
          sum.commandsOmitted += tail.commandsOmitted;
          sum.undetectedValueDeliveries += tail.undetectedValueDeliveries;
          sum.failSilentEvents += tail.failSilentEvents;
          sum.cuCompletions += tail.cuCompletions;
          sum.errorsMaskedByTem += tail.errorsMaskedByTem;
          for (std::size_t w = 0; w < bbw::kWheelCount; ++w) {
            sum.wheelCompletions[w] += tail.wheelCompletions[w];
            sum.wheelOmissions[w] += tail.wheelOmissions[w];
          }
          return sum;
        }();
        bbw::BbwSimResult result = golden_;
        result.commandFramesDelivered = total.commandFramesDelivered;
        result.duplicateCommandsDropped = total.duplicateCommandsDropped;
        result.busFramesDropped = total.busFramesDropped;
        result.commandsOmitted = total.commandsOmitted;
        result.undetectedValueDeliveries = total.undetectedValueDeliveries;
        result.failSilentEvents = total.failSilentEvents;
        result.cuCompletions = total.cuCompletions;
        result.errorsMaskedByTem = total.errorsMaskedByTem;
        result.wheelCompletions = total.wheelCompletions;
        result.wheelOmissions = total.wheelOmissions;
        return result;
      }
    } else {
      consecutive = 0;
    }
    previous = current;
  }
  return std::nullopt;
}

bool systemSnapshotSupported(const bbw::BbwSimConfig& config) {
  try {
    bbw::BbwSystemSim probe{config};
    probe.runUntil(util::SimTime::zero() + bbw::bbwDeployment().controlPeriod);
    const std::vector<std::uint8_t> blob = probe.saveState();
    bbw::BbwSystemSim twin{config};
    twin.restoreState(blob);
    return twin.stateFingerprint() == probe.stateFingerprint() &&
           twin.behaviorFingerprint() == probe.behaviorFingerprint();
  } catch (...) {
    return false;
  }
}

}  // namespace nlft::fi
