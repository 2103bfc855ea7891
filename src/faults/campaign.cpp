#include "faults/campaign.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "exec/chunked_campaign.hpp"
#include "faults/snapshot_exec.hpp"

namespace nlft::fi {

namespace {

hw::Machine makeMachine(const TaskImage& image) {
  hw::Machine machine{image.memBytes};
  machine.loadWords(image.program.origin, image.program.words);
  machine.loadWords(image.inputBase, image.input);
  if (image.enableMmu) {
    if (image.mmuRegions.empty()) {
      throw std::invalid_argument("TaskImage: enableMmu is set but mmuRegions is empty");
    }
    constexpr hw::MmuTaskId kTask = 1;
    for (hw::MmuRegion region : image.mmuRegions) {
      region.owner = kTask;
      machine.mmu().addRegion(std::move(region));
    }
    machine.mmu().setActiveTask(kTask);
    machine.mmu().setEnabled(true);
  }
  return machine;
}

void resetContext(hw::Machine& machine, const TaskImage& image) {
  // Full CPU-context restore from the task control block (paper 2.5): every
  // copy starts from pristine registers, PC and SP.
  machine.cpu().regs.fill(0);
  machine.cpu().pc = image.entry;
  machine.cpu().setSp(image.stackTop);
  machine.cpu().flagZero = false;
  machine.cpu().flagNegative = false;
  machine.resume();
  // The kernel hands each copy a zeroed result buffer.
  for (std::uint32_t w = 0; w < image.outputWords; ++w) {
    machine.memory().write(image.outputBase + 4 * w, 0);
  }
}

CopyRun finishRun(hw::Machine& machine, const TaskImage& image, const hw::RunResult& run,
                  std::uint64_t instructionsBefore) {
  CopyRun copy;
  copy.instructions = instructionsBefore + run.executedInstructions;
  switch (run.reason) {
    case hw::StopReason::Halted: {
      copy.end = CopyRun::End::Output;
      copy.output.reserve(image.outputWords);
      for (std::uint32_t w = 0; w < image.outputWords; ++w) {
        const auto read = machine.memory().read(image.outputBase + 4 * w);
        if (!read.ok) {
          copy.end = CopyRun::End::OutputUnreadable;
          copy.exception = hw::ExceptionKind::BusError;
          copy.output.clear();
          return copy;
        }
        copy.output.push_back(read.value);
      }
      return copy;
    }
    case hw::StopReason::Exception:
      copy.end = CopyRun::End::Exception;
      copy.exception = run.exception.kind;
      return copy;
    case hw::StopReason::BudgetExhausted:
      copy.end = CopyRun::End::Overrun;
      return copy;
  }
  return copy;
}

/// Runs one copy, injecting `locations` after `afterInstructions` executed
/// instructions (empty = fault-free copy).
CopyRun runCopyWithInjection(hw::Machine& machine, const TaskImage& image,
                             std::uint64_t afterInstructions,
                             const std::vector<FaultLocation>& locations) {
  resetContext(machine, image);
  const std::uint64_t budget = image.maxInstructionsPerCopy;
  if (locations.empty()) {
    return finishRun(machine, image, machine.run(budget), 0);
  }
  const std::uint64_t untilFault = std::min(afterInstructions, budget);
  const hw::RunResult phase1 = machine.run(untilFault);
  if (phase1.reason != hw::StopReason::BudgetExhausted || machine.halted()) {
    // The copy ended before the fault instant; nothing to inject here.
    return finishRun(machine, image, phase1, 0);
  }
  for (const FaultLocation& location : locations) inject(machine, location);
  const hw::RunResult phase2 = machine.run(budget - untilFault);
  return finishRun(machine, image, phase2, phase1.executedInstructions);
}

/// The fault of one experiment, normalised to a list of locations.
struct ExperimentFault {
  int targetCopy = 1;
  std::uint64_t afterInstructions = 0;
  std::vector<FaultLocation> locations;
};

ExperimentFault normalize(const FaultSpec& fault, util::Rng& rng) {
  ExperimentFault experiment;
  experiment.afterInstructions = fault.afterInstructions;
  experiment.targetCopy = std::abs(fault.targetCopy);
  experiment.locations.push_back(fault.location);
  if (fault.targetCopy < 0) {
    // Double-flip marker from sampleFault: add a second flip in the same
    // memory word so the upset becomes uncorrectable.
    if (const auto* mem = std::get_if<MemoryBitFlip>(&fault.location)) {
      int otherBit = static_cast<int>(rng.uniformInt(hw::kEccCodewordBits));
      if (otherBit == mem->bit) otherBit = (otherBit + 1) % hw::kEccCodewordBits;
      experiment.locations.push_back(MemoryBitFlip{mem->address, otherBit});
    }
  }
  return experiment;
}

/// Straight copy source: one fresh machine per experiment, every copy
/// executed in full. This IS the original execution path — the snapshot
/// engine below must be indistinguishable from it.
class StraightSource {
 public:
  StraightSource(const TaskImage& image, const ExperimentFault& fault, SnapCounters* snap)
      : image_(image), fault_(fault), snap_(snap), machine_(makeMachine(image)) {}

  CopyRun runCopy(int copy) {
    const bool faultHere = fault_.targetCopy == copy;
    CopyRun run = runCopyWithInjection(machine_, image_, fault_.afterInstructions,
                                       faultHere ? fault_.locations : std::vector<FaultLocation>{});
    if (snap_ != nullptr) {
      snap_->simulatedCycles += run.instructions;
      ++snap_->executedCopies;
    }
    return run;
  }

  [[nodiscard]] bool eccCorrected() const { return machine_.memory().correctedErrors() > 0; }

 private:
  const TaskImage& image_;
  const ExperimentFault& fault_;
  SnapCounters* snap_;
  hw::Machine machine_;
};

[[nodiscard]] bool copyRunsEqual(const CopyRun& a, const CopyRun& b) {
  return a.end == b.end && a.exception == b.exception && a.output == b.output &&
         a.instructions == b.instructions;
}

/// Snapshot execution plan for one (image, golden) pair. Built once per
/// campaign by the clean-fixed-point protocol (docs/SNAPSHOT.md): two clean
/// copies are executed back to back on one machine and must reproduce the
/// golden run byte for byte, with the post-reset behavior digest reaching a
/// fixed point. Only then may the engine (a) replay clean copies without
/// executing them and (b) fork faulted copy >= 2 from the fixed-point start
/// state. Images that fail any check run the whole campaign straight.
struct TemSnapshotPlan {
  bool supported = false;
  CopyRun cleanRun;               ///< byte-equal to the golden run (verified)
  std::uint64_t cleanDigest = 0;  ///< behaviorDigest of the post-reset fixed point
  hw::Machine startMachine1;      ///< fresh machine, context reset (copy-1 band)
  hw::Machine startMachine2;      ///< after one clean copy + reset (copy->=2 band)
  std::uint64_t planInstructions = 0;  ///< verification cycles (charged when supported)
};

TemSnapshotPlan buildTemSnapshotPlan(const TaskImage& image, const CopyRun& golden) {
  TemSnapshotPlan plan;
  hw::Machine machine = makeMachine(image);
  resetContext(machine, image);
  plan.startMachine1 = machine;
  const CopyRun first = runCopyWithInjection(machine, image, 0, {});
  plan.planInstructions += first.instructions;
  if (!copyRunsEqual(first, golden)) return plan;
  resetContext(machine, image);
  plan.startMachine2 = machine;
  plan.cleanDigest = behaviorDigest(machine);
  const CopyRun second = runCopyWithInjection(machine, image, 0, {});
  plan.planInstructions += second.instructions;
  if (!copyRunsEqual(second, first)) return plan;
  resetContext(machine, image);
  if (behaviorDigest(machine) != plan.cleanDigest) return plan;
  plan.cleanRun = first;
  plan.supported = true;
  return plan;
}

/// Chunk-private fork state of a supported plan: one baseline per copy band
/// plus the scratch machine every fork lands on.
struct ChunkForks {
  ChunkForks(const TemSnapshotPlan& plan, std::uint32_t memBytes)
      : band1(plan.startMachine1), band2(plan.startMachine2), scratch(memBytes) {}

  MachineBaseline band1;
  MachineBaseline band2;
  hw::Machine scratch;
};

/// Copy-on-inject source: the faulted copy forks from the band baseline at
/// the injection instant; clean copies before the fault replay the verified
/// clean run at zero cost; copies after the fault replay it only when the
/// post-reset machine digests back to the clean fixed point, and execute
/// for real otherwise (conservative: any residual fault effect — latent
/// memory upsets, ECC counter changes — forces execution).
class SnapshotSource {
 public:
  SnapshotSource(const TaskImage& image, const TemSnapshotPlan& plan,
                 const ExperimentFault& fault, ChunkForks& forks, SnapCounters& snap)
      : image_(image),
        plan_(plan),
        fault_(fault),
        forks_(forks),
        scratch_(forks.scratch),
        snap_(snap) {}

  CopyRun runCopy(int copy) {
    const std::uint64_t budget = image_.maxInstructionsPerCopy;
    if (copy == fault_.targetCopy) {
      MachineBaseline& band = copy == 1 ? forks_.band1 : forks_.band2;
      band.forkAt(fault_.afterInstructions, scratch_);
      for (const FaultLocation& location : fault_.locations) inject(scratch_, location);
      const hw::RunResult phase2 = scratch_.run(budget - fault_.afterInstructions);
      snap_.simulatedCycles += phase2.executedInstructions;
      ++snap_.executedCopies;
      faulted_ = true;
      return finishRun(scratch_, image_, phase2, fault_.afterInstructions);
    }
    if (!faulted_) {
      // Clean copy before the fault: the machine is at the verified fixed
      // point, so the copy reproduces the clean run without executing.
      ++snap_.replayedCopies;
      return plan_.cleanRun;
    }
    // Copy after the faulted one: the kernel's context reset may or may not
    // return the machine to the clean fixed point.
    resetContext(scratch_, image_);
    if (behaviorDigest(scratch_) == plan_.cleanDigest) {
      faulted_ = false;  // back at the fixed point; later copies stay clean
      recovered_ = true;
      ++snap_.replayedCopies;
      return plan_.cleanRun;
    }
    const hw::RunResult run = scratch_.run(budget);
    snap_.simulatedCycles += run.executedInstructions;
    ++snap_.executedCopies;
    return finishRun(scratch_, image_, run, 0);
  }

  [[nodiscard]] bool eccCorrected() const {
    // The scratch machine is shared across the chunk's experiments; only
    // consult it when THIS experiment executed something on it.
    return faultedEver() && scratch_.memory().correctedErrors() > 0;
  }

 private:
  [[nodiscard]] bool faultedEver() const { return faulted_ || recovered_; }

  const TaskImage& image_;
  const TemSnapshotPlan& plan_;
  const ExperimentFault& fault_;
  ChunkForks& forks_;
  hw::Machine& scratch_;
  SnapCounters& snap_;
  bool faulted_ = false;
  bool recovered_ = false;
};

/// The fail-silent-node check (single copy, EDM + end-to-end checksum),
/// parametrized over the copy source like classifyTemWith.
template <typename Source>
FsOutcome classifyFsWith(const TaskImage& image, const CopyRun& golden, Source& source) {
  const CopyRun run = source.runCopy(1);
  if (run.end != CopyRun::End::Output) return FsOutcome::FailSilent;
  if (run.output != golden.output) {
    if (image.outputHasChecksum && !endToEndChecksumValid(run.output)) {
      return FsOutcome::DetectedByEndToEnd;
    }
    return FsOutcome::UndetectedWrongOutput;
  }
  if (source.eccCorrected()) return FsOutcome::MaskedByEcc;
  return FsOutcome::NotActivated;
}

void tallyTem(TemCampaignStats& stats, TemOutcome outcome) {
  switch (outcome) {
    case TemOutcome::NotActivated: ++stats.notActivated; break;
    case TemOutcome::MaskedByEcc: ++stats.maskedByEcc; break;
    case TemOutcome::MaskedByVote: ++stats.maskedByVote; break;
    case TemOutcome::MaskedByRestart: ++stats.maskedByRestart; break;
    case TemOutcome::OmissionVoteFailed: ++stats.omissionVoteFailed; break;
    case TemOutcome::OmissionNoBudget: ++stats.omissionNoBudget; break;
    case TemOutcome::UndetectedWrongOutput: ++stats.undetected; break;
  }
}

void tallyFs(FsCampaignStats& stats, FsOutcome outcome) {
  switch (outcome) {
    case FsOutcome::NotActivated: ++stats.notActivated; break;
    case FsOutcome::MaskedByEcc: ++stats.maskedByEcc; break;
    case FsOutcome::FailSilent: ++stats.failSilent; break;
    case FsOutcome::DetectedByEndToEnd: ++stats.detectedByEndToEnd; break;
    case FsOutcome::UndetectedWrongOutput: ++stats.undetected; break;
  }
}

/// True when the experiment must run straight even though the plan is
/// supported: the fault targets a copy the protocol never reaches via a
/// band baseline, or strikes at/after the clean completion instant (the
/// baseline sweep only covers the clean prefix [0, golden.instructions)).
[[nodiscard]] bool needsStraightFallback(const ExperimentFault& fault, const CopyRun& golden) {
  return fault.targetCopy < 1 || fault.targetCopy > 2 ||
         fault.afterInstructions >= golden.instructions;
}

/// Sorted execution order of a chunk's deferred experiments: by copy band,
/// then injection time, so each band's baseline sweeps the clean prefix
/// monotonically. std::iota + stable_sort keep the order a pure function of
/// the chunk contents (deterministic at every thread count).
[[nodiscard]] std::vector<std::size_t> executionOrder(
    const std::vector<ExperimentFault>& pending) {
  std::vector<std::size_t> order(pending.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&pending](std::size_t a, std::size_t b) {
    if (pending[a].targetCopy != pending[b].targetCopy) {
      return pending[a].targetCopy < pending[b].targetCopy;
    }
    return pending[a].afterInstructions < pending[b].afterInstructions;
  });
  return order;
}

/// The chunk driver behind both campaign kinds. A chunk first SAMPLES all
/// its faults, so the per-chunk RNG stream is the same in every mode, then
/// executes the batch in executionOrder. Experiments inside a supported
/// plan's fork domain fork from chunk-private band baselines, everything
/// else runs on a fresh machine. `classify(golden, source, chunk)` runs the
/// protocol against either source and tallies the outcome; tallies are
/// commutative sums, so the merged statistics are bit-identical across
/// modes and thread counts. `singleCopy` pins every fault to copy 1 (the
/// fail-silent node runs one copy).
template <typename Stats, typename Classify>
Stats runCampaign(const TaskImage& image, const CampaignConfig& config, bool singleCopy,
                  Classify classify) {
  const CopyRun golden = goldenRun(image);
  TemSnapshotPlan plan;
  if (config.mode != ExecutionMode::Straight) plan = buildTemSnapshotPlan(image, golden);

  const auto runChunk = [&](util::Rng& rng, std::size_t count, Stats& chunk) {
    std::vector<ExperimentFault> pending;
    pending.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const FaultSpec fault = sampleFault(image, golden.instructions, config.mix, rng);
      ExperimentFault experiment = normalize(fault, rng);
      if (singleCopy) experiment.targetCopy = 1;
      pending.push_back(std::move(experiment));
    }
    std::optional<ChunkForks> forks;
    if (plan.supported) forks.emplace(plan, image.memBytes);
    for (const std::size_t index : executionOrder(pending)) {
      const ExperimentFault& fault = pending[index];
      if (forks && !needsStraightFallback(fault, golden)) {
        SnapshotSource source{image, plan, fault, *forks, chunk.snap};
        classify(golden, source, chunk);
        continue;
      }
      if (forks) ++chunk.snap.straightFallbacks;
      StraightSource source{image, fault, &chunk.snap};
      classify(golden, source, chunk);
    }
    if (forks) {
      chunk.snap.resumePoints += forks->band1.resumePoints() + forks->band2.resumePoints();
      chunk.snap.simulatedCycles +=
          forks->band1.sweepInstructions() + forks->band2.sweepInstructions();
    }
  };
  Stats stats = exec::runChunkedCampaign<Stats>(config.experiments, config.seed,
                                                config.parallelism, runChunk, {},
                                                config.onProgress)
                    .stats;
  if (plan.supported) stats.snap.simulatedCycles += plan.planInstructions;
  return stats;
}

}  // namespace

bool endToEndChecksumValid(const std::vector<std::uint32_t>& output) {
  if (output.empty()) return false;
  std::uint32_t expected = kEndToEndSeed;
  for (std::size_t i = 0; i + 1 < output.size(); ++i) expected ^= output[i];
  return output.back() == expected;
}

CopyRun runCopy(hw::Machine& machine, const TaskImage& image, std::optional<FaultSpec> fault) {
  if (!fault) return runCopyWithInjection(machine, image, 0, {});
  return runCopyWithInjection(machine, image, fault->afterInstructions, {fault->location});
}

std::vector<std::uint8_t> machineBaselineSnapshot(const TaskImage& image) {
  return makeMachine(image).saveState();
}

TracedRun runTracedCopy(const TaskImage& image, std::optional<FaultSpec> fault,
                        const std::vector<std::uint8_t>* campaignBaseline) {
  TracedRun traced;
  hw::Machine machine = makeMachine(image);
  if (campaignBaseline != nullptr && machine.saveState() != *campaignBaseline) {
    throw std::runtime_error(
        "runTracedCopy: reconstructed machine diverges from the campaign baseline snapshot "
        "(the image changed between the campaign and the traced run)");
  }
  machine.setTraceSink(&traced.pcTrace);
  traced.run = runCopy(machine, image, fault);
  return traced;
}

CopyRun goldenRun(const TaskImage& image) {
  hw::Machine machine = makeMachine(image);
  const CopyRun run = runCopy(machine, image, std::nullopt);
  if (run.end != CopyRun::End::Output) {
    throw std::runtime_error("goldenRun: task program does not terminate cleanly");
  }
  return run;
}

TemOutcome runTemExperiment(const TaskImage& image, const CopyRun& golden,
                            const FaultSpec& fault, double jobBudgetFactor) {
  util::Rng rng{0xFau};  // only used when the double-flip marker is set
  const ExperimentFault experiment = normalize(fault, rng);
  StraightSource source{image, experiment, nullptr};
  return classifyTemWith(image, golden, jobBudgetFactor, nullptr, source);
}

TemOutcome runTemExperiment(const TaskImage& image, const FaultSpec& fault,
                            double jobBudgetFactor) {
  return runTemExperiment(image, goldenRun(image), fault, jobBudgetFactor);
}

FsOutcome runFsExperiment(const TaskImage& image, const CopyRun& golden, const FaultSpec& fault) {
  util::Rng rng{0xFau};
  ExperimentFault experiment = normalize(fault, rng);
  experiment.targetCopy = 1;
  StraightSource source{image, experiment, nullptr};
  return classifyFsWith(image, golden, source);
}

FsOutcome runFsExperiment(const TaskImage& image, const FaultSpec& fault) {
  return runFsExperiment(image, goldenRun(image), fault);
}

FaultSpec sampleFault(const TaskImage& image, std::uint64_t goldenInstructions,
                      const FaultMix& mix, util::Rng& rng) {
  FaultSpec fault;
  fault.afterInstructions = rng.uniformInt(std::max<std::uint64_t>(goldenInstructions, 1));
  fault.targetCopy = 1 + static_cast<int>(rng.uniformInt(2));

  const double total =
      mix.registerWeight + mix.pcWeight + mix.memoryWeight + mix.fetchWeight;
  const double pick = rng.uniform(0.0, total);
  if (pick < mix.registerWeight) {
    fault.location = RegisterBitFlip{static_cast<int>(rng.uniformInt(hw::kRegisterCount)),
                                     static_cast<int>(rng.uniformInt(32))};
  } else if (pick < mix.registerWeight + mix.pcWeight) {
    fault.location = PcBitFlip{static_cast<int>(rng.uniformInt(18))};
  } else if (pick < mix.registerWeight + mix.pcWeight + mix.fetchWeight) {
    fault.location = FetchBitFlip{static_cast<int>(rng.uniformInt(32))};
  } else {
    // Memory fault over program text or input data, weighted by size.
    const auto textWords = static_cast<std::uint32_t>(image.program.words.size());
    const auto inputWords = static_cast<std::uint32_t>(image.input.size());
    const auto pickWord = static_cast<std::uint32_t>(
        rng.uniformInt(std::max<std::uint32_t>(textWords + inputWords, 1)));
    const std::uint32_t address = pickWord < textWords
                                      ? image.program.origin + 4 * pickWord
                                      : image.inputBase + 4 * (pickWord - textWords);
    fault.location = MemoryBitFlip{address, static_cast<int>(rng.uniformInt(hw::kEccCodewordBits))};
    if (rng.bernoulli(mix.doubleMemoryFlipProbability)) {
      fault.targetCopy = -fault.targetCopy;  // double-flip marker (see normalize)
    }
  }
  return fault;
}

TemCampaignStats runTemCampaign(const TaskImage& image, const CampaignConfig& config) {
  return runCampaign<TemCampaignStats>(
      image, config, false,
      [&](const CopyRun& golden, auto& source, TemCampaignStats& chunk) {
        tallyTem(chunk, classifyTemWith(image, golden, config.jobBudgetFactor,
                                        &chunk.mechanisms, source));
      });
}

FsCampaignStats runFsCampaign(const TaskImage& image, const CampaignConfig& config) {
  return runCampaign<FsCampaignStats>(
      image, config, true,
      [&](const CopyRun& golden, auto& source, FsCampaignStats& chunk) {
        tallyFs(chunk, classifyFsWith(image, golden, source));
      });
}

void SnapCounters::merge(const SnapCounters& other) {
  simulatedCycles += other.simulatedCycles;
  snapshotHits += other.snapshotHits;
  snapshotMisses += other.snapshotMisses;
  snapshotBytes += other.snapshotBytes;
  resumePoints += other.resumePoints;
  replayedCopies += other.replayedCopies;
  executedCopies += other.executedCopies;
  straightFallbacks += other.straightFallbacks;
}

void DetectionMechanismCounts::merge(const DetectionMechanismCounts& other) {
  illegalInstruction += other.illegalInstruction;
  addressError += other.addressError;
  busError += other.busError;
  divideByZero += other.divideByZero;
  mmuViolation += other.mmuViolation;
  stackOverflow += other.stackOverflow;
  executionTimeMonitor += other.executionTimeMonitor;
  outputUnreadable += other.outputUnreadable;
  temComparison += other.temComparison;
  eccCorrected += other.eccCorrected;
  endToEndCheck += other.endToEndCheck;
}

void TemCampaignStats::merge(const TemCampaignStats& other) {
  mechanisms.merge(other.mechanisms);
  snap.merge(other.snap);
  experiments += other.experiments;
  notActivated += other.notActivated;
  maskedByEcc += other.maskedByEcc;
  maskedByVote += other.maskedByVote;
  maskedByRestart += other.maskedByRestart;
  omissionVoteFailed += other.omissionVoteFailed;
  omissionNoBudget += other.omissionNoBudget;
  undetected += other.undetected;
}

void FsCampaignStats::merge(const FsCampaignStats& other) {
  snap.merge(other.snap);
  experiments += other.experiments;
  notActivated += other.notActivated;
  maskedByEcc += other.maskedByEcc;
  failSilent += other.failSilent;
  detectedByEndToEnd += other.detectedByEndToEnd;
  undetected += other.undetected;
}

util::ProportionEstimate TemCampaignStats::pMask() const {
  return util::wilsonInterval(maskedByVote + maskedByRestart, activated());
}

util::ProportionEstimate TemCampaignStats::pOmission() const {
  return util::wilsonInterval(omissionVoteFailed + omissionNoBudget, activated());
}

util::ProportionEstimate TemCampaignStats::coverage() const {
  return util::wilsonInterval(activated() - undetected, activated());
}

util::ProportionEstimate FsCampaignStats::coverage() const {
  return util::wilsonInterval(activated() - undetected, activated());
}

}  // namespace nlft::fi
