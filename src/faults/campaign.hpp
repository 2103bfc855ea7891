// Fault-injection campaigns over interpreted task programs.
//
// A TaskImage describes one critical task compiled for the toy ISA: program
// text, input data, output region and entry conditions. The campaign runner
// drives tem::Protocol at the machine level (classifyTemWith) — two copies,
// comparison, recovery copy, vote, instruction budget — with exactly one
// fault injected per experiment, and classifies the outcome. This reproduces the
// methodology behind the paper's assumed P_T = 0.9, P_OM = 0.05 figures
// (fault injection on a brake-by-wire task, reference [7]).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/protocol.hpp"
#include "exec/parallel_for.hpp"
#include "faults/fault_model.hpp"
#include "hw/assembler.hpp"
#include "hw/mmu.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace nlft::fi {

/// A task program plus everything needed to run one copy of it.
struct TaskImage {
  hw::Program program;
  std::uint32_t entry = 0;       ///< initial PC
  std::uint32_t stackTop = 0;    ///< initial SP
  std::uint32_t inputBase = 0;   ///< input data region (read by the task)
  std::vector<std::uint32_t> input;
  std::uint32_t outputBase = 0;  ///< result region (written by the task)
  std::uint32_t outputWords = 0;
  std::uint32_t memBytes = 64 * 1024;
  std::uint64_t maxInstructionsPerCopy = 100000;  ///< execution-time monitor
  /// When true, the campaign machine enables the MMU with `mmuRegions`:
  /// wild stores then raise MMU violations instead of silently corrupting
  /// unrelated memory (Table 1 fault confinement).
  bool enableMmu = false;
  /// MMU regions to install when enableMmu is set, typically the static
  /// analyzer's (analysis::applyDerivedConfig). Region owners are overridden
  /// with the campaign task id when installed. An image that enables the
  /// MMU with no regions is refused with std::invalid_argument.
  std::vector<hw::MmuRegion> mmuRegions;
  std::uint32_t stackBytes = 4096;
  /// When true, the LAST output word is an end-to-end checksum: it must
  /// equal the XOR of all preceding output words with kEndToEndSeed
  /// (Table 1 "data integrity checks and end-to-end error detection"). The
  /// receiver/kernel verifies it; a failing checksum is a DETECTED error.
  bool outputHasChecksum = false;
};

/// Seed of the end-to-end output checksum.
inline constexpr std::uint32_t kEndToEndSeed = 0x5A5A5A5A;

/// Verifies the end-to-end checksum convention on an output block.
[[nodiscard]] bool endToEndChecksumValid(const std::vector<std::uint32_t>& output);

/// How one copy of the task ended.
struct CopyRun {
  enum class End : std::uint8_t { Output, Exception, Overrun, OutputUnreadable };
  End end = End::Output;
  hw::ExceptionKind exception = hw::ExceptionKind::None;
  std::vector<std::uint32_t> output;
  std::uint64_t instructions = 0;
};

/// Classification of one TEM fault-injection experiment. Omissions follow
/// tem::Protocol's rule, but two disagreeing results and then a detected error
/// in copy 3 are OmissionVoteFailed (a legacy label, until a reference re-record).
enum class TemOutcome : std::uint8_t {
  NotActivated,     ///< fault never became an error (overwritten / latent)
  MaskedByEcc,      ///< hardware ECC corrected it; execution stayed clean
  MaskedByVote,     ///< comparison mismatch, 2-of-3 vote delivered the right result
  MaskedByRestart,  ///< EDM exception, replacement copy delivered the right result
  OmissionVoteFailed,  ///< the last permitted copy gave a result; no two results agree
  OmissionNoBudget,    ///< no further copy fits the instruction budget; no vote possible
  UndetectedWrongOutput,  ///< silent data corruption delivered (coverage gap)
};

/// Classification of one fail-silent-node experiment (single copy, no TEM).
enum class FsOutcome : std::uint8_t {
  NotActivated,
  MaskedByEcc,
  FailSilent,             ///< EDM fired; the node went silent (safe)
  DetectedByEndToEnd,     ///< wrong output caught by the receiver checksum
  UndetectedWrongOutput,  ///< wrong result delivered without any indication
};

/// How a campaign executes its experiments.
enum class ExecutionMode : std::uint8_t {
  /// Snapshot-fork (copy-on-inject) when the image supports it — verified
  /// per campaign by the clean-fixed-point protocol (docs/SNAPSHOT.md) —
  /// with a transparent fallback to straight execution otherwise. The
  /// default: results are bit-identical either way.
  Auto,
  /// One fresh machine per experiment, every copy executed in full.
  Straight,
};

/// Deterministic counters of the snapshot/copy-on-inject engine, embedded
/// in the machine campaign statistics (pure sums: merging is exact and
/// commutative, so they are bit-identical at every thread count).
/// `simulatedCycles` is counted in BOTH modes — the speedup bench reports
/// the straight/snapshot cycle ratio from it. No campaign uses a snapshot
/// cache, so the three cache counters stay at zero.
struct SnapCounters {
  std::uint64_t simulatedCycles = 0;   ///< machine instructions executed
  std::uint64_t snapshotHits = 0;      ///< snapshot-cache hits
  std::uint64_t snapshotMisses = 0;    ///< snapshot-cache misses
  std::uint64_t snapshotBytes = 0;     ///< bytes of snapshot blobs saved
  std::uint64_t resumePoints = 0;      ///< forks served from a snapshot
  std::uint64_t replayedCopies = 0;    ///< clean copies answered by replay
  std::uint64_t executedCopies = 0;    ///< copies actually executed
  /// Experiments Auto ran straight: faults outside a supported plan's fork
  /// domain.
  std::uint64_t straightFallbacks = 0;

  void merge(const SnapCounters& other);
};

/// Which mechanism detected the error first (Table 1 of the paper): CPU
/// hardware exceptions, ECC, the execution-time monitor, or the TEM
/// comparison. Aggregated over a campaign.
struct DetectionMechanismCounts {
  std::size_t illegalInstruction = 0;
  std::size_t addressError = 0;
  std::size_t busError = 0;  ///< uncorrectable ECC
  std::size_t divideByZero = 0;
  std::size_t mmuViolation = 0;
  std::size_t stackOverflow = 0;
  std::size_t executionTimeMonitor = 0;  ///< per-copy budget overrun
  std::size_t outputUnreadable = 0;
  std::size_t temComparison = 0;  ///< caught only by the result comparison
  std::size_t eccCorrected = 0;   ///< corrected transparently (no error raised)
  std::size_t endToEndCheck = 0;  ///< output checksum failed (data integrity)

  /// Adds another breakdown (pure counts: merging is exact and commutative).
  void merge(const DetectionMechanismCounts& other);
};

struct TemCampaignStats {
  DetectionMechanismCounts mechanisms;
  SnapCounters snap;
  std::size_t experiments = 0;
  std::size_t notActivated = 0;
  std::size_t maskedByEcc = 0;
  std::size_t maskedByVote = 0;
  std::size_t maskedByRestart = 0;
  std::size_t omissionVoteFailed = 0;
  std::size_t omissionNoBudget = 0;
  std::size_t undetected = 0;

  /// Adds another campaign's outcomes (used to combine per-chunk results of
  /// a parallel campaign; exact and commutative).
  void merge(const TemCampaignStats& other);

  [[nodiscard]] std::size_t activated() const {
    return experiments - notActivated - maskedByEcc;
  }
  /// P_T estimate: masked / activated (Wilson interval).
  [[nodiscard]] util::ProportionEstimate pMask() const;
  /// P_OM estimate: omissions / activated.
  [[nodiscard]] util::ProportionEstimate pOmission() const;
  /// Coverage estimate: 1 - undetected / activated.
  [[nodiscard]] util::ProportionEstimate coverage() const;
};

struct FsCampaignStats {
  SnapCounters snap;
  std::size_t experiments = 0;
  std::size_t notActivated = 0;
  std::size_t maskedByEcc = 0;
  std::size_t failSilent = 0;
  std::size_t detectedByEndToEnd = 0;  ///< wrong output caught by the checksum
  std::size_t undetected = 0;

  /// Adds another campaign's outcomes (exact and commutative).
  void merge(const FsCampaignStats& other);

  [[nodiscard]] std::size_t activated() const {
    return experiments - notActivated - maskedByEcc;
  }
  [[nodiscard]] util::ProportionEstimate coverage() const;
};

/// Sampling weights for fault locations.
struct FaultMix {
  double registerWeight = 0.60;
  double pcWeight = 0.10;
  double memoryWeight = 0.22;  ///< over text + input regions (ECC codeword bits)
  double fetchWeight = 0.08;   ///< instruction-fetch path upsets
  /// Number of memory bits flipped per memory fault (1 = correctable,
  /// 2 = uncorrectable); sampled: P(double) below.
  double doubleMemoryFlipProbability = 0.15;
};

struct CampaignConfig {
  std::size_t experiments = 1000;
  std::uint64_t seed = 1;
  FaultMix mix{};
  /// Total instruction budget across all copies of one job, as a multiple of
  /// the golden single-copy cost (models the reserved TEM slack).
  double jobBudgetFactor = 3.5;
  /// Worker threads and chunking. Experiments are split into chunks with one
  /// RNG sub-stream each; chunk results merge in chunk order, so for a fixed
  /// (seed, chunkSize) the campaign statistics are bit-identical for every
  /// thread count. Each experiment runs on its own hw::Machine, so workers
  /// share nothing but the read-only image and golden run.
  exec::Parallelism parallelism{};
  /// Optional throughput reporting (experiments/sec, ETA, per-worker counts).
  exec::ProgressFn onProgress;
  /// Execution engine (see ExecutionMode). Outcome statistics are
  /// bit-identical across modes; only the snap.* counters differ.
  ExecutionMode mode = ExecutionMode::Auto;
};

/// Runs one copy of the task (optionally with a fault striking mid-run).
[[nodiscard]] CopyRun runCopy(hw::Machine& machine, const TaskImage& image,
                              std::optional<FaultSpec> fault);

/// A copy run plus the PC of every executed (or faulting) instruction.
struct TracedRun {
  CopyRun run;
  std::vector<std::uint32_t> pcTrace;
};

/// Snapshot of the pristine campaign machine for `image` (the state right
/// after construction and image load, before any context reset) — the
/// baseline later runTracedCopy calls can be verified against.
[[nodiscard]] std::vector<std::uint8_t> machineBaselineSnapshot(const TaskImage& image);

/// Runs one copy on a fresh machine while recording the PC trace — the
/// input to analysis::checkTrace, which validates the executed control flow
/// against the statically derived CFG (ground truth for campaigns).
///
/// `campaignBaseline` (optional) closes a silent-drift hazard: the traced
/// copy runs on a RECONSTRUCTED machine, so an image mutated between the
/// campaign and the trace would silently yield a trace of a different
/// program. Passing the campaign's machineBaselineSnapshot() makes the call
/// verify — byte for byte — that the reconstructed machine equals the
/// campaign's, throwing std::runtime_error on drift.
[[nodiscard]] TracedRun runTracedCopy(const TaskImage& image, std::optional<FaultSpec> fault,
                                      const std::vector<std::uint8_t>* campaignBaseline = nullptr);

/// Golden (fault-free) run; throws std::runtime_error if the program fails.
[[nodiscard]] CopyRun goldenRun(const TaskImage& image);

/// One TEM experiment with the given fault, classified against `golden`
/// (the image's goldenRun, which a caller running many experiments keeps).
[[nodiscard]] TemOutcome runTemExperiment(const TaskImage& image, const CopyRun& golden,
                                          const FaultSpec& fault, double jobBudgetFactor = 3.5);
/// The same, running the golden copy first.
[[nodiscard]] TemOutcome runTemExperiment(const TaskImage& image, const FaultSpec& fault,
                                          double jobBudgetFactor = 3.5);

/// One fail-silent-node experiment with the given fault, classified against
/// `golden` (the image's goldenRun).
[[nodiscard]] FsOutcome runFsExperiment(const TaskImage& image, const CopyRun& golden,
                                        const FaultSpec& fault);
/// The same, running the golden copy first.
[[nodiscard]] FsOutcome runFsExperiment(const TaskImage& image, const FaultSpec& fault);

/// Full campaigns with randomly sampled faults.
[[nodiscard]] TemCampaignStats runTemCampaign(const TaskImage& image, const CampaignConfig& config);
[[nodiscard]] FsCampaignStats runFsCampaign(const TaskImage& image, const CampaignConfig& config);

/// Samples a random fault for the campaign (exposed for reproducibility in
/// tests and benches).
[[nodiscard]] FaultSpec sampleFault(const TaskImage& image, std::uint64_t goldenInstructions,
                                    const FaultMix& mix, util::Rng& rng);

/// Counts the error-detection mechanism that ended `run`, if any.
inline void countMechanism(DetectionMechanismCounts& counts, const CopyRun& run) {
  if (run.end == CopyRun::End::Overrun) ++counts.executionTimeMonitor;
  if (run.end == CopyRun::End::OutputUnreadable) ++counts.outputUnreadable;
  if (run.end != CopyRun::End::Exception) return;
  switch (run.exception) {
    case hw::ExceptionKind::IllegalInstruction: ++counts.illegalInstruction; return;
    case hw::ExceptionKind::AddressError: ++counts.addressError; return;
    case hw::ExceptionKind::BusError: ++counts.busError; return;
    case hw::ExceptionKind::DivideByZero: ++counts.divideByZero; return;
    case hw::ExceptionKind::MmuViolation: ++counts.mmuViolation; return;
    case hw::ExceptionKind::StackOverflow: ++counts.stackOverflow; return;
    case hw::ExceptionKind::None: return;
  }
}

/// One TEM experiment, driving tem::Protocol over the copies `source` runs
/// (`CopyRun runCopy(int copy)`, 1-based; `bool eccCorrected()` tells whether
/// ECC corrected an upset), so a test can script them. Another copy fits
/// while the job's instruction budget (`jobBudgetFactor` golden copies) still
/// holds one golden copy, checked before copy 1 too. A copy that raises an
/// exception, overruns, leaves its output unreadable or fails the end-to-end
/// checksum is a detected error.
template <typename Source>
TemOutcome classifyTemWith(const TaskImage& image, const CopyRun& golden, double jobBudgetFactor,
                           DetectionMechanismCounts* mechanisms, Source& source) {
  const auto copyCost = static_cast<std::int64_t>(golden.instructions);
  auto remaining = static_cast<std::int64_t>(jobBudgetFactor * static_cast<double>(copyCost));
  if (remaining < copyCost) return TemOutcome::OmissionNoBudget;

  tem::Protocol protocol;
  tem::Decision decision;
  do {
    CopyRun run = source.runCopy(protocol.startCopy());
    remaining -= static_cast<std::int64_t>(run.instructions);
    const bool fits = remaining >= copyCost;
    if (run.end != CopyRun::End::Output) {
      if (mechanisms) countMechanism(*mechanisms, run);
      decision = protocol.onDetectedError(fits);
    } else if (image.outputHasChecksum && !endToEndChecksumValid(run.output)) {
      // The kernel's data-integrity check rejects the copy's result before
      // it ever reaches the comparison (Section 2.6).
      if (mechanisms) ++mechanisms->endToEndCheck;
      decision = protocol.onDetectedError(fits);
    } else {
      decision = protocol.onResult(run.output, fits);
      if (decision.mismatch && mechanisms) ++mechanisms->temComparison;
    }
  } while (decision.action == tem::Action::RunCopy);

  if (decision.delivers() && protocol.result(decision.result) != golden.output) {
    return TemOutcome::UndetectedWrongOutput;
  }
  switch (decision.action) {
    case tem::Action::DeliverByVote: return TemOutcome::MaskedByVote;
    case tem::Action::DeliverByReplacement: return TemOutcome::MaskedByRestart;
    case tem::Action::DeliverClean:
      if (!source.eccCorrected()) return TemOutcome::NotActivated;
      if (mechanisms) ++mechanisms->eccCorrected;
      return TemOutcome::MaskedByEcc;
    case tem::Action::OmitVoteFailed: return TemOutcome::OmissionVoteFailed;
    case tem::Action::RunCopy:
    case tem::Action::OmitNoTime: break;
  }
  // Legacy label until ROADMAP item 3 re-records the references: two
  // disagreeing results, then a detected error in copy 3.
  const bool legacyVoteFailed = protocol.resultCount() == 2 && protocol.copiesStarted() == 3;
  return legacyVoteFailed ? TemOutcome::OmissionVoteFailed : TemOutcome::OmissionNoBudget;
}

}  // namespace nlft::fi
