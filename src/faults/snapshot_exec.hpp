// Machine-level snapshot forking for copy-on-inject campaigns.
//
// A campaign chunk sorts its sampled faults by (copy band, injection time)
// and advances a shared baseline machine monotonically through the clean
// prefix ONCE; every experiment then forks a scratch machine from the
// baseline at its injection instant instead of re-executing the prefix.
//
// Because a forked machine is bit-identical to the straight-through machine
// at the same instruction index, the fork path produces byte-identical
// CopyRuns — the differential suite (tests/snapshot_differential_test.cpp)
// pins this. See docs/SNAPSHOT.md for the full equivalence methodology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bbw/system_sim.hpp"
#include "hw/machine.hpp"
#include "snap/cache.hpp"

namespace nlft::fi {

/// 64-bit digest of the BEHAVIOR-RELEVANT machine state: CPU context, raw
/// memory codewords, halted flag and armed fetch corruption. Deliberately
/// EXCLUDES the executed-instruction counter, the MMU violation counter and
/// the ECC error counters — all monotone bookkeeping that never feeds back
/// into execution — so a machine that returns to the clean fixed point
/// after a fault digests clean again. In particular a correctable memory
/// flip that was scrubbed on read leaves only a bumped correctedErrors
/// counter behind; the machine then behaves exactly like the clean one, and
/// the classification still sees the correction because it reads the
/// counter off the live scratch machine, not the digest.
/// Visits the memory's dirty-bitmap summary, the bitmap words it marks and
/// their dirty words, plus O(log k) multiplies per run of k clean words,
/// which fold in as powers of the FNV prime: the value is the one a walk
/// over every codeword gives.
[[nodiscard]] std::uint64_t behaviorDigest(const hw::Machine& machine);

/// A fast-forwardable baseline: a start-state machine plus a sweep machine
/// advanced monotonically through the clean prefix. `forkAt(t, scratch)`
/// copies the baseline state after exactly `t` instructions into `scratch`.
/// Campaign chunks fork in nondecreasing `t` order, so the sweep never goes
/// back, the whole chunk executes the clean prefix at most once per band,
/// and every fork is an in-memory state copy of the memory words dirty in
/// either machine (hw::EccMemory's bitmap) — profiling showed that
/// serializing a blob per fork costs ~20x more than interpreting the short
/// guest programs it would skip.
class MachineBaseline {
 public:
  /// `start` must outlive the baseline (it lives in the campaign plan).
  explicit MachineBaseline(const hw::Machine& start) : start_(start) {}

  /// Makes `scratch` bit-identical to the baseline state advanced by
  /// `instructions`. A backward fork restarts the sweep from the start
  /// state.
  void forkAt(std::uint64_t instructions, hw::Machine& scratch);

  /// Clean-prefix instructions executed by the sweep machine (simulated
  /// cycles charged to the snapshot engine).
  [[nodiscard]] std::uint64_t sweepInstructions() const { return sweepInstructions_; }
  /// Number of forks served (scratch copies of the baseline state).
  [[nodiscard]] std::uint64_t resumePoints() const { return resumePoints_; }

 private:
  const hw::Machine& start_;
  std::optional<hw::Machine> sweep_;
  std::uint64_t position_ = 0;  ///< instructions the sweep has executed
  std::uint64_t sweepInstructions_ = 0;
  std::uint64_t resumePoints_ = 0;
};

// --- System-level baseline (docs/SNAPSHOT.md "System forks") ---
//
// The benchmark's traced re-enactment (perfbench/traced.cpp) forks its
// stops from here; the system campaigns run every stop from t = 0.

/// One grid point of a system golden timeline.
struct SystemCheckpoint {
  std::int64_t gridUs = 0;     ///< nominal grid time (a multiple of the stride)
  std::int64_t clockUs = 0;    ///< ACTUAL simulated clock after advancing to gridUs
  std::uint64_t behavior = 0;  ///< bbw::BbwSystemSim::behaviorFingerprint() there
  bbw::BbwSystemCounters counters;  ///< monotone counters there
  std::vector<std::uint8_t> blob;   ///< replay checkpoint (saveState)
};

/// The shared golden timeline of one stop configuration: ONE fault-free
/// `bbw::BbwSystemSim` fast-forwarded checkpoint grid by checkpoint grid,
/// recording at every point the actual clock, the behavior fingerprint, the
/// monotone counters and a replay-checkpoint blob — then run to completion
/// for the golden result. The timeline is immutable after construction and
/// a pure function of the configuration, so the chunks of a forked run share
/// one instance read-only across threads; each chunk primes its PRIVATE
/// byte-bounded snap::SnapshotCache from it (keeping hit/miss counters a
/// pure function of the chunk contents, hence thread-count invariant).
///
/// Two services per experiment:
///   * restoreBefore() — fork a scratch sim from the nearest cached
///     checkpoint STRICTLY before the injection instant. Strictness makes
///     arming the injection after the restore legal (`scheduleAt` refuses
///     past times) and ordering-equivalent to arming it at t=0: injection
///     events run at EventPriority::FaultInjection, before any same-time
///     event of another priority, and no other event uses that priority.
///     A system checkpoint replays the prefix (docs/SNAPSHOT.md: replay
///     buys exactness, not O(1) restore), so the restore itself is
///     event-neutral; the saving comes from runToRejoin().
///   * runToRejoin() — advance the faulted scratch along the grid and stop
///     simulating once it has provably rejoined the golden timeline:
///     kRejoinConfirmations consecutive grid points with (a) the golden
///     behavior fingerprint, (b) golden per-interval counter deltas
///     INCLUDING the processed-event count, and (c) no armed injection.
///     The final result is then spliced: scratch counters at the rejoin
///     point plus the golden tail deltas, trajectory fields from the golden
///     final — bit-identical to running the scratch to completion, at a
///     fraction of the simulated events. Injections whose disturbance never
///     heals (crashes, wheel omissions) simply never match and run
///     straight to completion.
class SystemBaseline {
 public:
  /// Sweeps the golden run of `config`, checkpointing every
  /// `checkpointStride` of simulated time (0 = one control period).
  explicit SystemBaseline(bbw::BbwSimConfig config,
                          util::Duration checkpointStride = util::Duration{});

  [[nodiscard]] const bbw::BbwSimConfig& config() const { return config_; }
  [[nodiscard]] const bbw::BbwSimResult& goldenResult() const { return golden_; }
  [[nodiscard]] const bbw::BbwSystemCounters& goldenCounters() const { return finalCounters_; }
  /// Simulated events the one golden sweep processed.
  [[nodiscard]] std::uint64_t sweepEvents() const { return sweepEvents_; }
  [[nodiscard]] std::int64_t strideUs() const { return strideUs_; }
  [[nodiscard]] const std::vector<SystemCheckpoint>& checkpoints() const { return checkpoints_; }

  /// Inserts every checkpoint blob into `cache` in timeline order (the LRU
  /// budget then keeps the latest checkpoints, evicting from the front of
  /// the stop). Call once per chunk on the chunk's private cache.
  void primeCache(snap::SnapshotCache& cache) const;

  /// Restores `scratch` (freshly constructed with this baseline's config)
  /// from the nearest cached checkpoint whose ACTUAL clock is strictly
  /// before `atUs`, walking down the grid past cache misses. Returns the
  /// checkpoint index, or nullopt when nothing cached qualifies (the fork
  /// then starts from t=0, which is event-identical). A cached blob that
  /// fails its replay fingerprint THROWS (std::runtime_error /
  /// snap::BlobError): a corrupted restore aborts loudly, never silently
  /// falls back to straight execution.
  [[nodiscard]] std::optional<std::size_t> restoreBefore(bbw::BbwSystemSim& scratch,
                                                         std::int64_t atUs,
                                                         snap::SnapshotCache& cache) const;

  /// Advances the armed scratch sim along the checkpoint grid and splices
  /// the golden tail once the rejoin condition holds (see the class docs).
  /// Returns the finalized result, or nullopt when the run never rejoins —
  /// the scratch is then mid-flight and the caller finishes it with run().
  [[nodiscard]] std::optional<bbw::BbwSimResult> runToRejoin(
      bbw::BbwSystemSim& scratch, std::int64_t injectedAtUs,
      std::optional<std::size_t> restoredAt) const;

  /// Consecutive matching grid points required before splicing. Three
  /// checkpoints span >= two full control periods, so every task, bus cycle
  /// and arbitration round has turned over at least once while matching.
  static constexpr unsigned kRejoinConfirmations = 3;

 private:
  bbw::BbwSimConfig config_;
  std::int64_t strideUs_ = 0;
  std::vector<SystemCheckpoint> checkpoints_;
  bbw::BbwSimResult golden_;
  bbw::BbwSystemCounters finalCounters_;
  std::uint64_t sweepEvents_ = 0;
};

/// Probes whether replay checkpoints round-trip for `config`: saves one
/// early checkpoint, restores it into a twin simulation built from the same
/// config, and compares both fingerprints. The config is plain data, so this
/// guards against FUTURE sim state the blob format does not cover yet.
/// A caller must not fork stops of a config that fails the probe.
[[nodiscard]] bool systemSnapshotSupported(const bbw::BbwSimConfig& config);

}  // namespace nlft::fi
