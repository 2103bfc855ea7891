// Monte-Carlo estimation of system reliability, simulating the same
// stochastic model the paper analyses with Markov chains.
//
// Each trial draws per-node fault processes (permanent + transient,
// exponential inter-arrival), applies the node behaviour — fail-silent or
// light-weight NLFT with its (P_T, P_OM, P_FS) reaction to detected
// transients — and exponential repairs, and records the first instant at
// which any redundancy group drops below its required number of working
// nodes (or an undetected error occurs anywhere, which is assumed fatal for
// the whole system, Section 3.2.1).
//
// Because the stochastic assumptions are identical to the CTMC models, the
// estimates must agree with the analytic solution within sampling error;
// tests and the montecarlo_vs_markov bench enforce exactly that. This is
// the repository's substitute for validating against the (closed-source)
// SHARPE tool used by the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/parallel_for.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace nlft::sys {

/// Node error-handling behaviour (mirrors bbw::NodeType, kept independent so
/// this module has no dependency on the brake-by-wire study).
enum class NodeBehavior : std::uint8_t { FailSilent, Nlft };

/// Stochastic node parameters; rates per hour.
struct NodeParameters {
  double lambdaPermanent = 1.82e-5;
  double lambdaTransient = 1.82e-4;
  double coverage = 0.99;
  double pMask = 0.90;
  double pOmission = 0.05;
  double pFailSilent = 0.05;
  double muRestart = 1.2e3;
  double muOmissionRepair = 2.25e3;
};

/// A redundancy group: `nodes` identical nodes of which `requiredUp` must be
/// operational at all times (e.g. CU duplex: 2/1; wheel nodes degraded: 4/3).
struct GroupSpec {
  std::string name;
  int nodes = 1;
  int requiredUp = 1;
};

/// Extension beyond the paper's independence assumption (Section 3.2.2
/// explicitly excludes correlated faults): with probability
/// `correlatedFraction`, a fault event strikes EVERY up node of the same
/// group at once (e.g. a power glitch hitting both central-unit channels).
/// Each affected node resolves its fault independently (an NLFT node may
/// mask its copy of the correlated fault). Set to 0 to recover the paper's
/// model exactly.
struct CorrelationModel {
  double correlatedFraction = 0.0;
};

struct SystemSpec {
  NodeBehavior behavior = NodeBehavior::FailSilent;
  NodeParameters params{};
  std::vector<GroupSpec> groups;
  CorrelationModel correlation{};
};

/// Simulates one system lifetime; returns the failure time in hours
/// (capped at `horizonHours`: a return value >= horizonHours means the
/// system survived the whole horizon).
[[nodiscard]] double simulateLifetime(const SystemSpec& spec, double horizonHours,
                                      util::Rng& rng);

struct ReliabilityEstimate {
  double tHours = 0.0;
  util::ProportionEstimate reliability;
};

struct MonteCarloResult {
  std::vector<ReliabilityEstimate> checkpoints;
  /// Trials the estimates are based on — the full budget, or less when a
  /// PrecisionTarget stopped the campaign early.
  std::size_t trials = 0;
  std::size_t failuresWithinHorizon = 0;
  bool stoppedEarly = false;
  util::RunningStats failureTimes;  ///< uncensored failure times only
};

/// Sequential precision target (docs/ESTIMATORS.md). When `ciHalfWidth` is
/// positive, the campaign halts at the first chunk boundary where EVERY
/// checkpoint's 95% interval half-width is at or below the target. The stop
/// decision is evaluated on deterministic chunk prefixes only, so early-
/// stopped results stay bit-identical at every thread count.
struct PrecisionTarget {
  double ciHalfWidth = 0.0;  ///< 0 disables early stopping
  /// Never stop before this many trials (guards small-sample CI math).
  std::size_t minTrials = 1000;
};

struct MonteCarloConfig {
  std::size_t trials = 10000;
  std::uint64_t seed = 1;
  std::vector<double> checkpointHours{8760.0};
  /// Worker threads and chunking. Trials are split into chunks, each chunk
  /// draws from its own RNG sub-stream (`Rng::fork(chunkIndex)`), and chunk
  /// results merge in chunk order — so for a fixed (seed, chunkSize) the
  /// result is bit-identical for EVERY thread count, including 1.
  exec::Parallelism parallelism{};
  /// Optional throughput reporting (trials/sec, ETA, per-worker counts).
  exec::ProgressFn onProgress;
  /// Optional metrics sink (not owned): deterministic "mc.*" counters plus
  /// non-golden "wall.mc.*" throughput gauges (trials per second).
  obs::Registry* metrics = nullptr;
  /// Optional sequential early stopping at a target interval half-width.
  PrecisionTarget target{};
};

/// Estimates R(t) at every checkpoint (horizon = max checkpoint).
[[nodiscard]] MonteCarloResult estimateReliability(const SystemSpec& spec,
                                                   const MonteCarloConfig& config);

/// Estimates the MTTF by simulating every trial to system failure.
[[nodiscard]] util::RunningStats estimateMttf(const SystemSpec& spec, std::size_t trials,
                                              std::uint64_t seed,
                                              const exec::Parallelism& parallelism = {});

}  // namespace nlft::sys
