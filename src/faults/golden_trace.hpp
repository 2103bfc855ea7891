// Golden-trace regression harness for the system-level fault-injection
// scenarios.
//
// Each named scenario arms a fixed set of injections into a fresh
// bbw::BbwSystemSim, records the line-oriented event trace (fault firings,
// task/kernel errors, node silences and restarts, membership transitions,
// bus drops, the vehicle stop) plus a result summary, and the harness
// compares it line-by-line against a checked-in golden under tests/golden/.
// Any behavioural drift — a changed restart time, a reordered bus slot, a
// different masking decision — shows up as the first diverging line.
//
// tools/record_golden_traces regenerates the goldens after an INTENDED
// behaviour change; tests/golden_trace_test.cpp enforces them in CI.
#pragma once

#include <string>
#include <vector>

#include "bbw/system_sim.hpp"

namespace nlft::fi {

/// Names of all catalogued scenarios, in a fixed order.
[[nodiscard]] std::vector<std::string> goldenScenarioNames();

/// Earliest injection instant (microseconds) a catalogued scenario arms.
/// Forked recordings (recordScenarioTraceForked) must restore from a clean
/// checkpoint taken STRICTLY before it. Throws for unknown names.
[[nodiscard]] std::int64_t goldenScenarioEarliestUs(const std::string& name);

/// Records the event trace of one catalogued scenario (throws
/// std::invalid_argument for unknown names). The trailing lines summarise
/// the BbwSimResult so silent counter drift is caught too. `base` carries
/// the simulation knobs; the scenario overrides the node type itself.
[[nodiscard]] std::vector<std::string> recordScenarioTrace(const std::string& name,
                                                           const bbw::BbwSimConfig& base = {});

/// As above, but additionally attaches `recorder` (and `metrics`, when
/// non-null) to the simulation, so observability output can be reconciled
/// against the golden trace (tests/obs_system_test.cpp).
[[nodiscard]] std::vector<std::string> recordScenarioTrace(const std::string& name,
                                                           const bbw::BbwSimConfig& base,
                                                           obs::TraceRecorder* recorder,
                                                           obs::Registry* metrics = nullptr);

/// Snapshot-resume variant of recordScenarioTrace (the differential suite,
/// tests/snapshot_differential_test.cpp): a producer simulation is armed
/// with the same scenario, advanced to `splitAtUs` and checkpointed
/// (BbwSystemSim::saveState); the returned trace comes from a FRESH
/// simulation that restores the checkpoint — with its trace sink attached
/// before restoreState, so the replayed prefix re-emits its events — and
/// then runs to completion. Must be line-identical to the straight
/// recording for every scenario and every split point.
[[nodiscard]] std::vector<std::string> recordScenarioTraceResumed(
    const std::string& name, std::int64_t splitAtUs, const bbw::BbwSimConfig& base = {});

/// Forked variant (tests/system_snapshot_differential_test.cpp): a CLEAN
/// producer — no injections, exactly like fi::SystemBaseline's golden sweep
/// — is advanced to `forkBeforeUs` and checkpointed; the returned trace
/// comes from a fresh simulation that attaches its trace sink, restores the
/// clean checkpoint (the replayed prefix re-emits its lines), arms the
/// scenario and runs to completion. This is the execution shape of every
/// forked experiment of the benchmark's traced re-enactment, so the trace
/// must be line-identical to the straight recording. `forkBeforeUs` must
/// leave the restored clock strictly before the scenario's earliest
/// injection (throws otherwise).
[[nodiscard]] std::vector<std::string> recordScenarioTraceForked(
    const std::string& name, std::int64_t forkBeforeUs, const bbw::BbwSimConfig& base = {});

/// First divergence between an expected and an actual trace.
struct TraceDiff {
  bool identical = true;
  std::size_t line = 0;       ///< 1-based line of the first mismatch
  std::string expected;       ///< "<missing>" when the actual trace is longer
  std::string actual;         ///< "<missing>" when the expected trace is longer
};

[[nodiscard]] TraceDiff compareTraces(const std::vector<std::string>& expected,
                                      const std::vector<std::string>& actual);

/// One line per entry; throws std::runtime_error if the file cannot be
/// opened (a missing golden is a hard failure, not a silent pass).
[[nodiscard]] std::vector<std::string> readTraceFile(const std::string& path);
void writeTraceFile(const std::string& path, const std::vector<std::string>& lines);

}  // namespace nlft::fi
