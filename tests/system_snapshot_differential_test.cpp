// Checks of the SYSTEM-level replay-checkpoint engine (docs/SNAPSHOT.md
// "system replay checkpoints"): fi::SystemBaseline, which the benchmark's
// traced re-enactment forks its stops from. A golden trace recorded from a
// restored checkpoint must be line-identical to the straight recording, and
// a corrupted checkpoint must abort the restore loudly. The campaigns run
// every stop straight, so they are not compared here.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "faults/golden_trace.hpp"
#include "faults/snapshot_exec.hpp"
#include "snap/cache.hpp"

namespace nlft::fi {
namespace {

using util::Duration;

TEST(SystemSnapshotDifferential, ForkedGoldenTracesAreLineIdentical) {
  const bbw::BbwSimConfig base{};
  for (const std::string& name : goldenScenarioNames()) {
    const std::vector<std::string> straight = recordScenarioTrace(name, base);
    const std::int64_t earliestUs = goldenScenarioEarliestUs(name);
    // Fork both mid-prefix and just before the first injection: the
    // restored replay must re-emit the prefix lines verbatim and the armed
    // tail must not depend on where the fork happened.
    for (const std::int64_t forkUs : {earliestUs / 2, earliestUs - 100000}) {
      const std::vector<std::string> forked = recordScenarioTraceForked(name, forkUs, base);
      const TraceDiff diff = compareTraces(straight, forked);
      EXPECT_TRUE(diff.identical)
          << name << " forked at " << forkUs << "us diverges at line " << diff.line
          << "\n  expected: " << diff.expected << "\n  actual:   " << diff.actual;
    }
  }
}

TEST(SystemSnapshotDifferential, CorruptedRestoreAbortsLoudly) {
  bbw::BbwSimConfig config;
  config.initialSpeedMps = 15.0;
  config.horizon = Duration::seconds(8);
  const SystemBaseline baseline{config};
  ASSERT_GT(baseline.checkpoints().size(), 4u);

  // A cache holding ONLY a byte-flipped blob at one checkpoint key: the
  // restore walk probes it first and must throw, never silently fall back
  // to straight execution or to an earlier checkpoint.
  const std::size_t k = baseline.checkpoints().size() / 2;
  const SystemCheckpoint& victim = baseline.checkpoints()[k];
  std::vector<std::uint8_t> corrupted = victim.blob;
  corrupted[corrupted.size() / 2] ^= 0x40;
  snap::SnapshotCache cache{1u << 20};
  cache.insert({static_cast<std::uint64_t>(victim.gridUs), 0}, corrupted);

  bbw::BbwSystemSim scratch{config};
  EXPECT_THROW(
      { (void)baseline.restoreBefore(scratch, victim.clockUs + 1, cache); },
      std::runtime_error);
}

}  // namespace
}  // namespace nlft::fi
