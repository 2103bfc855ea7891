// Snapshot/copy-on-inject campaign engine speedup: simulated machine-cycles
// and wall time of straight execution vs snapshot-fork execution, on the
// SAME fault samples (same seed), for every interpreted guest program.
//
// The headline number is cycles-per-sample: straight execution interprets
// every copy of every experiment in full, while the snapshot engine replays
// verified clean copies for free and forks faulted copies from a
// fast-forwarded baseline at the injection instant (docs/SNAPSHOT.md). The
// acceptance floor is a >=3x reduction in simulated cycles per TEM campaign
// sample, aggregated over the guest programs. Outcome statistics must be
// bit-identical between the two modes and across thread counts {1, 2, 8} —
// this bench fails (exit 1) on any divergence, making it a differential
// test as much as a benchmark. It also fails when Auto did not fork: every
// forked campaign must report resume points and no straight fallback.
//
// The wall-clock ratio is printed next to the cycle ratio. The gate stays on
// the cycle counter (wall time is noisy on shared hosts), but the bench
// warns whenever the two ratios point in different directions.
//
// Results append to BENCH_snapshot_speedup.json. `--smoke` shrinks budgets
// for CI; any other argument exits 2 with the usage line.
#include <cstdio>
#include <optional>

#include "bbw/guest_programs.hpp"
#include "faults/campaign.hpp"
#include "flag_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "util/time.hpp"

using namespace nlft;

namespace {

/// TEM outcome statistics (everything except the snap.* engine counters)
/// must be bit-identical between execution modes and thread counts.
bool temOutcomesEqual(const fi::TemCampaignStats& a, const fi::TemCampaignStats& b) {
  const fi::DetectionMechanismCounts& ma = a.mechanisms;
  const fi::DetectionMechanismCounts& mb = b.mechanisms;
  return a.experiments == b.experiments && a.notActivated == b.notActivated &&
         a.maskedByEcc == b.maskedByEcc && a.maskedByVote == b.maskedByVote &&
         a.maskedByRestart == b.maskedByRestart &&
         a.omissionVoteFailed == b.omissionVoteFailed &&
         a.omissionNoBudget == b.omissionNoBudget && a.undetected == b.undetected &&
         ma.illegalInstruction == mb.illegalInstruction && ma.addressError == mb.addressError &&
         ma.busError == mb.busError && ma.divideByZero == mb.divideByZero &&
         ma.mmuViolation == mb.mmuViolation && ma.stackOverflow == mb.stackOverflow &&
         ma.executionTimeMonitor == mb.executionTimeMonitor &&
         ma.outputUnreadable == mb.outputUnreadable && ma.temComparison == mb.temComparison &&
         ma.eccCorrected == mb.eccCorrected && ma.endToEndCheck == mb.endToEndCheck;
}

bool fsOutcomesEqual(const fi::FsCampaignStats& a, const fi::FsCampaignStats& b) {
  return a.experiments == b.experiments && a.notActivated == b.notActivated &&
         a.maskedByEcc == b.maskedByEcc && a.failSilent == b.failSilent &&
         a.detectedByEndToEnd == b.detectedByEndToEnd && a.undetected == b.undetected;
}

/// Auto engaged the fork engine: forks served, no experiment ran straight.
bool forked(const fi::SnapCounters& snap) {
  return snap.resumePoints > 0 && snap.straightFallbacks == 0;
}

/// One ratio says the snapshot engine is faster, the other says slower.
bool directionsDisagree(double workRatio, double wallRatio) {
  return (workRatio > 1.0) != (wallRatio > 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<bool> smokeFlag = cli::parseSmokeFlag(argc, argv, "snapshot_speedup");
  if (!smokeFlag) return 2;
  const bool smoke = *smokeFlag;

  obs::JsonValue report = obs::JsonValue::object();
  report.set("report", obs::JsonValue::string("snapshot_speedup"));
  report.set("smoke", obs::JsonValue::boolean(smoke));

  const std::size_t experiments = smoke ? 2000 : 20000;
  bool equivalent = true;
  bool engaged = true;
  double straightTemSeconds = 0.0;
  double snapshotTemSeconds = 0.0;
  std::uint64_t straightTemCycles = 0;
  std::uint64_t snapshotTemCycles = 0;
  std::uint64_t straightFsCycles = 0;
  std::uint64_t snapshotFsCycles = 0;
  std::uint64_t replayedCopies = 0;
  std::uint64_t executedCopies = 0;
  std::uint64_t resumePoints = 0;
  std::size_t temSamples = 0;

  std::printf("TEM + FS campaigns, %zu experiments per guest program, same "
              "seed and chunking in both modes\n\n",
              experiments);
  std::printf("%-16s %14s %14s %8s %8s %10s %10s %8s %9s\n", "program", "TEM straight",
              "TEM snapshot", "TEM", "FS", "straight s", "snapshot s", "TEM wall", "resume %");

  obs::JsonValue programs = obs::JsonValue::object();
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    const fi::TaskImage image = program.makeNominalImage();
    fi::CampaignConfig config;
    config.experiments = experiments;
    config.seed = 47;
    config.parallelism.threads = 1;
    // 8 chunks: enough parallelism for the thread-identity checks below,
    // large enough that the per-chunk clean-prefix sweep amortizes over
    // hundreds of forks instead of a handful (the sweep re-executes the
    // prefix once per band per chunk).
    config.parallelism.chunkSize = experiments / 8;

    config.mode = fi::ExecutionMode::Straight;
    const util::MonotonicStopwatch straightClock;
    const fi::TemCampaignStats straight = fi::runTemCampaign(image, config);
    const double straightSeconds = straightClock.elapsedSeconds();

    config.mode = fi::ExecutionMode::Auto;
    const util::MonotonicStopwatch snapClock;
    const fi::TemCampaignStats snapshot = fi::runTemCampaign(image, config);
    const double snapshotSeconds = snapClock.elapsedSeconds();

    // Differential assurance: identical outcome statistics per mode and per
    // thread count (the snapshot engine defers execution inside a chunk, so
    // this exercises the sorted-replay path end to end).
    bool identical = temOutcomesEqual(straight, snapshot);
    for (const unsigned threads : {2u, 8u}) {
      fi::CampaignConfig rerun = config;
      rerun.parallelism.threads = threads;
      identical = identical && temOutcomesEqual(snapshot, fi::runTemCampaign(image, rerun));
    }

    // FS (fail-silent node) campaigns share the engine: cross-check them too.
    fi::CampaignConfig fsConfig = config;
    fsConfig.mode = fi::ExecutionMode::Straight;
    const fi::FsCampaignStats fsStraight = fi::runFsCampaign(image, fsConfig);
    fsConfig.mode = fi::ExecutionMode::Auto;
    const fi::FsCampaignStats fsSnapshot = fi::runFsCampaign(image, fsConfig);
    identical = identical && fsOutcomesEqual(fsStraight, fsSnapshot);

    equivalent = equivalent && identical;
    engaged = engaged && forked(snapshot.snap) && forked(fsSnapshot.snap);
    straightTemSeconds += straightSeconds;
    snapshotTemSeconds += snapshotSeconds;
    straightTemCycles += straight.snap.simulatedCycles;
    snapshotTemCycles += snapshot.snap.simulatedCycles;
    straightFsCycles += fsStraight.snap.simulatedCycles;
    snapshotFsCycles += fsSnapshot.snap.simulatedCycles;
    replayedCopies += snapshot.snap.replayedCopies + fsSnapshot.snap.replayedCopies;
    executedCopies += snapshot.snap.executedCopies + fsSnapshot.snap.executedCopies;
    resumePoints += snapshot.snap.resumePoints + fsSnapshot.snap.resumePoints;
    temSamples += straight.experiments;

    const double temRatio = snapshot.snap.simulatedCycles > 0
                                ? static_cast<double>(straight.snap.simulatedCycles) /
                                      static_cast<double>(snapshot.snap.simulatedCycles)
                                : 0.0;
    const double fsRatio = fsSnapshot.snap.simulatedCycles > 0
                               ? static_cast<double>(fsStraight.snap.simulatedCycles) /
                                     static_cast<double>(fsSnapshot.snap.simulatedCycles)
                               : 0.0;
    const double wallRatio = snapshotSeconds > 0.0 ? straightSeconds / snapshotSeconds : 0.0;
    const std::uint64_t copies =
        snapshot.snap.replayedCopies + fsSnapshot.snap.replayedCopies +
        snapshot.snap.executedCopies + fsSnapshot.snap.executedCopies;
    const double resumeFraction =
        copies > 0 ? static_cast<double>(snapshot.snap.replayedCopies +
                                        fsSnapshot.snap.replayedCopies) /
                         static_cast<double>(copies)
                   : 0.0;
    std::printf("%-16s %14llu %14llu %7.2fx %7.2fx %10.3f %10.3f %7.2fx %8.1f%%%s\n",
                program.name.c_str(),
                static_cast<unsigned long long>(straight.snap.simulatedCycles),
                static_cast<unsigned long long>(snapshot.snap.simulatedCycles), temRatio, fsRatio,
                straightSeconds, snapshotSeconds, wallRatio, 100.0 * resumeFraction,
                identical ? "" : "  OUTCOMES DIVERGED");
    if (directionsDisagree(temRatio, wallRatio)) {
      std::printf("WARNING: %s: TEM cycle ratio %.2fx and wall ratio %.2fx point in different "
                  "directions\n",
                  program.name.c_str(), temRatio, wallRatio);
    }

    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("experiments", obs::JsonValue::integer(static_cast<std::int64_t>(experiments)));
    entry.set("tem_straight_cycles",
              obs::JsonValue::integer(static_cast<std::int64_t>(straight.snap.simulatedCycles)));
    entry.set("tem_snapshot_cycles",
              obs::JsonValue::integer(static_cast<std::int64_t>(snapshot.snap.simulatedCycles)));
    entry.set("tem_cycles_ratio", obs::JsonValue::number(temRatio));
    entry.set("fs_cycles_ratio", obs::JsonValue::number(fsRatio));
    entry.set("straight_seconds", obs::JsonValue::number(straightSeconds));
    entry.set("snapshot_seconds", obs::JsonValue::number(snapshotSeconds));
    entry.set("wall_seconds_ratio", obs::JsonValue::number(wallRatio));
    entry.set("resume_fraction", obs::JsonValue::number(resumeFraction));
    entry.set("replayed_copies", obs::JsonValue::integer(static_cast<std::int64_t>(
                                     snapshot.snap.replayedCopies + fsSnapshot.snap.replayedCopies)));
    entry.set("executed_copies", obs::JsonValue::integer(static_cast<std::int64_t>(
                                     snapshot.snap.executedCopies + fsSnapshot.snap.executedCopies)));
    entry.set("straight_fallbacks",
              obs::JsonValue::integer(static_cast<std::int64_t>(
                  snapshot.snap.straightFallbacks + fsSnapshot.snap.straightFallbacks)));
    entry.set("outcomes_bit_identical", obs::JsonValue::boolean(identical));
    programs.set(program.name, std::move(entry));
  }

  // The acceptance floor applies to the TEM campaigns: a fail-silent node
  // executes only ONE copy per sample, so the best any engine can do there
  // is skip the pre-injection prefix (~2x); the FS ratio is reported for
  // transparency but not gated.
  const double temRatio = snapshotTemCycles > 0 ? static_cast<double>(straightTemCycles) /
                                                      static_cast<double>(snapshotTemCycles)
                                                : 0.0;
  const double fsRatio = snapshotFsCycles > 0 ? static_cast<double>(straightFsCycles) /
                                                    static_cast<double>(snapshotFsCycles)
                                              : 0.0;
  const std::uint64_t copies = replayedCopies + executedCopies;
  const double resumeFraction =
      copies > 0 ? static_cast<double>(replayedCopies) / static_cast<double>(copies) : 0.0;
  const double straightPerSample =
      temSamples > 0 ? static_cast<double>(straightTemCycles) / static_cast<double>(temSamples)
                     : 0.0;
  const double snapshotPerSample =
      temSamples > 0 ? static_cast<double>(snapshotTemCycles) / static_cast<double>(temSamples)
                     : 0.0;
  const double wallRatio =
      snapshotTemSeconds > 0.0 ? straightTemSeconds / snapshotTemSeconds : 0.0;

  std::printf("\nTEM cycles per sample      straight %.1f vs snapshot %.1f  => %.2fx reduction "
              "(floor 3x)\n",
              straightPerSample, snapshotPerSample, temRatio);
  std::printf("TEM wall time              straight %.3fs vs snapshot %.3fs  => %.2fx (not gated)\n",
              straightTemSeconds, snapshotTemSeconds, wallRatio);
  if (directionsDisagree(temRatio, wallRatio)) {
    std::printf("WARNING: TEM cycle ratio %.2fx and wall ratio %.2fx point in different "
                "directions\n",
                temRatio, wallRatio);
  }
  std::printf("FS cycles reduction        %.2fx (single-copy campaigns; not gated)\n", fsRatio);
  std::printf("resume fraction            %.1f%% of copies answered by replay, %llu forks\n",
              100.0 * resumeFraction, static_cast<unsigned long long>(resumePoints));
  std::printf("mode & thread equivalence  %s\n",
              equivalent ? "bit-identical" : "BROKEN (outcomes diverged)");
  std::printf("fork engagement            %s\n",
              engaged ? "every Auto campaign forked" : "BROKEN (Auto fell back to straight)");

  report.set("programs", std::move(programs));
  report.set("tem_straight_cycles",
             obs::JsonValue::integer(static_cast<std::int64_t>(straightTemCycles)));
  report.set("tem_snapshot_cycles",
             obs::JsonValue::integer(static_cast<std::int64_t>(snapshotTemCycles)));
  report.set("tem_straight_cycles_per_sample", obs::JsonValue::number(straightPerSample));
  report.set("tem_snapshot_cycles_per_sample", obs::JsonValue::number(snapshotPerSample));
  report.set("tem_cycles_ratio", obs::JsonValue::number(temRatio));
  report.set("straight_seconds", obs::JsonValue::number(straightTemSeconds));
  report.set("snapshot_seconds", obs::JsonValue::number(snapshotTemSeconds));
  report.set("wall_seconds_ratio", obs::JsonValue::number(wallRatio));
  report.set("fs_cycles_ratio", obs::JsonValue::number(fsRatio));
  report.set("resume_fraction", obs::JsonValue::number(resumeFraction));
  report.set("resume_points", obs::JsonValue::integer(static_cast<std::int64_t>(resumePoints)));
  report.set("outcomes_bit_identical", obs::JsonValue::boolean(equivalent));
  obs::writeRunReportFile(report, "BENCH_snapshot_speedup.json");
  std::printf("\nRun report written to BENCH_snapshot_speedup.json\n");

  if (!equivalent) {
    std::printf("FAIL: straight and snapshot outcome statistics diverged\n");
    return 1;
  }
  if (!engaged) {
    std::printf("FAIL: an Auto campaign served no fork or ran experiments straight\n");
    return 1;
  }
  if (temRatio < 3.0) {
    std::printf("FAIL: TEM cycles reduction %.2fx below the 3x acceptance floor\n", temRatio);
    return 1;
  }
  return 0;
}
