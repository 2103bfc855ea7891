// Shared helper for the parallel-scaling benches: time a workload at several
// thread counts and record the results in BENCH_parallel_scaling.json.
//
// The file holds one top-level JSON array; every bench run appends its
// entries with obs::appendToJsonArrayFile, so running several benches — or
// the same bench repeatedly — accumulates a history:
//
//   [
//     {
//       "bench": "fig14_coverage_sweep",
//       "items": 120000,
//       "items_per_second": 28503.6,
//       "seconds": 4.21,
//       "speedup_vs_serial": 1,
//       "threads": 1,
//       "workload": "mc_sweep"
//     },
//     ...
//   ]
//
// "speedup_vs_serial" is relative to the threads=1 timing of the SAME bench
// invocation, so entries are self-contained. A file that is not a JSON array
// is refused with an exception (the bench exits non-zero) and left as it was.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_report.hpp"
#include "util/time.hpp"

namespace nlft::benchutil {

inline constexpr const char* kScalingReportPath = "BENCH_parallel_scaling.json";

struct ScalingEntry {
  std::string bench;
  std::string workload;
  unsigned threads = 1;
  std::size_t items = 0;
  double seconds = 0.0;
  double itemsPerSecond = 0.0;
  double speedupVsSerial = 1.0;
};

/// Wall-clock seconds for one invocation of `fn` (util::MonotonicStopwatch
/// is the repository's single fenced gateway to the wall clock — see
/// tools/determinism_lint.sh).
inline double timeSeconds(const std::function<void()>& fn) {
  const util::MonotonicStopwatch clock;
  fn();
  return clock.elapsedSeconds();
}

/// Thread counts every scaling bench measures. Always includes the serial
/// baseline and 8 threads (the acceptance target), whatever the host has.
inline std::vector<unsigned> scalingThreadCounts() { return {1u, 2u, 4u, 8u}; }

inline obs::JsonValue toJson(const ScalingEntry& entry) {
  obs::JsonValue json = obs::JsonValue::object();
  json.set("bench", obs::JsonValue::string(entry.bench));
  json.set("workload", obs::JsonValue::string(entry.workload));
  json.set("threads", obs::JsonValue::integer(entry.threads));
  json.set("items", obs::JsonValue::integer(static_cast<std::int64_t>(entry.items)));
  json.set("seconds", obs::JsonValue::number(entry.seconds));
  json.set("items_per_second", obs::JsonValue::number(entry.itemsPerSecond));
  json.set("speedup_vs_serial", obs::JsonValue::number(entry.speedupVsSerial));
  return json;
}

/// Appends entries to the shared report, creating the file if needed.
inline void appendScalingEntries(const std::vector<ScalingEntry>& entries,
                                 const std::string& path = kScalingReportPath) {
  for (const ScalingEntry& entry : entries) obs::appendToJsonArrayFile(toJson(entry), path);
}

/// Runs `workload(threads)` at every scaling thread count, prints a table and
/// returns the entries (serial first). `items` is the per-run trial count.
inline std::vector<ScalingEntry> measureScaling(
    const std::string& bench, const std::string& workload, std::size_t items,
    const std::function<void(unsigned threads)>& run) {
  std::vector<ScalingEntry> entries;
  std::printf("\nparallel scaling — %s (%zu items/run, host has %u hardware threads)\n",
              workload.c_str(), items, std::thread::hardware_concurrency());
  std::printf("%8s %10s %14s %10s\n", "threads", "seconds", "items/sec", "speedup");
  double serialSeconds = 0.0;
  for (unsigned threads : scalingThreadCounts()) {
    ScalingEntry entry;
    entry.bench = bench;
    entry.workload = workload;
    entry.threads = threads;
    entry.items = items;
    entry.seconds = timeSeconds([&] { run(threads); });
    if (threads == 1) serialSeconds = entry.seconds;
    entry.itemsPerSecond = entry.seconds > 0.0 ? static_cast<double>(items) / entry.seconds : 0.0;
    entry.speedupVsSerial = entry.seconds > 0.0 ? serialSeconds / entry.seconds : 0.0;
    std::printf("%8u %10.3f %14.0f %9.2fx\n", threads, entry.seconds, entry.itemsPerSecond,
                entry.speedupVsSerial);
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace nlft::benchutil
