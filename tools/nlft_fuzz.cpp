// nlft-fuzz: coverage-guided scenario fuzzing of the brake-by-wire system
// (src/fuzz, docs/FUZZING.md).
//
// Modes:
//   nlft-fuzz --budget N --seed S [--threads T] [--chunk C] [--out DIR]
//       run the search for N scenario executions; prints the deterministic
//       JSON report (byte-identical for fixed seed/budget/chunk at ANY
//       thread count — tools/determinism_lint.sh enforces the double-run,
//       tests pin the cross-thread-count identity). With --out, novel
//       corpus entries and minimized violations are written as case files.
//   nlft-fuzz --replay case.json [case2.json ...]
//       re-evaluate checked-in cases; fails when an oracle fires that the
//       case does not expect, or the pinned outcome/signature drifted.
//   nlft-fuzz --replay case.json --shrink
//       shrink the replayed case against its first violated oracle and
//       print the minimized scenario.
//   nlft-fuzz --fingerprint case.json
//       print the case's metrics fingerprint from one straight run;
//       tools/determinism_lint.sh byte-compares two processes' output.
//
// Exit status: 0 clean, 1 oracle violation / replay mismatch, 2 usage.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bbw/system_sim.hpp"
#include "flag_parse.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/shrink.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace nlft;

int usage() {
  std::fputs(
      "usage: nlft-fuzz [--budget N] [--seed S] [--threads T] [--chunk C] [--out DIR]\n"
      "       nlft-fuzz --replay case.json [...] [--shrink]\n"
      "       nlft-fuzz --fingerprint case.json\n"
      "  N >= 1; S, T, C >= 0, in decimal digits; T = 0: all cores, C = 0: auto\n",
      stderr);
  return 2;
}

/// One straight run of a corpus case, reduced to its metrics fingerprint.
int fingerprint(const std::string& file) {
  const fuzz::Scenario scenario = fuzz::loadCorpusEntry(file).scenario;
  obs::Registry metrics;
  bbw::BbwSystemSim sim{scenario.params};
  sim.setMetricsRegistry(&metrics);
  for (const bbw::Injection& event : scenario.events) sim.inject(event);
  (void)sim.run();
  std::fprintf(stdout, "%s\n", metrics.goldenFingerprint().c_str());
  return 0;
}

int replay(const std::vector<std::string>& files, bool shrink, const fuzz::FuzzConfig& config) {
  bool allGood = true;
  for (const std::string& file : files) {
    const fuzz::CorpusEntry entry = fuzz::loadCorpusEntry(file);
    const fuzz::ScenarioVerdict verdict = fuzz::replayCase(entry, config);

    obs::JsonValue result = obs::JsonValue::object();
    result.set("case", obs::JsonValue::string(file));
    result.set("valid", obs::JsonValue::boolean(verdict.valid));
    result.set("outcome", obs::JsonValue::string(fi::describe(verdict.outcome)));
    result.set("signature", obs::JsonValue::string(verdict.signature.canonical()));
    obs::JsonValue violations = obs::JsonValue::array();
    for (const fuzz::OracleViolation& violation : verdict.violations) {
      obs::JsonValue v = obs::JsonValue::object();
      v.set("oracle", obs::JsonValue::string(violation.oracle));
      v.set("message", obs::JsonValue::string(violation.message));
      violations.push(std::move(v));
    }
    result.set("violations", std::move(violations));

    bool good = verdict.valid;
    // Every fired oracle must be expected; every expected oracle must fire.
    for (const fuzz::OracleViolation& violation : verdict.violations) {
      bool expected = false;
      for (const std::string& oracle : entry.expectedViolations) {
        expected = expected || oracle == violation.oracle;
      }
      good = good && expected;
    }
    for (const std::string& oracle : entry.expectedViolations) {
      bool fired = false;
      for (const fuzz::OracleViolation& violation : verdict.violations) {
        fired = fired || violation.oracle == oracle;
      }
      good = good && fired;
    }
    if (!entry.outcome.empty()) good = good && entry.outcome == fi::describe(verdict.outcome);
    if (!entry.signature.empty()) good = good && entry.signature == verdict.signature.canonical();
    result.set("pass", obs::JsonValue::boolean(good));
    allGood = allGood && good;

    if (shrink && !verdict.violations.empty()) {
      fuzz::GoldenCache goldenCache;
      const fuzz::ShrinkResult minimized = fuzz::shrinkScenario(
          entry.scenario,
          fuzz::violatesOracle(verdict.violations.front().oracle,
                               fuzz::resolveOracleConfig(config.oracle), &goldenCache));
      obs::JsonValue s = obs::JsonValue::object();
      s.set("oracle", obs::JsonValue::string(verdict.violations.front().oracle));
      s.set("scenario", fuzz::scenarioToJson(minimized.scenario));
      s.set("events_removed",
            obs::JsonValue::integer(static_cast<std::int64_t>(minimized.removedEvents)));
      result.set("shrunk", std::move(s));
    }
    std::fputs(result.dump(2).c_str(), stdout);
    std::fputs("\n", stdout);
  }
  return allGood ? 0 : 1;
}

int run(int argc, char** argv) {
  fuzz::FuzzConfig config;
  std::vector<std::string> replayFiles;
  std::string outDir;
  std::string fingerprintFile;
  bool shrink = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--budget") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.budget = cli::parseFlag<std::size_t>(arg, v, 1);
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.seed = cli::parseFlag<std::uint64_t>(arg, v);
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.parallelism.threads = cli::parseFlag<unsigned>(arg, v);
    } else if (arg == "--chunk") {
      const char* v = value();
      if (v == nullptr) return usage();
      config.parallelism.chunkSize = cli::parseFlag<std::size_t>(arg, v);
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return usage();
      outDir = v;
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return usage();
      replayFiles.emplace_back(v);
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--fingerprint") {
      const char* v = value();
      if (v == nullptr) return usage();
      fingerprintFile = v;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (!replayFiles.empty()) {
      replayFiles.emplace_back(arg);  // additional case files after --replay
    } else {
      return usage();
    }
  }

  if (!fingerprintFile.empty()) return fingerprint(fingerprintFile);
  if (!replayFiles.empty()) return replay(replayFiles, shrink, config);

  const fuzz::FuzzReport report = fuzz::runFuzzer(config);
  std::fputs(report.toJson().dump(2).c_str(), stdout);
  std::fputs("\n", stdout);

  if (!outDir.empty()) {
    for (const fuzz::CorpusEntry& entry : report.corpus.entries()) {
      fuzz::saveCorpusEntry(entry, outDir + "/" + fuzz::corpusFileName(entry));
    }
    for (const fuzz::FuzzViolation& violation : report.violations) {
      fuzz::ScenarioVerdict verdict = fuzz::replayCase(
          fuzz::CorpusEntry{violation.shrunk, "", "", 0, {}}, config);
      fuzz::CorpusEntry repro = fuzz::makeCorpusEntry(violation.shrunk, verdict);
      repro.expectedViolations.push_back(violation.oracle);
      fuzz::saveCorpusEntry(repro, outDir + "/repro-" + fuzz::corpusFileName(repro));
    }
  }
  return report.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nlft-fuzz: %s\n", error.what());
    return 2;
  }
}
