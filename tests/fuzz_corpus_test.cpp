// Regression-corpus replay (ctest label "fuzz").
//
// Every checked-in case under tests/corpus/ is re-executed and must
// reproduce exactly what it pinned when it was minted: the outcome class,
// the behaviour signature, and the oracle verdicts (for the corpus seeds:
// no violations at all). A simulator change that shifts any behaviour class
// shows up here as a readable diff of one small JSON case — not as silent
// drift of campaign statistics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"

namespace nlft::fuzz {
namespace {

std::vector<CorpusEntry> checkedInCorpus() { return loadCorpusDir(NLFT_FUZZ_CORPUS_DIR); }

TEST(FuzzCorpus, CorpusIsNonEmptyAndWellFormed) {
  const std::vector<CorpusEntry> corpus = checkedInCorpus();
  ASSERT_GE(corpus.size(), 6u);
  for (const CorpusEntry& entry : corpus) {
    EXPECT_TRUE(isLegalScenario(entry.scenario)) << entry.signature;
    EXPECT_FALSE(entry.outcome.empty());
    EXPECT_FALSE(entry.signature.empty());
  }
}

TEST(FuzzCorpus, EveryCaseReserialisesByteForByte) {
  // Loading a case and writing it back (what saveCorpusEntry writes) gives
  // the checked-in file, under the name corpusFileName derives.
  for (const auto& file : std::filesystem::directory_iterator(NLFT_FUZZ_CORPUS_DIR)) {
    if (file.path().extension() != ".json") continue;
    SCOPED_TRACE(file.path().string());
    std::ifstream in{file.path()};
    std::ostringstream text;
    text << in.rdbuf();
    const CorpusEntry entry = loadCorpusEntry(file.path().string());
    EXPECT_EQ(corpusEntryToJson(entry).dump(2) + "\n", text.str());
    EXPECT_EQ(corpusFileName(entry), file.path().filename().string());
  }
}

TEST(FuzzCorpus, EveryCaseReplaysToItsPinnedBehaviour) {
  const FuzzConfig config;  // default oracles: the real verifier bounds
  for (const CorpusEntry& entry : checkedInCorpus()) {
    const ScenarioVerdict verdict = replayCase(entry, config);
    ASSERT_TRUE(verdict.valid) << entry.signature;
    EXPECT_EQ(fi::describe(verdict.outcome), entry.outcome) << entry.signature;
    EXPECT_EQ(verdict.signature.canonical(), entry.signature);

    // Oracle verdicts must match the expectation list exactly.
    std::vector<std::string> fired;
    for (const OracleViolation& violation : verdict.violations) {
      fired.push_back(violation.oracle);
    }
    EXPECT_EQ(fired, entry.expectedViolations) << entry.signature;
  }
}

TEST(FuzzCorpus, CorpusCoversSeveralBehaviourClasses) {
  std::vector<std::string> outcomes;
  for (const CorpusEntry& entry : checkedInCorpus()) {
    if (std::find(outcomes.begin(), outcomes.end(), entry.outcome) == outcomes.end()) {
      outcomes.push_back(entry.outcome);
    }
  }
  // At least masked + both degradation classes; the corpus is built to hold
  // one representative per discovered signature, not near-duplicates.
  EXPECT_GE(outcomes.size(), 3u);
}

}  // namespace
}  // namespace nlft::fuzz
