// Unit tests of the fuzzer's building blocks: scenario canonicalisation and
// JSON round-trip, mutation legality, signature determinism, corpus novelty
// gating and the shrinker on synthetic predicates (no simulation involved —
// the sim-backed oracles are covered by fuzz_engine_test).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fuzz/corpus.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "util/rng.hpp"

namespace nlft::fuzz {
namespace {

TEST(FuzzScenario, ClampCanonicalisesOrderAndRanges) {
  Scenario scenario;
  scenario.params.initialSpeedMps = 500.0;  // out of range
  scenario.params.pedal = -1.0;
  scenario.params.restartTime = util::Duration{};
  bbw::Injection late;
  late.kind = bbw::InjectionKind::KernelError;
  late.node = 99;  // wraps into 1..6
  late.at = util::SimTime::fromUs(99'000'000);
  bbw::Injection early;
  early.kind = bbw::InjectionKind::BusCorruption;
  early.node = 2;
  early.at = util::SimTime::fromUs(1);  // below kMinEventUs
  early.flipBits = {1000, 3, 3000};  // out of bit space, unsorted
  scenario.events = {late, early};

  clampScenario(scenario);
  EXPECT_EQ(scenario.params.initialSpeedMps, kMaxSpeedMps);
  EXPECT_EQ(scenario.params.pedal, kMinPedal);
  EXPECT_EQ(scenario.params.restartTime.us(), kMinRestartUs);
  ASSERT_EQ(scenario.events.size(), 2u);
  // Canonical order is by time: the clamped "early" event comes first.
  EXPECT_EQ(scenario.events[0].kind, bbw::InjectionKind::BusCorruption);
  EXPECT_EQ(scenario.events[0].at.us(), kMinEventUs);
  for (const std::uint32_t bit : scenario.events[0].flipBits) {
    EXPECT_LT(bit, kFlipBitSpace);
  }
  EXPECT_TRUE(std::is_sorted(scenario.events[0].flipBits.begin(),
                             scenario.events[0].flipBits.end()));
  EXPECT_EQ(scenario.events[1].at.us(), kMaxEventUs);
  EXPECT_GE(scenario.events[1].node, 1u);
  EXPECT_LE(scenario.events[1].node, kNodeCount);
  // Non-bus events carry no flip bits.
  EXPECT_TRUE(scenario.events[1].flipBits.empty());
  EXPECT_TRUE(isLegalScenario(scenario));
}

TEST(FuzzScenario, JsonRoundTripIsExact) {
  util::Rng rng{42};
  for (int i = 0; i < 200; ++i) {
    const Scenario scenario = randomScenario(rng);
    const Scenario back = scenarioFromJson(scenarioToJson(scenario));
    EXPECT_EQ(scenario, back);
    // And the encoding itself is deterministic.
    EXPECT_EQ(scenarioToJson(scenario).dump(), scenarioToJson(back).dump());
  }
}

TEST(FuzzScenario, FromJsonRejectsIllegalAndMalformed) {
  EXPECT_THROW((void)scenarioFromJson(obs::parseJson("{}")), std::runtime_error);
  EXPECT_THROW((void)scenarioFromJson(obs::parseJson(
                   R"({"params":{"node_type":"magic","initial_speed_mps":20,)"
                   R"("pedal":1,"restart_time_us":2000000},"events":[]})")),
               std::runtime_error);
  // Legal JSON but out-of-range speed: rejected, not silently clamped.
  EXPECT_THROW((void)scenarioFromJson(obs::parseJson(
                   R"({"params":{"node_type":"nlft","initial_speed_mps":900,)"
                   R"("pedal":1,"restart_time_us":2000000},"events":[]})")),
               std::runtime_error);
  EXPECT_THROW((void)bbw::parseInjectionKind("definitely-not-a-kind"), std::invalid_argument);
}

TEST(FuzzScenario, FromJsonRefusesNumbersThatWouldNarrow) {
  // One legal event, with the field under test spliced in. Narrowed, each
  // would load as a different legal value (node 1, at_us 500000), and 1e300
  // would be an undefined double-to-integer conversion.
  const auto caseWith = [](const std::string& event) {
    return obs::parseJson(R"({"params":{"node_type":"nlft","initial_speed_mps":20,)"
                          R"("pedal":1,"restart_time_us":2000000},"events":[{)" +
                          event + "}]}");
  };
  ASSERT_NO_THROW((void)scenarioFromJson(
      caseWith(R"("kind":"bus-corruption","node":1,"at_us":500000,"flip_bits":[1])")));
  for (const std::string event : {
           R"("kind":"value-failure","node":4294967297,"at_us":500000)",
           R"("kind":"value-failure","node":1.9,"at_us":500000)",
           R"("kind":"value-failure","node":1,"at_us":500000.7)",
           R"("kind":"value-failure","node":1,"at_us":1e300)",
           R"("kind":"bus-corruption","node":1,"at_us":500000,"flip_bits":[4294967297])",
       }) {
    EXPECT_THROW((void)scenarioFromJson(caseWith(event)), std::exception) << event;
  }
  // The JSON accessor names the value it refuses.
  try {
    (void)obs::parseJson("1e300").asInt();
    ADD_FAILURE() << "1e300 converted";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string{error.what()}.find("not a whole number"), std::string::npos);
  }
  EXPECT_EQ(obs::parseJson("-4.0e3").asInt(), -4000);
}

TEST(FuzzMutate, MutantsAreAlwaysLegalAndUsuallyDifferent) {
  util::Rng rng{7};
  std::size_t changed = 0;
  const Scenario base = randomScenario(rng);
  const Scenario donor = randomScenario(rng);
  for (int i = 0; i < 500; ++i) {
    const Scenario mutant = mutateScenario(rng, base, &donor);
    EXPECT_TRUE(isLegalScenario(mutant));
    if (!(mutant == base)) ++changed;
  }
  // Some operators no-op on some draws (e.g. deleting from a short
  // schedule), but the vast majority of mutants must differ.
  EXPECT_GT(changed, 400u);
}

TEST(FuzzMutate, DeterministicForFixedSeed) {
  util::Rng a{99};
  util::Rng b{99};
  const Scenario base = randomScenario(a);
  const Scenario baseB = randomScenario(b);
  ASSERT_EQ(base, baseB);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(mutateScenario(a, base), mutateScenario(b, baseB));
  }
}

TEST(FuzzSignature, CanonicalFormIsStableAndKeyed) {
  ScenarioSignature sig;
  sig.outcome = "masked";
  sig.nodeType = "nlft";
  sig.stopped = true;
  sig.distanceBucket = 1;
  sig.eventKindBuckets[2] = 2;
  const std::string canonical = sig.canonical();
  EXPECT_EQ(canonical, "masked|nlft|stopped|d1|o0|b0|down0|-|-|-|ev002000");
  EXPECT_EQ(sig.key(), sig.key());
  ScenarioSignature other = sig;
  other.masking = true;
  EXPECT_NE(other.canonical(), canonical);
  EXPECT_NE(other.key(), sig.key());
}

TEST(FuzzCorpus, NoveltyMapAdmitsEachSignatureOnce) {
  Corpus corpus;
  CorpusEntry entry;
  entry.signature = "masked|nlft|stopped";
  entry.key = 17;
  EXPECT_TRUE(corpus.addIfNovel(entry));
  EXPECT_FALSE(corpus.addIfNovel(entry));
  entry.key = 18;
  EXPECT_TRUE(corpus.addIfNovel(entry));
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_TRUE(corpus.seen(17));
  EXPECT_FALSE(corpus.seen(99));
}

TEST(FuzzCorpus, EntryJsonRoundTripKeepsExpectations) {
  util::Rng rng{5};
  CorpusEntry entry;
  entry.scenario = randomScenario(rng);
  entry.outcome = "omission-degradation";
  entry.signature = "omission-degradation|nlft|stopped|d1|o1|b0|down0|-|-|-|ev100000";
  entry.expectedViolations = {"diff.e2e-bound"};
  const CorpusEntry back = corpusEntryFromJson(corpusEntryToJson(entry));
  EXPECT_EQ(back.scenario, entry.scenario);
  EXPECT_EQ(back.outcome, entry.outcome);
  EXPECT_EQ(back.signature, entry.signature);
  EXPECT_EQ(back.expectedViolations, entry.expectedViolations);
  EXPECT_NE(back.key, 0u);  // recomputed from the signature
  EXPECT_THROW((void)corpusEntryFromJson(obs::parseJson(R"({"format":"v999"})")),
               std::runtime_error);
}

TEST(FuzzShrink, DeletesEveryIrrelevantEvent) {
  // Predicate: "fails" iff the schedule contains a kernel error on node 1.
  const auto stillFails = [](const Scenario& scenario) {
    for (const bbw::Injection& event : scenario.events) {
      if (event.kind == bbw::InjectionKind::KernelError && event.node == 1) return true;
    }
    return false;
  };

  util::Rng rng{11};
  Scenario noisy = randomScenario(rng);
  noisy.events.clear();
  for (int i = 0; i < 7; ++i) {
    bbw::Injection filler;
    filler.kind = bbw::InjectionKind::OmissionFailure;
    filler.node = static_cast<net::NodeId>(2 + (i % 5));
    filler.at = util::SimTime::fromUs(200'000 + 100'000 * i);
    noisy.events.push_back(filler);
  }
  bbw::Injection culprit;
  culprit.kind = bbw::InjectionKind::KernelError;
  culprit.node = 1;
  culprit.at = util::SimTime::fromUs(700'000);
  noisy.events.push_back(culprit);
  clampScenario(noisy);
  ASSERT_TRUE(stillFails(noisy));

  const ShrinkResult result = shrinkScenario(noisy, stillFails);
  ASSERT_EQ(result.scenario.events.size(), 1u);
  EXPECT_EQ(result.scenario.events[0].kind, bbw::InjectionKind::KernelError);
  EXPECT_EQ(result.scenario.events[0].node, 1u);
  EXPECT_EQ(result.removedEvents, 7u);
  // Parameter bisection pulled the deployment back to the defaults and time
  // bisection normalised the injection instant (neither affects this
  // predicate, so both collapse fully).
  EXPECT_EQ(result.scenario.params, bbw::BbwSimConfig{});
  EXPECT_EQ(result.scenario.events[0].at.us(), kMinEventUs);
}

TEST(FuzzShrink, ReturnsSeedWhenPredicateDoesNotFail) {
  util::Rng rng{3};
  const Scenario seed = randomScenario(rng);
  const ShrinkResult result =
      shrinkScenario(seed, [](const Scenario&) { return false; });
  EXPECT_EQ(result.scenario, seed);
  EXPECT_EQ(result.evaluations, 1u);
}

TEST(FuzzShrink, RespectsEvaluationBudget) {
  util::Rng rng{13};
  Scenario big = randomScenario(rng);
  while (big.events.size() < 8) {
    bbw::Injection extra;
    extra.kind = bbw::InjectionKind::DetectedError;
    extra.node = 3;
    extra.at = util::SimTime::fromUs(
        500'000 + static_cast<std::int64_t>(big.events.size()) * 100'000);
    big.events.push_back(extra);
  }
  clampScenario(big);
  std::size_t calls = 0;
  const ShrinkResult result = shrinkScenario(
      big,
      [&calls](const Scenario&) {
        ++calls;
        return true;  // everything "fails": worst case for the search
      },
      25);
  EXPECT_LE(result.evaluations, 26u);  // budget + the initial probe
  EXPECT_LE(calls, 26u);
}

}  // namespace
}  // namespace nlft::fuzz
