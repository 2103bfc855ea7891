#include "faults/campaign.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace nlft::fi {
namespace {

// A small control-style task: reads four inputs, runs an iterative loop and
// writes two outputs. Long enough (~100 instructions) that faults can strike
// many distinct program points.
constexpr const char* kTaskSource = R"(
      ldi r1, 0x800        ; input base
      ld  r2, [r1+0]
      ld  r3, [r1+4]
      ld  r4, [r1+8]
      ld  r5, [r1+12]
      ldi r6, 0            ; acc
      ldi r7, 0            ; i
    loop:
      add r6, r6, r2
      add r6, r6, r3
      addi r7, r7, 1
      cmp r7, r4
      blt loop
      mul r8, r2, r3
      cmpi r8, 1000
      blt noclamp
      ldi r8, 1000
    noclamp:
      add r9, r6, r5
      ldi r10, 0xC00       ; output base
      st  r9, [r10+0]
      st  r8, [r10+4]
      halt
)";

TaskImage makeImage() {
  TaskImage image;
  image.program = hw::assemble(kTaskSource);
  image.entry = 0;
  image.stackTop = 0x4000;
  image.inputBase = 0x800;
  image.input = {7, 11, 20, 3};  // a, b, iterations, offset
  image.outputBase = 0xC00;
  image.outputWords = 2;
  image.memBytes = 64 * 1024;
  // Execution-time monitor: ~1.2x the golden cost (~115 instructions), as a
  // realistic budget timer would be configured. A runaway copy is killed
  // quickly enough that the reserved slack still fits two clean copies.
  image.maxInstructionsPerCopy = 140;
  return image;
}

TEST(GoldenRun, DeterministicAndCorrect) {
  const TaskImage image = makeImage();
  const CopyRun golden = goldenRun(image);
  EXPECT_EQ(golden.end, CopyRun::End::Output);
  // acc = 20 * (7 + 11) = 360; + offset 3 = 363. product 77 < 1000.
  EXPECT_EQ(golden.output, (std::vector<std::uint32_t>{363, 77}));
  EXPECT_GT(golden.instructions, 80u);
  EXPECT_EQ(goldenRun(image).instructions, golden.instructions);
}

TEST(TemExperiment, DataRegisterFlipIsMaskedByVote) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  fault.location = RegisterBitFlip{6, 4};  // accumulator mid-computation
  fault.afterInstructions = 40;
  fault.targetCopy = 1;
  EXPECT_EQ(runTemExperiment(image, fault), TemOutcome::MaskedByVote);
}

TEST(TemExperiment, FaultInSecondCopyAlsoMasked) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  fault.location = RegisterBitFlip{6, 4};
  fault.afterInstructions = 40;
  fault.targetCopy = 2;
  EXPECT_EQ(runTemExperiment(image, fault), TemOutcome::MaskedByVote);
}

TEST(TemExperiment, UnusedRegisterFlipIsNotActivated) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  fault.location = RegisterBitFlip{12, 9};  // r12 never used by the task
  fault.afterInstructions = 30;
  fault.targetCopy = 1;
  EXPECT_EQ(runTemExperiment(image, fault), TemOutcome::NotActivated);
}

TEST(TemExperiment, PcCorruptionIsDetectedAndMaskedByRestart) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  fault.location = PcBitFlip{1};  // misaligned PC -> address error on fetch
  fault.afterInstructions = 25;
  fault.targetCopy = 1;
  EXPECT_EQ(runTemExperiment(image, fault), TemOutcome::MaskedByRestart);
}

TEST(TemExperiment, SingleTextMemoryFlipIsCorrectedByEcc) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  // Flip one codeword bit of an instruction inside the loop: the next fetch
  // corrects it (SEC-DED) and execution stays clean.
  fault.location = MemoryBitFlip{7 * 4, 12};  // "add r6, r6, r2"
  fault.afterInstructions = 30;
  fault.targetCopy = 1;
  EXPECT_EQ(runTemExperiment(image, fault), TemOutcome::MaskedByEcc);
}

TEST(TemExperiment, DoubleTextMemoryFlipEndsInOmission) {
  const TaskImage image = makeImage();
  // An uncorrectable upset in program text persists across ALL copies (the
  // text is never rewritten): every copy takes a bus error, so the job ends
  // in an omission and the node-level monitor would flag a permanent fault.
  FaultSpec fault;
  fault.location = MemoryBitFlip{7 * 4, 12};
  fault.afterInstructions = 30;
  fault.targetCopy = -1;  // double-flip marker
  EXPECT_EQ(runTemExperiment(image, fault), TemOutcome::OmissionNoBudget);
}

TEST(TemExperiment, StackPointerFlipDetected) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  fault.location = RegisterBitFlip{hw::kStackPointer, 31};  // SP into nowhere
  fault.afterInstructions = 10;
  fault.targetCopy = 1;
  // This task uses no stack, so the fault may be latent; a task with calls
  // would trap. Accept either NotActivated or a masked/detected outcome, but
  // never an undetected wrong output.
  const TemOutcome outcome = runTemExperiment(image, fault);
  EXPECT_NE(outcome, TemOutcome::UndetectedWrongOutput);
}

TEST(FsExperiment, DataFaultCanEscapeUndetectedOnFsNode) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  fault.location = RegisterBitFlip{6, 4};
  fault.afterInstructions = 40;
  // Single-copy node: the corrupted accumulator flows straight to the output.
  EXPECT_EQ(runFsExperiment(image, fault), FsOutcome::UndetectedWrongOutput);
}

TEST(FsExperiment, PcFaultMakesFsNodeFailSilent) {
  const TaskImage image = makeImage();
  FaultSpec fault;
  fault.location = PcBitFlip{1};
  fault.afterInstructions = 25;
  EXPECT_EQ(runFsExperiment(image, fault), FsOutcome::FailSilent);
}

TEST(TemCampaign, CountsAreConsistentAndReproducible) {
  const TaskImage image = makeImage();
  CampaignConfig config;
  config.experiments = 400;
  config.seed = 99;
  const TemCampaignStats a = runTemCampaign(image, config);
  const TemCampaignStats b = runTemCampaign(image, config);
  EXPECT_EQ(a.maskedByVote, b.maskedByVote);
  EXPECT_EQ(a.undetected, b.undetected);
  EXPECT_EQ(a.notActivated + a.maskedByEcc + a.maskedByVote + a.maskedByRestart +
                a.omissionVoteFailed + a.omissionNoBudget + a.undetected,
            a.experiments);
}

TEST(TemCampaign, MasksTheLargeMajorityOfActivatedFaults) {
  const TaskImage image = makeImage();
  CampaignConfig config;
  config.experiments = 1500;
  config.seed = 7;
  const TemCampaignStats stats = runTemCampaign(image, config);
  ASSERT_GT(stats.activated(), 100u);
  // The paper assumes P_T = 0.9 and P_OM = 0.05 from its fault-injection
  // study [7]; our ISA-level campaign lands in the same regime (~0.92/0.08).
  EXPECT_GT(stats.pMask().proportion, 0.85);
  EXPECT_LT(stats.pOmission().proportion, 0.15);
  EXPECT_GT(stats.coverage().proportion, 0.98);
}

TEST(TemCampaign, OutperformsFailSilentCoverage) {
  const TaskImage image = makeImage();
  CampaignConfig config;
  config.experiments = 1500;
  config.seed = 7;
  const TemCampaignStats temStats = runTemCampaign(image, config);
  const FsCampaignStats fsStats = runFsCampaign(image, config);
  ASSERT_GT(fsStats.activated(), 100u);
  // An FS node silently delivers wrong outputs for pure data faults; TEM
  // catches them by comparison. TEM's coverage must dominate.
  EXPECT_GT(fsStats.undetected, 0u);
  EXPECT_GT(temStats.coverage().proportion, fsStats.coverage().proportion);
}

TEST(FsCampaign, CountsConsistent) {
  const TaskImage image = makeImage();
  CampaignConfig config;
  config.experiments = 300;
  config.seed = 17;
  const FsCampaignStats stats = runFsCampaign(image, config);
  EXPECT_EQ(stats.notActivated + stats.maskedByEcc + stats.failSilent + stats.undetected,
            stats.experiments);
}

TEST(Inject, DescribeProducesReadableText) {
  EXPECT_EQ(describe(RegisterBitFlip{3, 17}), "reg r3 bit 17");
  EXPECT_EQ(describe(PcBitFlip{4}), "pc bit 4");
  EXPECT_EQ(describe(MemoryBitFlip{0x100, 38}), "mem 0x100 bit 38");
  EXPECT_EQ(describe(FetchBitFlip{31}), "fetch bit 31");
}

// MMU confinement installs the image's own regions, which the static
// analyzer derives for every shipped image (analysis::applyDerivedConfig).
// An image that enables the MMU without any is refused, naming the field,
// before a machine runs.
TEST(GoldenRun, RefusesMmuWithoutRegions) {
  TaskImage image = makeImage();
  image.enableMmu = true;
  try {
    (void)goldenRun(image);
    FAIL() << "an MMU-enabled image without regions was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("mmuRegions"), std::string::npos) << error.what();
  }
}

TEST(SampleFault, RespectsMixWeights) {
  const TaskImage image = makeImage();
  util::Rng rng{5};
  FaultMix registersOnly;
  registersOnly.registerWeight = 1.0;
  registersOnly.pcWeight = 0.0;
  registersOnly.memoryWeight = 0.0;
  registersOnly.fetchWeight = 0.0;
  for (int i = 0; i < 200; ++i) {
    const FaultSpec fault = sampleFault(image, 100, registersOnly, rng);
    EXPECT_TRUE(std::holds_alternative<RegisterBitFlip>(fault.location));
    EXPECT_LT(fault.afterInstructions, 100u);
    EXPECT_GE(std::abs(fault.targetCopy), 1);
    EXPECT_LE(std::abs(fault.targetCopy), 2);
  }
}

}  // namespace
}  // namespace nlft::fi
