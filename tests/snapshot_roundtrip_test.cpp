// Property tests for the versioned snapshot state format (ctest label
// "snapshot"; docs/SNAPSHOT.md).
//
// Pins the contract of hw::Machine::saveState/restoreState and the
// BbwSystemSim replay checkpoints:
//   - save -> restore -> save is byte-identical for randomized states;
//   - truncated or bit-flipped blobs are rejected by the per-section CRC
//     with a diagnostic NAMING the damaged section;
//   - a blob with a bumped format version fails loudly instead of being
//     misparsed;
//   - a blob of the wrong KIND (machine vs system) is refused;
//   - an element count larger than its section can hold is refused with a
//     BlobError before anything is allocated for it, and so is an
//     exec-section fetch-corruption bit that step() would shift by;
//   - fi::behaviorDigest, which skips words clear in the dirty bitmap and
//     bitmap words clear in its summary, equals a digest that hashes every
//     codeword;
//   - fi::runTracedCopy verifies the reconstructed machine against the
//     campaign baseline snapshot and throws on drift (regression for the
//     silent-drift hazard).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bbw/guest_programs.hpp"
#include "bbw/system_sim.hpp"
#include "faults/campaign.hpp"
#include "faults/snapshot_exec.hpp"
#include "hw/machine.hpp"
#include "snap/blob.hpp"
#include "util/rng.hpp"
#include "util/state_hash.hpp"

namespace nlft {
namespace {

using bbw::BbwSimConfig;
using bbw::BbwSystemSim;

/// A machine in a randomized mid-execution state: the guest image loaded,
/// then advanced by a random number of instructions.
hw::Machine randomizedMachine(const fi::TaskImage& image, util::Rng& rng) {
  hw::Machine machine{image.memBytes};
  machine.restoreState(fi::machineBaselineSnapshot(image));
  (void)machine.run(rng.uniformInt(40));
  return machine;
}

TEST(SnapshotRoundtrip, MachineSaveRestoreSaveIsByteIdentical) {
  util::Rng rng{0x5eed5eedULL};
  for (const bbw::GuestProgram& program : bbw::guestPrograms()) {
    SCOPED_TRACE(program.name);
    const fi::TaskImage image = program.makeNominalImage();
    for (int round = 0; round < 8; ++round) {
      hw::Machine machine = randomizedMachine(image, rng);
      const std::vector<std::uint8_t> first = machine.saveState();

      hw::Machine restored{image.memBytes};
      restored.restoreState(first);
      EXPECT_EQ(first, restored.saveState());
      EXPECT_EQ(fi::behaviorDigest(machine), fi::behaviorDigest(restored));
    }
  }
}

TEST(SnapshotRoundtrip, RestoredMachineContinuesBitIdentically) {
  util::Rng rng{0xabcdefULL};
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  for (int round = 0; round < 4; ++round) {
    hw::Machine machine = randomizedMachine(image, rng);
    hw::Machine restored{image.memBytes};
    restored.restoreState(machine.saveState());
    (void)machine.run(10);
    (void)restored.run(10);
    EXPECT_EQ(machine.saveState(), restored.saveState());
  }
}

TEST(SnapshotRoundtrip, SystemSaveRestoreSaveIsByteIdentical) {
  util::Rng rng{0x5751e3ULL};
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    BbwSimConfig config;
    config.initialSpeedMps = 20.0 + rng.uniform(0.0, 15.0);
    config.pedal = 0.7 + rng.uniform(0.0, 0.3);

    BbwSystemSim producer{config};
    const net::NodeId node =
        static_cast<net::NodeId>(1 + rng.uniformInt(6));
    producer.injectComputationFault(node, util::SimTime::fromUs(400000));
    if (rng.bernoulli(0.5)) {
      producer.injectKernelError(bbw::kWheelNodeBase, util::SimTime::fromUs(700000));
    }
    // One injection of every kind (the bus corruption with explicit flip
    // bits) and an emergency press: the replay log round-trips every tag.
    for (std::size_t k = 0; k < bbw::kInjectionKindCount; ++k) {
      const auto kind = static_cast<bbw::InjectionKind>(k);
      std::vector<std::uint32_t> flipBits;
      if (kind == bbw::InjectionKind::BusCorruption) flipBits = {7, 133, 260};
      producer.inject({kind, static_cast<net::NodeId>(1 + k),
                       util::SimTime::fromUs(300000 + 50000 * static_cast<std::int64_t>(k)),
                       flipBits});
    }
    producer.pressEmergencyBrake(util::SimTime::fromUs(650000));
    producer.runUntil(util::SimTime::fromUs(
        static_cast<std::int64_t>(200000 + rng.uniformInt(2000000))));
    const std::vector<std::uint8_t> first = producer.saveState();

    BbwSystemSim restored{config};
    restored.restoreState(first);
    EXPECT_EQ(first, restored.saveState());
    EXPECT_EQ(producer.stateFingerprint(), restored.stateFingerprint());
  }
}

TEST(SnapshotRoundtrip, TruncatedMachineBlobIsRejected) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> blob = fi::machineBaselineSnapshot(image);
  // Every truncation point, from the empty blob to one byte short, must be
  // refused — never silently half-restored.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{7}, std::size_t{20}, blob.size() / 2,
        blob.size() - 1}) {
    SCOPED_TRACE(keep);
    const std::vector<std::uint8_t> truncated(blob.begin(),
                                              blob.begin() + static_cast<std::ptrdiff_t>(keep));
    hw::Machine machine{image.memBytes};
    EXPECT_THROW(machine.restoreState(truncated), snap::BlobError);
  }
}

TEST(SnapshotRoundtrip, BitFlippedMachineBlobNamesTheDamagedSection) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> blob = fi::machineBaselineSnapshot(image);
  // The first section of a machine blob is "cpu": a flip inside its payload
  // must produce a CRC diagnostic that names it.
  std::vector<std::uint8_t> corrupted = blob;
  corrupted[16] ^= 0x01;  // inside the "cpu" section payload
  hw::Machine machine{image.memBytes};
  try {
    machine.restoreState(corrupted);
    FAIL() << "corrupted blob was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("'cpu'"), std::string::npos) << error.what();
  }

  // A flip deep in the blob damages a later section — still caught, still
  // named (whichever section it lands in).
  corrupted = blob;
  corrupted[blob.size() / 2] ^= 0x80;
  try {
    machine.restoreState(corrupted);
    FAIL() << "corrupted blob was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("section"), std::string::npos) << error.what();
  }
}

TEST(SnapshotRoundtrip, BitFlippedSystemBlobNamesTheDamagedSection) {
  BbwSystemSim producer{BbwSimConfig{}};
  producer.runUntil(util::SimTime::fromUs(500000));
  const std::vector<std::uint8_t> blob = producer.saveState();
  std::vector<std::uint8_t> corrupted = blob;
  corrupted[10] ^= 0x04;  // inside the "config" section
  BbwSystemSim fresh{BbwSimConfig{}};
  try {
    fresh.restoreState(corrupted);
    FAIL() << "corrupted blob was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("'config'"), std::string::npos) << error.what();
  }
}

TEST(SnapshotRoundtrip, VersionBumpFailsLoudly) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  std::vector<std::uint8_t> blob = fi::machineBaselineSnapshot(image);
  // Header layout: u32 magic, u16 kind, u16 version (little-endian).
  blob[6] += 1;
  hw::Machine machine{image.memBytes};
  try {
    machine.restoreState(blob);
    FAIL() << "version-bumped blob was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("version"), std::string::npos) << error.what();
  }
}

TEST(SnapshotRoundtrip, WrongKindIsRefused) {
  // A machine blob restored into a system simulation (and vice versa) must
  // be refused by the kind field, not misparsed.
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> machineBlob = fi::machineBaselineSnapshot(image);
  BbwSystemSim fresh{BbwSimConfig{}};
  EXPECT_THROW(fresh.restoreState(machineBlob), snap::BlobError);

  BbwSystemSim producer{BbwSimConfig{}};
  producer.runUntil(util::SimTime::fromUs(200000));
  const std::vector<std::uint8_t> systemBlob = producer.saveState();
  hw::Machine machine{image.memBytes};
  EXPECT_THROW(machine.restoreState(systemBlob), snap::BlobError);
}

/// The element counts a snapshot blob declares before a list.
enum class CountSite { CpuRegisters, MemCodewords, MmuRegions };

/// A machine blob with valid section CRCs whose count at `site` claims
/// 0xFFFFFFFF elements; every other list is empty and the section ends right
/// after the hostile count.
std::vector<std::uint8_t> hostileMachineBlob(CountSite site) {
  constexpr std::uint32_t kHostile = 0xFFFFFFFFu;
  snap::BlobWriter w{snap::kMachineSnapshot, hw::kMachineStateVersion};
  w.beginSection("cpu");
  if (site == CountSite::CpuRegisters) {
    w.u32(kHostile);
  } else {
    w.u32Vec(hw::CpuState{}.regs);
    w.u32(0);
    w.boolean(false);
    w.boolean(false);
  }
  w.endSection();
  w.beginSection("mem");
  w.u32(site == CountSite::MemCodewords ? kHostile : 0);
  if (site != CountSite::MemCodewords) {
    w.u64(0);
    w.u64(0);
  }
  w.endSection();
  w.beginSection("mmu");
  w.boolean(false);
  w.u32(0);
  w.u64(0);
  w.u32(site == CountSite::MmuRegions ? kHostile : 0);
  w.endSection();
  w.beginSection("exec");
  w.boolean(false);
  w.u64(0);
  w.i64(-1);
  w.endSection();
  return w.finish();
}

void expectBlobErrorNaming(const std::function<void()>& restore, const std::string& section) {
  try {
    restore();
    FAIL() << "hostile element count was accepted";
  } catch (const snap::BlobError& error) {
    EXPECT_NE(std::string{error.what()}.find("'" + section + "'"), std::string::npos)
        << error.what();
  }
}

TEST(SnapshotRoundtrip, HostileElementCountsAreRefused) {
  const std::pair<CountSite, std::string> machineSites[] = {
      {CountSite::CpuRegisters, "cpu"},  // BlobReader::u32Vec
      {CountSite::MemCodewords, "mem"},  // BlobReader::u64Vec
      {CountSite::MmuRegions, "mmu"},
  };
  for (const auto& [site, section] : machineSites) {
    SCOPED_TRACE(section);
    const std::vector<std::uint8_t> blob = hostileMachineBlob(site);
    hw::Machine machine{1024};
    expectBlobErrorNaming([&] { machine.restoreState(blob); }, section);
  }

  snap::BlobWriter w{snap::kSystemSnapshot, bbw::kSystemStateVersion};
  w.beginSection("config");
  w.u64(0);
  w.endSection();
  w.beginSection("inject");
  w.u32(0xFFFFFFFFu);
  w.endSection();
  const std::vector<std::uint8_t> systemBlob = w.finish();
  BbwSystemSim fresh{BbwSimConfig{}};
  expectBlobErrorNaming([&] { fresh.restoreState(systemBlob); }, "inject");
}

/// A CRC-valid checkpoint of a default simulation whose schedule holds one
/// entry with the given tag and node at 1 ms, and whose clock is 200 ms.
std::vector<std::uint8_t> systemBlobWithInjection(std::uint16_t tag, std::uint32_t node) {
  const std::vector<std::uint8_t> clean = BbwSystemSim{BbwSimConfig{}}.saveState();
  snap::BlobReader reader{clean, snap::kSystemSnapshot, bbw::kSystemStateVersion};
  reader.openSection("config");
  const std::uint64_t configDigest = reader.u64();

  snap::BlobWriter w{snap::kSystemSnapshot, bbw::kSystemStateVersion};
  w.beginSection("config");
  w.u64(configDigest);
  w.endSection();
  w.beginSection("inject");
  w.u32(1);
  w.u16(tag);
  w.u32(node);
  w.i64(1000);
  w.u32Vec({});
  w.endSection();
  w.beginSection("clock");
  w.i64(200000);
  w.u64(~0ULL);  // processed-event target: the clock bounds the replay
  w.endSection();
  w.beginSection("fp");
  w.u64(0);
  w.endSection();
  return w.finish();
}

TEST(SnapshotRoundtrip, HostileInjectionsAreRefused) {
  const auto computation = static_cast<std::uint16_t>(bbw::InjectionKind::ComputationFault);
  // A node outside 1..6 is refused before anything is scheduled.
  for (const std::uint32_t node : {0u, 99u}) {
    SCOPED_TRACE(node);
    BbwSystemSim fresh{BbwSimConfig{}};
    try {
      fresh.restoreState(systemBlobWithInjection(computation, node));
      FAIL() << "injection on node " << node << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("node " + std::to_string(node)),
                std::string::npos)
          << error.what();
    }
  }
  // The same blob on a real node parses and replays; only the fingerprint
  // is wrong.
  try {
    BbwSystemSim fresh{BbwSimConfig{}};
    fresh.restoreState(systemBlobWithInjection(computation, bbw::kWheelNodeBase));
    FAIL() << "a zero fingerprint was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string{error.what()}.find("fingerprint"), std::string::npos) << error.what();
  }
  // An unknown kind is refused while the blob is parsed.
  BbwSystemSim fresh{BbwSimConfig{}};
  expectBlobErrorNaming([&] { fresh.restoreState(systemBlobWithInjection(77, bbw::kCuA)); },
                        "inject");
}

/// A CRC-valid machine blob of 256 zero words whose exec section carries
/// `fetchBit`.
std::vector<std::uint8_t> execValuesBlob(std::int64_t fetchBit) {
  snap::BlobWriter w{snap::kMachineSnapshot, hw::kMachineStateVersion};
  w.beginSection("cpu");
  w.u32Vec(hw::CpuState{}.regs);
  w.u32(0);
  w.boolean(false);
  w.boolean(false);
  w.endSection();
  w.beginSection("mem");
  w.u64Vec(std::vector<std::uint64_t>(256, 0));
  w.u64(0);
  w.u64(0);
  w.endSection();
  w.beginSection("mmu");
  w.boolean(false);
  w.u32(0);
  w.u64(0);
  w.u32(0);
  w.endSection();
  w.beginSection("exec");
  w.boolean(false);
  w.u64(0);
  w.i64(fetchBit);
  w.endSection();
  return w.finish();
}

TEST(SnapshotRoundtrip, HostileExecValuesAreRefused) {
  // The extremes the setter can produce restore and execute.
  for (const std::int64_t fetchBit : {-1, 31}) {
    hw::Machine machine{1024};
    machine.restoreState(execValuesBlob(fetchBit));
    (void)machine.step();
  }
  // Values step() would shift by: refused before the machine changes,
  // naming the section.
  for (const std::int64_t fetchBit : {40, -2}) {  // past the word; below "none armed"
    SCOPED_TRACE(fetchBit);
    hw::Machine machine{1024};
    const std::vector<std::uint8_t> before = machine.saveState();
    expectBlobErrorNaming([&] { machine.restoreState(execValuesBlob(fetchBit)); }, "exec");
    EXPECT_EQ(machine.saveState(), before);
  }
}

TEST(SnapshotRoundtrip, StateHashZerosEqualsZeroLanes) {
  util::Rng rng{0x2e505ULL};
  const std::vector<std::uint64_t> counts = {0, 1, 2, 3, 63, 64, 65, 1000, 16384,
                                             rng.uniformInt(100000)};
  for (const std::uint64_t count : counts) {
    util::StateHash skipped;
    skipped.u64(rng.next());
    util::StateHash walked = skipped;
    skipped.zeros(count);
    for (std::uint64_t i = 0; i < count; ++i) walked.u64(0);
    EXPECT_EQ(skipped.hash, walked.hash) << count;
  }
}

/// fi::behaviorDigest's reference: the same lanes, with every codeword
/// hashed one by one instead of skipping the clean words.
std::uint64_t fullWalkDigest(const hw::Machine& machine) {
  util::StateHash digest;
  const hw::CpuState& cpu = machine.cpu();
  for (const std::uint32_t reg : cpu.regs) digest.u64(reg);
  digest.u64(cpu.pc);
  digest.u64((cpu.flagZero ? 1u : 0u) | (cpu.flagNegative ? 2u : 0u) |
             (machine.halted() ? 4u : 0u));
  digest.u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(machine.armedFetchCorruptionBit())));
  for (const std::uint64_t codeword : machine.memory().rawCodewords()) digest.u64(codeword);
  return digest.finish();
}

/// The checked wheel guest run to its end after a fault in two stack-pointer
/// bits (0x4000 -> 0xE000): its subroutine call pushes into the top quarter
/// of memory. Only such a wild store, which campaigns make, dirties a guest
/// word past 4 096 and so a summary word past the first.
hw::Machine wildStoreMachine() {
  const fi::TaskImage image = bbw::guestPrograms().at(1).makeNominalImage();
  hw::Machine machine{image.memBytes};
  machine.restoreState(fi::machineBaselineSnapshot(image));
  machine.cpu().setSp(image.stackTop);
  machine.flipRegisterBit(hw::kStackPointer, 15);
  machine.flipRegisterBit(hw::kStackPointer, 13);
  (void)machine.run(1000);
  return machine;
}

TEST(SnapshotRoundtrip, BehaviorDigestEqualsFullMemoryWalk) {
  // Random machine-level operations on two guest machines, a guest machine
  // that made wild stores into the last summary word, and one of 100 words
  // (not a multiple of 64): after each, on every machine, clean words hold
  // zero and the bitmap-walking digest equals the full walk.
  util::Rng rng{0xd1e57ULL};
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  std::vector<hw::Machine> machines{randomizedMachine(image, rng), randomizedMachine(image, rng),
                                    wildStoreMachine(), hw::Machine{400}};
  ASSERT_EQ(machines[2].memory().dirtySummary().size(), 4u);
  ASSERT_NE(machines[2].memory().dirtySummary().back(), 0u);
  ASSERT_EQ(fi::behaviorDigest(machines[2]), fullWalkDigest(machines[2]));
  for (int step = 0; step < 1500; ++step) {
    hw::Machine& machine = machines[rng.uniformInt(machines.size())];
    hw::EccMemory& memory = machine.memory();
    const auto word = static_cast<std::uint32_t>(rng.uniformInt(memory.wordCount()));
    switch (rng.uniformInt(7)) {
      case 0:
        (void)machine.run(rng.uniformInt(30));
        break;
      case 1:
        memory.write(4 * word, rng.bernoulli(0.2) ? 0u : static_cast<std::uint32_t>(rng.next()));
        break;
      case 2:
        machine.flipMemoryBit(4 * word, static_cast<int>(rng.uniformInt(hw::kEccCodewordBits)));
        break;
      case 3:
        (void)memory.read(4 * word);
        break;
      case 4:
        (void)memory.scrub();
        break;
      case 5:
        machine.restoreState(machines[rng.uniformInt(machines.size())].saveState());
        break;
      default:
        machine = machines[rng.uniformInt(machines.size())];  // may be itself
        break;
    }
    for (const hw::Machine& checked : machines) {
      const std::span<const std::uint64_t> dirty = checked.memory().dirtyWords();
      for (std::uint32_t w = 0; w < checked.memory().wordCount(); ++w) {
        if (((dirty[w / 64] >> (w % 64)) & 1u) == 0) {
          ASSERT_EQ(checked.memory().rawCodeword(w), 0u) << "clean word " << w;
        }
      }
      ASSERT_EQ(fi::behaviorDigest(checked), fullWalkDigest(checked)) << "step " << step;
    }
  }
}

TEST(SnapshotRoundtrip, RestoreIntoUsedSystemSimIsRefused) {
  BbwSystemSim producer{BbwSimConfig{}};
  producer.runUntil(util::SimTime::fromUs(300000));
  const std::vector<std::uint8_t> blob = producer.saveState();

  BbwSystemSim advanced{BbwSimConfig{}};
  advanced.runUntil(util::SimTime::fromUs(1000));
  EXPECT_THROW(advanced.restoreState(blob), std::runtime_error);

  BbwSystemSim injected{BbwSimConfig{}};
  injected.injectComputationFault(bbw::kCuA, util::SimTime::fromUs(500000));
  EXPECT_THROW(injected.restoreState(blob), std::runtime_error);
}

TEST(SnapshotRoundtrip, SystemConfigMismatchIsRefused) {
  BbwSimConfig config;
  BbwSystemSim producer{config};
  producer.runUntil(util::SimTime::fromUs(300000));
  const std::vector<std::uint8_t> blob = producer.saveState();

  BbwSimConfig other = config;
  other.initialSpeedMps += 1.0;
  BbwSystemSim mismatched{other};
  try {
    mismatched.restoreState(blob);
    FAIL() << "checkpoint restored under a different configuration";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string{error.what()}.find("configuration"), std::string::npos)
        << error.what();
  }
}

// Regression for the silent-drift hazard: runTracedCopy reconstructs a
// fresh machine, so an image mutated between the campaign and the traced
// run used to silently yield a trace of a DIFFERENT program. With the
// campaign baseline passed it must throw instead.
TEST(SnapshotRoundtrip, TracedCopyDetectsDriftFromCampaignBaseline) {
  const fi::TaskImage image = bbw::guestPrograms().front().makeNominalImage();
  const std::vector<std::uint8_t> baseline = fi::machineBaselineSnapshot(image);

  // Unperturbed: verification passes and the traced run completes.
  const fi::TracedRun clean = fi::runTracedCopy(image, std::nullopt, &baseline);
  EXPECT_FALSE(clean.pcTrace.empty());

  // Perturb one input word: the reconstructed machine no longer matches the
  // campaign baseline byte-for-byte.
  fi::TaskImage drifted = image;
  ASSERT_FALSE(drifted.input.empty());
  drifted.input.front() ^= 1u;
  EXPECT_THROW((void)fi::runTracedCopy(drifted, std::nullopt, &baseline), std::runtime_error);

  // Without the baseline the drifted image still runs — the check is what
  // closes the hazard.
  EXPECT_NO_THROW((void)fi::runTracedCopy(drifted, std::nullopt));
}

}  // namespace
}  // namespace nlft
