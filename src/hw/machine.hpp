// The simulated node processor: CPU + ECC memory + MMU interpreter.
//
// A Machine executes programs of the toy ISA deterministically. All fault
// injection entry points are here: register/PC bit flips, memory codeword
// flips and fetch-path upsets. Execution stops at HALT, on an exception, or
// when the instruction budget is exhausted (the budget models the kernel's
// execution-time monitor at this level).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/memory.hpp"
#include "hw/mmu.hpp"

namespace nlft::hw {

/// Why a run() returned.
enum class StopReason : std::uint8_t {
  Halted,           ///< HALT executed
  Exception,        ///< a hardware EDM fired; see exception field
  BudgetExhausted,  ///< instruction budget ran out (execution-time monitor)
};

struct RunResult {
  StopReason reason = StopReason::Halted;
  HwException exception{};
  std::uint64_t executedInstructions = 0;
};

/// Format version of Machine::saveState() blobs. Bump on any layout change;
/// restoreState() refuses blobs of any other version.
inline constexpr std::uint16_t kMachineStateVersion = 2;

class Machine {
 public:
  /// Creates a machine with `memBytes` of ECC memory (default 64 KiB).
  explicit Machine(std::uint32_t memBytes = 64 * 1024);

  [[nodiscard]] CpuState& cpu() { return cpu_; }
  [[nodiscard]] const CpuState& cpu() const { return cpu_; }

  /// Snapshots the full CPU context (the task-control-block save the kernel
  /// performs on every context switch; TEM restores it before replacement
  /// copies, Section 2.5).
  [[nodiscard]] CpuState saveContext() const { return cpu_; }
  /// Restores a previously saved context (registers, PC, SP, flags).
  void restoreContext(const CpuState& context) { cpu_ = context; }
  [[nodiscard]] EccMemory& memory() { return memory_; }
  [[nodiscard]] const EccMemory& memory() const { return memory_; }
  [[nodiscard]] Mmu& mmu() { return mmu_; }
  [[nodiscard]] const Mmu& mmu() const { return mmu_; }

  /// Loads words at a byte address (e.g. program text or input data).
  void loadWords(std::uint32_t address, const std::vector<std::uint32_t>& words);
  /// Reads a block back (throws std::runtime_error on uncorrectable error).
  [[nodiscard]] std::vector<std::uint32_t> readWords(std::uint32_t address, std::uint32_t count);

  /// Executes one instruction. Returns an exception if one was raised.
  [[nodiscard]] std::optional<HwException> step();

  /// Runs until HALT, exception, or `maxInstructions` executed.
  [[nodiscard]] RunResult run(std::uint64_t maxInstructions);

  [[nodiscard]] bool halted() const { return halted_; }
  /// Clears the halted flag and exception state (e.g. before a task restart).
  void resume() { halted_ = false; }

  [[nodiscard]] std::uint64_t executedInstructions() const { return executed_; }

  // --- Fault injection entry points ---

  /// Flips one bit of a general-purpose register.
  void flipRegisterBit(int reg, int bit);
  /// Flips one bit of the program counter.
  void flipPcBit(int bit);
  /// Flips one codeword bit (0..38) of a memory word.
  void flipMemoryBit(std::uint32_t address, int bit);

  /// Arms a one-shot corruption of the next instruction FETCH: the word
  /// read from memory has `bit` flipped before decoding (a transient upset
  /// in the instruction register / fetch path). Depending on the bit this
  /// yields an illegal opcode, a wrong register, or a wrong immediate.
  void armFetchCorruption(int bit);

  /// Attaches a PC trace sink: every step() appends the pre-fetch PC (also
  /// for instructions that subsequently fault, so a wild jump's landing
  /// address is captured). The static analyzer cross-checks such traces
  /// against the program's CFG. Pass nullptr to detach.
  void setTraceSink(std::vector<std::uint32_t>* sink) { traceSink_ = sink; }

  // --- Whole-machine snapshots (copy-on-inject campaign engine) ---

  /// Serializes the COMPLETE deterministic machine state — CPU context, raw
  /// memory codewords + ECC counters, MMU configuration + violation count,
  /// and execution state (halted flag, instruction counter, armed fetch
  /// corruption) — into a versioned, sectioned, CRC-32 protected blob (see
  /// src/snap/blob.hpp and docs/SNAPSHOT.md). The trace sink attachment is
  /// NOT part of the state.
  [[nodiscard]] std::vector<std::uint8_t> saveState() const;

  /// Restores a saveState() blob, replacing the entire machine state
  /// (including the memory size). Throws snap::BlobError on a truncated,
  /// bit-flipped or version-mismatched blob, naming the damaged section.
  void restoreState(std::span<const std::uint8_t> blob);

  /// The pending one-shot fetch corruption bit, or -1 when none is armed.
  [[nodiscard]] int armedFetchCorruptionBit() const { return fetchCorruptionBit_; }

 private:
  [[nodiscard]] std::optional<HwException> raise(ExceptionKind kind, std::uint32_t address = 0);
  [[nodiscard]] bool checkedRead(std::uint32_t address, std::uint32_t& value,
                                 std::optional<HwException>& exception, Access access);
  [[nodiscard]] bool checkedWrite(std::uint32_t address, std::uint32_t value,
                                  std::optional<HwException>& exception);
  void setFlags(std::int32_t comparison);

  CpuState cpu_;
  EccMemory memory_;
  Mmu mmu_;
  bool halted_ = false;
  std::uint64_t executed_ = 0;
  int fetchCorruptionBit_ = -1;
  std::vector<std::uint32_t>* traceSink_ = nullptr;
};

}  // namespace nlft::hw
