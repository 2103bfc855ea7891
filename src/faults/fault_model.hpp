// Fault models for the simulated node hardware.
//
// The paper's transient fault rate counts *activated* faults — faults whose
// effects become errors. The campaign runner therefore distinguishes
// "not activated" experiments (fault overwritten or latent) from activated
// ones, and estimates the conditional probabilities P_T, P_OM, P_FS and the
// coverage C_D over the activated population, mirroring the fault-injection
// methodology of the paper's references [7] and [8].
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "hw/machine.hpp"

namespace nlft::fi {

/// Transient single-bit flip in a general-purpose register.
struct RegisterBitFlip {
  int reg = 0;
  int bit = 0;
};

/// Transient single-bit flip in the program counter.
struct PcBitFlip {
  int bit = 0;
};

/// Transient flip of one ECC codeword bit (0..38) of a memory word.
struct MemoryBitFlip {
  std::uint32_t address = 0;
  int bit = 0;
};

/// Transient upset in the instruction fetch path: the next fetched word has
/// one bit flipped before decoding (opcode bits yield illegal-instruction
/// exceptions; operand bits silently change the computation).
struct FetchBitFlip {
  int bit = 0;
};

using FaultLocation = std::variant<RegisterBitFlip, PcBitFlip, MemoryBitFlip, FetchBitFlip>;

/// A fault occurrence: the location plus the activation instant, expressed
/// as "after N executed instructions" of the affected run. For TEM
/// experiments, `targetCopy` selects which task copy the fault strikes
/// (memory faults persist into later copies; register faults do not).
struct FaultSpec {
  FaultLocation location;
  std::uint64_t afterInstructions = 0;
  int targetCopy = 1;
};

/// Applies the fault to the machine immediately.
void inject(hw::Machine& machine, const FaultLocation& location);

/// Short description for logs ("reg r3 bit 17", "mem 0x100 bit 38", ...).
[[nodiscard]] std::string describe(const FaultLocation& location);

}  // namespace nlft::fi
