// CPU architectural state and hardware exception model.
#pragma once

#include <array>
#include <cstdint>

#include "hw/isa.hpp"

namespace nlft::hw {

/// Hardware error-detection exceptions raised by the simulated processor.
/// These correspond to the "CPU hardware exceptions" row of the paper's
/// Table 1; in the MC68340 study [8] illegal-instruction exceptions were
/// typically triggered by PC faults and address/bus errors by SP faults.
enum class ExceptionKind : std::uint8_t {
  None = 0,
  IllegalInstruction,  ///< undefined opcode fetched
  AddressError,        ///< unaligned or out-of-range data access
  BusError,            ///< uncorrectable ECC error on a memory access
  DivideByZero,
  MmuViolation,        ///< access outside the active task's regions
  StackOverflow,       ///< push/pop outside the stack bounds
};

/// A raised exception with its architectural context.
struct HwException {
  ExceptionKind kind = ExceptionKind::None;
  std::uint32_t pc = 0;       ///< PC of the faulting instruction
  std::uint32_t address = 0;  ///< faulting address where applicable
};

/// Register file, PC and condition flags.
struct CpuState {
  std::array<std::uint32_t, kRegisterCount> regs{};
  std::uint32_t pc = 0;
  bool flagZero = false;
  bool flagNegative = false;

  [[nodiscard]] std::uint32_t sp() const { return regs[kStackPointer]; }
  void setSp(std::uint32_t value) { regs[kStackPointer] = value; }
};

}  // namespace nlft::hw
