#include "faults/fault_model.hpp"

#include <cstdio>

namespace nlft::fi {

void inject(hw::Machine& machine, const FaultLocation& location) {
  std::visit(
      [&machine](const auto& fault) {
        using T = std::decay_t<decltype(fault)>;
        if constexpr (std::is_same_v<T, RegisterBitFlip>) {
          machine.flipRegisterBit(fault.reg, fault.bit);
        } else if constexpr (std::is_same_v<T, PcBitFlip>) {
          machine.flipPcBit(fault.bit);
        } else if constexpr (std::is_same_v<T, MemoryBitFlip>) {
          machine.flipMemoryBit(fault.address, fault.bit);
        } else if constexpr (std::is_same_v<T, FetchBitFlip>) {
          machine.armFetchCorruption(fault.bit);
        }
      },
      location);
}

std::string describe(const FaultLocation& location) {
  char buf[64];
  std::visit(
      [&buf](const auto& fault) {
        using T = std::decay_t<decltype(fault)>;
        if constexpr (std::is_same_v<T, RegisterBitFlip>) {
          std::snprintf(buf, sizeof buf, "reg r%d bit %d", fault.reg, fault.bit);
        } else if constexpr (std::is_same_v<T, PcBitFlip>) {
          std::snprintf(buf, sizeof buf, "pc bit %d", fault.bit);
        } else if constexpr (std::is_same_v<T, MemoryBitFlip>) {
          std::snprintf(buf, sizeof buf, "mem 0x%x bit %d", fault.address, fault.bit);
        } else if constexpr (std::is_same_v<T, FetchBitFlip>) {
          std::snprintf(buf, sizeof buf, "fetch bit %d", fault.bit);
        }
      },
      location);
  return buf;
}

}  // namespace nlft::fi
