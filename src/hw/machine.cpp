#include "hw/machine.hpp"

#include <stdexcept>
#include <string>

#include "snap/blob.hpp"

namespace nlft::hw {

Machine::Machine(std::uint32_t memBytes) : memory_{memBytes} {}

void Machine::loadWords(std::uint32_t address, const std::vector<std::uint32_t>& words) {
  for (std::uint32_t i = 0; i < words.size(); ++i) {
    if (!memory_.write(address + 4 * i, words[i]))
      throw std::out_of_range("Machine::loadWords: address out of range");
  }
}

std::vector<std::uint32_t> Machine::readWords(std::uint32_t address, std::uint32_t count) {
  std::vector<std::uint32_t> words;
  words.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const MemoryReadResult r = memory_.read(address + 4 * i);
    if (!r.ok) throw std::runtime_error("Machine::readWords: unreadable word");
    words.push_back(r.value);
  }
  return words;
}

std::optional<HwException> Machine::raise(ExceptionKind kind, std::uint32_t address) {
  return HwException{kind, cpu_.pc, address};
}

bool Machine::checkedRead(std::uint32_t address, std::uint32_t& value,
                          std::optional<HwException>& exception, Access access) {
  if (address % 4 != 0 || !memory_.validAddress(address)) {
    exception = raise(ExceptionKind::AddressError, address);
    return false;
  }
  if (const auto violation = mmu_.check(address, access)) {
    mmu_.recordViolation();
    exception = raise(ExceptionKind::MmuViolation, address);
    return false;
  }
  const MemoryReadResult r = memory_.read(address);
  if (!r.ok) {
    exception = raise(ExceptionKind::BusError, address);
    return false;
  }
  value = r.value;
  return true;
}

bool Machine::checkedWrite(std::uint32_t address, std::uint32_t value,
                           std::optional<HwException>& exception) {
  if (address % 4 != 0 || !memory_.validAddress(address)) {
    exception = raise(ExceptionKind::AddressError, address);
    return false;
  }
  if (const auto violation = mmu_.check(address, Access::Write)) {
    mmu_.recordViolation();
    exception = raise(ExceptionKind::MmuViolation, address);
    return false;
  }
  memory_.write(address, value);
  return true;
}

void Machine::setFlags(std::int32_t comparison) {
  cpu_.flagZero = comparison == 0;
  cpu_.flagNegative = comparison < 0;
}

std::optional<HwException> Machine::step() {
  if (halted_) return std::nullopt;
  std::optional<HwException> exception;

  if (traceSink_ != nullptr) traceSink_->push_back(cpu_.pc);

  // Fetch.
  std::uint32_t word = 0;
  if (!checkedRead(cpu_.pc, word, exception, Access::Execute)) return exception;
  if (fetchCorruptionBit_ >= 0) {
    word ^= 1u << fetchCorruptionBit_;
    fetchCorruptionBit_ = -1;
  }

  // Decode.
  const auto decoded = decode(word);
  if (!decoded) return raise(ExceptionKind::IllegalInstruction, cpu_.pc);
  const Instruction inst = *decoded;

  ++executed_;
  std::uint32_t nextPc = cpu_.pc + 4;
  auto reg = [this](int r) { return cpu_.regs[r]; };
  auto sreg = [this](int r) { return static_cast<std::int32_t>(cpu_.regs[r]); };

  switch (inst.opcode) {
    case Opcode::Nop:
      break;
    case Opcode::Halt:
      halted_ = true;
      break;
    case Opcode::Ldi:
      cpu_.regs[inst.rd] = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::Ld: {
      const std::uint32_t address = reg(inst.rs1) + static_cast<std::uint32_t>(inst.imm);
      std::uint32_t value = 0;
      if (!checkedRead(address, value, exception, Access::Read)) return exception;
      cpu_.regs[inst.rd] = value;
      break;
    }
    case Opcode::St: {
      const std::uint32_t address = reg(inst.rs1) + static_cast<std::uint32_t>(inst.imm);
      if (!checkedWrite(address, reg(inst.rd), exception)) return exception;
      break;
    }
    case Opcode::Mov:
      cpu_.regs[inst.rd] = reg(inst.rs1);
      break;
    case Opcode::Add:
      cpu_.regs[inst.rd] = reg(inst.rs1) + reg(inst.rs2);
      break;
    case Opcode::Sub:
      cpu_.regs[inst.rd] = reg(inst.rs1) - reg(inst.rs2);
      break;
    case Opcode::Mul:
      cpu_.regs[inst.rd] = reg(inst.rs1) * reg(inst.rs2);
      break;
    case Opcode::Divs: {
      const std::int32_t divisor = sreg(inst.rs2);
      if (divisor == 0) return raise(ExceptionKind::DivideByZero);
      // INT_MIN / -1 overflows; the hardware saturates instead of trapping.
      if (sreg(inst.rs1) == INT32_MIN && divisor == -1) {
        cpu_.regs[inst.rd] = static_cast<std::uint32_t>(INT32_MAX);
      } else {
        cpu_.regs[inst.rd] = static_cast<std::uint32_t>(sreg(inst.rs1) / divisor);
      }
      break;
    }
    case Opcode::And:
      cpu_.regs[inst.rd] = reg(inst.rs1) & reg(inst.rs2);
      break;
    case Opcode::Or:
      cpu_.regs[inst.rd] = reg(inst.rs1) | reg(inst.rs2);
      break;
    case Opcode::Xor:
      cpu_.regs[inst.rd] = reg(inst.rs1) ^ reg(inst.rs2);
      break;
    case Opcode::Shl:
      cpu_.regs[inst.rd] = reg(inst.rs1) << (static_cast<std::uint32_t>(inst.imm) & 31u);
      break;
    case Opcode::Shr:
      cpu_.regs[inst.rd] = reg(inst.rs1) >> (static_cast<std::uint32_t>(inst.imm) & 31u);
      break;
    case Opcode::Addi:
      cpu_.regs[inst.rd] = reg(inst.rs1) + static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::Cmp:
      setFlags(sreg(inst.rs1) < sreg(inst.rs2)   ? -1
               : sreg(inst.rs1) == sreg(inst.rs2) ? 0
                                                  : 1);
      break;
    case Opcode::Cmpi:
      setFlags(sreg(inst.rs1) < inst.imm ? -1 : sreg(inst.rs1) == inst.imm ? 0 : 1);
      break;
    case Opcode::Beq:
      if (cpu_.flagZero) nextPc = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::Bne:
      if (!cpu_.flagZero) nextPc = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::Blt:
      if (cpu_.flagNegative) nextPc = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::Bge:
      if (!cpu_.flagNegative) nextPc = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::Jmp:
      nextPc = static_cast<std::uint32_t>(inst.imm);
      break;
    case Opcode::Jsr: {
      const std::uint32_t newSp = cpu_.sp() - 4;
      if (!checkedWrite(newSp, nextPc, exception)) {
        if (exception->kind == ExceptionKind::AddressError)
          exception->kind = ExceptionKind::StackOverflow;
        return exception;
      }
      cpu_.setSp(newSp);
      nextPc = static_cast<std::uint32_t>(inst.imm);
      break;
    }
    case Opcode::Rts: {
      std::uint32_t returnAddress = 0;
      if (!checkedRead(cpu_.sp(), returnAddress, exception, Access::Read)) {
        if (exception->kind == ExceptionKind::AddressError)
          exception->kind = ExceptionKind::StackOverflow;
        return exception;
      }
      cpu_.setSp(cpu_.sp() + 4);
      nextPc = returnAddress;
      break;
    }
    case Opcode::Push: {
      const std::uint32_t newSp = cpu_.sp() - 4;
      if (!checkedWrite(newSp, reg(inst.rd), exception)) {
        if (exception->kind == ExceptionKind::AddressError)
          exception->kind = ExceptionKind::StackOverflow;
        return exception;
      }
      cpu_.setSp(newSp);
      break;
    }
    case Opcode::Pop: {
      std::uint32_t value = 0;
      if (!checkedRead(cpu_.sp(), value, exception, Access::Read)) {
        if (exception->kind == ExceptionKind::AddressError)
          exception->kind = ExceptionKind::StackOverflow;
        return exception;
      }
      cpu_.setSp(cpu_.sp() + 4);
      cpu_.regs[inst.rd] = value;
      break;
    }
  }

  cpu_.pc = nextPc;
  return std::nullopt;
}

RunResult Machine::run(std::uint64_t maxInstructions) {
  RunResult result;
  const std::uint64_t startCount = executed_;
  while (!halted_) {
    if (executed_ - startCount >= maxInstructions) {
      result.reason = StopReason::BudgetExhausted;
      result.executedInstructions = executed_ - startCount;
      return result;
    }
    if (const auto exception = step()) {
      result.reason = StopReason::Exception;
      result.exception = *exception;
      result.executedInstructions = executed_ - startCount;
      return result;
    }
  }
  result.reason = StopReason::Halted;
  result.executedInstructions = executed_ - startCount;
  return result;
}

void Machine::flipRegisterBit(int reg, int bit) { cpu_.regs[reg] ^= 1u << bit; }
void Machine::flipPcBit(int bit) { cpu_.pc ^= 1u << bit; }
void Machine::flipMemoryBit(std::uint32_t address, int bit) { memory_.flipBit(address, bit); }
void Machine::armFetchCorruption(int bit) { fetchCorruptionBit_ = bit & 31; }

std::vector<std::uint8_t> Machine::saveState() const {
  snap::BlobWriter w{snap::kMachineSnapshot, kMachineStateVersion};

  w.beginSection("cpu");
  w.u32Vec({cpu_.regs.data(), cpu_.regs.size()});
  w.u32(cpu_.pc);
  w.boolean(cpu_.flagZero);
  w.boolean(cpu_.flagNegative);
  w.endSection();

  w.beginSection("mem");
  w.u64Vec(memory_.rawCodewords());
  w.u64(memory_.correctedErrors());
  w.u64(memory_.uncorrectableErrors());
  w.endSection();

  w.beginSection("mmu");
  w.boolean(mmu_.enabled());
  w.u32(mmu_.activeTask());
  w.u64(mmu_.violationCount());
  w.u32(static_cast<std::uint32_t>(mmu_.regions().size()));
  for (const MmuRegion& region : mmu_.regions()) {
    w.u32(region.base);
    w.u32(region.size);
    w.u32(region.owner);
    w.u8(region.permissions);
    w.str(region.name);
  }
  w.endSection();

  w.beginSection("exec");
  w.boolean(halted_);
  w.u64(executed_);
  w.i64(fetchCorruptionBit_);
  w.endSection();

  return w.finish();
}

void Machine::restoreState(std::span<const std::uint8_t> blob) {
  snap::BlobReader r{blob, snap::kMachineSnapshot, kMachineStateVersion};

  r.openSection("cpu");
  const std::vector<std::uint32_t> regs = r.u32Vec();
  if (regs.size() != cpu_.regs.size()) {
    throw snap::BlobError("snapshot section 'cpu': register count " +
                          std::to_string(regs.size()) + ", expected " +
                          std::to_string(cpu_.regs.size()));
  }
  CpuState cpu;
  for (std::size_t i = 0; i < regs.size(); ++i) cpu.regs[i] = regs[i];
  cpu.pc = r.u32();
  cpu.flagZero = r.boolean();
  cpu.flagNegative = r.boolean();
  r.closeSection();

  r.openSection("mem");
  std::vector<std::uint64_t> codewords = r.u64Vec();
  const std::uint64_t corrected = r.u64();
  const std::uint64_t uncorrectable = r.u64();
  r.closeSection();

  r.openSection("mmu");
  const bool mmuEnabled = r.boolean();
  const MmuTaskId activeTask = r.u32();
  const std::uint64_t violations = r.u64();
  // Smallest region: base, size, owner, permissions and an empty name.
  const std::uint32_t regionCount = r.elementCount(3 * 4 + 1 + 4);
  std::vector<MmuRegion> regions;
  regions.reserve(regionCount);
  for (std::uint32_t i = 0; i < regionCount; ++i) {
    MmuRegion region;
    region.base = r.u32();
    region.size = r.u32();
    region.owner = r.u32();
    region.permissions = r.u8();
    region.name = r.str();
    regions.push_back(std::move(region));
  }
  r.closeSection();

  r.openSection("exec");
  const bool halted = r.boolean();
  const std::uint64_t executed = r.u64();
  const std::int64_t fetchBit = r.i64();
  // step() shifts by this value, so one outside the range the setter
  // produces is refused here.
  if (fetchBit < -1 || fetchBit > 31) {
    throw snap::BlobError("snapshot section 'exec': fetch-corruption bit " +
                          std::to_string(fetchBit) + " out of range");
  }
  r.closeSection();
  r.finish();

  // All sections parsed and CRC-verified — only now mutate the machine, so a
  // corrupted blob never leaves it half-restored.
  cpu_ = cpu;
  memory_.restoreRaw(std::move(codewords), corrected, uncorrectable);
  mmu_.restoreRegions(std::move(regions));
  mmu_.setEnabled(mmuEnabled);
  mmu_.setActiveTask(activeTask);
  mmu_.setViolationCount(violations);
  halted_ = halted;
  executed_ = executed;
  fetchCorruptionBit_ = static_cast<int>(fetchBit);
}

}  // namespace nlft::hw
