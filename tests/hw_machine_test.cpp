#include "hw/machine.hpp"

#include <gtest/gtest.h>

#include "hw/assembler.hpp"

namespace nlft::hw {
namespace {

/// Assembles and loads a program, setting SP to the top of memory.
Machine makeMachine(const char* source, std::uint32_t memBytes = 4096) {
  Machine machine{memBytes};
  const Program program = assemble(source);
  machine.loadWords(program.origin, program.words);
  machine.cpu().pc = program.origin;
  machine.cpu().setSp(memBytes);
  return machine;
}

TEST(Machine, ArithmeticProgram) {
  Machine m = makeMachine(R"(
    ldi r1, 6
    ldi r2, 7
    mul r3, r1, r2
    st r3, [r0+0x100]
    halt
  )");
  const auto result = m.run(100);
  EXPECT_EQ(result.reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 42u);
}

TEST(Machine, LoopComputesSum) {
  Machine m = makeMachine(R"(
      ldi r1, 0      ; sum
      ldi r2, 1      ; i
    loop:
      add r1, r1, r2
      addi r2, r2, 1
      cmpi r2, 11
      blt loop
      st r1, [r0+0x200]
      halt
  )");
  EXPECT_EQ(m.run(1000).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x200, 1)[0], 55u);  // 1+...+10
}

TEST(Machine, SubroutineCallAndReturn) {
  Machine m = makeMachine(R"(
      ldi r1, 5
      jsr double
      st r1, [r0+0x100]
      halt
    double:
      add r1, r1, r1
      rts
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 10u);
}

TEST(Machine, PushPopPreserveValues) {
  Machine m = makeMachine(R"(
    ldi r1, 11
    ldi r2, 22
    push r1
    push r2
    pop r3
    pop r4
    st r3, [r0+0x100]
    st r4, [r0+0x104]
    halt
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 22u);
  EXPECT_EQ(m.readWords(0x104, 1)[0], 11u);
}

TEST(Machine, SignedComparisonsAndBranches) {
  Machine m = makeMachine(R"(
      ldi r1, -5
      cmpi r1, 3
      blt neg        ; -5 < 3, taken
      ldi r2, 0
      jmp store
    neg:
      ldi r2, 1
    store:
      st r2, [r0+0x100]
      halt
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 1u);
}

TEST(Machine, DivisionAndRemainderIdiom) {
  Machine m = makeMachine(R"(
    ldi r1, 37
    ldi r2, 5
    divs r3, r1, r2   ; 7
    mul r4, r3, r2    ; 35
    sub r5, r1, r4    ; 2
    st r3, [r0+0x100]
    st r5, [r0+0x104]
    halt
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 7u);
  EXPECT_EQ(m.readWords(0x104, 1)[0], 2u);
}

TEST(Machine, DivideByZeroRaises) {
  Machine m = makeMachine(R"(
    ldi r1, 1
    ldi r2, 0
    divs r3, r1, r2
    halt
  )");
  const auto result = m.run(100);
  EXPECT_EQ(result.reason, StopReason::Exception);
  EXPECT_EQ(result.exception.kind, ExceptionKind::DivideByZero);
}

TEST(Machine, IllegalInstructionRaises) {
  Machine m{4096};
  m.loadWords(0, {0xFC000000u});  // opcode 63: undefined
  m.cpu().setSp(4096);
  const auto result = m.run(10);
  EXPECT_EQ(result.reason, StopReason::Exception);
  EXPECT_EQ(result.exception.kind, ExceptionKind::IllegalInstruction);
  EXPECT_EQ(result.exception.pc, 0u);
}

TEST(Machine, MisalignedLoadRaisesAddressError) {
  Machine m = makeMachine(R"(
    ldi r1, 2
    ld r2, [r1+0]
    halt
  )");
  const auto result = m.run(10);
  EXPECT_EQ(result.reason, StopReason::Exception);
  EXPECT_EQ(result.exception.kind, ExceptionKind::AddressError);
  EXPECT_EQ(result.exception.address, 2u);
}

TEST(Machine, OutOfRangeStoreRaisesAddressError) {
  Machine m = makeMachine(R"(
    ldi r1, 0x10000
    st r1, [r1+0]
    halt
  )", 4096);
  const auto result = m.run(10);
  EXPECT_EQ(result.reason, StopReason::Exception);
  EXPECT_EQ(result.exception.kind, ExceptionKind::AddressError);
}

TEST(Machine, UncorrectableEccRaisesBusError) {
  Machine m = makeMachine(R"(
    ld r1, [r0+0x100]
    halt
  )");
  m.flipMemoryBit(0x100, 1);
  m.flipMemoryBit(0x100, 7);
  const auto result = m.run(10);
  EXPECT_EQ(result.reason, StopReason::Exception);
  EXPECT_EQ(result.exception.kind, ExceptionKind::BusError);
}

TEST(Machine, SingleEccUpsetIsTransparent) {
  Machine m = makeMachine(R"(
    ld r1, [r0+0x100]
    st r1, [r0+0x200]
    halt
  )");
  m.memory().write(0x100, 77);
  m.flipMemoryBit(0x100, 4);
  EXPECT_EQ(m.run(10).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x200, 1)[0], 77u);
  EXPECT_EQ(m.memory().correctedErrors(), 1u);
}

TEST(Machine, BudgetExhaustionModelsExecutionTimeMonitor) {
  Machine m = makeMachine(R"(
    loop:
      jmp loop
  )");
  const auto result = m.run(50);
  EXPECT_EQ(result.reason, StopReason::BudgetExhausted);
  EXPECT_EQ(result.executedInstructions, 50u);
}

TEST(Machine, MmuViolationOnForeignRegion) {
  Machine m = makeMachine(R"(
    ldi r1, 0x200
    st r1, [r1+0]
    halt
  )");
  m.mmu().addRegion({0x0, 0x100, 1, accessMask(Access::Read) | accessMask(Access::Execute), "text"});
  m.mmu().setEnabled(true);
  m.mmu().setActiveTask(1);
  const auto result = m.run(10);
  EXPECT_EQ(result.reason, StopReason::Exception);
  EXPECT_EQ(result.exception.kind, ExceptionKind::MmuViolation);
  EXPECT_EQ(m.mmu().violationCount(), 1u);
}

TEST(Machine, RegisterBitFlipChangesResult) {
  Machine m = makeMachine(R"(
    ldi r1, 6
    ldi r2, 7
    mul r3, r1, r2
    st r3, [r0+0x100]
    halt
  )");
  // Run two instructions, then flip bit 0 of r1 (6 -> 7).
  EXPECT_FALSE(m.step().has_value());
  EXPECT_FALSE(m.step().has_value());
  m.flipRegisterBit(1, 0);
  EXPECT_EQ(m.run(10).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 49u);  // silent data corruption
}

TEST(Machine, PcBitFlipCanRaiseIllegalInstruction) {
  // Flipping a high PC bit lands in uninitialised memory, which decodes as
  // opcode 0 (nop)... so instead corrupt PC to an odd address: fetch from a
  // misaligned address must raise AddressError.
  Machine m = makeMachine(R"(
    nop
    nop
    halt
  )");
  m.flipPcBit(1);  // pc = 2: misaligned fetch
  const auto result = m.run(10);
  EXPECT_EQ(result.reason, StopReason::Exception);
  EXPECT_EQ(result.exception.kind, ExceptionKind::AddressError);
}

TEST(Machine, StackOverflowDetected) {
  Machine m = makeMachine(R"(
    loop:
      push r1
      jmp loop
  )", 4096);
  m.cpu().setSp(0);  // no stack at all: first push wraps below address zero
  const auto result = m.run(100);
  EXPECT_EQ(result.reason, StopReason::Exception);
  // Pushing below address 0 wraps to a huge address -> stack overflow.
  EXPECT_EQ(result.exception.kind, ExceptionKind::StackOverflow);
}

TEST(Machine, HaltIsSticky) {
  Machine m = makeMachine("halt\n");
  EXPECT_EQ(m.run(10).reason, StopReason::Halted);
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.run(10).reason, StopReason::Halted);
  EXPECT_EQ(m.run(10).executedInstructions, 0u);
  m.resume();
  EXPECT_FALSE(m.halted());
}

TEST(Machine, DivisionSaturatesOnIntMinByMinusOne) {
  Machine m = makeMachine(R"(
    ldi r1, 1
    shl r1, r1, 31     ; INT_MIN
    ldi r2, -1
    divs r3, r1, r2
    st r3, [r0+0x100]
    halt
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], static_cast<std::uint32_t>(INT32_MAX));
}

TEST(Machine, SignedComparisonAcrossZero) {
  Machine m = makeMachine(R"(
      ldi r1, -1
      ldi r2, 1
      cmp r1, r2
      blt less
      ldi r3, 0
      jmp done
    less:
      ldi r3, 1
    done:
      st r3, [r0+0x100]
      halt
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 1u);  // -1 < 1 in signed compare
}

TEST(Machine, ShiftAmountsMaskedTo31) {
  Machine m = makeMachine(R"(
    ldi r1, 1
    shl r2, r1, 33     ; 33 & 31 = 1
    st r2, [r0+0x100]
    halt
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 2u);
}

TEST(Machine, NestedSubroutines) {
  Machine m = makeMachine(R"(
      ldi r1, 1
      jsr outer
      st r1, [r0+0x100]
      halt
    outer:
      addi r1, r1, 10
      jsr inner
      addi r1, r1, 100
      rts
    inner:
      addi r1, r1, 1000
      rts
  )");
  EXPECT_EQ(m.run(100).reason, StopReason::Halted);
  EXPECT_EQ(m.readWords(0x100, 1)[0], 1111u);
}

TEST(Machine, ContextSaveRestoreRoundTrip) {
  Machine m = makeMachine(R"(
    ldi r1, 5
    ldi r2, 7
    cmpi r1, 9
    halt
  )");
  (void)m.step();
  (void)m.step();
  (void)m.step();
  const CpuState saved = m.saveContext();  // r1=5, r2=7, N flag set, pc=12
  // Clobber everything, then restore.
  m.cpu().regs.fill(0xDEAD);
  m.cpu().pc = 0x4000;
  m.cpu().flagNegative = false;
  m.restoreContext(saved);
  EXPECT_EQ(m.cpu().regs[1], 5u);
  EXPECT_EQ(m.cpu().regs[2], 7u);
  EXPECT_EQ(m.cpu().pc, 12u);
  EXPECT_TRUE(m.cpu().flagNegative);
  EXPECT_EQ(m.run(10).reason, StopReason::Halted);
}

TEST(Machine, DeterministicReplay) {
  auto runOnce = [] {
    Machine m = makeMachine(R"(
        ldi r1, 0
        ldi r2, 1
      loop:
        add r1, r1, r2
        addi r2, r2, 1
        cmpi r2, 100
        blt loop
        st r1, [r0+0x300]
        halt
    )");
    (void)m.run(10000);
    return m.readWords(0x300, 1)[0];
  };
  EXPECT_EQ(runOnce(), runOnce());
}

}  // namespace
}  // namespace nlft::hw
