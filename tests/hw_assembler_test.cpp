#include "hw/assembler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "hw/isa.hpp"
#include "hw/machine.hpp"

namespace nlft::hw {
namespace {

TEST(Assembler, MinimalProgram) {
  const Program p = assemble("ldi r1, 5\nhalt\n");
  ASSERT_EQ(p.words.size(), 2u);
  const auto first = decode(p.words[0]);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->opcode, Opcode::Ldi);
  EXPECT_EQ(first->rd, 1);
  EXPECT_EQ(first->imm, 5);
  EXPECT_EQ(decode(p.words[1])->opcode, Opcode::Halt);
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  const Program p = assemble(R"(
      ; leading comment

      nop   ; trailing comment

      halt
  )");
  EXPECT_EQ(p.words.size(), 2u);
}

TEST(Assembler, LabelsResolveToByteAddresses) {
  const Program p = assemble(R"(
    start:
      ldi r1, 0
    loop:
      addi r1, r1, 1
      cmpi r1, 10
      bne loop
      halt
  )");
  EXPECT_EQ(p.symbol("start"), 0u);
  EXPECT_EQ(p.symbol("loop"), 4u);
  const auto branch = decode(p.words[3]);
  EXPECT_EQ(branch->opcode, Opcode::Bne);
  EXPECT_EQ(branch->imm, 4);
}

TEST(Assembler, LabelOnOwnLineAndInline) {
  const Program p = assemble("a:\nb: nop\nhalt\n");
  EXPECT_EQ(p.symbol("a"), 0u);
  EXPECT_EQ(p.symbol("b"), 0u);
  EXPECT_EQ(p.words.size(), 2u);
}

TEST(Assembler, MemoryOperandForms) {
  const Program p = assemble(R"(
    ld r1, [r2]
    ld r3, [r4+8]
    st r5, [r6-4]
    halt
  )");
  const auto plain = decode(p.words[0]);
  EXPECT_EQ(plain->rs1, 2);
  EXPECT_EQ(plain->imm, 0);
  const auto positive = decode(p.words[1]);
  EXPECT_EQ(positive->rs1, 4);
  EXPECT_EQ(positive->imm, 8);
  const auto negative = decode(p.words[2]);
  EXPECT_EQ(negative->opcode, Opcode::St);
  EXPECT_EQ(negative->rs1, 6);
  EXPECT_EQ(negative->imm, -4);
}

TEST(Assembler, SpAliasesR15) {
  const Program p = assemble("mov sp, r1\npush r2\nhalt\n");
  EXPECT_EQ(decode(p.words[0])->rd, kStackPointer);
}

TEST(Assembler, HexAndNegativeImmediates) {
  const Program p = assemble("ldi r1, 0x1F\nldi r2, -3\nhalt\n");
  EXPECT_EQ(decode(p.words[0])->imm, 31);
  EXPECT_EQ(decode(p.words[1])->imm, -3);
}

TEST(Assembler, OrgShiftsLabelAddresses) {
  const Program p = assemble(R"(
    .org 0x100
    entry:
      nop
    target:
      halt
  )");
  EXPECT_EQ(p.origin, 0x100u);
  EXPECT_EQ(p.symbol("entry"), 0x100u);
  EXPECT_EQ(p.symbol("target"), 0x104u);
}

TEST(Assembler, LdiCanLoadLabelAddress) {
  const Program p = assemble(R"(
      ldi r1, data
      halt
    data:
      nop
  )");
  EXPECT_EQ(decode(p.words[0])->imm, 8);
}

TEST(Assembler, JsrAndRtsEncode) {
  const Program p = assemble(R"(
      jsr fn
      halt
    fn:
      rts
  )");
  const auto jsr = decode(p.words[0]);
  EXPECT_EQ(jsr->opcode, Opcode::Jsr);
  EXPECT_EQ(jsr->imm, 8);
  EXPECT_EQ(decode(p.words[2])->opcode, Opcode::Rts);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    (void)assemble("nop\nbogus r1\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Assembler, RejectsBadInput) {
  EXPECT_THROW((void)assemble("ldi r99, 1\n"), AssemblyError);
  EXPECT_THROW((void)assemble("ldi r99999999999, 1\n"), AssemblyError);  // no int overflow
  EXPECT_THROW((void)assemble("ld r1, [r2147483648]\n"), AssemblyError);
  EXPECT_THROW((void)assemble("ld r1, [r2147483648+4]\n"), AssemblyError);
  EXPECT_THROW((void)assemble("ldi r1\n"), AssemblyError);            // missing operand
  EXPECT_THROW((void)assemble("add r1, r2\n"), AssemblyError);        // wrong arity
  EXPECT_THROW((void)assemble("beq nowhere\n"), AssemblyError);       // undefined label
  EXPECT_THROW((void)assemble("ldi r1, 999999\n"), AssemblyError);    // imm range
  EXPECT_THROW((void)assemble("ld r1, r2\n"), AssemblyError);         // not a memory operand
  EXPECT_THROW((void)assemble("x: nop\nx: nop\n"), AssemblyError);    // duplicate label
  EXPECT_THROW((void)assemble("ldi r1, ,\n"), AssemblyError);         // empty operand
}

TEST(Assembler, WordDirectiveEmitsLiteralData) {
  const Program p = assemble(R"(
      ld r1, [r0+table]
      halt
    table:
      .word 10, 0x20, -1, -2147483648, 4294967295
  )");
  ASSERT_EQ(p.words.size(), 7u);
  EXPECT_EQ(p.symbol("table"), 8u);
  EXPECT_EQ(p.words[2], 10u);
  EXPECT_EQ(p.words[3], 0x20u);
  EXPECT_EQ(p.words[4], 0xFFFFFFFFu);
  EXPECT_EQ(p.words[5], 0x80000000u);  // the 32-bit limits are accepted
  EXPECT_EQ(p.words[6], 0xFFFFFFFFu);
}

TEST(Assembler, WordDirectiveCanHoldLabelAddresses) {
  const Program p = assemble(R"(
      halt
    vector:
      .word entry
    entry:
      nop
  )");
  EXPECT_EQ(p.words[1], p.symbol("entry"));
}

TEST(Assembler, WordTableIsLoadableData) {
  // A lookup-table program: reads table[input] and stores it.
  const Program p = assemble(R"(
      ldi r1, 0x800
      ld  r2, [r1+0]      ; index
      shl r2, r2, 2       ; *4 bytes
      ldi r3, table
      add r3, r3, r2
      ld  r4, [r3+0]
      st  r4, [r1+4]
      halt
    table:
      .word 100, 200, 300, 400
  )");
  hw::Machine machine{4096};
  machine.loadWords(0, p.words);
  machine.memory().write(0x800, 2);  // index 2
  machine.cpu().setSp(4096);
  EXPECT_EQ(machine.run(100).reason, StopReason::Halted);
  EXPECT_EQ(machine.readWords(0x804, 1)[0], 300u);
}

TEST(Assembler, WordDirectiveRejectsBadOperands) {
  EXPECT_THROW((void)assemble(".word\n"), AssemblyError);
  EXPECT_THROW((void)assemble(".word nowhere\n"), AssemblyError);
  EXPECT_THROW((void)assemble(".word 1x\n"), AssemblyError);
}

TEST(Assembler, DirectiveOperandsMustBeWhole32BitNumbers) {
  // (source, line of the bad operand). Each value must be refused with its
  // line: truncated to 32 bits or cut at the first bad character, it would
  // silently move code or change data.
  const std::vector<std::pair<std::string, int>> cases = {
      {".org abc\nnop\n", 1},
      {".org 0x1ffffffff\nnop\n", 1},
      {".org -4\nnop\n", 1},
      {".org 0x100zz\nnop\n", 1},
      {"nop\n.word 0x1ffffffff\n", 2},
      {"nop\n.word 99999999999\n", 2},
      {"nop\n.word -2147483649\n", 2},
      {"nop\n.loopbound 4294967296\nloop: bne loop\n", 2},
  };
  for (const auto& [source, line] : cases) {
    try {
      (void)assemble(source);
      ADD_FAILURE() << "accepted: " << source;
    } catch (const AssemblyError& error) {
      EXPECT_EQ(error.line(), line) << source;
    }
  }
}

TEST(Assembler, MnemonicsAreCaseInsensitive) {
  const Program p = assemble("LDI R1, 1\nHALT\n");
  EXPECT_EQ(decode(p.words[0])->opcode, Opcode::Ldi);
}

}  // namespace
}  // namespace nlft::hw
