#include "hw/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <optional>
#include <sstream>

#include "hw/isa.hpp"

namespace nlft::hw {

namespace {

struct Token {
  std::string text;
};

std::string toLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string stripComment(const std::string& line) {
  const auto pos = line.find(';');
  return pos == std::string::npos ? line : line.substr(0, pos);
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

// Splits "ldi r1, 42" into the mnemonic and comma-separated operands.
struct Statement {
  std::string mnemonic;
  std::vector<std::string> operands;
};

Statement parseStatement(const std::string& body, int line) {
  Statement statement;
  std::istringstream stream{body};
  stream >> statement.mnemonic;
  statement.mnemonic = toLower(statement.mnemonic);
  std::string rest;
  std::getline(stream, rest);
  rest = trim(rest);
  if (!rest.empty()) {
    std::string current;
    for (char c : rest) {
      if (c == ',') {
        statement.operands.push_back(trim(current));
        current.clear();
      } else {
        current += c;
      }
    }
    statement.operands.push_back(trim(current));
  }
  for (const auto& operand : statement.operands) {
    if (operand.empty()) throw AssemblyError(line, "empty operand");
  }
  return statement;
}

/// Parses a numeric directive operand (decimal, 0x hex or 0 octal) that
/// must be consumed whole and lie in [minimum, 0xffffffff]; the value is
/// returned as its 32-bit pattern.
std::uint32_t parseWord(const std::string& operand, long long minimum, const char* directive,
                        int line) {
  const std::string bad = std::string{"bad "} + directive + " operand '" + operand + "'";
  long long value = 0;
  std::size_t consumed = 0;
  try {
    value = std::stoll(operand, &consumed, 0);
  } catch (const std::exception&) {
    throw AssemblyError(line, bad);
  }
  if (consumed != operand.size()) throw AssemblyError(line, bad);
  if (value < minimum || value > 0xffffffffLL) {
    throw AssemblyError(line, std::string{directive} + " operand out of range: " + operand);
  }
  return static_cast<std::uint32_t>(value);
}

bool isIdentifier(const std::string& s) {
  if (s.empty() || (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_';
  });
}

class Assembler {
 public:
  explicit Assembler(std::string_view source) : source_{source} {}

  Program run() {
    collectLabels();
    emit();
    return std::move(program_);
  }

 private:
  int parseRegister(const std::string& operand, int line) const {
    const std::string s = toLower(operand);
    if (s == "sp") return kStackPointer;
    if (s.size() >= 2 && s[0] == 'r') {
      int value = 0;
      for (std::size_t i = 1; i < s.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
          throw AssemblyError(line, "bad register '" + operand + "'");
        // Once out of range the index stays so; more digits cannot overflow.
        if (value < kRegisterCount) value = value * 10 + (s[i] - '0');
      }
      if (value >= kRegisterCount) throw AssemblyError(line, "register out of range: " + operand);
      return value;
    }
    throw AssemblyError(line, "expected register, got '" + operand + "'");
  }

  std::int32_t parseImmediate(const std::string& operand, int line) const {
    if (isIdentifier(operand)) {
      const auto it = program_.symbols.find(operand);
      if (it == program_.symbols.end()) throw AssemblyError(line, "undefined label '" + operand + "'");
      return static_cast<std::int32_t>(it->second);
    }
    try {
      std::size_t consumed = 0;
      const long value = std::stol(operand, &consumed, 0);
      if (consumed != operand.size()) throw AssemblyError(line, "bad immediate '" + operand + "'");
      if (value < -(1 << 17) || value >= (1 << 17))
        throw AssemblyError(line, "immediate out of 18-bit range: " + operand);
      return static_cast<std::int32_t>(value);
    } catch (const std::invalid_argument&) {
      throw AssemblyError(line, "bad immediate '" + operand + "'");
    } catch (const std::out_of_range&) {
      throw AssemblyError(line, "immediate out of range: " + operand);
    }
  }

  // Parses "[rN]", "[rN+imm]", "[rN-imm]" into base register and offset.
  std::pair<int, std::int32_t> parseMemoryOperand(const std::string& operand, int line) const {
    if (operand.size() < 3 || operand.front() != '[' || operand.back() != ']')
      throw AssemblyError(line, "expected memory operand like [r1+4], got '" + operand + "'");
    const std::string inner = trim(operand.substr(1, operand.size() - 2));
    const auto plus = inner.find_first_of("+-", 1);
    if (plus == std::string::npos) return {parseRegister(trim(inner), line), 0};
    const std::string base = trim(inner.substr(0, plus));
    std::string offset = trim(inner.substr(plus));
    if (offset[0] == '+') offset.erase(0, 1);
    return {parseRegister(base, line), parseImmediate(trim(offset), line)};
  }

  void collectLabels() {
    std::istringstream stream{std::string{source_}};
    std::string raw;
    int number = 0;
    std::uint32_t address = 0;
    bool originSet = false;
    while (std::getline(stream, raw)) {
      ++number;
      std::string body = trim(stripComment(raw));
      for (;;) {
        const auto colon = body.find(':');
        if (colon == std::string::npos) break;
        const std::string prefix = trim(body.substr(0, colon));
        if (!isIdentifier(prefix)) break;
        if (program_.symbols.count(prefix))
          throw AssemblyError(number, "duplicate label '" + prefix + "'");
        program_.symbols[prefix] = address;
        body = trim(body.substr(colon + 1));
      }
      if (body.empty()) continue;
      const Statement statement = parseStatement(body, number);
      if (statement.mnemonic == ".org") {
        if (statement.operands.size() != 1) throw AssemblyError(number, ".org needs one operand");
        if (originSet || address != 0)
          throw AssemblyError(number, ".org must appear before any instruction");
        program_.origin = parseWord(statement.operands[0], 0, ".org", number);
        address = program_.origin;
        originSet = true;
        continue;
      }
      if (statement.mnemonic == ".word") {
        if (statement.operands.empty()) throw AssemblyError(number, ".word needs operands");
        address += 4 * static_cast<std::uint32_t>(statement.operands.size());
        continue;
      }
      if (statement.mnemonic == ".loopbound") continue;  // annotation: no address
      address += 4;
    }
  }

  void emit() {
    std::istringstream stream{std::string{source_}};
    std::string raw;
    int number = 0;
    while (std::getline(stream, raw)) {
      ++number;
      std::string body = trim(stripComment(raw));
      for (;;) {
        const auto colon = body.find(':');
        if (colon == std::string::npos) break;
        const std::string prefix = trim(body.substr(0, colon));
        if (!isIdentifier(prefix)) break;
        body = trim(body.substr(colon + 1));
      }
      if (body.empty()) continue;
      const Statement statement = parseStatement(body, number);
      if (statement.mnemonic == ".org") continue;
      if (statement.mnemonic == ".loopbound") {
        if (statement.operands.size() != 1) throw AssemblyError(number, ".loopbound needs one operand");
        if (pendingLoopBound_) throw AssemblyError(number, "consecutive .loopbound directives");
        pendingLoopBound_ = parseWord(statement.operands[0], 0, ".loopbound", number);
        pendingLoopBoundLine_ = number;
        continue;
      }
      if (statement.mnemonic == ".word") {
        if (pendingLoopBound_)
          throw AssemblyError(number, ".loopbound must precede a branch instruction, not data");
        // Literal data words (constant tables); labels or numeric values.
        for (const std::string& operand : statement.operands) {
          if (isIdentifier(operand)) {
            const auto it = program_.symbols.find(operand);
            if (it == program_.symbols.end())
              throw AssemblyError(number, "undefined label '" + operand + "'");
            program_.words.push_back(it->second);
          } else {
            program_.words.push_back(
                parseWord(operand, std::numeric_limits<std::int32_t>::min(), ".word", number));
          }
        }
        continue;
      }
      const std::uint32_t address =
          program_.origin + 4 * static_cast<std::uint32_t>(program_.words.size());
      program_.words.push_back(encodeStatement(statement, number));
      if (pendingLoopBound_) {
        program_.loopBounds[address] = *pendingLoopBound_;
        pendingLoopBound_.reset();
      }
    }
    if (pendingLoopBound_)
      throw AssemblyError(pendingLoopBoundLine_, ".loopbound at end of program");
  }

  std::uint32_t encodeStatement(const Statement& s, int line) const {
    Instruction inst;
    const auto& ops = s.operands;
    auto need = [&](std::size_t n) {
      if (ops.size() != n)
        throw AssemblyError(line, s.mnemonic + " expects " + std::to_string(n) + " operand(s)");
    };

    if (s.mnemonic == "nop") { need(0); inst.opcode = Opcode::Nop; }
    else if (s.mnemonic == "halt") { need(0); inst.opcode = Opcode::Halt; }
    else if (s.mnemonic == "rts") { need(0); inst.opcode = Opcode::Rts; }
    else if (s.mnemonic == "ldi") {
      need(2);
      inst.opcode = Opcode::Ldi;
      inst.rd = parseRegister(ops[0], line);
      inst.imm = parseImmediate(ops[1], line);
    } else if (s.mnemonic == "ld" || s.mnemonic == "st") {
      need(2);
      inst.opcode = s.mnemonic == "ld" ? Opcode::Ld : Opcode::St;
      inst.rd = parseRegister(ops[0], line);
      const auto [base, offset] = parseMemoryOperand(ops[1], line);
      inst.rs1 = base;
      inst.imm = offset;
    } else if (s.mnemonic == "mov") {
      need(2);
      inst.opcode = Opcode::Mov;
      inst.rd = parseRegister(ops[0], line);
      inst.rs1 = parseRegister(ops[1], line);
    } else if (s.mnemonic == "add" || s.mnemonic == "sub" || s.mnemonic == "mul" ||
               s.mnemonic == "divs" || s.mnemonic == "and" || s.mnemonic == "or" ||
               s.mnemonic == "xor") {
      need(3);
      inst.opcode = s.mnemonic == "add"    ? Opcode::Add
                    : s.mnemonic == "sub"  ? Opcode::Sub
                    : s.mnemonic == "mul"  ? Opcode::Mul
                    : s.mnemonic == "divs" ? Opcode::Divs
                    : s.mnemonic == "and"  ? Opcode::And
                    : s.mnemonic == "or"   ? Opcode::Or
                                           : Opcode::Xor;
      inst.rd = parseRegister(ops[0], line);
      inst.rs1 = parseRegister(ops[1], line);
      inst.rs2 = parseRegister(ops[2], line);
    } else if (s.mnemonic == "shl" || s.mnemonic == "shr" || s.mnemonic == "addi") {
      need(3);
      inst.opcode = s.mnemonic == "shl" ? Opcode::Shl
                    : s.mnemonic == "shr" ? Opcode::Shr
                                          : Opcode::Addi;
      inst.rd = parseRegister(ops[0], line);
      inst.rs1 = parseRegister(ops[1], line);
      inst.imm = parseImmediate(ops[2], line);
    } else if (s.mnemonic == "cmp") {
      need(2);
      inst.opcode = Opcode::Cmp;
      inst.rs1 = parseRegister(ops[0], line);
      inst.rs2 = parseRegister(ops[1], line);
    } else if (s.mnemonic == "cmpi") {
      need(2);
      inst.opcode = Opcode::Cmpi;
      inst.rs1 = parseRegister(ops[0], line);
      inst.imm = parseImmediate(ops[1], line);
    } else if (s.mnemonic == "beq" || s.mnemonic == "bne" || s.mnemonic == "blt" ||
               s.mnemonic == "bge" || s.mnemonic == "jmp" || s.mnemonic == "jsr") {
      need(1);
      inst.opcode = s.mnemonic == "beq"   ? Opcode::Beq
                    : s.mnemonic == "bne" ? Opcode::Bne
                    : s.mnemonic == "blt" ? Opcode::Blt
                    : s.mnemonic == "bge" ? Opcode::Bge
                    : s.mnemonic == "jmp" ? Opcode::Jmp
                                          : Opcode::Jsr;
      inst.imm = parseImmediate(ops[0], line);
    } else if (s.mnemonic == "push" || s.mnemonic == "pop") {
      need(1);
      inst.opcode = s.mnemonic == "push" ? Opcode::Push : Opcode::Pop;
      inst.rd = parseRegister(ops[0], line);
    } else {
      throw AssemblyError(line, "unknown mnemonic '" + s.mnemonic + "'");
    }
    return encode(inst);
  }

  std::string_view source_;
  Program program_;
  std::optional<std::uint32_t> pendingLoopBound_;
  int pendingLoopBoundLine_ = 0;
};

}  // namespace

Program assemble(std::string_view source) { return Assembler{source}.run(); }

}  // namespace nlft::hw
