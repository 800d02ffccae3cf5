#include "jvm_text.h"

#include <cstdlib>

#include "support/error.h"
#include "support/strings.h"

namespace s2fa::jvm {

namespace {

// Parses the human-readable type spelling Disassemble uses ("int",
// "float[]", "FPair", ...).
Type ParseTypeName(std::string_view name) {
  if (EndsWith(name, "[]")) {
    return Type::Array(ParseTypeName(name.substr(0, name.size() - 2)));
  }
  if (name == "void") return Type::Void();
  if (name == "boolean") return Type::Boolean();
  if (name == "byte") return Type::Byte();
  if (name == "char") return Type::Char();
  if (name == "short") return Type::Short();
  if (name == "int") return Type::Int();
  if (name == "long") return Type::Long();
  if (name == "float") return Type::Float();
  if (name == "double") return Type::Double();
  S2FA_REQUIRE(!name.empty(), "empty type name");
  return Type::Class(std::string(name));
}

BinOp ParseBinOpName(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(BinOp::kMax); ++i) {
    BinOp op = static_cast<BinOp>(i);
    if (name == BinOpName(op)) return op;
  }
  throw MalformedInput("unknown binop '" + std::string(name) + "'");
}

Cond ParseCondName(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(Cond::kLe); ++i) {
    Cond cond = static_cast<Cond>(i);
    if (name == CondName(cond)) return cond;
  }
  throw MalformedInput("unknown condition '" + std::string(name) + "'");
}

std::int64_t ParseInt(std::string_view token) {
  return std::strtoll(std::string(token).c_str(), nullptr, 10);
}

// Tokenizes on whitespace.
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  for (const std::string& part : Split(line, ' ')) {
    std::string t(Trim(part));
    if (!t.empty()) out.push_back(t);
  }
  return out;
}

// "slot=3" -> 3.
int ParseSlot(const std::string& token) {
  if (!StartsWith(token, "slot=")) {
    throw MalformedInput("expected slot=<n>, got '" + token + "'");
  }
  return static_cast<int>(ParseInt(std::string_view(token).substr(5)));
}

// "->9" -> 9.
std::size_t ParseTarget(const std::string& token) {
  if (!StartsWith(token, "->")) {
    throw MalformedInput("expected -><index>, got '" + token + "'");
  }
  return static_cast<std::size_t>(
      ParseInt(std::string_view(token).substr(2)));
}

// "Owner.member" split at the last dot.
std::pair<std::string, std::string> ParseMemberRef(const std::string& token) {
  std::size_t dot = token.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == token.size()) {
    throw MalformedInput("expected Owner.member, got '" + token + "'");
  }
  return {token.substr(0, dot), token.substr(dot + 1)};
}

void Expect(const std::vector<std::string>& tokens, std::size_t count) {
  if (tokens.size() != count) {
    throw MalformedInput("expected " + std::to_string(count) +
                         " tokens, got " + std::to_string(tokens.size()));
  }
}

}  // namespace

Insn ParseInsn(const std::string& line) {
  std::vector<std::string> tokens = Tokens(line);
  if (tokens.empty()) throw MalformedInput("empty instruction");
  const std::string& op = tokens[0];
  Insn insn{};

  if (op == "const") {
    Expect(tokens, 3);
    insn.op = Opcode::kConst;
    insn.type = ParseTypeName(tokens[1]);
    if (insn.type.is_floating()) {
      insn.const_f = std::strtod(tokens[2].c_str(), nullptr);
    } else {
      insn.const_i = ParseInt(tokens[2]);
    }
    return insn;
  }
  if (op == "load" || op == "store") {
    Expect(tokens, 3);
    insn.op = op == "load" ? Opcode::kLoad : Opcode::kStore;
    insn.type = ParseTypeName(tokens[1]);
    insn.slot = ParseSlot(tokens[2]);
    return insn;
  }
  if (op == "aload_elem" || op == "astore_elem" || op == "newarray" ||
      op == "neg" || op == "return") {
    Expect(tokens, 2);
    insn.op = op == "aload_elem"    ? Opcode::kArrayLoad
              : op == "astore_elem" ? Opcode::kArrayStore
              : op == "newarray"    ? Opcode::kNewArray
              : op == "neg"         ? Opcode::kNeg
                                    : Opcode::kReturn;
    insn.type = ParseTypeName(tokens[1]);
    return insn;
  }
  if (op == "arraylength" || op == "dup" || op == "pop" || op == "swap") {
    Expect(tokens, 1);
    insn.op = op == "arraylength" ? Opcode::kArrayLength
              : op == "dup"       ? Opcode::kDup
              : op == "pop"       ? Opcode::kPop
                                  : Opcode::kSwap;
    return insn;
  }
  if (op == "binop") {
    Expect(tokens, 3);
    insn.op = Opcode::kBinOp;
    insn.type = ParseTypeName(tokens[1]);
    insn.bin_op = ParseBinOpName(tokens[2]);
    return insn;
  }
  if (op == "convert") {
    Expect(tokens, 2);
    std::size_t arrow = tokens[1].find("->");
    if (arrow == std::string::npos) {
      throw MalformedInput("convert needs <from>-><to>");
    }
    insn.op = Opcode::kConvert;
    insn.type = ParseTypeName(std::string_view(tokens[1]).substr(0, arrow));
    insn.type2 =
        ParseTypeName(std::string_view(tokens[1]).substr(arrow + 2));
    return insn;
  }
  if (op == "cmp") {
    Expect(tokens, 3);
    insn.op = Opcode::kCmp;
    insn.type = ParseTypeName(tokens[1]);
    if (tokens[2] != "l" && tokens[2] != "g") {
      throw MalformedInput("cmp needs 'l' or 'g'");
    }
    insn.nan_is_less = tokens[2] == "l";
    return insn;
  }
  if (op == "if" || op == "if_icmp") {
    Expect(tokens, 3);
    insn.op = op == "if" ? Opcode::kIf : Opcode::kIfICmp;
    insn.cond = ParseCondName(tokens[1]);
    insn.target = ParseTarget(tokens[2]);
    return insn;
  }
  if (op == "goto") {
    Expect(tokens, 2);
    insn.op = Opcode::kGoto;
    insn.target = ParseTarget(tokens[1]);
    return insn;
  }
  if (op == "iinc") {
    Expect(tokens, 3);
    insn.op = Opcode::kIInc;
    insn.type = Type::Int();
    insn.slot = ParseSlot(tokens[1]);
    if (!StartsWith(tokens[2], "+")) {
      throw MalformedInput("iinc needs +<delta>");
    }
    insn.const_i = ParseInt(std::string_view(tokens[2]).substr(1));
    return insn;
  }
  if (op == "getfield" || op == "putfield" || op == "new") {
    Expect(tokens, 2);
    if (op == "new") {
      insn.op = Opcode::kNew;
      insn.owner = tokens[1];
      return insn;
    }
    insn.op = op == "getfield" ? Opcode::kGetField : Opcode::kPutField;
    auto [owner, member] = ParseMemberRef(tokens[1]);
    insn.owner = owner;
    insn.member = member;
    return insn;
  }
  if (op == "invoke") {
    Expect(tokens, 3);
    insn.op = Opcode::kInvoke;
    if (tokens[1] == "static") {
      insn.invoke_kind = InvokeKind::kStatic;
    } else if (tokens[1] == "virtual") {
      insn.invoke_kind = InvokeKind::kVirtual;
    } else if (tokens[1] == "special") {
      insn.invoke_kind = InvokeKind::kSpecial;
    } else {
      throw MalformedInput("invoke kind must be static/virtual/special");
    }
    auto [owner, member] = ParseMemberRef(tokens[2]);
    insn.owner = owner;
    insn.member = member;
    return insn;
  }
  throw MalformedInput("unknown opcode '" + op + "'");
}

std::vector<Insn> ParseCode(const std::string& text) {
  std::vector<Insn> code;
  int line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string line(Trim(raw));
    if (line.empty() || line[0] == '#') continue;
    // Strip an optional "<index>:" prefix.
    std::size_t colon = line.find(':');
    if (colon != std::string::npos &&
        line.find_first_not_of("0123456789 ") == colon) {
      line = std::string(Trim(std::string_view(line).substr(colon + 1)));
    }
    try {
      code.push_back(ParseInsn(line));
    } catch (const Error& e) {
      throw MalformedInput("line " + std::to_string(line_no) + ": " +
                           e.what());
    }
  }
  return code;
}

}  // namespace s2fa::jvm
