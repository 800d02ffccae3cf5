// Textual bytecode: the inverse of Disassemble().
//
// One instruction per line in exactly the disassembler's format, e.g.
//
//     0: load FPair slot=0
//     1: getfield FPair._1
//     2: store float[] slot=3
//     3: if_icmp ge ->9
//
// Leading indices are optional and ignored; `#`-prefixed lines and blank
// lines are comments. Parse(Disassemble(code)) == code for every method
// the assembler can produce, so kernels can be stored and loaded as text.
// Only jvm_test parses listings, so the parser lives beside it.
#pragma once

#include <string>
#include <vector>

#include "jvm/instruction.h"

namespace s2fa::jvm {

// Parses a whole code listing; throws MalformedInput with a line number on
// any syntax error.
std::vector<Insn> ParseCode(const std::string& text);

// Parses a single instruction line (no index prefix handling).
Insn ParseInsn(const std::string& line);

}  // namespace s2fa::jvm
