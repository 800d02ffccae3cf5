// Fluent bytecode assembler.
//
// Kernel authors (our stand-in for scalac) build method bodies through this
// builder. Labels abstract branch targets; Finish() resolves every label to
// an instruction index and verifies all labels are bound and all branches
// resolved, so downstream passes can assume structurally valid control flow.
#pragma once

#include <cstdint>
#include <vector>

#include "jvm/instruction.h"
#include "jvm/klass.h"

namespace s2fa::jvm {

class Assembler {
 public:
  struct Label {
    std::size_t id = static_cast<std::size_t>(-1);
    bool valid() const { return id != static_cast<std::size_t>(-1); }
  };

  Assembler() = default;

  // --- constants ---
  Assembler& IConst(std::int32_t v);
  Assembler& FConst(float v);
  Assembler& DConst(double v);

  // --- locals ---
  Assembler& Load(const Type& type, int slot);
  Assembler& Store(const Type& type, int slot);
  Assembler& IInc(int slot, std::int32_t delta);

  // --- arrays ---
  Assembler& ALoadElem(const Type& element);
  Assembler& AStoreElem(const Type& element);
  Assembler& NewArray(const Type& element);

  // --- arithmetic ---
  Assembler& Bin(const Type& type, BinOp op);
  Assembler& IAdd() { return Bin(Type::Int(), BinOp::kAdd); }
  Assembler& ISub() { return Bin(Type::Int(), BinOp::kSub); }
  Assembler& IMul() { return Bin(Type::Int(), BinOp::kMul); }
  Assembler& FAdd() { return Bin(Type::Float(), BinOp::kAdd); }
  Assembler& FSub() { return Bin(Type::Float(), BinOp::kSub); }
  Assembler& FMul() { return Bin(Type::Float(), BinOp::kMul); }
  Assembler& FDiv() { return Bin(Type::Float(), BinOp::kDiv); }
  Assembler& DAdd() { return Bin(Type::Double(), BinOp::kAdd); }
  Assembler& DSub() { return Bin(Type::Double(), BinOp::kSub); }
  Assembler& DMul() { return Bin(Type::Double(), BinOp::kMul); }
  Assembler& DDiv() { return Bin(Type::Double(), BinOp::kDiv); }
  Assembler& Neg(const Type& type);
  Assembler& Convert(const Type& from, const Type& to);
  Assembler& Cmp(const Type& type, bool nan_is_less = true);

  // --- control flow ---
  Label NewLabel();
  Assembler& If(Cond cond, Label label);
  Assembler& IfICmp(Cond cond, Label label);
  Assembler& Goto(Label label);
  // Binds `label` to the next emitted instruction.
  Assembler& Bind(Label label);

  // --- objects ---
  Assembler& GetField(const std::string& owner, const std::string& member);
  Assembler& PutField(const std::string& owner, const std::string& member);
  Assembler& New(const std::string& owner);
  Assembler& InvokeVirtual(const std::string& owner, const std::string& member);
  Assembler& InvokeStatic(const std::string& owner, const std::string& member);

  // --- stack / return ---
  Assembler& Pop();
  Assembler& Ret(const Type& type);
  Assembler& RetVoid() { return Ret(Type::Void()); }

  // Resolves labels and returns the code. The assembler is left empty.
  // Throws MalformedInput if any used label is unbound.
  std::vector<Insn> Finish();

  std::size_t size() const { return code_.size(); }

 private:
  Assembler& Emit(Insn insn);

  std::vector<Insn> code_;
  // label id -> bound instruction index (or npos when unbound).
  std::vector<std::size_t> label_pos_;
  // instruction index -> label id, for every emitted branch.
  std::vector<std::pair<std::size_t, std::size_t>> fixups_;
};

// Convenience: builds a Method in one call.
Method MakeMethod(std::string name, MethodSignature signature, bool is_static,
                  int max_locals, std::vector<Insn> code);

}  // namespace s2fa::jvm
