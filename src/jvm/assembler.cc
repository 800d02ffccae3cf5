#include "jvm/assembler.h"

#include "support/error.h"

namespace s2fa::jvm {

namespace {
constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
}

Assembler& Assembler::Emit(Insn insn) {
  code_.push_back(std::move(insn));
  return *this;
}

Assembler& Assembler::IConst(std::int32_t v) {
  Insn i{};
  i.op = Opcode::kConst;
  i.type = Type::Int();
  i.const_i = v;
  return Emit(i);
}

Assembler& Assembler::FConst(float v) {
  Insn i{};
  i.op = Opcode::kConst;
  i.type = Type::Float();
  i.const_f = v;
  return Emit(i);
}

Assembler& Assembler::DConst(double v) {
  Insn i{};
  i.op = Opcode::kConst;
  i.type = Type::Double();
  i.const_f = v;
  return Emit(i);
}

Assembler& Assembler::Load(const Type& type, int slot) {
  S2FA_REQUIRE(slot >= 0, "negative local slot");
  Insn i{};
  i.op = Opcode::kLoad;
  i.type = type;
  i.slot = slot;
  return Emit(i);
}

Assembler& Assembler::Store(const Type& type, int slot) {
  S2FA_REQUIRE(slot >= 0, "negative local slot");
  Insn i{};
  i.op = Opcode::kStore;
  i.type = type;
  i.slot = slot;
  return Emit(i);
}

Assembler& Assembler::IInc(int slot, std::int32_t delta) {
  Insn i{};
  i.op = Opcode::kIInc;
  i.type = Type::Int();
  i.slot = slot;
  i.const_i = delta;
  return Emit(i);
}

Assembler& Assembler::ALoadElem(const Type& element) {
  Insn i{};
  i.op = Opcode::kArrayLoad;
  i.type = element;
  return Emit(i);
}

Assembler& Assembler::AStoreElem(const Type& element) {
  Insn i{};
  i.op = Opcode::kArrayStore;
  i.type = element;
  return Emit(i);
}

Assembler& Assembler::NewArray(const Type& element) {
  Insn i{};
  i.op = Opcode::kNewArray;
  i.type = element;
  return Emit(i);
}

Assembler& Assembler::Bin(const Type& type, BinOp op) {
  Insn i{};
  i.op = Opcode::kBinOp;
  i.type = type;
  i.bin_op = op;
  return Emit(i);
}

Assembler& Assembler::Neg(const Type& type) {
  Insn i{};
  i.op = Opcode::kNeg;
  i.type = type;
  return Emit(i);
}

Assembler& Assembler::Convert(const Type& from, const Type& to) {
  Insn i{};
  i.op = Opcode::kConvert;
  i.type = from;
  i.type2 = to;
  return Emit(i);
}

Assembler& Assembler::Cmp(const Type& type, bool nan_is_less) {
  Insn i{};
  i.op = Opcode::kCmp;
  i.type = type;
  i.nan_is_less = nan_is_less;
  return Emit(i);
}

Assembler::Label Assembler::NewLabel() {
  label_pos_.push_back(kUnbound);
  return Label{label_pos_.size() - 1};
}

Assembler& Assembler::If(Cond cond, Label label) {
  S2FA_REQUIRE(label.valid() && label.id < label_pos_.size(), "bad label");
  Insn i{};
  i.op = Opcode::kIf;
  i.cond = cond;
  fixups_.emplace_back(code_.size(), label.id);
  return Emit(i);
}

Assembler& Assembler::IfICmp(Cond cond, Label label) {
  S2FA_REQUIRE(label.valid() && label.id < label_pos_.size(), "bad label");
  Insn i{};
  i.op = Opcode::kIfICmp;
  i.cond = cond;
  fixups_.emplace_back(code_.size(), label.id);
  return Emit(i);
}

Assembler& Assembler::Goto(Label label) {
  S2FA_REQUIRE(label.valid() && label.id < label_pos_.size(), "bad label");
  Insn i{};
  i.op = Opcode::kGoto;
  fixups_.emplace_back(code_.size(), label.id);
  return Emit(i);
}

Assembler& Assembler::Bind(Label label) {
  S2FA_REQUIRE(label.valid() && label.id < label_pos_.size(), "bad label");
  S2FA_REQUIRE(label_pos_[label.id] == kUnbound,
               "label " << label.id << " bound twice");
  label_pos_[label.id] = code_.size();
  return *this;
}

Assembler& Assembler::GetField(const std::string& owner,
                               const std::string& member) {
  Insn i{};
  i.op = Opcode::kGetField;
  i.owner = owner;
  i.member = member;
  return Emit(i);
}

Assembler& Assembler::PutField(const std::string& owner,
                               const std::string& member) {
  Insn i{};
  i.op = Opcode::kPutField;
  i.owner = owner;
  i.member = member;
  return Emit(i);
}

Assembler& Assembler::New(const std::string& owner) {
  Insn i{};
  i.op = Opcode::kNew;
  i.owner = owner;
  return Emit(i);
}

Assembler& Assembler::InvokeVirtual(const std::string& owner,
                                    const std::string& member) {
  Insn i{};
  i.op = Opcode::kInvoke;
  i.invoke_kind = InvokeKind::kVirtual;
  i.owner = owner;
  i.member = member;
  return Emit(i);
}

Assembler& Assembler::InvokeStatic(const std::string& owner,
                                   const std::string& member) {
  Insn i{};
  i.op = Opcode::kInvoke;
  i.invoke_kind = InvokeKind::kStatic;
  i.owner = owner;
  i.member = member;
  return Emit(i);
}

Assembler& Assembler::Pop() {
  Insn i{};
  i.op = Opcode::kPop;
  return Emit(i);
}

Assembler& Assembler::Ret(const Type& type) {
  Insn i{};
  i.op = Opcode::kReturn;
  i.type = type;
  return Emit(i);
}

std::vector<Insn> Assembler::Finish() {
  for (const auto& [index, label_id] : fixups_) {
    if (label_pos_[label_id] == kUnbound) {
      throw MalformedInput("branch at instruction " + std::to_string(index) +
                           " targets unbound label " +
                           std::to_string(label_id));
    }
    code_[index].target = label_pos_[label_id];
  }
  fixups_.clear();
  label_pos_.clear();
  std::vector<Insn> out;
  out.swap(code_);
  return out;
}

Method MakeMethod(std::string name, MethodSignature signature, bool is_static,
                  int max_locals, std::vector<Insn> code) {
  Method m;
  m.name = std::move(name);
  m.signature = std::move(signature);
  m.is_static = is_static;
  m.max_locals = max_locals;
  m.code = std::move(code);
  S2FA_REQUIRE(m.max_locals >= m.ParamSlotCount(),
               "max_locals " << m.max_locals << " smaller than parameter slots "
                             << m.ParamSlotCount() << " in " << m.name);
  return m;
}

}  // namespace s2fa::jvm
