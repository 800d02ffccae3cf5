#include "jvm/interpreter.h"

#include <cmath>
#include <type_traits>

#include "jvm/java_numeric.h"
#include "support/error.h"

namespace s2fa::jvm {

namespace {

constexpr int kMaxCallDepth = 256;

std::int32_t CmpResult(double a, double b, bool nan_is_less) {
  if (std::isnan(a) || std::isnan(b)) return nan_is_less ? -1 : 1;
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

bool EvalCond(Cond cond, std::int32_t value) {
  switch (cond) {
    case Cond::kEq: return value == 0;
    case Cond::kNe: return value != 0;
    case Cond::kLt: return value < 0;
    case Cond::kGe: return value >= 0;
    case Cond::kGt: return value > 0;
    case Cond::kLe: return value <= 0;
  }
  S2FA_UNREACHABLE("bad cond");
}

// An int or long binary op. `b` is an int for the shifts, as on the JVM
// operand stack, and of x's class otherwise.
template <typename T>
T IntegralOp(BinOp op, T x, const Value& b) {
  switch (op) {
    case BinOp::kShl: return java::Shl(x, b.AsInt());
    case BinOp::kShr: return java::Shr(x, b.AsInt());
    case BinOp::kUShr: return java::UShr(x, b.AsInt());
    default: break;
  }
  const T y = static_cast<T>(std::is_same_v<T, std::int64_t> ? b.AsLong()
                                                              : b.AsInt());
  switch (op) {
    case BinOp::kAdd: return java::Add(x, y);
    case BinOp::kSub: return java::Sub(x, y);
    case BinOp::kMul: return java::Mul(x, y);
    case BinOp::kDiv:
      S2FA_REQUIRE(y != 0, "ArithmeticException: / by zero");
      return java::Div(x, y);
    case BinOp::kRem:
      S2FA_REQUIRE(y != 0, "ArithmeticException: % by zero");
      return java::Rem(x, y);
    case BinOp::kAnd: return x & y;
    case BinOp::kOr: return x | y;
    case BinOp::kXor: return x ^ y;
    case BinOp::kMin: return java::Min(x, y);
    case BinOp::kMax: return java::Max(x, y);
    default: S2FA_UNREACHABLE("bad integral binop");
  }
}

// A float or double binary op.
template <typename T>
T FloatingOp(BinOp op, T x, T y, const Type& type) {
  switch (op) {
    case BinOp::kAdd: return x + y;
    case BinOp::kSub: return x - y;
    case BinOp::kMul: return x * y;
    case BinOp::kDiv: return x / y;
    case BinOp::kRem: return std::fmod(x, y);
    case BinOp::kMin: return java::Min(x, y);
    case BinOp::kMax: return java::Max(x, y);
    default:
      throw MalformedInput("bitwise op on " + type.ToString());
  }
}

}  // namespace

Interpreter::Interpreter(const ClassPool& pool, Heap& heap)
    : pool_(pool), heap_(&heap) {}

ExecResult Interpreter::Invoke(const std::string& owner,
                               const std::string& method,
                               std::vector<Value> args) {
  const Method& m = pool_.Get(owner).GetMethod(method);
  steps_ = 0;
  cost_ns_ = 0.0;
  Frame& frame = FrameAt(0);
  frame.locals.assign(static_cast<std::size_t>(m.max_locals), Value());
  S2FA_REQUIRE(args.size() <= frame.locals.size(),
               "too many arguments for " << owner << "." << method);
  // Wide values occupy two slots in the JVM; our Value holds them in one,
  // so we still reserve the second slot to keep slot numbering faithful.
  std::size_t slot = 0;
  std::size_t param_index = 0;
  const std::size_t receiver = m.is_static ? 0 : 1;
  for (const Value& arg : args) {
    frame.locals.at(slot) = arg;
    bool wide = false;
    if (param_index >= receiver) {
      const Type& t = m.signature.params.at(param_index - receiver);
      wide = t.is_wide();
    }
    slot += wide ? 2 : 1;
    ++param_index;
  }
  CallOutcome outcome = Execute(m, 0);
  ExecResult result;
  result.ret = outcome.ret;
  result.steps = steps_;
  result.cost_ns = cost_ns_;
  return result;
}

Interpreter::Frame& Interpreter::FrameAt(int depth) {
  while (frames_.size() <= static_cast<std::size_t>(depth)) {
    frames_.emplace_back();
    frames_.back().stack.reserve(16);
  }
  return frames_[static_cast<std::size_t>(depth)];
}

const std::vector<Interpreter::ResolvedSite>& Interpreter::Resolve(
    const Method& method) {
  auto it = resolved_.find(&method);
  if (it != resolved_.end()) return it->second;
  std::vector<ResolvedSite> sites(method.code.size());
  for (std::size_t i = 0; i < method.code.size(); ++i) {
    const Insn& insn = method.code[i];
    ResolvedSite& site = sites[i];
    site.cost = cost_model_.InsnCost(insn);
    switch (insn.op) {
      case Opcode::kInvoke:
        if (ClassPool::IsMathIntrinsic(insn.owner, insn.member)) {
          site.is_math = true;
          if (insn.member == "exp") site.math = MathFn::kExp;
          else if (insn.member == "log") site.math = MathFn::kLog;
          else if (insn.member == "sqrt") site.math = MathFn::kSqrt;
          else if (insn.member == "abs") site.math = MathFn::kAbs;
          else if (insn.member == "pow") site.math = MathFn::kPow;
          else if (insn.member == "max") site.math = MathFn::kMax;
          else if (insn.member == "min") site.math = MathFn::kMin;
          else throw Unsupported("math intrinsic " + insn.member);
          site.math_binary = site.math == MathFn::kPow ||
                             site.math == MathFn::kMax ||
                             site.math == MathFn::kMin;
          break;
        }
        site.callee = &pool_.Get(insn.owner).GetMethod(insn.member);
        site.pop_receiver = insn.invoke_kind != InvokeKind::kStatic;
        {
          int slot = site.callee->ParamSlotCount();
          S2FA_REQUIRE(slot <= site.callee->max_locals,
                       "parameters exceed max_locals in " << insn.member);
          const auto& params = site.callee->signature.params;
          site.arg_slots.reserve(params.size());
          for (auto pit = params.rbegin(); pit != params.rend(); ++pit) {
            slot -= pit->is_wide() ? 2 : 1;
            S2FA_REQUIRE(slot >= 0,
                         "parameter slots underflow in " << insn.member);
            site.arg_slots.push_back(slot);
          }
        }
        break;
      case Opcode::kGetField:
      case Opcode::kPutField:
        site.field_index = static_cast<std::uint32_t>(
            pool_.Get(insn.owner).FieldIndex(insn.member));
        break;
      case Opcode::kNew:
        site.klass = &pool_.Get(insn.owner);
        break;
      default:
        break;
    }
  }
  return resolved_.emplace(&method, std::move(sites)).first->second;
}

Interpreter::CallOutcome Interpreter::Execute(const Method& method,
                                              int depth) {
  S2FA_REQUIRE(depth < kMaxCallDepth, "call depth exceeded (recursion?)");
  const std::vector<ResolvedSite>& sites = Resolve(method);
  Frame& frame = FrameAt(depth);
  std::vector<Value>& locals = frame.locals;
  std::vector<Value>& stack = frame.stack;
  stack.clear();
  std::size_t pc = 0;

  auto pop = [&]() -> Value {
    S2FA_CHECK(!stack.empty(), "operand stack underflow in " << method.name);
    Value v = stack.back();
    stack.pop_back();
    return v;
  };

  for (;;) {
    S2FA_CHECK(pc < method.code.size(),
               "pc out of range in " << method.name);
    const Insn& insn = method.code[pc];
    const ResolvedSite& site = sites[pc];
    if (++steps_ > max_steps_) {
      throw InternalError("interpreter step budget exceeded in " +
                          method.name);
    }
    cost_ns_ += site.cost;

    switch (insn.op) {
      case Opcode::kConst:
        switch (insn.type.kind()) {
          case TypeKind::kInt:
            stack.push_back(
                Value::OfInt(static_cast<std::int32_t>(insn.const_i)));
            break;
          case TypeKind::kLong:
            stack.push_back(Value::OfLong(insn.const_i));
            break;
          case TypeKind::kFloat:
            stack.push_back(Value::OfFloat(static_cast<float>(insn.const_f)));
            break;
          case TypeKind::kDouble:
            stack.push_back(Value::OfDouble(insn.const_f));
            break;
          default:
            throw MalformedInput("const of type " + insn.type.ToString());
        }
        break;
      case Opcode::kLoad:
        stack.push_back(locals.at(static_cast<std::size_t>(insn.slot)));
        break;
      case Opcode::kStore:
        locals.at(static_cast<std::size_t>(insn.slot)) = pop();
        break;
      case Opcode::kIInc: {
        Value& v = locals.at(static_cast<std::size_t>(insn.slot));
        v = Value::OfInt(
            java::Add(v.AsInt(), static_cast<std::int32_t>(insn.const_i)));
        break;
      }
      case Opcode::kArrayLoad: {
        std::int32_t index = pop().AsInt();
        Ref ref = pop().AsRef();
        const Object& obj = heap_->Get(ref);
        S2FA_CHECK(obj.kind == Object::Kind::kArray,
                   "array load on instance");
        S2FA_REQUIRE(index >= 0 &&
                         static_cast<std::size_t>(index) < obj.slots.size(),
                     "ArrayIndexOutOfBounds: " << index << " of "
                                               << obj.slots.size());
        stack.push_back(obj.slots[static_cast<std::size_t>(index)]);
        break;
      }
      case Opcode::kArrayStore: {
        Value value = pop();
        std::int32_t index = pop().AsInt();
        Ref ref = pop().AsRef();
        Object& obj = heap_->Get(ref);
        S2FA_CHECK(obj.kind == Object::Kind::kArray,
                   "array store on instance");
        S2FA_REQUIRE(index >= 0 &&
                         static_cast<std::size_t>(index) < obj.slots.size(),
                     "ArrayIndexOutOfBounds: " << index << " of "
                                               << obj.slots.size());
        // boolean, byte, char and short elements keep their width.
        const bool narrow =
            insn.type.is_integral() && insn.type.bit_width() < 32;
        obj.slots[static_cast<std::size_t>(index)] =
            narrow ? java::Convert(insn.type.kind(), value) : value;
        break;
      }
      case Opcode::kNewArray: {
        std::int32_t length = pop().AsInt();
        S2FA_REQUIRE(length >= 0, "NegativeArraySize: " << length);
        Ref ref = heap_->NewArray(Type::Array(insn.type),
                                  static_cast<std::size_t>(length));
        cost_ns_ += cost_model_.AllocCost(
            static_cast<double>(length) * insn.type.bit_width() / 8.0);
        stack.push_back(Value::OfRef(ref));
        break;
      }
      case Opcode::kArrayLength: {
        Ref ref = pop().AsRef();
        stack.push_back(Value::OfInt(
            static_cast<std::int32_t>(heap_->Get(ref).slots.size())));
        break;
      }
      case Opcode::kBinOp: {
        Value b = pop();
        Value a = pop();
        switch (insn.type.kind()) {
          case TypeKind::kInt:
            stack.push_back(
                Value::OfInt(IntegralOp(insn.bin_op, a.AsInt(), b)));
            break;
          case TypeKind::kLong:
            stack.push_back(
                Value::OfLong(IntegralOp(insn.bin_op, a.AsLong(), b)));
            break;
          case TypeKind::kFloat:
            stack.push_back(Value::OfFloat(FloatingOp(
                insn.bin_op, a.AsFloat(), b.AsFloat(), insn.type)));
            break;
          case TypeKind::kDouble:
            stack.push_back(Value::OfDouble(FloatingOp(
                insn.bin_op, a.AsDouble(), b.AsDouble(), insn.type)));
            break;
          default:
            throw MalformedInput("binop on type " + insn.type.ToString());
        }
        break;
      }
      case Opcode::kNeg: {
        Value a = pop();
        switch (insn.type.kind()) {
          case TypeKind::kInt:
            stack.push_back(Value::OfInt(java::Neg(a.AsInt())));
            break;
          case TypeKind::kLong:
            stack.push_back(Value::OfLong(java::Neg(a.AsLong())));
            break;
          case TypeKind::kFloat:
            stack.push_back(Value::OfFloat(-a.AsFloat()));
            break;
          case TypeKind::kDouble:
            stack.push_back(Value::OfDouble(-a.AsDouble()));
            break;
          default:
            throw MalformedInput("neg on type " + insn.type.ToString());
        }
        break;
      }
      case Opcode::kConvert:
        // The verifier typed the operand as insn.type.
        stack.push_back(java::Convert(insn.type2.kind(), pop()));
        break;
      case Opcode::kCmp: {
        Value b = pop();
        Value a = pop();
        double x, y;
        if (insn.type.kind() == TypeKind::kLong) {
          std::int64_t la = a.AsLong();
          std::int64_t lb = b.AsLong();
          stack.push_back(Value::OfInt(la < lb ? -1 : la > lb ? 1 : 0));
          break;
        }
        if (insn.type.kind() == TypeKind::kFloat) {
          x = a.AsFloat();
          y = b.AsFloat();
        } else {
          x = a.AsDouble();
          y = b.AsDouble();
        }
        stack.push_back(Value::OfInt(CmpResult(x, y, insn.nan_is_less)));
        break;
      }
      case Opcode::kIf: {
        std::int32_t v = pop().AsInt();
        if (EvalCond(insn.cond, v)) {
          pc = insn.target;
          continue;
        }
        break;
      }
      case Opcode::kIfICmp: {
        std::int32_t b = pop().AsInt();
        std::int32_t a = pop().AsInt();
        std::int32_t d = a < b ? -1 : a > b ? 1 : 0;
        if (EvalCond(insn.cond, d)) {
          pc = insn.target;
          continue;
        }
        break;
      }
      case Opcode::kGoto:
        pc = insn.target;
        continue;
      case Opcode::kGetField: {
        Ref ref = pop().AsRef();
        const Object& obj = heap_->Get(ref);
        S2FA_CHECK(obj.kind == Object::Kind::kInstance,
                   "getfield on array");
        stack.push_back(obj.slots.at(site.field_index));
        break;
      }
      case Opcode::kPutField: {
        Value value = pop();
        Ref ref = pop().AsRef();
        Object& obj = heap_->Get(ref);
        S2FA_CHECK(obj.kind == Object::Kind::kInstance,
                   "putfield on array");
        obj.slots.at(site.field_index) = value;
        break;
      }
      case Opcode::kNew: {
        const Klass& k = *site.klass;
        Ref ref = heap_->NewInstance(Type::Class(insn.owner),
                                     k.fields().size());
        cost_ns_ +=
            cost_model_.AllocCost(16.0 + 8.0 * k.fields().size());
        stack.push_back(Value::OfRef(ref));
        break;
      }
      case Opcode::kInvoke: {
        if (site.is_math) {
          double y = 0.0;
          if (site.math_binary) y = pop().AsDouble();
          double x = pop().AsDouble();
          double r = 0.0;
          switch (site.math) {
            case MathFn::kExp: r = std::exp(x); break;
            case MathFn::kLog: r = std::log(x); break;
            case MathFn::kSqrt: r = std::sqrt(x); break;
            case MathFn::kAbs: r = std::fabs(x); break;
            case MathFn::kPow: r = std::pow(x, y); break;
            case MathFn::kMax: r = java::Max(x, y); break;
            case MathFn::kMin: r = java::Min(x, y); break;
          }
          stack.push_back(Value::OfDouble(r));
          break;
        }
        const Method& callee = *site.callee;
        Frame& callee_frame = FrameAt(depth + 1);
        callee_frame.locals.assign(
            static_cast<std::size_t>(callee.max_locals), Value());
        // Pop arguments right-to-left into their resolved local slots.
        for (std::int32_t arg_slot : site.arg_slots) {
          callee_frame.locals[static_cast<std::size_t>(arg_slot)] = pop();
        }
        if (site.pop_receiver) callee_frame.locals[0] = pop();
        CallOutcome sub = Execute(callee, depth + 1);
        if (sub.has_ret) stack.push_back(sub.ret);
        break;
      }
      case Opcode::kReturn: {
        CallOutcome out;
        if (!insn.type.is_void()) {
          out.ret = pop();
          out.has_ret = true;
        }
        return out;
      }
      case Opcode::kDup:
        S2FA_CHECK(!stack.empty(), "dup on empty stack");
        stack.push_back(stack.back());
        break;
      case Opcode::kPop:
        pop();
        break;
      case Opcode::kSwap: {
        Value b = pop();
        Value a = pop();
        stack.push_back(b);
        stack.push_back(a);
        break;
      }
    }
    ++pc;
  }
}

}  // namespace s2fa::jvm
