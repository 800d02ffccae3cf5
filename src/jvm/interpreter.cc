#include "jvm/interpreter.h"

#include <cmath>
#include <functional>
#include <limits>
#include <type_traits>

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

// Java's wrapping `+ - *`, computed in the unsigned type of T's width.
template <typename T, typename Op>
T Wrapping(T x, T y, Op op) {
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(op(static_cast<U>(x), static_cast<U>(y)));
}

// Java's float-to-integer conversion (JLS 5.1.3): NaN gives 0, values
// beyond T's range give its MIN or MAX, the rest truncate toward zero.
template <typename T>
T SaturatingCast(double d) {
  constexpr double kMin = static_cast<double>(std::numeric_limits<T>::min());
  if (std::isnan(d)) return 0;
  if (d <= kMin) return std::numeric_limits<T>::min();
  if (d >= -kMin) return std::numeric_limits<T>::max();
  return static_cast<T>(d);
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

// Truncates an int stack value to the in-memory width of small integrals.
Value NarrowForStore(const Type& type, const Value& v) {
  switch (type.kind()) {
    case TypeKind::kBoolean:
      return Value::OfInt(v.AsInt() != 0 ? 1 : 0);
    case TypeKind::kByte:
      return Value::OfInt(static_cast<std::int8_t>(v.AsInt()));
    case TypeKind::kChar:
      return Value::OfInt(static_cast<std::uint16_t>(v.AsInt()));
    case TypeKind::kShort:
      return Value::OfInt(static_cast<std::int16_t>(v.AsInt()));
    default:
      return v;
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
        v = Value::OfInt(v.AsInt() + static_cast<std::int32_t>(insn.const_i));
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
        obj.slots[static_cast<std::size_t>(index)] =
            NarrowForStore(insn.type, value);
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
          case TypeKind::kInt: {
            std::int32_t x = a.AsInt();
            std::int32_t y = b.AsInt();
            std::int32_t r = 0;
            switch (insn.bin_op) {
              case BinOp::kAdd: r = Wrapping(x, y, std::plus<>()); break;
              case BinOp::kSub: r = Wrapping(x, y, std::minus<>()); break;
              case BinOp::kMul: r = Wrapping(x, y, std::multiplies<>()); break;
              case BinOp::kDiv:
                S2FA_REQUIRE(y != 0, "ArithmeticException: / by zero");
                r = (x == INT32_MIN && y == -1) ? INT32_MIN : x / y;
                break;
              case BinOp::kRem:
                S2FA_REQUIRE(y != 0, "ArithmeticException: % by zero");
                r = (x == INT32_MIN && y == -1) ? 0 : x % y;
                break;
              case BinOp::kShl: r = x << (y & 31); break;
              case BinOp::kShr: r = x >> (y & 31); break;
              case BinOp::kUShr:
                r = static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(x) >> (y & 31));
                break;
              case BinOp::kAnd: r = x & y; break;
              case BinOp::kOr: r = x | y; break;
              case BinOp::kXor: r = x ^ y; break;
              case BinOp::kMin: r = x < y ? x : y; break;
              case BinOp::kMax: r = x > y ? x : y; break;
            }
            stack.push_back(Value::OfInt(r));
            break;
          }
          case TypeKind::kLong: {
            std::int64_t x = a.AsLong();
            std::int64_t y = b.AsLong();
            std::int64_t r = 0;
            switch (insn.bin_op) {
              case BinOp::kAdd: r = Wrapping(x, y, std::plus<>()); break;
              case BinOp::kSub: r = Wrapping(x, y, std::minus<>()); break;
              case BinOp::kMul: r = Wrapping(x, y, std::multiplies<>()); break;
              case BinOp::kDiv:
                S2FA_REQUIRE(y != 0, "ArithmeticException: / by zero");
                r = (x == INT64_MIN && y == -1) ? INT64_MIN : x / y;
                break;
              case BinOp::kRem:
                S2FA_REQUIRE(y != 0, "ArithmeticException: % by zero");
                r = (x == INT64_MIN && y == -1) ? 0 : x % y;
                break;
              case BinOp::kShl: r = x << (b.AsInt() & 63); break;
              case BinOp::kShr: r = x >> (b.AsInt() & 63); break;
              case BinOp::kUShr:
                r = static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(x) >> (b.AsInt() & 63));
                break;
              case BinOp::kAnd: r = x & y; break;
              case BinOp::kOr: r = x | y; break;
              case BinOp::kXor: r = x ^ y; break;
              case BinOp::kMin: r = x < y ? x : y; break;
              case BinOp::kMax: r = x > y ? x : y; break;
            }
            stack.push_back(Value::OfLong(r));
            break;
          }
          case TypeKind::kFloat: {
            float x = a.AsFloat();
            float y = b.AsFloat();
            float r = 0.0f;
            switch (insn.bin_op) {
              case BinOp::kAdd: r = x + y; break;
              case BinOp::kSub: r = x - y; break;
              case BinOp::kMul: r = x * y; break;
              case BinOp::kDiv: r = x / y; break;
              case BinOp::kRem: r = std::fmod(x, y); break;
              case BinOp::kMin: r = JavaFMin(x, y); break;
              case BinOp::kMax: r = JavaFMax(x, y); break;
              default:
                throw MalformedInput("bitwise op on float");
            }
            stack.push_back(Value::OfFloat(r));
            break;
          }
          case TypeKind::kDouble: {
            double x = a.AsDouble();
            double y = b.AsDouble();
            double r = 0.0;
            switch (insn.bin_op) {
              case BinOp::kAdd: r = x + y; break;
              case BinOp::kSub: r = x - y; break;
              case BinOp::kMul: r = x * y; break;
              case BinOp::kDiv: r = x / y; break;
              case BinOp::kRem: r = std::fmod(x, y); break;
              case BinOp::kMin: r = JavaFMin(x, y); break;
              case BinOp::kMax: r = JavaFMax(x, y); break;
              default:
                throw MalformedInput("bitwise op on double");
            }
            stack.push_back(Value::OfDouble(r));
            break;
          }
          default:
            throw MalformedInput("binop on type " + insn.type.ToString());
        }
        break;
      }
      case Opcode::kNeg: {
        Value a = pop();
        switch (insn.type.kind()) {
          case TypeKind::kInt:
            stack.push_back(Value::OfInt(
                Wrapping(std::int32_t{0}, a.AsInt(), std::minus<>())));
            break;
          case TypeKind::kLong:
            stack.push_back(Value::OfLong(
                Wrapping(std::int64_t{0}, a.AsLong(), std::minus<>())));
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
      case Opcode::kConvert: {
        Value a = pop();
        // Integral sources stay integral (l2i keeps the low 32 bits, l2f
        // rounds once); floating sources saturate into integral targets.
        std::int64_t x = 0;
        double d = 0;
        bool integral = true;
        switch (insn.type.kind()) {
          case TypeKind::kInt: x = a.AsInt(); break;
          case TypeKind::kLong: x = a.AsLong(); break;
          case TypeKind::kFloat: d = a.AsFloat(); integral = false; break;
          case TypeKind::kDouble: d = a.AsDouble(); integral = false; break;
          default:
            throw MalformedInput("convert from " + insn.type.ToString());
        }
        const std::int32_t i32 = integral ? static_cast<std::int32_t>(x)
                                          : SaturatingCast<std::int32_t>(d);
        switch (insn.type2.kind()) {
          case TypeKind::kInt:
            stack.push_back(Value::OfInt(i32));
            break;
          case TypeKind::kLong:
            stack.push_back(Value::OfLong(
                integral ? x : SaturatingCast<std::int64_t>(d)));
            break;
          case TypeKind::kFloat:
            stack.push_back(Value::OfFloat(
                integral ? static_cast<float>(x) : static_cast<float>(d)));
            break;
          case TypeKind::kDouble:
            stack.push_back(
                Value::OfDouble(integral ? static_cast<double>(x) : d));
            break;
          case TypeKind::kByte:
            stack.push_back(Value::OfInt(static_cast<std::int8_t>(i32)));
            break;
          case TypeKind::kChar:
            stack.push_back(Value::OfInt(static_cast<std::uint16_t>(i32)));
            break;
          case TypeKind::kShort:
            stack.push_back(Value::OfInt(static_cast<std::int16_t>(i32)));
            break;
          default:
            throw MalformedInput("convert to " + insn.type2.ToString());
        }
        break;
      }
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
            // Java semantics: NaN propagates, -0.0 < +0.0 (fmax/fmin would
            // drop NaN).
            case MathFn::kMax: r = JavaFMax(x, y); break;
            case MathFn::kMin: r = JavaFMin(x, y); break;
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
