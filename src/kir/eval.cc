#include "kir/eval.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <type_traits>
#include <utility>

#include "jvm/java_numeric.h"
#include "support/error.h"

namespace s2fa::kir {

namespace java = jvm::java;

namespace {

constexpr std::uint64_t kMaxSteps = 2'000'000'000ULL;

// Lane-private buffer copies are capped per program so one chunk's scratch
// stays small; a kernel needing more runs its task loop at width 1.
constexpr std::int64_t kMaxPrivateBytes = std::int64_t{1} << 20;

// A boxed number read as int64 or double, converted as Java does.
double ToDouble(const Value& v) { return jvm::FromValue<double>(v); }
std::int64_t ToInt64(const Value& v) { return jvm::FromValue<std::int64_t>(v); }

// `d` in the storage class of `kind` (a literal or an intrinsic's result).
Value FromDouble(TypeKind kind, double d) {
  return jvm::WithStorage(jvm::StorageOf(kind), [d](auto zero) {
    return jvm::ToValue(java::Cast<decltype(zero)>(d));
  });
}

// Comparison with exact integral semantics: two longs must compare by
// value, not by their nearest double (above 2^53 adjacent longs collapse
// to the same double and used to compare equal).
bool CompareValues(BinaryOp op, bool integral, const Value& a,
                   const Value& b) {
  if (integral) {
    const std::int64_t x = ToInt64(a);
    const std::int64_t y = ToInt64(b);
    switch (op) {
      case BinaryOp::kLt: return x < y;
      case BinaryOp::kLe: return x <= y;
      case BinaryOp::kGt: return x > y;
      case BinaryOp::kGe: return x >= y;
      case BinaryOp::kEq: return x == y;
      case BinaryOp::kNe: return x != y;
      default: return false;
    }
  }
  const double x = ToDouble(a);
  const double y = ToDouble(b);
  switch (op) {
    case BinaryOp::kLt: return x < y;
    case BinaryOp::kLe: return x <= y;
    case BinaryOp::kGt: return x > y;
    case BinaryOp::kGe: return x >= y;
    case BinaryOp::kEq: return x == y;
    case BinaryOp::kNe: return x != y;
    default: return false;
  }
}

// Floating binary arithmetic in the operand precision; min/max are Java's
// (java::Min/Max), matching the Math.min/max bytecode they came from.
template <typename T>
T ApplyFloatBin(BinaryOp op, T x, T y) {
  switch (op) {
    case BinaryOp::kAdd: return x + y;
    case BinaryOp::kSub: return x - y;
    case BinaryOp::kMul: return x * y;
    case BinaryOp::kDiv: return x / y;
    case BinaryOp::kRem: return std::fmod(x, y);
    case BinaryOp::kMin: return java::Min(x, y);
    case BinaryOp::kMax: return java::Max(x, y);
    default:
      throw InternalError("bitwise op on float in evaluator");
  }
}

// Integral arithmetic in int64: int operands arrive sign-extended and the
// caller narrows the result, which gives Java's int result for every op;
// the shifts take an int's count mask when `wide` is false.
std::int64_t ApplyIntBin(BinaryOp op, bool wide, std::int64_t x,
                         std::int64_t y) {
  const auto narrow = static_cast<std::int32_t>(x);
  switch (op) {
    case BinaryOp::kAdd: return java::Add(x, y);
    case BinaryOp::kSub: return java::Sub(x, y);
    case BinaryOp::kMul: return java::Mul(x, y);
    case BinaryOp::kDiv:
      S2FA_REQUIRE(y != 0, "division by zero in kernel");
      return java::Div(x, y);
    case BinaryOp::kRem:
      S2FA_REQUIRE(y != 0, "remainder by zero in kernel");
      return java::Rem(x, y);
    case BinaryOp::kShl: return wide ? java::Shl(x, y) : java::Shl(narrow, y);
    case BinaryOp::kShr: return wide ? java::Shr(x, y) : java::Shr(narrow, y);
    case BinaryOp::kUShr:
      return wide ? java::UShr(x, y) : java::UShr(narrow, y);
    case BinaryOp::kAnd: return x & y;
    case BinaryOp::kOr: return x | y;
    case BinaryOp::kXor: return x ^ y;
    case BinaryOp::kMin: return java::Min(x, y);
    case BinaryOp::kMax: return java::Max(x, y);
    default:
      throw InternalError("unhandled int binop");
  }
}

Value ApplyIntrinsic(Intrinsic fn, TypeKind result, double x, double y) {
  if (result == TypeKind::kFloat) {
    // Match C's f-suffixed functions: compute in float.
    float fx = static_cast<float>(x);
    float fy = static_cast<float>(y);
    switch (fn) {
      case Intrinsic::kExp: return Value::OfFloat(std::exp(fx));
      case Intrinsic::kLog: return Value::OfFloat(std::log(fx));
      case Intrinsic::kSqrt: return Value::OfFloat(std::sqrt(fx));
      case Intrinsic::kAbs: return Value::OfFloat(std::fabs(fx));
      case Intrinsic::kPow: return Value::OfFloat(std::pow(fx, fy));
    }
    S2FA_UNREACHABLE("bad intrinsic");
  }
  auto compute = [&]() -> double {
    switch (fn) {
      case Intrinsic::kExp: return std::exp(x);
      case Intrinsic::kLog: return std::log(x);
      case Intrinsic::kSqrt: return std::sqrt(x);
      case Intrinsic::kAbs: return std::fabs(x);
      case Intrinsic::kPow: return std::pow(x, y);
    }
    S2FA_UNREACHABLE("bad intrinsic");
  };
  return FromDouble(result, compute());
}

Value ApplyUnary(UnaryOp op, TypeKind operand, const Value& a) {
  switch (op) {
    case UnaryOp::kNeg:
      return jvm::WithStorage(jvm::StorageOf(operand), [&a](auto zero) {
        return jvm::ToValue(java::Neg(jvm::FromValue<decltype(zero)>(a)));
      });
    case UnaryOp::kBitNot:
      if (operand == TypeKind::kLong) return Value::OfLong(~ToInt64(a));
      return Value::OfInt(static_cast<std::int32_t>(~ToInt64(a)));
    case UnaryOp::kLogicalNot:
      return Value::OfInt(ToInt64(a) == 0 ? 1 : 0);
  }
  S2FA_UNREACHABLE("bad unary op");
}

// Run-time checks shared by both evaluators, so a failing kernel raises the
// same exception type and message from either.
void CheckReadIndex(std::int64_t index, std::size_t size,
                    const std::string& buffer) {
  S2FA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < size,
               "index " << index << " out of bounds for buffer " << buffer
                        << " (size " << size << ")");
}

void CheckWriteIndex(std::int64_t index, std::size_t size,
                     const std::string& buffer) {
  S2FA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < size,
               "write index " << index << " out of bounds for buffer "
                              << buffer);
}

void CheckBound(bool bound, const std::string& name) {
  S2FA_CHECK(bound, "unbound variable " << name);
}

void CheckScalarGiven(bool given, const std::string& name) {
  S2FA_REQUIRE(given, "missing scalar argument " << name);
}

void CheckBufferGiven(BufferKind kind, const std::string& name) {
  S2FA_REQUIRE(kind != BufferKind::kInput, "missing input buffer " << name);
}

}  // namespace

// --------------------------------------------------------------------------
// Lane program: the compiled, immutable form of a kernel.
// --------------------------------------------------------------------------

namespace {
namespace lane {

// Storage class of a column: every IR value lives in one of these four.
// boolean/byte/char/short/int share int32, as they do on the JVM stack.
// They are the device buffers' classes too (jvm::PrimitiveArray).
using Kind = jvm::Storage;

// Numeric domain of a binary op, classified from its first operand's type
// exactly as ReferenceEvaluator does per node.
enum class BinForm : std::uint8_t {
  kCmpInt,    // comparison, integral operands (exact int64 compare)
  kCmpFloat,  // comparison, floating operands (double compare)
  kLogical,   // kLAnd / kLOr
  kFloat32,   // float arithmetic (computed in float)
  kFloat64,   // double arithmetic
  kInt32,     // int-family arithmetic (computed in int64, narrowed)
  kInt64,     // long arithmetic
};

BinForm FormOf(const Expr& e) {
  const Type& t = e.operands()[0]->type();
  const BinaryOp op = e.binary_op();
  if (IsComparison(op)) {
    return t.is_integral() ? BinForm::kCmpInt : BinForm::kCmpFloat;
  }
  if (op == BinaryOp::kLAnd || op == BinaryOp::kLOr) return BinForm::kLogical;
  if (t.kind() == TypeKind::kFloat) return BinForm::kFloat32;
  if (t.kind() == TypeKind::kDouble) return BinForm::kFloat64;
  if (t.kind() == TypeKind::kLong) return BinForm::kInt64;
  return BinForm::kInt32;
}

Kind KindOfForm(BinForm form) {
  switch (form) {
    case BinForm::kFloat32: return Kind::kF32;
    case BinForm::kFloat64: return Kind::kF64;
    case BinForm::kInt64: return Kind::kI64;
    default: return Kind::kI32;
  }
}

// Binary op on Values, for the accumulator fold (lane order, one lane at a
// time) -- the reference evaluator's arithmetic, verbatim.
Value ApplyBinary(BinForm form, BinaryOp op, const Value& a, const Value& b) {
  switch (form) {
    case BinForm::kCmpInt:
      return Value::OfInt(CompareValues(op, true, a, b) ? 1 : 0);
    case BinForm::kCmpFloat:
      return Value::OfInt(CompareValues(op, false, a, b) ? 1 : 0);
    case BinForm::kLogical:
      if (op == BinaryOp::kLAnd) {
        return Value::OfInt((ToInt64(a) != 0 && ToInt64(b) != 0) ? 1 : 0);
      }
      return Value::OfInt((ToInt64(a) != 0 || ToInt64(b) != 0) ? 1 : 0);
    case BinForm::kFloat32:
      return Value::OfFloat(
          ApplyFloatBin<float>(op, static_cast<float>(ToDouble(a)),
                               static_cast<float>(ToDouble(b))));
    case BinForm::kFloat64:
      return Value::OfDouble(ApplyFloatBin<double>(op, ToDouble(a),
                                                   ToDouble(b)));
    case BinForm::kInt64:
      return Value::OfLong(ApplyIntBin(op, true, ToInt64(a), ToInt64(b)));
    case BinForm::kInt32:
      return Value::OfInt(static_cast<std::int32_t>(
          ApplyIntBin(op, false, ToInt64(a), ToInt64(b))));
  }
  S2FA_UNREACHABLE("bad binary form");
}

// Where a node's result lives: a scratch column (variables and
// temporaries) or the program's constant pool. A uniform operand holds one
// value at element 0 shared by every lane; a varying one holds a value per
// lane.
enum class Space : std::uint8_t { kReg, kConst };

struct Operand {
  Space space = Space::kConst;
  Kind kind = Kind::kI32;
  bool varying = false;
  std::int32_t index = 0;  // column number within `kind`, or pool index
};

enum class NodeOp : std::uint8_t {
  kConst,
  kVar,
  kLoad,
  kBinary,
  kUnary,
  kCall,
  kConvert,  // kCast, and the uncharged operand coercions of other nodes
  kSelect,
};

struct Node {
  NodeOp op = NodeOp::kConst;
  bool charge = true;        // counts one step per active lane
  bool check_bound = false;  // kVar: the variable may be unbound here
  bool priv = false;         // kLoad: from a lane-private buffer copy
  BinForm form = BinForm::kInt32;
  BinaryOp bop = BinaryOp::kAdd;
  UnaryOp uop = UnaryOp::kNeg;
  Intrinsic fn = Intrinsic::kExp;
  // kConvert target, kCall result, kUnary operand type.
  TypeKind type = TypeKind::kInt;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;
  std::int32_t id = -1;     // kVar: variable; kLoad: buffer or private copy
  std::int32_t depth = 0;   // kSelect: mask-slot pair of its arms
  Operand out;
};

enum class StmtOp : std::uint8_t {
  kBlock,
  kSetVar,      // scalar assignment or declaration
  kStore,       // buffer element assignment
  kIf,
  kFor,
  kAccumulate,  // `acc = acc op X` on the lane path: X is parked per lane
  kLaneLoop,    // the task loop, run chunk by chunk across lanes
};

struct SNode {
  StmtOp op = StmtOp::kBlock;
  TypeKind store = TypeKind::kInt;  // kSetVar / kStore narrowing type
  bool priv = false;                // kStore into a lane-private copy
  bool varying = false;             // kFor: the counter is per lane
  std::int32_t value = -1;          // rhs / init / condition / X
  std::int32_t index = -1;          // kStore index
  std::int32_t id = -1;             // variable, buffer/private copy, or
                                    // accumulator
  std::int32_t body = -1;
  std::int32_t els = -1;
  std::int32_t depth = 0;           // kIf: mask-slot pair of its branches
  std::int32_t overwrites = -1;     // kFor: private copy it fully writes
  std::int64_t trip = 0;
  Operand dflt;                     // kSetVar of a declaration without init
  std::vector<std::int32_t> stmts;  // kBlock
};

struct VarInfo {
  std::string name;
  Kind kind = Kind::kI32;
  std::int32_t reg = 0;
};

struct BufferInfo {
  std::string name;
  BufferKind kind = BufferKind::kInput;
  Kind element = Kind::kI32;
  std::int64_t length = 0;
};

// `acc = acc op X` folded in lane order at the end of each chunk.
struct Accumulator {
  std::int32_t var = -1;
  TypeKind store = TypeKind::kInt;
  BinForm form = BinForm::kInt32;
  BinaryOp bop = BinaryOp::kAdd;
  Operand pending;  // X per lane
};

// A local buffer the task body fully overwrites before using; each lane
// works on its own copy.
struct PrivateCopy {
  std::int32_t buffer = -1;
  Kind kind = Kind::kI32;
  std::int64_t length = 0;
};

struct LaneLoop {
  std::vector<std::int32_t> vars;  // lane loop counters, outer first
  std::int64_t outer_trip = 0;
  std::int64_t inner_trip = 1;     // point-loop trip when tiled
  bool accumulates = false;        // the body updates an accumulator
  // The scalar N of a `task < N` guard around every accumulator update,
  // or -1: padded lanes may then be skipped only when N is the live count.
  std::int32_t guard = -1;
};

template <typename T>
struct Tag {
  using type = T;
};

template <typename F>
void WithKind(Kind k, F&& f) {
  switch (k) {
    case Kind::kI32: return f(Tag<std::int32_t>{});
    case Kind::kI64: return f(Tag<std::int64_t>{});
    case Kind::kF32: return f(Tag<float>{});
    case Kind::kF64: return f(Tag<double>{});
  }
  S2FA_UNREACHABLE("bad column kind");
}

template <typename F>
void WithIntKind(Kind k, F&& f) {
  if (k == Kind::kI64) return f(Tag<std::int64_t>{});
  S2FA_CHECK(k == Kind::kI32, "integral operand expected");
  return f(Tag<std::int32_t>{});
}

}  // namespace lane
}  // namespace

class LaneProgram {
 public:
  std::vector<lane::VarInfo> vars;
  std::vector<lane::BufferInfo> buffers;
  std::vector<std::int32_t> scalar_vars;  // kernel scalar i -> variable
  std::vector<lane::Node> nodes;
  std::vector<lane::SNode> stmts;
  std::int32_t root = -1;
  std::vector<std::int32_t> const_i32;
  std::vector<std::int64_t> const_i64;
  std::vector<float> const_f32;
  std::vector<double> const_f64;
  std::int32_t columns[4] = {0, 0, 0, 0};  // per lane::Kind
  std::int32_t mask_slots = 0;
  int width = 1;  // lanes per chunk: min(kLaneChunk, lanes) on the lane path
  lane::LaneLoop lanes;
  std::vector<lane::Accumulator> accumulators;
  std::vector<lane::PrivateCopy> privates;
};

// --------------------------------------------------------------------------
// Lane compiler: typing, the independence check, and code generation.
// --------------------------------------------------------------------------

namespace {
namespace lane {

// An integer-affine index: sum(coef[v] * v) + constant.
struct Affine {
  std::map<std::string, std::int64_t> coef;
  std::int64_t constant = 0;
};

bool ToAffine(const Expr& e, Affine* out) {
  switch (e.kind()) {
    case ExprKind::kIntLit:
      if (!e.type().is_integral()) return false;
      *out = Affine{};
      out->constant = e.int_value();
      return true;
    case ExprKind::kVar:
      *out = Affine{};
      out->coef[e.name()] = 1;
      return true;
    case ExprKind::kBinary: {
      const BinaryOp op = e.binary_op();
      if (op != BinaryOp::kAdd && op != BinaryOp::kSub &&
          op != BinaryOp::kMul) {
        return false;
      }
      Affine a, b;
      if (!ToAffine(*e.operands()[0], &a) || !ToAffine(*e.operands()[1], &b)) {
        return false;
      }
      if (op == BinaryOp::kMul) {
        if (!a.coef.empty() && !b.coef.empty()) return false;
        const Affine& scaled = a.coef.empty() ? b : a;
        const std::int64_t factor = a.coef.empty() ? a.constant : b.constant;
        *out = Affine{};
        out->constant = scaled.constant * factor;
        for (const auto& [v, c] : scaled.coef) out->coef[v] = c * factor;
      } else {
        const std::int64_t sign = op == BinaryOp::kSub ? -1 : 1;
        *out = a;
        out->constant += sign * b.constant;
        for (const auto& [v, c] : b.coef) out->coef[v] += sign * c;
      }
      std::erase_if(out->coef, [](const auto& kv) { return kv.second == 0; });
      return true;
    }
    default:
      return false;
  }
}

bool Mentions(const ExprPtr& e, ExprKind kind, const std::string& name) {
  bool found = false;
  VisitExpr(e, [&](const Expr& x) {
    if (x.kind() == kind && x.name() == name) found = true;
  });
  return found;
}

class Compiler {
 public:
  explicit Compiler(const Kernel& kernel)
      : k_(kernel), p_(std::make_shared<LaneProgram>()) {}

  std::shared_ptr<LaneProgram> Compile();

 private:
  enum class VarClass {
    kPrivate,      // per lane; definitely assigned before each read
    kCounter,      // inner-loop counter: uniform across lanes
    kAccumulator,  // `acc = acc op X`, folded in lane order
  };

  struct Plan {
    const Stmt* body = nullptr;              // runs once per lane
    std::vector<const Stmt*> nest;           // lane loops, outer first
    std::map<std::string, VarClass> classes;  // every var the body assigns
    std::map<std::string, std::int64_t> counter_trip;
    std::map<const Stmt*, std::int32_t> accumulators;  // update -> index
    std::vector<const Stmt*> updates;                  // by index
    std::map<const Stmt*, std::string> overwrites;     // nest -> buffer
    std::set<std::string> privatized;
    std::set<std::string> interface_written;
  };

  struct Facts {
    std::map<std::string, std::vector<std::pair<const Stmt*, int>>> assigns;
    std::map<std::string, int> reads;
    std::set<std::string> written;
    std::set<std::string> read;
    std::set<std::string> relooped;  // counters re-looped in their own loop
  };

  struct Assigned {
    std::set<std::string> vars;
    std::set<std::string> bufs;
  };

  // --- typing
  void NoteVar(const std::string& name, TypeKind type);
  void TypeExpr(const ExprPtr& e);
  void TypeStmt(const Stmt& s);

  // --- independence check
  bool PlanLanes(const Stmt& task, bool flatten, Plan* plan) const;
  void Gather(const Stmt& s, int for_depth, std::vector<std::string>& loops,
              Facts& f) const;
  void Names(const Stmt& s, const Stmt* skip,
             std::set<std::string>& names) const;
  bool IsAccumulator(const std::string& var, const Facts& f) const;
  bool MatchOverwrite(const Stmt& loop, std::string* buffer,
                      std::vector<const Stmt*>* nest,
                      const Stmt** assign) const;
  bool ReadsOk(const ExprPtr& e, const Assigned& da, const Plan& plan) const;
  bool IsTaskIndex(const Expr& e, const Plan& plan) const;
  std::string PaddingGuard(const Plan& plan) const;
  bool InterfaceIndexOk(const Expr& index, const std::string& buffer,
                        const Plan& plan) const;
  bool Check(const Stmt& s, Assigned& da, Plan& plan) const;

  // --- code generation
  Kind KindOf(const Expr& e) const;
  Operand Temp(Kind kind, bool varying);
  Operand Constant(const Value& v);
  std::int32_t Push(Node n);
  std::int32_t Coerce(std::int32_t node, TypeKind to);
  std::int32_t Narrow(std::int32_t node, TypeKind store);
  std::int32_t AsIndex(std::int32_t node);
  std::int32_t CompileExpr(const ExprPtr& e, int depth);
  std::int32_t CompileStmt(const Stmt& s, int depth);
  const Operand& Out(std::int32_t node) const { return p_->nodes[node].out; }
  void ResetTemps() { std::copy_n(temp_base_, 4, next_); }

  const Kernel& k_;
  std::shared_ptr<LaneProgram> p_;
  std::map<std::string, Kind> var_kinds_;
  std::map<std::string, std::int32_t> var_ids_;
  std::map<std::string, std::int32_t> buffer_ids_;
  const Stmt* task_ = nullptr;
  Plan plan_;
  bool lanes_ok_ = false;
  bool in_lanes_ = false;
  std::map<std::int32_t, std::int32_t> private_slot_;  // buffer -> copy
  std::int32_t next_[4] = {0, 0, 0, 0};
  std::int32_t temp_base_[4] = {0, 0, 0, 0};
  int max_depth_ = 0;
};

void Compiler::NoteVar(const std::string& name, TypeKind type) {
  const Kind kind = jvm::StorageOf(type);
  auto [it, inserted] = var_kinds_.emplace(name, kind);
  if (!inserted && it->second != kind) {
    throw MalformedInput("variable " + name + " of kernel " + k_.name +
                         " is used with two storage classes");
  }
}

void Compiler::TypeExpr(const ExprPtr& e) {
  if (!e) return;
  VisitExpr(e, [&](const Expr& x) {
    if (x.kind() == ExprKind::kVar) NoteVar(x.name(), x.type().kind());
  });
}

void Compiler::TypeStmt(const Stmt& s) {
  switch (s.kind()) {
    case StmtKind::kAssign:
      TypeExpr(s.lhs());
      TypeExpr(s.rhs());
      break;
    case StmtKind::kDecl:
      NoteVar(s.decl_name(), s.decl_type().kind());
      TypeExpr(s.init());
      break;
    case StmtKind::kIf:
      TypeExpr(s.cond());
      TypeStmt(*s.then_stmt());
      if (s.else_stmt()) TypeStmt(*s.else_stmt());
      break;
    case StmtKind::kFor:
      NoteVar(s.loop_var(), TypeKind::kInt);
      TypeStmt(*s.body());
      break;
    case StmtKind::kBlock:
      for (const auto& st : s.stmts()) TypeStmt(*st);
      break;
  }
}

void Compiler::Gather(const Stmt& s, int for_depth,
                      std::vector<std::string>& loops, Facts& f) const {
  auto reads = [&](const ExprPtr& e) {
    if (!e) return;
    VisitExpr(e, [&](const Expr& x) {
      if (x.kind() == ExprKind::kVar) ++f.reads[x.name()];
      if (x.kind() == ExprKind::kArrayRef) f.read.insert(x.name());
    });
  };
  switch (s.kind()) {
    case StmtKind::kAssign:
      if (s.lhs()->kind() == ExprKind::kVar) {
        f.assigns[s.lhs()->name()].emplace_back(&s, for_depth);
      } else {
        f.written.insert(s.lhs()->name());
        reads(s.lhs()->operands()[0]);
      }
      reads(s.rhs());
      break;
    case StmtKind::kDecl:
      f.assigns[s.decl_name()].emplace_back(&s, for_depth);
      reads(s.init());
      break;
    case StmtKind::kIf:
      reads(s.cond());
      Gather(*s.then_stmt(), for_depth, loops, f);
      if (s.else_stmt()) Gather(*s.else_stmt(), for_depth, loops, f);
      break;
    case StmtKind::kFor:
      f.assigns[s.loop_var()].emplace_back(&s, for_depth);
      if (std::find(loops.begin(), loops.end(), s.loop_var()) !=
          loops.end()) {
        f.relooped.insert(s.loop_var());
      }
      loops.push_back(s.loop_var());
      Gather(*s.body(), for_depth + 1, loops, f);
      loops.pop_back();
      break;
    case StmtKind::kBlock:
      for (const auto& st : s.stmts()) Gather(*st, for_depth, loops, f);
      break;
  }
}

void Compiler::Names(const Stmt& s, const Stmt* skip,
                     std::set<std::string>& names) const {
  if (&s == skip) return;
  auto add = [&](const ExprPtr& e) {
    if (!e) return;
    VisitExpr(e, [&](const Expr& x) {
      if (x.kind() == ExprKind::kVar) names.insert(x.name());
    });
  };
  switch (s.kind()) {
    case StmtKind::kAssign:
      add(s.lhs());
      add(s.rhs());
      break;
    case StmtKind::kDecl:
      names.insert(s.decl_name());
      add(s.init());
      break;
    case StmtKind::kIf:
      add(s.cond());
      Names(*s.then_stmt(), skip, names);
      if (s.else_stmt()) Names(*s.else_stmt(), skip, names);
      break;
    case StmtKind::kFor:
      names.insert(s.loop_var());
      Names(*s.body(), skip, names);
      break;
    case StmtKind::kBlock:
      for (const auto& st : s.stmts()) Names(*st, skip, names);
      break;
  }
}

bool Compiler::IsAccumulator(const std::string& var, const Facts& f) const {
  const auto& list = f.assigns.at(var);
  if (list.size() != 1 || list[0].second != 0) return false;
  const Stmt& s = *list[0].first;
  if (s.kind() != StmtKind::kAssign) return false;
  const Expr& rhs = *s.rhs();
  if (rhs.kind() != ExprKind::kBinary) return false;
  const Expr& lhs_operand = *rhs.operands()[0];
  if (lhs_operand.kind() != ExprKind::kVar || lhs_operand.name() != var) {
    return false;
  }
  // The read in `acc op X` must be the body's only mention of acc.
  auto it = f.reads.find(var);
  if (it == f.reads.end() || it->second != 1) return false;
  // The fold runs after the chunk, so it must not be able to fault.
  const BinForm form = FormOf(rhs);
  const BinaryOp op = rhs.binary_op();
  if ((form == BinForm::kInt32 || form == BinForm::kInt64) &&
      (op == BinaryOp::kDiv || op == BinaryOp::kRem)) {
    return false;
  }
  if (form == BinForm::kFloat32 || form == BinForm::kFloat64) {
    switch (op) {
      case BinaryOp::kAdd: case BinaryOp::kSub: case BinaryOp::kMul:
      case BinaryOp::kDiv: case BinaryOp::kRem: case BinaryOp::kMin:
      case BinaryOp::kMax:
        break;
      default:
        return false;
    }
  }
  return true;
}

// A loop nest that assigns every element of one buffer exactly once:
// perfectly nested loops around a single `buf[index] = rhs`, where index
// is a mixed-radix combination of the nest's counters covering exactly
// [0, length) and rhs does not read buf (b2c's zero-fill, possibly tiled).
bool Compiler::MatchOverwrite(const Stmt& loop, std::string* buffer,
                              std::vector<const Stmt*>* nest,
                              const Stmt** assign) const {
  nest->clear();
  const Stmt* cur = &loop;
  while (true) {
    if (cur->kind() != StmtKind::kFor) return false;
    nest->push_back(cur);
    const Stmt* b = cur->body().get();
    while (b->kind() == StmtKind::kBlock && b->stmts().size() == 1) {
      b = b->stmts()[0].get();
    }
    if (b->kind() == StmtKind::kFor) {
      cur = b;
      continue;
    }
    if (b->kind() != StmtKind::kAssign ||
        b->lhs()->kind() != ExprKind::kArrayRef) {
      return false;
    }
    *assign = b;
    break;
  }
  *buffer = (*assign)->lhs()->name();
  const Buffer* buf = k_.FindBuffer(*buffer);
  Affine index;
  if (buf == nullptr || !ToAffine(*(*assign)->lhs()->operands()[0], &index) ||
      index.constant != 0 || index.coef.size() != nest->size()) {
    return false;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> radix;  // coef, trip
  for (const Stmt* l : *nest) {
    auto it = index.coef.find(l->loop_var());
    if (it == index.coef.end()) return false;
    radix.emplace_back(it->second, l->trip_count());
  }
  std::sort(radix.begin(), radix.end());
  std::int64_t expect = 1;
  for (const auto& [coef, trip] : radix) {
    if (coef != expect) return false;
    expect *= trip;
  }
  return expect == buf->length &&
         !Mentions((*assign)->rhs(), ExprKind::kArrayRef, *buffer);
}

bool Compiler::ReadsOk(const ExprPtr& e, const Assigned& da,
                       const Plan& plan) const {
  if (!e) return true;
  bool ok = true;
  VisitExpr(e, [&](const Expr& x) {
    if (x.kind() == ExprKind::kVar) {
      auto it = plan.classes.find(x.name());
      if (it != plan.classes.end() && it->second != VarClass::kAccumulator &&
          da.vars.count(x.name()) == 0) {
        ok = false;
      }
    } else if (x.kind() == ExprKind::kArrayRef) {
      if (plan.interface_written.count(x.name()) != 0) ok = false;
      if (plan.privatized.count(x.name()) != 0 &&
          da.bufs.count(x.name()) == 0) {
        ok = false;
      }
    }
  });
  return ok;
}

// Rule 3: the write index is lane * per_task + u, u uniform in
// [0, per_task).
bool Compiler::InterfaceIndexOk(const Expr& index, const std::string& buffer,
                                const Plan& plan) const {
  const Buffer* buf = k_.FindBuffer(buffer);
  const std::int64_t per_task = buf->per_task;
  Affine a;
  if (per_task <= 0 || !ToAffine(index, &a)) return false;
  std::int64_t stride = per_task;  // coefficient of the innermost lane var
  for (auto l = plan.nest.rbegin(); l != plan.nest.rend(); ++l) {
    auto it = a.coef.find((*l)->loop_var());
    if (it == a.coef.end() || it->second != stride) return false;
    a.coef.erase(it);
    stride *= (*l)->trip_count();
  }
  std::int64_t lo = a.constant;
  std::int64_t hi = a.constant;
  for (const auto& [var, coef] : a.coef) {
    auto cls = plan.classes.find(var);
    if (cls == plan.classes.end() || cls->second != VarClass::kCounter) {
      return false;
    }
    const std::int64_t span = coef * (plan.counter_trip.at(var) - 1);
    lo += std::min<std::int64_t>(0, span);
    hi += std::max<std::int64_t>(0, span);
  }
  return lo >= 0 && hi < per_task;
}

// Walks the body in execution order tracking what is definitely assigned
// in the current iteration; false when a read could observe another
// iteration's value or an access breaks rules 2 and 3.
bool Compiler::Check(const Stmt& s, Assigned& da, Plan& plan) const {
  switch (s.kind()) {
    case StmtKind::kAssign: {
      const Expr& lhs = *s.lhs();
      if (lhs.kind() == ExprKind::kVar) {
        if (plan.accumulators.count(&s) != 0) {
          return ReadsOk(s.rhs()->operands()[1], da, plan);
        }
        if (!ReadsOk(s.rhs(), da, plan)) return false;
        da.vars.insert(lhs.name());
        return true;
      }
      if (!ReadsOk(s.rhs(), da, plan) ||
          !ReadsOk(lhs.operands()[0], da, plan)) {
        return false;
      }
      if (plan.privatized.count(lhs.name()) != 0) {
        return da.bufs.count(lhs.name()) != 0;
      }
      return InterfaceIndexOk(*lhs.operands()[0], lhs.name(), plan);
    }
    case StmtKind::kDecl:
      if (!ReadsOk(s.init(), da, plan)) return false;
      da.vars.insert(s.decl_name());
      return true;
    case StmtKind::kIf: {
      if (!ReadsOk(s.cond(), da, plan)) return false;
      Assigned then_da = da;
      Assigned else_da = da;
      if (!Check(*s.then_stmt(), then_da, plan)) return false;
      if (s.else_stmt() && !Check(*s.else_stmt(), else_da, plan)) {
        return false;
      }
      Assigned both;
      std::set_intersection(then_da.vars.begin(), then_da.vars.end(),
                            else_da.vars.begin(), else_da.vars.end(),
                            std::inserter(both.vars, both.vars.end()));
      std::set_intersection(then_da.bufs.begin(), then_da.bufs.end(),
                            else_da.bufs.begin(), else_da.bufs.end(),
                            std::inserter(both.bufs, both.bufs.end()));
      da = std::move(both);
      return true;
    }
    case StmtKind::kFor: {
      std::string buffer;
      std::vector<const Stmt*> nest;
      const Stmt* assign = nullptr;
      if (MatchOverwrite(s, &buffer, &nest, &assign) &&
          plan.privatized.count(buffer) != 0) {
        for (const Stmt* l : nest) da.vars.insert(l->loop_var());
        if (!ReadsOk(assign->rhs(), da, plan)) return false;
        da.bufs.insert(buffer);
        plan.overwrites[&s] = buffer;
        return true;
      }
      if (s.trip_count() <= 0) return true;  // the body never runs
      // The first iteration sees the least assigned state, so checking it
      // covers every later one.
      da.vars.insert(s.loop_var());
      return Check(*s.body(), da, plan);
    }
    case StmtKind::kBlock:
      for (const auto& st : s.stmts()) {
        if (!Check(*st, da, plan)) return false;
      }
      return true;
  }
  return false;
}

// The task index a lane runs: the task counter, or `t * T + p` over the
// tiled nest -- the same lane number rule 3 pins as the task's slot.
bool Compiler::IsTaskIndex(const Expr& e, const Plan& plan) const {
  Affine a;
  if (!ToAffine(e, &a) || a.constant != 0 ||
      a.coef.size() != plan.nest.size()) {
    return false;
  }
  std::int64_t stride = 1;
  for (auto l = plan.nest.rbegin(); l != plan.nest.rend(); ++l) {
    auto it = a.coef.find((*l)->loop_var());
    if (it == a.coef.end() || it->second != stride) return false;
    stride *= (*l)->trip_count();
  }
  return true;
}

// The reduce template's padding guard: the integral kernel scalar N, never
// assigned, when every accumulator update sits in the then-branch of an
// `if (task < N)`; "" otherwise.
std::string Compiler::PaddingGuard(const Plan& plan) const {
  Facts all;
  std::vector<std::string> loops;
  Gather(*k_.body, 0, loops, all);
  auto guard_of = [&](const Expr& cond) -> std::string {
    if (cond.kind() != ExprKind::kBinary ||
        cond.binary_op() != BinaryOp::kLt) {
      return "";
    }
    const Expr& n = *cond.operands()[1];
    if (n.kind() != ExprKind::kVar || !n.type().is_integral() ||
        all.assigns.count(n.name()) != 0 ||
        !IsTaskIndex(*cond.operands()[0], plan)) {
      return "";
    }
    const bool scalar = std::any_of(
        k_.scalars.begin(), k_.scalars.end(),
        [&](const ScalarParam& p) { return p.name == n.name(); });
    return scalar ? n.name() : "";
  };
  std::set<std::string> guards;  // per update: its guard, "" when none
  std::function<void(const Stmt&, const std::string&)> walk =
      [&](const Stmt& s, const std::string& guard) {
        switch (s.kind()) {
          case StmtKind::kAssign:
            if (plan.accumulators.count(&s) != 0) guards.insert(guard);
            break;
          case StmtKind::kDecl:
            break;
          case StmtKind::kIf: {
            const std::string inner = guard_of(*s.cond());
            walk(*s.then_stmt(), inner.empty() ? guard : inner);
            if (s.else_stmt()) walk(*s.else_stmt(), guard);
            break;
          }
          case StmtKind::kFor:
            walk(*s.body(), guard);
            break;
          case StmtKind::kBlock:
            for (const auto& st : s.stmts()) walk(*st, guard);
            break;
        }
      };
  walk(*plan.body, "");
  return guards.size() == 1 ? *guards.begin() : "";
}

bool Compiler::PlanLanes(const Stmt& task, bool flatten, Plan* plan) const {
  Plan& pl = *plan;
  pl = Plan{};
  pl.nest.push_back(&task);
  pl.body = task.body().get();
  if (flatten) {
    const Stmt& b = *task.body();
    if (b.kind() != StmtKind::kBlock || b.stmts().size() != 1 ||
        b.stmts()[0]->kind() != StmtKind::kFor ||
        b.stmts()[0]->loop_var() == task.loop_var()) {
      return false;
    }
    pl.nest.push_back(b.stmts()[0].get());
    pl.body = b.stmts()[0]->body().get();
  }

  Facts f;
  std::vector<std::string> loops;
  Gather(*pl.body, 0, loops, f);
  std::set<std::string> outside;
  Names(*k_.body, &task, outside);
  for (const auto& s : k_.scalars) outside.insert(s.name);

  for (const auto& [var, list] : f.assigns) {
    for (const Stmt* l : pl.nest) {
      if (l->loop_var() == var) return false;
    }
    if (IsAccumulator(var, f)) {
      pl.classes[var] = VarClass::kAccumulator;
      pl.accumulators[list[0].first] =
          static_cast<std::int32_t>(pl.updates.size());
      pl.updates.push_back(list[0].first);
      continue;
    }
    if (outside.count(var) != 0) return false;
    bool counter = f.relooped.count(var) == 0;
    for (const auto& [st, depth] : list) {
      (void)depth;
      counter = counter && st->kind() == StmtKind::kFor &&
                st->trip_count() == list[0].first->trip_count();
    }
    pl.classes[var] = counter ? VarClass::kCounter : VarClass::kPrivate;
    if (counter) pl.counter_trip[var] = list[0].first->trip_count();
  }

  std::int64_t private_bytes = 0;
  for (const auto& name : f.written) {
    const Buffer* buf = k_.FindBuffer(name);
    if (buf->kind == BufferKind::kLocal) {
      pl.privatized.insert(name);
      private_bytes += buf->length * kLaneChunk *
                       static_cast<std::int64_t>(jvm::BytesOf(jvm::StorageOf(
                           buf->element.kind())));
    } else {
      if (f.read.count(name) != 0) return false;
      pl.interface_written.insert(name);
    }
  }
  if (private_bytes > kMaxPrivateBytes) return false;

  Assigned da;
  return Check(*pl.body, da, pl);
}

Kind Compiler::KindOf(const Expr& e) const {
  switch (e.kind()) {
    case ExprKind::kIntLit:
      return e.type().kind() == TypeKind::kLong ? Kind::kI64 : Kind::kI32;
    case ExprKind::kVar:
      return var_kinds_.at(e.name());
    case ExprKind::kBinary:
      return KindOfForm(FormOf(e));
    case ExprKind::kUnary: {
      const TypeKind opnd = e.operands()[0]->type().kind();
      switch (e.unary_op()) {
        case UnaryOp::kNeg: return jvm::StorageOf(opnd);
        case UnaryOp::kBitNot:
          return opnd == TypeKind::kLong ? Kind::kI64 : Kind::kI32;
        case UnaryOp::kLogicalNot: return Kind::kI32;
      }
      S2FA_UNREACHABLE("bad unary op");
    }
    case ExprKind::kSelect:
      return KindOf(*e.operands()[1]);
    case ExprKind::kFloatLit:
    case ExprKind::kArrayRef:
    case ExprKind::kCall:
    case ExprKind::kCast:
      return jvm::StorageOf(e.type().kind());
  }
  S2FA_UNREACHABLE("bad expr kind");
}

Operand Compiler::Temp(Kind kind, bool varying) {
  const auto k = static_cast<std::size_t>(kind);
  Operand o{Space::kReg, kind, varying, next_[k]++};
  p_->columns[k] = std::max(p_->columns[k], next_[k]);
  return o;
}

Operand Compiler::Constant(const Value& v) {
  Operand o;
  o.space = Space::kConst;
  if (v.is_int()) {
    o.kind = Kind::kI32;
    o.index = static_cast<std::int32_t>(p_->const_i32.size());
    p_->const_i32.push_back(v.AsInt());
  } else if (v.is_long()) {
    o.kind = Kind::kI64;
    o.index = static_cast<std::int32_t>(p_->const_i64.size());
    p_->const_i64.push_back(v.AsLong());
  } else if (v.is_float()) {
    o.kind = Kind::kF32;
    o.index = static_cast<std::int32_t>(p_->const_f32.size());
    p_->const_f32.push_back(v.AsFloat());
  } else {
    o.kind = Kind::kF64;
    o.index = static_cast<std::int32_t>(p_->const_f64.size());
    p_->const_f64.push_back(v.AsDouble());
  }
  return o;
}

std::int32_t Compiler::Push(Node n) {
  p_->nodes.push_back(std::move(n));
  return static_cast<std::int32_t>(p_->nodes.size() - 1);
}

// An uncharged conversion node: the reference evaluator's implicit
// ToInt64 / ToDouble / narrowing of an operand, made explicit so the
// arithmetic kernels see their native operand classes.
std::int32_t Compiler::Coerce(std::int32_t node, TypeKind to) {
  Node n;
  n.op = NodeOp::kConvert;
  n.charge = false;
  n.type = to;
  n.a = node;
  n.out = Temp(jvm::StorageOf(to), Out(node).varying);
  return Push(n);
}

// The value an assignment stores: java::Convert(store, v), made explicit
// unless it is the identity.
std::int32_t Compiler::Narrow(std::int32_t node, TypeKind store) {
  const bool whole_class = store == TypeKind::kInt ||
                           store == TypeKind::kLong ||
                           store == TypeKind::kFloat ||
                           store == TypeKind::kDouble;
  return whole_class && Out(node).kind == jvm::StorageOf(store) ? node
                                                         : Coerce(node, store);
}

std::int32_t Compiler::AsIndex(std::int32_t node) {
  const Kind k = Out(node).kind;
  return k == Kind::kI32 || k == Kind::kI64 ? node
                                            : Coerce(node, TypeKind::kLong);
}

std::int32_t Compiler::CompileExpr(const ExprPtr& ep, int depth) {
  const Expr& e = *ep;
  max_depth_ = std::max(max_depth_, depth);
  Node n;
  switch (e.kind()) {
    case ExprKind::kIntLit:
      n.op = NodeOp::kConst;
      n.out = Constant(
          e.type().kind() == TypeKind::kLong
              ? Value::OfLong(e.int_value())
              : Value::OfInt(static_cast<std::int32_t>(e.int_value())));
      break;
    case ExprKind::kFloatLit:
      n.op = NodeOp::kConst;
      n.out = Constant(FromDouble(e.type().kind(), e.float_value()));
      break;
    case ExprKind::kVar: {
      n.op = NodeOp::kVar;
      n.id = var_ids_.at(e.name());
      const VarInfo& v = p_->vars[static_cast<std::size_t>(n.id)];
      bool varying = false;
      bool assigned = false;
      if (in_lanes_) {
        for (const Stmt* l : plan_.nest) {
          if (l->loop_var() == e.name()) varying = assigned = true;
        }
        auto it = plan_.classes.find(e.name());
        if (it != plan_.classes.end()) {
          assigned = true;
          varying = it->second == VarClass::kPrivate;
        }
      }
      n.check_bound = !assigned;
      n.out = Operand{Space::kReg, v.kind, varying, v.reg};
      break;
    }
    case ExprKind::kArrayRef: {
      n.op = NodeOp::kLoad;
      n.a = AsIndex(CompileExpr(e.operands()[0], depth));
      const std::int32_t buffer = buffer_ids_.at(e.name());
      const Kind kind = p_->buffers[static_cast<std::size_t>(buffer)].element;
      if (kind != jvm::StorageOf(e.type().kind())) {
        throw MalformedInput("buffer " + e.name() + " read as " +
                             e.type().ToString());
      }
      auto slot = private_slot_.find(buffer);
      n.priv = in_lanes_ && slot != private_slot_.end();
      n.id = n.priv ? slot->second : buffer;
      n.out = Temp(kind, n.priv || Out(n.a).varying);
      break;
    }
    case ExprKind::kBinary: {
      n.op = NodeOp::kBinary;
      n.form = FormOf(e);
      n.bop = e.binary_op();
      n.a = CompileExpr(e.operands()[0], depth);
      n.b = CompileExpr(e.operands()[1], depth);
      // Both operands meet in one class, the reference's ToInt64 /
      // ToDouble domain of the form: int32 when both already are, else
      // int64 for integral forms; float when both are, else double for
      // comparisons; the form's own class for arithmetic.
      const Kind ka = Out(n.a).kind;
      const Kind kb = Out(n.b).kind;
      TypeKind meet = TypeKind::kInt;
      switch (n.form) {
        case BinForm::kCmpInt:
        case BinForm::kLogical:
        case BinForm::kInt32:
          meet = ka == Kind::kI32 && kb == Kind::kI32 ? TypeKind::kInt
                                                      : TypeKind::kLong;
          break;
        case BinForm::kInt64:
          meet = TypeKind::kLong;
          break;
        case BinForm::kCmpFloat:
          meet = ka == Kind::kF32 && kb == Kind::kF32 ? TypeKind::kFloat
                                                      : TypeKind::kDouble;
          break;
        case BinForm::kFloat32:
          meet = TypeKind::kFloat;
          break;
        case BinForm::kFloat64:
          meet = TypeKind::kDouble;
          break;
      }
      if (ka != jvm::StorageOf(meet)) n.a = Coerce(n.a, meet);
      if (kb != jvm::StorageOf(meet)) n.b = Coerce(n.b, meet);
      n.out = Temp(KindOfForm(n.form), Out(n.a).varying || Out(n.b).varying);
      break;
    }
    case ExprKind::kUnary: {
      n.op = NodeOp::kUnary;
      n.uop = e.unary_op();
      n.type = e.operands()[0]->type().kind();
      n.a = CompileExpr(e.operands()[0], depth);
      const Kind k = Out(n.a).kind;
      const bool integral = k == Kind::kI32 || k == Kind::kI64;
      if (n.uop == UnaryOp::kNeg && k != jvm::StorageOf(n.type)) {
        n.a = Coerce(n.a, n.type);
      } else if (n.uop == UnaryOp::kBitNot && !integral) {
        n.a = Coerce(n.a, TypeKind::kLong);
      }
      n.out = Temp(KindOf(e), Out(n.a).varying);
      break;
    }
    case ExprKind::kCall: {
      n.op = NodeOp::kCall;
      n.fn = e.intrinsic();
      n.type = e.type().kind();
      auto floating = [&](const ExprPtr& arg) {  // ToDouble
        const std::int32_t node = CompileExpr(arg, depth);
        return Out(node).kind == Kind::kF64 ? node
                                            : Coerce(node, TypeKind::kDouble);
      };
      n.a = floating(e.operands()[0]);
      bool varying = Out(n.a).varying;
      if (e.operands().size() > 1) {
        n.b = floating(e.operands()[1]);
        varying = varying || Out(n.b).varying;
      }
      n.out = Temp(jvm::StorageOf(n.type), varying);
      break;
    }
    case ExprKind::kCast:
      n.op = NodeOp::kConvert;
      n.type = e.type().kind();
      n.a = CompileExpr(e.operands()[0], depth);
      n.out = Temp(jvm::StorageOf(n.type), Out(n.a).varying);
      break;
    case ExprKind::kSelect: {
      n.op = NodeOp::kSelect;
      n.depth = depth;
      n.a = CompileExpr(e.operands()[0], depth);
      n.b = CompileExpr(e.operands()[1], depth + 1);
      n.c = CompileExpr(e.operands()[2], depth + 1);
      if (Out(n.b).kind != Out(n.c).kind) {
        throw MalformedInput("select arms of different classes in kernel " +
                             k_.name);
      }
      n.out = Temp(Out(n.b).kind, Out(n.a).varying || Out(n.b).varying ||
                                      Out(n.c).varying);
      break;
    }
  }
  return Push(n);
}

std::int32_t Compiler::CompileStmt(const Stmt& s, int depth) {
  max_depth_ = std::max(max_depth_, depth);
  SNode n;
  switch (s.kind()) {
    case StmtKind::kAssign: {
      ResetTemps();
      const Expr& lhs = *s.lhs();
      if (lhs.kind() == ExprKind::kVar) {
        auto acc = plan_.accumulators.find(&s);
        if (in_lanes_ && acc != plan_.accumulators.end()) {
          n.op = StmtOp::kAccumulate;
          n.id = acc->second;
          n.value = CompileExpr(s.rhs()->operands()[1], depth);
          break;
        }
        n.op = StmtOp::kSetVar;
        n.id = var_ids_.at(lhs.name());
        n.store = lhs.type().kind();
        n.value = Narrow(CompileExpr(s.rhs(), depth), n.store);
        break;
      }
      n.op = StmtOp::kStore;
      n.store = lhs.type().kind();
      n.value = Narrow(CompileExpr(s.rhs(), depth), n.store);
      n.index = AsIndex(CompileExpr(lhs.operands()[0], depth));
      const std::int32_t buffer = buffer_ids_.at(lhs.name());
      if (jvm::StorageOf(n.store) !=
          p_->buffers[static_cast<std::size_t>(buffer)].element) {
        throw MalformedInput("buffer " + lhs.name() + " written as " +
                             lhs.type().ToString());
      }
      auto slot = private_slot_.find(buffer);
      n.priv = in_lanes_ && slot != private_slot_.end();
      n.id = n.priv ? slot->second : buffer;
      break;
    }
    case StmtKind::kDecl:
      ResetTemps();
      n.op = StmtOp::kSetVar;
      n.id = var_ids_.at(s.decl_name());
      n.store = s.decl_type().kind();
      if (s.init()) {
        n.value = Narrow(CompileExpr(s.init(), depth), n.store);
      } else {
        n.dflt = Constant(jvm::DefaultValue(s.decl_type()));
      }
      break;
    case StmtKind::kIf:
      ResetTemps();
      n.op = StmtOp::kIf;
      n.depth = depth;
      n.value = CompileExpr(s.cond(), depth);
      n.body = CompileStmt(*s.then_stmt(), depth + 1);
      if (s.else_stmt()) n.els = CompileStmt(*s.else_stmt(), depth + 1);
      break;
    case StmtKind::kFor:
      if (&s == task_ && lanes_ok_ && !in_lanes_) {
        n.op = StmtOp::kLaneLoop;
        in_lanes_ = true;
        n.body = CompileStmt(*plan_.body, depth);
        in_lanes_ = false;
        break;
      }
      n.op = StmtOp::kFor;
      n.id = var_ids_.at(s.loop_var());
      n.trip = s.trip_count();
      if (in_lanes_) {
        auto cls = plan_.classes.find(s.loop_var());
        n.varying = cls != plan_.classes.end() &&
                    cls->second == VarClass::kPrivate;
        auto ow = plan_.overwrites.find(&s);
        if (ow != plan_.overwrites.end()) {
          n.overwrites = private_slot_.at(buffer_ids_.at(ow->second));
        }
      }
      n.body = CompileStmt(*s.body(), depth);
      break;
    case StmtKind::kBlock:
      n.op = StmtOp::kBlock;
      for (const auto& st : s.stmts()) {
        n.stmts.push_back(CompileStmt(*st, depth));
      }
      break;
  }
  p_->stmts.push_back(std::move(n));
  return static_cast<std::int32_t>(p_->stmts.size() - 1);
}

std::shared_ptr<LaneProgram> Compiler::Compile() {
  for (std::size_t i = 0; i < k_.buffers.size(); ++i) {
    const Buffer& b = k_.buffers[i];
    buffer_ids_.emplace(b.name, static_cast<std::int32_t>(i));
    p_->buffers.push_back(
        {b.name, b.kind, jvm::StorageOf(b.element.kind()), b.length});
  }
  for (const auto& s : k_.scalars) NoteVar(s.name, s.type.kind());
  TypeStmt(*k_.body);
  for (const auto& [name, kind] : var_kinds_) {
    var_ids_.emplace(name, static_cast<std::int32_t>(p_->vars.size()));
    p_->vars.push_back({name, kind, next_[static_cast<std::size_t>(kind)]++});
  }
  std::copy_n(next_, 4, p_->columns);
  for (const auto& s : k_.scalars) {
    p_->scalar_vars.push_back(var_ids_.at(s.name));
  }

  // Lanes: the flattened tile x point nest when the task loop was tiled,
  // else the task loop alone.
  if (k_.task_loop_id >= 0) task_ = FindLoop(k_.body, k_.task_loop_id);
  if (task_ != nullptr) {
    lanes_ok_ = PlanLanes(*task_, /*flatten=*/true, &plan_) ||
                PlanLanes(*task_, /*flatten=*/false, &plan_);
  }
  if (lanes_ok_) {
    for (const Stmt* l : plan_.nest) {
      p_->lanes.vars.push_back(var_ids_.at(l->loop_var()));
    }
    p_->lanes.outer_trip = plan_.nest.front()->trip_count();
    p_->lanes.inner_trip =
        plan_.nest.size() > 1 ? plan_.nest.back()->trip_count() : 1;
    p_->lanes.accumulates = !plan_.updates.empty();
    const std::string guard = PaddingGuard(plan_);
    if (!guard.empty()) p_->lanes.guard = var_ids_.at(guard);
    // A chunk never needs more columns than the loop has lanes.
    p_->width = static_cast<int>(std::clamp<std::int64_t>(
        p_->lanes.outer_trip * p_->lanes.inner_trip, 1, kLaneChunk));
    for (const std::string& name : plan_.privatized) {
      const std::int32_t buffer = buffer_ids_.at(name);
      const BufferInfo& b = p_->buffers[static_cast<std::size_t>(buffer)];
      private_slot_[buffer] = static_cast<std::int32_t>(p_->privates.size());
      p_->privates.push_back({buffer, b.element, b.length});
    }
    for (const Stmt* update : plan_.updates) {
      const Expr& lhs = *update->lhs();
      const Expr& rhs = *update->rhs();
      Accumulator acc;
      acc.var = var_ids_.at(lhs.name());
      acc.store = lhs.type().kind();
      acc.form = FormOf(rhs);
      acc.bop = rhs.binary_op();
      acc.pending = Temp(KindOf(*rhs.operands()[1]), true);
      p_->accumulators.push_back(acc);
    }
  } else {
    plan_ = Plan{};
  }
  std::copy_n(next_, 4, temp_base_);
  p_->root = CompileStmt(*k_.body, 0);
  p_->mask_slots = 2 * (max_depth_ + 1);
  return p_;
}

}  // namespace lane
}  // namespace

std::shared_ptr<const LaneProgram> CompileLaneProgram(const Kernel& kernel) {
  kernel.Validate();
  return lane::Compiler(kernel).Compile();
}

// --------------------------------------------------------------------------
// Lane executor: one Scratch per Evaluator, the only mutable state.
// --------------------------------------------------------------------------

namespace {
namespace lane {

// The lanes a node or statement runs on: `width` lanes of the current
// chunk, of which `active` are: all of them when `list` is null, else the
// ascending lane numbers in list[0, active). A sparse mask (a partial
// batch under the reduce template's `i < N`) thus costs its active lanes
// only. Nothing runs with zero active lanes.
struct Lanes {
  int width = 1;
  const std::uint16_t* list = nullptr;
  int active = 1;
};

template <typename F>
inline void ForLanes(const Lanes& ln, F&& f) {
  if (ln.list == nullptr) {
    for (int l = 0; l < ln.width; ++l) f(l);
  } else {
    for (int k = 0; k < ln.active; ++k) f(static_cast<int>(ln.list[k]));
  }
}

int LastActive(const Lanes& ln) {
  return ln.list == nullptr ? ln.width - 1 : ln.list[ln.active - 1];
}

// Raised when a lane of a multi-lane chunk fails. The chunk is replayed one
// lane at a time, which raises the sequential walk's first error itself.
struct LaneFault {};

}  // namespace lane
}  // namespace

struct Evaluator::Scratch {
  using Kind = lane::Kind;
  using Lanes = lane::Lanes;
  using Node = lane::Node;
  using Operand = lane::Operand;
  using SNode = lane::SNode;

  explicit Scratch(const LaneProgram& program);

  // Runs on `buffers`, one bound array per program buffer, each already
  // checked to hold its buffer's class.
  void Run(const std::map<std::string, Value>& scalars,
           jvm::PrimitiveArray* buffers, std::int64_t live_tasks,
           std::uint64_t& steps);

  // --- storage
  template <typename T>
  std::vector<T>& Pool() {
    if constexpr (std::is_same_v<T, std::int32_t>) return i32;
    else if constexpr (std::is_same_v<T, std::int64_t>) return i64;
    else if constexpr (std::is_same_v<T, float>) return f32;
    else return f64;
  }
  template <typename T>
  std::vector<T>& PrivPool() {
    if constexpr (std::is_same_v<T, std::int32_t>) return p_i32;
    else if constexpr (std::is_same_v<T, std::int64_t>) return p_i64;
    else if constexpr (std::is_same_v<T, float>) return p_f32;
    else return p_f64;
  }
  template <typename T>
  const std::vector<T>& ConstPool() const {
    if constexpr (std::is_same_v<T, std::int32_t>) return prog.const_i32;
    else if constexpr (std::is_same_v<T, std::int64_t>) return prog.const_i64;
    else if constexpr (std::is_same_v<T, float>) return prog.const_f32;
    else return prog.const_f64;
  }
  template <typename T>
  T* Col(std::int32_t column) {
    return Pool<T>().data() + static_cast<std::size_t>(column) * width;
  }
  template <typename T>
  const T* In(const Operand& o) {
    if (o.space == lane::Space::kConst) {
      return ConstPool<T>().data() + o.index;
    }
    return Col<T>(o.index);
  }
  template <typename T>
  T* Buf(std::int32_t buffer) {
    return static_cast<T*>(bufs[static_cast<std::size_t>(buffer)].data);
  }
  std::size_t BufSize(std::int32_t buffer) const {
    return bufs[static_cast<std::size_t>(buffer)].size;
  }
  template <typename T>
  T* Priv(std::int32_t slot) {
    return PrivPool<T>().data() + priv_offset[static_cast<std::size_t>(slot)];
  }
  std::uint16_t* MaskSlot(std::int32_t slot) {
    return masks.data() + static_cast<std::size_t>(slot) * width;
  }
  const Operand& Out(std::int32_t node) const {
    return prog.nodes[static_cast<std::size_t>(node)].out;
  }
  Value VarValue(std::int32_t var);
  void SetVarValue(std::int32_t var, const Value& v);

  // --- control
  void Charge(const Lanes& ln, std::uint64_t per_lane = 1) {
    *steps += per_lane * static_cast<std::uint64_t>(ln.active);
    if (*steps > kMaxSteps) {
      Fault(ln);
      throw InternalError("IR evaluator step budget exceeded");
    }
  }
  static void Fault(const Lanes& ln) {
    if (ln.width > 1) throw lane::LaneFault{};
  }
  [[noreturn]] void IndexFault(const Lanes& ln, bool write, std::int64_t i,
                               std::size_t size, std::int32_t buffer);
  [[noreturn]] static void DivisionFault(const Lanes& ln, BinaryOp op,
                                         bool wide);

  // --- expressions
  void Eval(std::int32_t node, const Lanes& ln);
  template <typename D, typename X, typename F>
  void Map1(const Node& n, const Lanes& ln, F f);
  template <typename D, typename X, typename Y, typename F>
  void Map2(const Node& n, const Lanes& ln, F f);
  void Load(const Node& n, const Lanes& ln);
  void Binary(const Node& n, const Lanes& ln);
  template <typename C, typename X, typename Y>
  void Compare(const Node& n, const Lanes& ln);
  template <typename D, typename X, typename Y>
  void IntArith(const Node& n, const Lanes& ln);
  template <typename T>
  void FloatArith(const Node& n, const Lanes& ln);
  void Unary(const Node& n, const Lanes& ln);
  void Call(const Node& n, const Lanes& ln);
  void Convert(const Node& n, const Lanes& ln);
  void Select(const Node& n, const Lanes& ln);
  void Copy(const Operand& dst, const Operand& src, const Lanes& ln);
  bool Truth0(const Operand& cond);
  int Split(const Operand& cond, const Lanes& ln, std::uint16_t* on_true,
            std::uint16_t* on_false, int* false_count);

  // --- statements
  void Exec(std::int32_t stmt, const Lanes& ln);
  void SetVar(const SNode& s, const Lanes& ln);
  void Store(const SNode& s, const Lanes& ln);
  void If(const SNode& s, const Lanes& ln);
  void For(const SNode& s, const Lanes& ln);
  void Accumulate(const SNode& s, const Lanes& ln);
  void LaneLoop(const SNode& s, const Lanes& ln);
  void RunChunk(const SNode& s, std::int64_t base, int chunk);
  void FoldAccumulators(int chunk);
  bool FoldTyped(const lane::Accumulator& acc, const std::uint8_t* pend,
                 int chunk);
  void CopyPrivatesIn();
  void WriteBackPrivates();

  const LaneProgram& prog;
  std::size_t width;
  std::vector<std::int32_t> i32;
  std::vector<std::int64_t> i64;
  std::vector<float> f32;
  std::vector<double> f64;
  std::vector<std::int32_t> p_i32;
  std::vector<std::int64_t> p_i64;
  std::vector<float> p_f32;
  std::vector<double> p_f64;
  std::vector<std::size_t> priv_offset;
  std::vector<std::size_t> priv_size;
  std::vector<int> owner;  // per private copy: last lane that overwrote it
  std::size_t priv_stride = 1;
  // A caller-supplied local whose size differs from its declaration breaks
  // the full-overwrite proof; such a run goes lane by lane, copying the
  // shared buffer in and out around each task.
  bool copy_mode = false;
  std::vector<std::uint8_t> bound;
  std::vector<std::uint16_t> masks;   // active-lane lists, per mask slot
  std::vector<std::uint8_t> pending;  // per accumulator: lanes with an X
  // The bound device buffers: typed storage of the buffer's class.
  struct Bound {
    void* data = nullptr;
    std::size_t size = 0;
  };
  std::vector<Bound> bufs;
  std::int64_t live_lanes = 0;  // lanes the task loop runs this Run
  std::uint64_t* steps = nullptr;
};

Evaluator::Scratch::Scratch(const LaneProgram& program)
    : prog(program), width(static_cast<std::size_t>(program.width)) {
  i32.resize(static_cast<std::size_t>(prog.columns[0]) * width);
  i64.resize(static_cast<std::size_t>(prog.columns[1]) * width);
  f32.resize(static_cast<std::size_t>(prog.columns[2]) * width);
  f64.resize(static_cast<std::size_t>(prog.columns[3]) * width);
  bound.resize(prog.vars.size());
  masks.resize(static_cast<std::size_t>(prog.mask_slots) * width);
  pending.resize(prog.accumulators.size() * width);
  bufs.resize(prog.buffers.size());
  priv_offset.resize(prog.privates.size());
  priv_size.resize(prog.privates.size());
  owner.resize(prog.privates.size());
}

Value Evaluator::Scratch::VarValue(std::int32_t var) {
  const lane::VarInfo& v = prog.vars[static_cast<std::size_t>(var)];
  Value out;
  lane::WithKind(v.kind, [&](auto tag) {
    using T = typename decltype(tag)::type;
    out = jvm::ToValue(Col<T>(v.reg)[0]);
  });
  return out;
}

void Evaluator::Scratch::SetVarValue(std::int32_t var, const Value& value) {
  const lane::VarInfo& v = prog.vars[static_cast<std::size_t>(var)];
  lane::WithKind(v.kind, [&](auto tag) {
    using T = typename decltype(tag)::type;
    Col<T>(v.reg)[0] = jvm::FromValue<T>(value);
  });
  bound[static_cast<std::size_t>(var)] = 1;
}

void Evaluator::Scratch::IndexFault(const Lanes& ln, bool write,
                                    std::int64_t i, std::size_t size,
                                    std::int32_t buffer) {
  Fault(ln);
  const std::string& name = prog.buffers[static_cast<std::size_t>(buffer)].name;
  if (write) CheckWriteIndex(i, size, name);
  CheckReadIndex(i, size, name);
  S2FA_UNREACHABLE("index fault on an in-bounds index");
}

void Evaluator::Scratch::DivisionFault(const Lanes& ln, BinaryOp op,
                                       bool wide) {
  Fault(ln);
  ApplyIntBin(op, wide, 0, 0);
  S2FA_UNREACHABLE("division fault with a nonzero divisor");
}

template <typename D, typename X, typename F>
void Evaluator::Scratch::Map1(const Node& n, const Lanes& ln, F f) {
  const Operand& oa = Out(n.a);
  const X* a = In<X>(oa);
  D* d = Col<D>(n.out.index);
  if (!n.out.varying) {
    d[0] = f(a[0]);
    return;
  }
  ForLanes(ln, [&](int l) { d[l] = f(a[l]); });
}

template <typename D, typename X, typename Y, typename F>
void Evaluator::Scratch::Map2(const Node& n, const Lanes& ln, F f) {
  const Operand& oa = Out(n.a);
  const Operand& ob = Out(n.b);
  const X* a = In<X>(oa);
  const Y* b = In<Y>(ob);
  D* d = Col<D>(n.out.index);
  if (!n.out.varying) {
    d[0] = f(a[0], b[0]);
  } else if (ln.list != nullptr) {
    const int sa = oa.varying ? 1 : 0;
    const int sb = ob.varying ? 1 : 0;
    ForLanes(ln, [&](int l) { d[l] = f(a[l * sa], b[l * sb]); });
  } else if (oa.varying && ob.varying) {
    ForLanes(ln, [&](int l) { d[l] = f(a[l], b[l]); });
  } else if (oa.varying) {
    const Y y = b[0];
    ForLanes(ln, [&](int l) { d[l] = f(a[l], y); });
  } else {
    const X x = a[0];
    ForLanes(ln, [&](int l) { d[l] = f(x, b[l]); });
  }
}

void Evaluator::Scratch::Eval(std::int32_t idx, const Lanes& ln) {
  const Node& n = prog.nodes[static_cast<std::size_t>(idx)];
  if (n.charge) Charge(ln);
  switch (n.op) {
    case lane::NodeOp::kConst:
      return;
    case lane::NodeOp::kVar:
      if (n.check_bound && bound[static_cast<std::size_t>(n.id)] == 0) {
        Fault(ln);
        CheckBound(false, prog.vars[static_cast<std::size_t>(n.id)].name);
      }
      return;
    case lane::NodeOp::kLoad:
      Eval(n.a, ln);
      return Load(n, ln);
    case lane::NodeOp::kBinary:
      Eval(n.a, ln);
      Eval(n.b, ln);
      return Binary(n, ln);
    case lane::NodeOp::kUnary:
      Eval(n.a, ln);
      return Unary(n, ln);
    case lane::NodeOp::kCall:
      Eval(n.a, ln);
      if (n.b >= 0) Eval(n.b, ln);
      return Call(n, ln);
    case lane::NodeOp::kConvert:
      Eval(n.a, ln);
      return Convert(n, ln);
    case lane::NodeOp::kSelect:
      return Select(n, ln);
  }
}

void Evaluator::Scratch::Load(const Node& n, const Lanes& ln) {
  const Operand& oi = Out(n.a);
  lane::WithIntKind(oi.kind, [&](auto itag) {
    using X = typename decltype(itag)::type;
    const X* ix = In<X>(oi);
    lane::WithKind(n.out.kind, [&](auto dtag) {
      using D = typename decltype(dtag)::type;
      D* d = Col<D>(n.out.index);
      if (n.priv) {
        const D* copy = Priv<D>(n.id);
        const std::size_t size = priv_size[static_cast<std::size_t>(n.id)];
        ForLanes(ln, [&](int l) {
          const std::int64_t i = ix[oi.varying ? l : 0];
          if (i < 0 || static_cast<std::size_t>(i) >= size) {
            IndexFault(ln, false, i, size,
                       prog.privates[static_cast<std::size_t>(n.id)].buffer);
          }
          d[l] = copy[static_cast<std::size_t>(i) * priv_stride +
                      static_cast<std::size_t>(l)];
        });
        return;
      }
      const D* buf = Buf<D>(n.id);
      const std::size_t size = BufSize(n.id);
      auto load = [&](int l) {
        const std::int64_t i = ix[l];
        if (i < 0 || static_cast<std::size_t>(i) >= size) {
          IndexFault(ln, false, i, size, n.id);
        }
        d[l] = buf[static_cast<std::size_t>(i)];
      };
      // A shared-buffer load varies exactly when its index does.
      if (n.out.varying) {
        ForLanes(ln, load);
      } else {
        load(0);
      }
    });
  });
}

template <typename C, typename X, typename Y>
void Evaluator::Scratch::Compare(const Node& n, const Lanes& ln) {
  using D = std::int32_t;
  switch (n.bop) {
    case BinaryOp::kLt:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) -> D { return C(x) < C(y); });
    case BinaryOp::kLe:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) -> D { return C(x) <= C(y); });
    case BinaryOp::kGt:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) -> D { return C(x) > C(y); });
    case BinaryOp::kGe:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) -> D { return C(x) >= C(y); });
    case BinaryOp::kEq:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) -> D { return C(x) == C(y); });
    case BinaryOp::kNe:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) -> D { return C(x) != C(y); });
    default:
      return Map2<D, X, Y>(n, ln, [](X, Y) -> D { return 0; });
  }
}

// Computes in the operands' class X and narrows to D; a shift narrows its
// operand first, so an int shift takes an int's count mask.
template <typename D, typename X, typename Y>
void Evaluator::Scratch::IntArith(const Node& n, const Lanes& ln) {
  constexpr bool kWide = std::is_same_v<D, std::int64_t>;
  switch (n.bop) {
    case BinaryOp::kAdd:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(java::Add(x, y)); });
    case BinaryOp::kSub:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(java::Sub(x, y)); });
    case BinaryOp::kMul:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(java::Mul(x, y)); });
    case BinaryOp::kDiv:
    case BinaryOp::kRem: {
      const BinaryOp op = n.bop;
      return Map2<D, X, Y>(n, ln, [&ln, op](X x, Y y) {
        if (y == 0) DivisionFault(ln, op, kWide);
        return D(op == BinaryOp::kDiv ? java::Div(x, y) : java::Rem(x, y));
      });
    }
    case BinaryOp::kShl:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return java::Shl(D(x), y); });
    case BinaryOp::kShr:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return java::Shr(D(x), y); });
    case BinaryOp::kUShr:
      return Map2<D, X, Y>(n, ln,
                           [](X x, Y y) { return java::UShr(D(x), y); });
    case BinaryOp::kAnd:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(x & y); });
    case BinaryOp::kOr:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(x | y); });
    case BinaryOp::kXor:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(x ^ y); });
    case BinaryOp::kMin:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(java::Min(x, y)); });
    case BinaryOp::kMax:
      return Map2<D, X, Y>(n, ln, [](X x, Y y) { return D(java::Max(x, y)); });
    default:
      Fault(ln);
      ApplyIntBin(n.bop, kWide, 0, 1);
      S2FA_UNREACHABLE("unhandled int binop");
  }
}

template <typename T>
void Evaluator::Scratch::FloatArith(const Node& n, const Lanes& ln) {
  switch (n.bop) {
    case BinaryOp::kAdd:
      return Map2<T, T, T>(n, ln, [](T x, T y) -> T { return x + y; });
    case BinaryOp::kSub:
      return Map2<T, T, T>(n, ln, [](T x, T y) -> T { return x - y; });
    case BinaryOp::kMul:
      return Map2<T, T, T>(n, ln, [](T x, T y) -> T { return x * y; });
    case BinaryOp::kDiv:
      return Map2<T, T, T>(n, ln, [](T x, T y) -> T { return x / y; });
    case BinaryOp::kRem:
      return Map2<T, T, T>(n, ln,
                           [](T x, T y) -> T { return std::fmod(x, y); });
    case BinaryOp::kMin:
      return Map2<T, T, T>(n, ln, [](T x, T y) { return java::Min(x, y); });
    case BinaryOp::kMax:
      return Map2<T, T, T>(n, ln, [](T x, T y) { return java::Max(x, y); });
    default:
      Fault(ln);
      ApplyFloatBin<T>(n.bop, T{}, T{});
      S2FA_UNREACHABLE("bitwise op on float");
  }
}

// Operands arrive in one class (see the compiler's meet), so each form
// instantiates its kernels once per operand class.
void Evaluator::Scratch::Binary(const Node& n, const Lanes& ln) {
  using I32 = std::int32_t;
  using I64 = std::int64_t;
  const bool wide = Out(n.a).kind == Kind::kI64 || Out(n.a).kind == Kind::kF64;
  switch (n.form) {
    case lane::BinForm::kFloat32:
      return FloatArith<float>(n, ln);
    case lane::BinForm::kFloat64:
      return FloatArith<double>(n, ln);
    case lane::BinForm::kCmpFloat:
      return wide ? Compare<double, double, double>(n, ln)
                  : Compare<double, float, float>(n, ln);
    case lane::BinForm::kCmpInt:
      return wide ? Compare<I64, I64, I64>(n, ln) : Compare<I64, I32, I32>(n, ln);
    case lane::BinForm::kLogical: {
      const bool both = n.bop == BinaryOp::kLAnd;
      auto logical = [&](auto tag) {
        using X = typename decltype(tag)::type;
        Map2<I32, X, X>(n, ln, [both](X x, X y) -> I32 {
          return both ? (x != 0 && y != 0) : (x != 0 || y != 0);
        });
      };
      return wide ? logical(lane::Tag<I64>{}) : logical(lane::Tag<I32>{});
    }
    case lane::BinForm::kInt32:
      return wide ? IntArith<I32, I64, I64>(n, ln) : IntArith<I32, I32, I32>(n, ln);
    case lane::BinForm::kInt64:
      return IntArith<I64, I64, I64>(n, ln);
  }
}

void Evaluator::Scratch::Unary(const Node& n, const Lanes& ln) {
  const Kind ka = Out(n.a).kind;
  switch (n.uop) {
    case UnaryOp::kNeg:
      return lane::WithKind(ka, [&](auto tag) {
        using X = typename decltype(tag)::type;
        Map1<X, X>(n, ln, [](X x) { return java::Neg(x); });
      });
    case UnaryOp::kBitNot:
      return lane::WithIntKind(ka, [&](auto tag) {
        using X = typename decltype(tag)::type;
        if (n.type == TypeKind::kLong) {
          Map1<std::int64_t, X>(n, ln, [](X x) { return ~std::int64_t{x}; });
        } else {
          Map1<std::int32_t, X>(n, ln,
                                [](X x) { return std::int32_t(~x); });
        }
      });
    case UnaryOp::kLogicalNot:
      return lane::WithKind(ka, [&](auto tag) {
        using X = typename decltype(tag)::type;
        Map1<std::int32_t, X>(n, ln, [](X x) -> std::int32_t {
          return java::Cast<std::int64_t>(x) == 0;
        });
      });
  }
}

namespace {

float FloatIntrinsic(Intrinsic fn, float x, float y) {
  switch (fn) {
    case Intrinsic::kExp: return std::exp(x);
    case Intrinsic::kLog: return std::log(x);
    case Intrinsic::kSqrt: return std::sqrt(x);
    case Intrinsic::kAbs: return std::fabs(x);
    case Intrinsic::kPow: return std::pow(x, y);
  }
  S2FA_UNREACHABLE("bad intrinsic");
}

double DoubleIntrinsic(Intrinsic fn, double x, double y) {
  switch (fn) {
    case Intrinsic::kExp: return std::exp(x);
    case Intrinsic::kLog: return std::log(x);
    case Intrinsic::kSqrt: return std::sqrt(x);
    case Intrinsic::kAbs: return std::fabs(x);
    case Intrinsic::kPow: return std::pow(x, y);
  }
  S2FA_UNREACHABLE("bad intrinsic");
}

}  // namespace

// ApplyIntrinsic per lane on ToDouble'd operands: float results compute
// in float (C's f-suffixed functions); others compute in double and
// convert like FromDouble.
void Evaluator::Scratch::Call(const Node& n, const Lanes& ln) {
  const Intrinsic fn = n.fn;
  lane::WithKind(n.out.kind, [&](auto dt) {
    using D = typename decltype(dt)::type;
    auto apply = [fn](double x, double y) -> D {
      if constexpr (std::is_same_v<D, float>) {
        return FloatIntrinsic(fn, static_cast<float>(x),
                              static_cast<float>(y));
      } else {
        return java::Cast<D>(DoubleIntrinsic(fn, x, y));
      }
    };
    if (n.b < 0) {
      Map1<D, double>(n, ln, [&](double x) { return apply(x, 0.0); });
    } else {
      Map2<D, double, double>(n, ln, apply);
    }
  });
}

void Evaluator::Scratch::Convert(const Node& n, const Lanes& ln) {
  lane::WithKind(Out(n.a).kind, [&](auto xt) {
    using X = typename decltype(xt)::type;
    java::WithPrimitive(n.type, [&](auto k) {
      constexpr TypeKind K = decltype(k)::value;
      Map1<java::Stored<K>, X>(n, ln, [](X x) { return java::To<K>(x); });
    });
  });
}

void Evaluator::Scratch::Copy(const Operand& dst, const Operand& src,
                              const Lanes& ln) {
  lane::WithKind(dst.kind, [&](auto tag) {
    using T = typename decltype(tag)::type;
    T* d = Col<T>(dst.index);
    const T* s = In<T>(src);
    if (!dst.varying) {
      d[0] = s[0];
    } else if (src.varying) {
      ForLanes(ln, [&](int l) { d[l] = s[l]; });
    } else {
      const T x = s[0];
      ForLanes(ln, [&](int l) { d[l] = x; });
    }
  });
}

bool Evaluator::Scratch::Truth0(const Operand& cond) {
  bool t = false;
  lane::WithKind(cond.kind, [&](auto tag) {
    using T = typename decltype(tag)::type;
    t = java::Cast<std::int64_t>(In<T>(cond)[0]) != 0;
  });
  return t;
}

// Splits the active lanes by a varying condition into two ascending lane
// lists; returns the true count.
int Evaluator::Scratch::Split(const Operand& cond, const Lanes& ln,
                              std::uint16_t* on_true, std::uint16_t* on_false,
                              int* false_count) {
  int tc = 0;
  int fc = 0;
  lane::WithKind(cond.kind, [&](auto tag) {
    using T = typename decltype(tag)::type;
    const T* c = In<T>(cond);
    ForLanes(ln, [&](int l) {
      if (java::Cast<std::int64_t>(c[l]) != 0) {
        on_true[tc++] = static_cast<std::uint16_t>(l);
      } else {
        on_false[fc++] = static_cast<std::uint16_t>(l);
      }
    });
  });
  *false_count = fc;
  return tc;
}

void Evaluator::Scratch::Select(const Node& n, const Lanes& ln) {
  Eval(n.a, ln);
  const Operand& cond = Out(n.a);
  if (!cond.varying) {
    const std::int32_t arm = Truth0(cond) ? n.b : n.c;
    Eval(arm, ln);
    return Copy(n.out, Out(arm), ln);
  }
  std::uint16_t* tm = MaskSlot(2 * n.depth);
  std::uint16_t* fm = MaskSlot(2 * n.depth + 1);
  int fc = 0;
  const int tc = Split(cond, ln, tm, fm, &fc);
  if (fc == 0 || tc == 0) {
    const std::int32_t arm = fc == 0 ? n.b : n.c;
    Eval(arm, ln);
    return Copy(n.out, Out(arm), ln);
  }
  const Lanes on_true{ln.width, tm, tc};
  const Lanes on_false{ln.width, fm, fc};
  Eval(n.b, on_true);
  Eval(n.c, on_false);
  Copy(n.out, Out(n.b), on_true);
  Copy(n.out, Out(n.c), on_false);
}

void Evaluator::Scratch::Exec(std::int32_t idx, const Lanes& ln) {
  const SNode& s = prog.stmts[static_cast<std::size_t>(idx)];
  switch (s.op) {
    case lane::StmtOp::kBlock:
      Charge(ln);
      for (std::int32_t st : s.stmts) Exec(st, ln);
      return;
    case lane::StmtOp::kSetVar:
      return SetVar(s, ln);
    case lane::StmtOp::kStore:
      return Store(s, ln);
    case lane::StmtOp::kIf:
      return If(s, ln);
    case lane::StmtOp::kFor:
      return For(s, ln);
    case lane::StmtOp::kAccumulate:
      return Accumulate(s, ln);
    case lane::StmtOp::kLaneLoop:
      return LaneLoop(s, ln);
  }
}

// The compiler already narrowed the value to the store type (kConvert), so
// assignments only copy.
void Evaluator::Scratch::SetVar(const SNode& s, const Lanes& ln) {
  Charge(ln);
  if (s.value >= 0) Eval(s.value, ln);
  const Operand& src = s.value >= 0 ? Out(s.value) : s.dflt;
  const Operand dst{lane::Space::kReg, src.kind, true,
                    prog.vars[static_cast<std::size_t>(s.id)].reg};
  Copy(dst, src, ln);
  bound[static_cast<std::size_t>(s.id)] = 1;
}

void Evaluator::Scratch::Store(const SNode& s, const Lanes& ln) {
  Charge(ln);
  Eval(s.value, ln);
  Eval(s.index, ln);
  const Operand& ov = Out(s.value);
  const Operand& oi = Out(s.index);
  lane::WithIntKind(oi.kind, [&](auto it) {
    using X = typename decltype(it)::type;
    const X* ix = In<X>(oi);
    lane::WithKind(ov.kind, [&](auto vt) {
      using V = typename decltype(vt)::type;
      const V* v = In<V>(ov);
      const int sv = ov.varying ? 1 : 0;
      const int si = oi.varying ? 1 : 0;
      if (s.priv) {
        V* copy = Priv<V>(s.id);
        const std::size_t size = priv_size[static_cast<std::size_t>(s.id)];
        ForLanes(ln, [&](int l) {
          const std::int64_t i = ix[l * si];
          if (i < 0 || static_cast<std::size_t>(i) >= size) {
            IndexFault(ln, true, i, size,
                       prog.privates[static_cast<std::size_t>(s.id)].buffer);
          }
          copy[static_cast<std::size_t>(i) * priv_stride +
               static_cast<std::size_t>(l)] = v[l * sv];
        });
        return;
      }
      // The compiler narrows a stored value to the buffer's class.
      V* buf = Buf<V>(s.id);
      const std::size_t size = BufSize(s.id);
      ForLanes(ln, [&](int l) {
        const std::int64_t i = ix[l * si];
        if (i < 0 || static_cast<std::size_t>(i) >= size) {
          IndexFault(ln, true, i, size, s.id);
        }
        buf[static_cast<std::size_t>(i)] = v[l * sv];
      });
    });
  });
}

void Evaluator::Scratch::If(const SNode& s, const Lanes& ln) {
  Charge(ln);
  Eval(s.value, ln);
  const Operand& cond = Out(s.value);
  if (!cond.varying) {
    if (Truth0(cond)) {
      Exec(s.body, ln);
    } else if (s.els >= 0) {
      Exec(s.els, ln);
    }
    return;
  }
  std::uint16_t* tm = MaskSlot(2 * s.depth);
  std::uint16_t* fm = MaskSlot(2 * s.depth + 1);
  int fc = 0;
  const int tc = Split(cond, ln, tm, fm, &fc);
  if (tc > 0) Exec(s.body, tc == ln.active ? ln : Lanes{ln.width, tm, tc});
  if (fc > 0 && s.els >= 0) {
    Exec(s.els, fc == ln.active ? ln : Lanes{ln.width, fm, fc});
  }
}

void Evaluator::Scratch::For(const SNode& s, const Lanes& ln) {
  Charge(ln);
  std::int32_t* counter =
      Col<std::int32_t>(prog.vars[static_cast<std::size_t>(s.id)].reg);
  for (std::int64_t it = 0; it < s.trip; ++it) {
    const auto v = static_cast<std::int32_t>(it);
    if (s.varying) {
      ForLanes(ln, [&](int l) { counter[l] = v; });
    } else {
      counter[0] = v;
    }
    bound[static_cast<std::size_t>(s.id)] = 1;
    Exec(s.body, ln);
  }
  if (s.overwrites >= 0 && s.trip > 0) {
    int& o = owner[static_cast<std::size_t>(s.overwrites)];
    o = std::max(o, lane::LastActive(ln));
  }
}

void Evaluator::Scratch::Accumulate(const SNode& s, const Lanes& ln) {
  const lane::Accumulator& acc =
      prog.accumulators[static_cast<std::size_t>(s.id)];
  Charge(ln, 3);  // the assignment, `acc op X`, and the read of acc
  if (bound[static_cast<std::size_t>(acc.var)] == 0) {
    Fault(ln);
    CheckBound(false, prog.vars[static_cast<std::size_t>(acc.var)].name);
  }
  Eval(s.value, ln);
  Copy(acc.pending, Out(s.value), ln);
  std::uint8_t* pend = pending.data() + static_cast<std::size_t>(s.id) * width;
  ForLanes(ln, [&](int l) { pend[l] = 1; });
}

void Evaluator::Scratch::LaneLoop(const SNode& s, const Lanes& ln) {
  const lane::LaneLoop& loop = prog.lanes;
  Charge(ln);  // the task loop itself
  if (loop.vars.size() > 1) {
    // Per tile: the tile loop's body block and the point loop.
    Charge(ln, 2 * static_cast<std::uint64_t>(loop.outer_trip));
  }
  const std::int64_t chunk = copy_mode ? 1 : static_cast<std::int64_t>(width);
  for (std::int64_t base = 0; base < live_lanes; base += chunk) {
    RunChunk(s, base, static_cast<int>(std::min(chunk, live_lanes - base)));
  }
  // Leave the counters where the sequential walk leaves them.
  auto set = [&](std::int32_t var, std::int64_t v) {
    Col<std::int32_t>(prog.vars[static_cast<std::size_t>(var)].reg)[0] =
        static_cast<std::int32_t>(v);
    bound[static_cast<std::size_t>(var)] = 1;
  };
  if (loop.outer_trip > 0) {
    set(loop.vars[0], loop.outer_trip - 1);
    if (loop.vars.size() > 1 && loop.inner_trip > 0) {
      set(loop.vars[1], loop.inner_trip - 1);
    }
  }
}

void Evaluator::Scratch::RunChunk(const SNode& s, std::int64_t base,
                                  int chunk) {
  const lane::LaneLoop& loop = prog.lanes;
  std::int32_t* outer =
      Col<std::int32_t>(prog.vars[static_cast<std::size_t>(loop.vars[0])].reg);
  if (loop.vars.size() == 1) {
    for (int l = 0; l < chunk; ++l) {
      outer[l] = static_cast<std::int32_t>(base + l);
    }
  } else {
    std::int32_t* inner = Col<std::int32_t>(
        prog.vars[static_cast<std::size_t>(loop.vars[1])].reg);
    for (int l = 0; l < chunk; ++l) {
      outer[l] = static_cast<std::int32_t>((base + l) / loop.inner_trip);
      inner[l] = static_cast<std::int32_t>((base + l) % loop.inner_trip);
    }
    bound[static_cast<std::size_t>(loop.vars[1])] = 1;
  }
  bound[static_cast<std::size_t>(loop.vars[0])] = 1;
  std::fill(pending.begin(), pending.end(), 0);
  std::fill(owner.begin(), owner.end(), -1);
  if (copy_mode) CopyPrivatesIn();

  const Lanes ln{chunk, nullptr, chunk};
  if (chunk > 1) {
    const std::uint64_t before = *steps;
    try {
      Exec(s.body, ln);
    } catch (const lane::LaneFault&) {
      *steps = before;
      for (int l = 0; l < chunk; ++l) RunChunk(s, base + l, 1);
      return;
    }
  } else {
    Exec(s.body, ln);
  }
  FoldAccumulators(chunk);
  WriteBackPrivates();
}

void Evaluator::Scratch::FoldAccumulators(int chunk) {
  for (std::size_t a = 0; a < prog.accumulators.size(); ++a) {
    const lane::Accumulator& acc = prog.accumulators[a];
    const std::uint8_t* pend = pending.data() + a * width;
    if (std::none_of(pend, pend + chunk, [](std::uint8_t p) { return p; })) {
      continue;
    }
    if (FoldTyped(acc, pend, chunk)) continue;
    Value sum = VarValue(acc.var);
    lane::WithKind(acc.pending.kind, [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* x = Col<T>(acc.pending.index);
      for (int l = 0; l < chunk; ++l) {
        if (pend[l] == 0) continue;
        sum = java::Convert(acc.store, lane::ApplyBinary(acc.form, acc.bop, sum,
                                                         jvm::ToValue(x[l])));
      }
    });
    SetVarValue(acc.var, sum);
  }
}

// The common fold, `acc = acc op x` with acc, x and the arithmetic all in
// one storage class and acc declared as that class's whole type (int,
// long, float, double), runs unboxed: the same arithmetic as the lane
// path's Binary, and the narrowing store is the identity. Returns false,
// leaving the boxed fold to run, for any other shape.
bool Evaluator::Scratch::FoldTyped(const lane::Accumulator& acc,
                                   const std::uint8_t* pend, int chunk) {
  const lane::BinForm form = acc.form;
  const bool arithmetic =
      form == lane::BinForm::kFloat32 || form == lane::BinForm::kFloat64 ||
      form == lane::BinForm::kInt32 || form == lane::BinForm::kInt64;
  const Kind kind = lane::KindOfForm(form);
  const lane::VarInfo& var = prog.vars[static_cast<std::size_t>(acc.var)];
  const bool whole = acc.store == TypeKind::kInt ||
                     acc.store == TypeKind::kLong ||
                     acc.store == TypeKind::kFloat ||
                     acc.store == TypeKind::kDouble;
  if (!arithmetic || !whole || acc.pending.kind != kind || var.kind != kind ||
      jvm::StorageOf(acc.store) != kind) {
    return false;
  }
  lane::WithKind(kind, [&](auto tag) {
    using T = typename decltype(tag)::type;
    T& sum = Col<T>(var.reg)[0];
    const T* x = Col<T>(acc.pending.index);
    for (int l = 0; l < chunk; ++l) {
      if (pend[l] == 0) continue;
      if constexpr (std::is_floating_point_v<T>) {
        sum = ApplyFloatBin<T>(acc.bop, sum, x[l]);
      } else {
        sum = static_cast<T>(ApplyIntBin(acc.bop, std::is_same_v<T, std::int64_t>,
                                         sum, x[l]));
      }
    }
  });
  bound[static_cast<std::size_t>(acc.var)] = 1;
  return true;
}

void Evaluator::Scratch::CopyPrivatesIn() {
  for (std::size_t p = 0; p < prog.privates.size(); ++p) {
    const lane::PrivateCopy& pc = prog.privates[p];
    lane::WithKind(pc.kind, [&](auto tag) {
      using T = typename decltype(tag)::type;
      std::copy_n(Buf<T>(pc.buffer), BufSize(pc.buffer),
                  Priv<T>(static_cast<std::int32_t>(p)));
    });
    owner[p] = 0;
  }
}

// The last lane that overwrote a private copy is the last task to touch
// that buffer at all, so its copy is the buffer's sequential end state.
void Evaluator::Scratch::WriteBackPrivates() {
  for (std::size_t p = 0; p < prog.privates.size(); ++p) {
    if (owner[p] < 0) continue;
    const lane::PrivateCopy& pc = prog.privates[p];
    const auto lane_index = static_cast<std::size_t>(owner[p]);
    lane::WithKind(pc.kind, [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* copy = Priv<T>(static_cast<std::int32_t>(p));
      T* buf = Buf<T>(pc.buffer);
      for (std::size_t e = 0; e < BufSize(pc.buffer); ++e) {
        buf[e] = copy[e * priv_stride + lane_index];
      }
    });
  }
}

void Evaluator::Scratch::Run(const std::map<std::string, Value>& scalars,
                             jvm::PrimitiveArray* buffers,
                             std::int64_t live_tasks,
                             std::uint64_t& step_count) {
  steps = &step_count;
  *steps = 0;
  std::fill(bound.begin(), bound.end(), 0);
  for (std::int32_t var : prog.scalar_vars) {
    const std::string& name = prog.vars[static_cast<std::size_t>(var)].name;
    auto it = scalars.find(name);
    CheckScalarGiven(it != scalars.end(), name);
    SetVarValue(var, it->second);
  }
  for (std::size_t i = 0; i < prog.buffers.size(); ++i) {
    bufs[i] = {buffers[i].raw(), buffers[i].size()};
  }

  copy_mode = false;
  for (std::size_t p = 0; p < prog.privates.size(); ++p) {
    const lane::PrivateCopy& pc = prog.privates[p];
    priv_size[p] = BufSize(pc.buffer);
    copy_mode = copy_mode ||
                priv_size[p] != static_cast<std::size_t>(pc.length);
  }
  priv_stride = copy_mode ? 1 : width;
  std::size_t totals[4] = {0, 0, 0, 0};
  for (std::size_t p = 0; p < prog.privates.size(); ++p) {
    std::size_t& total = totals[static_cast<std::size_t>(prog.privates[p].kind)];
    priv_offset[p] = total;
    total += priv_size[p] * priv_stride;
  }
  p_i32.resize(totals[0]);
  p_i64.resize(totals[1]);
  p_f32.resize(totals[2]);
  p_f64.resize(totals[3]);

  // Lane l runs task l, so skipping padding keeps the first live_tasks
  // lanes -- when nothing a padded task does is observable (eval.h).
  const lane::LaneLoop& loop = prog.lanes;
  live_lanes = loop.outer_trip * loop.inner_trip;
  if (prog.width > 1 && live_tasks < live_lanes &&
      (!loop.accumulates ||
       (loop.guard >= 0 && ToInt64(VarValue(loop.guard)) == live_tasks))) {
    live_lanes = live_tasks;
  }
  Exec(prog.root, Lanes{});
}

// --------------------------------------------------------------------------
// Evaluator
// --------------------------------------------------------------------------

Evaluator::Evaluator(const Kernel& kernel)
    : Evaluator(CompileLaneProgram(kernel)) {}

Evaluator::Evaluator(std::shared_ptr<const LaneProgram> program)
    : program_(std::move(program)) {
  S2FA_REQUIRE(program_ != nullptr, "evaluator needs a compiled program");
  scratch_ = std::make_unique<Scratch>(*program_);
}

Evaluator::~Evaluator() = default;

void Evaluator::Run(const std::map<std::string, Value>& scalars,
                    DeviceBuffers& buffers, std::int64_t live_tasks) {
  S2FA_REQUIRE(live_tasks >= 0, "live task count must be >= 0");
  const LaneProgram& prog = *program_;
  S2FA_REQUIRE(buffers.size() == prog.buffers.size(),
               "kernel has " << prog.buffers.size() << " buffers, "
                             << buffers.size() << " bound");
  for (std::size_t i = 0; i < prog.buffers.size(); ++i) {
    const lane::BufferInfo& b = prog.buffers[i];
    if (b.kind == BufferKind::kInput) {
      S2FA_REQUIRE(buffers[i].storage() == b.element,
                   "input buffer " << b.name
                                   << " is bound in another storage class");
    } else {
      buffers[i].AssignZero(b.element, static_cast<std::size_t>(b.length));
    }
  }
  scratch_->Run(scalars, buffers.data(), live_tasks, steps_);
}

void Evaluator::Run(const std::map<std::string, Value>& scalars,
                    BufferMap& buffers, std::int64_t live_tasks) {
  S2FA_REQUIRE(live_tasks >= 0, "live task count must be >= 0");
  const LaneProgram& prog = *program_;
  // Bind each named buffer as a typed array (a missing output or local
  // starts zero-filled at its declared length), run, and box back every
  // element the kernel changed -- also when it faults part way, as the
  // map-keyed walk leaves its partial writes behind.
  DeviceBuffers slots(prog.buffers.size());
  std::vector<std::vector<Value>*> given(prog.buffers.size(), nullptr);
  for (std::size_t i = 0; i < prog.buffers.size(); ++i) {
    const lane::BufferInfo& b = prog.buffers[i];
    auto it = buffers.find(b.name);
    if (it == buffers.end()) {
      CheckBufferGiven(b.kind, b.name);
      slots[i].AssignZero(b.element, static_cast<std::size_t>(b.length));
      continue;
    }
    given[i] = &it->second;
    slots[i] = jvm::FromValues(b.element, it->second);
  }
  auto write_back = [&] {
    for (std::size_t i = 0; i < prog.buffers.size(); ++i) {
      const lane::BufferInfo& b = prog.buffers[i];
      if (given[i] == nullptr) {
        buffers[b.name] = jvm::ToValues(slots[i]);
        continue;
      }
      lane::WithKind(b.element, [&](auto tag) {
        using T = typename decltype(tag)::type;
        const std::span<const T> typed =
            std::as_const(slots[i]).values<T>();
        std::vector<Value>& out = *given[i];
        for (std::size_t e = 0; e < typed.size(); ++e) {
          const T before = jvm::FromValue<T>(out[e]);
          if (std::memcmp(&before, &typed[e], sizeof(T)) != 0) {
            out[e] = jvm::ToValue(typed[e]);
          }
        }
      });
    }
  };
  try {
    scratch_->Run(scalars, slots.data(), live_tasks, steps_);
  } catch (...) {
    write_back();
    throw;
  }
  write_back();
}

int Evaluator::lane_width() const { return program_->width; }

// --------------------------------------------------------------------------
// ReferenceEvaluator: the legacy map-keyed tree walker.
// --------------------------------------------------------------------------

ReferenceEvaluator::ReferenceEvaluator(const Kernel& kernel)
    : kernel_(kernel) {
  kernel.Validate();
}

Value ReferenceEvaluator::Eval(const ExprPtr& expr, Env& env) {
  if (++steps_ > max_steps_) {
    throw InternalError("IR evaluator step budget exceeded");
  }
  const Expr& e = *expr;
  switch (e.kind()) {
    case ExprKind::kIntLit:
      if (e.type().kind() == TypeKind::kLong) {
        return Value::OfLong(e.int_value());
      }
      return Value::OfInt(static_cast<std::int32_t>(e.int_value()));
    case ExprKind::kFloatLit:
      return FromDouble(e.type().kind(), e.float_value());
    case ExprKind::kVar: {
      auto it = env.vars.find(e.name());
      CheckBound(it != env.vars.end(), e.name());
      return it->second;
    }
    case ExprKind::kArrayRef: {
      std::int64_t index = ToInt64(Eval(e.operands()[0], env));
      auto it = env.buffers->find(e.name());
      S2FA_CHECK(it != env.buffers->end(), "unbound buffer " << e.name());
      CheckReadIndex(index, it->second.size(), e.name());
      return it->second[static_cast<std::size_t>(index)];
    }
    case ExprKind::kBinary: {
      Value a = Eval(e.operands()[0], env);
      Value b = Eval(e.operands()[1], env);
      const Type& t = e.operands()[0]->type();
      BinaryOp op = e.binary_op();
      if (IsComparison(op)) {
        return Value::OfInt(
            CompareValues(op, t.is_integral(), a, b) ? 1 : 0);
      }
      if (op == BinaryOp::kLAnd) {
        return Value::OfInt((ToInt64(a) != 0 && ToInt64(b) != 0) ? 1 : 0);
      }
      if (op == BinaryOp::kLOr) {
        return Value::OfInt((ToInt64(a) != 0 || ToInt64(b) != 0) ? 1 : 0);
      }
      if (t.is_floating()) {
        if (t.kind() == TypeKind::kFloat) {
          return Value::OfFloat(
              ApplyFloatBin<float>(op, static_cast<float>(ToDouble(a)),
                                   static_cast<float>(ToDouble(b))));
        }
        return Value::OfDouble(
            ApplyFloatBin<double>(op, ToDouble(a), ToDouble(b)));
      }
      const bool wide = t.kind() == TypeKind::kLong;
      std::int64_t r = ApplyIntBin(op, wide, ToInt64(a), ToInt64(b));
      if (wide) return Value::OfLong(r);
      return Value::OfInt(static_cast<std::int32_t>(r));
    }
    case ExprKind::kUnary:
      return ApplyUnary(e.unary_op(), e.operands()[0]->type().kind(),
                        Eval(e.operands()[0], env));
    case ExprKind::kCall: {
      double x = ToDouble(Eval(e.operands()[0], env));
      double y = e.operands().size() > 1
                     ? ToDouble(Eval(e.operands()[1], env))
                     : 0.0;
      return ApplyIntrinsic(e.intrinsic(), e.type().kind(), x, y);
    }
    case ExprKind::kCast: {
      Value a = Eval(e.operands()[0], env);
      return java::Convert(e.type().kind(), a);
    }
    case ExprKind::kSelect: {
      Value c = Eval(e.operands()[0], env);
      return ToInt64(c) != 0 ? Eval(e.operands()[1], env)
                             : Eval(e.operands()[2], env);
    }
  }
  S2FA_UNREACHABLE("bad expr kind");
}

void ReferenceEvaluator::Exec(const Stmt& stmt, Env& env) {
  if (++steps_ > max_steps_) {
    throw InternalError("IR evaluator step budget exceeded");
  }
  switch (stmt.kind()) {
    case StmtKind::kAssign: {
      Value v = Eval(stmt.rhs(), env);
      const Expr& lhs = *stmt.lhs();
      if (lhs.kind() == ExprKind::kVar) {
        env.vars[lhs.name()] = java::Convert(lhs.type().kind(), v);
      } else {
        std::int64_t index = ToInt64(Eval(lhs.operands()[0], env));
        auto it = env.buffers->find(lhs.name());
        S2FA_CHECK(it != env.buffers->end(), "unbound buffer " << lhs.name());
        CheckWriteIndex(index, it->second.size(), lhs.name());
        it->second[static_cast<std::size_t>(index)] =
            java::Convert(lhs.type().kind(), v);
      }
      break;
    }
    case StmtKind::kDecl: {
      Value v = stmt.init() ? Eval(stmt.init(), env)
                            : jvm::DefaultValue(stmt.decl_type());
      env.vars[stmt.decl_name()] =
          java::Convert(stmt.decl_type().kind(), v);
      break;
    }
    case StmtKind::kIf: {
      Value c = Eval(stmt.cond(), env);
      if (ToInt64(c) != 0) {
        Exec(*stmt.then_stmt(), env);
      } else if (stmt.else_stmt()) {
        Exec(*stmt.else_stmt(), env);
      }
      break;
    }
    case StmtKind::kFor: {
      for (std::int64_t i = 0; i < stmt.trip_count(); ++i) {
        env.vars[stmt.loop_var()] =
            Value::OfInt(static_cast<std::int32_t>(i));
        Exec(*stmt.body(), env);
      }
      break;
    }
    case StmtKind::kBlock:
      for (const auto& st : stmt.stmts()) Exec(*st, env);
      break;
  }
}

void ReferenceEvaluator::Run(const std::map<std::string, Value>& scalars,
                             BufferMap& buffers) {
  steps_ = 0;
  Env env;
  env.buffers = &buffers;
  for (const auto& s : kernel_.scalars) {
    auto it = scalars.find(s.name);
    CheckScalarGiven(it != scalars.end(), s.name);
    env.vars[s.name] = it->second;
  }
  for (const auto& b : kernel_.buffers) {
    auto it = buffers.find(b.name);
    if (it == buffers.end()) {
      CheckBufferGiven(b.kind, b.name);
      buffers[b.name].assign(static_cast<std::size_t>(b.length),
                             jvm::DefaultValue(b.element));
    }
  }
  Exec(*kernel_.body, env);
}

}  // namespace s2fa::kir
