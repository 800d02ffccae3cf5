// Kernel IR expressions.
//
// The bytecode-to-C compiler lowers verified bytecode into this IR; Merlin
// transformations rewrite it; the HLS estimator schedules it; and the C
// emitter prints it as HLS C. Expressions are immutable trees shared via
// shared_ptr<const Expr>, so transformed kernels can share unchanged
// subtrees with their originals.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "jvm/type.h"

namespace s2fa::kir {

using Type = jvm::Type;
using TypeKind = jvm::TypeKind;

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kRem,
  kShl, kShr, kUShr, kAnd, kOr, kXor,
  kMin, kMax,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kLAnd, kLOr,
};

enum class UnaryOp { kNeg, kBitNot, kLogicalNot };

// Math intrinsics that survive into HLS C (mapped onto expf/sqrtf/... and,
// on the FPGA, onto pipelined cores).
enum class Intrinsic { kExp, kLog, kSqrt, kAbs, kPow };

enum class ExprKind {
  kIntLit,     // integer literal (type gives the width)
  kFloatLit,   // float/double literal
  kVar,        // scalar variable reference by name
  kArrayRef,   // buffer[name] indexed by one expression
  kBinary,
  kUnary,
  kCall,       // intrinsic call
  kCast,       // value conversion to `type`
  kSelect,     // cond ? a : b
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  ExprKind kind() const { return kind_; }
  const Type& type() const { return type_; }

  std::int64_t int_value() const { return int_value_; }
  double float_value() const { return float_value_; }
  // Variable or buffer name (kVar/kArrayRef); intrinsic ignored it.
  const std::string& name() const { return name_; }
  Intrinsic intrinsic() const { return intrinsic_; }
  BinaryOp binary_op() const { return binary_op_; }
  UnaryOp unary_op() const { return unary_op_; }
  // Operands: index for kArrayRef, lhs/rhs for kBinary, cond/a/b for
  // kSelect, operand for kUnary/kCast, args for kCall.
  const std::vector<ExprPtr>& operands() const { return operands_; }

  // True if this is an integer literal equal to v.
  bool IsIntLit(std::int64_t v) const {
    return kind_ == ExprKind::kIntLit && int_value_ == v;
  }

  std::string ToString() const;

  // --- factories ---
  static ExprPtr IntLit(std::int64_t v, Type type = Type::Int());
  static ExprPtr FloatLit(double v, Type type = Type::Float());
  static ExprPtr Var(std::string name, Type type);
  static ExprPtr ArrayRef(std::string buffer, Type element, ExprPtr index);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Call(Intrinsic fn, std::vector<ExprPtr> args, Type type);
  static ExprPtr Cast(Type to, ExprPtr operand);
  static ExprPtr Select(ExprPtr cond, ExprPtr then_value, ExprPtr else_value);

 private:
  struct Token {
    explicit Token() = default;
  };

 public:
  // Public only so make_shared can construct nodes; Token is private,
  // so the factories remain the sole way to make an Expr.
  explicit Expr(Token) {}

 private:
  // One allocation holds the control block and the node.
  static std::shared_ptr<Expr> New();

  ExprKind kind_ = ExprKind::kIntLit;
  Type type_;
  std::int64_t int_value_ = 0;
  double float_value_ = 0.0;
  std::string name_;
  Intrinsic intrinsic_ = Intrinsic::kExp;
  BinaryOp binary_op_ = BinaryOp::kAdd;
  UnaryOp unary_op_ = UnaryOp::kNeg;
  std::vector<ExprPtr> operands_;
};

const char* BinaryOpName(BinaryOp op);    // C spelling, e.g. "+", "<="
const char* IntrinsicName(Intrinsic fn);  // C spelling, e.g. "exp"
bool IsComparison(BinaryOp op);

// The result type of `op` applied to operands of type `t` (comparisons and
// logical ops yield int; min/max/arith yield t).
Type BinaryResultType(BinaryOp op, const Type& t);

// Walks the tree calling `fn` on every node (pre-order).
void VisitExpr(const ExprPtr& expr, const std::function<void(const Expr&)>& fn);

// Rebuilds `expr` with `map` applied to every node bottom-up; `map` returns
// nullptr to keep a node (with rebuilt operands) or a replacement.
ExprPtr TransformExpr(
    const ExprPtr& expr,
    const std::function<ExprPtr(const Expr&, const std::vector<ExprPtr>&)>&
        map);

// Substitutes every kVar named `name` with `replacement`.
ExprPtr SubstituteVar(const ExprPtr& expr, const std::string& name,
                      const ExprPtr& replacement);

}  // namespace s2fa::kir
