#include "kir/expr.h"

#include <functional>
#include <memory>
#include <sstream>

#include "support/error.h"

namespace s2fa::kir {

std::shared_ptr<Expr> Expr::New() {
  return std::make_shared<Expr>(Token{});
}

ExprPtr Expr::IntLit(std::int64_t v, Type type) {
  S2FA_REQUIRE(type.is_integral(), "IntLit needs integral type, got "
                                       << type.ToString());
  auto e = New();
  e->kind_ = ExprKind::kIntLit;
  e->type_ = type;
  e->int_value_ = v;
  return e;
}

ExprPtr Expr::FloatLit(double v, Type type) {
  S2FA_REQUIRE(type.is_floating(), "FloatLit needs floating type, got "
                                       << type.ToString());
  auto e = New();
  e->kind_ = ExprKind::kFloatLit;
  e->type_ = type;
  e->float_value_ = v;
  return e;
}

ExprPtr Expr::Var(std::string name, Type type) {
  S2FA_REQUIRE(!name.empty(), "variable needs a name");
  auto e = New();
  e->kind_ = ExprKind::kVar;
  e->type_ = type;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::ArrayRef(std::string buffer, Type element, ExprPtr index) {
  S2FA_REQUIRE(index != nullptr, "array index is null");
  auto e = New();
  e->kind_ = ExprKind::kArrayRef;
  e->type_ = element;
  e->name_ = std::move(buffer);
  e->operands_ = {std::move(index)};
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  S2FA_REQUIRE(lhs != nullptr && rhs != nullptr, "binary operand is null");
  auto e = New();
  e->kind_ = ExprKind::kBinary;
  e->type_ = BinaryResultType(op, lhs->type());
  e->binary_op_ = op;
  e->operands_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  S2FA_REQUIRE(operand != nullptr, "unary operand is null");
  auto e = New();
  e->kind_ = ExprKind::kUnary;
  e->type_ = op == UnaryOp::kLogicalNot ? Type::Int() : operand->type();
  e->unary_op_ = op;
  e->operands_ = {std::move(operand)};
  return e;
}

ExprPtr Expr::Call(Intrinsic fn, std::vector<ExprPtr> args, Type type) {
  const std::size_t arity = fn == Intrinsic::kPow ? 2 : 1;
  S2FA_REQUIRE(args.size() == arity,
               IntrinsicName(fn) << " takes " << arity << " args, got "
                                 << args.size());
  auto e = New();
  e->kind_ = ExprKind::kCall;
  e->type_ = type;
  e->intrinsic_ = fn;
  e->operands_ = std::move(args);
  return e;
}

ExprPtr Expr::Cast(Type to, ExprPtr operand) {
  S2FA_REQUIRE(operand != nullptr, "cast operand is null");
  auto e = New();
  e->kind_ = ExprKind::kCast;
  e->type_ = to;
  e->operands_ = {std::move(operand)};
  return e;
}

ExprPtr Expr::Select(ExprPtr cond, ExprPtr then_value, ExprPtr else_value) {
  S2FA_REQUIRE(cond && then_value && else_value, "select operand is null");
  auto e = New();
  e->kind_ = ExprKind::kSelect;
  e->type_ = then_value->type();
  e->operands_ = {std::move(cond), std::move(then_value),
                  std::move(else_value)};
  return e;
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kRem: return "%";
    case BinaryOp::kShl: return "<<";
    case BinaryOp::kShr: return ">>";
    case BinaryOp::kUShr: return ">>>";  // printer expands to unsigned shift
    case BinaryOp::kAnd: return "&";
    case BinaryOp::kOr: return "|";
    case BinaryOp::kXor: return "^";
    case BinaryOp::kMin: return "min";
    case BinaryOp::kMax: return "max";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLAnd: return "&&";
    case BinaryOp::kLOr: return "||";
  }
  S2FA_UNREACHABLE("bad binary op");
}

const char* IntrinsicName(Intrinsic fn) {
  switch (fn) {
    case Intrinsic::kExp: return "exp";
    case Intrinsic::kLog: return "log";
    case Intrinsic::kSqrt: return "sqrt";
    case Intrinsic::kAbs: return "fabs";
    case Intrinsic::kPow: return "pow";
  }
  S2FA_UNREACHABLE("bad intrinsic");
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      return true;
    default:
      return false;
  }
}

Type BinaryResultType(BinaryOp op, const Type& t) {
  if (IsComparison(op) || op == BinaryOp::kLAnd || op == BinaryOp::kLOr) {
    return Type::Int();
  }
  return t;
}

std::string Expr::ToString() const {
  std::ostringstream oss;
  switch (kind_) {
    case ExprKind::kIntLit:
      oss << int_value_;
      break;
    case ExprKind::kFloatLit:
      oss << float_value_;
      if (type_.kind() == TypeKind::kFloat) oss << "f";
      break;
    case ExprKind::kVar:
      oss << name_;
      break;
    case ExprKind::kArrayRef:
      oss << name_ << "[" << operands_[0]->ToString() << "]";
      break;
    case ExprKind::kBinary:
      if (binary_op_ == BinaryOp::kMin || binary_op_ == BinaryOp::kMax) {
        oss << BinaryOpName(binary_op_) << "(" << operands_[0]->ToString()
            << ", " << operands_[1]->ToString() << ")";
      } else {
        oss << "(" << operands_[0]->ToString() << " "
            << BinaryOpName(binary_op_) << " " << operands_[1]->ToString()
            << ")";
      }
      break;
    case ExprKind::kUnary:
      oss << (unary_op_ == UnaryOp::kNeg
                  ? "-"
                  : unary_op_ == UnaryOp::kBitNot ? "~" : "!")
          << "(" << operands_[0]->ToString() << ")";
      break;
    case ExprKind::kCall: {
      oss << IntrinsicName(intrinsic_) << "(";
      for (std::size_t i = 0; i < operands_.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << operands_[i]->ToString();
      }
      oss << ")";
      break;
    }
    case ExprKind::kCast:
      oss << "(" << type_.ToString() << ")(" << operands_[0]->ToString()
          << ")";
      break;
    case ExprKind::kSelect:
      oss << "(" << operands_[0]->ToString() << " ? "
          << operands_[1]->ToString() << " : " << operands_[2]->ToString()
          << ")";
      break;
  }
  return oss.str();
}

void VisitExpr(const ExprPtr& expr,
               const std::function<void(const Expr&)>& fn) {
  S2FA_REQUIRE(expr != nullptr, "visiting null expression");
  fn(*expr);
  for (const auto& operand : expr->operands()) VisitExpr(operand, fn);
}

ExprPtr TransformExpr(
    const ExprPtr& expr,
    const std::function<ExprPtr(const Expr&, const std::vector<ExprPtr>&)>&
        map) {
  S2FA_REQUIRE(expr != nullptr, "transforming null expression");
  std::vector<ExprPtr> new_operands;
  new_operands.reserve(expr->operands().size());
  bool changed = false;
  for (const auto& operand : expr->operands()) {
    ExprPtr rebuilt = TransformExpr(operand, map);
    changed = changed || rebuilt != operand;
    new_operands.push_back(std::move(rebuilt));
  }
  ExprPtr replacement = map(*expr, new_operands);
  if (replacement != nullptr) return replacement;
  if (!changed) return expr;
  // Rebuild the node with new operands.
  switch (expr->kind()) {
    case ExprKind::kArrayRef:
      return Expr::ArrayRef(expr->name(), expr->type(), new_operands[0]);
    case ExprKind::kBinary:
      return Expr::Binary(expr->binary_op(), new_operands[0], new_operands[1]);
    case ExprKind::kUnary:
      return Expr::Unary(expr->unary_op(), new_operands[0]);
    case ExprKind::kCall:
      return Expr::Call(expr->intrinsic(), std::move(new_operands),
                        expr->type());
    case ExprKind::kCast:
      return Expr::Cast(expr->type(), new_operands[0]);
    case ExprKind::kSelect:
      return Expr::Select(new_operands[0], new_operands[1], new_operands[2]);
    default:
      return expr;  // leaves have no operands, changed can't be true
  }
}

ExprPtr SubstituteVar(const ExprPtr& expr, const std::string& name,
                      const ExprPtr& replacement) {
  return TransformExpr(
      expr, [&](const Expr& node, const std::vector<ExprPtr>&) -> ExprPtr {
        if (node.kind() == ExprKind::kVar && node.name() == name) {
          return replacement;
        }
        return nullptr;
      });
}

}  // namespace s2fa::kir
