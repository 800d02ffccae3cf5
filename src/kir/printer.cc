#include "kir/printer.h"

#include <sstream>

#include "support/error.h"
#include "support/strings.h"

namespace s2fa::kir {

std::string CTypeName(const Type& type) {
  switch (type.kind()) {
    case TypeKind::kVoid: return "void";
    case TypeKind::kBoolean: return "char";
    case TypeKind::kByte: return "char";
    case TypeKind::kChar: return "unsigned short";
    case TypeKind::kShort: return "short";
    case TypeKind::kInt: return "int";
    case TypeKind::kLong: return "long long";
    case TypeKind::kFloat: return "float";
    case TypeKind::kDouble: return "double";
    default:
      throw InvalidArgument("no C spelling for type " + type.ToString());
  }
}

namespace {

std::string EmitExpr(const Expr& e);

std::string EmitOperand(const ExprPtr& e) { return EmitExpr(*e); }

std::string EmitExpr(const Expr& e) {
  std::ostringstream oss;
  switch (e.kind()) {
    case ExprKind::kIntLit:
      oss << e.int_value();
      break;
    case ExprKind::kFloatLit: {
      std::ostringstream num;
      num << e.float_value();
      std::string text = num.str();
      // Ensure a C floating literal even for integral values.
      if (text.find('.') == std::string::npos &&
          text.find('e') == std::string::npos &&
          text.find("inf") == std::string::npos &&
          text.find("nan") == std::string::npos) {
        text += ".0";
      }
      oss << text;
      if (e.type().kind() == TypeKind::kFloat) oss << "f";
      break;
    }
    case ExprKind::kVar:
      oss << e.name();
      break;
    case ExprKind::kArrayRef:
      oss << e.name() << "[" << EmitOperand(e.operands()[0]) << "]";
      break;
    case ExprKind::kBinary: {
      BinaryOp op = e.binary_op();
      const auto& a = e.operands()[0];
      const auto& b = e.operands()[1];
      if (op == BinaryOp::kMin || op == BinaryOp::kMax) {
        oss << (op == BinaryOp::kMin ? "S2FA_MIN(" : "S2FA_MAX(")
            << EmitOperand(a) << ", " << EmitOperand(b) << ")";
      } else if (op == BinaryOp::kUShr) {
        oss << "((" << CTypeName(a->type()) << ")((unsigned "
            << (a->type().kind() == TypeKind::kLong ? "long long" : "int")
            << ")" << EmitOperand(a) << " >> " << EmitOperand(b) << "))";
      } else {
        oss << "(" << EmitOperand(a) << " " << BinaryOpName(op) << " "
            << EmitOperand(b) << ")";
      }
      break;
    }
    case ExprKind::kUnary: {
      const char* sym = e.unary_op() == UnaryOp::kNeg
                            ? "-"
                            : e.unary_op() == UnaryOp::kBitNot ? "~" : "!";
      oss << sym << "(" << EmitOperand(e.operands()[0]) << ")";
      break;
    }
    case ExprKind::kCall: {
      // Single-precision kernels call the f-suffixed libm entry points,
      // which HLS maps onto narrower cores.
      const bool single = e.type().kind() == TypeKind::kFloat;
      std::string fn = IntrinsicName(e.intrinsic());
      if (single) {
        fn = (fn == "fabs") ? "fabsf" : fn + "f";
      }
      oss << fn << "(";
      for (std::size_t i = 0; i < e.operands().size(); ++i) {
        if (i > 0) oss << ", ";
        oss << EmitOperand(e.operands()[i]);
      }
      oss << ")";
      break;
    }
    case ExprKind::kCast:
      oss << "(" << CTypeName(e.type()) << ")("
          << EmitOperand(e.operands()[0]) << ")";
      break;
    case ExprKind::kSelect:
      oss << "(" << EmitOperand(e.operands()[0]) << " ? "
          << EmitOperand(e.operands()[1]) << " : "
          << EmitOperand(e.operands()[2]) << ")";
      break;
  }
  return oss.str();
}

void EmitStmt(const Stmt& s, int indent, bool comments, std::ostream& os) {
  std::string pad(static_cast<std::size_t>(indent), ' ');
  switch (s.kind()) {
    case StmtKind::kAssign:
      os << pad << EmitExpr(*s.lhs()) << " = " << EmitExpr(*s.rhs()) << ";\n";
      break;
    case StmtKind::kDecl:
      os << pad << CTypeName(s.decl_type()) << " " << s.decl_name();
      if (s.init()) os << " = " << EmitExpr(*s.init());
      os << ";\n";
      break;
    case StmtKind::kIf:
      os << pad << "if (" << EmitExpr(*s.cond()) << ") {\n";
      EmitStmt(*s.then_stmt(), indent + 2, comments, os);
      os << pad << "}";
      if (s.else_stmt()) {
        os << " else {\n";
        EmitStmt(*s.else_stmt(), indent + 2, comments, os);
        os << pad << "}";
      }
      os << "\n";
      break;
    case StmtKind::kFor: {
      PrintPragmas(s.pragmas(), pad, os);
      os << pad << "for (int " << s.loop_var() << " = 0; " << s.loop_var()
         << " < " << s.trip_count() << "; " << s.loop_var() << "++) {";
      if (comments) os << "  /* L" << s.loop_id() << " */";
      os << "\n";
      EmitStmt(*s.body(), indent + 2, comments, os);
      os << pad << "}\n";
      break;
    }
    case StmtKind::kBlock:
      for (const auto& st : s.stmts()) EmitStmt(*st, indent, comments, os);
      break;
  }
}

}  // namespace

std::string EmitExprC(const ExprPtr& expr) {
  S2FA_REQUIRE(expr != nullptr, "null expression");
  return EmitExpr(*expr);
}

std::string EmitStmtC(const StmtPtr& stmt, int indent) {
  S2FA_REQUIRE(stmt != nullptr, "null statement");
  std::ostringstream oss;
  EmitStmt(*stmt, indent, /*comments=*/false, oss);
  return oss.str();
}

std::string EmitC(const Kernel& kernel, const CEmitOptions& options) {
  std::ostringstream os;
  if (options.emit_comments) {
    os << "/* Generated by the S2FA bytecode-to-C compiler.\n"
       << " * Kernel: " << kernel.name << " (pattern: "
       << PatternName(kernel.pattern) << ")\n"
       << " */\n";
  }
  if (options.emit_prelude) {
    os << "#include <math.h>\n"
       << "#define S2FA_MIN(a, b) ((a) < (b) ? (a) : (b))\n"
       << "#define S2FA_MAX(a, b) ((a) > (b) ? (a) : (b))\n\n";
  }

  // Top-level function signature: scalars, then off-chip buffers.
  os << "void " << kernel.name << "(";
  bool first = true;
  for (const auto& s : kernel.scalars) {
    if (!first) os << ", ";
    first = false;
    os << CTypeName(s.type) << " " << s.name;
  }
  for (const auto& b : kernel.buffers) {
    if (b.kind == BufferKind::kLocal) continue;
    if (!first) os << ", ";
    first = false;
    os << CTypeName(b.element) << " *" << b.name;
  }
  os << ") {\n";

  for (const auto& b : kernel.buffers) {
    if (b.kind != BufferKind::kLocal) continue;
    os << "  static " << CTypeName(b.element) << " " << b.name << "["
       << b.length << "];";
    if (options.emit_comments && !b.source_field.empty()) {
      os << "  /* from " << b.source_field << " */";
    }
    os << "\n";
  }

  EmitStmt(*kernel.body, 2, options.emit_comments, os);
  os << "}\n";
  return os.str();
}

}  // namespace s2fa::kir
