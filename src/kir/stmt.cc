#include "kir/stmt.h"

#include <memory>
#include <sstream>

#include "support/error.h"
#include "support/strings.h"

namespace s2fa::kir {

StmtPtr Stmt::New() {
  return std::make_shared<Stmt>(Token{});
}

StmtPtr Stmt::Assign(ExprPtr lhs, ExprPtr rhs) {
  S2FA_REQUIRE(lhs != nullptr && rhs != nullptr, "assign operand is null");
  S2FA_REQUIRE(lhs->kind() == ExprKind::kVar ||
                   lhs->kind() == ExprKind::kArrayRef,
               "assign lhs must be a variable or array element, got "
                   << lhs->ToString());
  auto s = New();
  s->kind_ = StmtKind::kAssign;
  s->lhs_ = std::move(lhs);
  s->rhs_ = std::move(rhs);
  return s;
}

StmtPtr Stmt::Decl(std::string name, Type type, ExprPtr init) {
  S2FA_REQUIRE(!name.empty(), "declaration needs a name");
  auto s = New();
  s->kind_ = StmtKind::kDecl;
  s->name_ = std::move(name);
  s->type_ = type;
  s->rhs_ = std::move(init);
  return s;
}

StmtPtr Stmt::If(ExprPtr cond, StmtPtr then_stmt, StmtPtr else_stmt) {
  S2FA_REQUIRE(cond != nullptr && then_stmt != nullptr,
               "if needs a condition and a then-branch");
  auto s = New();
  s->kind_ = StmtKind::kIf;
  s->lhs_ = std::move(cond);
  s->body_ = std::move(then_stmt);
  s->else_ = std::move(else_stmt);
  return s;
}

StmtPtr Stmt::For(int loop_id, std::string var, std::int64_t trip_count,
                  StmtPtr body) {
  S2FA_REQUIRE(loop_id >= 0, "loop id must be non-negative");
  S2FA_REQUIRE(trip_count >= 1, "loop " << loop_id << " trip count "
                                        << trip_count << " < 1");
  S2FA_REQUIRE(body != nullptr, "loop body is null");
  auto s = New();
  s->kind_ = StmtKind::kFor;
  s->loop_id_ = loop_id;
  s->name_ = std::move(var);
  s->trip_count_ = trip_count;
  s->body_ = std::move(body);
  return s;
}

StmtPtr Stmt::Block(std::vector<StmtPtr> stmts) {
  for (const auto& st : stmts) {
    S2FA_REQUIRE(st != nullptr, "null statement in block");
  }
  auto s = New();
  s->kind_ = StmtKind::kBlock;
  s->stmts_ = std::move(stmts);
  return s;
}

void PrintPragmas(const LoopPragmas& pragmas, std::string_view pad,
                  std::ostream& os) {
  if (pragmas.parallel) {
    os << pad << "#pragma ACCEL PARALLEL factor=" << *pragmas.parallel
       << "\n";
  }
  if (pragmas.pipeline != LoopPragmas::Pipeline::kAbsent) {
    os << pad << "#pragma ACCEL PIPELINE"
       << (pragmas.pipeline == LoopPragmas::Pipeline::kFlatten ? " flatten"
                                                               : "")
       << "\n";
  }
  if (pragmas.tree_reduction) os << pad << "#pragma ACCEL REDUCTION tree\n";
  if (pragmas.tile != LoopPragmas::Tile::kAbsent) {
    os << pad << "#pragma ACCEL TILE "
       << (pragmas.tile == LoopPragmas::Tile::kPointLoop ? "point " : "")
       << "factor=" << pragmas.tile_factor << "\n";
  }
}

StmtPtr Stmt::Clone() const {
  auto s = New();
  s->kind_ = kind_;
  s->lhs_ = lhs_;
  s->rhs_ = rhs_;
  s->name_ = name_;
  s->type_ = type_;
  s->loop_id_ = loop_id_;
  s->trip_count_ = trip_count_;
  s->inserted_by_template_ = inserted_by_template_;
  s->is_reduction_ = is_reduction_;
  s->pragmas_ = pragmas_;
  if (body_) s->body_ = body_->Clone();
  if (else_) s->else_ = else_->Clone();
  s->stmts_.reserve(stmts_.size());
  for (const auto& st : stmts_) s->stmts_.push_back(st->Clone());
  return s;
}

std::string Stmt::ToString() const {
  std::ostringstream oss;
  switch (kind_) {
    case StmtKind::kAssign:
      oss << lhs_->ToString() << " = " << rhs_->ToString() << ";";
      break;
    case StmtKind::kDecl:
      oss << type_.ToString() << " " << name_;
      if (rhs_) oss << " = " << rhs_->ToString();
      oss << ";";
      break;
    case StmtKind::kIf:
      oss << "if (" << lhs_->ToString() << ") {\n"
          << Indent(body_->ToString(), 2) << "\n}";
      if (else_) {
        oss << " else {\n" << Indent(else_->ToString(), 2) << "\n}";
      }
      break;
    case StmtKind::kFor: {
      PrintPragmas(pragmas_, "", oss);
      oss << "for (int " << name_ << " = 0; " << name_ << " < " << trip_count_
          << "; " << name_ << "++) {  // L" << loop_id_ << "\n"
          << Indent(body_->ToString(), 2) << "\n}";
      break;
    }
    case StmtKind::kBlock: {
      bool first = true;
      for (const auto& st : stmts_) {
        if (!first) oss << "\n";
        first = false;
        oss << st->ToString();
      }
      break;
    }
  }
  return oss.str();
}

void ReplaceStmtExprs(Stmt& stmt,
                      const std::function<ExprPtr(const ExprPtr&)>& fn) {
  // A statement whose expressions all come back unchanged is left as it
  // is; the rest are rebuilt through their factories.
  switch (stmt.kind()) {
    case StmtKind::kAssign: {
      ExprPtr lhs = fn(stmt.lhs());
      ExprPtr rhs = fn(stmt.rhs());
      if (lhs == stmt.lhs() && rhs == stmt.rhs()) break;
      // Rebuild through the factory so lhs lvalue-ness stays checked.
      Stmt rebuilt = *Stmt::Assign(lhs, rhs);
      stmt = rebuilt;
      break;
    }
    case StmtKind::kDecl:
      if (stmt.init()) {
        ExprPtr init = fn(stmt.init());
        if (init == stmt.init()) break;
        Stmt rebuilt =
            *Stmt::Decl(stmt.decl_name(), stmt.decl_type(), std::move(init));
        stmt = rebuilt;
      }
      break;
    case StmtKind::kIf: {
      ExprPtr cond = fn(stmt.cond());
      if (cond == stmt.cond()) break;
      Stmt rebuilt =
          *Stmt::If(std::move(cond), stmt.then_stmt(), stmt.else_stmt());
      stmt = rebuilt;
      break;
    }
    default:
      break;
  }
}

void RewriteAllExprs(const StmtPtr& root,
                     const std::function<ExprPtr(const ExprPtr&)>& fn) {
  VisitStmt(root, std::function<void(Stmt&)>(
                      [&fn](Stmt& s) { ReplaceStmtExprs(s, fn); }));
}

void VisitStmt(const StmtPtr& stmt, const std::function<void(Stmt&)>& fn) {
  S2FA_REQUIRE(stmt != nullptr, "visiting null statement");
  fn(*stmt);
  if (stmt->kind() == StmtKind::kIf) {
    VisitStmt(stmt->then_stmt(), fn);
    if (stmt->else_stmt()) VisitStmt(stmt->else_stmt(), fn);
  } else if (stmt->kind() == StmtKind::kFor) {
    VisitStmt(stmt->body(), fn);
  } else if (stmt->kind() == StmtKind::kBlock) {
    for (const auto& st : stmt->stmts()) VisitStmt(st, fn);
  }
}

void VisitStmt(const StmtPtr& stmt,
               const std::function<void(const Stmt&)>& fn) {
  VisitStmt(stmt, std::function<void(Stmt&)>(
                      [&fn](Stmt& s) { fn(const_cast<const Stmt&>(s)); }));
}

std::vector<Stmt*> CollectLoops(const StmtPtr& root) {
  std::vector<Stmt*> loops;
  VisitStmt(root, std::function<void(Stmt&)>([&loops](Stmt& s) {
              if (s.kind() == StmtKind::kFor) loops.push_back(&s);
            }));
  return loops;
}

std::vector<const Stmt*> CollectLoops(const Stmt* root) {
  std::vector<const Stmt*> loops;
  // Const walk without shared ownership: local recursion.
  std::function<void(const Stmt&)> walk = [&](const Stmt& s) {
    if (s.kind() == StmtKind::kFor) loops.push_back(&s);
    if (s.kind() == StmtKind::kIf) {
      walk(*s.then_stmt());
      if (s.else_stmt()) walk(*s.else_stmt());
    } else if (s.kind() == StmtKind::kFor) {
      walk(*s.body());
    } else if (s.kind() == StmtKind::kBlock) {
      for (const auto& st : s.stmts()) walk(*st);
    }
  };
  S2FA_REQUIRE(root != nullptr, "null root");
  walk(*root);
  return loops;
}

Stmt* FindLoop(const StmtPtr& root, int loop_id) {
  for (Stmt* loop : CollectLoops(root)) {
    if (loop->loop_id() == loop_id) return loop;
  }
  return nullptr;
}

}  // namespace s2fa::kir
