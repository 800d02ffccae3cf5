#include "kir/analysis.h"

#include <algorithm>
#include <functional>
#include <set>

#include "support/error.h"

namespace s2fa::kir {

// ------------------------------------------------------------ loop tree

namespace {

void BuildTreeFrom(const Stmt& stmt, int depth,
                   std::vector<LoopTreeNode>& siblings) {
  switch (stmt.kind()) {
    case StmtKind::kFor: {
      LoopTreeNode node;
      node.loop = &stmt;
      node.depth = depth;
      BuildTreeFrom(*stmt.body(), depth + 1, node.children);
      siblings.push_back(std::move(node));
      break;
    }
    case StmtKind::kIf:
      BuildTreeFrom(*stmt.then_stmt(), depth, siblings);
      if (stmt.else_stmt()) BuildTreeFrom(*stmt.else_stmt(), depth, siblings);
      break;
    case StmtKind::kBlock:
      for (const auto& st : stmt.stmts()) BuildTreeFrom(*st, depth, siblings);
      break;
    default:
      break;
  }
}

void CollectPreOrder(const std::vector<LoopTreeNode>& nodes,
                     std::vector<const LoopTreeNode*>& out) {
  for (const auto& node : nodes) {
    out.push_back(&node);
    CollectPreOrder(node.children, out);
  }
}

}  // namespace

LoopTree BuildLoopTree(const Kernel& kernel) {
  S2FA_REQUIRE(kernel.body != nullptr, "kernel has no body");
  LoopTree tree;
  BuildTreeFrom(*kernel.body, 0, tree.roots);
  return tree;
}

std::size_t LoopTree::size() const { return PreOrder().size(); }

int LoopTree::max_depth() const {
  int depth = -1;
  for (const LoopTreeNode* node : PreOrder()) {
    depth = std::max(depth, node->depth);
  }
  return depth;
}

std::vector<const LoopTreeNode*> LoopTree::PreOrder() const {
  std::vector<const LoopTreeNode*> out;
  CollectPreOrder(roots, out);
  return out;
}

const LoopTreeNode* LoopTree::Find(int loop_id) const {
  for (const LoopTreeNode* node : PreOrder()) {
    if (node->loop->loop_id() == loop_id) return node;
  }
  return nullptr;
}

// ------------------------------------------------------------ op census

OpCounts& OpCounts::operator+=(const OpCounts& other) {
  int_alu += other.int_alu;
  int_mul += other.int_mul;
  int_div += other.int_div;
  fp_add += other.fp_add;
  fp_mul += other.fp_mul;
  fp_div += other.fp_div;
  exp_like += other.exp_like;
  sqrt_like += other.sqrt_like;
  mem_read += other.mem_read;
  mem_write += other.mem_write;
  for (const auto& [name, n] : other.buffer_reads) buffer_reads[name] += n;
  for (const auto& [name, n] : other.buffer_writes) buffer_writes[name] += n;
  return *this;
}

OpCounts CountExprOps(const ExprPtr& expr) {
  OpCounts counts;
  VisitExpr(expr, [&counts](const Expr& node) {
    switch (node.kind()) {
      case ExprKind::kArrayRef:
        ++counts.mem_read;
        ++counts.buffer_reads[node.name()];
        break;
      case ExprKind::kBinary: {
        const bool fp = node.operands()[0]->type().is_floating();
        switch (node.binary_op()) {
          case BinaryOp::kMul:
            ++(fp ? counts.fp_mul : counts.int_mul);
            break;
          case BinaryOp::kDiv:
          case BinaryOp::kRem:
            ++(fp ? counts.fp_div : counts.int_div);
            break;
          default:
            ++(fp ? counts.fp_add : counts.int_alu);
            break;
        }
        break;
      }
      case ExprKind::kUnary:
        ++(node.operands()[0]->type().is_floating() ? counts.fp_add
                                                    : counts.int_alu);
        break;
      case ExprKind::kCall:
        if (node.intrinsic() == Intrinsic::kSqrt) {
          ++counts.sqrt_like;
        } else if (node.intrinsic() == Intrinsic::kAbs) {
          ++counts.fp_add;
        } else {
          ++counts.exp_like;
        }
        break;
      case ExprKind::kSelect:
        ++counts.int_alu;  // the mux
        break;
      default:
        break;
    }
  });
  return counts;
}

namespace {

OpCounts CountAssign(const Stmt& s) {
  OpCounts counts = CountExprOps(s.rhs());
  if (s.lhs()->kind() == ExprKind::kArrayRef) {
    // The LHS index is computed; the element access is a write, not a read.
    counts += CountExprOps(s.lhs()->operands()[0]);
    ++counts.mem_write;
    ++counts.buffer_writes[s.lhs()->name()];
  }
  return counts;
}

OpCounts CountStmt(const Stmt& stmt, bool include_loops, bool weighted) {
  OpCounts counts;
  switch (stmt.kind()) {
    case StmtKind::kAssign:
      counts += CountAssign(stmt);
      break;
    case StmtKind::kDecl:
      if (stmt.init()) counts += CountExprOps(stmt.init());
      break;
    case StmtKind::kIf:
      counts += CountExprOps(stmt.cond());
      counts += CountStmt(*stmt.then_stmt(), include_loops, weighted);
      if (stmt.else_stmt()) {
        counts += CountStmt(*stmt.else_stmt(), include_loops, weighted);
      }
      break;
    case StmtKind::kFor: {
      if (!include_loops) break;
      OpCounts body = CountStmt(*stmt.body(), include_loops, weighted);
      if (weighted) {
        const std::int64_t trip = stmt.trip_count();
        OpCounts scaled;
        auto mul = [trip](int v) {
          return static_cast<int>(std::min<std::int64_t>(
              static_cast<std::int64_t>(v) * trip, INT32_MAX));
        };
        scaled.int_alu = mul(body.int_alu);
        scaled.int_mul = mul(body.int_mul);
        scaled.int_div = mul(body.int_div);
        scaled.fp_add = mul(body.fp_add);
        scaled.fp_mul = mul(body.fp_mul);
        scaled.fp_div = mul(body.fp_div);
        scaled.exp_like = mul(body.exp_like);
        scaled.sqrt_like = mul(body.sqrt_like);
        scaled.mem_read = mul(body.mem_read);
        scaled.mem_write = mul(body.mem_write);
        for (const auto& [name, n] : body.buffer_reads) {
          scaled.buffer_reads[name] = mul(n);
        }
        for (const auto& [name, n] : body.buffer_writes) {
          scaled.buffer_writes[name] = mul(n);
        }
        counts += scaled;
      } else {
        counts += body;
      }
      break;
    }
    case StmtKind::kBlock:
      for (const auto& st : stmt.stmts()) {
        counts += CountStmt(*st, include_loops, weighted);
      }
      break;
  }
  return counts;
}

}  // namespace

OpCounts CountStraightLineOps(const Stmt& stmt) {
  // Statements directly under `stmt`, not entering nested loops. If `stmt`
  // itself is a loop, analyze its body.
  const Stmt& root = stmt.kind() == StmtKind::kFor ? *stmt.body() : stmt;
  return CountStmt(root, /*include_loops=*/false, /*weighted=*/false);
}

OpCounts CountTotalOps(const Stmt& stmt) {
  return CountStmt(stmt, /*include_loops=*/true, /*weighted=*/true);
}

// ----------------------------------------------------------- recurrence

namespace {

// Collects names declared by kDecl inside `stmt` (loop-private scalars) and
// loop variables of nested loops.
void CollectPrivateNames(const Stmt& stmt, std::set<std::string>& names) {
  if (stmt.kind() == StmtKind::kDecl) {
    names.insert(stmt.decl_name());
  } else if (stmt.kind() == StmtKind::kFor) {
    names.insert(stmt.loop_var());
    CollectPrivateNames(*stmt.body(), names);
  } else if (stmt.kind() == StmtKind::kIf) {
    CollectPrivateNames(*stmt.then_stmt(), names);
    if (stmt.else_stmt()) CollectPrivateNames(*stmt.else_stmt(), names);
  } else if (stmt.kind() == StmtKind::kBlock) {
    for (const auto& st : stmt.stmts()) CollectPrivateNames(*st, names);
  }
}

// Collects every assignment under `stmt` in program order.
void CollectAssigns(const Stmt& stmt, std::vector<const Stmt*>& out) {
  switch (stmt.kind()) {
    case StmtKind::kAssign:
      out.push_back(&stmt);
      break;
    case StmtKind::kIf:
      CollectAssigns(*stmt.then_stmt(), out);
      if (stmt.else_stmt()) CollectAssigns(*stmt.else_stmt(), out);
      break;
    case StmtKind::kFor:
      CollectAssigns(*stmt.body(), out);
      break;
    case StmtKind::kBlock:
      for (const auto& st : stmt.stmts()) CollectAssigns(*st, out);
      break;
    default:
      break;
  }
}

// The expressions an assignment reads: its RHS and, for a buffer write,
// the LHS index (which may itself read scalars and buffers).
void VisitAssignReads(const Stmt& assign,
                      const std::function<void(const Expr&)>& fn) {
  VisitExpr(assign.rhs(), fn);
  if (assign.lhs()->kind() == ExprKind::kArrayRef) {
    VisitExpr(assign.lhs()->operands()[0], fn);
  }
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

namespace {

bool ContainsVar(const ExprPtr& expr, const std::string& name) {
  bool found = false;
  VisitExpr(expr, [&](const Expr& node) {
    if (node.kind() == ExprKind::kVar && node.name() == name) found = true;
  });
  return found;
}

bool IsAssociativeOp(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kMul ||
         op == BinaryOp::kMin || op == BinaryOp::kMax;
}

}  // namespace

bool IsAssociativeReduction(const Stmt& loop, const std::string& carrier) {
  S2FA_REQUIRE(loop.kind() == StmtKind::kFor, "needs a loop");
  bool all_associative = true;
  bool any_assignment = false;
  std::function<void(const Stmt&)> walk = [&](const Stmt& s) {
    if (s.kind() == StmtKind::kAssign &&
        s.lhs()->kind() == ExprKind::kVar && s.lhs()->name() == carrier) {
      any_assignment = true;
      const ExprPtr& rhs = s.rhs();
      if (rhs->kind() != ExprKind::kBinary ||
          !IsAssociativeOp(rhs->binary_op())) {
        all_associative = false;
        return;
      }
      const ExprPtr& a = rhs->operands()[0];
      const ExprPtr& b = rhs->operands()[1];
      const bool a_is_carrier =
          a->kind() == ExprKind::kVar && a->name() == carrier;
      const bool b_is_carrier =
          b->kind() == ExprKind::kVar && b->name() == carrier;
      if (a_is_carrier == b_is_carrier) {  // zero or both sides
        all_associative = false;
        return;
      }
      const ExprPtr& other = a_is_carrier ? b : a;
      if (ContainsVar(other, carrier)) all_associative = false;
      return;
    }
    if (s.kind() == StmtKind::kIf) {
      walk(*s.then_stmt());
      if (s.else_stmt()) walk(*s.else_stmt());
    } else if (s.kind() == StmtKind::kFor) {
      walk(*s.body());
    } else if (s.kind() == StmtKind::kBlock) {
      for (const auto& st : s.stmts()) walk(*st);
    }
  };
  walk(*loop.body());
  return any_assignment && all_associative;
}

LoopRecurrence AnalyzeRecurrence(const Stmt& loop) {
  S2FA_REQUIRE(loop.kind() == StmtKind::kFor, "recurrence needs a loop");
  LoopRecurrence result;

  std::vector<const Stmt*> assigns;
  CollectAssigns(*loop.body(), assigns);

  // Scalar accumulators: a non-private scalar that is both written and read
  // across the body. Carriers are listed by the first assignment reading
  // them, alphabetically within one assignment.
  std::set<std::string> private_names;
  private_names.insert(loop.loop_var());
  CollectPrivateNames(*loop.body(), private_names);
  std::set<std::string> written_scalars;
  for (const Stmt* assign : assigns) {
    const Expr& lhs = *assign->lhs();
    if (lhs.kind() == ExprKind::kVar && private_names.count(lhs.name()) == 0) {
      written_scalars.insert(lhs.name());
    }
  }
  if (!written_scalars.empty()) {
    for (const Stmt* assign : assigns) {
      std::set<std::string> reads;
      VisitAssignReads(*assign, [&](const Expr& node) {
        if (node.kind() == ExprKind::kVar &&
            written_scalars.count(node.name()) != 0) {
          reads.insert(node.name());
        }
      });
      for (const auto& v : reads) {
        if (!Contains(result.carriers, v)) result.carriers.push_back(v);
      }
    }
    for (const Stmt* assign : assigns) {
      if (assign->lhs()->kind() == ExprKind::kVar &&
          Contains(result.carriers, assign->lhs()->name())) {
        result.cycle_exprs.push_back(assign->rhs());
      }
    }
  }

  // Buffer wavefronts: a buffer written at one index expression and read
  // (anywhere an assignment reads) at a textually different one. Indices
  // are printed only for buffers that are both written and read.
  std::vector<const Expr*> buffer_reads;
  for (const Stmt* assign : assigns) {
    VisitAssignReads(*assign, [&](const Expr& node) {
      if (node.kind() == ExprKind::kArrayRef) buffer_reads.push_back(&node);
    });
  }
  for (const Stmt* assign : assigns) {
    const Expr& lhs = *assign->lhs();
    if (lhs.kind() != ExprKind::kArrayRef ||
        Contains(result.carriers, lhs.name())) {
      continue;
    }
    const ExprPtr& written_index = lhs.operands()[0];
    std::string written_text;
    for (const Expr* read : buffer_reads) {
      const ExprPtr& read_index = read->operands()[0];
      if (read->name() != lhs.name() || read_index == written_index) continue;
      if (written_text.empty()) written_text = written_index->ToString();
      if (read_index->ToString() != written_text) {
        result.carriers.push_back(lhs.name());
        result.cycle_exprs.push_back(assign->rhs());
        break;
      }
    }
  }

  result.carried = !result.carriers.empty();
  return result;
}

// ----------------------------------------------------- expression depth

int ExprDepth(const ExprPtr& expr) {
  S2FA_REQUIRE(expr != nullptr, "null expression");
  int max_child = 0;
  for (const auto& operand : expr->operands()) {
    max_child = std::max(max_child, ExprDepth(operand));
  }
  switch (expr->kind()) {
    case ExprKind::kBinary:
    case ExprKind::kUnary:
    case ExprKind::kCall:
    case ExprKind::kSelect:
      return max_child + 1;
    default:
      return max_child;
  }
}

}  // namespace s2fa::kir
