// Kernel IR statements: assignments, conditionals, counted loops, blocks,
// and scalar declarations.
//
// Loops carry the metadata the design-space builder needs (trip count,
// template provenance, reduction flag) plus the typed Merlin pragmas the
// transform layer attaches. Statements are mutable and deep-clonable so
// transformations can rewrite copies without disturbing the original.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "kir/expr.h"

namespace s2fa::kir {

enum class StmtKind { kAssign, kDecl, kIf, kFor, kBlock };

// The Merlin pragmas on one loop. Every field has an explicit absent
// state, so a default record carries (and prints) nothing.
struct LoopPragmas {
  enum class Pipeline : std::uint8_t { kAbsent, kOn, kFlatten };
  enum class Tile : std::uint8_t { kAbsent, kTileLoop, kPointLoop };

  std::optional<std::int64_t> parallel;   // ACCEL PARALLEL factor=N
  Pipeline pipeline = Pipeline::kAbsent;  // ACCEL PIPELINE [flatten]
  bool tree_reduction = false;            // ACCEL REDUCTION tree
  Tile tile = Tile::kAbsent;              // ACCEL TILE [point ]factor=N
  std::int64_t tile_factor = 0;           // N of the TILE line

  friend bool operator==(const LoopPragmas&, const LoopPragmas&) = default;
};

// Writes one `<pad>#pragma ACCEL ...` line per present pragma, in the
// order PARALLEL, PIPELINE, REDUCTION, TILE.
void PrintPragmas(const LoopPragmas& pragmas, std::string_view pad,
                  std::ostream& os);

class Stmt;
using StmtPtr = std::shared_ptr<Stmt>;

class Stmt {
 public:
  // --- factories ---
  // lhs must be a kVar or kArrayRef expression.
  static StmtPtr Assign(ExprPtr lhs, ExprPtr rhs);
  // Declares scalar `name` with an optional initializer (may be null).
  static StmtPtr Decl(std::string name, Type type, ExprPtr init);
  static StmtPtr If(ExprPtr cond, StmtPtr then_stmt, StmtPtr else_stmt);
  // Counted loop: for (var = 0; var < trip_count; var++) body.
  // Trip counts are compile-time constants (paper §3.3: constant-size new).
  static StmtPtr For(int loop_id, std::string var, std::int64_t trip_count,
                     StmtPtr body);
  static StmtPtr Block(std::vector<StmtPtr> stmts);

  StmtKind kind() const { return kind_; }

  // kAssign
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  void set_rhs(ExprPtr rhs) { rhs_ = std::move(rhs); }

  // kDecl
  const std::string& decl_name() const { return name_; }
  const Type& decl_type() const { return type_; }
  const ExprPtr& init() const { return rhs_; }

  // kIf
  const ExprPtr& cond() const { return lhs_; }
  const StmtPtr& then_stmt() const { return body_; }
  const StmtPtr& else_stmt() const { return else_; }

  // kFor
  int loop_id() const { return loop_id_; }
  const std::string& loop_var() const { return name_; }
  std::int64_t trip_count() const { return trip_count_; }
  void set_trip_count(std::int64_t tc) { trip_count_ = tc; }
  const StmtPtr& body() const { return body_; }
  void set_body(StmtPtr body) { body_ = std::move(body); }
  // True for loops inserted by the map/reduce template rather than written
  // by the user (the paper partitions the space on this distinction).
  bool inserted_by_template() const { return inserted_by_template_; }
  void set_inserted_by_template(bool v) { inserted_by_template_ = v; }
  // True if the loop reduces into a scalar/accumulator (tree-reduction
  // candidate for Merlin).
  bool is_reduction() const { return is_reduction_; }
  void set_is_reduction(bool v) { is_reduction_ = v; }
  // Merlin pragmas (set by merlin::ApplyDesign).
  LoopPragmas& pragmas() { return pragmas_; }
  const LoopPragmas& pragmas() const { return pragmas_; }

  // kBlock
  std::vector<StmtPtr>& stmts() { return stmts_; }
  const std::vector<StmtPtr>& stmts() const { return stmts_; }

  // Deep copy (expressions are shared; they are immutable).
  StmtPtr Clone() const;

  std::string ToString() const;  // debugging form, C-like

 private:
  struct Token {
    explicit Token() = default;
  };

 public:
  // Public only so make_shared can construct nodes; Token is private,
  // so the factories remain the sole way to make a Stmt.
  explicit Stmt(Token) {}

 private:
  // One allocation holds the control block and the node, as for Expr.
  static StmtPtr New();

  StmtKind kind_ = StmtKind::kBlock;
  ExprPtr lhs_;   // assign lhs / if cond
  ExprPtr rhs_;   // assign rhs / decl init
  std::string name_;  // decl name / loop var
  Type type_;         // decl type
  StmtPtr body_;  // if-then / loop body
  StmtPtr else_;
  int loop_id_ = -1;
  std::int64_t trip_count_ = 0;
  bool inserted_by_template_ = false;
  bool is_reduction_ = false;
  LoopPragmas pragmas_;
  std::vector<StmtPtr> stmts_;
};

// Applies `fn` to every expression held directly by `stmt` (assign lhs/rhs,
// decl init, if condition), replacing each with fn's result.
void ReplaceStmtExprs(Stmt& stmt,
                      const std::function<ExprPtr(const ExprPtr&)>& fn);

// Applies ReplaceStmtExprs to `root` and every nested statement.
void RewriteAllExprs(const StmtPtr& root,
                     const std::function<ExprPtr(const ExprPtr&)>& fn);

// Pre-order walk over all statements (including nested).
void VisitStmt(const StmtPtr& stmt, const std::function<void(Stmt&)>& fn);
void VisitStmt(const StmtPtr& stmt,
               const std::function<void(const Stmt&)>& fn);

// Collects every kFor statement in pre-order.
std::vector<Stmt*> CollectLoops(const StmtPtr& root);
std::vector<const Stmt*> CollectLoops(const Stmt* root);

// Finds the loop with `loop_id`; returns nullptr if absent.
Stmt* FindLoop(const StmtPtr& root, int loop_id);

}  // namespace s2fa::kir
