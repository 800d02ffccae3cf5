#include "hls/view.h"

#include <algorithm>
#include <forward_list>

#include "kir/analysis.h"
#include "support/error.h"

namespace s2fa::hls {

namespace {

using kir::Buffer;
using kir::BufferKind;
using kir::Expr;
using kir::ExprKind;
using kir::ExprPtr;
using kir::Stmt;
using kir::StmtKind;

// One expression as merlin::ApplyDesign leaves it once the loops whose
// index variables are named in `tiled` are tiled, walked without building
// it. ApplyDesign replaces each read of such an index by `v_t*t + v_p`
// and rebuilds every node above it, and a rebuilt node takes its type
// from its new operands (kir::TransformExpr); the walk follows both. With
// nothing tiled it walks the expression as it is.
class TiledWalk {
 public:
  TiledWalk(const kir::Kernel& kernel,
            const std::vector<const std::string*>& tiled,
            const std::vector<std::string>* carriers = nullptr)
      : k_(kernel), tiled_(tiled), carriers_(carriers) {}

  // Critical-path latency of `expr`, adding the resources of every
  // operator in it to cost() (one replica; the estimator scales by the
  // replication). Every cost in the operator library is a multiple of
  // 0.5, so these sums, and the estimator's products of them with integer
  // replication factors, are exact: charging a statement's sum charges the
  // same totals as charging operator by operator.
  double Latency(const ExprPtr& expr) { return Walk(*expr).latency; }

  // Latency along the path from a carried value (scalar or buffer) to the
  // root of `expr` — the length of the dependence cycle through this
  // expression; -1 when the expression does not touch a carrier.
  double CarriedPath(const ExprPtr& expr) { return Walk(*expr).path; }

  const OpCost& cost() const { return cost_; }

 private:
  struct Result {
    double latency = 0;  // critical path through the expression
    double path = -1;    // carried path; -1 when none
    const kir::Type* type = nullptr;  // the (rebuilt) node's type
    bool rebuilt = false;
  };

  // The substituted index `v_t*t + v_p` as a walk sees it: its latency,
  // operator cost and type. The factor's value changes no cost (a
  // constant multiply is sized by its variable side).
  struct Derived {
    Result result;
    OpCost cost;
  };
  static const Derived& DerivedIndex() {
    static const ExprPtr expr = Expr::Binary(
        kir::BinaryOp::kAdd,
        Expr::Binary(kir::BinaryOp::kMul, Expr::Var("v_t", kir::Type::Int()),
                     Expr::IntLit(2)),
        Expr::Var("v_p", kir::Type::Int()));
    static const Derived derived = [] {
      const kir::Kernel no_buffers;
      const std::vector<const std::string*> none;
      TiledWalk walk(no_buffers, none);
      Derived d{walk.Walk(*expr), walk.cost()};
      d.result.rebuilt = true;
      return d;
    }();
    return derived;
  }

  bool Carries(const std::string& name) const {
    return carriers_ != nullptr &&
           std::find(carriers_->begin(), carriers_->end(), name) !=
               carriers_->end();
  }

  double Charge(const OpCost& c) {
    cost_.dsp += c.dsp;
    cost_.ff += c.ff;
    cost_.lut += c.lut;
    return c.latency;
  }

  // A rebuilt node's type, kept alive for the walk.
  const kir::Type* Keep(kir::Type type) {
    rebuilt_types_.push_front(std::move(type));
    return &rebuilt_types_.front();
  }

  Result Walk(const Expr& e) {
    if (e.kind() == ExprKind::kVar &&
        std::any_of(tiled_.begin(), tiled_.end(),
                    [&e](const std::string* v) { return *v == e.name(); })) {
      const Derived& derived = DerivedIndex();
      Charge(derived.cost);
      return derived.result;
    }
    Result ops[3];
    const std::size_t n = e.operands().size();
    S2FA_CHECK(n <= 3, "expression with " << n << " operands");
    Result r;
    double operand_path = -1;
    for (std::size_t i = 0; i < n; ++i) {
      ops[i] = Walk(*e.operands()[i]);
      r.latency = std::max(r.latency, ops[i].latency);
      operand_path = std::max(operand_path, ops[i].path);
      r.rebuilt = r.rebuilt || ops[i].rebuilt;
    }
    r.type = &e.type();
    if (r.rebuilt && e.kind() == ExprKind::kBinary) {
      r.type = Keep(kir::BinaryResultType(e.binary_op(), *ops[0].type));
    } else if (r.rebuilt && e.kind() == ExprKind::kUnary) {
      r.type = e.unary_op() == kir::UnaryOp::kLogicalNot
                   ? Keep(kir::Type::Int())
                   : ops[0].type;
    } else if (r.rebuilt && e.kind() == ExprKind::kSelect) {
      r.type = ops[1].type;
    }
    // The operator latency a carried path through this node adds.
    double node_latency = 0;
    switch (e.kind()) {
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
        return r;
      case ExprKind::kVar:
        if (Carries(e.name())) r.path = 0;
        return r;
      case ExprKind::kArrayRef: {
        const double read = k_.FindBuffer(e.name())->kind == BufferKind::kLocal
                                ? kLocalReadLatency
                                : kAxiReadLatency;
        r.latency += read;
        // An index depending on a carried value would also cycle, but such
        // indirect recurrences do not occur in the supported kernel forms.
        if (Carries(e.name())) r.path = read;
        return r;
      }
      case ExprKind::kBinary: {
        const OpCost op = BinaryOpCost(e.binary_op(), *ops[0].type);
        node_latency = op.latency;
        // Integer multiplication by a compile-time constant strength-reduces
        // to shift/add LUT logic -- no DSP block.
        if (e.binary_op() == kir::BinaryOp::kMul &&
            !ops[0].type->is_floating() &&
            (e.operands()[0]->kind() == ExprKind::kIntLit ||
             e.operands()[1]->kind() == ExprKind::kIntLit)) {
          // The shift/add network is sized by the variable operand; the
          // literal only selects which shifts are wired in.
          const double w =
              (e.operands()[0]->kind() == ExprKind::kIntLit ? ops[1] : ops[0])
                  .type->bit_width();
          r.latency += Charge(OpCost{1, 0, w, 2 * w});
        } else {
          r.latency += Charge(op);
        }
        break;
      }
      case ExprKind::kUnary:
        node_latency = Charge(UnaryOpCost(e.unary_op(), *ops[0].type));
        r.latency += node_latency;
        break;
      case ExprKind::kCall:
        node_latency = Charge(IntrinsicCost(e.intrinsic(), e.type()));
        r.latency += node_latency;
        break;
      case ExprKind::kCast:
        node_latency = Charge(CastCost(*ops[0].type, e.type()));
        r.latency += node_latency;
        break;
      case ExprKind::kSelect:
        node_latency = Charge({1, 0, 32, 32});  // mux
        r.latency += node_latency;
        break;
    }
    if (operand_path >= 0) r.path = operand_path + node_latency;
    return r;
  }

  const kir::Kernel& k_;
  const std::vector<const std::string*>& tiled_;
  const std::vector<std::string>* carriers_;
  OpCost cost_{0, 0, 0, 0};
  std::forward_list<kir::Type> rebuilt_types_;
};

// Whether some tile factor t (1 < t < trip, t divides trip) is legal.
bool Tileable(std::int64_t trip) {
  for (std::int64_t t = 2; t * t <= trip; ++t) {
    if (trip % t == 0) return true;
  }
  return false;
}

bool ReadsVar(const Expr& e, const std::string& name) {
  if (e.kind() == ExprKind::kVar) return e.name() == name;
  return std::any_of(
      e.operands().begin(), e.operands().end(),
      [&name](const ExprPtr& op) { return ReadsVar(*op, name); });
}

}  // namespace

// Compiles a kernel into a DesignBase in one walk of its statements.
class BaseBuilder {
 public:
  BaseBuilder(const kir::Kernel& kernel, DesignBase& base)
      : k_(kernel), base_(base) {}

  int Compile(const Stmt& s) {
    DesignBase::Node node;
    switch (s.kind()) {
      case StmtKind::kAssign:
      case StmtKind::kDecl:
        node.kind = DesignBase::Node::Kind::kLeaf;
        node.leaf = AddLeaf(s);
        break;
      case StmtKind::kIf:
        node.kind = DesignBase::Node::Kind::kIf;
        node.leaf = AddLeaf(s);
        node.then_node = Compile(*s.then_stmt());
        if (s.else_stmt()) node.else_node = Compile(*s.else_stmt());
        break;
      case StmtKind::kFor:
        node.kind = DesignBase::Node::Kind::kLoop;
        node.loop = AddLoop(s);
        break;
      case StmtKind::kBlock: {
        std::vector<int> children;
        for (const auto& st : s.stmts()) children.push_back(Compile(*st));
        node.kind = DesignBase::Node::Kind::kBlock;
        node.first = static_cast<int>(base_.children_.size());
        node.count = static_cast<int>(children.size());
        base_.children_.insert(base_.children_.end(), children.begin(),
                               children.end());
        break;
      }
    }
    base_.nodes_.push_back(node);
    return static_cast<int>(base_.nodes_.size()) - 1;
  }

 private:
  int BufferIndex(const std::string& name) const {
    return static_cast<int>(k_.FindBuffer(name) - k_.buffers.data());
  }

  // The loop variables of `leaf`'s tiled loops in `variant`, in loop-id
  // order as ApplyDesign tiles them.
  std::vector<const std::string*> TiledVars(const DesignBase::Leaf& leaf,
                                            std::size_t variant) const {
    std::vector<const std::string*> vars;
    for (std::size_t k = 0; k < leaf.tile_loops.size(); ++k) {
      if ((variant >> k & 1) != 0) {
        vars.push_back(&loop_vars_[leaf.tile_loops[k]]);
      }
    }
    return vars;
  }

  int AddLeaf(const Stmt& s) {
    // The expressions the statement reads: an assignment's right-hand side
    // and, for a buffer store, its index; a declaration's initializer; an
    // if condition.
    std::vector<ExprPtr> exprs;
    const bool store = s.kind() == StmtKind::kAssign &&
                       s.lhs()->kind() == ExprKind::kArrayRef;
    switch (s.kind()) {
      case StmtKind::kAssign:
        exprs.push_back(s.rhs());
        if (store) exprs.push_back(s.lhs()->operands()[0]);
        break;
      case StmtKind::kDecl:
        if (s.init()) exprs.push_back(s.init());
        break;
      default:
        exprs.push_back(s.cond());
        break;
    }
    DesignBase::Leaf leaf;
    for (int d : open_loops_) {
      if (Tileable(base_.loops_[d].trip) &&
          std::any_of(exprs.begin(), exprs.end(), [&](const ExprPtr& e) {
            return ReadsVar(*e, loop_vars_[d]);
          })) {
        leaf.tile_loops.push_back(d);
      }
    }
    std::sort(leaf.tile_loops.begin(), leaf.tile_loops.end(),
              [this](int a, int b) {
                return base_.loops_[a].id < base_.loops_[b].id;
              });
    S2FA_REQUIRE(leaf.tile_loops.size() < 16,
                 "a statement reads the indices of "
                     << leaf.tile_loops.size() << " tileable loops");
    for (std::size_t v = 0; v < std::size_t{1} << leaf.tile_loops.size();
         ++v) {
      const std::vector<const std::string*> tiled = TiledVars(leaf, v);
      TiledWalk walk(k_, tiled);
      double lat = exprs.empty() ? 0.0 : walk.Latency(exprs[0]);
      if (store) {
        lat = std::max(lat, walk.Latency(exprs[1]));
        lat += k_.FindBuffer(s.lhs()->name())->kind == BufferKind::kLocal
                   ? kLocalWriteLatency
                   : kAxiWriteLatency;
      }
      OpCost cost = walk.cost();
      // A statement takes at least a cycle; an if condition is only the
      // expression (the estimator adds the branch).
      cost.latency = s.kind() == StmtKind::kIf || exprs.empty()
                         ? lat
                         : std::max(1.0, lat);
      leaf.variants.push_back(cost);
    }
    base_.leaves_.push_back(std::move(leaf));
    const int index = static_cast<int>(base_.leaves_.size()) - 1;
    if (s.kind() == StmtKind::kAssign) assigns_.push_back({&s, index});
    return index;
  }

  int AddLoop(const Stmt& s) {
    const int d = static_cast<int>(base_.loops_.size());
    DesignBase::Loop loop;
    loop.id = s.loop_id();
    loop.parent = open_loops_.empty() ? -1 : open_loops_.back();
    loop.trip = s.trip_count();
    loop.reduction = s.is_reduction();
    loop.pragmas = s.pragmas();
    base_.loops_.push_back(loop);
    base_.trips_.push_back({s.loop_id(), s.trip_count()});
    loop_vars_.push_back(s.loop_var());

    const std::size_t first_assign = assigns_.size();
    open_loops_.push_back(d);
    const int body = Compile(*s.body());
    open_loops_.pop_back();

    DesignBase::Loop& done = base_.loops_[d];
    done.body = body;
    const kir::OpCounts counts = kir::CountTotalOps(*s.body());
    for (const auto& [name, n] : counts.buffer_reads) {
      auto w = counts.buffer_writes.find(name);
      done.census.push_back({BufferIndex(name), true, n,
                             w == counts.buffer_writes.end() ? 0 : w->second});
    }
    for (const auto& [name, n] : counts.buffer_writes) {
      if (counts.buffer_reads.count(name) == 0) {
        done.census.push_back({BufferIndex(name), false, 0, n});
      }
    }

    const kir::LoopRecurrence rec = kir::AnalyzeRecurrence(s);
    done.carried = rec.carried;
    for (const auto& carrier : rec.carriers) {
      if (k_.FindBuffer(carrier) != nullptr) done.buffer_carrier = true;
    }
    for (const ExprPtr& cycle : rec.cycle_exprs) {
      // Every cycle expression is the right-hand side of an assignment in
      // this loop's body.
      const auto assign = std::find_if(
          assigns_.begin() + static_cast<std::ptrdiff_t>(first_assign),
          assigns_.end(),
          [&cycle](const auto& a) { return a.first->rhs() == cycle; });
      S2FA_CHECK(assign != assigns_.end(), "cycle outside the loop body");
      DesignBase::Cycle c;
      c.leaf = assign->second;
      const DesignBase::Leaf& leaf = base_.leaves_[c.leaf];
      for (std::size_t v = 0; v < leaf.variants.size(); ++v) {
        const std::vector<const std::string*> tiled = TiledVars(leaf, v);
        c.latency.push_back(
            TiledWalk(k_, tiled, &rec.carriers).CarriedPath(cycle));
      }
      done.cycles.push_back(std::move(c));
    }
    return d;
  }

  const kir::Kernel& k_;
  DesignBase& base_;
  std::vector<std::string> loop_vars_;  // per dense id
  std::vector<int> open_loops_;         // enclosing loops, outermost first
  // Assignments in program order with their leaves.
  std::vector<std::pair<const Stmt*, int>> assigns_;
};

DesignBase::DesignBase(const kir::Kernel& kernel) : buffers_(kernel.buffers) {
  kernel.Validate();
  root_ = BaseBuilder(kernel, *this).Compile(*kernel.body);
}

bool DesignBase::IsLegal(const merlin::DesignConfig& config) const {
  return merlin::IsLegalConfig(trips_, buffers_, config);
}

int DesignBase::DenseId(int id) const {
  for (std::size_t d = 0; d < trips_.size(); ++d) {
    if (trips_[d].id == id) return static_cast<int>(d);
  }
  return -1;
}

DesignView::DesignView(const DesignBase& base) : DesignView(base, nullptr) {}

DesignView::DesignView(const DesignBase& base,
                       const merlin::DesignConfig& config)
    : DesignView(base, &config) {}

DesignView::DesignView(const DesignBase& base,
                       const merlin::DesignConfig* config)
    : base_(&base), loops_(base.loops().size()) {
  for (std::size_t d = 0; d < loops_.size(); ++d) {
    loops_[d].outer = base.loops()[d].pragmas;
  }
  for (const Buffer& buf : base.buffers()) bits_.push_back(buf.interface_bits);
  if (config != nullptr) Apply(*config);
  MarkLiveLoops();
}

void DesignView::Apply(const merlin::DesignConfig& config) {
  const DesignBase& base = *base_;
  using Pipeline = kir::LoopPragmas::Pipeline;
  for (std::size_t b = 0; b < bits_.size(); ++b) {
    const Buffer& buf = base.buffers()[b];
    auto it = config.buffer_bits.find(buf.name);
    if (it != config.buffer_bits.end()) {
      bits_[b] = it->second;
    } else if (buf.kind != BufferKind::kLocal) {
      bits_[b] = buf.element.bit_width();  // area-conservative
    }
  }

  // Loop factors, as ApplyDesign writes them: a tiled loop's pragmas start
  // afresh on its tile loop, and parallel and tree reduction land on its
  // point loop.
  for (const auto& [id, cfg] : config.loops) {
    const int d = base.DenseId(id);
    S2FA_CHECK(d >= 0, "config names no loop of the base: L" << id);
    LoopOverlay& o = loops_[d];
    kir::LoopPragmas* target = &o.outer;
    if (cfg.tile > 1) {
      o.tile = cfg.tile;
      o.outer = {};
      o.outer.tile = kir::LoopPragmas::Tile::kTileLoop;
      o.outer.tile_factor = cfg.tile;
      o.point.tile = kir::LoopPragmas::Tile::kPointLoop;
      o.point.tile_factor = cfg.tile;
      target = &o.point;
    }
    if (cfg.parallel > 1) target->parallel = cfg.parallel;
    if (cfg.pipeline != merlin::PipelineMode::kOff) {
      o.outer.pipeline = cfg.pipeline == merlin::PipelineMode::kFlatten
                             ? Pipeline::kFlatten
                             : Pipeline::kOn;
    }
    if (base.loops()[d].reduction &&
        (cfg.parallel > 1 || cfg.pipeline != merlin::PipelineMode::kOff)) {
      target->tree_reduction = true;
    }
  }

  // Flatten: every loop under a flattened one, point loops included, is
  // fully unrolled and loses its pipeline. A tile loop is not a reduction
  // (ApplyDesign makes it afresh); its point loop is when the loop was.
  auto flatten = [](kir::LoopPragmas& p, std::int64_t trip, bool reduction) {
    p.parallel = trip;
    p.pipeline = Pipeline::kAbsent;
    if (reduction) p.tree_reduction = true;
  };
  std::vector<char> covered(loops_.size(), 0);
  for (std::size_t d = 0; d < loops_.size(); ++d) {
    const DesignBase::Loop& loop = base.loops()[d];
    LoopOverlay& o = loops_[d];
    if (loop.parent >= 0) {
      covered[d] = covered[loop.parent] ||
                   loops_[loop.parent].outer.pipeline == Pipeline::kFlatten;
    }
    if (covered[d]) {
      flatten(o.outer, loop.trip / o.tile, o.tile == 1 && loop.reduction);
    }
    if (o.tile > 1 &&
        (covered[d] || o.outer.pipeline == Pipeline::kFlatten)) {
      flatten(o.point, o.tile, loop.reduction);
    }
  }
}

void DesignView::MarkLiveLoops() {
  for (std::size_t d = loops_.size(); d-- > 0;) {
    const LoopOverlay& o = loops_[d];
    const DesignBase::Loop& loop = base_->loops()[d];
    const bool fully_unrolled =
        o.outer.parallel.value_or(1) >= loop.trip / o.tile &&
        (o.tile == 1 || o.point.parallel.value_or(1) >= o.tile);
    if (loop.parent >= 0 && (!fully_unrolled || o.live_below)) {
      loops_[loop.parent].live_below = true;
    }
  }
}

std::size_t DesignView::VariantOf(int leaf) const {
  const std::vector<int>& tile_loops = base_->leaf(leaf).tile_loops;
  std::size_t variant = 0;
  for (std::size_t k = 0; k < tile_loops.size(); ++k) {
    if (loops_[tile_loops[k]].tile > 1) variant |= std::size_t{1} << k;
  }
  return variant;
}

}  // namespace s2fa::hls
