#include "hls/estimator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "kir/analysis.h"
#include "merlin/transform.h"
#include "obs/obs.h"
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
using kir::StmtPtr;

constexpr double kBramBits = 18432;  // one BRAM18K block

double Log2Ceil(double v) { return v <= 1 ? 0 : std::ceil(std::log2(v)); }

// Latency of `op` without charging resources (for recurrence-cycle math).
double NodeLatency(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kBinary:
      return BinaryOpCost(e.binary_op(), e.operands()[0]->type()).latency;
    case ExprKind::kUnary:
      return UnaryOpCost(e.unary_op(), e.operands()[0]->type()).latency;
    case ExprKind::kCall:
      return IntrinsicCost(e.intrinsic(), e.type()).latency;
    case ExprKind::kCast:
      return CastCost(e.operands()[0]->type(), e.type()).latency;
    case ExprKind::kSelect:
      return 1;
    default:
      return 0;
  }
}

// Latency along the path from a carried value (scalar or buffer) to the
// root of `expr` — the length of the dependence cycle through this
// expression. Returns -1 when the subtree does not touch a carrier.
double CarriedPathLatency(const ExprPtr& expr,
                          const std::vector<std::string>& carriers,
                          const kir::Kernel& k) {
  const Expr& e = *expr;
  if (e.kind() == ExprKind::kVar) {
    for (const auto& c : carriers) {
      if (e.name() == c) return 0;
    }
    return -1;
  }
  if (e.kind() == ExprKind::kArrayRef) {
    bool carried_buffer = false;
    for (const auto& c : carriers) {
      if (e.name() == c) carried_buffer = true;
    }
    if (carried_buffer) {
      const Buffer* buf = k.FindBuffer(e.name());
      return (buf != nullptr && buf->kind == BufferKind::kLocal)
                 ? kLocalReadLatency
                 : kAxiReadLatency;
    }
    // An index depending on a carried value would also cycle, but such
    // indirect recurrences do not occur in the supported kernel forms.
    return -1;
  }
  double path = -1;
  for (const auto& op : e.operands()) {
    path = std::max(path, CarriedPathLatency(op, carriers, k));
  }
  if (path < 0) return -1;
  return path + NodeLatency(e);
}

// Calls `fn` on every buffer read or write under `stmt`, nested loops
// included.
void VisitBufferAccesses(const Stmt& stmt,
                         const std::function<void(const Expr&)>& fn) {
  const std::function<void(const Expr&)> on_node = [&fn](const Expr& e) {
    if (e.kind() == ExprKind::kArrayRef) fn(e);
  };
  switch (stmt.kind()) {
    case StmtKind::kAssign:
      kir::VisitExpr(stmt.lhs(), on_node);
      kir::VisitExpr(stmt.rhs(), on_node);
      break;
    case StmtKind::kDecl:
      if (stmt.init()) kir::VisitExpr(stmt.init(), on_node);
      break;
    case StmtKind::kIf:
      kir::VisitExpr(stmt.cond(), on_node);
      VisitBufferAccesses(*stmt.then_stmt(), fn);
      if (stmt.else_stmt()) VisitBufferAccesses(*stmt.else_stmt(), fn);
      break;
    case StmtKind::kFor:
      VisitBufferAccesses(*stmt.body(), fn);
      break;
    case StmtKind::kBlock:
      for (const auto& st : stmt.stmts()) VisitBufferAccesses(*st, fn);
      break;
  }
}

class Estimator {
 public:
  Estimator(const kir::Kernel& kernel, const EstimatorOptions& options)
      : k_(kernel), opt_(options) {}

  HlsResult Run();

 private:
  // Effective unroll of a loop, clamped to its trip count.
  static std::int64_t UnrollOf(const Stmt& loop) {
    return std::min<std::int64_t>(merlin::ParallelFactorOf(loop),
                                  loop.trip_count());
  }

  // Whether the loop is effectively fully unrolled (acts as straight-line).
  static bool FullyUnrolled(const Stmt& loop) {
    return UnrollOf(loop) >= loop.trip_count();
  }

  // Critical-path latency of an expression; charges operator resources
  // (replicated `repl` times) on first traversal of each instance.
  double ExprLatency(const ExprPtr& expr, double repl);

  // Latency of one execution of `stmt`; charges resources. `scale` is how
  // many times this statement executes per invocation (the product of
  // enclosing sequential iteration counts) — it never affects the latency
  // or the charged resources, only how much weight an II decision taken
  // here carries in the whole-kernel bottleneck attribution.
  double StmtLatency(const Stmt& stmt, double repl, double scale);

  double LoopLatency(const Stmt& loop, double repl, double scale);

  void Charge(const OpCost& cost, double repl) {
    dsp_ += cost.dsp * repl;
    ff_ += cost.ff * repl;
    lut_ += cost.lut * repl;
  }

  // Memory-port initiation interval for a pipelined loop issuing `u`
  // logical iterations per initiation, whose per-iteration body census is
  // `counts` (inner fully-unrolled loops already weighted). Reports which
  // bound set the II — local ports or off-chip width — right where the
  // max is taken (kNone when neither exceeds II 1).
  struct MemIi {
    double ii = 1;
    BottleneckKind kind = BottleneckKind::kNone;
  };
  MemIi MemoryII(const kir::OpCounts& counts, double u);

  // Partition factor chosen by Merlin for a local buffer: the largest
  // unroll among loops whose bodies access it.
  std::int64_t PartitionOf(const std::string& buffer) const;

  void PrecomputePartitions();

  const kir::Kernel& k_;
  EstimatorOptions opt_;
  double dsp_ = 0, ff_ = 0, lut_ = 0, bram_ = 0;
  std::map<std::string, std::int64_t> partition_;
  double max_parallel_ = 1;
  bool unrolled_wavefront_ = false;
  // Champion II decision across all pipelined loops, weighted by the stall
  // cycles it costs the whole invocation (scale * II * (iters - 1)).
  Bottleneck ii_bottleneck_;
  double ii_weight_ = 0;
  std::vector<std::string> notes_;
};

double Estimator::ExprLatency(const ExprPtr& expr, double repl) {
  const Expr& e = *expr;
  double operand_lat = 0;
  for (const auto& op : e.operands()) {
    operand_lat = std::max(operand_lat, ExprLatency(op, repl));
  }
  switch (e.kind()) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kVar:
      return operand_lat;
    case ExprKind::kArrayRef: {
      const Buffer* buf = k_.FindBuffer(e.name());
      S2FA_CHECK(buf != nullptr, "unknown buffer " << e.name());
      const double lat = buf->kind == BufferKind::kLocal ? kLocalReadLatency
                                                         : kAxiReadLatency;
      return operand_lat + lat;
    }
    case ExprKind::kBinary: {
      OpCost cost = BinaryOpCost(e.binary_op(), e.operands()[0]->type());
      // Integer multiplication by a compile-time constant strength-reduces
      // to shift/add LUT logic -- no DSP block.
      if (e.binary_op() == kir::BinaryOp::kMul &&
          !e.operands()[0]->type().is_floating() &&
          (e.operands()[0]->kind() == ExprKind::kIntLit ||
           e.operands()[1]->kind() == ExprKind::kIntLit)) {
        // The shift/add network is sized by the variable operand; the
        // literal only selects which shifts are wired in.
        const ExprPtr& variable_side =
            e.operands()[0]->kind() == ExprKind::kIntLit ? e.operands()[1]
                                                         : e.operands()[0];
        double w = variable_side->type().bit_width();
        cost = OpCost{1, 0, w, 2 * w};
      }
      Charge(cost, repl);
      return operand_lat + cost.latency;
    }
    case ExprKind::kUnary: {
      OpCost cost = UnaryOpCost(e.unary_op(), e.operands()[0]->type());
      Charge(cost, repl);
      return operand_lat + cost.latency;
    }
    case ExprKind::kCall: {
      OpCost cost = IntrinsicCost(e.intrinsic(), e.type());
      Charge(cost, repl);
      return operand_lat + cost.latency;
    }
    case ExprKind::kCast: {
      OpCost cost = CastCost(e.operands()[0]->type(), e.type());
      Charge(cost, repl);
      return operand_lat + cost.latency;
    }
    case ExprKind::kSelect: {
      Charge({1, 0, 32, 32}, repl);  // mux
      return operand_lat + 1;
    }
  }
  S2FA_UNREACHABLE("bad expr kind");
}

double Estimator::StmtLatency(const Stmt& stmt, double repl, double scale) {
  switch (stmt.kind()) {
    case StmtKind::kAssign: {
      double lat = ExprLatency(stmt.rhs(), repl);
      if (stmt.lhs()->kind() == ExprKind::kArrayRef) {
        lat = std::max(lat, ExprLatency(stmt.lhs()->operands()[0], repl));
        const Buffer* buf = k_.FindBuffer(stmt.lhs()->name());
        S2FA_CHECK(buf != nullptr, "unknown buffer " << stmt.lhs()->name());
        lat += buf->kind == BufferKind::kLocal ? kLocalWriteLatency
                                               : kAxiWriteLatency;
      }
      return std::max(1.0, lat);
    }
    case StmtKind::kDecl:
      return stmt.init() ? std::max(1.0, ExprLatency(stmt.init(), repl))
                         : 0.0;
    case StmtKind::kIf: {
      double cond = ExprLatency(stmt.cond(), repl);
      double then_lat = StmtLatency(*stmt.then_stmt(), repl, scale);
      double else_lat =
          stmt.else_stmt() ? StmtLatency(*stmt.else_stmt(), repl, scale)
                           : 0.0;
      Charge({1, 0, 16, 24}, repl);  // branch select
      return cond + std::max(then_lat, else_lat) + 1;
    }
    case StmtKind::kFor:
      return LoopLatency(stmt, repl, scale);
    case StmtKind::kBlock: {
      double total = 0;
      for (const auto& st : stmt.stmts()) {
        total += StmtLatency(*st, repl, scale);
      }
      return total;
    }
  }
  S2FA_UNREACHABLE("bad stmt kind");
}

std::int64_t Estimator::PartitionOf(const std::string& buffer) const {
  auto it = partition_.find(buffer);
  return it == partition_.end() ? 1 : std::max<std::int64_t>(1, it->second);
}

void Estimator::PrecomputePartitions() {
  for (const Stmt* loop : k_.Loops()) {
    const std::int64_t u = UnrollOf(*loop);
    if (u <= 1) continue;
    VisitBufferAccesses(*loop->body(), [&](const Expr& access) {
      const Buffer* buf = k_.FindBuffer(access.name());
      if (buf != nullptr && buf->kind == BufferKind::kLocal) {
        std::int64_t& part = partition_[access.name()];
        part = std::max(part, std::min<std::int64_t>(u, buf->length));
      }
    });
  }
}

Estimator::MemIi Estimator::MemoryII(const kir::OpCounts& counts, double u) {
  double port_ii = 1, axi_ii = 1;
  // Local buffers: dual-ported BRAM, one partition set per Merlin config.
  for (const auto& [name, n] : counts.buffer_reads) {
    const Buffer* buf = k_.FindBuffer(name);
    if (buf == nullptr) continue;
    double writes = 0;
    auto w = counts.buffer_writes.find(name);
    if (w != counts.buffer_writes.end()) writes = w->second;
    if (buf->kind == BufferKind::kLocal) {
      double ports = 2.0 * static_cast<double>(PartitionOf(name));
      port_ii = std::max(port_ii, std::ceil(u * (n + writes) / ports));
    } else {
      const double bits = u * n * buf->element.bit_width();
      const double width = buf->interface_bits > 0
                               ? buf->interface_bits
                               : buf->element.bit_width();
      axi_ii = std::max(axi_ii, std::ceil(bits / width));
    }
  }
  // Write-only buffers not covered above.
  for (const auto& [name, n] : counts.buffer_writes) {
    if (counts.buffer_reads.count(name) != 0) continue;
    const Buffer* buf = k_.FindBuffer(name);
    if (buf == nullptr) continue;
    if (buf->kind == BufferKind::kLocal) {
      double ports = 2.0 * static_cast<double>(PartitionOf(name));
      port_ii = std::max(port_ii, std::ceil(u * n / ports));
    } else {
      const double bits = u * n * buf->element.bit_width();
      const double width = buf->interface_bits > 0
                               ? buf->interface_bits
                               : buf->element.bit_width();
      axi_ii = std::max(axi_ii, std::ceil(bits / width));
    }
  }
  MemIi result;
  result.ii = std::max(port_ii, axi_ii);
  if (result.ii > 1) {
    result.kind = port_ii >= axi_ii ? BottleneckKind::kMemoryPortII
                                    : BottleneckKind::kAxiBandwidth;
  }
  return result;
}

double Estimator::LoopLatency(const Stmt& loop, double repl, double scale) {
  const std::int64_t trip = loop.trip_count();
  const std::int64_t u = UnrollOf(loop);
  const double iters = std::ceil(static_cast<double>(trip) /
                                 static_cast<double>(u));
  max_parallel_ = std::max(max_parallel_, static_cast<double>(u));

  merlin::PipelineMode pipe = merlin::PipelineModeOf(loop);
  const bool tree = merlin::HasTreeReduction(loop);

  // Sub-loops that are not fully unrolled block pipelining of this loop.
  bool has_live_subloop = false;
  kir::VisitStmt(loop.body(), std::function<void(const Stmt&)>(
                                  [&](const Stmt& s) {
                                    if (s.kind() == StmtKind::kFor &&
                                        !FullyUnrolled(s)) {
                                      has_live_subloop = true;
                                    }
                                  }));

  const double body_lat =
      StmtLatency(*loop.body(), repl * static_cast<double>(u),
                  scale * iters);

  // The recurrence is read only by the wavefront check of a wide unroll and
  // by the II of a pipelined loop without a tree reduction; other loops
  // skip the analysis.
  const bool pipelined =
      pipe != merlin::PipelineMode::kOff && !has_live_subloop;
  kir::LoopRecurrence rec;
  if (u > 16 || (pipelined && !tree)) rec = kir::AnalyzeRecurrence(loop);
  if (u > 16) {
    for (const auto& carrier : rec.carriers) {
      if (k_.FindBuffer(carrier) != nullptr) unrolled_wavefront_ = true;
    }
  }

  if (pipelined) {
    // Pipelined: II from the carried recurrence and from memory ports.
    double ii_rec = 1;
    if (rec.carried && !tree) {
      for (const auto& cycle : rec.cycle_exprs) {
        ii_rec = std::max(ii_rec,
                          CarriedPathLatency(cycle, rec.carriers, k_));
      }
      // A serial chain cannot be widened: unrolling packs u dependent
      // updates into each initiation, so the recurrence II scales with u.
      ii_rec *= static_cast<double>(u);
    }
    kir::OpCounts counts = kir::CountTotalOps(*loop.body());
    const MemIi mem = MemoryII(counts, static_cast<double>(u));
    const double ii = std::max({1.0, ii_rec, mem.ii});
    // This is where the II decision is taken: remember the binding bound
    // when the stall it costs the whole invocation beats the champion.
    const double stall_weight = scale * ii * (iters - 1);
    if (ii > 1 && stall_weight > ii_weight_) {
      ii_weight_ = stall_weight;
      ii_bottleneck_.kind = ii_rec >= mem.ii ? BottleneckKind::kRecurrenceII
                                             : mem.kind;
      ii_bottleneck_.quantity = ii;
      ii_bottleneck_.margin = ii - std::max(1.0, std::min(ii_rec, mem.ii));
    }
    double lat = body_lat + ii * (iters - 1) + 2;
    if (tree && u > 1) {
      // Balanced partial-sum combine after the loop drains.
      OpCost add = BinaryOpCost(kir::BinaryOp::kAdd, kir::Type::Float());
      lat += Log2Ceil(static_cast<double>(u)) * add.latency;
      Charge({0, 0, 32.0 * static_cast<double>(u),
              16.0 * static_cast<double>(u)},
             repl);  // partial-sum registers
    }
    return lat;
  }

  if (pipe != merlin::PipelineMode::kOff && has_live_subloop) {
    notes_.push_back("L" + std::to_string(loop.loop_id()) +
                     ": pipeline ignored (live sub-loops; use flatten)");
  }
  // Sequential execution: per-iteration body + loop control.
  return iters * (body_lat + 1) + 1;
}

HlsResult Estimator::Run() {
  k_.Validate();
  HlsResult result;

  PrecomputePartitions();

  // Base control logic.
  lut_ += opt_.base_lut;
  ff_ += opt_.base_ff;
  bram_ += opt_.base_bram;

  // Interface logic per off-chip buffer: AXI master + burst buffer sized by
  // the interface width.
  for (const auto& buf : k_.buffers) {
    if (buf.kind == BufferKind::kLocal) {
      const double bits = static_cast<double>(buf.length) *
                          buf.element.bit_width();
      const double parts = static_cast<double>(PartitionOf(buf.name));
      bram_ += parts * std::max(1.0, std::ceil(bits / parts / kBramBits));
      lut_ += 50 + 10 * parts;  // banking mux
      continue;
    }
    const double width = buf.interface_bits > 0 ? buf.interface_bits
                                                : buf.element.bit_width();
    lut_ += 800 + width;
    ff_ += 1000 + 2 * width;
    // Merlin stages each interface buffer on chip and double-buffers it to
    // overlap bursts with compute.
    const double stage_bits = static_cast<double>(buf.length) *
                              buf.element.bit_width();
    bram_ += 2.0 * std::max(1.0, std::ceil(stage_bits / kBramBits));
  }

  const double cycles = StmtLatency(*k_.body, 1.0, 1.0);

  const DeviceModel& dev = opt_.device;
  result.util.bram = bram_;
  result.util.dsp = dsp_;
  result.util.ff = ff_;
  result.util.lut = lut_;
  result.util.bram_frac = bram_ / dev.bram_18k;
  result.util.dsp_frac = dsp_ / dev.dsp;
  result.util.ff_frac = ff_ / dev.ff;
  result.util.lut_frac = lut_ / dev.lut;

  // Frequency model: congestion + broadcast fan-out of wide unrolls + deep
  // combinational ripple of unrolled wavefronts. The terms are kept apart
  // so a timing verdict can blame the side that dominated — congestion
  // (LUT/FF pressure, fan-out) vs the parallelism routing wall (which the
  // wavefront ripple belongs to: both are cured by backing parallelism
  // off).
  const double congestion_term =
      opt_.lut_congestion_slope *
          std::max(0.0, result.util.lut_frac - opt_.lut_congestion_knee) +
      opt_.ff_congestion_slope *
          std::max(0.0, result.util.ff_frac - opt_.ff_congestion_knee) +
      opt_.unroll_slowdown * Log2Ceil(max_parallel_);
  double routing_term =
      std::pow(max_parallel_ / opt_.routing_knee, opt_.routing_power);
  if (unrolled_wavefront_) routing_term += opt_.wavefront_slowdown;
  const double slowdown = 1.0 + congestion_term + routing_term;
  double freq = dev.target_mhz / slowdown;
  freq = std::floor(freq / 10.0) * 10.0;  // P&R granularity
  freq = std::min(freq, dev.target_mhz);
  auto freq_bottleneck = [&] {
    Bottleneck b;
    b.kind = routing_term >= congestion_term ? BottleneckKind::kRoutingWall
                                             : BottleneckKind::kFreqCongestion;
    b.quantity = slowdown;
    b.margin = std::abs(routing_term - congestion_term);
    return b;
  };

  result.cycles = cycles;
  result.freq_mhz = freq;
  result.exec_us = cycles / freq;  // cycles / (MHz) = microseconds
  result.notes = notes_;

  // Feasibility: the paper caps usable resources at 75% and treats designs
  // the tool cannot place/route in time as failures. A resource verdict
  // names the binding resource, and the bottleneck attribution is taken at
  // the very same argmax (Plausible() holds the two to each other).
  const double cap = dev.usable_fraction;
  struct ResFrac {
    BottleneckKind kind;
    double frac;
  };
  const ResFrac fracs[] = {
      {BottleneckKind::kBramCap, result.util.bram_frac},
      {BottleneckKind::kDspCap, result.util.dsp_frac},
      {BottleneckKind::kFfCap, result.util.ff_frac},
      {BottleneckKind::kLutCap, result.util.lut_frac},
  };
  std::size_t max_res = 0, second_res = 1;
  for (std::size_t i = 1; i < 4; ++i) {
    if (fracs[i].frac > fracs[max_res].frac) {
      second_res = max_res;
      max_res = i;
    } else if (fracs[i].frac > fracs[second_res].frac || second_res == max_res) {
      second_res = i;
    }
  }
  auto cap_bottleneck = [&] {
    Bottleneck b;
    b.kind = fracs[max_res].kind;
    b.quantity = fracs[max_res].frac;
    b.margin = fracs[max_res].frac - fracs[second_res].frac;
    return b;
  };
  if (fracs[max_res].frac > cap) {
    result.feasible = false;
    result.infeasible_reason =
        std::string(BottleneckCapResource(fracs[max_res].kind)) +
        " utilization exceeds the usable cap";
    result.bottleneck = cap_bottleneck();
  } else if (freq < opt_.min_feasible_mhz) {
    result.feasible = false;
    result.infeasible_reason = "timing closure failed";
    result.bottleneck = freq_bottleneck();
  } else if (freq < opt_.freq_attr_fraction * dev.target_mhz) {
    // Feasible but clock-bound: the slowdown dominates before any II does.
    result.bottleneck = freq_bottleneck();
  } else if (ii_bottleneck_.kind != BottleneckKind::kNone) {
    result.bottleneck = ii_bottleneck_;
  } else if (fracs[max_res].frac >= opt_.near_cap_fraction * cap) {
    result.bottleneck = cap_bottleneck();
  }

  // Simulated synthesis wall time: grows with spatial complexity; jitter is
  // a deterministic hash of the design so reruns agree.
  const double spatial_kops = (dsp_ * 8 + lut_ / 64.0) / 1000.0;
  double minutes = opt_.synth_base_min +
                   opt_.synth_scale * std::sqrt(std::max(0.0, spatial_kops));
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(cycles));
  mix(static_cast<std::uint64_t>(lut_));
  mix(static_cast<std::uint64_t>(max_parallel_));
  const double jitter =
      0.75 + 0.5 * (static_cast<double>(h % 10000) / 10000.0);
  minutes = std::clamp(minutes * jitter, opt_.synth_min, opt_.synth_max);
  result.eval_minutes = minutes;

  return result;
}

}  // namespace

double Utilization::MaxFraction() const {
  return std::max(std::max(bram_frac, dsp_frac), std::max(ff_frac, lut_frac));
}

bool HlsResult::Plausible() const {
  auto positive_finite = [](double v) { return std::isfinite(v) && v > 0; };
  if (!positive_finite(eval_minutes)) return false;
  // The attribution must carry sane numbers whenever it is set, and an
  // infeasible verdict must blame the same decision its reason names —
  // a tool that reports "bram ... exceeds the usable cap" while attributing
  // the failure to DSPs is talking nonsense.
  if (!std::isfinite(bottleneck.quantity) || bottleneck.quantity < 0 ||
      !std::isfinite(bottleneck.margin)) {
    return false;
  }
  if (!feasible) {  // an infeasible verdict carries no performance numbers
    if (infeasible_reason.find("utilization exceeds") != std::string::npos) {
      const char* resource = BottleneckCapResource(bottleneck.kind);
      if (resource[0] == '\0' ||
          infeasible_reason.find(resource) == std::string::npos) {
        return false;
      }
    } else if (infeasible_reason.find("timing closure") !=
               std::string::npos) {
      if (bottleneck.kind != BottleneckKind::kFreqCongestion &&
          bottleneck.kind != BottleneckKind::kRoutingWall) {
        return false;
      }
    }
    return true;
  }
  if (!positive_finite(cycles) || !positive_finite(freq_mhz) ||
      !positive_finite(exec_us)) {
    return false;
  }
  const double fracs[] = {util.bram_frac, util.dsp_frac, util.ff_frac,
                          util.lut_frac};
  for (double f : fracs) {
    if (!(f >= 0 && f <= 1.0) || std::isnan(f)) return false;
  }
  return true;
}

HlsResult EstimateHls(const kir::Kernel& kernel,
                      const EstimatorOptions& options) {
  S2FA_SPAN("hls.estimate");
  HlsResult result = Estimator(kernel, options).Run();
  S2FA_COUNT("hls.estimates", 1);
  if (!result.feasible) S2FA_COUNT("hls.infeasible", 1);
  S2FA_OBSERVE("hls.eval_minutes", result.eval_minutes);
  return result;
}

}  // namespace s2fa::hls
