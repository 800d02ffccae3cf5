#include "hls/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/obs.h"
#include "support/error.h"

namespace s2fa::hls {

namespace {

using kir::Buffer;
using kir::BufferKind;
using Node = DesignBase::Node;
using Pipeline = kir::LoopPragmas::Pipeline;

constexpr double kBramBits = 18432;  // one BRAM18K block

double Log2Ceil(double v) { return v <= 1 ? 0 : std::ceil(std::log2(v)); }

// Estimates one design, reading the kernel from the view's base tables and
// every pragma, tile factor and interface width through the view.
class Estimator {
 public:
  Estimator(const DesignView& view, const EstimatorOptions& options)
      : view_(view),
        base_(view.base()),
        opt_(options),
        partition_(base_.buffers().size(), 0) {}

  HlsResult Run();

 private:
  // Latency of one execution of node `i`; charges resources. `scale` is
  // how many times this node executes per invocation (the product of
  // enclosing sequential iteration counts) — it never affects the latency
  // or the charged resources, only how much weight an II decision taken
  // here carries in the whole-kernel bottleneck attribution.
  double NodeLatency(int i, double repl, double scale);

  // Latency of dense loop `d` as ApplyDesign would have left it: the loop
  // itself, or, when tiled, its tile loop (`point` false) whose body is
  // its point loop (`point` true) over the original body.
  double LoopLatency(int d, bool point, double repl, double scale);

  void Charge(const OpCost& cost, double repl) {
    dsp_ += cost.dsp * repl;
    ff_ += cost.ff * repl;
    lut_ += cost.lut * repl;
  }

  // Memory-port initiation interval for a pipelined loop issuing `u`
  // logical iterations per initiation, whose per-iteration body census is
  // `census` with every count multiplied by `weight` (a tile loop's body is
  // its point loop: the census of the original body times the tile
  // factor). Reports which bound set the II — local ports or off-chip
  // width — right where the max is taken (kNone when neither exceeds II 1).
  struct MemIi {
    double ii = 1;
    BottleneckKind kind = BottleneckKind::kNone;
  };
  MemIi MemoryII(const std::vector<DesignBase::Traffic>& census,
                 std::int64_t weight, double u) const;

  // Partition factor chosen by Merlin for local buffer `b`: the largest
  // unroll among loops whose bodies access it.
  std::int64_t PartitionOf(int b) const {
    return std::max<std::int64_t>(1, partition_[b]);
  }

  void PrecomputePartitions();

  const DesignView& view_;
  const DesignBase& base_;
  const EstimatorOptions& opt_;
  double dsp_ = 0, ff_ = 0, lut_ = 0, bram_ = 0;
  std::vector<std::int64_t> partition_;  // per buffer; 0 = not partitioned
  double max_parallel_ = 1;
  bool unrolled_wavefront_ = false;
  // Champion II decision across all pipelined loops, weighted by the stall
  // cycles it costs the whole invocation (scale * II * (iters - 1)).
  Bottleneck ii_bottleneck_;
  double ii_weight_ = 0;
  std::vector<std::string> notes_;
};

double Estimator::NodeLatency(int i, double repl, double scale) {
  const Node& node = base_.node(i);
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      const OpCost& cost =
          base_.leaf(node.leaf).variants[view_.VariantOf(node.leaf)];
      Charge(cost, repl);
      return cost.latency;
    }
    case Node::Kind::kIf: {
      const OpCost& cond =
          base_.leaf(node.leaf).variants[view_.VariantOf(node.leaf)];
      Charge(cond, repl);
      double then_lat = NodeLatency(node.then_node, repl, scale);
      double else_lat =
          node.else_node >= 0 ? NodeLatency(node.else_node, repl, scale)
                              : 0.0;
      Charge({1, 0, 16, 24}, repl);  // branch select
      return cond.latency + std::max(then_lat, else_lat) + 1;
    }
    case Node::Kind::kLoop:
      return LoopLatency(node.loop, false, repl, scale);
    case Node::Kind::kBlock: {
      double total = 0;
      for (int c = node.first; c < node.first + node.count; ++c) {
        total += NodeLatency(base_.child(c), repl, scale);
      }
      return total;
    }
  }
  S2FA_UNREACHABLE("bad node kind");
}

void Estimator::PrecomputePartitions() {
  for (std::size_t d = 0; d < base_.loops().size(); ++d) {
    const DesignBase::Loop& loop = base_.loops()[d];
    const DesignView::LoopOverlay& o = view_.loop(static_cast<int>(d));
    // The tile loop's body is the point loop over the same accesses.
    std::int64_t u = std::min<std::int64_t>(o.outer.parallel.value_or(1),
                                            loop.trip / o.tile);
    if (o.tile > 1) {
      u = std::max<std::int64_t>(
          u, std::min<std::int64_t>(o.point.parallel.value_or(1), o.tile));
    }
    if (u <= 1) continue;
    for (const DesignBase::Traffic& t : loop.census) {
      const Buffer& buf = base_.buffers()[t.buffer];
      if (buf.kind == BufferKind::kLocal) {
        std::int64_t& part = partition_[t.buffer];
        part = std::max(part, std::min<std::int64_t>(u, buf.length));
      }
    }
  }
}

Estimator::MemIi Estimator::MemoryII(
    const std::vector<DesignBase::Traffic>& census, std::int64_t weight,
    double u) const {
  auto weighted = [weight](int n) {
    return static_cast<int>(std::min<std::int64_t>(
        static_cast<std::int64_t>(n) * weight, INT32_MAX));
  };
  double port_ii = 1, axi_ii = 1;
  for (const DesignBase::Traffic& t : census) {
    const Buffer& buf = base_.buffers()[t.buffer];
    const int reads = weighted(t.reads);
    const int writes = weighted(t.writes);
    if (buf.kind == BufferKind::kLocal) {
      // Dual-ported BRAM, one partition set per Merlin config.
      const double ports = 2.0 * static_cast<double>(PartitionOf(t.buffer));
      port_ii = std::max(
          port_ii, t.read_entry
                       ? std::ceil(u * (reads + static_cast<double>(writes)) /
                                   ports)
                       : std::ceil(u * writes / ports));
    } else {
      // Off-chip: the census's reads of a read buffer, the writes of a
      // write-only one.
      const double bits =
          u * (t.read_entry ? reads : writes) * buf.element.bit_width();
      const int width = view_.interface_bits(t.buffer) > 0
                            ? view_.interface_bits(t.buffer)
                            : buf.element.bit_width();
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

double Estimator::LoopLatency(int d, bool point, double repl, double scale) {
  const DesignBase::Loop& loop = base_.loops()[d];
  const DesignView::LoopOverlay& o = view_.loop(d);
  const bool tile_loop = o.tile > 1 && !point;
  const kir::LoopPragmas& pragmas = point ? o.point : o.outer;
  const std::int64_t trip = point ? o.tile : loop.trip / o.tile;
  const std::int64_t u =
      std::min<std::int64_t>(pragmas.parallel.value_or(1), trip);
  const double iters = std::ceil(static_cast<double>(trip) /
                                 static_cast<double>(u));
  max_parallel_ = std::max(max_parallel_, static_cast<double>(u));

  const Pipeline pipe = pragmas.pipeline;
  const bool tree = pragmas.tree_reduction;

  // Sub-loops that are not fully unrolled block pipelining of this loop.
  const bool has_live_subloop =
      o.live_below ||
      (tile_loop && o.point.parallel.value_or(1) < o.tile);

  const double body_lat =
      tile_loop ? LoopLatency(d, true, repl * static_cast<double>(u),
                              scale * iters)
                : NodeLatency(loop.body, repl * static_cast<double>(u),
                              scale * iters);

  // A wide unroll of a loop carrying a buffer ripples through the chain.
  if (u > 16 && loop.buffer_carrier) unrolled_wavefront_ = true;

  const bool pipelined = pipe != Pipeline::kAbsent && !has_live_subloop;
  if (pipelined) {
    // Pipelined: II from the carried recurrence and from memory ports.
    double ii_rec = 1;
    if (loop.carried && !tree) {
      for (const DesignBase::Cycle& cycle : loop.cycles) {
        ii_rec = std::max(ii_rec, cycle.latency[view_.VariantOf(cycle.leaf)]);
      }
      // A serial chain cannot be widened: unrolling packs u dependent
      // updates into each initiation, so the recurrence II scales with u.
      ii_rec *= static_cast<double>(u);
    }
    const MemIi mem = MemoryII(loop.census, tile_loop ? o.tile : 1,
                               static_cast<double>(u));
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

  if (pipe != Pipeline::kAbsent && has_live_subloop) {
    notes_.push_back("L" + std::to_string(loop.id) +
                     ": pipeline ignored (live sub-loops; use flatten)");
  }
  // Sequential execution: per-iteration body + loop control.
  return iters * (body_lat + 1) + 1;
}

HlsResult Estimator::Run() {
  HlsResult result;

  PrecomputePartitions();

  // Base control logic.
  lut_ += opt_.base_lut;
  ff_ += opt_.base_ff;
  bram_ += opt_.base_bram;

  // Interface logic per off-chip buffer: AXI master + burst buffer sized by
  // the interface width.
  for (std::size_t b = 0; b < base_.buffers().size(); ++b) {
    const Buffer& buf = base_.buffers()[b];
    const int bi = static_cast<int>(b);
    if (buf.kind == BufferKind::kLocal) {
      const double bits = static_cast<double>(buf.length) *
                          buf.element.bit_width();
      const double parts = static_cast<double>(PartitionOf(bi));
      bram_ += parts * std::max(1.0, std::ceil(bits / parts / kBramBits));
      lut_ += 50 + 10 * parts;  // banking mux
      continue;
    }
    const double width = view_.interface_bits(bi) > 0
                             ? view_.interface_bits(bi)
                             : buf.element.bit_width();
    lut_ += 800 + width;
    ff_ += 1000 + 2 * width;
    // Merlin stages each interface buffer on chip and double-buffers it to
    // overlap bursts with compute.
    const double stage_bits = static_cast<double>(buf.length) *
                              buf.element.bit_width();
    bram_ += 2.0 * std::max(1.0, std::ceil(stage_bits / kBramBits));
  }

  const double cycles = NodeLatency(base_.root(), 1.0, 1.0);

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

namespace {

HlsResult Counted(HlsResult result) {
  S2FA_COUNT("hls.estimates", 1);
  if (!result.feasible) S2FA_COUNT("hls.infeasible", 1);
  S2FA_OBSERVE("hls.eval_minutes", result.eval_minutes);
  return result;
}

}  // namespace

HlsResult EstimateHls(const DesignView& view,
                      const EstimatorOptions& options) {
  S2FA_SPAN("hls.estimate");
  return Counted(Estimator(view, options).Run());
}

HlsResult EstimateHls(const kir::Kernel& kernel,
                      const EstimatorOptions& options) {
  S2FA_SPAN("hls.estimate");
  const DesignBase base(kernel);
  return Counted(Estimator(DesignView(base), options).Run());
}

}  // namespace s2fa::hls
