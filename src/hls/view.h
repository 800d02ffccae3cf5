// Designs as pragma overlays (DESIGN.md §6c.2).
//
// The DSE estimates thousands of designs of one kernel. They differ only
// in Merlin's loop pragmas, tile factors and interface bit-widths, so the
// kernel is compiled once into a DesignBase, and each design is a small
// DesignView over it:
//
//   * DesignBase holds what every estimate of the kernel reads: the loops
//     in pre-order (dense ids 0..n-1) with trip counts, nesting, reduction
//     flags, the per-buffer access census of each body (kir::CountTotalOps;
//     its local buffers are the ones a body's unroll partitions), the
//     recurrence summary of each loop, and the compiled statement tree
//     whose leaves carry the latency and operator cost of every
//     statement-level expression. It validates the kernel, is built
//     eagerly and is never written again, so evaluations on any number of
//     threads share one without a lock.
//   * DesignView is one design point: per dense loop, the kir::LoopPragmas
//     merlin::ApplyDesign would attach to the loop and, when the loop is
//     tiled, to its point loop, plus the interface bit-widths.
//
// Tiling is the only structural change, and the view reads it instead of
// rewriting the kernel: a loop of trip T tiled by t reads as a tile loop
// of trip T/t (keeping the loop's id) over a point loop of trip t with the
// original body, and every read of the loop's index in that body costs
// the `v_t*t + v_p` arithmetic the rewrite would have substituted. Each
// leaf holds its cost for every combination of tiled enclosing loops whose
// index it reads, computed on the substituted expressions when the base is
// built. hls::EstimateHls(view) is bit-identical to
// hls::EstimateHls(merlin::ApplyDesign(kernel, config).kernel).
#pragma once

#include <cstdint>
#include <vector>

#include "hls/device.h"
#include "kir/kernel.h"
#include "merlin/design.h"
#include "merlin/transform.h"

namespace s2fa::hls {

class DesignBase {
 public:
  // One node of the compiled statement tree.
  struct Node {
    enum class Kind : std::uint8_t { kLeaf, kIf, kLoop, kBlock };
    Kind kind = Kind::kBlock;
    int leaf = -1;        // kLeaf: the statement; kIf: the condition
    int loop = -1;        // kLoop: dense loop id
    int then_node = -1;   // kIf
    int else_node = -1;   // kIf; -1 without an else branch
    int first = 0;        // kBlock: children are child(first..first+count-1)
    int count = 0;
  };

  // A statement-level expression: an assignment (both sides), a
  // declaration's initializer, or an if condition. Its cost depends on
  // which of `tile_loops` (enclosing loops with a composite trip count
  // whose index it reads, in loop-id order) are tiled: bit k of the
  // variant index is set when tile_loops[k] is. `latency` of a variant is
  // the statement's latency (assignments and initialized declarations at
  // least 1) and dsp/ff/lut are its operator resources for one replica.
  struct Leaf {
    std::vector<int> tile_loops;
    std::vector<OpCost> variants;  // 1 << tile_loops.size() entries
  };

  // Accesses of one buffer in one execution of a loop body, nested loops
  // weighted by their trip counts (the kir::CountTotalOps census).
  // `read_entry` is whether the census lists the buffer among its reads.
  struct Traffic {
    int buffer = 0;
    bool read_entry = false;
    int reads = 0;
    int writes = 0;
  };

  // One carried-dependence cycle of a loop: the right-hand side of the
  // assignment `leaf`, with its carried path latency per variant of that
  // leaf (-1 when it does not reach a carrier).
  struct Cycle {
    int leaf = 0;
    std::vector<double> latency;
  };

  struct Loop {
    int id = 0;           // kernel loop id
    int parent = -1;      // dense id of the enclosing loop, -1 at top level
    std::int64_t trip = 0;
    bool reduction = false;
    kir::LoopPragmas pragmas;  // the kernel's own
    int body = 0;         // node
    std::vector<Traffic> census;
    bool carried = false;          // kir::AnalyzeRecurrence found a carrier
    bool buffer_carrier = false;   // some carrier names a buffer
    std::vector<Cycle> cycles;
  };

  // Validates `kernel` (kir::Kernel::Validate) and compiles it. The base
  // keeps no reference to the kernel.
  explicit DesignBase(const kir::Kernel& kernel);

  // merlin::IsLegalConfig against this kernel's loops and buffers.
  bool IsLegal(const merlin::DesignConfig& config) const;

  const std::vector<Loop>& loops() const { return loops_; }
  const std::vector<kir::Buffer>& buffers() const { return buffers_; }
  const Node& node(int i) const { return nodes_[i]; }
  int child(int i) const { return children_[i]; }
  const Leaf& leaf(int i) const { return leaves_[i]; }
  int root() const { return root_; }
  // Dense id of kernel loop `id`, or -1.
  int DenseId(int id) const;

 private:
  friend class BaseBuilder;

  std::vector<Loop> loops_;
  std::vector<merlin::LoopTrip> trips_;  // per dense id, for legality
  std::vector<kir::Buffer> buffers_;
  std::vector<Node> nodes_;
  std::vector<int> children_;
  std::vector<Leaf> leaves_;
  int root_ = 0;
};

class DesignView {
 public:
  struct LoopOverlay {
    kir::LoopPragmas outer;   // the loop itself, or its tile loop
    kir::LoopPragmas point;   // its point loop when tiled
    std::int64_t tile = 1;    // 1 when not tiled
    // Some loop nested in this one (point loops included) is not fully
    // unrolled.
    bool live_below = false;
  };

  // The base kernel as it is: its own pragmas and interface bit-widths,
  // nothing tiled.
  explicit DesignView(const DesignBase& base);
  // `config` applied to the base as merlin::ApplyDesign applies it,
  // flatten overrides included. `config` must be legal (base.IsLegal).
  DesignView(const DesignBase& base, const merlin::DesignConfig& config);

  const DesignBase& base() const { return *base_; }
  const LoopOverlay& loop(int d) const { return loops_[d]; }
  // Interface bit-width of buffer `b` (0 = the element's natural width).
  int interface_bits(int b) const { return bits_[b]; }
  // Index into base().leaf(i).variants for this design.
  std::size_t VariantOf(int leaf) const;

 private:
  DesignView(const DesignBase& base, const merlin::DesignConfig* config);
  void Apply(const merlin::DesignConfig& config);
  void MarkLiveLoops();

  const DesignBase* base_;
  std::vector<LoopOverlay> loops_;
  std::vector<int> bits_;
};

}  // namespace s2fa::hls
