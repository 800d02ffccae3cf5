// Kernel IR functional evaluator.
//
// Executes a kernel on concrete data with the same numeric semantics as the
// bytecode it was compiled from (Java semantics: exact integral compares,
// NaN-propagating signed-zero-aware min/max). Used to prove functional
// equivalence: interpreted bytecode == compiled IR == Merlin-transformed
// IR, the end-to-end correctness obligation of the bytecode-to-C compiler.
//
// Two implementations share that contract:
//
//  - Evaluator (the hot path): a lane-parallel executor. A kernel is
//    compiled once into a LaneProgram (CompileLaneProgram), an immutable
//    tree of typed nodes whose operands are int32/int64/float/double
//    columns, so evaluation never touches a string-keyed map or a
//    per-node Value variant. One program may be shared read-only by any
//    number of Evaluators on any number of threads; an Evaluator owns
//    only its scratch columns. Blaze compiles each design once, when it
//    is registered (AcceleratorManager::Register), and every Map/Reduce
//    call and exec thread borrows that program.
//
//    Lanes are the iterations of the template task loop
//    (Kernel::task_loop_id); when Merlin has tiled that loop, lanes are
//    the flattened tile x point nest (lane l runs t = l / T, p = l % T).
//    The task-loop body runs one statement at a time across a chunk of up
//    to kLaneChunk lanes. Everything else -- the broadcast-copy prologue,
//    accumulator declarations, the `out[0] = acc` flush -- runs as
//    width-1 code in the same executor, and inner loops, whose trip
//    counts are constants, run uniformly across lanes.
//
//    A kernel takes the lane path only when a static check proves its
//    task iterations independent:
//      1. every scalar the body assigns is either private to the
//         iteration (definitely assigned before every read in the same
//         iteration, and not referenced outside the task loop) or an
//         accumulator updated only as `acc = acc op X` with `acc`
//         occurring nowhere else in the body; X is computed across lanes
//         and then folded into `acc` in lane order over the active lanes,
//         so floating-point reductions stay bit-identical;
//      2. every local buffer the body writes is fully overwritten (a loop
//         nest covering it exactly once, like b2c's zero-fill) before any
//         other access in each iteration; it is privatized per lane and
//         the copy of the last lane that wrote it is written back;
//      3. every interface buffer the body writes is not read in the body,
//         and its write index is `lane * per_task + u` with `u` built from
//         literals and inner-loop counters and provably in [0, per_task).
//    Any other kernel runs its task loop at width 1 through the same code.
//
//    `if` conditions that vary across lanes become masks and a varying
//    kSelect evaluates each arm under its own sub-mask; masked-off lanes
//    never load, store, bounds-check or divide. Each node charges one step
//    per active lane, so last_steps() equals ReferenceEvaluator's. When a
//    lane faults (bad index, integer division by zero, unbound variable,
//    step budget), the chunk is replayed one lane at a time, so the error
//    raised is the one the sequential walk raises first, with the same
//    type and message.
//
//    Buffers are bound by slot (the kernel's buffer order) to typed device
//    arrays, jvm::PrimitiveArray in the buffer element's storage class, so
//    a load or store moves a raw int32/int64/float/double: the served path
//    (Blaze) serializes columns straight into those arrays. Every index is
//    still bounds-checked against the bound array's size.
//
//    Run may be given the batch's live task count. Blaze zero-pads a short
//    final batch, and on the lane path (lane_width() > 1) the tasks at or
//    past that count are unobservable padding: their interface writes land
//    in their own padded slots and their privates are per lane. Lane l runs
//    task l (the task counter, or t * T + p of the tiled nest -- rule 3
//    pins that as its slot), so only the first live_tasks lanes run. A
//    kernel with accumulators skips padding only when every update sits
//    under the template's `task < N` guard and N equals the live count.
//    Skipped tasks leave their output slots at the zero default, a
//    privatized local is written back from the last live lane,
//    last_steps() counts live lanes only, and a padded task that would
//    fault is never evaluated. Width-1 programs always run the full batch.
//
//  - ReferenceEvaluator: the original map-keyed tree walker, retained as
//    executable reference semantics. The differential fuzz harness runs
//    every random kernel through both and requires bit-identical buffers
//    and equal step counts, so the fast path can never silently diverge.
//
// Both keep the map-keyed Run signature, so they are drop-in
// interchangeable; Evaluator's map form is a thin adapter over its typed
// form that converts each element once on the way in and out (through
// jvm::FromValue / ToValue, the one Value conversion). The lane executor
// assumes a well-typed kernel: a scalar name has one storage class
// (int32/int64/float/double) wherever it occurs and both arms of a select
// agree; CompileLaneProgram throws MalformedInput otherwise. Buffer
// elements are read as their declared element class.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "jvm/primitive_array.h"
#include "jvm/value.h"
#include "kir/kernel.h"

namespace s2fa::kir {

using jvm::Value;

// Buffer contents keyed by buffer name. Inputs must be pre-sized to the
// buffer's declared length times the task count where applicable; outputs
// and locals are zero-initialized by Run if absent.
using BufferMap = std::map<std::string, std::vector<Value>>;

// Typed device buffers bound by slot: slot i is Kernel::buffers[i], held in
// its element type's storage class (jvm::StorageOf).
using DeviceBuffers = std::vector<jvm::PrimitiveArray>;

// Run's default live task count: the whole batch.
inline constexpr std::int64_t kAllTasks =
    std::numeric_limits<std::int64_t>::max();

// Lanes per chunk on the lane path: a fixed width, not a tuning knob. It
// bounds the per-Evaluator scratch (a column holds at most this many
// values; a task loop with fewer lanes gets columns that size).
inline constexpr int kLaneChunk = 256;

// A kernel compiled for the lane-parallel executor (defined in eval.cc).
// Immutable once built; safe to share across threads.
class LaneProgram;

// Compiles `kernel` (validating it first). The program owns everything it
// needs; `kernel` may be destroyed afterwards.
std::shared_ptr<const LaneProgram> CompileLaneProgram(const Kernel& kernel);

// Lane-parallel evaluator. Not thread-safe: each thread owns its own
// instance, while instances may share one compiled program.
class Evaluator {
 public:
  explicit Evaluator(const Kernel& kernel);
  explicit Evaluator(std::shared_ptr<const LaneProgram> program);
  ~Evaluator();

  // Runs the kernel. `scalars` provides values for every declared scalar
  // parameter. `buffers` provides inputs and receives outputs. Missing
  // output/local entries are created zero-filled with the declared length;
  // off-chip buffers may be larger than declared (task-batched).
  // `live_tasks` (>= 0) bounds the tasks a lane-path run evaluates; see
  // the file comment for when padding is skipped.
  void Run(const std::map<std::string, Value>& scalars, BufferMap& buffers,
           std::int64_t live_tasks = kAllTasks);

  // The typed form (the served path). `buffers` holds one array per kernel
  // buffer. Inputs are read as bound and must be in their storage class;
  // every output and local is reset to its declared length, zero-filled,
  // before the kernel runs, as for a fresh invocation. A caller reusing
  // `buffers` across batches reuses their allocations.
  void Run(const std::map<std::string, Value>& scalars, DeviceBuffers& buffers,
           std::int64_t live_tasks = kAllTasks);

  // Instruction-ish step count of the last Run (sanity/runaway guard).
  std::uint64_t last_steps() const { return steps_; }

  // Lanes the task loop runs per chunk: min(kLaneChunk, task count) when
  // the kernel passed the independence check, 1 when its task loop runs
  // at width 1.
  int lane_width() const;

 private:
  struct Scratch;  // per-instance columns (eval.cc)

  std::shared_ptr<const LaneProgram> program_;
  std::unique_ptr<Scratch> scratch_;
  std::uint64_t steps_ = 0;
};

// The legacy map-keyed tree walker (reference semantics; see file comment).
class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const Kernel& kernel);

  void Run(const std::map<std::string, Value>& scalars, BufferMap& buffers);

  std::uint64_t last_steps() const { return steps_; }

 private:
  struct Env {
    std::map<std::string, Value> vars;
    BufferMap* buffers = nullptr;
  };

  Value Eval(const ExprPtr& expr, Env& env);
  void Exec(const Stmt& stmt, Env& env);

  const Kernel& kernel_;
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 2'000'000'000ULL;
};

}  // namespace s2fa::kir
