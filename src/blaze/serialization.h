// The data-processing method generator (paper §3.2, Challenge 3).
//
// From a compiled kernel's interface (flat buffers with source-field
// provenance) it derives a SerializationPlan: which dataset column feeds
// which accelerator buffer and how records map to per-task regions. It
// also renders the equivalent Scala helper the real S2FA would generate
// (a template instantiated with reflection-driven field accessors) — kept
// as a documentation artifact and exercised by examples.
//
// SerializeBatch / DeserializeBatch move records between typed columns
// and the evaluator's typed device buffers (kir::DeviceBuffers, bound by
// buffer slot): one block copy per interface buffer and batch, with a
// per-element cast only where a column's storage class differs from the
// buffer's (a double column feeding a float buffer). The kir::BufferMap
// forms are thin adapters over the typed ones, boxing each element, for
// callers at the JVM boundary (reference-evaluator tests, layer probes).
#pragma once

#include <string>
#include <vector>

#include "blaze/dataset.h"
#include "kir/eval.h"
#include "kir/kernel.h"

namespace s2fa::blaze {

struct PlanEntry {
  std::string buffer;        // kernel buffer name (in_1, out_2, ...)
  std::size_t slot = 0;      // its index in Kernel::buffers
  std::string source_field;  // dataset column field ("_1", "ret", ...)
  jvm::Type element;
  std::int64_t per_task = 1;
  bool is_input = true;
  // Reduce outputs carry one value per invocation instead of per task.
  bool per_invocation = false;
  // Broadcast inputs are shared by every task of an invocation and come
  // from a separate one-record broadcast dataset.
  bool broadcast = false;
};

struct SerializationPlan {
  std::string kernel_name;
  std::int64_t batch = 0;  // tasks per accelerator invocation
  std::size_t num_buffers = 0;  // the kernel's buffers, locals included
  std::vector<PlanEntry> entries;

  const PlanEntry* FindBuffer(const std::string& buffer) const;
};

// Builds the plan from the kernel's interface buffers. The buffer's
// source_field strings ("in._1" / "ret._1") are parsed into column names.
SerializationPlan MakeSerializationPlan(const kir::Kernel& kernel);

// Packs records [first_record, first_record + count) of `dataset` into the
// kernel's input device buffers (`buffers` is sized to the plan's buffer
// count; output and local slots are left for Evaluator::Run to reset).
// Short final batches are zero-padded to the batch size (the accelerator
// always processes a full batch). `broadcast` must be a one-record dataset
// providing every broadcast field the plan names (may be null when the plan
// has none).
void SerializeBatch(const SerializationPlan& plan, const Dataset& dataset,
                    std::size_t first_record, std::size_t count,
                    kir::DeviceBuffers& buffers,
                    const Dataset* broadcast = nullptr);
// The same into named buffers: the input entries of `buffers` are replaced.
void SerializeBatch(const SerializationPlan& plan, const Dataset& dataset,
                    std::size_t first_record, std::size_t count,
                    kir::BufferMap& buffers,
                    const Dataset* broadcast = nullptr);

// Unpacks output buffers into `out` columns at the same record range; the
// columns must exist and be pre-sized.
void DeserializeBatch(const SerializationPlan& plan,
                      const kir::DeviceBuffers& buffers,
                      std::size_t first_record, std::size_t count,
                      Dataset& out);
void DeserializeBatch(const SerializationPlan& plan,
                      const kir::BufferMap& buffers,
                      std::size_t first_record, std::size_t count,
                      Dataset& out);

// Creates an output dataset shell (right columns, default-filled) for
// `num_records` results of this plan.
Dataset MakeOutputShell(const SerializationPlan& plan,
                        std::size_t num_records);

// Renders the generated Scala (de)serialization methods (template +
// reflection form, as in the paper's method generator).
std::string RenderScalaHelper(const SerializationPlan& plan);

}  // namespace s2fa::blaze
