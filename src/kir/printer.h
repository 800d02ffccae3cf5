// HLS C source emission.
//
// Renders a Kernel as a complete, self-contained C file in the shape of the
// paper's Code 3: a `<name>_call` worker function is conceptually inlined
// into a `<name>_kernel` top function whose outermost loop is the RDD
// transformation template. The typed Merlin pragmas attached to loops are
// printed as `#pragma ACCEL ...` lines.
#pragma once

#include <string>

#include "kir/kernel.h"

namespace s2fa::kir {

struct CEmitOptions {
  bool emit_prelude = true;      // #include <math.h>, MIN/MAX macros
  bool emit_comments = true;     // loop ids, buffer provenance
};

// Emits the whole kernel as HLS C.
std::string EmitC(const Kernel& kernel, const CEmitOptions& options = {});

// Emits just one expression / statement in C syntax (used by tests).
std::string EmitExprC(const ExprPtr& expr);
std::string EmitStmtC(const StmtPtr& stmt, int indent = 0);

// C spelling of a primitive type (byte -> "char", boolean -> "char", ...).
std::string CTypeName(const Type& type);

}  // namespace s2fa::kir
