// Inlining pass of the optimized pipeline: dissolves calls to small user
// functions into their callers, as an OpenCL compiler does with the user
// function SkelCL merges into each skeleton kernel (docs/VM.md).
//
// Runs on the naive Insn IR, after the compiler and before the register
// translation (encode.cpp), which then folds across the old call boundary.
// Retired-instruction counts are unchanged: the call's weight moves to the
// last argument's store, each return becomes a Jmp carrying the return's
// weight, and all other bookkeeping (the other argument stores, one
// ZeroSlots of the callee's locals) has weight 0.
#pragma once

#include <vector>

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

/// Inline, bottom-up over the call graph, every CallFn whose callee is a
/// non-kernel function that — once its own calls are inlined — makes no
/// calls, uses no frame memory, and returns with exactly its result (or
/// nothing) on the operand stack.  Recursive functions are never call-free,
/// so they stay calls.  Every function stays in `fns`: host code may still
/// call an inlined callee directly.
void inlineCalls(std::vector<FunctionCode>& fns);

}  // namespace skelcl::kc
