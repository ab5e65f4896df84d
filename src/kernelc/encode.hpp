// Final lowering of compiled functions for the optimized pipeline: translates
// the stack-machine Insn IR into three-address register code (PackedInsn).
// Each operand-stack height gets a fixed register, and inside a basic block
// slot loads and constant pushes fold into the instructions that consume
// them, while a slot store folds into the instruction that produced the
// stored value (docs/VM.md).  Retired-instruction counts are unchanged: a
// folded instruction's weight rides on an instruction of the same block.
#pragma once

#include <vector>

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

/// Finalize every function in `fns` (register file layout, packed code,
/// batchable flag).  Call-stack deltas of CallFn instructions are resolved
/// against `fns` itself, so the whole program must be compiled first.
void finalizeFunctions(std::vector<FunctionCode>& fns);

/// Operand-stack height before each instruction of `fn.code` (-1 where
/// unreachable).  Throws if control flow reaches a pc with two different
/// heights, underflows, or runs off the end.  CallFn effects are resolved
/// against `fns`.
std::vector<int> computeStackHeights(const FunctionCode& fn,
                                     const std::vector<FunctionCode>& fns);

}  // namespace skelcl::kc
