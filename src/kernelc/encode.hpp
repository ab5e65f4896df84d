// Final lowering of compiled functions for the optimized pipeline:
//  - computes each function's worst-case operand-stack growth (`maxStack`),
//    letting the VM hoist per-push overflow guards to one check at entry;
//  - packs the 32-byte Insn IR into the 16-byte PackedInsn dispatch encoding,
//    moving cold 64-bit immediates into a per-function constant pool.
#pragma once

#include <vector>

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

/// Finalize every function in `fns` (maxStack + packed encoding).  Call-stack
/// deltas of CallFn instructions are resolved against `fns` itself, so the
/// whole program must be compiled first.
void finalizeFunctions(std::vector<FunctionCode>& fns);

/// Operand-stack height before each instruction of `fn.code` (-1 where
/// unreachable).  Throws if control flow reaches a pc with two different
/// heights, underflows, or runs off the end.  CallFn effects are resolved
/// against `fns`.
std::vector<int> computeStackHeights(const FunctionCode& fn,
                                     const std::vector<FunctionCode>& fns);

}  // namespace skelcl::kc
