// Top-level compile pipeline: source string -> CompiledProgram.
#pragma once

#include <memory>
#include <string>

#include "kernelc/vm.hpp"

namespace skelcl::kc {

/// Pipeline selection for compileProgram (the two pipelines of docs/VM.md).
struct CompileOptions {
  /// false — reference: naive Insn stream on the guarded reference
  ///         interpreter.  The differential-testing oracle.
  /// true  — optimized: inlined user functions translated to three-address
  ///         register code (16-byte PackedInsn), run on the work-group-batched
  ///         interpreter where FunctionCode::batchable allows and on the
  ///         fast interpreter otherwise.
  /// Both produce bit-identical outputs and identical retired-instruction
  /// counts; the optimized pipeline only runs faster.
  bool optimize = true;
};

/// The process-wide default, from the environment: SKELCL_KC_OPT=0 selects
/// the reference pipeline; anything else (including unset) the optimized one.
CompileOptions defaultCompileOptions();

/// Compile a kernel-language translation unit.  Throws CompileError with the
/// full list of diagnostics on failure.  The returned program is immutable
/// and safe to share across threads (each thread runs its own Vm).
std::shared_ptr<const CompiledProgram> compileProgram(const std::string& source);

/// As above with explicit pipeline selection (ignores SKELCL_KC_OPT).
std::shared_ptr<const CompiledProgram> compileProgram(const std::string& source,
                                                      const CompileOptions& options);

}  // namespace skelcl::kc
