// The bytecode virtual machine: executes one work-item (or one host-side
// function call) at a time.  All loads and stores are bounds-checked — unlike
// real OpenCL, which the paper notes "performs no boundary checks" — and the
// executed-instruction count feeds the device cost model in sim::System.
//
// Three interpreter paths share this class (docs/VM.md):
//  - the *fast* path runs optimized programs' 16-byte three-address register
//    code (PackedInsn) on a register file carved from a preallocated arena,
//    with infinite-loop budget checks on back-edges and calls only;
//  - the *batched* path (runKernelBatch, vm_batch.cpp) runs the same code
//    over a whole work-group per opcode decode;
//  - the *reference* path (SKELCL_KC_OPT=0) interprets the 32-byte stack
//    Insn IR with per-push guards and per-call heap-allocated locals,
//    exactly as the original interpreter did.
// All retire identical instruction counts (each register instruction
// carries the weight of the stack instructions folded into it) and produce
// bit-identical data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernelc/builtins.hpp"
#include "kernelc/bytecode.hpp"
#include "kernelc/value.hpp"

namespace skelcl::kc {

/// A non-owning view of one memory region the VM may address.
struct MemRegion {
  std::byte* data = nullptr;
  std::uint64_t size = 0;
};

/// A compiled program (functions + the type table their bytecode references).
struct CompiledProgram {
  std::vector<FunctionCode> functions;
  std::uint64_t complexity = 0;  ///< token count; drives the compile-cost model
  std::string source;
  /// True when the optimized pipeline ran (inlining + register code); the
  /// VM picks its interpreter path from this, and the device queue runs
  /// optimized programs work-group-batched.
  bool optimized = false;
  /// name -> index over `functions`, built once at compile time (names are
  /// unique; sema rejects redefinitions).  Empty for hand-assembled programs.
  std::unordered_map<std::string, int> functionIndex;

  /// Index of the kernel with the given name, or -1.
  int findKernel(const std::string& name) const;
  /// Index of any function with the given name, or -1.
  int findFunction(const std::string& name) const;
};

class Vm final : public BuiltinCtx {
 public:
  /// `globalRegions[i]` backs pointer region id `i + 1` (region 0 is null).
  Vm(const CompiledProgram& program, std::vector<MemRegion> globalRegions);

  /// Execute one work-item of a kernel.  `args` are the kernel arguments:
  /// buffer arguments as Ptr slots referring to global regions, scalars by
  /// value.
  void runKernel(int functionIndex, std::span<const Slot> args, std::int64_t globalId,
                 std::int64_t globalSize);

  /// Execute `count` consecutive work-items [gidBase, gidBase + count) of a
  /// kernel in work-group-batched mode: the dispatch loop is inverted so one
  /// opcode decode is amortized over every live work-item ("lane"), operating
  /// on a lane-strided slot arena.  Divergent control flow splits the group
  /// into lane subsets; there is no reconvergence, but straight-line and
  /// uniformly-looping bodies stay dense.  Falls back to per-item runKernel
  /// when the function is not batchable (FunctionCode::batchable) or the
  /// program is not optimized.  Outputs and retired-instruction counts are
  /// bit-identical to `count` sequential runKernel calls; only the order in
  /// which work-items touch memory changes (which batchability guarantees is
  /// unobservable).  `count` is capped at kBatchLanes per call.
  void runKernelBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                      std::int64_t count, std::int64_t globalSize);

  /// Maximum lanes per runKernelBatch call (one simulated work-group).
  static constexpr std::int64_t kBatchLanes = 256;

  /// Call a (non-kernel) function, e.g. for host-side folding in the reduce
  /// skeleton.  Returns its value.
  Slot callFunction(int functionIndex, std::span<const Slot> args);

  /// Executed-instruction counter (accumulates across runs; reset manually).
  /// Register instructions count as the number of stack instructions they
  /// retire, so this is identical between the fast and reference paths.
  std::uint64_t instructionsExecuted() const { return instructions_; }
  void resetInstructionCount() { instructions_ = 0; }

  // BuiltinCtx
  std::int64_t globalId() const override { return globalId_; }
  std::int64_t globalSize() const override { return globalSize_; }
  void* resolve(Ptr p, std::uint32_t bytes) override;

  /// Per-invocation instruction budget; exceeded -> VmError ("infinite loop").
  static constexpr std::uint64_t kMaxInstructionsPerItem = 1ull << 30;

 private:
  void executeRef(int functionIndex, std::span<const Slot> args, bool expectResult);
  /// Run one frame of register code; returns its result (Slot{} if void).
  Slot executeFast(int functionIndex, std::span<const Slot> args);
  void executeBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                    std::int64_t count);

  [[noreturn]] void fault(const std::string& message) const;
  /// On the fault path of the packed interpreters: if instruction `pc` of
  /// `fn` was inlined from another function, re-raise the fault under that
  /// function's name (as the call would have reported it); else return.
  void attributeInlinedFault(const FunctionCode& fn, std::size_t pc);

  const CompiledProgram& program_;
  const BuiltinDef* const builtins_;  ///< builtinTable(), read once
  std::vector<MemRegion> regions_;  ///< [0] reserved null; then global args; then frames

  // reference path: growable operand stack with per-push guards
  std::vector<Slot> stack_;

  // fast path: register files carved from one arena, replacing per-call
  // heap-allocated locals and the operand stack
  std::vector<Slot> slotArena_;
  std::size_t slotTop_ = 0;

  // frame memory (local arrays / structs / addressed locals), both paths
  std::vector<std::byte> frameArena_;
  std::uint64_t frameTop_ = 0;

  // batched path: lane-strided register columns, allocated on first
  // runKernelBatch use.  Register r of lane l lives at batchRegs_[r*n + l]
  // (n = lanes this batch).
  std::vector<Slot> batchRegs_;

  std::int64_t globalId_ = 0;
  std::int64_t globalSize_ = 1;
  std::uint64_t instructions_ = 0;
  int currentFunction_ = -1;
  mutable std::string faultMessage_;  ///< detail of the last fault raised

  static constexpr std::size_t kMaxStack = 1 << 16;
  static constexpr std::size_t kMaxCallDepth = 200;
  static constexpr std::size_t kFrameArenaBytes = 1 << 20;
  /// A register file holds a frame's slots and its operand stack, so the
  /// arena has room for 2^15 slots plus kMaxStack (the reference path's
  /// operand-stack limit).
  static constexpr std::size_t kSlotArenaSlots = (1 << 15) + kMaxStack;
};

}  // namespace skelcl::kc
