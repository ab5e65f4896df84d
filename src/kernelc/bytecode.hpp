// Bytecode: the compiler's stack-machine IR (Insn), run by the reference
// interpreter, and the three-address register encoding (PackedInsn) the
// optimized pipeline translates it into (encode.cpp, docs/VM.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernelc/types.hpp"

namespace skelcl::kc {

enum class Op : std::uint8_t {
  // constants
  PushI,   // push imm (int64)
  PushF,   // push fimm (double; already float-rounded for f32 literals)

  // locals (a = slot index)
  LoadSlot,
  StoreSlot,

  // frame memory (a = byte offset within the current frame's memory region)
  LeaFrame,  // push pointer to frame memory + a

  // memory access (pointer operand(s) on the stack)
  LoadI32, LoadU32, LoadF32, LoadF64,      // pop ptr, push value
  LoadI64,                                 // pop ptr, push 64-bit integer
  StoreI32, StoreF32, StoreF64,            // pop value, pop ptr
  StoreI64,                                // pop 64-bit value, pop ptr
  MemCopy,                                 // a = bytes; pop src, pop dst
  PtrAdd,                                  // a = element size; pop index, pop ptr

  // integer arithmetic (32-bit semantics, wrap-around)
  AddI, SubI, MulI, DivI, RemI, NegI,
  DivU, RemU,
  AndI, OrI, XorI, ShlI, ShrI, ShrU, NotI,

  // 64-bit integer arithmetic (long/ulong; slots hold full 64 bits)
  AddL, SubL, MulL, DivL, RemL, NegL,
  DivUL, RemUL,
  AndL, OrL, XorL, ShlL, ShrL, ShrUL, NotL,

  // floating arithmetic
  AddF32, SubF32, MulF32, DivF32, NegF32,
  AddF64, SubF64, MulF64, DivF64, NegF64,

  // comparisons (push int 0/1)
  EqI, NeI, LtI, LeI, GtI, GeI,
  LtU, LeU, GtU, GeU,
  LtUL, LeUL, GtUL, GeUL,  // unsigned 64-bit (ulong); Eq/Ne/signed reuse EqI..GeI
  EqF, NeF, LtF, LeF, GtF, GeF,
  EqP, NeP,
  LNot,

  // conversions
  I2F32, I2F64, U2F32, U2F64,
  UL2F32, UL2F64,  // full 64-bit unsigned -> float/double (long reuses I2F*)
  F2I,   // double slot -> int32 (truncation)
  F2U,   // double slot -> uint32
  F2L,   // double slot -> int64 (truncation)
  F2UL,  // double slot -> uint64
  F64toF32,  // round slot to float precision
  I2U, U2I,  // re-normalize 32-bit views
  BoolNorm,  // nonzero -> 1

  // control flow (a = target instruction index)
  Jmp, Jz, Jnz,

  // calls
  CallFn,       // a = function index (args on stack, left to right)
  CallBuiltin,  // a = builtin id, b = argc
  Ret,          // pop return value
  RetVoid,

  // stack
  Dup, Drop,

  // diagnostics
  Trap,  // a = trap message index (e.g. missing return)

  // Inliner bookkeeping (inline.cpp): a = first slot, b = count; every slot
  // in [a, a+b) becomes zero.  Value-initializes an inlined callee's locals.
  ZeroSlots,

  // -------------------------------------------------------------------------
  // Register form only (encode.cpp), never emitted by the compiler proper.
  // -------------------------------------------------------------------------
  Mov,     // R[k] = R[a]
  CmpJz,   // c = comparison Op; branch to k unless R[a] <cmp> R[b]
  CmpJnz,  // branch to k if R[a] <cmp> R[b]
};

/// Number of opcodes (for tables / exhaustiveness tests).
inline constexpr int kOpCount = static_cast<int>(Op::CmpJnz) + 1;

const char* opName(Op op);

/// Compiler IR instruction: roomy, easy to pattern-match and disassemble.
/// `weight` is the number of source (naive) instructions this one retires:
/// 1 for everything the compiler emits, 0 for the bookkeeping the inliner
/// adds.
struct Insn {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int64_t imm = 0;
  double fimm = 0.0;
  std::uint8_t weight = 1;
  /// Index of the function this instruction was inlined from (inline.cpp),
  /// or -1 for the function's own code.  Read only to name the function in
  /// a fault message.
  std::int32_t origin = -1;
};

/// Execution encoding: 16-byte three-address register code.  Every operand
/// is a register of the frame's register file (slots, then one register per
/// operand-stack height, then the constant pool).  `k` is the destination
/// register (or the branch target / byte count of ops without one), `a` and
/// `b` the source registers; `c` carries small payloads (element size,
/// builtin id, a fused comparison).
/// `weight` is the sum of the naive instructions the translation folded in.
struct PackedInsn {
  Op op;
  std::uint8_t weight;
  std::uint16_t c;
  std::int32_t a;
  std::int32_t b;
  std::int32_t k;
};
static_assert(sizeof(PackedInsn) == 16, "dispatch encoding must stay 16 bytes");

/// One compiled function, ready for execution.
struct FunctionCode {
  std::string name;
  bool isKernel = false;
  TypeId returnType = types::Void;
  std::vector<TypeId> paramTypes;
  int numSlots = 0;           ///< params occupy slots [0, paramTypes.size())
  std::uint32_t frameBytes = 0;  ///< local arrays / addressed locals / structs
  std::vector<Insn> code;

  // Filled by the encoder (kernelc/encode.cpp) for the optimized pipeline.
  int maxStack = 0;  ///< operand-stack registers: worst-case stack height
  int numRegs = 0;   ///< register file: numSlots + maxStack + pool.size()
  std::vector<PackedInsn> packed;   ///< register-form translation of `code`
  /// Constant registers [numRegs - pool.size(), numRegs): their values,
  /// written at frame entry, and whether each one is a float (for dumps).
  std::vector<std::uint64_t> pool;
  std::vector<bool> poolIsFloat;
  /// Insn::origin of each packed instruction; read on the fault path only.
  std::vector<std::int32_t> packedOrigin;
  /// Operand-stack height at each packed branch (0 elsewhere): the batched
  /// interpreter permutes registers [0, numSlots + height) when lanes
  /// diverge there.
  std::vector<std::int32_t> branchHeight;
  /// True when the kernel can run on the work-group-batched interpreter
  /// (Vm::runKernelBatch): no calls into other functions (inline.cpp removes
  /// the calls to small user functions first), no frame memory,
  /// and no builtins whose cross-item ordering is observable (atomics,
  /// barrier).  Computed by the encoder.
  bool batchable = false;
};

}  // namespace skelcl::kc
