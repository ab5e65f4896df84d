#include "kernelc/vm.hpp"

#include <cstring>
#include <limits>

#include "kernelc/diagnostics.hpp"
#include "kernelc/vm_ops.hpp"

namespace skelcl::kc {

int CompiledProgram::findKernel(const std::string& name) const {
  const int idx = findFunction(name);
  if (idx < 0 || !functions[static_cast<std::size_t>(idx)].isKernel) return -1;
  return idx;
}

int CompiledProgram::findFunction(const std::string& name) const {
  if (!functionIndex.empty()) {
    const auto it = functionIndex.find(name);
    return it == functionIndex.end() ? -1 : it->second;
  }
  // Hand-assembled programs (tests) may lack the map; fall back to a scan.
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Vm::Vm(const CompiledProgram& program, std::vector<MemRegion> globalRegions)
    : program_(program), builtins_(builtinTable().data()) {
  regions_.push_back(MemRegion{});  // region 0: null
  for (const auto& r : globalRegions) regions_.push_back(r);
  frameArena_.resize(kFrameArenaBytes);
  if (program_.optimized) {
    slotArena_.resize(kSlotArenaSlots);
  } else {
    stack_.reserve(1024);
  }
}

void Vm::fault(const std::string& message) const {
  faultMessage_ = message;
  std::string where = currentFunction_ >= 0
                          ? program_.functions[static_cast<std::size_t>(currentFunction_)].name
                          : "<none>";
  throw VmError("device fault in '" + where + "' (work-item " +
                std::to_string(globalId_) + "): " + message);
}

void Vm::attributeInlinedFault(const FunctionCode& fn, std::size_t pc) {
  const std::int32_t origin = pc < fn.packedOrigin.size() ? fn.packedOrigin[pc] : -1;
  if (origin < 0) return;
  currentFunction_ = origin;
  fault(faultMessage_);
}

void* Vm::resolve(Ptr p, std::uint32_t bytes) {
  if (p.region <= 0) fault("null pointer dereference");
  if (static_cast<std::size_t>(p.region) >= regions_.size()) {
    fault("dangling pointer (region no longer exists)");
  }
  const MemRegion& region = regions_[static_cast<std::size_t>(p.region)];
  if (static_cast<std::uint64_t>(p.offset) + bytes > region.size) {
    fault("out-of-bounds access at offset " + std::to_string(p.offset) + " + " +
          std::to_string(bytes) + " bytes in a region of " + std::to_string(region.size) +
          " bytes");
  }
  return region.data + p.offset;
}

void Vm::runKernel(int functionIndex, std::span<const Slot> args, std::int64_t globalId,
                   std::int64_t globalSize) {
  const auto& fn = program_.functions.at(static_cast<std::size_t>(functionIndex));
  SKELCL_CHECK(fn.isKernel, "runKernel on a non-kernel function");
  SKELCL_CHECK(args.size() == fn.paramTypes.size(), "kernel argument count mismatch");
  globalId_ = globalId;
  globalSize_ = globalSize;
  frameTop_ = 0;
  // Global regions were installed by the constructor and stay put; frame
  // regions pushed beyond them are popped by the executors themselves.
  if (program_.optimized) {
    slotTop_ = 0;
    executeFast(functionIndex, args);
    return;
  }
  stack_.clear();
  for (const Slot& s : args) stack_.push_back(s);
  executeRef(functionIndex, std::span<const Slot>(stack_.data(), args.size()),
             /*expectResult=*/false);
  stack_.clear();
}

Slot Vm::callFunction(int functionIndex, std::span<const Slot> args) {
  const auto& fn = program_.functions.at(static_cast<std::size_t>(functionIndex));
  SKELCL_CHECK(!fn.isKernel, "callFunction on a kernel");
  SKELCL_CHECK(args.size() == fn.paramTypes.size(), "function argument count mismatch");
  globalId_ = 0;
  globalSize_ = 1;
  frameTop_ = 0;
  if (program_.optimized) {
    slotTop_ = 0;
    return executeFast(functionIndex, args);
  }
  stack_.clear();
  for (const Slot& s : args) stack_.push_back(s);
  executeRef(functionIndex, std::span<const Slot>(stack_.data(), args.size()),
             /*expectResult=*/fn.returnType != types::Void);
  Slot result = fn.returnType != types::Void ? stack_.back() : Slot{};
  stack_.clear();
  return result;
}

// cmpHolds / ptrPlus moved to kernelc/vm_ops.hpp, shared with the batched
// interpreter (vm_batch.cpp).
using detail::cmpHolds;
using detail::ptrPlus;

// ---------------------------------------------------------------------------
// Fast path: three-address register code over a frame's register file.
// ---------------------------------------------------------------------------

Slot Vm::executeFast(int functionIndex, std::span<const Slot> args) {
  static thread_local std::size_t callDepth = 0;
  if (++callDepth > kMaxCallDepth) {
    --callDepth;
    fault("call stack overflow (recursion too deep)");
  }
  struct DepthGuard {
    std::size_t& d;
    ~DepthGuard() { --d; }
  } depthGuard{callDepth};

  const auto& fn = program_.functions[static_cast<std::size_t>(functionIndex)];
  const int savedFunction = currentFunction_;
  currentFunction_ = functionIndex;

  // Register file carved out of the preallocated arena (the reference path
  // heap-allocates its locals): slots zeroed to match vector<Slot>'s value-
  // initialization with the parameters copied in, then the stack registers
  // (always written before they are read), then the constants.
  const std::size_t numRegs = static_cast<std::size_t>(fn.numRegs);
  const std::size_t numSlots = static_cast<std::size_t>(fn.numSlots);
  if (slotTop_ + numRegs > slotArena_.size()) fault("local-slot arena exhausted");
  Slot* const R = slotArena_.data() + slotTop_;
  const std::size_t savedSlotTop = slotTop_;
  slotTop_ += numRegs;
  std::copy(args.begin(), args.end(), R);
  for (std::size_t s = args.size(); s < numSlots; ++s) R[s] = Slot{};
  if (!fn.pool.empty()) {
    std::memcpy(static_cast<void*>(R + (numRegs - fn.pool.size())), fn.pool.data(),
                fn.pool.size() * sizeof(Slot));
  }

  // Frame memory region (for arrays / structs / addressed locals).
  const std::size_t frameRegionId = regions_.size();
  const std::uint64_t savedFrameTop = frameTop_;
  if (fn.frameBytes > 0) {
    const std::uint64_t alignedTop = (frameTop_ + 15) / 16 * 16;
    if (alignedTop + fn.frameBytes > frameArena_.size()) fault("frame arena exhausted");
    std::memset(frameArena_.data() + alignedTop, 0, fn.frameBytes);
    regions_.push_back(MemRegion{frameArena_.data() + alignedTop, fn.frameBytes});
    frameTop_ = alignedTop + fn.frameBytes;
  }
  struct FrameGuard {
    Vm& vm;
    std::size_t regionId;
    std::uint64_t savedFrameTop;
    std::size_t savedSlotTop;
    bool popRegion;
    ~FrameGuard() {
      if (popRegion) {
        vm.regions_.resize(regionId);
        vm.frameTop_ = savedFrameTop;
      }
      vm.slotTop_ = savedSlotTop;
    }
  } frameGuard{*this, frameRegionId, savedFrameTop, savedSlotTop, fn.frameBytes > 0};

  const PackedInsn* const codeBase = fn.packed.data();
  const PackedInsn* ip = codeBase;
  const std::uint64_t budget = instructions_ + kMaxInstructionsPerItem;

  // Infinite-loop protection: the retired counter advances per instruction
  // (weights preserve naive counts), but the budget comparison happens only
  // on back-edges and calls — straight-line code always terminates.
  const auto checkBudget = [&] {
    if (instructions_ > budget) fault("instruction budget exceeded (infinite loop?)");
  };
  const auto jump = [&](std::int32_t target) {
    if (target <= static_cast<std::int32_t>(ip - codeBase - 1)) checkBudget();
    ip = codeBase + target;
  };

  try {
    for (;;) {
      const PackedInsn insn = *ip++;
      instructions_ += insn.weight;
      // Operands are read and written in place: R[insn.a], R[insn.b] and
      // R[insn.k] below (register indices only where the opcode says so).

      switch (insn.op) {
        case Op::Mov: R[insn.k] = R[insn.a]; break;
        case Op::ZeroSlots: std::fill(R + insn.a, R + insn.a + insn.b, Slot{}); break;

        case Op::LeaFrame: {
          Ptr p;
          p.region = static_cast<std::int32_t>(frameRegionId);
          p.offset = static_cast<std::uint32_t>(insn.a);
          R[insn.k] = Slot::fromPtr(p);
          break;
        }

  #define SKELCL_LOAD(OPNAME, CTYPE, BYTES, MAKE)     \
    case Op::OPNAME: {                                \
      const void* addr = resolve(R[insn.a].p, BYTES); \
      CTYPE v;                                        \
      std::memcpy(&v, addr, BYTES);                   \
      R[insn.k] = Slot::MAKE(v);                      \
      break;                                          \
    }
        SKELCL_LOAD(LoadI32, std::int32_t, 4, fromInt)
        SKELCL_LOAD(LoadU32, std::uint32_t, 4, fromInt)
        SKELCL_LOAD(LoadF32, float, 4, fromFloat)
        SKELCL_LOAD(LoadF64, double, 8, fromFloat)
        SKELCL_LOAD(LoadI64, std::int64_t, 8, fromInt)
  #undef SKELCL_LOAD

  #define SKELCL_STORE(OPNAME, CTYPE, BYTES, VALUE) \
    case Op::OPNAME: {                              \
      void* addr = resolve(R[insn.a].p, BYTES);     \
      const CTYPE v = VALUE;                        \
      std::memcpy(addr, &v, BYTES);                 \
      break;                                        \
    }
        SKELCL_STORE(StoreI32, std::int32_t, 4, static_cast<std::int32_t>(R[insn.b].i))
        SKELCL_STORE(StoreI64, std::int64_t, 8, R[insn.b].i)
        SKELCL_STORE(StoreF32, float, 4, static_cast<float>(R[insn.b].f))
        SKELCL_STORE(StoreF64, double, 8, R[insn.b].f)
  #undef SKELCL_STORE

        case Op::MemCopy: {
          const auto bytes = static_cast<std::uint32_t>(insn.k);
          void* d = resolve(R[insn.a].p, bytes);
          const void* s = resolve(R[insn.b].p, bytes);
          std::memmove(d, s, bytes);
          break;
        }
        case Op::PtrAdd:
          R[insn.k] = Slot::fromPtr(ptrPlus(R[insn.a].p, R[insn.b].i, insn.c));
          break;

  #define SKELCL_BIN_I(OPNAME, EXPR)                              \
    case Op::OPNAME: {                                            \
      const std::int64_t x = R[insn.a].i;                         \
      const std::int64_t y = R[insn.b].i;                         \
      (void)x;                                                    \
      (void)y;                                                    \
      R[insn.k] = Slot::fromInt(static_cast<std::int32_t>(EXPR)); \
      break;                                                      \
    }
        SKELCL_BIN_I(AddI, x + y)
        SKELCL_BIN_I(SubI, x - y)
        SKELCL_BIN_I(MulI, x * y)
        SKELCL_BIN_I(AndI, x & y)
        SKELCL_BIN_I(OrI, x | y)
        SKELCL_BIN_I(XorI, x ^ y)
        SKELCL_BIN_I(ShlI, static_cast<std::int64_t>(static_cast<std::uint32_t>(x)
                                                     << (static_cast<std::uint32_t>(y) & 31u)))
        SKELCL_BIN_I(ShrI, static_cast<std::int32_t>(x) >> (static_cast<std::uint32_t>(y) & 31u))
        SKELCL_BIN_I(ShrU, static_cast<std::uint32_t>(x) >> (static_cast<std::uint32_t>(y) & 31u))
  #undef SKELCL_BIN_I

        case Op::DivI:
          if (R[insn.b].i == 0) fault("integer division by zero");
          R[insn.k] = Slot::fromInt(static_cast<std::int32_t>(R[insn.a].i / R[insn.b].i));
          break;
        case Op::RemI:
          if (R[insn.b].i == 0) fault("integer remainder by zero");
          R[insn.k] = Slot::fromInt(static_cast<std::int32_t>(R[insn.a].i % R[insn.b].i));
          break;
        case Op::DivU: {
          const auto y = static_cast<std::uint32_t>(R[insn.b].i);
          if (y == 0) fault("integer division by zero");
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint32_t>(R[insn.a].i) / y));
          break;
        }
        case Op::RemU: {
          const auto y = static_cast<std::uint32_t>(R[insn.b].i);
          if (y == 0) fault("integer remainder by zero");
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint32_t>(R[insn.a].i) % y));
          break;
        }
        case Op::NegI: R[insn.k] = Slot::fromInt(static_cast<std::int32_t>(-R[insn.a].i)); break;
        case Op::NotI: R[insn.k] = Slot::fromInt(static_cast<std::int32_t>(~R[insn.a].i)); break;

  #define SKELCL_BIN_L(OPNAME, EXPR)                              \
    case Op::OPNAME: {                                            \
      const std::int64_t x = R[insn.a].i;                         \
      const std::int64_t y = R[insn.b].i;                         \
      (void)x;                                                    \
      (void)y;                                                    \
      R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(EXPR)); \
      break;                                                      \
    }
        SKELCL_BIN_L(AddL, static_cast<std::uint64_t>(x) + static_cast<std::uint64_t>(y))
        SKELCL_BIN_L(SubL, static_cast<std::uint64_t>(x) - static_cast<std::uint64_t>(y))
        SKELCL_BIN_L(MulL, static_cast<std::uint64_t>(x) * static_cast<std::uint64_t>(y))
        SKELCL_BIN_L(AndL, x & y)
        SKELCL_BIN_L(OrL, x | y)
        SKELCL_BIN_L(XorL, x ^ y)
        SKELCL_BIN_L(ShlL, static_cast<std::uint64_t>(x) << (static_cast<std::uint64_t>(y) & 63u))
        SKELCL_BIN_L(ShrL, x >> (static_cast<std::uint64_t>(y) & 63u))
        SKELCL_BIN_L(ShrUL, static_cast<std::uint64_t>(x) >> (static_cast<std::uint64_t>(y) & 63u))
  #undef SKELCL_BIN_L

        case Op::DivL: {
          const std::int64_t x = R[insn.a].i;
          const std::int64_t y = R[insn.b].i;
          if (y == 0) fault("integer division by zero");
          // wrap, matching 2's-complement overflow
          R[insn.k] = Slot::fromInt(y == -1 && x == std::numeric_limits<std::int64_t>::min() ? x
                                                                                      : x / y);
          break;
        }
        case Op::RemL: {
          const std::int64_t y = R[insn.b].i;
          if (y == 0) fault("integer remainder by zero");
          R[insn.k] = Slot::fromInt(y == -1 ? std::int64_t{0} : R[insn.a].i % y);
          break;
        }
        case Op::DivUL: {
          const auto y = static_cast<std::uint64_t>(R[insn.b].i);
          if (y == 0) fault("integer division by zero");
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint64_t>(R[insn.a].i) / y));
          break;
        }
        case Op::RemUL: {
          const auto y = static_cast<std::uint64_t>(R[insn.b].i);
          if (y == 0) fault("integer remainder by zero");
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint64_t>(R[insn.a].i) % y));
          break;
        }
        case Op::NegL:
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(-static_cast<std::uint64_t>(R[insn.a].i)));
          break;
        case Op::NotL: R[insn.k] = Slot::fromInt(~R[insn.a].i); break;

  #define SKELCL_BIN_F32(OPNAME, OPERATOR)                                                     \
    case Op::OPNAME:                                                                           \
      R[insn.k] = Slot::fromFloat(static_cast<float>(static_cast<float>(R[insn.a].f)           \
                                                   OPERATOR static_cast<float>(R[insn.b].f))); \
      break;
        SKELCL_BIN_F32(AddF32, +)
        SKELCL_BIN_F32(SubF32, -)
        SKELCL_BIN_F32(MulF32, *)
        SKELCL_BIN_F32(DivF32, /)
  #undef SKELCL_BIN_F32

  #define SKELCL_BIN_F64(OPNAME, OPERATOR)                           \
    case Op::OPNAME:                                                 \
      R[insn.k] = Slot::fromFloat(R[insn.a].f OPERATOR R[insn.b].f); \
      break;
        SKELCL_BIN_F64(AddF64, +)
        SKELCL_BIN_F64(SubF64, -)
        SKELCL_BIN_F64(MulF64, *)
        SKELCL_BIN_F64(DivF64, /)
  #undef SKELCL_BIN_F64

        case Op::NegF32: R[insn.k] = Slot::fromFloat(-static_cast<float>(R[insn.a].f)); break;
        case Op::NegF64: R[insn.k] = Slot::fromFloat(-R[insn.a].f); break;

  #define SKELCL_CMP(OPNAME, TYPE, FIELD, OPERATOR)      \
    case Op::OPNAME: {                                   \
      const auto x = static_cast<TYPE>(R[insn.a].FIELD); \
      const auto y = static_cast<TYPE>(R[insn.b].FIELD); \
      R[insn.k] = Slot::fromInt((x OPERATOR y) ? 1 : 0); \
      break;                                             \
    }
        SKELCL_CMP(EqI, std::int64_t, i, ==)
        SKELCL_CMP(NeI, std::int64_t, i, !=)
        SKELCL_CMP(LtI, std::int64_t, i, <)
        SKELCL_CMP(LeI, std::int64_t, i, <=)
        SKELCL_CMP(GtI, std::int64_t, i, >)
        SKELCL_CMP(GeI, std::int64_t, i, >=)
        SKELCL_CMP(LtU, std::uint32_t, i, <)
        SKELCL_CMP(LeU, std::uint32_t, i, <=)
        SKELCL_CMP(GtU, std::uint32_t, i, >)
        SKELCL_CMP(GeU, std::uint32_t, i, >=)
        SKELCL_CMP(LtUL, std::uint64_t, i, <)
        SKELCL_CMP(LeUL, std::uint64_t, i, <=)
        SKELCL_CMP(GtUL, std::uint64_t, i, >)
        SKELCL_CMP(GeUL, std::uint64_t, i, >=)
        SKELCL_CMP(EqF, double, f, ==)
        SKELCL_CMP(NeF, double, f, !=)
        SKELCL_CMP(LtF, double, f, <)
        SKELCL_CMP(LeF, double, f, <=)
        SKELCL_CMP(GtF, double, f, >)
        SKELCL_CMP(GeF, double, f, >=)
  #undef SKELCL_CMP
        case Op::EqP: case Op::NeP:
          R[insn.k] = Slot::fromInt(cmpHolds(insn.op, R[insn.a], R[insn.b]) ? 1 : 0);
          break;
        case Op::LNot: R[insn.k] = Slot::fromInt(R[insn.a].i == 0 ? 1 : 0); break;

        case Op::I2F32:
          R[insn.k] = Slot::fromFloat(static_cast<float>(static_cast<std::int64_t>(R[insn.a].i)));
          break;
        case Op::I2F64: R[insn.k] = Slot::fromFloat(static_cast<double>(R[insn.a].i)); break;
        case Op::U2F32:
          R[insn.k] = Slot::fromFloat(static_cast<float>(static_cast<std::uint32_t>(R[insn.a].i)));
          break;
        case Op::U2F64:
          R[insn.k] = Slot::fromFloat(static_cast<double>(static_cast<std::uint32_t>(R[insn.a].i)));
          break;
        case Op::UL2F32:
          R[insn.k] = Slot::fromFloat(static_cast<float>(static_cast<std::uint64_t>(R[insn.a].i)));
          break;
        case Op::UL2F64:
          R[insn.k] = Slot::fromFloat(static_cast<double>(static_cast<std::uint64_t>(R[insn.a].i)));
          break;
        case Op::F2I: R[insn.k] = Slot::fromInt(static_cast<std::int32_t>(R[insn.a].f)); break;
        case Op::F2L: R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(R[insn.a].f)); break;
        case Op::F2UL:
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint64_t>(R[insn.a].f)));
          break;
        case Op::F2U:
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint32_t>(R[insn.a].f)));
          break;
        case Op::F64toF32: R[insn.k] = Slot::fromFloat(static_cast<float>(R[insn.a].f)); break;
        case Op::I2U:
          R[insn.k] = Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint32_t>(R[insn.a].i)));
          break;
        case Op::U2I:
          R[insn.k] = Slot::fromInt(static_cast<std::int32_t>(static_cast<std::uint32_t>(R[insn.a].i)));
          break;
        case Op::BoolNorm: R[insn.k] = Slot::fromInt(R[insn.a].i != 0 ? 1 : 0); break;

        case Op::Jmp: jump(insn.k); break;
        case Op::Jz:
          if (R[insn.a].i == 0) jump(insn.k);
          break;
        case Op::Jnz:
          if (R[insn.a].i != 0) jump(insn.k);
          break;
        case Op::CmpJz:
          if (!cmpHolds(static_cast<Op>(insn.c), R[insn.a], R[insn.b])) jump(insn.k);
          break;
        case Op::CmpJnz:
          if (cmpHolds(static_cast<Op>(insn.c), R[insn.a], R[insn.b])) jump(insn.k);
          break;

        case Op::CallFn: {
          checkBudget();
          const auto& callee = program_.functions[static_cast<std::size_t>(insn.a)];
          const Slot result =
              executeFast(insn.a, std::span<const Slot>(R + insn.b, callee.paramTypes.size()));
          if (callee.returnType != types::Void) R[insn.k] = result;
          break;
        }
        case Op::CallBuiltin: {
          checkBudget();
          const BuiltinDef& def = builtins_[insn.c];
          const Slot pair[2] = {R[insn.a], R[insn.b]};
          const Slot result = def.fn(*this, def.params.size() <= 2 ? pair : R + insn.a);
          if (def.ret != BType::Void) R[insn.k] = result;
          break;
        }

        case Op::Ret:
          currentFunction_ = savedFunction;
          return R[insn.a];
        case Op::RetVoid:
          currentFunction_ = savedFunction;
          return Slot{};

        case Op::Trap:
          fault("non-void function reached the end without returning a value");

        // Stack-code opcodes never survive the register translation.
        case Op::PushI: case Op::PushF: case Op::LoadSlot: case Op::StoreSlot:
        case Op::Dup: case Op::Drop:
          fault("stack instruction in register code");
      }
    }
  } catch (const VmError&) {
    attributeInlinedFault(fn, static_cast<std::size_t>(ip - codeBase - 1));
    throw;
  }
}

// ---------------------------------------------------------------------------
// Reference path: the original guarded interpreter over the Insn IR, kept
// byte-for-byte as the differential baseline (SKELCL_KC_OPT=0).
// ---------------------------------------------------------------------------

void Vm::executeRef(int functionIndex, std::span<const Slot> args, bool expectResult) {
  static thread_local std::size_t callDepth = 0;
  if (++callDepth > kMaxCallDepth) {
    --callDepth;
    fault("call stack overflow (recursion too deep)");
  }
  struct DepthGuard {
    std::size_t& d;
    ~DepthGuard() { --d; }
  } depthGuard{callDepth};

  const auto& fn = program_.functions[static_cast<std::size_t>(functionIndex)];
  const int savedFunction = currentFunction_;
  currentFunction_ = functionIndex;

  // Locals.
  std::vector<Slot> slots(static_cast<std::size_t>(fn.numSlots));
  std::copy(args.begin(), args.end(), slots.begin());

  // Frame memory region (for arrays / structs / addressed locals).
  const std::size_t frameRegionId = regions_.size();
  const std::uint64_t savedFrameTop = frameTop_;
  if (fn.frameBytes > 0) {
    const std::uint64_t alignedTop = (frameTop_ + 15) / 16 * 16;
    if (alignedTop + fn.frameBytes > frameArena_.size()) fault("frame arena exhausted");
    std::memset(frameArena_.data() + alignedTop, 0, fn.frameBytes);
    regions_.push_back(MemRegion{frameArena_.data() + alignedTop, fn.frameBytes});
    frameTop_ = alignedTop + fn.frameBytes;
  }
  struct FrameGuard {
    Vm& vm;
    std::size_t regionId;
    std::uint64_t savedTop;
    bool active;
    ~FrameGuard() {
      if (active) {
        vm.regions_.resize(regionId);
        vm.frameTop_ = savedTop;
      }
    }
  } frameGuard{*this, frameRegionId, savedFrameTop, fn.frameBytes > 0};

  const std::size_t stackBase = stack_.size();

  auto push = [this](Slot s) {
    if (stack_.size() >= kMaxStack) fault("operand stack overflow");
    stack_.push_back(s);
  };
  auto pop = [this]() {
    Slot s = stack_.back();
    stack_.pop_back();
    return s;
  };

  const Insn* code = fn.code.data();
  std::size_t pc = 0;
  std::uint64_t budget = instructions_ + kMaxInstructionsPerItem;

  for (;;) {
    const Insn& insn = code[pc++];
    if ((instructions_ += insn.weight) > budget) {
      fault("instruction budget exceeded (infinite loop?)");
    }

    switch (insn.op) {
      case Op::PushI: push(Slot::fromInt(insn.imm)); break;
      case Op::PushF: push(Slot::fromFloat(insn.fimm)); break;

      case Op::LoadSlot: push(slots[static_cast<std::size_t>(insn.a)]); break;
      case Op::StoreSlot: slots[static_cast<std::size_t>(insn.a)] = pop(); break;

      case Op::LeaFrame: {
        Ptr p;
        p.region = static_cast<std::int32_t>(frameRegionId);
        p.offset = static_cast<std::uint32_t>(insn.a);
        push(Slot::fromPtr(p));
        break;
      }

      case Op::LoadI32: {
        const void* addr = resolve(pop().p, 4);
        std::int32_t v;
        std::memcpy(&v, addr, 4);
        push(Slot::fromInt(v));
        break;
      }
      case Op::LoadU32: {
        const void* addr = resolve(pop().p, 4);
        std::uint32_t v;
        std::memcpy(&v, addr, 4);
        push(Slot::fromInt(static_cast<std::int64_t>(v)));
        break;
      }
      case Op::LoadF32: {
        const void* addr = resolve(pop().p, 4);
        float v;
        std::memcpy(&v, addr, 4);
        push(Slot::fromFloat(v));
        break;
      }
      case Op::LoadF64: {
        const void* addr = resolve(pop().p, 8);
        double v;
        std::memcpy(&v, addr, 8);
        push(Slot::fromFloat(v));
        break;
      }
      case Op::LoadI64: {
        const void* addr = resolve(pop().p, 8);
        std::int64_t v;
        std::memcpy(&v, addr, 8);
        push(Slot::fromInt(v));
        break;
      }
      case Op::StoreI32: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 4);
        const auto v = static_cast<std::int32_t>(value.i);
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::StoreI64: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 8);
        std::memcpy(addr, &value.i, 8);
        break;
      }
      case Op::StoreF32: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 4);
        const auto v = static_cast<float>(value.f);
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::StoreF64: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 8);
        std::memcpy(addr, &value.f, 8);
        break;
      }
      case Op::MemCopy: {
        const Ptr src = pop().p;
        const Ptr dst = pop().p;
        const auto bytes = static_cast<std::uint32_t>(insn.a);
        void* d = resolve(dst, bytes);
        const void* s = resolve(src, bytes);
        std::memmove(d, s, bytes);
        break;
      }
      case Op::PtrAdd: {
        const std::int64_t index = pop().i;
        Ptr p = pop().p;
        p.offset = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(p.offset) + index * insn.a);
        push(Slot::fromPtr(p));
        break;
      }

#define SKELCL_BIN_I(OPNAME, EXPR)                                         \
  case Op::OPNAME: {                                                       \
    const std::int64_t b = pop().i;                                        \
    const std::int64_t a = pop().i;                                        \
    (void)a;                                                               \
    (void)b;                                                               \
    push(Slot::fromInt(static_cast<std::int32_t>(EXPR)));                  \
    break;                                                                 \
  }
      SKELCL_BIN_I(AddI, a + b)
      SKELCL_BIN_I(SubI, a - b)
      SKELCL_BIN_I(MulI, a * b)
      SKELCL_BIN_I(AndI, a & b)
      SKELCL_BIN_I(OrI, a | b)
      SKELCL_BIN_I(XorI, a ^ b)
      SKELCL_BIN_I(ShlI, static_cast<std::int64_t>(static_cast<std::uint32_t>(a)
                                                   << (static_cast<std::uint32_t>(b) & 31u)))
      SKELCL_BIN_I(ShrI, static_cast<std::int32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
      SKELCL_BIN_I(ShrU, static_cast<std::uint32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
#undef SKELCL_BIN_I

      case Op::DivI: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer division by zero");
        push(Slot::fromInt(static_cast<std::int32_t>(a / b)));
        break;
      }
      case Op::RemI: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer remainder by zero");
        push(Slot::fromInt(static_cast<std::int32_t>(a % b)));
        break;
      }
      case Op::DivU: {
        const auto b = static_cast<std::uint32_t>(pop().i);
        const auto a = static_cast<std::uint32_t>(pop().i);
        if (b == 0) fault("integer division by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a / b)));
        break;
      }
      case Op::RemU: {
        const auto b = static_cast<std::uint32_t>(pop().i);
        const auto a = static_cast<std::uint32_t>(pop().i);
        if (b == 0) fault("integer remainder by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a % b)));
        break;
      }
      case Op::NegI:
        stack_.back().i = static_cast<std::int32_t>(-stack_.back().i);
        break;
      case Op::NotI:
        stack_.back().i = static_cast<std::int32_t>(~stack_.back().i);
        break;

#define SKELCL_BIN_L(OPNAME, EXPR)                                         \
  case Op::OPNAME: {                                                       \
    const std::int64_t b = pop().i;                                        \
    const std::int64_t a = pop().i;                                        \
    (void)a;                                                               \
    (void)b;                                                               \
    push(Slot::fromInt(static_cast<std::int64_t>(EXPR)));                  \
    break;                                                                 \
  }
      SKELCL_BIN_L(AddL, static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b))
      SKELCL_BIN_L(SubL, static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b))
      SKELCL_BIN_L(MulL, static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b))
      SKELCL_BIN_L(AndL, a & b)
      SKELCL_BIN_L(OrL, a | b)
      SKELCL_BIN_L(XorL, a ^ b)
      SKELCL_BIN_L(ShlL, static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63u))
      SKELCL_BIN_L(ShrL, a >> (static_cast<std::uint64_t>(b) & 63u))
      SKELCL_BIN_L(ShrUL, static_cast<std::uint64_t>(a) >> (static_cast<std::uint64_t>(b) & 63u))
#undef SKELCL_BIN_L

      case Op::DivL: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer division by zero");
        if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
          push(Slot::fromInt(a));  // wrap, matching 2's-complement overflow
        } else {
          push(Slot::fromInt(a / b));
        }
        break;
      }
      case Op::RemL: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer remainder by zero");
        if (b == -1) {
          push(Slot::fromInt(std::int64_t{0}));
        } else {
          push(Slot::fromInt(a % b));
        }
        break;
      }
      case Op::DivUL: {
        const auto b = static_cast<std::uint64_t>(pop().i);
        const auto a = static_cast<std::uint64_t>(pop().i);
        if (b == 0) fault("integer division by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a / b)));
        break;
      }
      case Op::RemUL: {
        const auto b = static_cast<std::uint64_t>(pop().i);
        const auto a = static_cast<std::uint64_t>(pop().i);
        if (b == 0) fault("integer remainder by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a % b)));
        break;
      }
      case Op::NegL:
        stack_.back().i =
            static_cast<std::int64_t>(-static_cast<std::uint64_t>(stack_.back().i));
        break;
      case Op::NotL:
        stack_.back().i = ~stack_.back().i;
        break;

#define SKELCL_BIN_F32(OPNAME, OPERATOR)                                            \
  case Op::OPNAME: {                                                                \
    const double b = pop().f;                                                       \
    const double a = pop().f;                                                       \
    push(Slot::fromFloat(static_cast<float>(static_cast<float>(a)                   \
                                                OPERATOR static_cast<float>(b))));  \
    break;                                                                          \
  }
      SKELCL_BIN_F32(AddF32, +)
      SKELCL_BIN_F32(SubF32, -)
      SKELCL_BIN_F32(MulF32, *)
      SKELCL_BIN_F32(DivF32, /)
#undef SKELCL_BIN_F32

#define SKELCL_BIN_F64(OPNAME, OPERATOR)       \
  case Op::OPNAME: {                           \
    const double b = pop().f;                  \
    const double a = pop().f;                  \
    push(Slot::fromFloat(a OPERATOR b));       \
    break;                                     \
  }
      SKELCL_BIN_F64(AddF64, +)
      SKELCL_BIN_F64(SubF64, -)
      SKELCL_BIN_F64(MulF64, *)
      SKELCL_BIN_F64(DivF64, /)
#undef SKELCL_BIN_F64

      case Op::NegF32:
        stack_.back().f = -static_cast<float>(stack_.back().f);
        break;
      case Op::NegF64:
        stack_.back().f = -stack_.back().f;
        break;

#define SKELCL_CMP(OPNAME, TYPE, FIELD, OPERATOR)                  \
  case Op::OPNAME: {                                               \
    const auto b = static_cast<TYPE>(pop().FIELD);                 \
    const auto a = static_cast<TYPE>(pop().FIELD);                 \
    push(Slot::fromInt((a OPERATOR b) ? 1 : 0));                   \
    break;                                                         \
  }
      SKELCL_CMP(EqI, std::int64_t, i, ==)
      SKELCL_CMP(NeI, std::int64_t, i, !=)
      SKELCL_CMP(LtI, std::int64_t, i, <)
      SKELCL_CMP(LeI, std::int64_t, i, <=)
      SKELCL_CMP(GtI, std::int64_t, i, >)
      SKELCL_CMP(GeI, std::int64_t, i, >=)
      SKELCL_CMP(LtU, std::uint32_t, i, <)
      SKELCL_CMP(LeU, std::uint32_t, i, <=)
      SKELCL_CMP(GtU, std::uint32_t, i, >)
      SKELCL_CMP(GeU, std::uint32_t, i, >=)
      SKELCL_CMP(LtUL, std::uint64_t, i, <)
      SKELCL_CMP(LeUL, std::uint64_t, i, <=)
      SKELCL_CMP(GtUL, std::uint64_t, i, >)
      SKELCL_CMP(GeUL, std::uint64_t, i, >=)
      SKELCL_CMP(EqF, double, f, ==)
      SKELCL_CMP(NeF, double, f, !=)
      SKELCL_CMP(LtF, double, f, <)
      SKELCL_CMP(LeF, double, f, <=)
      SKELCL_CMP(GtF, double, f, >)
      SKELCL_CMP(GeF, double, f, >=)
#undef SKELCL_CMP

      case Op::EqP: {
        const Ptr b = pop().p;
        const Ptr a = pop().p;
        push(Slot::fromInt((a.region == b.region && a.offset == b.offset) ? 1 : 0));
        break;
      }
      case Op::NeP: {
        const Ptr b = pop().p;
        const Ptr a = pop().p;
        push(Slot::fromInt((a.region != b.region || a.offset != b.offset) ? 1 : 0));
        break;
      }
      case Op::LNot:
        stack_.back().i = stack_.back().i == 0 ? 1 : 0;
        break;

      case Op::I2F32:
        stack_.back() = Slot::fromFloat(
            static_cast<float>(static_cast<std::int64_t>(stack_.back().i)));
        break;
      case Op::I2F64:
        stack_.back() = Slot::fromFloat(static_cast<double>(stack_.back().i));
        break;
      case Op::U2F32:
        stack_.back() = Slot::fromFloat(
            static_cast<float>(static_cast<std::uint32_t>(stack_.back().i)));
        break;
      case Op::U2F64:
        stack_.back() = Slot::fromFloat(
            static_cast<double>(static_cast<std::uint32_t>(stack_.back().i)));
        break;
      case Op::UL2F32:
        stack_.back() = Slot::fromFloat(
            static_cast<float>(static_cast<std::uint64_t>(stack_.back().i)));
        break;
      case Op::UL2F64:
        stack_.back() = Slot::fromFloat(
            static_cast<double>(static_cast<std::uint64_t>(stack_.back().i)));
        break;
      case Op::F2I: {
        const double v = stack_.back().f;
        stack_.back() = Slot::fromInt(static_cast<std::int32_t>(v));
        break;
      }
      case Op::F2L: {
        const double v = stack_.back().f;
        stack_.back() = Slot::fromInt(static_cast<std::int64_t>(v));
        break;
      }
      case Op::F2UL: {
        const double v = stack_.back().f;
        stack_.back() =
            Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint64_t>(v)));
        break;
      }
      case Op::F2U: {
        const double v = stack_.back().f;
        stack_.back() =
            Slot::fromInt(static_cast<std::int64_t>(static_cast<std::uint32_t>(v)));
        break;
      }
      case Op::F64toF32:
        stack_.back().f = static_cast<float>(stack_.back().f);
        break;
      case Op::I2U:
        stack_.back().i = static_cast<std::int64_t>(static_cast<std::uint32_t>(stack_.back().i));
        break;
      case Op::U2I:
        stack_.back().i = static_cast<std::int32_t>(static_cast<std::uint32_t>(stack_.back().i));
        break;
      case Op::BoolNorm:
        stack_.back().i = stack_.back().i != 0 ? 1 : 0;
        break;

      case Op::Jmp:
        pc = static_cast<std::size_t>(insn.a);
        break;
      case Op::Jz:
        if (pop().i == 0) pc = static_cast<std::size_t>(insn.a);
        break;
      case Op::Jnz:
        if (pop().i != 0) pc = static_cast<std::size_t>(insn.a);
        break;

      case Op::CallFn: {
        const auto& callee = program_.functions[static_cast<std::size_t>(insn.a)];
        const std::size_t argc = callee.paramTypes.size();
        const std::span<const Slot> callArgs(stack_.data() + stack_.size() - argc, argc);
        // The callee pushes its result (if any) above the args; we then move
        // it down over the consumed arguments.
        executeRef(insn.a, callArgs, callee.returnType != types::Void);
        if (callee.returnType != types::Void) {
          const Slot result = stack_.back();
          stack_.resize(stack_.size() - 1 - argc);
          stack_.push_back(result);
        } else {
          stack_.resize(stack_.size() - argc);
        }
        break;
      }
      case Op::CallBuiltin: {
        const BuiltinDef& def = builtins_[insn.a];
        const std::size_t argc = static_cast<std::size_t>(insn.b);
        Slot argv[8];
        for (std::size_t i = 0; i < argc; ++i) {
          argv[argc - 1 - i] = pop();
        }
        const Slot result = def.fn(*this, argv);
        if (def.ret != BType::Void) push(result);
        break;
      }

      case Op::Ret: {
        const Slot result = pop();
        stack_.resize(stackBase);
        if (expectResult) stack_.push_back(result);
        currentFunction_ = savedFunction;
        return;
      }
      case Op::RetVoid:
        stack_.resize(stackBase);
        currentFunction_ = savedFunction;
        return;

      case Op::Dup:
        push(stack_.back());
        break;
      case Op::Drop:
        stack_.pop_back();
        break;

      case Op::Trap:
        fault("non-void function reached the end without returning a value");
        break;

      // The reference interpreter runs the naive pipeline only; optimized
      // programs always dispatch through executeFast.
      case Op::ZeroSlots: case Op::Mov: case Op::CmpJz: case Op::CmpJnz:
        fault("optimized-pipeline instruction reached the reference interpreter");
        break;
    }
  }
}

}  // namespace skelcl::kc
