// Work-group-batched execution (docs/VM.md): the dispatch loop is
// inverted — one opcode decode drives every live work-item ("lane") of a
// group through the operation before moving to the next instruction, over
// lane-strided register columns.  Straight-line and uniformly-looping
// bodies run as tight, auto-vectorizable inner loops; divergent branches
// split the group into lane subsets (no reconvergence).
//
// Two representation choices make the inner loops vectorize:
//
//  * Typed column views.  GCC assigns no vector type to accesses through the
//    Slot union, so every hot loop reads/writes the columns through
//    std::int64_t* / double* / std::uint64_t* views instead (Slot is an
//    8-byte union of exactly those representations).  The build compiles
//    this file with -fno-strict-aliasing, which makes the views
//    well-defined; -ffp-contract=off keeps float results bit-identical to
//    the scalar interpreters.
//
//  * Lane compaction.  Every group owns a contiguous lane range
//    [off, off+cnt) of the arenas at all times.  A divergent branch
//    physically partitions the group's segment of every live column (all
//    slots plus the stack registers below the branch's stack height, which
//    FunctionCode::branchHeight records) so stay-lanes keep the front
//    and taken-lanes become a contiguous pending group behind them.  Work-
//    item identity moves with the lane in laneGid, so get_global_id and
//    fault messages stay exact.  The payoff: no sparse index indirection
//    ever — every per-op loop is a unit-stride loop the compiler can
//    vectorize, even deep into divergence.
//
// Invariants relied on:
//  - The register translation gives each operand-stack height its own
//    register and leaves every live stack value in it at block boundaries,
//    so the registers live at a branch are the slots plus the stack
//    registers below its height.  They are live in both child groups; the
//    partition permutes them with the same mask, so each logical lane keeps
//    its values.  Constant registers hold the same value in every lane and
//    are not permuted.  Sibling groups occupy disjoint segments and never
//    interfere.
//  - Retired counts: `instructions_` advances by weight x live-lane-count per
//    instruction, which equals the sum over lanes of the sequential count —
//    bit-identical accounting on every control path.
//  - Batchability (FunctionCode::batchable) excludes everything whose
//    cross-item ordering is observable, so interleaving lanes is safe.  It
//    also excludes frame memory and calls, so regions_ is immutable for the
//    whole batch and the bounds-check fast path below may cache it.
//
// Divergence and faults: when several work-items of one batch would fault,
// the reporting lane may differ from sequential execution (groups run in
// LIFO order); the fault itself and all data written before it are the same
// class of partial state sequential execution leaves behind.
#include <cstring>
#include <limits>

#include "kernelc/diagnostics.hpp"
#include "kernelc/vm.hpp"
#include "kernelc/vm_ops.hpp"

namespace skelcl::kc {

using detail::cmpHolds;
using detail::ptrPlus;

namespace {

static_assert(sizeof(Slot) == 8, "typed column views assume 8-byte slots");

inline std::int64_t* iCol(Slot* c) { return reinterpret_cast<std::int64_t*>(c); }
inline const std::int64_t* iCol(const Slot* c) {
  return reinterpret_cast<const std::int64_t*>(c);
}
inline double* fCol(Slot* c) { return reinterpret_cast<double*>(c); }
inline std::uint64_t* rawCol(Slot* c) { return reinterpret_cast<std::uint64_t*>(c); }

/// dst[l] = f(a[l], b[l]) over a group's lanes.  Register columns are either
/// disjoint or identical, so an in-place update (dst == a) is element-wise.
template <typename T, typename F>
inline void laneLoop(T* dst, const T* a, const T* b, std::int32_t cnt, F f) {
  for (std::int32_t l = 0; l < cnt; ++l) dst[l] = f(a[l], b[l]);
}

}  // namespace

void Vm::runKernelBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                        std::int64_t count, std::int64_t globalSize) {
  const auto& fn = program_.functions.at(static_cast<std::size_t>(functionIndex));
  SKELCL_CHECK(fn.isKernel, "runKernelBatch on a non-kernel function");
  SKELCL_CHECK(count >= 1 && count <= kBatchLanes, "batch lane count out of range");
  if (!program_.optimized || !fn.batchable || count == 1) {
    for (std::int64_t l = 0; l < count; ++l) {
      runKernel(functionIndex, args, gidBase + l, globalSize);
    }
    return;
  }
  SKELCL_CHECK(args.size() == fn.paramTypes.size(), "kernel argument count mismatch");
  globalSize_ = globalSize;
  frameTop_ = 0;
  executeBatch(functionIndex, args, gidBase, count);
}

void Vm::executeBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                      std::int64_t count) {
  const auto& fn = program_.functions[static_cast<std::size_t>(functionIndex)];
  const int savedFunction = currentFunction_;
  currentFunction_ = functionIndex;

  const std::int32_t n = static_cast<std::int32_t>(count);
  const auto stride = static_cast<std::size_t>(n);
  const std::size_t numSlots = static_cast<std::size_t>(fn.numSlots);
  const std::size_t numRegs = static_cast<std::size_t>(fn.numRegs);

  // Lane-strided register columns: register r of lane l at batchRegs_[r*n + l].
  // Slots zeroed to match the sequential paths' value-initialization,
  // arguments and constants broadcast once per batch; the stack registers
  // are always written before they are read.
  batchRegs_.resize(numRegs * stride);
  std::fill(batchRegs_.begin(), batchRegs_.begin() + static_cast<std::ptrdiff_t>(numSlots * stride),
            Slot{});
  const auto broadcast = [&](std::size_t reg, Slot v) {
    Slot* col = batchRegs_.data() + reg * stride;
    for (std::int32_t l = 0; l < n; ++l) col[l] = v;
  };
  for (std::size_t s = 0; s < args.size(); ++s) broadcast(s, args[s]);
  const std::size_t constBase = numRegs - fn.pool.size();
  for (std::size_t c = 0; c < fn.pool.size(); ++c) {
    Slot v;
    v.i = static_cast<std::int64_t>(fn.pool[c]);
    broadcast(constBase + c, v);
  }
  // Work-item id of each physical lane; permuted alongside the columns on
  // divergent splits, so lane -> gid stays exact under compaction.
  std::int64_t laneGid[kBatchLanes];
  for (std::int32_t l = 0; l < n; ++l) laneGid[l] = gidBase + l;

  Slot* const regBase = batchRegs_.data();

  // Bounds-check fast path.  Batchable kernels push no frame regions and make
  // no calls, so the region table cannot change under us.  The cold branch
  // delegates to resolve() for the precise fault message (setting globalId_
  // first so the message names the right work-item).
  const MemRegion* const regionTab = regions_.data();
  const std::size_t regionCount = regions_.size();
  const auto resolveLane = [&](Ptr p, std::uint32_t bytes, std::int64_t gid) -> std::byte* {
    if (p.region > 0 && static_cast<std::size_t>(p.region) < regionCount) {
      const MemRegion& r = regionTab[p.region];
      if (static_cast<std::uint64_t>(p.offset) + bytes <= r.size) return r.data + p.offset;
    }
    globalId_ = gid;
    resolve(p, bytes);  // [[noreturn]] here: throws the precise fault
    return nullptr;
  };

  /// A lane subset executing one control-flow path, owning the contiguous
  /// arena segment [off, off+cnt).  `retired` is the per-lane retired count
  /// along this path, inherited on splits — the sequential per-item budget.
  struct Group {
    std::int32_t ip;
    std::int32_t off;
    std::int32_t cnt;
    std::uint64_t retired;
  };
  Group pending[kBatchLanes];  // live groups partition n lanes, so < n splits
  std::int32_t nPending = 0;
  unsigned char mask[kBatchLanes];     // divergence: takes-the-branch per lane
  std::uint64_t scratch[kBatchLanes];  // divergence: taken-lane staging

  // Current group.
  std::int32_t laneOff = 0;
  std::int32_t laneCount = n;
  std::int32_t ip = 0;
  std::uint64_t retired = 0;

  const PackedInsn* const codeBase = fn.packed.data();

  // Column base of the current group's segment: unit-stride over [0, cnt).
  const auto col = [&](std::int32_t r) {
    return regBase + static_cast<std::size_t>(r) * stride + laneOff;
  };

  const auto checkBudget = [&](std::uint64_t pathRetired) {
    if (pathRetired > kMaxInstructionsPerItem) {
      globalId_ = laneGid[laneOff];
      fault("instruction budget exceeded (infinite loop?)");
    }
  };

  try {
    for (;;) {
      const PackedInsn insn = codeBase[ip];
      ++ip;
      retired += insn.weight;
      instructions_ += static_cast<std::uint64_t>(insn.weight) *
                       static_cast<std::uint64_t>(laneCount);
      const std::int32_t cnt = laneCount;

      switch (insn.op) {
        case Op::Mov: {
          const std::uint64_t* src = rawCol(col(insn.a));
          std::uint64_t* dst = rawCol(col(insn.k));
          for (std::int32_t l = 0; l < cnt; ++l) dst[l] = src[l];
          break;
        }
        case Op::ZeroSlots:
          for (std::int32_t r = insn.a; r < insn.a + insn.b; ++r) {
            std::int64_t* dst = iCol(col(r));
            for (std::int32_t l = 0; l < cnt; ++l) dst[l] = 0;
          }
          break;

  // Loads keep Slot-typed pointer columns (the bounds check is inherently
  // branchy); results are written through the typed view so downstream
  // arithmetic sees clean columns.
  #define KC_LOAD(OPNAME, CTYPE, BYTES, VIEW)                                       \
    case Op::Load##OPNAME: {                                                        \
      const Slot* ptr = col(insn.a);                                                \
      auto* out = VIEW(col(insn.k));                                                \
      const std::int64_t* gids = laneGid + laneOff;                                 \
      for (std::int32_t l = 0; l < cnt; ++l) {                                      \
        const std::byte* addr = resolveLane(ptr[l].p, BYTES, gids[l]);              \
        CTYPE v;                                                                    \
        std::memcpy(&v, addr, BYTES);                                               \
        out[l] = v;                                                                 \
      }                                                                             \
      break;                                                                        \
    }
        KC_LOAD(I32, std::int32_t, 4, iCol)
        KC_LOAD(U32, std::uint32_t, 4, iCol)
        KC_LOAD(F32, float, 4, fCol)
        KC_LOAD(F64, double, 8, fCol)
        KC_LOAD(I64, std::int64_t, 8, iCol)
  #undef KC_LOAD

  #define KC_STORE(OPNAME, CTYPE, LOADV, BYTES)                                 \
    case Op::Store##OPNAME: {                                                   \
      const Slot* ptr = col(insn.a);                                            \
      const Slot* val = col(insn.b);                                            \
      const std::int64_t* gids = laneGid + laneOff;                             \
      for (std::int32_t l = 0; l < cnt; ++l) {                                  \
        std::byte* addr = resolveLane(ptr[l].p, BYTES, gids[l]);                \
        const CTYPE v = LOADV;                                                  \
        std::memcpy(addr, &v, BYTES);                                           \
      }                                                                         \
      break;                                                                    \
    }
        KC_STORE(I32, std::int32_t, static_cast<std::int32_t>(val[l].i), 4)
        KC_STORE(I64, std::int64_t, val[l].i, 8)
        KC_STORE(F32, float, static_cast<float>(val[l].f), 4)
        KC_STORE(F64, double, val[l].f, 8)
  #undef KC_STORE

        case Op::PtrAdd: {
          const Slot* ptr = col(insn.a);
          const std::int64_t* idx = iCol(col(insn.b));
          Slot* dst = col(insn.k);
          for (std::int32_t l = 0; l < cnt; ++l) {
            dst[l] = Slot::fromPtr(ptrPlus(ptr[l].p, idx[l], insn.c));
          }
          break;
        }

  #define KC_BIN_I(OPNAME, EXPR)                                             \
    case Op::OPNAME:                                                         \
      laneLoop(iCol(col(insn.k)), iCol(col(insn.a)), iCol(col(insn.b)), cnt, \
               [](std::int64_t a, std::int64_t b) -> std::int64_t {          \
                 (void)a;                                                    \
                 (void)b;                                                    \
                 return static_cast<std::int32_t>(EXPR);                     \
               });                                                           \
      break;
        KC_BIN_I(AddI, a + b)
        KC_BIN_I(SubI, a - b)
        KC_BIN_I(MulI, a * b)
        KC_BIN_I(AndI, a & b)
        KC_BIN_I(OrI, a | b)
        KC_BIN_I(XorI, a ^ b)
        KC_BIN_I(ShlI, static_cast<std::int64_t>(static_cast<std::uint32_t>(a)
                                                 << (static_cast<std::uint32_t>(b) & 31u)))
        KC_BIN_I(ShrI, static_cast<std::int32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
        KC_BIN_I(ShrU, static_cast<std::uint32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
  #undef KC_BIN_I

  #define KC_DIVREM(OPNAME, CAST, CHECKED, MSG)                     \
    case Op::OPNAME: {                                              \
      const std::int64_t* acol = iCol(col(insn.a));                 \
      const std::int64_t* bcol = iCol(col(insn.b));                 \
      std::int64_t* dst = iCol(col(insn.k));                        \
      const std::int64_t* gids = laneGid + laneOff;                 \
      for (std::int32_t l = 0; l < cnt; ++l) {                      \
        const auto a = static_cast<CAST>(acol[l]);                  \
        const auto b = static_cast<CAST>(bcol[l]);                  \
        (void)a;                                                    \
        if (b == 0) {                                               \
          globalId_ = gids[l];                                      \
          fault(MSG);                                               \
        }                                                           \
        dst[l] = CHECKED;                                           \
      }                                                             \
      break;                                                        \
    }
        KC_DIVREM(DivI, std::int64_t, static_cast<std::int32_t>(a / b),
                  "integer division by zero")
        KC_DIVREM(RemI, std::int64_t, static_cast<std::int32_t>(a % b),
                  "integer remainder by zero")
        KC_DIVREM(DivU, std::uint32_t, static_cast<std::int64_t>(a / b),
                  "integer division by zero")
        KC_DIVREM(RemU, std::uint32_t, static_cast<std::int64_t>(a % b),
                  "integer remainder by zero")
        KC_DIVREM(DivUL, std::uint64_t, static_cast<std::int64_t>(a / b),
                  "integer division by zero")
        KC_DIVREM(RemUL, std::uint64_t, static_cast<std::int64_t>(a % b),
                  "integer remainder by zero")
        // 2's-complement wrap for INT64_MIN / -1, and its remainder 0.
        KC_DIVREM(DivL, std::int64_t,
                  b == -1 && a == std::numeric_limits<std::int64_t>::min() ? a : a / b,
                  "integer division by zero")
        KC_DIVREM(RemL, std::int64_t, b == -1 ? std::int64_t{0} : a % b,
                  "integer remainder by zero")
  #undef KC_DIVREM

  #define KC_BIN_L(OPNAME, EXPR)                                             \
    case Op::OPNAME:                                                         \
      laneLoop(iCol(col(insn.k)), iCol(col(insn.a)), iCol(col(insn.b)), cnt, \
               [](std::int64_t a, std::int64_t b) -> std::int64_t {          \
                 (void)a;                                                    \
                 (void)b;                                                    \
                 return static_cast<std::int64_t>(EXPR);                     \
               });                                                           \
      break;
        KC_BIN_L(AddL, static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b))
        KC_BIN_L(SubL, static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b))
        KC_BIN_L(MulL, static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b))
        KC_BIN_L(AndL, a & b)
        KC_BIN_L(OrL, a | b)
        KC_BIN_L(XorL, a ^ b)
        KC_BIN_L(ShlL, static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63u))
        KC_BIN_L(ShrL, a >> (static_cast<std::uint64_t>(b) & 63u))
        KC_BIN_L(ShrUL, static_cast<std::uint64_t>(a) >> (static_cast<std::uint64_t>(b) & 63u))
  #undef KC_BIN_L

  #define KC_BIN_F32(OPNAME, OPERATOR)                                          \
    case Op::OPNAME:                                                            \
      laneLoop(fCol(col(insn.k)), fCol(col(insn.a)), fCol(col(insn.b)), cnt,    \
               [](double a, double b) -> double {                               \
                 return static_cast<float>(static_cast<float>(a)                \
                                               OPERATOR static_cast<float>(b)); \
               });                                                              \
      break;
        KC_BIN_F32(AddF32, +)
        KC_BIN_F32(SubF32, -)
        KC_BIN_F32(MulF32, *)
        KC_BIN_F32(DivF32, /)
  #undef KC_BIN_F32

  #define KC_BIN_F64(OPNAME, OPERATOR)                                       \
    case Op::OPNAME:                                                         \
      laneLoop(fCol(col(insn.k)), fCol(col(insn.a)), fCol(col(insn.b)), cnt, \
               [](double a, double b) -> double { return a OPERATOR b; });   \
      break;
        KC_BIN_F64(AddF64, +)
        KC_BIN_F64(SubF64, -)
        KC_BIN_F64(MulF64, *)
        KC_BIN_F64(DivF64, /)
  #undef KC_BIN_F64

  #define KC_CMP(OPNAME, TYPE, VIEW, OPERATOR)                                  \
    case Op::OPNAME: {                                                          \
      const auto* acol = VIEW(col(insn.a));                                     \
      const auto* bcol = VIEW(col(insn.b));                                     \
      std::int64_t* dst = iCol(col(insn.k));                                    \
      for (std::int32_t l = 0; l < cnt; ++l) {                                  \
        const auto a = static_cast<TYPE>(acol[l]);                              \
        const auto b = static_cast<TYPE>(bcol[l]);                              \
        dst[l] = (a OPERATOR b) ? 1 : 0;                                        \
      }                                                                         \
      break;                                                                    \
    }
        KC_CMP(EqI, std::int64_t, iCol, ==)
        KC_CMP(NeI, std::int64_t, iCol, !=)
        KC_CMP(LtI, std::int64_t, iCol, <)
        KC_CMP(LeI, std::int64_t, iCol, <=)
        KC_CMP(GtI, std::int64_t, iCol, >)
        KC_CMP(GeI, std::int64_t, iCol, >=)
        KC_CMP(LtU, std::uint32_t, iCol, <)
        KC_CMP(LeU, std::uint32_t, iCol, <=)
        KC_CMP(GtU, std::uint32_t, iCol, >)
        KC_CMP(GeU, std::uint32_t, iCol, >=)
        KC_CMP(LtUL, std::uint64_t, iCol, <)
        KC_CMP(LeUL, std::uint64_t, iCol, <=)
        KC_CMP(GtUL, std::uint64_t, iCol, >)
        KC_CMP(GeUL, std::uint64_t, iCol, >=)
        KC_CMP(EqF, double, fCol, ==)
        KC_CMP(NeF, double, fCol, !=)
        KC_CMP(LtF, double, fCol, <)
        KC_CMP(LeF, double, fCol, <=)
        KC_CMP(GtF, double, fCol, >)
        KC_CMP(GeF, double, fCol, >=)
        // Ptr is {int32 region, uint32 offset} with no padding, so pointer
        // equality is 8-byte raw equality.
        KC_CMP(EqP, std::uint64_t, rawCol, ==)
        KC_CMP(NeP, std::uint64_t, rawCol, !=)
  #undef KC_CMP

  #define KC_UNARY(OPNAME, SRCVIEW, DSTVIEW, EXPR)  \
    case Op::OPNAME: {                              \
      const auto* src = SRCVIEW(col(insn.a));       \
      auto* dst = DSTVIEW(col(insn.k));             \
      for (std::int32_t l = 0; l < cnt; ++l) {      \
        const auto v = src[l];                      \
        dst[l] = EXPR;                              \
      }                                             \
      break;                                        \
    }
        KC_UNARY(NegI, iCol, iCol, static_cast<std::int32_t>(-v))
        KC_UNARY(NotI, iCol, iCol, static_cast<std::int32_t>(~v))
        KC_UNARY(NegL, iCol, iCol, static_cast<std::int64_t>(-static_cast<std::uint64_t>(v)))
        KC_UNARY(NotL, iCol, iCol, ~v)
        KC_UNARY(NegF32, fCol, fCol, -static_cast<float>(v))
        KC_UNARY(NegF64, fCol, fCol, -v)
        KC_UNARY(LNot, iCol, iCol, v == 0 ? 1 : 0)
        KC_UNARY(I2F32, iCol, fCol, static_cast<float>(v))
        KC_UNARY(I2F64, iCol, fCol, static_cast<double>(v))
        KC_UNARY(U2F32, iCol, fCol, static_cast<float>(static_cast<std::uint32_t>(v)))
        KC_UNARY(U2F64, iCol, fCol, static_cast<double>(static_cast<std::uint32_t>(v)))
        KC_UNARY(UL2F32, iCol, fCol, static_cast<float>(static_cast<std::uint64_t>(v)))
        KC_UNARY(UL2F64, iCol, fCol, static_cast<double>(static_cast<std::uint64_t>(v)))
        KC_UNARY(F2I, fCol, iCol, static_cast<std::int32_t>(v))
        KC_UNARY(F2L, fCol, iCol, static_cast<std::int64_t>(v))
        KC_UNARY(F2U, fCol, iCol, static_cast<std::int64_t>(static_cast<std::uint32_t>(v)))
        KC_UNARY(F2UL, fCol, iCol, static_cast<std::int64_t>(static_cast<std::uint64_t>(v)))
        KC_UNARY(F64toF32, fCol, fCol, static_cast<float>(v))
        KC_UNARY(I2U, iCol, iCol, static_cast<std::int64_t>(static_cast<std::uint32_t>(v)))
        KC_UNARY(U2I, iCol, iCol, static_cast<std::int32_t>(static_cast<std::uint32_t>(v)))
        KC_UNARY(BoolNorm, iCol, iCol, v != 0 ? 1 : 0)
  #undef KC_UNARY

        case Op::Jmp:
          if (insn.k < ip) checkBudget(retired);
          ip = insn.k;
          break;

        case Op::Jz:
        case Op::Jnz:
        case Op::CmpJz:
        case Op::CmpJnz: {
          const bool fused = insn.op == Op::CmpJz || insn.op == Op::CmpJnz;
          const bool jumpOnTrue = insn.op == Op::Jnz || insn.op == Op::CmpJnz;
          std::int32_t nTaken = 0;
          if (fused) {
            const Slot* acol = col(insn.a);
            const Slot* bcol = col(insn.b);
            const Op cmp = static_cast<Op>(insn.c);
            for (std::int32_t l = 0; l < cnt; ++l) {
              mask[l] = cmpHolds(cmp, acol[l], bcol[l]) == jumpOnTrue ? 1 : 0;
              nTaken += mask[l];
            }
          } else {
            const std::int64_t* acol = iCol(col(insn.a));
            for (std::int32_t l = 0; l < cnt; ++l) {
              mask[l] = ((acol[l] != 0) == jumpOnTrue) ? 1 : 0;
              nTaken += mask[l];
            }
          }
          if (nTaken == 0) break;  // whole group falls through
          if (nTaken == cnt) {
            if (insn.k < ip) checkBudget(retired);
            ip = insn.k;
            break;
          }
          // Divergence: physically partition the group's segment of every
          // live register — the slots and the stack registers below the
          // branch's stack height — so stay lanes keep the front (order
          // preserved) and taken lanes compact behind them as a pending
          // group.  Both children stay contiguous, so every later loop
          // remains unit-stride.  LIFO scheduling; no reconvergence.
          const std::int32_t stayCnt = cnt - nTaken;
          const auto partitionSeg = [&](std::uint64_t* seg) {
            std::int32_t w = 0;
            std::int32_t t = 0;
            for (std::int32_t l = 0; l < cnt; ++l) {
              const std::uint64_t v = seg[l];
              if (mask[l]) {
                scratch[t++] = v;
              } else {
                seg[w++] = v;
              }
            }
            std::memcpy(seg + w, scratch, static_cast<std::size_t>(t) * sizeof(std::uint64_t));
          };
          const std::size_t live =
              numSlots + static_cast<std::size_t>(fn.branchHeight[static_cast<std::size_t>(ip - 1)]);
          for (std::size_t r = 0; r < live; ++r) {
            partitionSeg(rawCol(col(static_cast<std::int32_t>(r))));
          }
          partitionSeg(reinterpret_cast<std::uint64_t*>(laneGid + laneOff));
          if (insn.k < ip && retired > kMaxInstructionsPerItem) {
            globalId_ = laneGid[laneOff + stayCnt];
            fault("instruction budget exceeded (infinite loop?)");
          }
          pending[nPending++] = Group{insn.k, laneOff + stayCnt, nTaken, retired};
          laneCount = stayCnt;
          break;
        }

        case Op::CallBuiltin: {
          checkBudget(retired);
          const BuiltinDef& def = builtins_[insn.c];
          const auto argc = static_cast<std::int32_t>(def.params.size());
          const std::int64_t* gids = laneGid + laneOff;
          // Fast path for the ubiquitous get_global_id(dim).
          if (argc == 1 && std::strcmp(def.name, "get_global_id") == 0) {
            const std::int64_t* dim = iCol(col(insn.a));
            std::int64_t* dst = iCol(col(insn.k));
            for (std::int32_t l = 0; l < cnt; ++l) dst[l] = dim[l] == 0 ? gids[l] : 0;
            break;
          }
          SKELCL_CHECK(argc <= 8, "builtin arity exceeds batch marshalling buffer");
          // Up to two arguments come from registers a and b, more from the
          // contiguous range starting at a (encode.cpp).
          const Slot* argCol[8];
          for (std::int32_t i = 0; i < argc; ++i) {
            argCol[i] = col(argc <= 2 ? (i == 0 ? insn.a : insn.b) : insn.a + i);
          }
          Slot argv[8];
          Slot* res = col(insn.k);
          for (std::int32_t l = 0; l < cnt; ++l) {
            globalId_ = gids[l];  // geometry builtins read it via BuiltinCtx
            for (std::int32_t i = 0; i < argc; ++i) argv[i] = argCol[i][l];
            const Slot r = def.fn(*this, argv);
            if (def.ret != BType::Void) res[l] = r;
          }
          break;
        }

        case Op::RetVoid: {
          // This group's lanes are done; resume the most recently split group.
          if (nPending == 0) {
            currentFunction_ = savedFunction;
            return;
          }
          const Group g = pending[--nPending];
          laneOff = g.off;
          laneCount = g.cnt;
          ip = g.ip;
          retired = g.retired;
          break;
        }

        case Op::Trap:
          globalId_ = laneGid[laneOff];
          fault("non-void function reached the end without returning a value");
          break;

        // Excluded by FunctionCode::batchable, or stack code the register
        // translation never emits; reaching one is a VM bug.
        default:
          globalId_ = laneGid[laneOff];
          fault("non-batchable instruction in batched execution");
      }
    }
  } catch (const VmError&) {
    attributeInlinedFault(fn, static_cast<std::size_t>(ip - 1));
    throw;
  }
}

}  // namespace skelcl::kc
