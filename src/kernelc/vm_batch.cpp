// Work-group-batched execution (docs/VM.md): the dispatch loop is
// inverted — one opcode decode drives every live work-item ("lane") of a
// group through the operation before moving to the next instruction, over
// lane-strided slot/stack arenas.  Straight-line and uniformly-looping
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
//    slots plus the stack below the branch) so stay-lanes keep the front
//    and taken-lanes become a contiguous pending group behind them.  Work-
//    item identity moves with the lane in laneGid, so get_global_id and
//    fault messages stay exact.  The payoff: no sparse index indirection
//    ever — every per-op loop is a unit-stride loop the compiler can
//    vectorize, even deep into divergence.
//
// Invariants relied on:
//  - The encoder's computeMaxStack proves the operand-stack height at each
//    pc is unique, so one `sp` per group is exact.  Stack columns below a
//    split are live in both child groups; the partition permutes them with
//    the same mask, so each logical lane keeps its values.  Sibling groups
//    occupy disjoint segments and never interfere.
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
  const std::size_t numSlots = static_cast<std::size_t>(fn.numSlots);

  // Lane-strided arenas: slot s of lane l at batchSlots_[s*n + l], stack
  // depth d of lane l at batchStack_[d*n + l].  Slots zeroed to match the
  // sequential paths' value-initialization; arguments broadcast per lane.
  batchSlots_.assign(numSlots * static_cast<std::size_t>(n), Slot{});
  batchStack_.resize(static_cast<std::size_t>(fn.maxStack) * static_cast<std::size_t>(n) + 1);
  for (std::size_t s = 0; s < args.size(); ++s) {
    Slot* col = batchSlots_.data() + s * static_cast<std::size_t>(n);
    for (std::int32_t l = 0; l < n; ++l) col[l] = args[s];
  }
  // Work-item id of each physical lane; permuted alongside the columns on
  // divergent splits, so lane -> gid stays exact under compaction.
  std::int64_t laneGid[kBatchLanes];
  for (std::int32_t l = 0; l < n; ++l) laneGid[l] = gidBase + l;

  Slot* const slotBase = batchSlots_.data();
  Slot* const stackBase = batchStack_.data();

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
    std::int32_t sp;
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
  std::int32_t sp = 0;
  std::uint64_t retired = 0;

  const PackedInsn* const codeBase = fn.packed.data();
  const std::uint64_t* const pool = fn.pool.data();

  // Column base of the current group's segment: unit-stride over [0, cnt).
  const auto slotCol = [&](std::int32_t s) {
    return slotBase + static_cast<std::size_t>(s) * static_cast<std::size_t>(n) + laneOff;
  };
  const auto stackCol = [&](std::int32_t d) {
    return stackBase + static_cast<std::size_t>(d) * static_cast<std::size_t>(n) + laneOff;
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
        case Op::PushI: {
          const std::int64_t v = insn.a;
          std::int64_t* col = iCol(stackCol(sp));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = v;
          ++sp;
          break;
        }
        case Op::PushCI: {
          const std::int64_t v = static_cast<std::int64_t>(pool[insn.k]);
          std::int64_t* col = iCol(stackCol(sp));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = v;
          ++sp;
          break;
        }
        case Op::PushCF: {
          double v;
          std::memcpy(&v, &pool[insn.k], sizeof v);
          double* col = fCol(stackCol(sp));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = v;
          ++sp;
          break;
        }

        case Op::LoadSlot: {
          const std::uint64_t* src = rawCol(slotCol(insn.a));
          std::uint64_t* col = rawCol(stackCol(sp));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = src[l];
          ++sp;
          break;
        }
        case Op::StoreSlot: {
          --sp;
          const std::uint64_t* col = rawCol(stackCol(sp));
          std::uint64_t* dst = rawCol(slotCol(insn.a));
          for (std::int32_t l = 0; l < cnt; ++l) dst[l] = col[l];
          break;
        }
        case Op::LoadSlot2: {
          const std::uint64_t* sa = rawCol(slotCol(insn.a));
          const std::uint64_t* sb = rawCol(slotCol(insn.b));
          std::uint64_t* ca = rawCol(stackCol(sp));
          std::uint64_t* cb = rawCol(stackCol(sp + 1));
          for (std::int32_t l = 0; l < cnt; ++l) {
            ca[l] = sa[l];
            cb[l] = sb[l];
          }
          sp += 2;
          break;
        }

  // Loads keep Slot-typed pointer columns (the bounds check is inherently
  // branchy); results are written through the typed view so downstream
  // arithmetic sees clean columns.
  #define KC_LOAD(OPNAME, CTYPE, BYTES, VIEW)                                       \
    case Op::Load##OPNAME: {                                                        \
      Slot* col = stackCol(sp - 1);                                                 \
      auto* out = VIEW(col);                                                        \
      const std::int64_t* gids = laneGid + laneOff;                                 \
      for (std::int32_t l = 0; l < cnt; ++l) {                                      \
        const std::byte* addr = resolveLane(col[l].p, BYTES, gids[l]);              \
        CTYPE v;                                                                    \
        std::memcpy(&v, addr, BYTES);                                               \
        out[l] = v;                                                                 \
      }                                                                             \
      break;                                                                        \
    }                                                                               \
    case Op::LoadElem##OPNAME: {                                                    \
      const std::int64_t* idx = iCol(stackCol(sp - 1));                             \
      Slot* col = stackCol(sp - 2);                                                 \
      auto* out = VIEW(col);                                                        \
      const std::int64_t* gids = laneGid + laneOff;                                 \
      for (std::int32_t l = 0; l < cnt; ++l) {                                      \
        const std::byte* addr =                                                     \
            resolveLane(ptrPlus(col[l].p, idx[l], insn.a), BYTES, gids[l]);         \
        CTYPE v;                                                                    \
        std::memcpy(&v, addr, BYTES);                                               \
        out[l] = v;                                                                 \
      }                                                                             \
      --sp;                                                                         \
      break;                                                                        \
    }                                                                               \
    case Op::LoadSlotElem##OPNAME: {                                                \
      const Slot* ptr = slotCol(insn.a);                                            \
      const std::int64_t* idx = iCol(slotCol(insn.b));                              \
      auto* out = VIEW(stackCol(sp));                                               \
      const std::int64_t* gids = laneGid + laneOff;                                 \
      for (std::int32_t l = 0; l < cnt; ++l) {                                      \
        const std::byte* addr =                                                     \
            resolveLane(ptrPlus(ptr[l].p, idx[l], insn.c), BYTES, gids[l]);         \
        CTYPE v;                                                                    \
        std::memcpy(&v, addr, BYTES);                                               \
        out[l] = v;                                                                 \
      }                                                                             \
      ++sp;                                                                         \
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
      const Slot* val = stackCol(sp - 1);                                       \
      const Slot* ptr = stackCol(sp - 2);                                       \
      const std::int64_t* gids = laneGid + laneOff;                             \
      for (std::int32_t l = 0; l < cnt; ++l) {                                  \
        std::byte* addr = resolveLane(ptr[l].p, BYTES, gids[l]);                \
        const CTYPE v = LOADV;                                                  \
        std::memcpy(addr, &v, BYTES);                                           \
      }                                                                         \
      sp -= 2;                                                                  \
      break;                                                                    \
    }                                                                           \
    case Op::TeeStore##OPNAME: {                                                \
      const Slot* val = stackCol(sp - 1);                                       \
      const Slot* ptr = stackCol(sp - 2);                                       \
      std::uint64_t* tee = rawCol(slotCol(insn.a));                             \
      const std::uint64_t* raw = rawCol(stackCol(sp - 1));                      \
      const std::int64_t* gids = laneGid + laneOff;                             \
      for (std::int32_t l = 0; l < cnt; ++l) {                                  \
        std::byte* addr = resolveLane(ptr[l].p, BYTES, gids[l]);                \
        const CTYPE v = LOADV;                                                  \
        std::memcpy(addr, &v, BYTES);                                           \
        tee[l] = raw[l];                                                        \
      }                                                                         \
      sp -= 2;                                                                  \
      break;                                                                    \
    }
        KC_STORE(I32, std::int32_t, static_cast<std::int32_t>(val[l].i), 4)
        KC_STORE(I64, std::int64_t, val[l].i, 8)
        KC_STORE(F32, float, static_cast<float>(val[l].f), 4)
        KC_STORE(F64, double, val[l].f, 8)
  #undef KC_STORE

        case Op::PtrAdd: {
          const std::int64_t* idx = iCol(stackCol(sp - 1));
          Slot* col = stackCol(sp - 2);
          for (std::int32_t l = 0; l < cnt; ++l) {
            col[l] = Slot::fromPtr(ptrPlus(col[l].p, idx[l], insn.a));
          }
          --sp;
          break;
        }
        case Op::PtrAddImm: {
          Slot* col = stackCol(sp - 1);
          for (std::int32_t l = 0; l < cnt; ++l) {
            col[l] = Slot::fromPtr(ptrPlus(col[l].p, insn.b, insn.a));
          }
          break;
        }
        case Op::IncSlotI: {
          std::int64_t* col = iCol(slotCol(insn.a));
          const std::int64_t d = insn.b;
          for (std::int32_t l = 0; l < cnt; ++l) {
            col[l] = static_cast<std::int32_t>(col[l] + d);
          }
          break;
        }

  #define KC_BIN_I(OPNAME, EXPR)                                    \
    case Op::OPNAME: {                                              \
      const std::int64_t* bcol = iCol(stackCol(sp - 1));            \
      std::int64_t* acol = iCol(stackCol(sp - 2));                  \
      for (std::int32_t l = 0; l < cnt; ++l) {                      \
        const std::int64_t a = acol[l];                             \
        const std::int64_t b = bcol[l];                             \
        (void)a;                                                    \
        (void)b;                                                    \
        acol[l] = static_cast<std::int32_t>(EXPR);                  \
      }                                                             \
      --sp;                                                         \
      break;                                                        \
    }
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
      const std::int64_t* bcol = iCol(stackCol(sp - 1));            \
      std::int64_t* acol = iCol(stackCol(sp - 2));                  \
      const std::int64_t* gids = laneGid + laneOff;                 \
      for (std::int32_t l = 0; l < cnt; ++l) {                      \
        const auto a = static_cast<CAST>(acol[l]);                  \
        const auto b = static_cast<CAST>(bcol[l]);                  \
        (void)a;                                                    \
        if (b == 0) {                                               \
          globalId_ = gids[l];                                      \
          fault(MSG);                                               \
        }                                                           \
        acol[l] = CHECKED;                                          \
      }                                                             \
      --sp;                                                         \
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
  #undef KC_DIVREM

        case Op::DivL: {
          const std::int64_t* bcol = iCol(stackCol(sp - 1));
          std::int64_t* acol = iCol(stackCol(sp - 2));
          const std::int64_t* gids = laneGid + laneOff;
          for (std::int32_t l = 0; l < cnt; ++l) {
            const std::int64_t a = acol[l];
            const std::int64_t b = bcol[l];
            if (b == 0) {
              globalId_ = gids[l];
              fault("integer division by zero");
            }
            if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
              acol[l] = a;  // wrap, matching 2's-complement overflow
            } else {
              acol[l] = a / b;
            }
          }
          --sp;
          break;
        }
        case Op::RemL: {
          const std::int64_t* bcol = iCol(stackCol(sp - 1));
          std::int64_t* acol = iCol(stackCol(sp - 2));
          const std::int64_t* gids = laneGid + laneOff;
          for (std::int32_t l = 0; l < cnt; ++l) {
            const std::int64_t b = bcol[l];
            if (b == 0) {
              globalId_ = gids[l];
              fault("integer remainder by zero");
            }
            acol[l] = b == -1 ? std::int64_t{0} : acol[l] % b;
          }
          --sp;
          break;
        }

        case Op::NegI: {
          std::int64_t* col = iCol(stackCol(sp - 1));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = static_cast<std::int32_t>(-col[l]);
          break;
        }
        case Op::NotI: {
          std::int64_t* col = iCol(stackCol(sp - 1));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = static_cast<std::int32_t>(~col[l]);
          break;
        }

  #define KC_BIN_L(OPNAME, EXPR)                                    \
    case Op::OPNAME: {                                              \
      const std::int64_t* bcol = iCol(stackCol(sp - 1));            \
      std::int64_t* acol = iCol(stackCol(sp - 2));                  \
      for (std::int32_t l = 0; l < cnt; ++l) {                      \
        const std::int64_t a = acol[l];                             \
        const std::int64_t b = bcol[l];                             \
        (void)a;                                                    \
        (void)b;                                                    \
        acol[l] = static_cast<std::int64_t>(EXPR);                  \
      }                                                             \
      --sp;                                                         \
      break;                                                        \
    }
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

        case Op::NegL: {
          std::int64_t* col = iCol(stackCol(sp - 1));
          for (std::int32_t l = 0; l < cnt; ++l) {
            col[l] = static_cast<std::int64_t>(-static_cast<std::uint64_t>(col[l]));
          }
          break;
        }
        case Op::NotL: {
          std::int64_t* col = iCol(stackCol(sp - 1));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = ~col[l];
          break;
        }

  #define KC_BIN_F32(OPNAME, OPERATOR)                                          \
    case Op::OPNAME: {                                                          \
      const double* bcol = fCol(stackCol(sp - 1));                              \
      double* acol = fCol(stackCol(sp - 2));                                    \
      for (std::int32_t l = 0; l < cnt; ++l) {                                  \
        acol[l] = static_cast<float>(static_cast<float>(acol[l])                \
                                         OPERATOR static_cast<float>(bcol[l])); \
      }                                                                         \
      --sp;                                                                     \
      break;                                                                    \
    }
        KC_BIN_F32(AddF32, +)
        KC_BIN_F32(SubF32, -)
        KC_BIN_F32(MulF32, *)
        KC_BIN_F32(DivF32, /)
  #undef KC_BIN_F32

  #define KC_BIN_F64(OPNAME, OPERATOR)                                           \
    case Op::OPNAME: {                                                           \
      const double* bcol = fCol(stackCol(sp - 1));                               \
      double* acol = fCol(stackCol(sp - 2));                                     \
      for (std::int32_t l = 0; l < cnt; ++l) acol[l] = acol[l] OPERATOR bcol[l]; \
      --sp;                                                                      \
      break;                                                                     \
    }
        KC_BIN_F64(AddF64, +)
        KC_BIN_F64(SubF64, -)
        KC_BIN_F64(MulF64, *)
        KC_BIN_F64(DivF64, /)
  #undef KC_BIN_F64

        case Op::NegF32: {
          double* col = fCol(stackCol(sp - 1));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = -static_cast<float>(col[l]);
          break;
        }
        case Op::NegF64: {
          double* col = fCol(stackCol(sp - 1));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = -col[l];
          break;
        }

  #define KC_CMP(OPNAME, TYPE, VIEW, OPERATOR)                                  \
    case Op::OPNAME: {                                                          \
      const auto* bcol = VIEW(static_cast<Slot*>(stackCol(sp - 1)));            \
      const auto* asrc = VIEW(static_cast<Slot*>(stackCol(sp - 2)));            \
      std::int64_t* adst = iCol(stackCol(sp - 2));                              \
      for (std::int32_t l = 0; l < cnt; ++l) {                                  \
        const auto a = static_cast<TYPE>(asrc[l]);                              \
        const auto b = static_cast<TYPE>(bcol[l]);                              \
        adst[l] = (a OPERATOR b) ? 1 : 0;                                       \
      }                                                                         \
      --sp;                                                                     \
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
  #undef KC_CMP

        // Ptr is {int32 region, uint32 offset} with no padding, so pointer
        // equality is 8-byte raw equality.
        case Op::EqP: {
          const std::uint64_t* bcol = rawCol(stackCol(sp - 1));
          const std::uint64_t* asrc = rawCol(stackCol(sp - 2));
          std::int64_t* adst = iCol(stackCol(sp - 2));
          for (std::int32_t l = 0; l < cnt; ++l) adst[l] = asrc[l] == bcol[l] ? 1 : 0;
          --sp;
          break;
        }
        case Op::NeP: {
          const std::uint64_t* bcol = rawCol(stackCol(sp - 1));
          const std::uint64_t* asrc = rawCol(stackCol(sp - 2));
          std::int64_t* adst = iCol(stackCol(sp - 2));
          for (std::int32_t l = 0; l < cnt; ++l) adst[l] = asrc[l] != bcol[l] ? 1 : 0;
          --sp;
          break;
        }
        case Op::LNot: {
          std::int64_t* col = iCol(stackCol(sp - 1));
          for (std::int32_t l = 0; l < cnt; ++l) col[l] = col[l] == 0 ? 1 : 0;
          break;
        }

  #define KC_CONV(OPNAME, SRCVIEW, DSTVIEW, EXPR)  \
    case Op::OPNAME: {                             \
      Slot* c = stackCol(sp - 1);                  \
      const auto* src = SRCVIEW(c);                \
      auto* dst = DSTVIEW(c);                      \
      for (std::int32_t l = 0; l < cnt; ++l) {     \
        const auto v = src[l];                     \
        dst[l] = EXPR;                             \
      }                                            \
      break;                                       \
    }
        KC_CONV(I2F32, iCol, fCol, static_cast<float>(v))
        KC_CONV(I2F64, iCol, fCol, static_cast<double>(v))
        KC_CONV(U2F32, iCol, fCol, static_cast<float>(static_cast<std::uint32_t>(v)))
        KC_CONV(U2F64, iCol, fCol, static_cast<double>(static_cast<std::uint32_t>(v)))
        KC_CONV(UL2F32, iCol, fCol, static_cast<float>(static_cast<std::uint64_t>(v)))
        KC_CONV(UL2F64, iCol, fCol, static_cast<double>(static_cast<std::uint64_t>(v)))
        KC_CONV(F2I, fCol, iCol, static_cast<std::int32_t>(v))
        KC_CONV(F2L, fCol, iCol, static_cast<std::int64_t>(v))
        KC_CONV(F2U, fCol, iCol,
                static_cast<std::int64_t>(static_cast<std::uint32_t>(v)))
        KC_CONV(F2UL, fCol, iCol,
                static_cast<std::int64_t>(static_cast<std::uint64_t>(v)))
        KC_CONV(F64toF32, fCol, fCol, static_cast<float>(v))
        KC_CONV(I2U, iCol, iCol,
                static_cast<std::int64_t>(static_cast<std::uint32_t>(v)))
        KC_CONV(U2I, iCol, iCol,
                static_cast<std::int32_t>(static_cast<std::uint32_t>(v)))
        KC_CONV(BoolNorm, iCol, iCol, v != 0 ? 1 : 0)
  #undef KC_CONV

        case Op::Jmp:
          if (insn.a < ip) checkBudget(retired);
          ip = insn.a;
          break;

        case Op::Jz:
        case Op::Jnz:
        case Op::CmpJz:
        case Op::CmpJnz: {
          const bool fused = insn.op == Op::CmpJz || insn.op == Op::CmpJnz;
          const bool jumpOnTrue = insn.op == Op::Jnz || insn.op == Op::CmpJnz;
          sp -= fused ? 2 : 1;
          std::int32_t nTaken = 0;
          if (fused) {
            const Slot* acol = stackCol(sp);
            const Slot* bcol = stackCol(sp + 1);
            const Op cmp = static_cast<Op>(insn.c);
            for (std::int32_t l = 0; l < cnt; ++l) {
              mask[l] = cmpHolds(cmp, acol[l], bcol[l]) == jumpOnTrue ? 1 : 0;
              nTaken += mask[l];
            }
          } else {
            const std::int64_t* acol = iCol(stackCol(sp));
            for (std::int32_t l = 0; l < cnt; ++l) {
              mask[l] = ((acol[l] != 0) == jumpOnTrue) ? 1 : 0;
              nTaken += mask[l];
            }
          }
          if (nTaken == 0) break;  // whole group falls through
          if (nTaken == cnt) {
            if (insn.a < ip) checkBudget(retired);
            ip = insn.a;
            break;
          }
          // Divergence: physically partition the group's segment of every
          // live column — stay lanes keep the front (order preserved), taken
          // lanes compact behind them and branch off as a pending group.
          // Both children stay contiguous, so every later loop remains
          // unit-stride.  LIFO scheduling; no reconvergence.
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
          for (std::size_t s = 0; s < numSlots; ++s) {
            partitionSeg(rawCol(slotBase + s * static_cast<std::size_t>(n) + laneOff));
          }
          for (std::int32_t d = 0; d < sp; ++d) {
            partitionSeg(rawCol(stackCol(d)));
          }
          partitionSeg(reinterpret_cast<std::uint64_t*>(laneGid + laneOff));
          if (insn.a < ip && retired > kMaxInstructionsPerItem) {
            globalId_ = laneGid[laneOff + stayCnt];
            fault("instruction budget exceeded (infinite loop?)");
          }
          pending[nPending++] = Group{insn.a, sp, laneOff + stayCnt, nTaken, retired};
          laneCount = stayCnt;
          break;
        }

        case Op::CallBuiltin: {
          checkBudget(retired);
          const BuiltinDef& def = builtins_[insn.a];
          const std::int32_t argc = insn.b;
          sp -= argc;
          // Fast path for the ubiquitous get_global_id(dim).
          if (argc == 1 && std::strcmp(def.name, "get_global_id") == 0) {
            std::int64_t* col = iCol(stackCol(sp));
            const std::int64_t* gids = laneGid + laneOff;
            for (std::int32_t l = 0; l < cnt; ++l) col[l] = col[l] == 0 ? gids[l] : 0;
            ++sp;
            break;
          }
          SKELCL_CHECK(argc <= 8, "builtin arity exceeds batch marshalling buffer");
          Slot argv[8];
          Slot* res = stackCol(sp);
          const std::int64_t* gids = laneGid + laneOff;
          for (std::int32_t l = 0; l < cnt; ++l) {
            globalId_ = gids[l];  // geometry builtins read it via BuiltinCtx
            for (std::int32_t a2 = 0; a2 < argc; ++a2) argv[a2] = stackCol(sp + a2)[l];
            const Slot r = def.fn(*this, argv);
            if (def.ret != BType::Void) res[l] = r;
          }
          if (def.ret != BType::Void) ++sp;
          break;
        }

        case Op::Dup: {
          const std::uint64_t* src = rawCol(stackCol(sp - 1));
          std::uint64_t* dst = rawCol(stackCol(sp));
          for (std::int32_t l = 0; l < cnt; ++l) dst[l] = src[l];
          ++sp;
          break;
        }
        case Op::Drop:
          --sp;
          break;

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
          sp = g.sp;
          retired = g.retired;
          break;
        }

        case Op::Trap:
          globalId_ = laneGid[laneOff];
          fault("non-void function reached the end without returning a value");
          break;

        // Excluded by FunctionCode::batchable; reaching one is a VM bug.
        case Op::PushF:
        case Op::LeaFrame:
        case Op::MemCopy:
        case Op::CallFn:
        case Op::Ret:
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
