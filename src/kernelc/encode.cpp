#include "kernelc/encode.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "base/error.hpp"
#include "kernelc/builtins.hpp"

namespace skelcl::kc {

namespace {

struct Effect {
  int delta = 0;         ///< net stack change
  int peak = 0;          ///< transient growth above the entry height (>= 0)
  bool terminal = false; ///< Ret / RetVoid / Trap
  bool jumps = false;    ///< has a branch target in `a`
  bool falls = true;     ///< control may continue to the next instruction
};

Effect effectOf(const Insn& insn, const std::vector<FunctionCode>& fns) {
  Effect e;
  switch (insn.op) {
    case Op::PushI: case Op::PushF: case Op::LoadSlot: case Op::LeaFrame: case Op::Dup:
      e.delta = 1; e.peak = 1; return e;
    case Op::StoreSlot: case Op::Drop:
      e.delta = -1; return e;
    case Op::LoadI32: case Op::LoadU32: case Op::LoadF32: case Op::LoadF64:
    case Op::LoadI64:
      return e;  // pop ptr, push value
    case Op::StoreI32: case Op::StoreI64: case Op::StoreF32: case Op::StoreF64:
    case Op::MemCopy:
      e.delta = -2; return e;
    case Op::PtrAdd:
      e.delta = -1; return e;
    case Op::ZeroSlots:
      return e;
    case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::RemI:
    case Op::DivU: case Op::RemU: case Op::AndI: case Op::OrI: case Op::XorI:
    case Op::ShlI: case Op::ShrI: case Op::ShrU:
    case Op::AddL: case Op::SubL: case Op::MulL: case Op::DivL: case Op::RemL:
    case Op::DivUL: case Op::RemUL: case Op::AndL: case Op::OrL: case Op::XorL:
    case Op::ShlL: case Op::ShrL: case Op::ShrUL:
    case Op::AddF32: case Op::SubF32: case Op::MulF32: case Op::DivF32:
    case Op::AddF64: case Op::SubF64: case Op::MulF64: case Op::DivF64:
    case Op::EqI: case Op::NeI: case Op::LtI: case Op::LeI: case Op::GtI: case Op::GeI:
    case Op::LtU: case Op::LeU: case Op::GtU: case Op::GeU:
    case Op::LtUL: case Op::LeUL: case Op::GtUL: case Op::GeUL:
    case Op::EqF: case Op::NeF: case Op::LtF: case Op::LeF: case Op::GtF: case Op::GeF:
    case Op::EqP: case Op::NeP:
      e.delta = -1; return e;
    case Op::NegI: case Op::NotI: case Op::NegL: case Op::NotL:
    case Op::NegF32: case Op::NegF64: case Op::LNot:
    case Op::I2F32: case Op::I2F64: case Op::U2F32: case Op::U2F64:
    case Op::UL2F32: case Op::UL2F64: case Op::F2I: case Op::F2U: case Op::F2L:
    case Op::F2UL: case Op::F64toF32: case Op::I2U: case Op::U2I: case Op::BoolNorm:
      return e;
    case Op::Jmp:
      e.jumps = true; e.falls = false; return e;
    case Op::Jz: case Op::Jnz:
      e.delta = -1; e.jumps = true; return e;
    case Op::CallFn: {
      const auto& callee = fns.at(static_cast<std::size_t>(insn.a));
      const int ret = callee.returnType != types::Void ? 1 : 0;
      e.delta = ret - static_cast<int>(callee.paramTypes.size());
      e.peak = e.delta > 0 ? e.delta : 0;
      return e;
    }
    case Op::CallBuiltin: {
      const BuiltinDef& def = builtinTable().at(static_cast<std::size_t>(insn.a));
      const int ret = def.ret != BType::Void ? 1 : 0;
      e.delta = ret - insn.b;
      e.peak = e.delta > 0 ? e.delta : 0;
      return e;
    }
    case Op::Ret:
      e.delta = -1; e.terminal = true; e.falls = false; return e;
    case Op::RetVoid: case Op::Trap:
      e.terminal = true; e.falls = false; return e;
    case Op::Mov: case Op::CmpJz: case Op::CmpJnz:
      break;  // register form only
  }
  SKELCL_CHECK(false, "unhandled opcode in effectOf");
  return e;
}

int computeMaxStack(const FunctionCode& fn, const std::vector<FunctionCode>& fns,
                    const std::vector<int>& height) {
  int maxPeak = 0;
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (height[pc] < 0) continue;
    const int peak = height[pc] + effectOf(fn.code[pc], fns).peak;
    if (peak > maxPeak) maxPeak = peak;
  }
  return maxPeak;
}

bool isCompare(Op op) {
  switch (op) {
    case Op::EqI: case Op::NeI: case Op::LtI: case Op::LeI: case Op::GtI: case Op::GeI:
    case Op::LtU: case Op::LeU: case Op::GtU: case Op::GeU:
    case Op::LtUL: case Op::LeUL: case Op::GtUL: case Op::GeUL:
    case Op::EqF: case Op::NeF: case Op::LtF: case Op::LeF: case Op::GtF: case Op::GeF:
    case Op::EqP: case Op::NeP:
      return true;
    default:
      return false;
  }
}

bool isJump(const Insn& insn) {
  return insn.op == Op::Jmp || insn.op == Op::Jz || insn.op == Op::Jnz;
}

/// A jump to the next instruction does nothing but retire its weight.
bool isTrivialJmp(const Insn& insn, std::size_t pc) {
  return insn.op == Op::Jmp && static_cast<std::size_t>(insn.a) == pc + 1;
}

/// Stack IR -> register code for one function.
///
/// Register file: slots [0, S), operand-stack height h in register S + h,
/// constants after the stack registers.  Translation walks each basic block
/// with a symbolic operand stack whose entries name the register holding
/// each value: a LoadSlot pushes the slot's register and a PushI/PushF a
/// constant register, both emitting nothing, so they become operands of the
/// instruction that consumes them.  A StoreSlot retargets the instruction
/// that produced the stored value to write the slot.  A slot entry is copied
/// into its stack register before anything writes that slot, and every entry
/// is in its own stack register at block boundaries, so successors see the
/// canonical layout.
///
/// Weights: a folded instruction's weight rides on the next instruction the
/// block emits (or on the block's last one), so per-block retired counts,
/// and with them all counts on every path, are those of the stack code.
class Translator {
 public:
  Translator(FunctionCode& fn, const std::vector<FunctionCode>& fns)
      : fn_(fn), code_(fn.code), fns_(fns), S_(fn.numSlots) {
    height_ = computeStackHeights(fn, fns);
    fn_.maxStack = computeMaxStack(fn, fns, height_);
    constBase_ = S_ + fn_.maxStack;
    const std::size_t n = code_.size();
    leader_.assign(n + 1, 0);
    leader_[0] = 1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Insn& insn = code_[pc];
      if (isTrivialJmp(insn, pc)) continue;
      if (isJump(insn)) {
        leader_[static_cast<std::size_t>(insn.a)] = 1;
        leader_[pc + 1] = 1;
      }
      if (effectOf(insn, fns).terminal) leader_[pc + 1] = 1;
    }
    newIndexOf_.assign(n + 1, -1);
  }

  void run() {
    fn_.packed.clear();
    fn_.packedOrigin.clear();
    fn_.pool.clear();
    fn_.poolIsFloat.clear();
    const std::size_t n = code_.size();
    bool open = false;  // the current block falls through into pc
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (leader_[pc]) {
        if (open) endBlock(pc);
        open = height_[pc] >= 0;
        if (open) startBlock(pc);
      }
      if (height_[pc] < 0) continue;  // unreachable
      origin_ = code_[pc].origin;
      pc += translate(pc);
      const Insn& last = code_[pc];
      if (last.op == Op::Jmp && !isTrivialJmp(last, pc)) open = false;
      if (effectOf(last, fns_).terminal) open = false;
    }
    SKELCL_CHECK(!open, "control flow runs off the end of '" + fn_.name + "'");
    fn_.branchHeight.assign(fn_.packed.size(), 0);
    for (const Fixup& f : fixups_) {
      const std::int32_t target = newIndexOf_[static_cast<std::size_t>(fn_.packed[f.at].k)];
      SKELCL_CHECK(target >= 0, "branch to untranslated code in '" + fn_.name + "'");
      fn_.packed[f.at].k = target;
      fn_.branchHeight[f.at] = f.height;
    }
    fn_.numRegs = constBase_ + static_cast<int>(fn_.pool.size());
  }

 private:
  // --- symbolic operand stack ----------------------------------------------
  void push(std::int32_t reg) { stack_.push_back(reg); }
  std::int32_t pop() {
    const std::int32_t reg = stack_.back();
    stack_.pop_back();
    return reg;
  }
  std::int32_t top() const { return stack_.back(); }
  std::int32_t nextStackReg() const { return S_ + static_cast<std::int32_t>(stack_.size()); }

  std::int32_t constReg(std::uint64_t bits, bool isFloat) {
    const auto [it, inserted] = constIndex_.emplace(std::make_pair(bits, isFloat),
                                                    static_cast<std::int32_t>(fn_.pool.size()));
    if (inserted) {
      fn_.pool.push_back(bits);
      fn_.poolIsFloat.push_back(isFloat);
    }
    return constBase_ + it->second;
  }

  // --- emission ------------------------------------------------------------
  void retire(int weight) {
    if (pending_ + weight > 255) emitNop();
    pending_ += weight;
  }

  /// A no-op (an empty ZeroSlots) that carries the pending weight.
  void emitNop() {
    const int w = pending_;
    pending_ = 0;
    emitRaw(PackedInsn{Op::ZeroSlots, static_cast<std::uint8_t>(w), 0, 0, 0, 0}, -1);
  }

  void emitRaw(const PackedInsn& p, std::int32_t dst) {
    fn_.packed.push_back(p);
    fn_.packedOrigin.push_back(origin_);
    writes_.push_back(dst);
  }

  /// Take back this block's last instruction; its weight stays pending.
  PackedInsn unemit() {
    const PackedInsn p = fn_.packed.back();
    fn_.packed.pop_back();
    fn_.packedOrigin.pop_back();
    writes_.pop_back();
    retire(p.weight);
    return p;
  }

  /// The register this block's last instruction wrote, or -1.
  std::int32_t lastDst() const {
    return fn_.packed.size() > blockStart_ ? writes_.back() : -1;
  }

  /// Emit one instruction carrying its own weight plus the pending one.
  /// `dst` is the register it writes (-1 if none).
  void emit(Op op, std::int32_t a, std::int32_t b, std::int32_t k, std::uint16_t c, int weight,
            std::int32_t dst) {
    if (pending_ + weight > 255) emitNop();
    const int w = pending_ + weight;
    pending_ = 0;
    emitRaw(PackedInsn{op, static_cast<std::uint8_t>(w), c, a, b, k}, dst);
  }

  /// Emit a value-producing instruction into the next stack register.
  void emitValue(Op op, std::int32_t a, std::int32_t b, std::uint16_t c, int weight) {
    const std::int32_t dst = nextStackReg();
    emit(op, a, b, dst, c, weight, dst);
    push(dst);
  }

  /// A branch to the stack-code pc `target` (remapped once all blocks are
  /// placed).  `c` is the fused comparison (0 if none); the live stack
  /// height, which the batched interpreter permutes on divergence, goes to
  /// FunctionCode::branchHeight.
  void emitBranch(Op op, std::int32_t a, std::int32_t b, std::int32_t target, Op cmp,
                  int weight) {
    emit(op, a, b, target, static_cast<std::uint16_t>(cmp), weight, -1);
    fixups_.push_back(Fixup{fn_.packed.size() - 1, static_cast<std::int32_t>(stack_.size())});
  }

  /// Move stack entry `pos` into its own stack register.
  void materialize(std::size_t pos) {
    const std::int32_t own = S_ + static_cast<std::int32_t>(pos);
    if (stack_[pos] == own) return;
    emit(Op::Mov, stack_[pos], 0, own, 0, 0, own);
    stack_[pos] = own;
  }

  void materializeAll() {
    for (std::size_t pos = 0; pos < stack_.size(); ++pos) materialize(pos);
  }

  /// Before slot `s` is written: entries still naming it take a copy.
  void saveSlotRefs(std::int32_t s) {
    for (std::size_t pos = 0; pos < stack_.size(); ++pos) {
      if (stack_[pos] == s) materialize(pos);
    }
  }

  // --- blocks --------------------------------------------------------------
  void startBlock(std::size_t pc) {
    blockStart_ = fn_.packed.size();
    newIndexOf_[pc] = static_cast<std::int32_t>(blockStart_);
    stack_.clear();
    for (int h = 0; h < height_[pc]; ++h) push(S_ + h);
  }

  /// True when `reg` is the top stack entry's own register and no other
  /// entry names it, so the value dies when the top is popped.
  bool isOwnTop(std::int32_t reg) const {
    if (stack_.empty() || reg != S_ + static_cast<std::int32_t>(stack_.size()) - 1) return false;
    return std::count(stack_.begin(), stack_.end(), reg) == 1;
  }

  /// Control is about to reach leader `target` (by a Jmp retiring
  /// `jmpWeight`, or by falling through).  When `target` holds a lone
  /// Jz/Jnz testing the top of the stack, and this block knows that value
  /// as a constant or has just computed it with a comparison (possibly
  /// normalized by BoolNorm, which a zero test ignores), branch here
  /// instead: a constant resolves to one jump, a comparison fuses into a
  /// CmpJz/CmpJnz.  The copy retires the Jz's weight on this path, so the
  /// counts of every path stay those of the stack code.
  bool threadInto(std::size_t target, int jmpWeight) {
    const Insn& br = code_[target];
    if ((br.op != Op::Jz && br.op != Op::Jnz) || stack_.empty()) return false;
    const std::int32_t cond = stack_.back();
    const std::size_t next = target + 1;
    if (cond >= constBase_) {
      const bool zero = fn_.pool[static_cast<std::size_t>(cond - constBase_)] == 0;
      stack_.pop_back();
      retire(jmpWeight);
      jumpTo(zero == (br.op == Op::Jz) ? static_cast<std::size_t>(br.a) : next, br.weight);
      return true;
    }
    if (!isOwnTop(cond) || lastDst() != cond) return false;
    std::size_t peel = 0;
    if (fn_.packed.back().op == Op::BoolNorm) {
      const std::int32_t inner = fn_.packed.back().a;
      const std::size_t n = fn_.packed.size();
      if ((inner != cond && std::count(stack_.begin(), stack_.end(), inner) != 0) ||
          n < blockStart_ + 2 || writes_[n - 2] != inner) {
        return false;
      }
      peel = 1;
    }
    const PackedInsn& producer = fn_.packed[fn_.packed.size() - 1 - peel];
    const int weight = pending_ + jmpWeight + br.weight + producer.weight +
                       (peel ? fn_.packed.back().weight : 0);
    if (!isCompare(producer.op) || weight > 255) return false;
    if (peel) unemit();
    const PackedInsn cmp = unemit();
    stack_.pop_back();
    materializeAll();
    retire(jmpWeight);
    emitBranch(br.op == Op::Jz ? Op::CmpJz : Op::CmpJnz, cmp.a, cmp.b, br.a,
               cmp.op, br.weight);
    jumpTo(next, 0);
    return true;
  }

  /// An unconditional jump to stack-code pc `target` retiring `weight`,
  /// threaded into a lone conditional branch there when possible.
  void jumpTo(std::size_t target, int weight) {
    if (threadInto(target, weight)) return;
    materializeAll();
    emitBranch(Op::Jmp, 0, 0, static_cast<std::int32_t>(target), Op{}, weight);
  }

  /// The block falls through into leader `pc`: canonical stack, and the
  /// weight of trailing folded instructions joins the block's last
  /// instruction.
  void endBlock(std::size_t pc) {
    if (threadInto(pc, 0)) return;
    materializeAll();
    if (pending_ == 0) return;
    if (fn_.packed.size() > blockStart_ && fn_.packed.back().weight + pending_ <= 255) {
      fn_.packed.back().weight = static_cast<std::uint8_t>(fn_.packed.back().weight + pending_);
      pending_ = 0;
    } else {
      emitNop();
    }
  }

  // --- instructions ----------------------------------------------------------
  void storeSlot(std::int32_t s, int weight) {
    const std::int32_t value = pop();
    retire(weight);
    if (value == s) return;  // x = x
    // Retarget the producer of `value` when it is this block's last
    // instruction and wrote a stack register: it writes the slot instead.
    if (value >= S_ && value == lastDst()) {
      const auto pos = static_cast<std::size_t>(value - S_);
      bool laterRef = false;
      for (std::size_t q = pos; q < stack_.size(); ++q) laterRef = laterRef || stack_[q] == s;
      if (!laterRef) {
        // Entries below still holding the slot's old value copy it before
        // the producer overwrites the slot.
        for (std::size_t q = 0; q < pos && q < stack_.size(); ++q) {
          if (stack_[q] != s) continue;
          const std::int32_t own = S_ + static_cast<std::int32_t>(q);
          const auto at = static_cast<std::ptrdiff_t>(fn_.packed.size() - 1);
          fn_.packed.insert(fn_.packed.begin() + at, PackedInsn{Op::Mov, 0, 0, s, 0, own});
          fn_.packedOrigin.insert(fn_.packedOrigin.begin() + at, origin_);
          writes_.insert(writes_.begin() + at, own);
          stack_[q] = own;
        }
        fn_.packed.back().k = s;
        writes_.back() = s;
        for (std::int32_t& e : stack_) {
          if (e == value) e = s;
        }
        return;
      }
    }
    saveSlotRefs(s);
    emit(Op::Mov, value, 0, s, 0, 0, s);
  }

  /// Arguments of a call as one register range: in place when they already
  /// are consecutive registers, else copied into their stack registers.
  std::int32_t argumentBase(std::size_t argc) {
    const std::size_t p0 = stack_.size() - argc;
    if (argc == 0) return S_ + static_cast<std::int32_t>(p0);
    bool consecutive = true;
    for (std::size_t i = 1; i < argc; ++i) {
      consecutive = consecutive && stack_[p0 + i] == stack_[p0] + static_cast<std::int32_t>(i);
    }
    if (!consecutive) {
      for (std::size_t i = 0; i < argc; ++i) materialize(p0 + i);
    }
    const std::int32_t base = stack_[p0];
    stack_.resize(p0);
    return base;
  }

  /// CallFn: a = function, b = first argument register (a contiguous range).
  void callFunction(std::int32_t fnIndex, std::size_t argc, bool hasResult, int weight) {
    const std::int32_t base = argumentBase(argc);
    if (hasResult) {
      emitValue(Op::CallFn, fnIndex, base, 0, weight);
    } else {
      emit(Op::CallFn, fnIndex, base, 0, 0, weight, -1);
    }
  }

  /// CallBuiltin: c = builtin id; up to two arguments are read from any
  /// registers a and b, more from the contiguous range starting at a.
  void callBuiltin(std::int32_t id, std::size_t argc, bool hasResult, int weight) {
    SKELCL_CHECK(id >= 0 && id <= 0xFFFF, "builtin id exceeds the packed encoding");
    std::int32_t a = 0;
    std::int32_t b = 0;
    if (argc <= 2) {
      if (argc == 2) b = pop();
      if (argc >= 1) a = pop();
      if (argc == 1) b = a;
    } else {
      a = argumentBase(argc);
    }
    const auto c = static_cast<std::uint16_t>(id);
    if (hasResult) {
      emitValue(Op::CallBuiltin, a, b, c, weight);
    } else {
      emit(Op::CallBuiltin, a, b, 0, c, weight, -1);
    }
  }

  /// Translate the instruction at `pc`; returns how many following
  /// instructions it consumed as well (a fused conditional branch).
  std::size_t translate(std::size_t pc) {
    const Insn& insn = code_[pc];
    const int w = insn.weight;
    switch (insn.op) {
      case Op::PushI:
        push(constReg(static_cast<std::uint64_t>(insn.imm), false));
        retire(w);
        return 0;
      case Op::PushF: {
        std::uint64_t bits;
        std::memcpy(&bits, &insn.fimm, sizeof bits);
        push(constReg(bits, true));
        retire(w);
        return 0;
      }
      case Op::LoadSlot:
        push(insn.a);
        retire(w);
        return 0;
      case Op::StoreSlot:
        storeSlot(insn.a, w);
        return 0;
      case Op::Dup:
        push(top());
        retire(w);
        return 0;
      case Op::Drop:
        pop();
        retire(w);
        return 0;
      case Op::ZeroSlots:
        for (std::int32_t s = insn.a; s < insn.a + insn.b; ++s) saveSlotRefs(s);
        emit(Op::ZeroSlots, insn.a, insn.b, 0, 0, w, -1);
        return 0;
      case Op::LeaFrame:
        emitValue(Op::LeaFrame, insn.a, 0, 0, w);
        return 0;
      case Op::LoadI32: case Op::LoadU32: case Op::LoadF32: case Op::LoadF64:
      case Op::LoadI64:
        emitValue(insn.op, pop(), 0, 0, w);
        return 0;
      case Op::StoreI32: case Op::StoreI64: case Op::StoreF32: case Op::StoreF64: {
        const std::int32_t value = pop();
        const std::int32_t ptr = pop();
        emit(insn.op, ptr, value, 0, 0, w, -1);
        return 0;
      }
      case Op::MemCopy: {
        const std::int32_t src = pop();
        const std::int32_t dst = pop();
        emit(Op::MemCopy, dst, src, insn.a, 0, w, -1);
        return 0;
      }
      case Op::PtrAdd: {
        std::int32_t index = pop();
        const std::int32_t ptr = pop();
        std::int32_t size = insn.a;
        if (size < 0 || size > 0xFFFF) {
          // Too big for `c`: scale the index first (same 64-bit product).
          const std::int32_t scaled = nextStackReg() + 1;
          emit(Op::MulL, index, constReg(static_cast<std::uint64_t>(std::int64_t{size}), false),
               scaled, 0, 0, scaled);
          index = scaled;
          size = 1;
        }
        emitValue(Op::PtrAdd, ptr, index, static_cast<std::uint16_t>(size), w);
        return 0;
      }
      case Op::Jmp:
        if (isTrivialJmp(insn, pc)) {
          retire(w);
          return 0;
        }
        jumpTo(static_cast<std::size_t>(insn.a), w);
        return 0;
      case Op::Jz: case Op::Jnz: {
        const std::int32_t cond = pop();
        materializeAll();
        emitBranch(insn.op, cond, 0, insn.a, Op{}, w);
        return 0;
      }
      case Op::CallFn: {
        const FunctionCode& callee = fns_[static_cast<std::size_t>(insn.a)];
        callFunction(insn.a, callee.paramTypes.size(), callee.returnType != types::Void, w);
        return 0;
      }
      case Op::CallBuiltin: {
        const BuiltinDef& def = builtinTable().at(static_cast<std::size_t>(insn.a));
        SKELCL_CHECK(def.params.size() == static_cast<std::size_t>(insn.b),
                     "builtin arity mismatch in '" + fn_.name + "'");
        callBuiltin(insn.a, def.params.size(), def.ret != BType::Void, w);
        return 0;
      }
      case Op::Ret:
        emit(Op::Ret, pop(), 0, 0, 0, w, -1);
        return 0;
      case Op::RetVoid: case Op::Trap:
        emit(insn.op, insn.a, 0, 0, 0, w, -1);
        return 0;
      case Op::Mov: case Op::CmpJz: case Op::CmpJnz:
        SKELCL_CHECK(false, "register-form opcode in stack code of '" + fn_.name + "'");
        return 0;
      default:
        break;
    }
    if (effectOf(insn, fns_).delta == 0) {  // unary operators and conversions
      emitValue(insn.op, pop(), 0, 0, w);
      return 0;
    }
    const std::int32_t rhs = pop();
    const std::int32_t lhs = pop();
    const Insn* next = pc + 1 < code_.size() ? &code_[pc + 1] : nullptr;
    if (isCompare(insn.op) && next != nullptr && !leader_[pc + 1] &&
        (next->op == Op::Jz || next->op == Op::Jnz)) {
      materializeAll();
      emitBranch(next->op == Op::Jz ? Op::CmpJz : Op::CmpJnz, lhs, rhs, next->a, insn.op,
                 w + next->weight);
      return 1;
    }
    emitValue(insn.op, lhs, rhs, 0, w);
    return 0;
  }

  FunctionCode& fn_;
  const std::vector<Insn>& code_;
  const std::vector<FunctionCode>& fns_;
  const std::int32_t S_;
  std::int32_t constBase_ = 0;
  std::vector<int> height_;
  std::vector<char> leader_;
  std::vector<std::int32_t> newIndexOf_;
  struct Fixup {
    std::size_t at;       ///< packed index of a branch
    std::int32_t height;  ///< live operand-stack height there
  };
  std::vector<Fixup> fixups_;
  std::map<std::pair<std::uint64_t, bool>, std::int32_t> constIndex_;
  std::vector<std::int32_t> stack_;
  std::size_t blockStart_ = 0;
  std::vector<std::int32_t> writes_;  ///< register each packed insn writes, or -1
  int pending_ = 0;
  std::int32_t origin_ = -1;
};

/// Work-group-batched execution interleaves the work-items of a group
/// instruction-by-instruction, reordering their memory accesses relative to
/// sequential per-item execution.  Restrict it to kernels where that
/// reordering is unobservable: no calls into other functions (whose bodies
/// we'd have to analyze transitively), no frame memory (per-lane frames
/// don't fit the strided arena), and no ordering-sensitive builtins.
bool computeBatchable(const FunctionCode& fn) {
  if (!fn.isKernel || fn.frameBytes != 0) return false;
  for (const Insn& insn : fn.code) {
    switch (insn.op) {
      case Op::CallFn:
      case Op::LeaFrame:
      case Op::MemCopy:
      case Op::Ret:
        return false;
      case Op::CallBuiltin: {
        const BuiltinDef& def = builtinTable().at(static_cast<std::size_t>(insn.a));
        if (std::strcmp(def.name, "barrier") == 0) return false;
        if (std::strncmp(def.name, "atomic_", 7) == 0) return false;
        break;
      }
      default:
        break;
    }
  }
  return true;
}

}  // namespace

/// Forward dataflow over the (reducible, compiler-generated) CFG: the stack
/// height at each pc is unique.
std::vector<int> computeStackHeights(const FunctionCode& fn,
                                     const std::vector<FunctionCode>& fns) {
  const std::size_t n = fn.code.size();
  std::vector<int> height(n, -1);
  if (n == 0) return height;
  std::vector<std::size_t> work;
  height[0] = 0;
  work.push_back(0);
  auto propagate = [&](std::size_t pc, int h) {
    SKELCL_CHECK(pc < n, "control flow runs off the end of the function");
    if (height[pc] < 0) {
      height[pc] = h;
      work.push_back(pc);
    } else {
      SKELCL_CHECK(height[pc] == h, "inconsistent stack height in '" + fn.name + "'");
    }
  };
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Insn& insn = fn.code[pc];
    const Effect e = effectOf(insn, fns);
    const int after = height[pc] + e.delta;
    SKELCL_CHECK(after >= 0, "stack underflow in '" + fn.name + "'");
    if (e.terminal) continue;
    if (e.jumps) propagate(static_cast<std::size_t>(insn.a), after);
    if (e.falls) propagate(pc + 1, after);
  }
  return height;
}

void finalizeFunctions(std::vector<FunctionCode>& fns) {
  for (FunctionCode& fn : fns) {
    Translator(fn, fns).run();
    fn.batchable = computeBatchable(fn);
  }
}

}  // namespace skelcl::kc
