#include "kernelc/disasm.hpp"

#include <cstring>
#include <iomanip>
#include <sstream>

#include "kernelc/builtins.hpp"

namespace skelcl::kc {

const char* opName(Op op) {
  switch (op) {
    case Op::PushI: return "push.i";
    case Op::PushF: return "push.f";
    case Op::LoadSlot: return "load.slot";
    case Op::StoreSlot: return "store.slot";
    case Op::LeaFrame: return "lea.frame";
    case Op::LoadI32: return "load.i32";
    case Op::LoadU32: return "load.u32";
    case Op::LoadF32: return "load.f32";
    case Op::LoadF64: return "load.f64";
    case Op::LoadI64: return "load.i64";
    case Op::StoreI32: return "store.i32";
    case Op::StoreI64: return "store.i64";
    case Op::StoreF32: return "store.f32";
    case Op::StoreF64: return "store.f64";
    case Op::MemCopy: return "memcopy";
    case Op::PtrAdd: return "ptradd";
    case Op::AddI: return "add.i";
    case Op::SubI: return "sub.i";
    case Op::MulI: return "mul.i";
    case Op::DivI: return "div.i";
    case Op::RemI: return "rem.i";
    case Op::NegI: return "neg.i";
    case Op::DivU: return "div.u";
    case Op::RemU: return "rem.u";
    case Op::AndI: return "and.i";
    case Op::OrI: return "or.i";
    case Op::XorI: return "xor.i";
    case Op::ShlI: return "shl.i";
    case Op::ShrI: return "shr.i";
    case Op::ShrU: return "shr.u";
    case Op::NotI: return "not.i";
    case Op::AddL: return "add.l";
    case Op::SubL: return "sub.l";
    case Op::MulL: return "mul.l";
    case Op::DivL: return "div.l";
    case Op::RemL: return "rem.l";
    case Op::NegL: return "neg.l";
    case Op::DivUL: return "div.ul";
    case Op::RemUL: return "rem.ul";
    case Op::AndL: return "and.l";
    case Op::OrL: return "or.l";
    case Op::XorL: return "xor.l";
    case Op::ShlL: return "shl.l";
    case Op::ShrL: return "shr.l";
    case Op::ShrUL: return "shr.ul";
    case Op::NotL: return "not.l";
    case Op::AddF32: return "add.f32";
    case Op::SubF32: return "sub.f32";
    case Op::MulF32: return "mul.f32";
    case Op::DivF32: return "div.f32";
    case Op::NegF32: return "neg.f32";
    case Op::AddF64: return "add.f64";
    case Op::SubF64: return "sub.f64";
    case Op::MulF64: return "mul.f64";
    case Op::DivF64: return "div.f64";
    case Op::NegF64: return "neg.f64";
    case Op::EqI: return "eq.i";
    case Op::NeI: return "ne.i";
    case Op::LtI: return "lt.i";
    case Op::LeI: return "le.i";
    case Op::GtI: return "gt.i";
    case Op::GeI: return "ge.i";
    case Op::LtU: return "lt.u";
    case Op::LeU: return "le.u";
    case Op::GtU: return "gt.u";
    case Op::GeU: return "ge.u";
    case Op::LtUL: return "lt.ul";
    case Op::LeUL: return "le.ul";
    case Op::GtUL: return "gt.ul";
    case Op::GeUL: return "ge.ul";
    case Op::EqF: return "eq.f";
    case Op::NeF: return "ne.f";
    case Op::LtF: return "lt.f";
    case Op::LeF: return "le.f";
    case Op::GtF: return "gt.f";
    case Op::GeF: return "ge.f";
    case Op::EqP: return "eq.p";
    case Op::NeP: return "ne.p";
    case Op::LNot: return "lnot";
    case Op::I2F32: return "cvt.i.f32";
    case Op::I2F64: return "cvt.i.f64";
    case Op::U2F32: return "cvt.u.f32";
    case Op::U2F64: return "cvt.u.f64";
    case Op::UL2F32: return "cvt.ul.f32";
    case Op::UL2F64: return "cvt.ul.f64";
    case Op::F2I: return "cvt.f.i";
    case Op::F2U: return "cvt.f.u";
    case Op::F2L: return "cvt.f.l";
    case Op::F2UL: return "cvt.f.ul";
    case Op::F64toF32: return "cvt.f64.f32";
    case Op::I2U: return "cvt.i.u";
    case Op::U2I: return "cvt.u.i";
    case Op::BoolNorm: return "boolnorm";
    case Op::Jmp: return "jmp";
    case Op::Jz: return "jz";
    case Op::Jnz: return "jnz";
    case Op::CallFn: return "call";
    case Op::CallBuiltin: return "call.builtin";
    case Op::Ret: return "ret";
    case Op::RetVoid: return "ret.void";
    case Op::Dup: return "dup";
    case Op::Drop: return "drop";
    case Op::Trap: return "trap";
    case Op::ZeroSlots: return "zero.slots";
    case Op::Mov: return "mov";
    case Op::CmpJz: return "cmp.jz";
    case Op::CmpJnz: return "cmp.jnz";
  }
  return "?";
}

std::string disassemble(const FunctionCode& fn) {
  std::ostringstream os;
  os << (fn.isKernel ? "kernel " : "function ") << fn.name << " (slots=" << fn.numSlots
     << ", frame=" << fn.frameBytes << "B)\n";
  for (std::size_t i = 0; i < fn.code.size(); ++i) {
    const Insn& insn = fn.code[i];
    os << std::setw(5) << i << "  " << opName(insn.op);
    switch (insn.op) {
      case Op::PushI:
        os << " " << insn.imm;
        break;
      case Op::PushF:
        os << " " << insn.fimm;
        break;
      case Op::LoadSlot:
      case Op::StoreSlot:
      case Op::LeaFrame:
      case Op::MemCopy:
      case Op::PtrAdd:
      case Op::Jmp:
      case Op::Jz:
      case Op::Jnz:
      case Op::CallFn:
        os << " " << insn.a;
        break;
      case Op::CallBuiltin:
        os << " " << insn.a << " argc=" << insn.b;
        break;
      case Op::ZeroSlots:
        os << " " << insn.a << " count=" << insn.b;
        break;
      default:
        break;
    }
    if (insn.weight != 1) os << "  ;w=" << static_cast<int>(insn.weight);
    os << "\n";
  }
  return os.str();
}

namespace {

/// A register operand of the packed code, printed as rN.
struct Reg {
  std::int32_t index;
};

std::ostream& operator<<(std::ostream& os, Reg reg) { return os << 'r' << reg.index; }

}  // namespace

std::string disassemblePacked(const FunctionCode& fn) {
  std::ostringstream os;
  os << (fn.isKernel ? "kernel " : "function ") << fn.name << " (slots=" << fn.numSlots
     << ", frame=" << fn.frameBytes << "B, maxstack=" << fn.maxStack
     << ", pool=" << fn.pool.size() << ", regs=" << fn.numRegs << ")\n";
  // Frame entry writes every pool constant into its register.
  const std::size_t constBase = static_cast<std::size_t>(fn.numRegs) - fn.pool.size();
  for (std::size_t i = 0; i < fn.pool.size(); ++i) {
    os << "  entry  ";
    if (fn.poolIsFloat[i]) {
      double v;
      std::memcpy(&v, &fn.pool[i], sizeof v);
      os << "push.cf [" << i << "]=" << v;
    } else {
      os << "push.ci [" << i << "]=" << static_cast<std::int64_t>(fn.pool[i]);
    }
    os << " -> r" << constBase + i << "\n";
  }
  const auto r = [](std::int32_t reg) { return Reg{reg}; };
  for (std::size_t i = 0; i < fn.packed.size(); ++i) {
    const PackedInsn& insn = fn.packed[i];
    os << std::setw(5) << i << "  " << opName(insn.op);
    switch (insn.op) {
      case Op::Jmp:
        os << " " << insn.k;
        break;
      case Op::Jz:
      case Op::Jnz:
        os << " " << r(insn.a) << ", " << insn.k;
        break;
      case Op::CmpJz:
      case Op::CmpJnz:
        os << " " << insn.k << " (" << opName(static_cast<Op>(insn.c)) << " "
           << r(insn.a) << ", " << r(insn.b) << ")";
        break;
      case Op::StoreI32:
      case Op::StoreI64:
      case Op::StoreF32:
      case Op::StoreF64:
        os << " [" << r(insn.a) << "], " << r(insn.b);
        break;
      case Op::MemCopy:
        os << " [" << r(insn.a) << "], [" << r(insn.b) << "], " << insn.k << "B";
        break;
      case Op::ZeroSlots:
        if (insn.b > 0) os << " " << r(insn.a) << ".." << r(insn.a + insn.b - 1);
        break;
      case Op::LeaFrame:
        os << " " << r(insn.k) << ", +" << insn.a;
        break;
      case Op::PtrAdd:
        os << " " << r(insn.k) << ", " << r(insn.a) << ", " << r(insn.b) << "*" << insn.c;
        break;
      case Op::CallFn:
        os << " " << r(insn.k) << ", fn" << insn.a << "(" << r(insn.b) << "..)";
        break;
      case Op::CallBuiltin: {
        const BuiltinDef& def = builtinTable().at(insn.c);
        os << " " << r(insn.k) << ", " << def.name << "(";
        for (std::size_t i = 0; i < def.params.size(); ++i) {
          const auto reg = static_cast<std::int32_t>(i);
          os << (i > 0 ? ", " : "")
             << r(def.params.size() <= 2 ? (i == 0 ? insn.a : insn.b) : insn.a + reg);
        }
        os << ")";
        break;
      }
      case Op::Ret:
        os << " " << r(insn.a);
        break;
      case Op::RetVoid:
      case Op::Trap:
        break;
      case Op::Mov:
      case Op::LoadI32: case Op::LoadU32: case Op::LoadF32: case Op::LoadF64: case Op::LoadI64:
      case Op::NegI: case Op::NotI: case Op::NegL: case Op::NotL:
      case Op::NegF32: case Op::NegF64: case Op::LNot:
      case Op::I2F32: case Op::I2F64: case Op::U2F32: case Op::U2F64:
      case Op::UL2F32: case Op::UL2F64: case Op::F2I: case Op::F2U: case Op::F2L:
      case Op::F2UL: case Op::F64toF32: case Op::I2U: case Op::U2I: case Op::BoolNorm:
        os << " " << r(insn.k) << ", " << r(insn.a);
        break;
      default:  // binary operators and comparisons
        os << " " << r(insn.k) << ", " << r(insn.a) << ", " << r(insn.b);
        break;
    }
    if (insn.weight != 1) os << "  ;w=" << static_cast<int>(insn.weight);
    os << "\n";
  }
  return os.str();
}

}  // namespace skelcl::kc
