#include "kernelc/inline.hpp"

#include <cstddef>
#include <cstdint>

#include "base/error.hpp"
#include "kernelc/encode.hpp"

namespace skelcl::kc {

namespace {

/// Callees longer than this stay calls, which bounds code growth.  User
/// functions merged into skeleton kernels are a few dozen instructions.
constexpr std::size_t kMaxInlinedInsns = 1024;

bool isJump(Op op) { return op == Op::Jmp || op == Op::Jz || op == Op::Jnz; }

/// Whether calls to `fn` (whose own calls are already inlined) can be
/// expanded in place.
bool isInlinable(const FunctionCode& fn, const std::vector<FunctionCode>& fns) {
  if (fn.isKernel || fn.frameBytes != 0 || fn.code.size() > kMaxInlinedInsns) return false;
  for (const Insn& insn : fn.code) {
    if (insn.op == Op::CallFn) return false;
  }
  // A return must leave exactly its result on the stack: the inlined copy
  // jumps to the continuation without unwinding anything.
  const std::vector<int> height = computeStackHeights(fn, fns);
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (height[pc] < 0) continue;
    if (fn.code[pc].op == Op::Ret && height[pc] != 1) return false;
    if (fn.code[pc].op == Op::RetVoid && height[pc] != 0) return false;
  }
  return true;
}

Insn make(Op op, std::int32_t a, std::uint8_t weight, std::int32_t origin) {
  Insn insn;
  insn.op = op;
  insn.a = a;
  insn.weight = weight;
  insn.origin = origin;
  return insn;
}

/// Number of instructions the expansion of a call to `callee` occupies.
std::size_t expansionSize(const FunctionCode& callee) {
  const std::size_t argc = callee.paramTypes.size();
  const std::size_t locals = static_cast<std::size_t>(callee.numSlots) - argc;
  return (argc > 0 ? argc : 1) + 2 * locals + callee.code.size();
}

/// Rewrite `caller` with every inlinable call expanded.  All callees share
/// one slot range after the caller's own slots: inlined bodies never
/// overlap in time, and each copy zeroes its locals.
void inlineInto(FunctionCode& caller, const std::vector<FunctionCode>& fns,
                const std::vector<char>& inlinable) {
  const std::vector<Insn>& code = caller.code;
  const std::size_t n = code.size();
  const auto expands = [&](const Insn& insn) {
    return insn.op == Op::CallFn && inlinable[static_cast<std::size_t>(insn.a)];
  };

  std::vector<std::int32_t> newIndexOf(n + 1);
  std::size_t size = 0;
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    newIndexOf[i] = static_cast<std::int32_t>(size);
    if (expands(code[i])) {
      size += expansionSize(fns[static_cast<std::size_t>(code[i].a)]);
      any = true;
    } else {
      ++size;
    }
  }
  newIndexOf[n] = static_cast<std::int32_t>(size);
  if (!any) return;

  const std::int32_t base = caller.numSlots;
  int extraSlots = 0;
  std::vector<Insn> out;
  out.reserve(size);
  for (const Insn& insn : code) {
    if (!expands(insn)) {
      out.push_back(insn);
      if (isJump(insn.op)) out.back().a = newIndexOf[static_cast<std::size_t>(insn.a)];
      continue;
    }
    const std::int32_t from = insn.a;
    const FunctionCode& callee = fns[static_cast<std::size_t>(from)];
    if (callee.numSlots > extraSlots) extraSlots = callee.numSlots;

    // Entry: pop the arguments into the parameter slots, last first; the
    // first store retires the call.  A call without arguments retires on a
    // jump to the next instruction instead.
    const auto argc = static_cast<std::int32_t>(callee.paramTypes.size());
    if (argc == 0) {
      out.push_back(make(Op::Jmp, static_cast<std::int32_t>(out.size()) + 1, insn.weight, from));
    }
    for (std::int32_t p = argc - 1; p >= 0; --p) {
      out.push_back(make(Op::StoreSlot, base + p, p == argc - 1 ? insn.weight : 0, from));
    }
    // Locals are value-initialized on every call, also inside a loop.
    for (std::int32_t s = argc; s < callee.numSlots; ++s) {
      out.push_back(make(Op::PushI, 0, 0, from));
      out.push_back(make(Op::StoreSlot, base + s, 0, from));
    }

    // Body: slots shifted into the shared range, jumps rebased, returns
    // turned into jumps to the continuation that retire the return.
    const auto bodyStart = static_cast<std::int32_t>(out.size());
    const auto continuation = bodyStart + static_cast<std::int32_t>(callee.code.size());
    for (const Insn& c : callee.code) {
      Insn copy = c;
      if (copy.origin < 0) copy.origin = from;
      switch (c.op) {
        case Op::LoadSlot: case Op::StoreSlot:
          copy.a = base + c.a;
          break;
        case Op::Jmp: case Op::Jz: case Op::Jnz:
          copy.a = bodyStart + c.a;
          break;
        case Op::Ret: case Op::RetVoid:
          copy = make(Op::Jmp, continuation, c.weight, copy.origin);
          break;
        default:
          SKELCL_CHECK(c.op < Op::PtrAddImm, "inlining runs before the peephole pass");
          break;
      }
      out.push_back(copy);
    }
  }
  SKELCL_CHECK(out.size() == size, "inlined code size mismatch");
  caller.code = std::move(out);
  caller.numSlots = base + extraSlots;
}

}  // namespace

void inlineCalls(std::vector<FunctionCode>& fns) {
  std::vector<char> inlinable(fns.size(), 0);
  // Post-order DFS over the call graph.  A call into a function that is
  // visited but not yet analyzed (still on the DFS stack: a cycle) finds it
  // not inlinable, so the call stays and every function on a cycle keeps a
  // call.
  std::vector<char> visited(fns.size(), 0);
  const auto visit = [&](const auto& self, std::size_t f) -> void {
    visited[f] = 1;
    for (const Insn& insn : fns[f].code) {
      const auto callee = static_cast<std::size_t>(insn.a);
      if (insn.op == Op::CallFn && !visited[callee]) self(self, callee);
    }
    inlineInto(fns[f], fns, inlinable);
    inlinable[f] = isInlinable(fns[f], fns);
  };
  for (std::size_t f = 0; f < fns.size(); ++f) {
    if (!visited[f]) visit(visit, f);
  }
}

}  // namespace skelcl::kc
