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

/// Number of `fn`'s instructions an inlined copy needs (its unreachable
/// trailing Trap is left out), or 0 when calls to `fn` (whose own calls are
/// already inlined) cannot be expanded in place.
std::size_t inlinedBodySize(const FunctionCode& fn, const std::vector<FunctionCode>& fns) {
  if (fn.isKernel || fn.frameBytes != 0 || fn.code.size() > kMaxInlinedInsns) return 0;
  for (const Insn& insn : fn.code) {
    if (insn.op == Op::CallFn) return 0;
  }
  // A return must leave exactly its result on the stack: the inlined copy
  // jumps to the continuation without unwinding anything.
  const std::vector<int> height = computeStackHeights(fn, fns);
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (height[pc] < 0) continue;
    if (fn.code[pc].op == Op::Ret && height[pc] != 1) return 0;
    if (fn.code[pc].op == Op::RetVoid && height[pc] != 0) return 0;
  }
  const bool deadTrap = fn.code.back().op == Op::Trap && height.back() < 0;
  return fn.code.size() - (deadTrap ? 1 : 0);
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
std::size_t expansionSize(const FunctionCode& callee, std::size_t bodySize) {
  const std::size_t argc = callee.paramTypes.size();
  const bool locals = static_cast<std::size_t>(callee.numSlots) > argc;
  return (argc > 0 ? argc : 1) + (locals ? 1 : 0) + bodySize;
}

/// Rewrite `caller` with every inlinable call expanded.  All callees share
/// one slot range after the caller's own slots: inlined bodies never
/// overlap in time, and each copy zeroes its locals.
void inlineInto(FunctionCode& caller, const std::vector<FunctionCode>& fns,
                const std::vector<std::size_t>& bodySize) {
  const std::vector<Insn>& code = caller.code;
  const std::size_t n = code.size();
  const auto expands = [&](const Insn& insn) {
    return insn.op == Op::CallFn && bodySize[static_cast<std::size_t>(insn.a)] > 0;
  };

  std::vector<std::int32_t> newIndexOf(n + 1);
  std::size_t size = 0;
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    newIndexOf[i] = static_cast<std::int32_t>(size);
    if (expands(code[i])) {
      const auto callee = static_cast<std::size_t>(code[i].a);
      size += expansionSize(fns[callee], bodySize[callee]);
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
    if (callee.numSlots > argc) {
      Insn zero = make(Op::ZeroSlots, base + argc, 0, from);
      zero.b = callee.numSlots - argc;
      out.push_back(zero);
    }

    // Body: slots shifted into the shared range, jumps rebased, returns
    // turned into jumps to the continuation that retire the return.
    const std::size_t body = bodySize[static_cast<std::size_t>(from)];
    const auto bodyStart = static_cast<std::int32_t>(out.size());
    const auto continuation = bodyStart + static_cast<std::int32_t>(body);
    for (std::size_t pc = 0; pc < body; ++pc) {
      const Insn& c = callee.code[pc];
      Insn copy = c;
      if (copy.origin < 0) copy.origin = from;
      switch (c.op) {
        case Op::LoadSlot: case Op::StoreSlot: case Op::ZeroSlots:
          copy.a = base + c.a;
          break;
        case Op::Jmp: case Op::Jz: case Op::Jnz:
          copy.a = bodyStart + c.a;
          break;
        case Op::Ret: case Op::RetVoid:
          copy = make(Op::Jmp, continuation, c.weight, copy.origin);
          break;
        default:
          SKELCL_CHECK(c.op < Op::Mov, "inlining runs on stack code");
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
  std::vector<std::size_t> bodySize(fns.size(), 0);
  // Post-order DFS over the call graph.  A call into a function that is
  // visited but not yet analyzed (still on the DFS stack: a cycle) finds its
  // body size still 0 (not inlinable), so the call stays and every function
  // on a cycle keeps a call.
  std::vector<char> visited(fns.size(), 0);
  const auto visit = [&](const auto& self, std::size_t f) -> void {
    visited[f] = 1;
    for (const Insn& insn : fns[f].code) {
      const auto callee = static_cast<std::size_t>(insn.a);
      if (insn.op == Op::CallFn && !visited[callee]) self(self, callee);
    }
    inlineInto(fns[f], fns, bodySize);
    bodySize[f] = inlinedBodySize(fns[f], fns);
  };
  for (std::size_t f = 0; f < fns.size(); ++f) {
    if (!visited[f]) visit(visit, f);
  }
}

}  // namespace skelcl::kc
