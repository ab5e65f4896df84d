// Scalar helpers shared by the per-item (vm.cpp) and work-group-batched
// (vm_batch.cpp) interpreters.  Internal to kernelc — not installed API.
#pragma once

#include <cstdint>

#include "kernelc/bytecode.hpp"
#include "kernelc/value.hpp"

namespace skelcl::kc::detail {

/// Evaluate one comparison opcode (standalone or fused into CmpJz/CmpJnz).
inline bool cmpHolds(Op op, const Slot& a, const Slot& b) {
  switch (op) {
    case Op::EqI: return a.i == b.i;
    case Op::NeI: return a.i != b.i;
    case Op::LtI: return a.i < b.i;
    case Op::LeI: return a.i <= b.i;
    case Op::GtI: return a.i > b.i;
    case Op::GeI: return a.i >= b.i;
    case Op::LtU: return static_cast<std::uint32_t>(a.i) < static_cast<std::uint32_t>(b.i);
    case Op::LeU: return static_cast<std::uint32_t>(a.i) <= static_cast<std::uint32_t>(b.i);
    case Op::GtU: return static_cast<std::uint32_t>(a.i) > static_cast<std::uint32_t>(b.i);
    case Op::GeU: return static_cast<std::uint32_t>(a.i) >= static_cast<std::uint32_t>(b.i);
    case Op::LtUL: return static_cast<std::uint64_t>(a.i) < static_cast<std::uint64_t>(b.i);
    case Op::LeUL: return static_cast<std::uint64_t>(a.i) <= static_cast<std::uint64_t>(b.i);
    case Op::GtUL: return static_cast<std::uint64_t>(a.i) > static_cast<std::uint64_t>(b.i);
    case Op::GeUL: return static_cast<std::uint64_t>(a.i) >= static_cast<std::uint64_t>(b.i);
    case Op::EqF: return a.f == b.f;
    case Op::NeF: return a.f != b.f;
    case Op::LtF: return a.f < b.f;
    case Op::LeF: return a.f <= b.f;
    case Op::GtF: return a.f > b.f;
    case Op::GeF: return a.f >= b.f;
    case Op::EqP: return a.p.region == b.p.region && a.p.offset == b.p.offset;
    case Op::NeP: return a.p.region != b.p.region || a.p.offset != b.p.offset;
    default: return false;  // the translation only fuses the ops above
  }
}

/// Pointer arithmetic: the offset wraps mod 2^32 and never faults here;
/// bounds are enforced at the access (Vm::resolve).
inline Ptr ptrPlus(Ptr p, std::int64_t index, std::int64_t elemSize) {
  p.offset = static_cast<std::uint32_t>(static_cast<std::int64_t>(p.offset) +
                                        index * elemSize);
  return p;
}

}  // namespace skelcl::kc::detail
