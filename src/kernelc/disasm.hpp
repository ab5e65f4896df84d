// Human-readable bytecode dump, for debugging and the compiler tests.
#pragma once

#include <string>

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

/// Disassemble one function's Insn IR to text (one instruction per line).
std::string disassemble(const FunctionCode& fn);

/// Disassemble the packed (16-byte) register code, showing the register file
/// layout and the constant registers written at frame entry.  Empty `packed`
/// yields just the header and the constants.
std::string disassemblePacked(const FunctionCode& fn);

}  // namespace skelcl::kc
