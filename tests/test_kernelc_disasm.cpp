// Disassembler tests: stable, readable bytecode dumps (the `kcc -d` tool and
// debugging of generated skeleton programs rely on them).
#include <gtest/gtest.h>

#include "kernelc/disasm.hpp"
#include "kernelc/program.hpp"

using namespace skelcl::kc;

namespace {

// The goldens below document the compiler's naive instruction selection, so
// they compile with the reference pipeline.
std::string dump(const std::string& source, const std::string& fn) {
  const auto program = compileProgram(source, CompileOptions{/*optimize=*/false});
  const int idx = program->findFunction(fn);
  EXPECT_GE(idx, 0);
  return disassemble(program->functions[static_cast<std::size_t>(idx)]);
}

std::string dumpOptimized(const std::string& source, const std::string& fn, bool packed) {
  const auto program = compileProgram(source, CompileOptions{/*optimize=*/true});
  const int idx = program->findFunction(fn);
  EXPECT_GE(idx, 0);
  const FunctionCode& code = program->functions[static_cast<std::size_t>(idx)];
  return packed ? disassemblePacked(code) : disassemble(code);
}

TEST(KernelcDisasm, SimpleFunctionGolden) {
  const std::string text = dump("int f(int a, int b) { return a + b; }", "f");
  // header + 4 instructions
  EXPECT_NE(text.find("function f (slots=2, frame=0B)"), std::string::npos);
  EXPECT_NE(text.find("load.slot 0"), std::string::npos);
  EXPECT_NE(text.find("load.slot 1"), std::string::npos);
  EXPECT_NE(text.find("add.i"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(KernelcDisasm, KernelHeaderAndFrame) {
  const std::string text =
      dump("__kernel void k(__global float* p) { float tmp[4]; p[0] = tmp[0]; }", "k");
  EXPECT_NE(text.find("kernel k"), std::string::npos);
  EXPECT_NE(text.find("frame=16B"), std::string::npos);
  EXPECT_NE(text.find("lea.frame"), std::string::npos);
}

TEST(KernelcDisasm, JumpTargetsPrinted) {
  const std::string text = dump("int f(int n) { while (n > 0) --n; return n; }", "f");
  EXPECT_NE(text.find("jz "), std::string::npos);
  EXPECT_NE(text.find("jmp "), std::string::npos);
}

TEST(KernelcDisasm, BuiltinCallsNameAndArity) {
  const std::string text = dump("float f(float x) { return sqrt(x); }", "f");
  EXPECT_NE(text.find("call.builtin"), std::string::npos);
  EXPECT_NE(text.find("argc=1"), std::string::npos);
}

TEST(KernelcDisasm, FloatOpsDistinctFromDouble) {
  const std::string f32 = dump("float f(float a) { return a * a; }", "f");
  const std::string f64 = dump("double f(double a) { return a * a; }", "f");
  EXPECT_NE(f32.find("mul.f32"), std::string::npos);
  EXPECT_NE(f64.find("mul.f64"), std::string::npos);
}

TEST(KernelcDisasm, EveryOpcodeHasAName) {
  for (int op = 0; op < kOpCount; ++op) {
    EXPECT_STRNE(opName(static_cast<Op>(op)), "?") << "opcode " << op;
  }
}

TEST(KernelcDisasm, SuperinstructionsCarryWeights) {
  // In register code a + b reads both slots directly; the weight suffix
  // documents how many naive instructions (two loads and the add) it retires.
  const std::string text =
      dumpOptimized("int f(int a, int b) { return a + b; }", "f", /*packed=*/true);
  EXPECT_NE(text.find("add.i r2, r0, r1  ;w=3"), std::string::npos) << text;
}

TEST(KernelcDisasm, PackedDumpShowsHeaderAndPool) {
  const std::string text = dumpOptimized(
      "double f(double x) { return x * 3.25; }", "f", /*packed=*/true);
  EXPECT_NE(text.find("maxstack="), std::string::npos);
  EXPECT_NE(text.find("pool=1"), std::string::npos);
  EXPECT_NE(text.find("push.cf [0]=3.25"), std::string::npos);
}

TEST(KernelcDisasm, PackedDumpFusedBranch) {
  const std::string text = dumpOptimized(
      "int f(int n) { int s = 0; for (int i = 0; i < n; ++i) s = s + i; return s; }",
      "f", /*packed=*/true);
  // Slots n=r0, s=r1, i=r2.  The loop test compares two slots and branches.
  // ++i adds a constant register into i in place; its weight 6 counts the
  // load, push and add of `i + 1` plus the dup, store and drop folded from
  // the statement before it.
  EXPECT_NE(text.find("cmp.jz 6 (lt.i r2, r0)"), std::string::npos) << text;
  EXPECT_NE(text.find("add.i r2, r2, r6  ;w=6"), std::string::npos) << text;
}

}  // namespace
