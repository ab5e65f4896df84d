// Differential tests across the interpreter paths (docs/VM.md): the same
// source compiled by the reference pipeline and by the optimized pipeline
// (inlining + register code), the latter run on both the fast and the
// work-group-batched interpreter, must produce bit-identical buffer
// contents, identical scalar results, and — because every register
// instruction carries the weight of the stack instructions folded into it —
// identical retired-instruction counts (which drive simulated kernel time).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernelc/diagnostics.hpp"
#include "kernelc/program.hpp"
#include "kernelc/vm.hpp"
#include "osem/osem.hpp"
#include "osem/osem_kernels.hpp"

using namespace skelcl::kc;

namespace {

/// Run `kernel` from `source` over `n` work-items on every interpreter path,
/// each on its own copy of `data`, and require bitwise-equal buffers and
/// equal instruction counts throughout.
void expectIdentical(const std::string& source, const std::string& kernel,
                     std::vector<float> data, std::int64_t n,
                     std::vector<Slot> extraArgs = {}) {
  const auto ref = compileProgram(source, CompileOptions{false});
  const auto fast = compileProgram(source, CompileOptions{true});
  ASSERT_FALSE(ref->optimized);
  ASSERT_TRUE(fast->optimized);

  const auto run = [&](const CompiledProgram& program, std::vector<float>& buf,
                       std::uint64_t& count, bool batch) {
    std::vector<MemRegion> regions{
        MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
    Ptr p;
    p.region = 1;
    p.offset = 0;
    std::vector<Slot> args{Slot::fromPtr(p)};
    args.insert(args.end(), extraArgs.begin(), extraArgs.end());
    Vm vm(program, regions);
    const int k = program.findKernel(kernel);
    ASSERT_GE(k, 0);
    if (batch) {
      for (std::int64_t gid = 0; gid < n;) {
        const std::int64_t lanes = std::min<std::int64_t>(n - gid, Vm::kBatchLanes);
        vm.runKernelBatch(k, args, gid, lanes, n);
        gid += lanes;
      }
    } else {
      for (std::int64_t gid = 0; gid < n; ++gid) vm.runKernel(k, args, gid, n);
    }
    count = vm.instructionsExecuted();
  };

  struct Leg {
    const char* name;
    const CompiledProgram* program;
    bool batch;
  };
  const Leg legs[] = {
      {"ref", ref.get(), false},
      {"fast", fast.get(), false},
      {"batch", fast.get(), true},
  };
  std::vector<float> bufs[3];
  std::uint64_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    bufs[i] = data;
    run(*legs[i].program, bufs[i], counts[i], legs[i].batch);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(counts[i], counts[0])
        << legs[i].name << ": retired-instruction counts diverged — "
                           "simulated kernel time would change";
    ASSERT_EQ(bufs[i].size(), bufs[0].size());
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), bufs[0].data(),
                             bufs[0].size() * sizeof(float)))
        << legs[i].name << ": buffer contents diverged between pipelines";
  }
}

std::int64_t callBoth(const std::string& source, const std::string& fn,
                      std::vector<Slot> args, std::uint64_t* counts) {
  const auto fast = compileProgram(source, CompileOptions{true});
  const auto ref = compileProgram(source, CompileOptions{false});
  Vm vmFast(*fast, {});
  Vm vmRef(*ref, {});
  const Slot a = vmFast.callFunction(fast->findFunction(fn), args);
  const Slot b = vmRef.callFunction(ref->findFunction(fn), args);
  counts[0] = vmFast.instructionsExecuted();
  counts[1] = vmRef.instructionsExecuted();
  EXPECT_EQ(a.i, b.i);  // full 64-bit slot compare covers int and float bits
  return a.i;
}

TEST(KernelcDifferential, MandelbrotShapedKernel) {
  // The mandel workload shape: per-item escape-time loop with f32 arithmetic,
  // fused compare-and-branch back-edges, and a final store.
  const std::string src = R"(
    __kernel void mandel(__global float* out, int width, int maxIter) {
      int gid = get_global_id(0);
      int px = gid % width;
      int py = gid / width;
      float cr = -2.0f + 3.0f * (float)px / (float)width;
      float ci = -1.5f + 3.0f * (float)py / (float)width;
      float zr = 0.0f; float zi = 0.0f;
      int it = 0;
      while (it < maxIter) {
        float zr2 = zr * zr; float zi2 = zi * zi;
        if (zr2 + zi2 > 4.0f) break;
        zi = 2.0f * zr * zi + ci;
        zr = zr2 - zi2 + cr;
        ++it;
      }
      out[gid] = (float)it;
    }
  )";
  expectIdentical(src, "mandel", std::vector<float>(64, 0.0f), 64,
                  {Slot::fromInt(std::int64_t{8}), Slot::fromInt(std::int64_t{64})});
}

TEST(KernelcDifferential, OsemShapedKernel) {
  // The OSEM workload shape: indexed gather over a buffer with an inner
  // accumulation loop and a guarded division.  Reads come from the upper
  // half of the buffer and writes go to the lower half — work-items must not
  // race on shared data, or execution order (sequential vs batched) would
  // legitimately change the result.
  const std::string src = R"(
    __kernel void project(__global float* data, int n) {
      int gid = get_global_id(0);
      float acc = 0.0f;
      for (int i = 0; i < n; ++i) {
        acc = acc + data[n + (gid + i) % n] * 0.5f;
      }
      if (acc != 0.0f) acc = 1.0f / acc;
      data[gid] = acc;
    }
  )";
  std::vector<float> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.25f * static_cast<float>(i + 1);
  expectIdentical(src, "project", data, 32, {Slot::fromInt(std::int64_t{32})});
}

TEST(KernelcDifferential, OsemStep1SkelclKernel) {
  // The kernel SkelCL generates for OSEM step 1: the index Map wrapper calls
  // `func`, which keeps its call (an Event struct local) and inlines two
  // osem_march copies, one scattering into c with atomic_add_f.  Run per item
  // in order, both pipelines must leave the same c image bit for bit and
  // retire the same count.
  skelcl::osem::OsemConfig cfg;
  cfg.volume.nx = cfg.volume.ny = cfg.volume.nz = 24;
  cfg.eventsPerSubset = 300;
  cfg.numSubsets = 1;
  const auto data = skelcl::osem::OsemData::generate(cfg);
  const auto& vol = data.volume();
  const std::string source = skelcl::osem::generatedStep1KernelSource();
  const auto n = static_cast<std::int64_t>(data.subsetSize());

  std::vector<float> images[2];
  std::uint64_t counts[2] = {0, 0};
  for (int opt = 0; opt < 2; ++opt) {
    const auto program = compileProgram(source, CompileOptions{opt == 1});
    std::vector<skelcl::osem::Event> events(data.subset(0), data.subset(0) + n);
    std::vector<std::int32_t> out(static_cast<std::size_t>(n), -1);
    std::vector<float> f(vol.voxels());
    for (std::size_t v = 0; v < f.size(); ++v) f[v] = 0.5f + 0.001f * static_cast<float>(v % 977);
    std::vector<float>& c = images[opt];
    c.assign(vol.voxels(), 0.0f);
    std::vector<MemRegion> regions;
    const auto bind = [&](void* p, std::size_t bytes) {
      regions.push_back(MemRegion{static_cast<std::byte*>(p), bytes});
      Ptr ptr;
      ptr.region = static_cast<std::int32_t>(regions.size());
      return Slot::fromPtr(ptr);
    };
    const Slot outArg = bind(out.data(), out.size() * sizeof(std::int32_t));
    const Slot eventsArg = bind(events.data(), events.size() * sizeof(skelcl::osem::Event));
    const Slot fArg = bind(f.data(), f.size() * sizeof(float));
    const Slot cArg = bind(c.data(), c.size() * sizeof(float));
    const std::vector<Slot> args{outArg, Slot::fromInt(n), Slot::fromInt(std::int64_t{0}),
                                 eventsArg, Slot::fromInt(std::int64_t{0}), Slot::fromInt(n),
                                 fArg, cArg, Slot::fromInt(std::int64_t{vol.nx}),
                                 Slot::fromInt(std::int64_t{vol.ny}),
                                 Slot::fromInt(std::int64_t{vol.nz}),
                                 Slot::fromFloat(static_cast<double>(vol.voxel))};
    Vm vm(*program, regions);
    const int k = program->findKernel("skelcl_kernel");
    ASSERT_GE(k, 0);
    for (std::int64_t gid = 0; gid < n; ++gid) vm.runKernel(k, args, gid, n);
    counts[opt] = vm.instructionsExecuted();
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](std::int32_t v) { return v == 0; }));
  }
  EXPECT_EQ(counts[1], counts[0]) << "retired-instruction counts diverged";
  EXPECT_EQ(0, std::memcmp(images[1].data(), images[0].data(), images[0].size() * sizeof(float)))
      << "error image c diverged between pipelines";
  EXPECT_GT(std::count_if(images[0].begin(), images[0].end(), [](float v) { return v > 0.0f; }),
            100);
}

TEST(KernelcDifferential, FrameArraysAndStructs) {
  const std::string src = R"(
    struct Acc { float lo; float hi; };
    __kernel void histo(__global float* out, int n) {
      int gid = get_global_id(0);
      float bins[4];
      for (int b = 0; b < 4; ++b) bins[b] = 0.0f;
      struct Acc acc;
      acc.lo = 0.0f; acc.hi = 0.0f;
      for (int i = 0; i < n; ++i) {
        int b = (gid + i) % 4;
        bins[b] = bins[b] + (float)i;
        if (b < 2) acc.lo = acc.lo + 1.0f; else acc.hi = acc.hi + 1.0f;
      }
      out[gid] = bins[0] + bins[1] * 2.0f + bins[2] * 3.0f + bins[3] * 4.0f
               + acc.lo * 10.0f + acc.hi * 20.0f;
    }
  )";
  expectIdentical(src, "histo", std::vector<float>(16, 0.0f), 16,
                  {Slot::fromInt(std::int64_t{13})});
}

TEST(KernelcDifferential, NestedCallsAndBuiltins) {
  const std::string src = R"(
    float sq(float x) { return x * x; }
    float norm(float a, float b) { return sqrt(sq(a) + sq(b)); }
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = norm(out[gid], (float)gid);
    }
  )";
  std::vector<float> data(24);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 1.5f * static_cast<float>(i) - 7.0f;
  expectIdentical(src, "k", data, 24);
}

TEST(KernelcDifferential, IntegerEdgeCases) {
  // 32-bit wrap-around, shifts, signed/unsigned division, post-increments.
  const std::string src = R"(
    int f(int n) {
      int acc = 0;
      uint u = 0xC0000000;
      for (int i = 1; i <= n; i++) {
        acc = acc + 0x7FFFFFFF / i;
        acc = acc ^ (acc << 3);
        acc = acc + (int)(u >> (i % 31));
        acc = acc - acc % (i + 1);
      }
      return acc;
    }
  )";
  std::uint64_t counts[2];
  callBoth(src, "f", {Slot::fromInt(std::int64_t{17})}, counts);
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(KernelcDifferential, LongArithmetic) {
  const std::string src = R"(
    long f(long n) {
      long acc = 1;
      for (long i = 1; i < n; i = i + 1) {
        acc = acc * 1103515245 + 12345;
        acc = acc ^ (acc >> 17);
      }
      return acc;
    }
  )";
  std::uint64_t counts[2];
  callBoth(src, "f", {Slot::fromInt(std::int64_t{100})}, counts);
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(KernelcDifferential, InstructionCountsMatchExactly) {
  // A branch-heavy function: every fused compare-and-branch, slot increment,
  // and fused load must retire exactly as many instructions as its window.
  const std::string src = R"(
    int collatz(int n) {
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps++;
      }
      return steps;
    }
  )";
  std::uint64_t counts[2];
  const std::int64_t steps = callBoth(src, "collatz", {Slot::fromInt(std::int64_t{27})}, counts);
  EXPECT_EQ(steps, 111);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

TEST(KernelcDifferential, FunctionIndexLookup) {
  // compileProgram builds a name -> index map; lookups must agree with the
  // declaration order and respect the kernel / function distinction.
  const auto program = compileProgram(R"(
    float helper(float x) { return x + 1.0f; }
    __kernel void first(__global float* p) { p[0] = helper(p[0]); }
    __kernel void second(__global float* p) { p[1] = helper(p[1]); }
  )");
  EXPECT_EQ(program->functionIndex.size(), 3u);
  EXPECT_EQ(program->findFunction("helper"), 0);
  EXPECT_EQ(program->findKernel("first"), 1);
  EXPECT_EQ(program->findKernel("second"), 2);
  EXPECT_EQ(program->findKernel("helper"), -1);  // not a kernel
  EXPECT_EQ(program->findFunction("absent"), -1);
  EXPECT_EQ(program->findKernel("absent"), -1);
}

TEST(KernelcDifferential, DuplicateFunctionNamesRejected) {
  // The map assumes unique names; sema must keep rejecting redefinitions for
  // kernels and plain functions alike.
  EXPECT_THROW(compileProgram("int f() { return 1; } int f() { return 2; }"),
               CompileError);
  EXPECT_THROW(compileProgram("__kernel void k(__global float* p) {}\n"
                              "__kernel void k(__global int* q) {}"),
               CompileError);
}

// --- Inlining (inline.cpp) --------------------------------------------------
// The optimized pipeline dissolves calls to small user functions into their
// callers; the reference pipeline keeps every call.  Each case runs the three
// paths through expectIdentical and checks which calls were inlined.

/// True when `fn` still calls another function.
bool makesCalls(const FunctionCode& fn) {
  return std::any_of(fn.code.begin(), fn.code.end(),
                     [](const Insn& insn) { return insn.op == Op::CallFn; });
}

const FunctionCode& kernelOf(const CompiledProgram& program, const std::string& name) {
  return program.functions[static_cast<std::size_t>(program.findKernel(name))];
}

/// The optimized kernel inlined every call and batches; the reference one
/// still calls.
void expectFullyInlined(const std::string& source, const std::string& kernel) {
  const auto ref = compileProgram(source, CompileOptions{false});
  const auto opt = compileProgram(source, CompileOptions{true});
  EXPECT_TRUE(makesCalls(kernelOf(*ref, kernel))) << "reference pipeline must not inline";
  EXPECT_FALSE(makesCalls(kernelOf(*opt, kernel)));
  EXPECT_TRUE(kernelOf(*opt, kernel).batchable);
}

TEST(KernelcInline, ValueAndVoidCallees) {
  const std::string src = R"(
    float scale(float x, float k) { return x * k + 1.0f; }
    void put(__global float* p, int i, float v) { p[i] = v; }
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      put(out, gid, scale(out[gid], 0.5f) + scale((float)gid, 2.0f));
    }
  )";
  std::vector<float> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.75f * static_cast<float>(i) - 9.0f;
  expectFullyInlined(src, "k");
  expectIdentical(src, "k", data, 300);
}

TEST(KernelcInline, EarlyReturnInsideCallee) {
  // Returns from inside a loop and an if, plus the fall-through return: every
  // one becomes a jump to the continuation, divergently across lanes.
  const std::string src = R"(
    float firstAbove(__global float* p, int n, float t) {
      for (int i = 0; i < n; ++i) {
        if (p[n + i] > t) return p[n + i];
      }
      if (t < 0.0f) return -1.0f;
      return 0.0f;
    }
    __kernel void k(__global float* data, int n) {
      int gid = get_global_id(0);
      data[gid] = firstAbove(data, n, (float)(gid % 40) - 3.0f);
    }
  )";
  std::vector<float> data(128);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>((i * 7) % 37);
  expectFullyInlined(src, "k");
  expectIdentical(src, "k", data, 64, {Slot::fromInt(std::int64_t{64})});
}

TEST(KernelcInline, UnassignedLocalReadsZeroOnEveryCall) {
  // `acc` is never initialized, so every call reads 0 (value-initialized
  // locals).  Inlined into a loop, the copy must re-zero it per call rather
  // than see the previous call's value.
  const std::string src = R"(
    float bump(float x) {
      float acc;
      acc = acc + x;
      return acc;
    }
    __kernel void k(__global float* out, int n) {
      int gid = get_global_id(0);
      float sum = 0.0f;
      for (int i = 0; i < n; ++i) sum = sum + bump((float)(gid + i));
      out[gid] = sum;
    }
  )";
  expectFullyInlined(src, "k");
  expectIdentical(src, "k", std::vector<float>(40, 0.0f), 40, {Slot::fromInt(std::int64_t{6})});
  const auto opt = compileProgram(src, CompileOptions{true});
  // sum over i of (gid + i) for gid = 3, n = 6: 3*6 + 15.
  std::vector<float> out(4, 0.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(out.data()), out.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  const std::vector<Slot> args{Slot::fromPtr(p), Slot::fromInt(std::int64_t{6})};
  Vm run(*opt, regions);
  run.runKernelBatch(opt->findKernel("k"), args, 0, 4, 4);
  EXPECT_EQ(out[3], 33.0f);
}

TEST(KernelcInline, NestedHelpers) {
  const std::string src = R"(
    float sq(float x) { return x * x; }
    float norm2(float a, float b) { return sq(a) + sq(b); }
    float dist(float a, float b, float c) { return sqrt(norm2(a, b) + sq(c)); }
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = dist(out[gid], (float)gid, 0.5f);
    }
  )";
  std::vector<float> data(260);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 1.5f * static_cast<float>(i) - 7.0f;
  expectFullyInlined(src, "k");
  // The helpers are themselves inlined bottom-up, and stay callable.
  const auto opt = compileProgram(src, CompileOptions{true});
  EXPECT_FALSE(makesCalls(opt->functions[static_cast<std::size_t>(opt->findFunction("dist"))]));
  Vm vm(*opt, {});
  const Slot r = vm.callFunction(opt->findFunction("dist"),
                                 std::vector<Slot>{Slot::fromFloat(3.0), Slot::fromFloat(4.0),
                                                   Slot::fromFloat(0.0)});
  EXPECT_EQ(r.f, 5.0);
  expectIdentical(src, "k", data, 260);
}

TEST(KernelcInline, StructLocalAndRecursionStayCalls) {
  // Frame memory (a struct local) and recursion disqualify a callee; both
  // stay calls on the per-item path and still agree across pipelines.
  const std::string src = R"(
    struct Pair { float a; float b; };
    float blend(float x) {
      struct Pair p;
      p.a = x; p.b = x * 0.5f;
      return p.a + p.b;
    }
    int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
    float twice(float x) { return x + x; }
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = blend(out[gid]) + (float)fact(gid % 7) + twice((float)gid);
    }
  )";
  const auto opt = compileProgram(src, CompileOptions{true});
  const FunctionCode& kern = kernelOf(*opt, "k");
  int calls = 0;
  for (const Insn& insn : kern.code) {
    if (insn.op != Op::CallFn) continue;
    const std::string& callee = opt->functions[static_cast<std::size_t>(insn.a)].name;
    EXPECT_TRUE(callee == "blend" || callee == "fact") << callee << " should have been inlined";
    ++calls;
  }
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(kern.batchable);
  std::vector<float> data(48);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.5f * static_cast<float>(i);
  expectIdentical(src, "k", data, 48);
}

TEST(KernelcInline, FaultInsideInlinedCalleeNamesTheCallee) {
  // Work-items 32.. read past the 64-element buffer inside `get`: every path
  // must report the fault in 'get', as the call would have.
  const std::string src = R"(
    float get(__global float* p, int i) { return p[i]; }
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = get(out, 2 * gid) + 1.0f;
    }
  )";
  expectFullyInlined(src, "k");
  for (const bool optimize : {false, true}) {
    for (const bool batch : {false, true}) {
      if (!optimize && batch) continue;
      SCOPED_TRACE(optimize ? (batch ? "batch" : "fast") : "ref");
      const auto program = compileProgram(src, CompileOptions{optimize});
      std::vector<float> buf(64, 1.0f);
      std::vector<MemRegion> regions{
          MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
      Ptr p;
      p.region = 1;
      const std::vector<Slot> args{Slot::fromPtr(p)};
      Vm vm(*program, regions);
      const int k = program->findKernel("k");
      try {
        if (batch) {
          vm.runKernelBatch(k, args, 0, 64, 64);
        } else {
          for (std::int64_t gid = 0; gid < 64; ++gid) vm.runKernel(k, args, gid, 64);
        }
        ADD_FAILURE() << "expected a VmError";
      } catch (const VmError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("device fault in 'get'"), std::string::npos) << what;
        EXPECT_NE(what.find("out-of-bounds"), std::string::npos) << what;
        if (!batch) {
          EXPECT_NE(what.find("(work-item 32)"), std::string::npos) << what;
        }
      }
    }
  }
}

// --- Register translation (encode.cpp) ---------------------------------------
// Folding reads a slot operand where the stack code loaded it, and a slot
// store retargets the instruction that produced the value.  Each case below
// keeps an old slot value alive on the operand stack while the slot is
// rewritten, or takes weight from folded instructions, so a translation that
// forwards a stale slot or drops a folded weight diverges from the
// reference pipeline in data or in retired count.

TEST(KernelcRegister, SlotReassignedBetweenLoadAndUse) {
  const std::string src = R"(
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      int x = gid;
      int t = x;
      x = x + 1;
      int u = t * x;
      int y = x + (x = x * 3);
      int z = x + (x = u);
      int v = x * (x = 7) - x;
      out[gid] = (float)(u * 1000 + y * 10 + x) + (float)(z * 100000 + v);
    }
  )";
  expectIdentical(src, "k", std::vector<float>(40, 0.0f), 40);
}

TEST(KernelcRegister, PostIncrementUsedAsValue) {
  const std::string src = R"(
    __kernel void k(__global float* out, int n) {
      int gid = get_global_id(0);
      int i = gid;
      int a = i++ * 2 + i;
      int b = 0;
      int j = 0;
      while (j < n) b = b + j++ * i--;
      out[gid] = (float)(a * 100 + b + i * 7 + j);
    }
  )";
  expectIdentical(src, "k", std::vector<float>(48, 0.0f), 48, {Slot::fromInt(std::int64_t{5})});
}

TEST(KernelcRegister, ConditionalValuesLiveAcrossJoins) {
  // The left operand sits on the stack while control splits and rejoins,
  // and each arm rewrites the slot it was loaded from.
  const std::string src = R"(
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      int x = gid % 7;
      int p = gid % 3;
      int r = x + (p == 1 ? (x = x + 2) : (x = x - 1));
      int s = x * 10 + ((x > 2) && (p != 0)) + 2 * ((x = x + 1) < 3 || p == 2);
      float f = (float)x;
      float g = f + (p == 0 ? f * 2.0f : 0.5f);
      out[gid] = (float)(r * 100 + s * 3 + x) + g;
    }
  )";
  expectIdentical(src, "k", std::vector<float>(300, 0.0f), 300);
}

TEST(KernelcRegister, DeepOperandStackAtDivergentBranch) {
  // 300 pending left operands (each lane's own x) sit on the operand stack
  // at the `?:` and `&&` branches, which split every batch; the batched
  // interpreter must carry all of them across the split.
  std::string expr = "(p ? x : 3) + (x > 4 && p)";
  for (int i = 0; i < 300; ++i) expr = std::string("x ") + (i % 2 ? "-" : "+") + " (" + expr + ")";
  const std::string src = R"(
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      int x = gid * 3 + 1;
      int p = gid % 2;
      out[gid] = (float)()" + expr + R"();
    }
  )";
  expectIdentical(src, "k", std::vector<float>(300, 0.0f), 300);
}

TEST(KernelcRegister, CompoundAssignReadsTheSameElement) {
  // a[i] += a[i]: address, old value and right-hand side all come from the
  // same slots; i++ inside the index moves i after the address is formed.
  const std::string src = R"(
    __kernel void k(__global float* data, int n) {
      int gid = get_global_id(0);
      int i = n + gid;
      data[i] += data[i];
      data[i] *= data[i] - 1.0f;
      data[i++] += (float)i;
      data[gid] = data[i - 1] + (float)i;
    }
  )";
  std::vector<float> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.25f * static_cast<float>(i % 13) + 1.0f;
  expectIdentical(src, "k", data, 32, {Slot::fromInt(std::int64_t{32})});
}

TEST(KernelcRegister, CallAndBuiltinArgumentsFromSlots) {
  // Consecutive slot arguments are passed in place, others are copied into
  // the argument registers; a call result may land in one of its own
  // argument slots.  `twist` keeps its call (a struct local).
  const std::string src = R"(
    struct P { float a; float b; };
    float twist(float a, float b, float c) {
      struct P p;
      p.a = a * b; p.b = c;
      return p.a - p.b;
    }
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      float x = (float)gid * 0.5f;
      float y = 3.0f - x;
      float z = x * y;
      float m = fmin(x, y);
      float c = clamp(z, y, x);
      x = fmax(x, y);
      float t = twist(x, y, z) + twist(z, x, y);
      y = twist(y, y, x);
      out[gid] = m + c + x + t + y + fmin(y, twist(m, c, t));
    }
  )";
  expectIdentical(src, "k", std::vector<float>(40, 0.0f), 40);
}

}  // namespace
