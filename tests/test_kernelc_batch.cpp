// Tests for the work-group-batched interpreter (Vm::runKernelBatch,
// docs/VM.md): for every kernel shape — straight-line, uniformly looping,
// heavily divergent, builtin-calling — batched execution must produce
// bit-identical buffer contents and identical retired-instruction counts to
// the same program run one work-item at a time, for any lane count up to
// kBatchLanes.  Non-batchable kernels (frame memory, calls, barriers) must
// fall back to per-item execution transparently, and faults must still
// surface as VmError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernelc/diagnostics.hpp"
#include "kernelc/program.hpp"
#include "kernelc/vm.hpp"

using namespace skelcl::kc;

namespace {

struct RunOutcome {
  std::vector<float> data;
  std::uint64_t instructions = 0;
};

/// Run `kernel` over `n` items on a fresh VM; buffer argument first, then
/// `extraArgs`.  `batch` selects runKernelBatch in kBatchLanes chunks.
RunOutcome run(const CompiledProgram& program, const std::string& kernel,
               std::vector<float> data, std::int64_t n, std::vector<Slot> extraArgs,
               bool batch) {
  RunOutcome out;
  out.data = std::move(data);
  std::vector<MemRegion> regions{MemRegion{
      reinterpret_cast<std::byte*>(out.data.data()), out.data.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  std::vector<Slot> args{Slot::fromPtr(p)};
  args.insert(args.end(), extraArgs.begin(), extraArgs.end());

  Vm vm(program, regions);
  const int k = program.findKernel(kernel);
  EXPECT_GE(k, 0);
  if (batch) {
    for (std::int64_t gid = 0; gid < n;) {
      const std::int64_t lanes = std::min<std::int64_t>(n - gid, Vm::kBatchLanes);
      vm.runKernelBatch(k, args, gid, lanes, n);
      gid += lanes;
    }
  } else {
    for (std::int64_t gid = 0; gid < n; ++gid) vm.runKernel(k, args, gid, n);
  }
  out.instructions = vm.instructionsExecuted();
  return out;
}

/// Compile with the optimized pipeline and require the batched run to match
/// the sequential run bit-for-bit, with equal retired-instruction counts.
void expectBatchMatchesSequential(const std::string& source, const std::string& kernel,
                                  std::vector<float> data, std::int64_t n,
                                  std::vector<Slot> extraArgs = {}) {
  const auto program = compileProgram(source, CompileOptions{true});
  const RunOutcome seq = run(*program, kernel, data, n, extraArgs, /*batch=*/false);
  const RunOutcome bat = run(*program, kernel, std::move(data), n, extraArgs,
                             /*batch=*/true);
  EXPECT_EQ(bat.instructions, seq.instructions)
      << "retired-instruction counts diverged — simulated kernel time would change";
  ASSERT_EQ(bat.data.size(), seq.data.size());
  EXPECT_EQ(0, std::memcmp(bat.data.data(), seq.data.data(),
                           seq.data.size() * sizeof(float)))
      << "batched buffer contents diverged from sequential execution";
}

constexpr const char* kEscapeSrc = R"(
  __kernel void escape(__global float* out, int n) {
    int gid = get_global_id(0);
    float zr = 0.0f;
    float c = (float)(gid % 13) * 0.33f - 2.0f;
    int it = 0;
    while (it < n) {
      zr = zr * zr + c;
      if (zr > 4.0f) break;
      ++it;
    }
    out[gid] = (float)it + zr * 0.001f;
  }
)";

TEST(KernelcBatch, DivergentEscapeLoop) {
  // Neighboring lanes escape after different iteration counts, exercising
  // group splits on both the break and the back-edge.
  expectBatchMatchesSequential(kEscapeSrc, "escape", std::vector<float>(300, 0.0f), 300,
                               {Slot::fromInt(64)});
}

TEST(KernelcBatch, CollatzHeavyDivergence) {
  // Trip counts vary wildly per lane (collatz lengths), so groups fragment
  // down to single lanes and must still retire exact per-item counts.
  const std::string src = R"(
    __kernel void collatz(__global float* out) {
      int gid = get_global_id(0);
      int n = gid + 1;
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps++;
      }
      out[gid] = (float)steps;
    }
  )";
  expectBatchMatchesSequential(src, "collatz", std::vector<float>(256, 0.0f), 256);
}

TEST(KernelcBatch, EdgeLaneCounts) {
  // 1 lane, a few lanes, one short of a full group, a full group, and a
  // count that needs a full group plus a remainder chunk.
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{255},
                               std::int64_t{256}, std::int64_t{300}}) {
    SCOPED_TRACE(n);
    expectBatchMatchesSequential(kEscapeSrc, "escape",
                                 std::vector<float>(static_cast<std::size_t>(n), 0.0f),
                                 n, {Slot::fromInt(32)});
  }
}

TEST(KernelcBatch, GatherLoopWithBuiltins) {
  // Uniform inner loop gathering from the upper half of the buffer (disjoint
  // from the written lower half — no cross-item races) plus sqrt/fmax
  // builtin calls: the group never splits, staying on the dense all-lanes
  // path end to end.
  const std::string src = R"(
    __kernel void gather(__global float* data, int n) {
      int gid = get_global_id(0);
      float acc = 0.0f;
      for (int i = 0; i < 8; ++i) {
        acc = acc + data[n + (gid + i) % n];
      }
      data[gid] = sqrt(fmax(acc, 0.25f)) + (float)get_global_id(0) * 0.125f;
    }
  )";
  std::vector<float> data(384);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.5f * static_cast<float>(i % 37) - 4.0f;
  }
  expectBatchMatchesSequential(src, "gather", data, 192, {Slot::fromInt(192)});
}

TEST(KernelcBatch, SecondDimensionGlobalIdIsZero) {
  const std::string src = R"(
    __kernel void dims(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = (float)gid + (float)get_global_id(1) * 1000.0f;
    }
  )";
  const auto program = compileProgram(src, CompileOptions{true});
  const RunOutcome bat =
      run(*program, "dims", std::vector<float>(64, -1.0f), 64, {}, true);
  for (std::size_t i = 0; i < bat.data.size(); ++i) {
    EXPECT_EQ(bat.data[i], static_cast<float>(i));
  }
}

TEST(KernelcBatch, NonBatchableKernelFallsBack) {
  // Frame memory (a local array) disqualifies a kernel from batched
  // execution; runKernelBatch must transparently run it per item instead.
  const std::string src = R"(
    __kernel void histo(__global float* out, int n) {
      int gid = get_global_id(0);
      float bins[4];
      for (int b = 0; b < 4; ++b) bins[b] = 0.0f;
      for (int i = 0; i < n; ++i) {
        int b = (gid + i) % 4;
        bins[b] = bins[b] + (float)i;
      }
      out[gid] = bins[0] + bins[1] * 2.0f + bins[2] * 3.0f + bins[3] * 4.0f;
    }
  )";
  const auto program = compileProgram(src, CompileOptions{true});
  const int k = program->findKernel("histo");
  ASSERT_GE(k, 0);
  EXPECT_FALSE(program->functions[static_cast<std::size_t>(k)].batchable);
  expectBatchMatchesSequential(src, "histo", std::vector<float>(40, 0.0f), 40,
                               {Slot::fromInt(9)});
}

TEST(KernelcBatch, BatchableFlagComputedForStraightLineKernels) {
  const auto program = compileProgram(kEscapeSrc, CompileOptions{true});
  const int k = program->findKernel("escape");
  ASSERT_GE(k, 0);
  EXPECT_TRUE(program->functions[static_cast<std::size_t>(k)].batchable);
}

TEST(KernelcBatch, OutOfBoundsFaultsAsVmError) {
  // Lane 63 reads out[2 * gid] past the 64-element buffer; the batched
  // bounds check must fault exactly like the sequential interpreters do.
  const std::string src = R"(
    __kernel void oob(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = out[2 * gid];
    }
  )";
  const auto program = compileProgram(src, CompileOptions{true});
  ASSERT_TRUE(
      program->functions[static_cast<std::size_t>(program->findKernel("oob"))].batchable);
  std::vector<float> buf(64, 1.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  const std::vector<Slot> args{Slot::fromPtr(p)};
  Vm vm(*program, regions);
  EXPECT_THROW(vm.runKernelBatch(0, args, 0, 64, 64), VmError);
}

TEST(KernelcBatch, DivisionByZeroFaultsAsVmError) {
  const std::string src = R"(
    __kernel void divz(__global float* out, int d) {
      int gid = get_global_id(0);
      out[gid] = (float)(100 / (gid - d));
    }
  )";
  const auto program = compileProgram(src, CompileOptions{true});
  std::vector<float> buf(16, 0.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  const std::vector<Slot> args{Slot::fromPtr(p), Slot::fromInt(5)};
  Vm vm(*program, regions);
  EXPECT_THROW(vm.runKernelBatch(0, args, 0, 16, 16), VmError);
}

TEST(KernelcBatch, CountsAccumulateAcrossChunks) {
  // Two half-full chunks on one VM retire exactly what one sequential pass
  // does: the counter is shared and exact, not per-call approximate.
  const auto program = compileProgram(kEscapeSrc, CompileOptions{true});
  const RunOutcome seq =
      run(*program, "escape", std::vector<float>(128, 0.0f), 128, {Slot::fromInt(48)},
          false);
  std::vector<float> buf(128, 0.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  const std::vector<Slot> args{Slot::fromPtr(p), Slot::fromInt(48)};
  Vm vm(*program, regions);
  const int k = program->findKernel("escape");
  vm.runKernelBatch(k, args, 0, 64, 128);
  vm.runKernelBatch(k, args, 64, 64, 128);
  EXPECT_EQ(vm.instructionsExecuted(), seq.instructions);
  EXPECT_EQ(0, std::memcmp(buf.data(), seq.data.data(), buf.size() * sizeof(float)));
}

}  // namespace
