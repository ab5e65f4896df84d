// Interpreter throughput benchmark (docs/VM.md): runs mandelbrot-shaped,
// OSEM-shaped and Gaussian-blur-stencil kernels on the kernelc VM along
// every interpreter path —
//   ref    the reference pipeline on the guarded interpreter (SKELCL_KC_OPT=0)
//   fast   the optimized pipeline (peephole superinstructions + packed
//          encoding) on the sequential fast interpreter
//   batch  the optimized pipeline on the work-group-batched interpreter
//          (Vm::runKernelBatch, 256-lane groups)
// and reports wall-clock Minstructions/s plus batch speedups.
// Outputs must be bit-identical and the retired-instruction counts equal
// across every configuration, otherwise the simulated GPU timings would
// drift; the benchmark exits nonzero on any divergence.
//
//   usage: bench_vm [--smoke] [--gate]
//     --smoke   small sizes (CI): divergence checks only
//     --gate    additionally require batch >= 3x fast on mandelbrot and osem
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kernelc/program.hpp"
#include "kernelc/vm.hpp"

using namespace skelcl::kc;

namespace {

const char* const kMandelSrc = R"(
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

const char* const kOsemSrc = R"(
  __kernel void project(__global float* img, __global float* out, int n, int span) {
    int gid = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i < span; ++i) {
      acc = acc + img[(gid + i) % n] * 0.5f;
    }
    if (acc != 0.0f) acc = 1.0f / acc;
    out[gid] = acc;
  }
)";

// Vertical 5-tap Gaussian over a column-pitched image: each work-item reads
// its own column's taps at gid + t*512 from a halo-padded input.  Exercises
// the LoadSlotElem superinstructions on the weight lookups.
const char* const kBlurSrc = R"(
  __kernel void blur(__global float* in, __global float* w, __global float* out) {
    int gid = get_global_id(0);
    float acc = 0.0f;
    for (int t = 0; t < 5; t = t + 1) {
      acc = acc + w[t] * in[gid + t * 512];
    }
    out[gid] = acc;
  }
)";

struct RunResult {
  double seconds = 0.0;
  std::uint64_t instructions = 0;
};

struct Workload {
  const char* name;
  const char* source;
  const char* kernel;
  std::int64_t items;
  std::vector<Slot> extraArgs;           ///< after the buffer pointer args
  std::vector<std::int64_t> inputSizes;  ///< element counts of buffers before `out`
};

struct Config {
  const char* name;
  bool optimize;
  bool batch;
};

RunResult runWorkload(const Workload& w, const Config& cfg, std::vector<float>& out) {
  const auto program = compileProgram(w.source, CompileOptions{cfg.optimize});

  std::vector<std::vector<float>> inputs;
  std::vector<MemRegion> regions;
  std::vector<Slot> args;
  int b = 0;
  for (const std::int64_t size : w.inputSizes) {
    inputs.emplace_back(static_cast<std::size_t>(size));
    for (std::size_t i = 0; i < inputs.back().size(); ++i) {
      inputs.back()[i] = 0.25f * static_cast<float>((i * 7 + static_cast<std::size_t>(b)) % 100 + 1);
    }
    regions.push_back(MemRegion{reinterpret_cast<std::byte*>(inputs.back().data()),
                                inputs.back().size() * sizeof(float)});
    Ptr p;
    p.region = static_cast<std::int32_t>(regions.size());
    p.offset = 0;
    args.push_back(Slot::fromPtr(p));
    ++b;
  }
  out.assign(static_cast<std::size_t>(w.items), 0.0f);
  regions.push_back(
      MemRegion{reinterpret_cast<std::byte*>(out.data()), out.size() * sizeof(float)});
  Ptr p;
  p.region = static_cast<std::int32_t>(regions.size());
  p.offset = 0;
  args.push_back(Slot::fromPtr(p));
  args.insert(args.end(), w.extraArgs.begin(), w.extraArgs.end());

  Vm vm(*program, regions);
  const int k = program->findKernel(w.kernel);
  if (k < 0) {
    std::fprintf(stderr, "no kernel '%s'\n", w.kernel);
    std::exit(1);
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (cfg.batch) {
    for (std::int64_t gid = 0; gid < w.items;) {
      const std::int64_t lanes = std::min<std::int64_t>(w.items - gid, Vm::kBatchLanes);
      vm.runKernelBatch(k, args, gid, lanes, w.items);
      gid += lanes;
    }
  } else {
    for (std::int64_t gid = 0; gid < w.items; ++gid) {
      vm.runKernel(k, args, gid, w.items);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.instructions = vm.instructionsExecuted();
  return r;
}

constexpr Config kConfigs[] = {
    {"ref", false, false},
    {"fast", true, false},
    {"batch", true, true},
};
constexpr int kNumConfigs = static_cast<int>(sizeof(kConfigs) / sizeof(kConfigs[0]));

struct BenchOutcome {
  bool identical = true;
  double speedupBatchOverFast = 0.0;
};

BenchOutcome benchWorkload(const Workload& w) {
  RunResult results[kNumConfigs];
  std::vector<float> outs[kNumConfigs];
  for (int c = 0; c < kNumConfigs; ++c) {
    results[c] = runWorkload(w, kConfigs[c], outs[c]);
  }

  BenchOutcome outcome;
  for (int c = 1; c < kNumConfigs; ++c) {
    if (results[c].instructions != results[0].instructions) {
      std::fprintf(stderr, "%s: retired-instruction mismatch: %s %llu vs ref %llu\n",
                   w.name, kConfigs[c].name,
                   static_cast<unsigned long long>(results[c].instructions),
                   static_cast<unsigned long long>(results[0].instructions));
      outcome.identical = false;
    }
    if (std::memcmp(outs[c].data(), outs[0].data(), outs[0].size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "%s: %s output is not bit-identical to ref\n", w.name,
                   kConfigs[c].name);
      outcome.identical = false;
    }
  }

  std::printf("%-12s %12llu instr  ", w.name,
              static_cast<unsigned long long>(results[0].instructions));
  for (int c = 0; c < kNumConfigs; ++c) {
    const double mips =
        results[c].seconds > 0 ? results[c].instructions / results[c].seconds / 1e6 : 0.0;
    std::printf(" %s %8.1f Mi/s", kConfigs[c].name, mips);
  }
  const double fastSec = results[1].seconds;
  const double batchSec = results[2].seconds;
  outcome.speedupBatchOverFast = batchSec > 0 ? fastSec / batchSec : 0.0;
  std::printf("   batch/fast %.2fx  batch/ref %.2fx\n", outcome.speedupBatchOverFast,
              batchSec > 0 ? results[0].seconds / batchSec : 0.0);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  const int width = smoke ? 32 : 512;
  const std::int64_t mandelItems = static_cast<std::int64_t>(width) * width;
  const int maxIter = smoke ? 32 : 512;
  const std::int64_t osemItems = smoke ? 512 : 16384;
  const int osemSpan = smoke ? 64 : 512;
  const std::int64_t blurItems = smoke ? 1024 : 65536;

  const Workload mandel{"mandelbrot", kMandelSrc, "mandel", mandelItems,
                        {Slot::fromInt(static_cast<std::int64_t>(width)),
                         Slot::fromInt(static_cast<std::int64_t>(maxIter))},
                        /*inputSizes=*/{}};
  const Workload osem{"osem", kOsemSrc, "project", osemItems,
                      {Slot::fromInt(osemItems),
                       Slot::fromInt(static_cast<std::int64_t>(osemSpan))},
                      /*inputSizes=*/{osemItems}};
  // Input is halo-padded: taps reach up to gid + 4*512 past the last item.
  const Workload blur{"blur", kBlurSrc, "blur", blurItems,
                      {},
                      /*inputSizes=*/{blurItems + 5 * 512, 5}};

  const BenchOutcome m = benchWorkload(mandel);
  const BenchOutcome o = benchWorkload(osem);
  const BenchOutcome bl = benchWorkload(blur);
  bool ok = m.identical && o.identical && bl.identical;
  if (gate && !smoke) {
    if (m.speedupBatchOverFast < 3.0) {
      std::fprintf(stderr, "gate: mandelbrot batch/fast %.2fx < 3x\n",
                   m.speedupBatchOverFast);
      ok = false;
    }
    if (o.speedupBatchOverFast < 3.0) {
      std::fprintf(stderr, "gate: osem batch/fast %.2fx < 3x\n", o.speedupBatchOverFast);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
