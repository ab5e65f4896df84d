// Interpreter throughput benchmark (docs/VM.md): runs mandelbrot-shaped,
// OSEM-shaped, Gaussian-blur-stencil and generated-skeleton kernels, and the
// step-1 kernel SkelCL generates for OSEM, on the kernelc VM along every
// interpreter path —
//   ref    the reference pipeline on the guarded interpreter (SKELCL_KC_OPT=0)
//   fast   the optimized pipeline (inlining, register code) on the
//          sequential fast interpreter
//   batch  the optimized pipeline on the work-group-batched interpreter
//          (Vm::runKernelBatch, 256-lane groups)
// Each leg is timed over 5 repetitions in-process (2 with --smoke); the
// table reports the median Minstructions/s with its interquartile range,
// and batch speedups as ratios of median times.
// Outputs must be bit-identical and the retired-instruction counts equal
// across every configuration and repetition, otherwise the simulated GPU
// timings would drift; the benchmark exits nonzero on any divergence.
//
//   usage: bench_vm [--smoke] [--gate]
//     --smoke   small sizes (CI): divergence checks only
//     --gate    additionally require median batch >= 3x fast on mandelbrot
//               and osem
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "kernelc/program.hpp"
#include "kernelc/vm.hpp"
#include "osem/osem.hpp"
#include "osem/osem_kernels.hpp"

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
// its own column's taps at gid + t*512 from a halo-padded input.  The weight
// lookups index a pointer slot by a slot.
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

// Generated-skeleton shapes: a user `func` merged into the kernel text that
// skeleton_exec.cpp emits.  The map is perfbench's cluster map (a Map with
// one vector additional argument); the reduce is the step-1 chunk loop of
// Reduce.  Both only batch because the optimized pipeline inlines `func`.
const char* const kSkelMapSrc = R"(
float func(float x, __global float* w) { float s = x; for (int i = 0; i < 6; ++i) s = fmod(2.0f * s + w[0], 9.0f); return s; }
__kernel void skelcl_kernel(__global float* skelcl_in1, __global float* skelcl_out, int skelcl_n, int skelcl_base, __global float* skelcl_a0) {
  int skelcl_i = get_global_id(0);
  if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = func(skelcl_in1[skelcl_i], skelcl_a0);
}
)";

const char* const kSkelReduceSrc = R"(
float func(float a, float b) { return a + b; }
__kernel void skelcl_reduce(__global float* skelcl_in, __global float* skelcl_partials, int skelcl_n, int skelcl_chunk) {
  int skelcl_w = get_global_id(0);
  int skelcl_begin = skelcl_w * skelcl_chunk;
  int skelcl_end = min(skelcl_begin + skelcl_chunk, skelcl_n);
  float skelcl_acc = skelcl_in[skelcl_begin];
  for (int skelcl_i = skelcl_begin + 1; skelcl_i < skelcl_end; ++skelcl_i)
    skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);
  skelcl_partials[skelcl_w] = skelcl_acc;
}
)";

/// One kernel argument, in parameter order.
struct Arg {
  enum class Kind { In, Out, Scalar };
  Kind kind;
  std::int64_t elems = 0;   ///< buffer length in floats (Out: 0 means `items`)
  Slot value{};             ///< Scalar argument
  std::vector<float> data;  ///< In: contents (empty: a generated pattern)
};

Arg in(std::int64_t elems) { return Arg{Arg::Kind::In, elems, Slot{}, {}}; }
Arg in(std::vector<float> data) {
  const auto elems = static_cast<std::int64_t>(data.size());
  return Arg{Arg::Kind::In, elems, Slot{}, std::move(data)};
}
Arg out(std::int64_t elems = 0) { return Arg{Arg::Kind::Out, elems, Slot{}, {}}; }
Arg scalar(std::int64_t v) { return Arg{Arg::Kind::Scalar, 0, Slot::fromInt(v), {}}; }
Arg scalarF(float v) { return Arg{Arg::Kind::Scalar, 0, Slot::fromFloat(v), {}}; }

struct Workload {
  const char* name;
  std::string source;
  const char* kernel;
  std::int64_t items;
  std::vector<Arg> args;
};

struct Config {
  const char* name;
  bool optimize;
  bool batch;
};

/// All repetitions of one workload on one configuration.
struct Leg {
  std::vector<double> seconds;   ///< one per repetition
  std::uint64_t instructions = 0;
  std::vector<float> out;  ///< every Out buffer, concatenated
  bool stable = true;  ///< every repetition retired the same count and output
};

Leg runLeg(const Workload& w, const Config& cfg, int reps) {
  const auto program = compileProgram(w.source, CompileOptions{cfg.optimize});
  const int k = program->findKernel(w.kernel);
  if (k < 0) {
    std::fprintf(stderr, "no kernel '%s'\n", w.kernel);
    std::exit(1);
  }

  // Buffers are bound once; inputs are never written, and the outputs are
  // reset before every repetition.
  std::vector<std::vector<float>> buffers;
  buffers.reserve(w.args.size());
  std::vector<MemRegion> regions;
  std::vector<Slot> args;
  std::vector<std::vector<float>*> outBufs;
  for (const Arg& a : w.args) {
    if (a.kind == Arg::Kind::Scalar) {
      args.push_back(a.value);
      continue;
    }
    const std::int64_t elems = a.kind == Arg::Kind::Out && a.elems == 0 ? w.items : a.elems;
    std::vector<float>& buf = buffers.emplace_back(static_cast<std::size_t>(elems));
    const std::size_t b = buffers.size();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = 0.25f * static_cast<float>((i * 7 + b) % 100 + 1);
    }
    if (!a.data.empty()) buf = a.data;
    if (a.kind == Arg::Kind::Out) outBufs.push_back(&buf);
    regions.push_back(
        MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)});
    Ptr p;
    p.region = static_cast<std::int32_t>(regions.size());
    p.offset = 0;
    args.push_back(Slot::fromPtr(p));
  }

  Leg leg;
  for (int r = 0; r < reps; ++r) {
    for (std::vector<float>* o : outBufs) std::fill(o->begin(), o->end(), 0.0f);
    Vm vm(*program, regions);
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
    leg.seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
    std::vector<float> outs;
    for (const std::vector<float>* o : outBufs) outs.insert(outs.end(), o->begin(), o->end());
    if (r == 0) {
      leg.instructions = vm.instructionsExecuted();
      leg.out = std::move(outs);
    } else if (vm.instructionsExecuted() != leg.instructions || outs != leg.out) {
      leg.stable = false;
    }
  }
  return leg;
}

/// Linear-interpolated quantile of `v` (0 <= q <= 1).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

constexpr Config kConfigs[] = {
    {"ref", false, false},
    {"fast", true, false},
    {"batch", true, true},
};
constexpr int kNumConfigs = static_cast<int>(sizeof(kConfigs) / sizeof(kConfigs[0]));

struct BenchOutcome {
  bool identical = true;
  double speedupBatchOverFast = 0.0;  ///< ratio of median times
};

BenchOutcome benchWorkload(const Workload& w, int reps) {
  Leg legs[kNumConfigs];
  for (int c = 0; c < kNumConfigs; ++c) legs[c] = runLeg(w, kConfigs[c], reps);

  BenchOutcome outcome;
  for (int c = 0; c < kNumConfigs; ++c) {
    if (!legs[c].stable) {
      std::fprintf(stderr, "%s: %s differs between repetitions\n", w.name, kConfigs[c].name);
      outcome.identical = false;
    }
    if (c == 0) continue;
    if (legs[c].instructions != legs[0].instructions) {
      std::fprintf(stderr, "%s: retired-instruction mismatch: %s %llu vs ref %llu\n",
                   w.name, kConfigs[c].name,
                   static_cast<unsigned long long>(legs[c].instructions),
                   static_cast<unsigned long long>(legs[0].instructions));
      outcome.identical = false;
    }
    if (legs[c].out.size() != legs[0].out.size() ||
        std::memcmp(legs[c].out.data(), legs[0].out.data(),
                    legs[0].out.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "%s: %s output is not bit-identical to ref\n", w.name,
                   kConfigs[c].name);
      outcome.identical = false;
    }
  }

  // Throughput quartiles are the instruction count over the time quartiles
  // (the slowest quarter of runs gives the lower throughput quartile).
  std::printf("%-12s %12llu instr ", w.name,
              static_cast<unsigned long long>(legs[0].instructions));
  for (int c = 0; c < kNumConfigs; ++c) {
    const auto mips = [&](double q) {
      const double s = quantile(legs[c].seconds, q);
      return s > 0 ? static_cast<double>(legs[c].instructions) / s / 1e6 : 0.0;
    };
    std::printf("  %s %8.1f Mi/s [%.1f-%.1f]", kConfigs[c].name, mips(0.5), mips(0.75),
                mips(0.25));
  }
  const double refSec = median(legs[0].seconds);
  const double fastSec = median(legs[1].seconds);
  const double batchSec = median(legs[2].seconds);
  outcome.speedupBatchOverFast = batchSec > 0 ? fastSec / batchSec : 0.0;
  std::printf("   batch/fast %.2fx  batch/ref %.2fx\n", outcome.speedupBatchOverFast,
              batchSec > 0 ? refSec / batchSec : 0.0);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else {
      std::fprintf(stderr, "usage: bench_vm [--smoke] [--gate]\n");
      return 2;
    }
  }
  const int reps = smoke ? 2 : 5;

  const int width = smoke ? 32 : 512;
  const std::int64_t mandelItems = static_cast<std::int64_t>(width) * width;
  const int maxIter = smoke ? 32 : 512;
  const std::int64_t osemItems = smoke ? 512 : 16384;
  const int osemSpan = smoke ? 64 : 512;
  const std::int64_t blurItems = smoke ? 1024 : 65536;
  const std::int64_t mapItems = smoke ? 1024 : 65536;
  const std::int64_t reduceItems = smoke ? 64 : 1024;
  const std::int64_t reduceChunk = smoke ? 32 : 256;

  // OSEM step 1 as SkelCL runs it: the generated Map kernel calling `func`
  // (struct local, two inlined osem_march calls, atomic_add_f), per item,
  // over the first events of a generated subset scattering into image c.
  skelcl::osem::OsemConfig osemCfg;
  osemCfg.volume.nx = osemCfg.volume.ny = osemCfg.volume.nz = smoke ? 16 : 48;
  osemCfg.eventsPerSubset = smoke ? 256 : 4096;
  osemCfg.numSubsets = 1;
  const auto osemData = skelcl::osem::OsemData::generate(osemCfg);
  const auto& vol = osemData.volume();
  const auto stepItems = static_cast<std::int64_t>(osemData.subsetSize());
  const auto* eventFloats = reinterpret_cast<const float*>(osemData.subset(0));
  std::vector<float> events(eventFloats,
                            eventFloats + osemData.subsetSize() * sizeof(skelcl::osem::Event) /
                                              sizeof(float));
  const auto voxels = static_cast<std::int64_t>(vol.voxels());

  const Workload workloads[] = {
      {"mandelbrot", kMandelSrc, "mandel", mandelItems,
       {out(), scalar(width), scalar(maxIter)}},
      {"osem", kOsemSrc, "project", osemItems,
       {in(osemItems), out(), scalar(osemItems), scalar(osemSpan)}},
      // Input is halo-padded: taps reach up to gid + 4*512 past the last item.
      {"blur", kBlurSrc, "blur", blurItems, {in(blurItems + 5 * 512), in(5), out()}},
      {"skel_map", kSkelMapSrc, "skelcl_kernel", mapItems,
       {in(mapItems), out(), scalar(mapItems), scalar(0), in(1)}},
      {"skel_reduce", kSkelReduceSrc, "skelcl_reduce", reduceItems,
       {in(reduceItems * reduceChunk), out(), scalar(reduceItems * reduceChunk),
        scalar(reduceChunk)}},
      {"osem_step1", skelcl::osem::generatedStep1KernelSource(), "skelcl_kernel", stepItems,
       {out(), scalar(stepItems), scalar(0), in(std::move(events)), scalar(0),
        scalar(stepItems), in(voxels), out(voxels), scalar(vol.nx), scalar(vol.ny),
        scalar(vol.nz), scalarF(vol.voxel)}},
  };

  std::printf("bench_vm: median Mi/s [IQR] over %d repetitions per leg\n", reps);
  bool ok = true;
  double mandelSpeedup = 0.0;
  double osemSpeedup = 0.0;
  for (const Workload& w : workloads) {
    const BenchOutcome o = benchWorkload(w, reps);
    ok = ok && o.identical;
    if (std::strcmp(w.name, "mandelbrot") == 0) mandelSpeedup = o.speedupBatchOverFast;
    if (std::strcmp(w.name, "osem") == 0) osemSpeedup = o.speedupBatchOverFast;
  }
  if (gate && !smoke) {
    if (mandelSpeedup < 3.0) {
      std::fprintf(stderr, "gate: mandelbrot median batch/fast %.2fx < 3x\n", mandelSpeedup);
      ok = false;
    }
    if (osemSpeedup < 3.0) {
      std::fprintf(stderr, "gate: osem median batch/fast %.2fx < 3x\n", osemSpeedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
