// skelcheck — randomized differential state-machine testing for SkelCL.
//
// Runs seeded random op-sequence programs in lockstep against the live
// runtime and a pure host-side reference model (see docs/TESTING.md).
//
//   skelcheck --smoke                 fixed seed sweep (CI gate, <30s)
//   skelcheck --seed N [--ops K]      one seeded run, shrink on divergence
//   skelcheck --sweep FIRST COUNT     seed range; writes shrunk .skelcheck
//                                     repros to --out DIR (default .)
//   skelcheck --replay FILE           re-run a .skelcheck repro
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "check/generator.hpp"
#include "check/runner.hpp"
#include "check/shrink.hpp"

namespace {

using namespace skelcl::check;

int usage() {
  std::fprintf(stderr,
               "usage: skelcheck --smoke\n"
               "       skelcheck --seed N [--ops K]\n"
               "       skelcheck --sweep FIRST COUNT [--ops K] [--out DIR]\n"
               "       skelcheck --replay FILE\n");
  return 2;
}

/// Run one seed; on divergence shrink and (optionally) write the repro.
/// Returns true when the seed passed.
bool runSeed(std::uint64_t seed, int numOps, const std::string& outDir, bool shrinkIt) {
  const Program prog = generate(seed, numOps);
  const RunResult res = runProgram(prog);
  if (res.ok) return true;

  std::fprintf(stderr, "seed %llu DIVERGED: %s\n",
               static_cast<unsigned long long>(seed), res.message.c_str());
  Program repro = prog;
  if (shrinkIt) {
    std::fprintf(stderr, "shrinking (%zu ops)...\n", prog.ops.size());
    const Program shrunk =
        shrink(prog, [](const Program& cand) { return !runProgram(cand).ok; });
    const RunResult small = runProgram(shrunk);
    if (small.ok) {
      // Every shrink step saw a divergence, yet the result passes: the
      // divergence depends on something other than the program (thread
      // scheduling).  The unshrunk program is the honest repro.
      std::fprintf(stderr,
                   "shrunk program passed its re-run: the divergence did not reproduce "
                   "(nondeterministic); keeping the unshrunk %zu-op program\n",
                   prog.ops.size());
    } else {
      repro = shrunk;
      std::fprintf(stderr, "shrunk to %zu ops: %s\n", repro.ops.size(),
                   small.message.c_str());
    }
  }
  const std::string path = outDir + "/seed-" + std::to_string(seed) + ".skelcheck";
  std::ofstream out(path);
  if (out) {
    out << serialize(repro);
    std::fprintf(stderr, "repro written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s; repro follows:\n%s", path.c_str(),
                 serialize(repro).c_str());
  }
  return false;
}

/// The CI smoke gate: 64 fixed seeds x 40 ops.  Seeds 0..63 cover, by
/// construction of generate(), all of {1,2,4} devices, both element types
/// and both VM pipelines; the op mix includes fusion and fault injection.
int smoke() {
  int failures = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    if (!runSeed(seed, 40, ".", /*shrinkIt=*/true)) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "skelcheck --smoke: %d/64 seeds diverged\n", failures);
    return 1;
  }
  std::printf("skelcheck --smoke: 64 seeds, 0 divergences\n");
  return 0;
}

int replay(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "skelcheck: cannot open %s\n", file.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Program prog;
  try {
    prog = parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skelcheck: %s\n", e.what());
    return 2;
  }
  const RunResult res = runProgram(prog);
  if (!res.ok) {
    std::fprintf(stderr, "replay DIVERGED: %s\n", res.message.c_str());
    return 1;
  }
  std::printf("replay passed (%zu ops)\n", prog.ops.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0, sweepFirst = 0;
  int numOps = 60, sweepCount = 0;
  std::string outDir = ".", replayFile;
  bool haveSeed = false, doSmoke = false, doSweep = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "skelcheck: %s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      doSmoke = true;
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
      haveSeed = true;
    } else if (arg == "--ops") {
      numOps = std::atoi(next());
    } else if (arg == "--sweep") {
      sweepFirst = std::strtoull(next(), nullptr, 10);
      sweepCount = std::atoi(next());
      doSweep = true;
    } else if (arg == "--out") {
      outDir = next();
    } else if (arg == "--replay") {
      replayFile = next();
    } else {
      return usage();
    }
  }

  if (doSmoke) return smoke();
  if (!replayFile.empty()) return replay(replayFile);
  if (doSweep) {
    int failures = 0;
    for (int k = 0; k < sweepCount; ++k) {
      if (!runSeed(sweepFirst + static_cast<std::uint64_t>(k), numOps, outDir, true)) {
        ++failures;
      }
    }
    std::printf("skelcheck --sweep: %d seeds, %d divergences\n", sweepCount, failures);
    return failures > 0 ? 1 : 0;
  }
  if (haveSeed) {
    return runSeed(seed, numOps, outDir, true) ? 0 : 1;
  }
  return usage();
}
