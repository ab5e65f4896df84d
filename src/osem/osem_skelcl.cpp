// List-mode OSEM in SkelCL — the paper's Listing 3.
//
// The hybrid parallelization strategy (Section IV-A): step 1 uses Projection
// Space Decomposition (events block-distributed, image copy-distributed),
// step 2 uses Image Space Decomposition (both images block-distributed).
// All data movement between the phases is expressed as distribution changes;
// SkelCL performs the transfers implicitly and lazily.
//
// The OSEM-LOC markers delimit what Figure 4a counts as "host code".
#include "core/detail/session.hpp"
#include "core/skelcl.hpp"
#include "ocl/program.hpp"
#include "osem/osem.hpp"
#include "osem/osem_kernels.hpp"

namespace skelcl::osem {

namespace {

OsemResult reconstructSkelCL(const OsemData& data) {
  const VolumeSpec& vol = data.volume();
  const int n = static_cast<int>(vol.voxels());
  std::vector<double> subsetTimes;

  // OSEM-LOC-BEGIN(skelcl-host)
  Map<int(Index)> mapComputeC(step1UserFunctionSource());
  Zip<float> zipUpdate(step2UserFunctionSource());
  Vector<float> f(vol.voxels());
  std::fill(f.begin(), f.end(), 1.0f);

  for (int it = 0; it < data.config.iterations; ++it) {
    for (int l = 0; l < data.config.numSubsets; ++l) {
      const double t0 = simTimeSeconds();
      /* 1. Upload: distribute events to devices */
      Vector<Event> events(std::vector<Event>(data.subset(l), data.subset(l) + data.subsetSize()));
      IndexVector index(data.subsetSize());
      events.setDistribution(Distribution::block());
      index.setDistribution(Distribution::block());
      f.setDistribution(Distribution::copy());
      Vector<float> c(vol.voxels());
      c.setDistribution(Distribution::copy("float func(float a, float b) { return a + b; }"));
      /* 2. Step 1: compute error image (map skeleton) */
      mapComputeC(index, events, events.offsets(), events.sizes(), f, c,
                  vol.nx, vol.ny, vol.nz, vol.voxel);
      c.dataOnDevicesModified();
      /* 3. Redistribution: reduce (element-wise add) all error images and
         distribute the result and the reconstruction image to the devices */
      f.setDistribution(Distribution::block());
      c.setDistribution(Distribution::block());
      /* 4. Step 2: update reconstruction image (zip skeleton) */
      zipUpdate(out(f), f, c);
      /* 5. Download: merging is performed implicitly */
      finish();
      subsetTimes.push_back(simTimeSeconds() - t0);
      (void)n;
    }
  }
  // OSEM-LOC-END(skelcl-host)

  OsemResult result;
  result.image.assign(f.begin(), f.end());
  double sum = 0.0;
  for (std::size_t i = 1; i < subsetTimes.size(); ++i) sum += subsetTimes[i];
  result.secondsPerSubset =
      subsetTimes.size() > 1 ? sum / static_cast<double>(subsetTimes.size() - 1)
                             : subsetTimes.front();
  result.totalSimSeconds = simTimeSeconds();
  return result;
}

OsemResult reconstructSkelCLSingle(const OsemData& data) {
  const VolumeSpec& vol = data.volume();
  std::vector<double> subsetTimes;

  // OSEM-LOC-BEGIN(skelcl-single-host)
  Map<int(Index)> mapComputeC(step1UserFunctionSource());
  Zip<float> zipUpdate(step2UserFunctionSource());
  Vector<float> f(vol.voxels());
  std::fill(f.begin(), f.end(), 1.0f);

  for (int it = 0; it < data.config.iterations; ++it) {
    for (int l = 0; l < data.config.numSubsets; ++l) {
      const double t0 = simTimeSeconds();
      Vector<Event> events(std::vector<Event>(data.subset(l), data.subset(l) + data.subsetSize()));
      IndexVector index(data.subsetSize());
      events.setDistribution(Distribution::single());
      index.setDistribution(Distribution::single());
      f.setDistribution(Distribution::single());
      Vector<float> c(vol.voxels());
      c.setDistribution(Distribution::single());
      mapComputeC(index, events, events.offsets(), events.sizes(), f, c,
                  vol.nx, vol.ny, vol.nz, vol.voxel);
      c.dataOnDevicesModified();
      zipUpdate(out(f), f, c);
      finish();
      subsetTimes.push_back(simTimeSeconds() - t0);
    }
  }
  // OSEM-LOC-END(skelcl-single-host)

  OsemResult result;
  result.image.assign(f.begin(), f.end());
  double sum = 0.0;
  for (std::size_t i = 1; i < subsetTimes.size(); ++i) sum += subsetTimes[i];
  result.secondsPerSubset =
      subsetTimes.size() > 1 ? sum / static_cast<double>(subsetTimes.size() - 1)
                             : subsetTimes.front();
  result.totalSimSeconds = simTimeSeconds();
  return result;
}

}  // namespace

std::string generatedStep1KernelSource() {
  registerOsemKernelTypes();
  init(sim::SystemConfig::teslaS1070(1));
  std::string source;
  try {
    // One event through the step-1 Map makes SkelCL generate and cache the
    // kernel; its program cache then holds the exact text.
    Map<int(Index)> mapComputeC(step1UserFunctionSource());
    Vector<Event> events(std::vector<Event>{Event{-40.0f, 0.0f, 0.0f, 40.0f, 1.0f, 2.0f}});
    IndexVector index(1);
    Vector<float> f(std::vector<float>(8, 1.0f));
    Vector<float> c(8);
    events.setDistribution(Distribution::single());
    index.setDistribution(Distribution::single());
    f.setDistribution(Distribution::single());
    c.setDistribution(Distribution::single());
    mapComputeC(index, events, events.offsets(), events.sizes(), f, c, 2, 2, 2, 2.0f);
    finish();
    for (const auto& program : detail::currentSession().shared().cachedPrograms()) {
      const std::string& text = program->compiled()->source;
      if (text.find("skelcl_kernel") != std::string::npos &&
          text.find("osem_march") != std::string::npos) {
        source = text;
      }
    }
  } catch (...) {
    terminate();
    throw;
  }
  terminate();
  SKELCL_CHECK(!source.empty(), "the step-1 Map generated no kernel");
  return source;
}

OsemResult runOsemSkelCLPreInitialized(const OsemData& data) {
  registerOsemKernelTypes();
  return reconstructSkelCL(data);
}

OsemResult runOsemSkelCL(const OsemData& data, int numGpus) {
  registerOsemKernelTypes();
  init(sim::SystemConfig::teslaS1070(numGpus));
  OsemResult result;
  try {
    result = reconstructSkelCL(data);
  } catch (...) {
    terminate();
    throw;
  }
  terminate();
  return result;
}

OsemResult runOsemSkelCLSingle(const OsemData& data) {
  registerOsemKernelTypes();
  init(sim::SystemConfig::teslaS1070(1));
  OsemResult result;
  try {
    result = reconstructSkelCLSingle(data);
  } catch (...) {
    terminate();
    throw;
  }
  terminate();
  return result;
}

}  // namespace skelcl::osem
