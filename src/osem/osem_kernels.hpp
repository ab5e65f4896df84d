// Device code of the list-mode OSEM algorithm, in the kernel language.
//
// All three parallel implementations (SkelCL / raw socl / scuda) share this
// device code, just as the paper's implementations share one algorithm: the
// Siddon ray march (identical, operation for operation, to the host version
// in siddon.cpp), the step-1 forward/backward projection, and the step-2
// multiplicative update.  Figure 4a counts these lines as "kernel LOC".
#pragma once

#include <string>

namespace skelcl::osem {

/// `typedef struct { ... } Event;` for kernel programs.
const std::string& eventTypedefSource();

/// The ray-march core: `float osem_march(...)` (forward project or scatter).
const std::string& marchSource();

/// SkelCL user function for step 1 (index-based map with additional args).
const std::string& step1UserFunctionSource();

/// SkelCL user function for step 2 (zip).
const std::string& step2UserFunctionSource();

/// Complete raw kernels `osem_step1` / `osem_step2` for the OpenCL- and
/// CUDA-style implementations (typedef + march + __kernel wrappers).
const std::string& rawKernelsSource();

/// The complete kernel source SkelCL generates for the step-1 Map (the Event
/// typedef, the user function and the `skelcl_kernel` wrapper), taken from
/// the program cache after running the Map on one event.  Starts and ends
/// its own one-GPU SkelCL session, so call it with no session active.
/// Kernel parameters: (int* skelcl_out, int skelcl_n, int skelcl_base,
/// Event* events, int evOffset, int evCount, float* f, float* c, int nx,
/// int ny, int nz, float voxel).
std::string generatedStep1KernelSource();

/// Register the Event struct with SkelCL's type registry (idempotent).
void registerOsemKernelTypes();

}  // namespace skelcl::osem
