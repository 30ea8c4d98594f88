/**
 * @file
 * Runtime CPU feature probing for the kernel dispatch registry.
 *
 * The vectorized kernels are compiled per-ISA (see src/CMakeLists.txt:
 * kernels_sse42.cpp / kernels_avx2.cpp / kernels_avx512.cpp get
 * -msse4.2 / -mavx2 / -mavx512{f,bw,vl}); whether the *running* CPU
 * can execute them is a separate question answered here, once, at
 * registry construction.
 */
#ifndef DARWIN_ALIGN_KERNELS_CPU_FEATURES_H
#define DARWIN_ALIGN_KERNELS_CPU_FEATURES_H

namespace darwin::align::kernels {

/** ISA extensions the dispatch registry cares about. */
struct CpuFeatures {
    bool sse42 = false;
    bool avx2 = false;
    bool avx512 = false;  ///< AVX-512 F, BW and VL together
};

/**
 * Probe the running CPU. On x86 this uses the compiler's CPUID support
 * (which also accounts for OS XSAVE state for AVX2); on other
 * architectures everything is false and only the scalar kernels run.
 */
CpuFeatures probe_cpu_features();

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_CPU_FEATURES_H
