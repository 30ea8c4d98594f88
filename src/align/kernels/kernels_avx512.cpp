/**
 * AVX-512 GACT-X kernel: the shared `GactXSimdPolicy` (gactx_wavefront.h)
 * at 16 int32 lanes, each block's pointer nibbles leaving as one 8-byte
 * store. The registry pairs it with the AVX2 filter kernels. Compiled
 * with -mavx512f -mavx512bw -mavx512vl when the compiler supports them
 * (see src/CMakeLists.txt); otherwise the stub at the bottom reports the
 * ISA as uncompiled and the registry skips it.
 */
#include "align/kernels/gactx_wavefront.h"
#include "align/kernels/kernel_registry.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

namespace darwin::align::kernels {
namespace {

/**
 * AVX-512 lanes of the GACT-X policy (gactx_wavefront.h). The
 * all-lanes-masked intrinsic forms stand in for the unmasked ones,
 * whose undefined pass-through operand GCC 12 reports as uninitialized.
 */
struct Avx512Lanes {
    static constexpr std::size_t kWidth = 16;
    typedef std::int32_t Vec __attribute__((vector_size(64)));

    static Vec
    widen(const std::uint8_t* p)
    {
        return reinterpret_cast<Vec>(_mm512_maskz_cvtepu8_epi32(
            0xFFFF, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
    }

    /** The 25 scores fit a 32-entry two-register permute table. */
    static Vec
    lookup(const Score* sub, Vec idx)
    {
        const __m512i lo = _mm512_loadu_si512(sub);
        const __m512i hi = _mm512_maskz_loadu_epi32(0x01FF, sub + 16);
        return reinterpret_cast<Vec>(_mm512_permutex2var_epi32(
            lo, reinterpret_cast<__m512i>(idx), hi));
    }

    static unsigned
    mask(Vec m)
    {
        const __m512i v = reinterpret_cast<__m512i>(m);
        return _mm512_test_epi32_mask(v, v);
    }

    template <class Pairs>
    static void
    store_low_bytes(std::uint8_t* out, Pairs pairs)
    {
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                         _mm512_maskz_cvtepi64_epi8(
                             0xFF, reinterpret_cast<__m512i>(pairs)));
    }
};

}  // namespace

const KernelOps* avx512_kernel_ops() {
    // Constant-initialized: nothing here runs AVX-512 code on CPUs
    // without it (the registry calls this unconditionally).
    static const KernelOps ops{
        nullptr, nullptr,
        &gactx_align_wavefront<GactXSimdPolicy<Avx512Lanes>>};
    return &ops;
}

}  // namespace darwin::align::kernels

#else  // AVX-512 F/BW/VL not enabled for this translation unit

namespace darwin::align::kernels {

const KernelOps* avx512_kernel_ops() { return nullptr; }

}  // namespace darwin::align::kernels

#endif
