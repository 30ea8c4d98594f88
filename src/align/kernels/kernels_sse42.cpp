/**
 * SSE4.2 kernels (4 x int32 lanes): the width-generic banded SW and
 * GACT-X kernels (simd_lanes.h, gactx_wavefront.h) instantiated with
 * `Sse42Lanes`. Compiled with -msse4.2 when the compiler supports it
 * (see src/CMakeLists.txt); otherwise the stub at the bottom reports the
 * ISA as uncompiled and the registry skips it. SSE has no gather, so
 * substitution scores are looked up scalar-wise.
 */
#include "align/kernels/gactx_wavefront.h"
#include "align/kernels/kernel_registry.h"

#if defined(__SSE4_2__)

#include <nmmintrin.h>

#include <cstring>

namespace darwin::align::kernels {
namespace {

/** SSE4.2 lanes of the vector kernels (simd_lanes.h). */
struct Sse42Lanes {
    static constexpr std::size_t kWidth = 4;
    typedef std::int32_t Vec __attribute__((vector_size(16)));

    static Vec
    widen(const std::uint8_t* p)
    {
        std::int32_t bytes;
        std::memcpy(&bytes, p, sizeof bytes);
        return reinterpret_cast<Vec>(
            _mm_cvtepu8_epi32(_mm_cvtsi32_si128(bytes)));
    }

    /** Substitution scores, gathered scalar-wise (SSE has no gather). */
    static Vec
    lookup(const Score* sub, Vec idx)
    {
        return Vec{sub[idx[0]], sub[idx[1]], sub[idx[2]], sub[idx[3]]};
    }

    static unsigned
    mask(Vec m)
    {
        return static_cast<unsigned>(
            _mm_movemask_ps(reinterpret_cast<__m128>(m)));
    }

    template <class Pairs>
    static void
    store_low_bytes(std::uint8_t* out, Pairs pairs)
    {
        const __m128i b = _mm_shuffle_epi8(
            reinterpret_cast<__m128i>(pairs),
            _mm_setr_epi8(0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                          -1, -1, -1, -1));
        const auto two = static_cast<std::uint16_t>(_mm_cvtsi128_si32(b));
        std::memcpy(out, &two, sizeof two);
    }
};

}  // namespace

const KernelOps* sse42_kernel_ops() {
    // No dedicated ungapped kernel: without a hardware gather the block
    // formulation is a wash, so the registry falls back to scalar.
    static const KernelOps ops{
        &bsw_simd<Sse42Lanes>, nullptr,
        &gactx_align_wavefront<GactXSimdPolicy<Sse42Lanes>>};
    return &ops;
}

}  // namespace darwin::align::kernels

#else  // !defined(__SSE4_2__)

namespace darwin::align::kernels {

const KernelOps* sse42_kernel_ops() { return nullptr; }

}  // namespace darwin::align::kernels

#endif
