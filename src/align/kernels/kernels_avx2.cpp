/**
 * AVX2 kernels (8 x int32 lanes). Compiled with -mavx2 when the
 * compiler supports it (see src/CMakeLists.txt); otherwise the stub at
 * the bottom reports the ISA as uncompiled and the registry skips it.
 *
 * Banded SW and GACT-X: the width-generic kernels (simd_lanes.h,
 * gactx_wavefront.h) instantiated with `Avx2Lanes`, whose substitution
 * lookup is a hardware gather from the flattened 5x5 matrix. Ungapped
 * x-drop: substitution scores are gathered in 8-cell blocks and the
 * run/best/break chain is evaluated in-register — an inclusive prefix
 * sum gives every running score in the block, an inclusive prefix max
 * gives every intermediate best, and two compare/movemask steps locate
 * the last best-improving lane and the first x-drop break lane. The
 * lane arithmetic reproduces the scalar chain exactly (same strict-
 * greater best update, same post-update break test), so the early
 * termination point (and cells_computed) never diverges from scalar.
 * All integer ops are exact, so results are bit-identical.
 */
#include "align/kernels/gactx_wavefront.h"
#include "align/kernels/kernel_registry.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "util/logging.h"

namespace darwin::align::kernels {
namespace {

inline Score hsum8(__m256i v) {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

inline int movemask32(__m256i v) {
    return _mm256_movemask_ps(_mm256_castsi256_ps(v));
}

/** 8 base codes widened to int32 lanes. */
inline __m256i load_codes8(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

/** Substitution scores for 8 (target, query) code pairs. */
inline __m256i gather_subs(const Score* sub, __m256i tc, __m256i qc) {
    const __m256i idx = _mm256_add_epi32(
        _mm256_mullo_epi32(tc, _mm256_set1_epi32(seq::kNumCodes)), qc);
    return _mm256_i32gather_epi32(reinterpret_cast<const int*>(sub), idx, 4);
}

/** Inclusive 8-lane prefix sum (lane b = x[0] + ... + x[b]). */
inline __m256i prefix_sum8(__m256i x) {
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    // Propagate the low half's total into every high-half lane.
    __m256i low = _mm256_permute2x128_si256(x, x, 0x08);
    low = _mm256_shuffle_epi32(low, _MM_SHUFFLE(3, 3, 3, 3));
    return _mm256_add_epi32(x, low);
}

/** Inclusive 8-lane prefix max (shifted-in lanes act as -inf). */
inline __m256i prefix_max8(__m256i x) {
    const __m256i ninf = _mm256_set1_epi32(kScoreNegInf);
    __m256i s = _mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6));
    x = _mm256_max_epi32(x, _mm256_blend_epi32(s, ninf, 0x01));
    s = _mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5));
    x = _mm256_max_epi32(x, _mm256_blend_epi32(s, ninf, 0x03));
    s = _mm256_permutevar8x32_epi32(
        x, _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3));
    x = _mm256_max_epi32(x, _mm256_blend_epi32(s, ninf, 0x0F));
    return x;
}

UngappedResult
ungapped_avx2(std::span<const std::uint8_t> target,
              std::span<const std::uint8_t> query, std::size_t seed_t,
              std::size_t seed_q, std::size_t seed_len,
              const ScoringParams& scoring, Score xdrop)
{
    require(seed_t + seed_len <= target.size() &&
            seed_q + seed_len <= query.size(),
            "ungapped_xdrop_extend: seed outside spans");

    UngappedResult out;
    const Score* sub = scoring.matrix.front().data();
    const std::uint8_t* tb = target.data();
    const std::uint8_t* qb = query.data();
    const __m256i krev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);

    // Seed span: integer adds are exact and order-independent, so the
    // vector sum matches the scalar accumulation.
    Score seed_score = 0;
    {
        std::size_t k = 0;
        __m256i acc = _mm256_setzero_si256();
        for (; k + 8 <= seed_len; k += 8)
            acc = _mm256_add_epi32(
                acc, gather_subs(sub, load_codes8(tb + seed_t + k),
                                 load_codes8(qb + seed_q + k)));
        seed_score = hsum8(acc);
        for (; k < seed_len; ++k)
            seed_score += sub[tb[seed_t + k] * seq::kNumCodes +
                              qb[seed_q + k]];
        out.cells_computed += seed_len;
    }

    // One 8-cell block of the run/best/break chain, fully in-register.
    // P[b] = running score after cell b (prefix sum + incoming run);
    // best before cell b = max(incoming best, M[b-1]) where M is the
    // prefix max of P; best after cell b = max(incoming best, M[b]).
    // The improve mask marks lanes where the scalar chain would update
    // best (strict >), the break mask lanes where the post-update x-drop
    // test fires; the first break lane bounds both. Returns the number
    // of cells consumed (8, or fewer when the x-drop test fired).
    const __m256i xdropv = _mm256_set1_epi32(xdrop);
    const auto scan8 = [&](__m256i subs, Score& run, Score& best,
                           std::size_t& best_len, std::size_t len_before,
                           bool* broke) -> std::size_t {
        const __m256i p = _mm256_add_epi32(prefix_sum8(subs),
                                           _mm256_set1_epi32(run));
        const __m256i m = prefix_max8(p);
        const __m256i bestv = _mm256_set1_epi32(best);
        __m256i mprev = _mm256_permutevar8x32_epi32(
            m, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6));
        mprev = _mm256_blend_epi32(mprev,
                                   _mm256_set1_epi32(kScoreNegInf), 0x01);
        const __m256i best_before = _mm256_max_epi32(bestv, mprev);
        const __m256i best_after = _mm256_max_epi32(bestv, m);
        const unsigned improve = static_cast<unsigned>(
            movemask32(_mm256_cmpgt_epi32(p, best_before)));
        const unsigned brk = static_cast<unsigned>(movemask32(
            _mm256_cmpgt_epi32(_mm256_sub_epi32(best_after, xdropv), p)));
        alignas(32) Score pbuf[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(pbuf), p);
        std::size_t consumed = 8;
        unsigned mask = improve;
        if (brk != 0) {
            const int bstar = __builtin_ctz(brk);
            consumed = static_cast<std::size_t>(bstar) + 1;
            mask &= (2u << bstar) - 1;  // lanes at or before the break
            *broke = true;
        }
        if (mask != 0) {
            const int last = 31 - __builtin_clz(mask);
            best = pbuf[last];
            best_len = len_before + static_cast<std::size_t>(last) + 1;
        }
        run = pbuf[7];  // stale after a break; the caller stops anyway
        return consumed;
    };

    // Right extension: 8-cell gathered blocks + scalar tail.
    Score run = 0;
    Score best_right = 0;
    std::size_t best_right_len = 0;
    {
        const std::size_t avail =
            std::min(target.size() - (seed_t + seed_len),
                     query.size() - (seed_q + seed_len));
        const std::uint8_t* tp = tb + seed_t + seed_len;
        const std::uint8_t* qp = qb + seed_q + seed_len;
        std::size_t len = 0;
        bool broke = false;
        while (len + 8 <= avail && !broke) {
            const __m256i subs = gather_subs(sub, load_codes8(tp + len),
                                             load_codes8(qp + len));
            const std::size_t consumed =
                scan8(subs, run, best_right, best_right_len, len, &broke);
            out.cells_computed += consumed;
            len += consumed;
        }
        while (len < avail && !broke) {
            run += sub[tp[len] * seq::kNumCodes + qp[len]];
            ++len;
            ++out.cells_computed;
            if (run > best_right) {
                best_right = run;
                best_right_len = len;
            }
            if (run < best_right - xdrop)
                broke = true;
        }
    }

    // Left extension: cell len+b reads t[seed_t - len - b - 1], so an
    // 8-byte block is a reversed contiguous load.
    run = 0;
    Score best_left = 0;
    std::size_t best_left_len = 0;
    {
        const std::size_t avail = std::min(seed_t, seed_q);
        std::size_t len = 0;
        bool broke = false;
        while (len + 8 <= avail && !broke) {
            const __m256i tc = _mm256_permutevar8x32_epi32(
                load_codes8(tb + seed_t - len - 8), krev);
            const __m256i qc = _mm256_permutevar8x32_epi32(
                load_codes8(qb + seed_q - len - 8), krev);
            const std::size_t consumed =
                scan8(gather_subs(sub, tc, qc), run, best_left,
                      best_left_len, len, &broke);
            out.cells_computed += consumed;
            len += consumed;
        }
        while (len < avail && !broke) {
            run += sub[tb[seed_t - len - 1] * seq::kNumCodes +
                       qb[seed_q - len - 1]];
            ++len;
            ++out.cells_computed;
            if (run > best_left) {
                best_left = run;
                best_left_len = len;
            }
            if (run < best_left - xdrop)
                broke = true;
        }
    }

    out.score = seed_score + best_right + best_left;
    out.target_lo = seed_t - best_left_len;
    out.target_hi = seed_t + seed_len + best_right_len;
    out.query_lo = seed_q - best_left_len;
    const std::size_t mid = (out.target_hi - out.target_lo) / 2;
    out.anchor_t = out.target_lo + mid;
    out.anchor_q = out.query_lo + mid;
    return out;
}

/** AVX2 lanes of the vector kernels (simd_lanes.h). */
struct Avx2Lanes {
    static constexpr std::size_t kWidth = 8;
    typedef std::int32_t Vec __attribute__((vector_size(32)));

    static Vec
    widen(const std::uint8_t* p)
    {
        return reinterpret_cast<Vec>(load_codes8(p));
    }

    static Vec
    lookup(const Score* sub, Vec idx)
    {
        return reinterpret_cast<Vec>(_mm256_i32gather_epi32(
            reinterpret_cast<const int*>(sub),
            reinterpret_cast<__m256i>(idx), 4));
    }

    static unsigned
    mask(Vec m)
    {
        return static_cast<unsigned>(
            _mm256_movemask_ps(reinterpret_cast<__m256>(m)));
    }

    template <class Pairs>
    static void
    store_low_bytes(std::uint8_t* out, Pairs pairs)
    {
        // Bytes 0 and 8 of each 128-bit half land at 0-1 and 2-3.
        const __m256i b = _mm256_shuffle_epi8(
            reinterpret_cast<__m256i>(pairs),
            _mm256_setr_epi8(0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                             -1, -1, -1, -1, -1, -1, 0, 8, -1, -1, -1, -1,
                             -1, -1, -1, -1, -1, -1, -1, -1));
        const std::uint32_t four = static_cast<std::uint32_t>(
            _mm_cvtsi128_si32(_mm256_castsi256_si128(b)) |
            _mm_cvtsi128_si32(_mm256_extracti128_si256(b, 1)));
        std::memcpy(out, &four, sizeof four);
    }
};

}  // namespace

const KernelOps* avx2_kernel_ops() {
    static const KernelOps ops{
        &bsw_simd<Avx2Lanes>, &ungapped_avx2,
        &gactx_align_wavefront<GactXSimdPolicy<Avx2Lanes>>};
    return &ops;
}

}  // namespace darwin::align::kernels

#else  // !defined(__AVX2__)

namespace darwin::align::kernels {

const KernelOps* avx2_kernel_ops() { return nullptr; }

}  // namespace darwin::align::kernels

#endif
