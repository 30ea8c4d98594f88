/**
 * @file
 * Width-generic vector kernels, compiled once per ISA translation unit.
 *
 * The lane arithmetic is GCC vector-extension code (`a - b`, `a > b`,
 * `m ? a : b` on `int32` vectors), which every width lowers to its own
 * instructions. What does not lower well generically comes from the
 * ISA's `Lanes` traits, a plain struct in each kernels_<isa>.cpp:
 *
 *     kWidth                 lanes per vector (4, 8 or 16)
 *     Vec                    GCC vector of kWidth int32
 *     widen(p)               kWidth 8-bit codes at p, zero-extended
 *     lookup(sub, idx)       sub[idx[k]] per lane
 *     mask(m)                bit k set iff lane k of comparison mask m is
 *     store_low_bytes(p, x)  the low byte of each 64-bit lane of x, to p
 *
 * Everything here has internal linkage (anonymous namespace): an
 * inline function or template instantiation shared between translation
 * units built with different -m flags could be the copy the linker
 * keeps for all of them, and then run on a CPU without the ISA.
 */
#ifndef DARWIN_ALIGN_KERNELS_SIMD_LANES_H
#define DARWIN_ALIGN_KERNELS_SIMD_LANES_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "align/kernels/bsw_kernels.h"

namespace darwin::align::kernels {
namespace {

/** GCC vector of N elements of T. */
template <class T, std::size_t N>
struct VecOf {
    typedef T type __attribute__((vector_size(N * sizeof(T))));
};

template <class Vec>
Vec
load_lanes(const Score* p)
{
    Vec v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <class Vec>
void
store_lanes(Score* p, Vec v)
{
    std::memcpy(p, &v, sizeof v);
}

template <class Vec>
Vec
max_lanes(Vec a, Vec b)
{
    return a > b ? a : b;
}

/** Lane k of the result is lane k ^ S of v. */
template <std::size_t S, class Vec>
Vec
xor_lanes(Vec v)
{
    return [v]<std::size_t... K>(std::index_sequence<K...>) {
        return __builtin_shufflevector(v, v, (K ^ S)...);
    }(std::make_index_sequence<sizeof(Vec) / sizeof(Score)>{});
}

/** Lanes in reverse order (W is a power of two: W - 1 - k == k ^ W-1). */
template <class Vec>
Vec
reverse_lanes(Vec v)
{
    return xor_lanes<sizeof(Vec) / sizeof(Score) - 1>(v);
}

/**
 * Substitution scores of one anti-diagonal block: lane k pairs target
 * code t_end[-1 - k] (target columns run backwards along a diagonal)
 * with query code q[k].
 */
template <class Lanes>
typename Lanes::Vec
diagonal_scores(const Score* sub, const std::uint8_t* t_end,
                const std::uint8_t* q)
{
    const auto tc = reverse_lanes(Lanes::widen(t_end - Lanes::kWidth));
    return Lanes::lookup(sub, tc * seq::kNumCodes + Lanes::widen(q));
}

/** Horizontal max: butterfly over lane distances W/2, ..., 2, 1. */
template <class Vec, std::size_t S = sizeof(Vec) / sizeof(Score) / 2>
Score
hmax_lanes(Vec v)
{
    if constexpr (S == 0) {
        return v[0];
    } else {
        return hmax_lanes<Vec, S / 2>(max_lanes(v, xor_lanes<S>(v)));
    }
}

/**
 * Banded SW: the wavefront layout of bsw_wavefront.cpp with the inner
 * diagonal loop in blocks of kWidth lanes — contiguous loads of the
 * three neighbour diagonals, per-block substitution lookup, and an
 * any-mask-guarded max reduction that reproduces the row-major-first
 * tie-break — then a scalar tail with the exact per-cell arithmetic.
 * Integer ops are exact, so results are bit-identical to scalar.
 */
template <class Lanes>
BswResult
bsw_simd(std::span<const std::uint8_t> target,
         std::span<const std::uint8_t> query, const ScoringParams& scoring,
         std::size_t band)
{
    using Vec = typename Lanes::Vec;
    constexpr std::size_t W = Lanes::kWidth;
    const std::size_t n = target.size();
    const std::size_t m = query.size();
    BswResult out;
    if (n == 0 || m == 0)
        return out;

    WavefrontScratch& ws = wavefront_scratch();
    ws.prepare(m);
    Score* vd2 = ws.v0.data();
    Score* vd1 = ws.v1.data();
    Score* vcur = ws.v2.data();
    Score* gd1 = ws.g0.data();
    Score* gcur = ws.g1.data();
    Score* hd1 = ws.h0.data();
    Score* hcur = ws.h1.data();

    const Score open = scoring.gap_open;
    const Score extend = scoring.gap_extend;
    const Score* sub = scoring.matrix.front().data();
    const std::uint8_t* t = target.data();
    const std::uint8_t* q = query.data();

    BswBest best;
    Vec bestv{};
    for (std::size_t d = 2; d <= m + n; ++d) {
        const auto [lo, hi] = bsw_diagonal_range(d, n, m, band);
        if (lo > hi) {  // band == 0 parity gap: keep invariants, move on
            bsw_write_empty_diagonal(d, n, m, band, vcur, gcur, hcur);
            Score* vtmp = vd2;
            vd2 = vd1;
            vd1 = vcur;
            vcur = vtmp;
            std::swap(gd1, gcur);
            std::swap(hd1, hcur);
            continue;
        }
        std::size_t i = lo;
        for (; i + W - 1 <= hi; i += W) {
            // Lane k handles cell (i+k, d-i-k).
            const Vec h = max_lanes(load_lanes<Vec>(vd1 + i) - open,
                                    load_lanes<Vec>(hd1 + i) - extend);
            const Vec g = max_lanes(load_lanes<Vec>(vd1 + i - 1) - open,
                                    load_lanes<Vec>(gd1 + i - 1) - extend);
            const Vec dval = load_lanes<Vec>(vd2 + i - 1) +
                             diagonal_scores<Lanes>(sub, t + (d - i),
                                                    q + (i - 1));
            const Vec val =
                max_lanes(max_lanes(dval, Vec{}), max_lanes(h, g));

            store_lanes(vcur + i, val);
            store_lanes(gcur + i, g);
            store_lanes(hcur + i, h);

            // Row-major-first max reduction (see BswBest::consider).
            if (Lanes::mask(val > bestv) != 0) {
                const Score dmax = hmax_lanes(val);
                bestv = Vec{} + dmax;
                best.score = dmax;
                best.i = i + static_cast<std::size_t>(
                                 __builtin_ctz(Lanes::mask(val == bestv)));
                best.j = d - best.i;
            } else if (best.score > 0 && best.i > i) {
                const unsigned eq = Lanes::mask(val == bestv);
                if (eq != 0 && i + static_cast<std::size_t>(
                                       __builtin_ctz(eq)) < best.i) {
                    best.i = i + static_cast<std::size_t>(__builtin_ctz(eq));
                    best.j = d - best.i;
                }
            }
        }
        for (; i <= hi; ++i) {
            const std::size_t j = d - i;
            const Score h = std::max(vd1[i] - open, hd1[i] - extend);
            const Score g =
                std::max(vd1[i - 1] - open, gd1[i - 1] - extend);
            Score val =
                vd2[i - 1] + sub[t[j - 1] * seq::kNumCodes + q[i - 1]];
            if (val < 0) val = 0;
            if (h > val) val = h;
            if (g > val) val = g;
            vcur[i] = val;
            gcur[i] = g;
            hcur[i] = h;
            const Score prev_best = best.score;
            best.consider(val, i, j);
            if (best.score != prev_best)
                bestv = Vec{} + best.score;
        }
        out.cells_computed += hi - lo + 1;

        if (lo > 1) {
            vcur[lo - 1] = kScoreNegInf;
            gcur[lo - 1] = kScoreNegInf;
            hcur[lo - 1] = kScoreNegInf;
        }
        vcur[hi + 1] = kScoreNegInf;
        gcur[hi + 1] = kScoreNegInf;
        hcur[hi + 1] = kScoreNegInf;
        if (d <= m) {
            vcur[d] = 0;
            gcur[d] = kScoreNegInf;
            hcur[d] = kScoreNegInf;
        }

        Score* vtmp = vd2;
        vd2 = vd1;
        vd1 = vcur;
        vcur = vtmp;
        std::swap(gd1, gcur);
        std::swap(hd1, hcur);
    }

    out.max_score = best.score;
    out.query_max = best.i;
    out.target_max = best.j;
    return out;
}

}  // namespace
}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_SIMD_LANES_H
