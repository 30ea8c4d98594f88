/**
 * @file
 * Shared anti-diagonal scaffolding of the GACT-X wavefront kernels.
 *
 * `gactx_align_wavefront<Policy>` owns everything that is identical
 * across the SSE4.2/AVX2/AVX-512 variants — the stripe walk, the jstart
 * frontier scan, the boundary column, the diagonal loop with its
 * buffer rotation and lane activation, the column-completion bookkeeping
 * that replays the seed engine's sequential vmax/termination order, and
 * the diagonal-major traceback store with its stripe table. A Policy
 * only supplies `diagonal(ctx, dd, rlo, rhi)`: compute lanes rlo..rhi of
 * diagonal dd (slots rlo+1..rhi+1 of the lane buffers), fold each value
 * into the per-column running best, and store each cell's packed 4-bit
 * pointer at nibble r of the diagonal's block `ctx.ptrs`. `gactx_cell`
 * is the scalar per-cell body the SIMD policy reuses for odd leading
 * lanes and tails; `GactXSimdPolicy<Lanes>` is the one SIMD policy, one
 * instantiation per ISA translation unit (see simd_lanes.h for the
 * `Lanes` traits and why everything here has internal linkage).
 *
 * Coordinate map (see DESIGN.md "Extension kernels"): within a stripe
 * starting at query row i0 with first data column fdc, lane r handles
 * query row i0 + r and on diagonal dd computes column c = dd - r
 * (target column j = fdc + c). Dependencies:
 *
 *     left  V(r, c-1)  -> vd1[r + 1]      (same lane, diagonal dd - 1)
 *     up    V(r-1, c)  -> vd1[r]          (lane above, diagonal dd - 1)
 *     g_up  G(r-1, c)  -> gd1[r]
 *     diag  V(r-1, c-1)-> vd2[r]          (lane above, diagonal dd - 2)
 *     own H (r, c-1)   -> hd1[r + 1]
 *
 * Slot 0 is refreshed from the previous stripe's frontier whenever lane
 * 0 is active, which is exactly the systolic array's BRAM read port.
 *
 * Traceback store: each stripe owns a block of the per-thread pointer
 * pool with `lanes` (rows rounded up to even) nibbles per diagonal, so
 * diagonal dd's cells are contiguous and a vector block starting at an
 * even lane is one 2-, 4- or 8-byte store. The accounted
 * `traceback_bytes` keep the hardware's row-major formula; the stored
 * block is at most that plus one rows x lanes / 2 triangle (the unused
 * lanes of the first and last rows - 1 diagonals), and one padding
 * nibble per diagonal when rows is odd.
 */
#ifndef DARWIN_ALIGN_KERNELS_GACTX_WAVEFRONT_H
#define DARWIN_ALIGN_KERNELS_GACTX_WAVEFRONT_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "align/detail/pointer_grid.h"
#include "align/kernels/gactx_kernels.h"
#include "align/kernels/simd_lanes.h"
#include "fault/cancel.h"
#include "seq/alphabet.h"
#include "util/logging.h"

namespace darwin::align::kernels {
namespace {

/** Per-stripe state handed to Policy::diagonal (pointers rotate). */
struct GactXDiagCtx {
    const std::uint8_t* t = nullptr;  ///< target.data()
    const std::uint8_t* q = nullptr;  ///< query.data() + i0 - 1: lane r -> q[r]
    const Score* sub = nullptr;       ///< flattened 5x5 substitution matrix
    Score open = 0;
    Score extend = 0;
    std::size_t fdc = 0;    ///< target column of c = 0
    Score* vd1 = nullptr;
    Score* vd2 = nullptr;
    Score* vcur = nullptr;
    Score* gd1 = nullptr;
    Score* gcur = nullptr;
    Score* hd1 = nullptr;
    Score* hcur = nullptr;
    Score* colmax = nullptr;
    std::int32_t* colbest = nullptr;
    std::uint8_t* ptrs = nullptr;  ///< this diagonal's pointer nibbles
};

/**
 * One DP cell, bit-exact to the seed engine's lane body: tie-breaks are
 * `>=` for both gap-open bits and strictly-greater for the V direction
 * precedence Diag < HGap < VGap and for the column best (ascending r
 * per column, so the smallest row among equals wins).
 */
inline void
gactx_cell(const GactXDiagCtx& c, std::size_t dd, std::size_t r)
{
    const std::size_t s = r + 1;
    const std::size_t col = dd - r;

    const Score left_v = c.vd1[s];
    const Score h_open = left_v - c.open;
    const Score h_ext = c.hd1[s] - c.extend;
    const bool hopen = h_open >= h_ext;
    const Score h = hopen ? h_open : h_ext;

    const Score g_open = c.vd1[s - 1] - c.open;
    const Score g_ext = c.gd1[s - 1] - c.extend;
    const bool vopen = g_open >= g_ext;
    const Score g = vopen ? g_open : g_ext;

    const std::size_t j = c.fdc + col;
    Score val = c.vd2[s - 1] +
                c.sub[c.t[j - 1] * seq::kNumCodes + c.q[r]];
    std::uint8_t vdir = detail::kDiag;
    if (h > val) {
        val = h;
        vdir = detail::kHGap;
    }
    if (g > val) {
        val = g;
        vdir = detail::kVGap;
    }

    c.vcur[s] = val;
    c.gcur[s] = g;
    c.hcur[s] = h;

    if (val > c.colmax[col]) {
        c.colmax[col] = val;
        c.colbest[col] = static_cast<std::int32_t>(r);
    }

    // An odd lane keeps the low nibble: its even partner was written
    // just before (or is inactive on this diagonal and never read).
    std::uint8_t* byte = c.ptrs + r / 2;
    const std::uint8_t code = detail::pack_pointer(vdir, hopen, vopen);
    if (r % 2 != 0)
        *byte = static_cast<std::uint8_t>((*byte & 0x0Fu) | (code << 4));
    else
        *byte = code;
}

/**
 * GACT-X stripe diagonals in blocks of `Lanes::kWidth` int32 lanes.
 * Lane k of a block handles stripe row r + k and target column
 * fdc + dd - r - k: neighbour loads are contiguous in the slot-indexed
 * lane buffers, query codes load forward, target codes are a
 * lane-reversed load, and the per-column best fold hits
 * colmax[dd-r-W+1 .. dd-r] with the value vector reversed (the strict
 * compare keeps the smallest-row winner the column walk demands). The
 * block's pointer codes pack pairwise into W / 2 whole bytes of the
 * diagonal's block — blocks start at even lanes, so an odd rlo first
 * takes one `gactx_cell` step. All integer ops are exact, so results
 * are bit-identical to the reference.
 */
template <class Lanes>
struct GactXSimdPolicy {
    using Vec = typename Lanes::Vec;
    static constexpr std::size_t W = Lanes::kWidth;
    using Pairs = typename VecOf<std::uint64_t, W / 2>::type;

    Vec rev_iota_;  ///< W-1, ..., 1, 0

    GactXSimdPolicy()
    {
        for (std::size_t k = 0; k < W; ++k)
            rev_iota_[k] = static_cast<std::int32_t>(W - 1 - k);
    }

    void
    diagonal(const GactXDiagCtx& c, std::size_t dd, std::size_t rlo,
             std::size_t rhi) const
    {
        std::size_t r = rlo;
        if (r % 2 != 0 && r <= rhi)
            gactx_cell(c, dd, r++);
        for (; r + W <= rhi + 1; r += W) {
            const std::size_t s = r + 1;
            const Vec h_open = load_lanes<Vec>(c.vd1 + s) - c.open;
            const Vec h_ext = load_lanes<Vec>(c.hd1 + s) - c.extend;
            const Vec h = max_lanes(h_open, h_ext);

            const Vec g_open = load_lanes<Vec>(c.vd1 + s - 1) - c.open;
            const Vec g_ext = load_lanes<Vec>(c.gd1 + s - 1) - c.extend;
            const Vec g = max_lanes(g_open, g_ext);

            const Vec dval = load_lanes<Vec>(c.vd2 + s - 1) +
                             diagonal_scores<Lanes>(
                                 c.sub, c.t + (c.fdc + dd - r), c.q + r);
            const Vec vh = max_lanes(dval, h);
            const Vec val = max_lanes(vh, g);

            store_lanes(c.vcur + s, val);
            store_lanes(c.gcur + s, g);
            store_lanes(c.hcur + s, h);

            const std::size_t cbase = dd - r - (W - 1);
            const Vec valrev = reverse_lanes(val);
            const Vec cm = load_lanes<Vec>(c.colmax + cbase);
            const Vec upd = valrev > cm;
            if (Lanes::mask(upd) != 0) {
                store_lanes(c.colmax + cbase, upd ? valrev : cm);
                const Vec rows = rev_iota_ + static_cast<std::int32_t>(r);
                store_lanes(c.colbest + cbase,
                            upd ? rows : load_lanes<Vec>(c.colbest + cbase));
            }

            // Comparison masks are -1/0: vdir is Diag (1), HGap (2) when
            // h won, VGap (3) when g won over both.
            const Vec vdir = (1 - (h > dval)) | ((g > vh) & 0x3);
            const Vec code = vdir | ((h_open >= h_ext) & 0x4) |
                             ((g_open >= g_ext) & 0x8);
            const Pairs pairs = reinterpret_cast<Pairs>(code);
            Lanes::store_low_bytes(c.ptrs + r / 2, pairs | (pairs >> 28));
        }
        for (; r <= rhi; ++r)
            gactx_cell(c, dd, r);
    }
};

/**
 * The stripe table read back for traceback: `at(i, j)` finds row i's
 * stripe (every stripe but the last has num_pe rows) and reads cell
 * (i, j) from the stripe's diagonal-major block.
 */
class StripeGrid {
  public:
    StripeGrid(const GactXScratch& ws, std::size_t npe) : ws_(ws), npe_(npe)
    {
    }

    detail::Pointer
    at(std::size_t i, std::size_t j) const
    {
        const std::size_t k = (i - 1) / npe_;
        require(k < ws_.stripes.size(),
                "StripeGrid: traceback row out of range");
        const GactXStripe& st = ws_.stripes[k];
        const std::size_t r = i - st.i0;
        require(j >= st.fdc && j - st.fdc < st.data_columns,
                "StripeGrid: traceback outside stored window");
        const std::size_t nib = (j - st.fdc + r) * st.lanes + r;
        const std::uint8_t byte = ws_.ptr_pool[st.offset + nib / 2];
        return detail::unpack_pointer((nib % 2 != 0) ? (byte >> 4)
                                                     : (byte & 0x0Fu));
    }

  private:
    const GactXScratch& ws_;
    std::size_t npe_;
};

template <class Policy>
TileResult
gactx_align_wavefront(std::span<const std::uint8_t> target,
                      std::span<const std::uint8_t> query,
                      const GactXParams& params)
{
    const std::size_t n = target.size();
    const std::size_t m = query.size();
    const ScoringParams& scoring = params.scoring;
    const Score ydrop = params.ydrop;
    const std::size_t npe = params.num_pe;

    TileResult out;
    if (n == 0 || m == 0)
        return out;

    GactXScratch& ws = gactx_scratch();
    ws.prepare(n, npe);
    Score* bram_v = ws.bram_v.data();
    Score* bram_g = ws.bram_g.data();
    Score* next_v = ws.next_v.data();
    Score* next_g = ws.next_g.data();
    std::size_t bram_start = 0;
    std::size_t bram_end = 0;

    // Row 0 boundary: leading target gap, bounded by the X-drop test.
    // Only the window [0, bram_end] is seeded — every later frontier
    // read is window-guarded, so no full-array -inf fills are needed
    // (the seed engine's per-stripe O(n) clears are gone).
    bram_v[0] = 0;
    for (std::size_t j = 1; j <= n; ++j) {
        const Score val = -scoring.gap_cost(j);
        if (val < -ydrop)
            break;
        bram_v[j] = val;
        bram_end = j;
    }
    std::fill(bram_g, bram_g + bram_end + 1, kScoreNegInf);

    Score vmax = 0;
    std::size_t best_i = 0;
    std::size_t best_j = 0;

    std::size_t pool_used = 0;
    std::uint64_t traceback_bytes = 0;
    bool out_of_memory = false;

    GactXDiagCtx ctx;
    ctx.t = target.data();
    ctx.sub = scoring.matrix.front().data();
    ctx.open = scoring.gap_open;
    ctx.extend = scoring.gap_extend;
    ctx.colmax = ws.colmax.data();
    ctx.colbest = ws.colbest.data();
    const Policy pol;

    for (std::size_t i0 = 1; i0 <= m && !out_of_memory; i0 += npe) {
        // Budget/injection probe once per stripe: the cooperative
        // cancellation granularity for every kernel variant (a stripe is
        // at most npe * n cells). Polling never alters any DP state, so
        // results stay bit-identical whether or not a token is armed.
        fault::poll("extend.stripe");
        const std::uint64_t stripe_cells_before = out.cells_computed;
        const std::size_t i1 = std::min(m, i0 + npe - 1);
        const std::size_t rows = i1 - i0 + 1;
        const Score stripe_threshold = vmax - ydrop;

        // jstart: first column of the previous stripe's stored row whose
        // score still clears the X-drop bound (V >= D, so scanning V and
        // the stored vertical-gap score covers both).
        std::size_t jstart = bram_start;
        while (jstart <= bram_end && bram_v[jstart] < stripe_threshold &&
               bram_g[jstart] < stripe_threshold)
            ++jstart;
        if (jstart > bram_end)
            break;  // the whole frontier fell below the bound

        const std::size_t fdc = std::max<std::size_t>(jstart, 1);
        const std::size_t num_cols = n - fdc + 1;
        const std::size_t base = (jstart == 0) ? 1 : 0;
        const std::size_t ddmax = (num_cols - 1) + (rows - 1);
        const std::size_t lanes = rows + rows % 2;
        std::uint8_t* block =
            ws.pool_block(pool_used, (ddmax + 1) * (lanes / 2));

        // Column-0 boundary values per lane (-gap_cost(i0 + r) when the
        // window touches column 0, pruned otherwise). These seed each
        // lane's first left neighbour and, one diagonal later, the next
        // lane's diagonal neighbour.
        if (jstart == 0) {
            Score cost = scoring.gap_cost(i0);
            for (std::size_t r = 0; r < rows; ++r) {
                ws.init_left[r] = -cost;
                cost += scoring.gap_extend;
            }
        } else {
            std::fill(ws.init_left.begin(),
                      ws.init_left.begin() +
                          static_cast<std::ptrdiff_t>(rows),
                      kScoreNegInf);
        }
        std::fill(ws.colmax.begin(),
                  ws.colmax.begin() +
                      static_cast<std::ptrdiff_t>(num_cols),
                  kScoreNegInf);

        std::uint32_t columns = 0;
        std::uint32_t data_columns = 0;
        std::size_t last_col = (jstart == 0) ? 0 : jstart - 1;

        if (jstart == 0) {
            // Boundary column: one leading-query-gap cell per lane. Its
            // pointers are accounted but not stored — traceback reaching
            // column 0 ends without reading them.
            out.cells_computed += rows;
            next_v[0] = ws.init_left[rows - 1];
            next_g[0] = ws.init_left[rows - 1];
            ++columns;
        }

        Score* vd2 = ws.v0.data();
        Score* vd1 = ws.v1.data();
        Score* vcur = ws.v2.data();
        Score* gd1 = ws.g0.data();
        Score* gcur = ws.g1.data();
        Score* hd1 = ws.h0.data();
        Score* hcur = ws.h1.data();
        vd1[1] = ws.init_left[0];
        hd1[1] = kScoreNegInf;

        ctx.q = query.data() + (i0 - 1);
        ctx.fdc = fdc;

        bool stripe_done = false;
        std::size_t dd = 0;
        for (; dd <= ddmax && !stripe_done; ++dd) {
            const std::size_t rlo =
                (dd >= num_cols) ? dd - (num_cols - 1) : 0;
            const std::size_t rhi = std::min(rows - 1, dd);

            if (rlo == 0) {
                // Lane 0's BRAM port: the previous stripe's frontier at
                // lane 0's current column j0 = fdc + dd.
                const std::size_t j0 = fdc + dd;
                const bool in = j0 >= bram_start && j0 <= bram_end;
                vd1[0] = in ? bram_v[j0] : kScoreNegInf;
                gd1[0] = in ? bram_g[j0] : kScoreNegInf;
                vd2[0] = (j0 > bram_start && j0 <= bram_end + 1)
                             ? bram_v[j0 - 1]
                             : kScoreNegInf;
            }

            ctx.vd1 = vd1;
            ctx.vd2 = vd2;
            ctx.vcur = vcur;
            ctx.gd1 = gd1;
            ctx.gcur = gcur;
            ctx.hd1 = hd1;
            ctx.hcur = hcur;
            ctx.ptrs = block + dd * (lanes / 2);
            pol.diagonal(ctx, dd, rlo, rhi);

            // Activate lane dd+1: this single write is its left
            // neighbour next diagonal (as vd1) and lane dd+2's diagonal
            // neighbour the diagonal after (as vd2).
            if (dd + 1 <= rows - 1) {
                vcur[dd + 2] = ws.init_left[dd + 1];
                hcur[dd + 2] = kScoreNegInf;
            }

            // Column dd - (rows - 1) just completed (its last lane ran
            // this diagonal): commit it in sequential column order —
            // vmax/best update, last-row frontier, and the live X-drop
            // stripe-termination test. Cells the wavefront has already
            // started in later columns are discarded on termination:
            // they were never counted or committed anywhere.
            if (dd >= rows - 1) {
                const std::size_t cdone = dd - (rows - 1);
                const std::size_t j = fdc + cdone;
                const Score column_best = ws.colmax[cdone];
                if (column_best > vmax) {
                    vmax = column_best;
                    best_i = i0 + static_cast<std::size_t>(
                                      ws.colbest[cdone]);
                    best_j = j;
                }
                next_v[j] = vcur[rows];
                next_g[j] = gcur[rows];
                ++columns;
                ++data_columns;
                last_col = j;
                // Termination only applies beyond the previous stripe's
                // frontier (see the seed engine: within [jstart,
                // bram_end] BRAM values further right can revive the
                // stripe).
                if (column_best < vmax - ydrop && j > bram_end)
                    stripe_done = true;
            }

            Score* vtmp = vd2;
            vd2 = vd1;
            vd1 = vcur;
            vcur = vtmp;
            std::swap(gd1, gcur);
            std::swap(hd1, hcur);
        }

        out.stripe_columns.push_back(columns);
        out.cells_computed +=
            static_cast<std::uint64_t>(data_columns) * rows;

        // Only diagonals 0..dd-1 ran; later stripes start behind them.
        ws.add_stripe(GactXStripe{i0, fdc, data_columns, lanes, pool_used});
        pool_used += dd * (lanes / 2);

        // Accounted as the hardware stores it: row-major, 4 bits/cell.
        const std::uint64_t traceback_before = traceback_bytes;
        traceback_bytes += static_cast<std::uint64_t>(rows) *
                           ((base + data_columns + 1) / 2);
        if (traceback_bytes > params.traceback_bytes)
            out_of_memory = true;
        fault::charge_cells(out.cells_computed - stripe_cells_before);
        fault::charge_heap_bytes(traceback_bytes - traceback_before);

        // Publish the stripe's last row as the next BRAM row. Every
        // column of the new window [jstart, last_col] was written (the
        // boundary column and/or the consecutive completed columns), so
        // no clearing is needed before the swap.
        std::swap(bram_v, next_v);
        std::swap(bram_g, next_g);
        bram_start = jstart;
        bram_end = last_col;
        if (bram_end < bram_start)
            break;
    }

    out.max_score = vmax;
    out.target_max = best_j;
    out.query_max = best_i;
    out.traceback_bytes = traceback_bytes;
    if (best_i != 0 || best_j != 0)
        out.cigar = detail::trace_from(StripeGrid(ws, npe), target, query,
                                       best_i, best_j);
    return out;
}

}  // namespace
}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_GACTX_WAVEFRONT_H
