/**
 * The seed GACT-X stripe engine, column-serial — kept bit-for-bit as
 * the oracle for the wavefront kernels, the micro-benchmark baseline
 * and the `scalar` registry entry. Each stripe marches column by column with the systolic
 * lane chain (`up = val`, `g_up = g`, `diag_carry`), then transposes
 * the column-major pointer buffer into per-row records; the wavefront
 * kernels eliminate both the serial chain and the transpose but must
 * reproduce this engine's TileResult exactly (see gactx_kernels.h).
 */
#include "align/kernels/gactx_kernels.h"

#include <algorithm>
#include <vector>

#include "align/detail/pointer_grid.h"
#include "fault/cancel.h"

namespace darwin::align::kernels {

using detail::kDiag;
using detail::kHGap;
using detail::kVGap;
using detail::pack_pointer;
using detail::PointerGrid;

TileResult
gactx_reference_align(std::span<const std::uint8_t> target,
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

    // "BRAM" row: V and the vertical-gap score of the last row of the
    // previous stripe, valid over [bram_start, bram_end] inclusive.
    std::vector<Score> bram_v(n + 1, kScoreNegInf);
    std::vector<Score> bram_g(n + 1, kScoreNegInf);
    std::vector<Score> next_v(n + 1, kScoreNegInf);
    std::vector<Score> next_g(n + 1, kScoreNegInf);
    std::size_t bram_start = 0;
    std::size_t bram_end = 0;

    // Row 0 boundary: leading target gap, bounded by the X-drop test.
    bram_v[0] = 0;
    for (std::size_t j = 1; j <= n; ++j) {
        const Score val = -scoring.gap_cost(j);
        if (val < -ydrop)
            break;
        bram_v[j] = val;
        bram_end = j;
    }

    Score vmax = 0;
    std::size_t best_i = 0;
    std::size_t best_j = 0;

    PointerGrid grid;
    std::uint64_t traceback_bytes = 0;
    bool out_of_memory = false;

    // Per-stripe lane state (one entry per PE row).
    std::vector<Score> col_v(npe), col_g(npe), col_h(npe);
    std::vector<Score> prev_col_v(npe), prev_col_g(npe);
    std::vector<std::uint8_t> ptr_buf;
    std::vector<std::uint8_t> lane_q(npe);

    for (std::size_t i0 = 1; i0 <= m && !out_of_memory; i0 += npe) {
        // The same per-stripe budget probe and charges as the wavefront
        // kernels, so every registry entry cancels and accounts alike.
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


        std::vector<std::vector<std::uint8_t>> stripe_rows(rows);

        std::fill(col_h.begin(), col_h.end(), kScoreNegInf);
        std::fill(prev_col_v.begin(), prev_col_v.end(), kScoreNegInf);
        std::fill(prev_col_g.begin(), prev_col_g.end(), kScoreNegInf);

        std::uint32_t columns = 0;

        // Column 0 is the leading-query-gap boundary; when the window
        // still touches it, seed the stripe from the boundary column.
        if (jstart == 0) {
            for (std::size_t r = 0; r < rows; ++r) {
                const std::size_t i = i0 + r;
                const Score val = -scoring.gap_cost(i);
                prev_col_v[r] = val;
                prev_col_g[r] = val;
                stripe_rows[r].push_back(
                    pack_pointer(kVGap, false, i == 1));
                ++out.cells_computed;
            }
            next_v[0] = prev_col_v[rows - 1];
            next_g[0] = prev_col_g[rows - 1];
            ++columns;
        }

        // March columns through the stripe (the systolic wavefront).
        //
        // Hot loop: lane state lives in col_v/col_g/col_h updated in
        // place; the previous column's V is carried through `diag_carry`
        // (the value each lane reads diagonally is the value its row
        // held one column earlier). Pointers go into a flat per-stripe
        // buffer (one allocation, no per-cell push_back).
        const std::size_t first_data_col = std::max<std::size_t>(jstart, 1);
        std::size_t last_col = (jstart == 0) ? 0 : jstart - 1;
        const std::size_t max_cols = n - first_data_col + 2;
        if (ptr_buf.size() < rows * max_cols)
            ptr_buf.resize(rows * max_cols);
        // Lane-local query codes (query[i0-1+r]).
        for (std::size_t r = 0; r < rows; ++r)
            lane_q[r] = query[i0 - 1 + r];
        if (jstart != 0) {
            std::fill(col_v.begin(), col_v.begin() +
                      static_cast<std::ptrdiff_t>(rows), kScoreNegInf);
            std::fill(col_g.begin(), col_g.begin() +
                      static_cast<std::ptrdiff_t>(rows), kScoreNegInf);
        } else {
            for (std::size_t r = 0; r < rows; ++r) {
                col_v[r] = prev_col_v[r];
                col_g[r] = prev_col_g[r];
            }
        }
        const Score gap_open = scoring.gap_open;
        const Score gap_extend = scoring.gap_extend;
        std::uint32_t data_columns = 0;
        for (std::size_t j = first_data_col; j <= n; ++j) {
            const auto* wrow = scoring.matrix[target[j - 1]].data();
            std::uint8_t* pcol = ptr_buf.data() + data_columns * rows;

            // Lane 0 reads the BRAM row of the previous stripe.
            const bool in = j >= bram_start && j <= bram_end;
            const bool in_l = j > bram_start && j <= bram_end + 1;
            Score up = in ? bram_v[j] : kScoreNegInf;
            Score g_up = in ? bram_g[j] : kScoreNegInf;
            Score diag_carry = in_l ? bram_v[j - 1] : kScoreNegInf;

            Score column_best = kScoreNegInf;
            std::size_t best_r = 0;
            for (std::size_t r = 0; r < rows; ++r) {
                const Score left_v = col_v[r];

                const Score h_open = left_v - gap_open;
                const Score h_ext = col_h[r] - gap_extend;
                const bool hopen = h_open >= h_ext;
                const Score h = hopen ? h_open : h_ext;
                col_h[r] = h;

                const Score g_open = up - gap_open;
                const Score g_ext = g_up - gap_extend;
                const bool vopen = g_open >= g_ext;
                const Score g = vopen ? g_open : g_ext;

                Score val = diag_carry + wrow[lane_q[r]];
                std::uint8_t vdir = kDiag;
                if (h > val) {
                    val = h;
                    vdir = kHGap;
                }
                if (g > val) {
                    val = g;
                    vdir = kVGap;
                }

                pcol[r] = pack_pointer(vdir, hopen, vopen);
                diag_carry = left_v;
                col_v[r] = val;
                col_g[r] = g;
                up = val;
                g_up = g;
                if (val > column_best) {
                    column_best = val;
                    best_r = r;
                }
            }
            if (column_best > vmax) {
                vmax = column_best;
                best_i = i0 + best_r;
                best_j = j;
            }
            next_v[j] = col_v[rows - 1];
            next_g[j] = col_g[rows - 1];
            ++columns;
            ++data_columns;
            last_col = j;
            // Termination only applies beyond the previous stripe's
            // frontier: within [jstart, bram_end] BRAM values further
            // right can still revive the stripe (even values below the
            // *current* bound may seed cells that climb back above it),
            // so the wavefront sweeps the whole inherited window.
            if (column_best < vmax - ydrop && j > bram_end)
                break;  // every lane fell below the bound
        }
        out.stripe_columns.push_back(columns);
        out.cells_computed += static_cast<std::uint64_t>(data_columns) *
                              rows;

        // Transpose the flat buffer into per-row pointer records.
        for (std::size_t r = 0; r < rows; ++r) {
            auto& codes = stripe_rows[r];
            codes.reserve(codes.size() + data_columns);
            for (std::uint32_t c = 0; c < data_columns; ++c)
                codes.push_back(ptr_buf[c * rows + r]);
        }
        const std::uint64_t traceback_before = traceback_bytes;
        for (auto& codes : stripe_rows) {
            traceback_bytes += (codes.size() + 1) / 2;
            grid.add_row_codes(jstart, codes.data(), codes.size());
        }
        if (traceback_bytes > params.traceback_bytes)
            out_of_memory = true;
        fault::charge_cells(out.cells_computed - stripe_cells_before);
        fault::charge_heap_bytes(traceback_bytes - traceback_before);

        // Publish the stripe's last row as the next BRAM row.
        std::swap(bram_v, next_v);
        std::swap(bram_g, next_g);
        std::fill(next_v.begin(), next_v.end(), kScoreNegInf);
        std::fill(next_g.begin(), next_g.end(), kScoreNegInf);
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
        out.cigar = detail::trace_from(grid, target, query, best_i, best_j);
    return out;
}

}  // namespace darwin::align::kernels
