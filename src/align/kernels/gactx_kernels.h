/**
 * @file
 * GACT-X extension-kernel implementations behind the dispatch registry.
 *
 * The seed stripe engine marches each stripe column by column with a
 * lane-serial dependency chain (`up = val`, `g_up = g`, `diag_carry`)
 * that mirrors the systolic array but defeats SIMD. The vector kernels
 * instead sweep each stripe along anti-diagonals: within a stripe of
 * `num_pe` rows, cell (r, c) on diagonal d = r + c depends only on
 * diagonals d-1 (left and up neighbours, plus the running gap rows) and
 * d-2 (diagonal neighbour), so all lanes of a diagonal update
 * independently and vectorize. Column-granular state — the per-column
 * best (for Vmax and the X-drop stripe termination) and the stripe's
 * last-row V/G frontier — is committed when a column *completes*, i.e.
 * when its last lane computes it at diagonal c + rows - 1; columns the
 * wavefront had started beyond a terminating column are discarded, so
 * the column walk (vmax updates, termination point, cells_computed,
 * stripe_columns) replays the seed engine's sequential order exactly.
 * Traceback pointers are stored in the order the wavefront produces
 * them: one diagonal-major, nibble-packed block per stripe in the
 * per-thread `GactXScratch` pool (see `GactXStripe`).
 *
 * Bit-identity contract: every kernel must return *exactly* the same
 * TileResult as `gactx_reference_align` (the seed engine) for every
 * input — max_score, the (target_max, query_max) tie-break (first
 * strictly-greater column, smallest row within a column),
 * cells_computed, stripe_columns, traceback_bytes, and the CIGAR — so
 * the hw/gactx_array cycle model stays valid under dispatch.
 * tests/kernel_diff_test.cpp enforces the contract field-for-field.
 */
#ifndef DARWIN_ALIGN_KERNELS_GACTX_KERNELS_H
#define DARWIN_ALIGN_KERNELS_GACTX_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "align/gactx.h"

namespace darwin::align::kernels {

using GactXKernelFn = TileResult (*)(std::span<const std::uint8_t> target,
                                     std::span<const std::uint8_t> query,
                                     const GactXParams& params);

/**
 * The seed column-serial stripe engine: the oracle for the differential
 * tests, the micro-benchmark baseline, and the `scalar` registry entry
 * (and the GACT-X fallback of any entry without a vector kernel).
 */
TileResult gactx_reference_align(std::span<const std::uint8_t> target,
                                 std::span<const std::uint8_t> query,
                                 const GactXParams& params);

/**
 * One stripe's slice of the diagonal-major traceback pool. Cell (r, c)
 * of the stripe — query row i0 + r, target column fdc + c — is nibble
 * (c + r) * lanes + r counted from byte `offset` (low nibble first), so
 * each diagonal's lanes are contiguous and a SIMD block starting at an
 * even lane fills whole bytes. Only columns c < data_columns were
 * committed; the boundary column 0 is never stored (traceback stops
 * there, see detail::trace_from).
 */
struct GactXStripe {
    std::size_t i0 = 0;            ///< first query row of the stripe
    std::size_t fdc = 0;           ///< target column of c = 0
    std::size_t data_columns = 0;  ///< committed data columns
    std::size_t lanes = 0;         ///< nibbles per diagonal (rows, even)
    std::size_t offset = 0;        ///< byte offset of diagonal 0
};

/**
 * Reusable per-thread buffers for the wavefront kernels.
 *
 * The frontier ("BRAM") arrays are indexed by target column; the lane
 * arrays by slot r + 1 (slot 0 carries the previous stripe's frontier
 * values for lane 0, mirroring the systolic array's BRAM port). The
 * kernels maintain the invariant that every slot a later diagonal (or
 * stripe) reads was written earlier in the same call, so none of the
 * buffers is ever cleared — `prepare` only grows capacity and empties
 * the stripe table. The growth paths are out of line, in a translation
 * unit built without ISA flags (gactx_wavefront.cpp).
 */
struct GactXScratch {
    std::vector<Score> bram_v, bram_g;  ///< previous stripe's last row
    std::vector<Score> next_v, next_g;  ///< frontier being produced
    std::vector<Score> v0, v1, v2;      ///< lane V: diag d-2, d-1, current
    std::vector<Score> g0, g1;          ///< lane G: diag d-1, current
    std::vector<Score> h0, h1;          ///< lane H: diag d-1, current
    std::vector<Score> init_left;       ///< column-0 boundary per lane
    std::vector<Score> colmax;          ///< per-column running best
    std::vector<std::int32_t> colbest;  ///< its smallest-row lane
    std::vector<std::uint8_t> ptr_pool; ///< diagonal-major stripe blocks
    std::vector<GactXStripe> stripes;   ///< the tile's stripe table

    void prepare(std::size_t n, std::size_t npe);

    /** ptr_pool.data() + offset, with at least `bytes` bytes behind it. */
    std::uint8_t* pool_block(std::size_t offset, std::size_t bytes);

    void add_stripe(const GactXStripe& stripe);
};

/** Per-thread scratch instance (kernels may run on pool threads). */
GactXScratch& gactx_scratch();

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_GACTX_KERNELS_H
