/**
 * The per-thread scratch of the GACT-X wavefront kernels. Its growth
 * paths live here, in a translation unit built without ISA flags, so
 * the container code they instantiate is never compiled for an ISA the
 * running CPU may lack.
 */
#include "align/kernels/gactx_kernels.h"

namespace darwin::align::kernels {

void
GactXScratch::prepare(std::size_t n, std::size_t npe)
{
    const auto grow = [](std::vector<Score>& v, std::size_t size) {
        if (v.size() < size)
            v.resize(size);
    };
    grow(bram_v, n + 1);
    grow(bram_g, n + 1);
    grow(next_v, n + 1);
    grow(next_g, n + 1);
    grow(v0, npe + 2);
    grow(v1, npe + 2);
    grow(v2, npe + 2);
    grow(g0, npe + 2);
    grow(g1, npe + 2);
    grow(h0, npe + 2);
    grow(h1, npe + 2);
    grow(init_left, npe);
    grow(colmax, n + 1);
    if (colbest.size() < n + 1)
        colbest.resize(n + 1);
    stripes.clear();
}

std::uint8_t*
GactXScratch::pool_block(std::size_t offset, std::size_t bytes)
{
    if (ptr_pool.size() < offset + bytes)
        ptr_pool.resize(offset + bytes);
    return ptr_pool.data() + offset;
}

void
GactXScratch::add_stripe(const GactXStripe& stripe)
{
    stripes.push_back(stripe);
}

GactXScratch&
gactx_scratch()
{
    thread_local GactXScratch scratch;
    return scratch;
}

}  // namespace darwin::align::kernels
