/**
 * @file
 * Runtime dispatch registry for the filter and extension kernels.
 *
 * All implementations of the three alignment kernels (banded
 * Smith-Waterman and ungapped x-drop extension, see bsw_kernels.h; the
 * GACT-X tile extension engine, see gactx_kernels.h) are listed in a
 * fixed table with stable ids. At startup the registry probes the CPU
 * (cpu_features.h) and selects the fastest usable entry; the selection
 * can be overridden with the `DARWIN_KERNEL` environment variable or the
 * `--kernel` CLI flag (tools/obs_support.h), both taking
 * `auto|scalar|sse42|avx2|avx512`.
 *
 * `banded_smith_waterman()`, `ungapped_xdrop_extend()` and
 * `GactXTileAligner::align_tile()` are thin façades over the active
 * entry. They are the only execution path: the filter stage calls the
 * BSW façade once per seed hit and the extension stage the GACT-X
 * façade once per tile, so every caller (wga/filter_stage,
 * wga/extend_stage, the batch scheduler, benches) transparently picks
 * up the fast path. The active id is published as the
 * `wga.filter.kernel` and `wga.extend.kernel` gauges
 * (wga::publish_kernel_gauges).
 */
#ifndef DARWIN_ALIGN_KERNELS_KERNEL_REGISTRY_H
#define DARWIN_ALIGN_KERNELS_KERNEL_REGISTRY_H

#include <atomic>
#include <string>
#include <vector>

#include "align/banded_sw.h"
#include "align/kernels/gactx_kernels.h"
#include "align/ungapped_xdrop.h"

namespace darwin::align::kernels {

using BswKernelFn = BswResult (*)(std::span<const std::uint8_t> target,
                                  std::span<const std::uint8_t> query,
                                  const ScoringParams& scoring,
                                  std::size_t band);

using UngappedKernelFn = UngappedResult (*)(
    std::span<const std::uint8_t> target,
    std::span<const std::uint8_t> query, std::size_t seed_t,
    std::size_t seed_q, std::size_t seed_len, const ScoringParams& scoring,
    Score xdrop);

/** One registered implementation of the filter + extension kernels. */
struct KernelImpl {
    int id = 0;  ///< stable: 0 scalar, 1 sse42, 2 avx2, 3 avx512
    const char* name = "";   ///< the DARWIN_KERNEL spelling
    bool compiled = false;   ///< translation unit built with the ISA
    bool cpu_ok = false;     ///< running CPU supports the ISA
    BswKernelFn bsw = nullptr;
    UngappedKernelFn ungapped = nullptr;
    GactXKernelFn gactx = nullptr;

    bool usable() const { return compiled && cpu_ok && bsw != nullptr; }
};

/**
 * ISA kernel entry points, exported by each per-ISA translation unit.
 * Returns nullptr when the TU was compiled without the ISA (non-x86
 * build or compiler without -msse4.2/-mavx2/-mavx512*) so the registry
 * can mark the entry uncompiled instead of link-failing. The AVX-512
 * TU supplies only `gactx`; the registry pairs it with AVX2's filter
 * kernels.
 */
struct KernelOps {
    BswKernelFn bsw = nullptr;
    UngappedKernelFn ungapped = nullptr;  ///< nullptr: fall back to scalar
    GactXKernelFn gactx = nullptr;        ///< nullptr: fall back to scalar
};
const KernelOps* sse42_kernel_ops();
const KernelOps* avx2_kernel_ops();
const KernelOps* avx512_kernel_ops();

/** Names the single execution path (one façade call per tile) for
 *  reports that print an execution-backend id next to the kernel. */
struct BackendImpl {
    int id = 0;
    const char* name = "serial";
};

/**
 * Process-wide kernel table + active selection.
 *
 * Construction applies `DARWIN_KERNEL` (unset/empty means "auto");
 * selection errors go through fatal() with an actionable message.
 * The active pointer is atomic: `select()` may race with in-flight
 * alignment calls without tearing, though tests that compare kernels
 * should quiesce between selections.
 */
class KernelRegistry {
  public:
    static constexpr const char* kEnvVar = "DARWIN_KERNEL";

    static KernelRegistry& instance();

    /** All entries in id order (including uncompiled/unsupported ones). */
    const std::vector<KernelImpl>& kernels() const { return kernels_; }

    /** The entry dispatched by the façades. */
    const KernelImpl& active() const {
        return *active_.load(std::memory_order_acquire);
    }

    /**
     * Select by name: "auto" (fastest usable) or an exact kernel name.
     * fatal() — i.e. throws darwin::FatalError — on an unknown name
     * or a kernel that is not usable on this build/CPU.
     */
    void select(const std::string& name);

    /** Lookup by name; nullptr when unknown (no fatal). */
    const KernelImpl* find(const std::string& name) const;

    /** The execution path: always {0, "serial"}. */
    static constexpr BackendImpl active_backend() { return {}; }

    KernelRegistry(const KernelRegistry&) = delete;
    KernelRegistry& operator=(const KernelRegistry&) = delete;

  private:
    KernelRegistry();

    const KernelImpl& best_usable() const;

    std::vector<KernelImpl> kernels_;
    std::atomic<const KernelImpl*> active_{nullptr};
};

}  // namespace darwin::align::kernels

#endif  // DARWIN_ALIGN_KERNELS_KERNEL_REGISTRY_H
