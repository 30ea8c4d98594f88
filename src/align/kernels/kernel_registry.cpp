#include "align/kernels/kernel_registry.h"

#include <cstdlib>
#include <sstream>

#include "align/kernels/bsw_kernels.h"
#include "align/kernels/cpu_features.h"
#include "util/logging.h"

namespace darwin::align::kernels {

KernelRegistry& KernelRegistry::instance() {
    static KernelRegistry registry;
    return registry;
}

KernelRegistry::KernelRegistry() {
    const CpuFeatures cpu = probe_cpu_features();

    // The table is explicit (no static self-registration: static-library
    // linking silently drops unreferenced registrars). Ids are stable —
    // they are published as the wga.filter.kernel gauge value. An entry
    // without its own ungapped or GACT-X kernel falls back to the scalar
    // ungapped kernel and the seed GACT-X engine.
    const auto add = [this](int id, const char* name, const KernelOps* ops,
                            bool cpu_ok) {
        kernels_.push_back(KernelImpl{
            id, name, ops != nullptr, cpu_ok,
            ops != nullptr ? ops->bsw : nullptr,
            ops != nullptr && ops->ungapped != nullptr
                ? ops->ungapped
                : &ungapped_xdrop_scalar,
            ops != nullptr && ops->gactx != nullptr
                ? ops->gactx
                : &gactx_reference_align});
    };
    const KernelOps scalar_ops{&bsw_wavefront_scalar, nullptr, nullptr};
    const KernelOps* avx2 = avx2_kernel_ops();
    add(0, "scalar", &scalar_ops, true);
    add(1, "sse42", sse42_kernel_ops(), cpu.sse42);
    add(2, "avx2", avx2, cpu.avx2);

    // AVX-512 widens the GACT-X engine only; the filter kernels are
    // AVX2's.
    KernelOps avx512{};
    const KernelOps* avx512_gactx = avx512_kernel_ops();
    if (avx2 != nullptr && avx512_gactx != nullptr) {
        avx512 = *avx2;
        avx512.gactx = avx512_gactx->gactx;
    }
    add(3, "avx512", avx512.bsw != nullptr ? &avx512 : nullptr,
        cpu.avx2 && cpu.avx512);

    active_.store(&best_usable(), std::memory_order_release);

    if (const char* env = std::getenv(kEnvVar); env != nullptr && *env != '\0')
        select(env);
}

const KernelImpl& KernelRegistry::best_usable() const {
    const KernelImpl* best = &kernels_.front();  // scalar is always usable
    for (const KernelImpl& k : kernels_)
        if (k.usable() && k.id > best->id)
            best = &k;
    return *best;
}

const KernelImpl* KernelRegistry::find(const std::string& name) const {
    for (const KernelImpl& k : kernels_)
        if (name == k.name)
            return &k;
    return nullptr;
}

void KernelRegistry::select(const std::string& name) {
    if (name == "auto") {
        active_.store(&best_usable(), std::memory_order_release);
        return;
    }
    const KernelImpl* k = find(name);
    if (k == nullptr) {
        std::ostringstream msg;
        msg << "DARWIN_KERNEL/--kernel: unknown kernel '" << name
            << "' (valid: auto";
        for (const KernelImpl& cand : kernels_)
            msg << ", " << cand.name;
        msg << ")";
        fatal(msg.str());
    }
    if (!k->usable()) {
        std::ostringstream msg;
        msg << "DARWIN_KERNEL/--kernel: kernel '" << name << "' is "
            << (!k->compiled ? "not compiled into this build"
                             : "not supported by this CPU");
        fatal(msg.str());
    }
    active_.store(k, std::memory_order_release);
}

}  // namespace darwin::align::kernels
