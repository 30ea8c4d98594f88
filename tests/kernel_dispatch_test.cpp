/**
 * @file
 * Property tests for the kernel dispatch registry: DARWIN_KERNEL /
 * --kernel parsing, selection state, the end-to-end guarantee that a
 * forced-scalar WgaPipeline run and an auto (vectorized) run produce
 * byte-identical MAF output with reconciling wga.filter.* and
 * wga.extend.* counters, and that every pipeline entry point reports
 * its kernel through the same gauges.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "align/kernels/bsw_kernels.h"
#include "align/kernels/kernel_registry.h"
#include "batch/scheduler.h"
#include "obs/metrics.h"
#include "seed/seed_index.h"
#include "synth/species.h"
#include "util/logging.h"
#include "wga/maf.h"
#include "wga/params.h"
#include "wga/pipeline.h"

namespace darwin::align::kernels {
namespace {

/** Restore "auto" selection however a test exits. */
struct SelectionGuard {
    ~SelectionGuard() { KernelRegistry::instance().select("auto"); }
};

TEST(KernelRegistry, TableIsStable)
{
    const auto& kernels = KernelRegistry::instance().kernels();
    ASSERT_EQ(kernels.size(), 3u);
    EXPECT_EQ(kernels[0].id, 0);
    EXPECT_STREQ(kernels[0].name, "scalar");
    EXPECT_TRUE(kernels[0].usable());
    EXPECT_EQ(kernels[1].id, 1);
    EXPECT_STREQ(kernels[1].name, "sse42");
    EXPECT_EQ(kernels[2].id, 2);
    EXPECT_STREQ(kernels[2].name, "avx2");
}

TEST(KernelRegistry, SelectByNameAndAuto)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();
    registry.select("scalar");
    EXPECT_STREQ(registry.active().name, "scalar");
    EXPECT_EQ(registry.active().id, 0);

    registry.select("auto");
    // Auto picks the highest-id usable kernel.
    int best = 0;
    for (const KernelImpl& k : registry.kernels())
        if (k.usable())
            best = std::max(best, k.id);
    EXPECT_EQ(registry.active().id, best);
}

TEST(KernelRegistry, BadNameIsClearFatal)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();
    const KernelImpl& before = registry.active();
    try {
        registry.select("sse999");  // same path DARWIN_KERNEL takes
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown kernel 'sse999'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("DARWIN_KERNEL"), std::string::npos) << msg;
        EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
    }
    // A failed selection must not change the active kernel.
    EXPECT_EQ(registry.active().id, before.id);
}

TEST(KernelRegistry, UnusableKernelIsFatalNotCrash)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();
    for (const KernelImpl& k : registry.kernels()) {
        if (k.usable())
            continue;
        EXPECT_THROW(registry.select(k.name), FatalError) << k.name;
    }
}

TEST(KernelDispatch, ForcedScalarAndAutoProduceIdenticalMaf)
{
    SelectionGuard guard;
    auto& registry = KernelRegistry::instance();

    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = 15000;
    config.exons_per_chromosome = 10;
    const auto pair = synth::make_species_pair(
        synth::find_species_pair("dm6-droSim1"), config, 4242);

    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());

    const auto run_with = [&](const std::string& kernel,
                              obs::MetricsRegistry& metrics) {
        registry.select(kernel);
        const auto result = pipeline.run(pair.target.genome,
                                         pair.query.genome, nullptr,
                                         &metrics);
        std::ostringstream maf;
        wga::write_maf(maf, result.alignments, pair.target.genome,
                       pair.query.genome);
        return maf.str();
    };

    obs::MetricsRegistry scalar_metrics, auto_metrics;
    const std::string scalar_maf = run_with("scalar", scalar_metrics);
    const std::string auto_maf = run_with("auto", auto_metrics);

    // Byte-identical alignment output regardless of kernel.
    EXPECT_EQ(scalar_maf, auto_maf);
    EXPECT_FALSE(scalar_maf.empty());

    // The filter and extension counters must reconcile exactly: same
    // tiles, same DP cells (cells_computed is part of the bit-identity
    // contract for both the BSW and GACT-X kernels), same pass/drop
    // split, same stripe/traceback accounting.
    for (const char* name :
         {"wga.filter.tiles", "wga.filter.cells", "wga.filter.passed",
          "wga.filter.dropped", "wga.extend.tiles", "wga.extend.cells",
          "wga.extend.stripes", "wga.extend.traceback_ops",
          "wga.extend.alignments", "wga.extend.matched_bases"}) {
        const auto* s = scalar_metrics.find_counter(name);
        const auto* a = auto_metrics.find_counter(name);
        ASSERT_NE(s, nullptr) << name;
        ASSERT_NE(a, nullptr) << name;
        EXPECT_EQ(s->value(), a->value()) << name;
        EXPECT_GT(s->value(), 0) << name;
    }

    // The gauges record which kernel each run dispatched to — the filter
    // and extension stages always share the registry's active entry.
    for (const char* name : {"wga.filter.kernel", "wga.extend.kernel"}) {
        const auto* scalar_gauge = scalar_metrics.find_gauge(name);
        const auto* auto_gauge = auto_metrics.find_gauge(name);
        ASSERT_NE(scalar_gauge, nullptr) << name;
        ASSERT_NE(auto_gauge, nullptr) << name;
        EXPECT_EQ(scalar_gauge->value(), 0) << name;
        EXPECT_EQ(auto_gauge->value(), registry.active().id) << name;
    }
}

/** Every metric name a registry holds, across the three kinds. */
std::vector<std::string>
metric_names(const obs::MetricsRegistry& metrics)
{
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    std::vector<std::string> names;
    for (const auto& entry : snapshot.counters)
        names.push_back(entry.first);
    for (const auto& entry : snapshot.gauges)
        names.push_back(entry.first);
    for (const auto& entry : snapshot.histograms)
        names.push_back(entry.first);
    return names;
}

TEST(KernelDispatch, EveryEntryPointPublishesKernelGaugesOnly)
{
    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = 8000;
    config.exons_per_chromosome = 4;
    const auto pair = synth::make_species_pair(
        synth::find_species_pair("dm6-droSim1"), config, 4243);
    const seq::Genome& target = pair.target.genome;
    const seq::Genome& query = pair.query.genome;
    const wga::WgaParams params = wga::WgaParams::darwin_defaults();
    const wga::WgaPipeline pipeline(params);

    obs::MetricsRegistry byte_metrics;
    pipeline.run(target, query, nullptr, &byte_metrics);
    const auto expected = byte_metrics.gauge_snapshot("wga.");
    ASSERT_EQ(expected.size(), 2u);
    for (const auto& [name, value] : expected)
        EXPECT_EQ(value, KernelRegistry::instance().active().id) << name;

    obs::MetricsRegistry packed_metrics;
    pipeline.run_packed(target, query, nullptr, &packed_metrics);
    EXPECT_EQ(packed_metrics.gauge_snapshot("wga."), expected);

    obs::MetricsRegistry index_metrics;
    const seed::SeedIndex index(target.flattened_packed(),
                                seed::SeedPattern(params.seed_pattern));
    pipeline.run_with_index_packed(index, target.flattened_packed(),
                                   query.flattened_packed(), nullptr,
                                   &index_metrics);
    EXPECT_EQ(index_metrics.gauge_snapshot("wga."), expected);

    // The streaming run and the batch scheduler publish the same kernel
    // gauges next to their own wga.heap.* / batch.* families.
    const auto expect_kernel_gauges = [&](const obs::MetricsRegistry& m) {
        for (const auto& [name, value] : expected) {
            const auto* gauge = m.find_gauge(name);
            ASSERT_NE(gauge, nullptr) << name;
            EXPECT_EQ(gauge->value(), value) << name;
        }
    };
    obs::MetricsRegistry stream_metrics;
    pipeline.run_streaming(target, query, wga::StreamingParams{}, nullptr,
                           &stream_metrics);
    expect_kernel_gauges(stream_metrics);

    obs::MetricsRegistry batch_metrics;
    batch::BatchOptions options;
    options.params = params;
    options.num_threads = 2;
    batch::BatchScheduler scheduler(options, &batch_metrics);
    const auto results = scheduler.run({{"pair", &target, &query}});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, fault::PairStatus::Clean);
    expect_kernel_gauges(batch_metrics);

    // One execution path: no batch-backend metric family anywhere.
    for (const obs::MetricsRegistry* metrics :
         {&byte_metrics, &packed_metrics, &index_metrics, &stream_metrics,
          &batch_metrics}) {
        for (const std::string& name : metric_names(*metrics)) {
            EXPECT_NE(name.rfind("wga.batch.", 0), 0u) << name;
            EXPECT_NE(name.rfind("batch.backend.", 0), 0u) << name;
        }
    }
}

}  // namespace
}  // namespace darwin::align::kernels
