/**
 * @file
 * Tests for the bounded-memory dataflow: spill primitives
 * (wga/spill.h), the spill-or-backpressure channel
 * (wga/bounded_stream.h), sharded seed indexing (seed/sharded_index.h)
 * and its sharded `.dwi` persistence, and the strand driver
 * (wga::run_strand): every storage / index source / overflow policy /
 * pool configuration and every entry point reproduces the materialized
 * seed_all -> filter_all -> extend_all composition — including the
 * batch engine's streaming mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "align/kernels/kernel_registry.h"
#include "batch/scheduler.h"
#include "fault/fault_plan.h"
#include "index/format.h"
#include "index/index_io.h"
#include "seed/sharded_index.h"
#include "seq/genome.h"
#include "synth/species.h"
#include "util/logging.h"
#include "util/rng.h"
#include "wga/bounded_stream.h"
#include "wga/maf.h"
#include "wga/pipeline.h"
#include "wga/spill.h"
#include "test_temp_dir.h"

namespace darwin::wga {
namespace {

TEST(SpillFile, AppendReadReset)
{
    SpillFile file;
    const std::uint32_t a[4] = {1, 2, 3, 4};
    file.append(a, sizeof(a));
    EXPECT_EQ(file.size(), sizeof(a));
    std::uint32_t back[2] = {};
    file.read_at(2 * sizeof(std::uint32_t), back, sizeof(back));
    EXPECT_EQ(back[0], 3u);
    EXPECT_EQ(back[1], 4u);
    file.reset();
    EXPECT_EQ(file.size(), 0u);
    const std::uint32_t b[1] = {9};
    file.append(b, sizeof(b));
    std::uint32_t again = 0;
    file.read_at(0, &again, sizeof(again));
    EXPECT_EQ(again, 9u);
}

TEST(BoundedStream, SpillPreservesFifoOrder)
{
    // Window of 4, 1000 pushes with no consumer: everything past the
    // window spills, and the drain still sees strict push order.
    BoundedStream<std::uint64_t> stream(4, OverflowPolicy::Spill, "", 16);
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_TRUE(stream.push(i));
    stream.close();
    EXPECT_EQ(stream.pushed(), 1000u);
    EXPECT_GT(stream.spilled_items(), 0u);
    EXPECT_GE(stream.spill_episodes(), 1u);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto item = stream.pop();
        ASSERT_TRUE(item.has_value());
        ASSERT_EQ(*item, i);
    }
    EXPECT_FALSE(stream.pop().has_value());
}

TEST(BoundedStream, SpillEpisodesEndWhenBacklogDrains)
{
    BoundedStream<std::uint64_t> stream(2, OverflowPolicy::Spill, "", 4);
    for (std::uint64_t i = 0; i < 10; ++i)
        stream.push(i);  // first episode
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(*stream.pop(), expect++);
    // Fully drained: the stream is back in-memory, a small burst fits
    // the window without a new episode.
    stream.push(expect);
    EXPECT_EQ(*stream.pop(), expect);
    EXPECT_EQ(stream.spill_episodes(), 1u);
    stream.close();
    EXPECT_FALSE(stream.pop().has_value());
}

TEST(BoundedStream, BackpressureBlocksProducerUntilConsumed)
{
    BoundedStream<int> stream(2, OverflowPolicy::Backpressure);
    std::thread producer([&] {
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(stream.push(i));
        stream.close();
    });
    int expect = 0;
    while (auto item = stream.pop())
        EXPECT_EQ(*item, expect++);
    EXPECT_EQ(expect, 100);
    producer.join();
    EXPECT_EQ(stream.spilled_items(), 0u);
}

TEST(BoundedStream, BatchesNeverWaitPastAFullWindow)
{
    // The consumer asks for more records than the window holds: a full
    // window (or the close) must release it, in either policy, and the
    // batches come out in push order.
    for (const OverflowPolicy policy :
         {OverflowPolicy::Backpressure, OverflowPolicy::Spill}) {
        BoundedStream<int> stream(3, policy, "", 4);
        std::thread producer([&] {
            std::vector<int> values(100);
            for (int i = 0; i < 100; ++i)
                values[i] = i;
            for (int i = 0; i < 100; i += 7)
                ASSERT_TRUE(stream.push_all(std::span<const int>(
                    values.data() + i, std::min(7, 100 - i))));
            stream.close();
        });
        std::vector<int> drained;
        while (stream.pop_batch(&drained, 10)) {
        }
        producer.join();
        ASSERT_EQ(drained.size(), 100u);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(drained[i], i);
    }
}

TEST(SortingSpillBuffer, DrainsInOrderAcrossSpilledChunks)
{
    Rng rng(404);
    SortingSpillBuffer<std::uint64_t, std::less<std::uint64_t>> buffer(8);
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < 500; ++i)
        values.push_back(rng.uniform(1000));
    for (const auto v : values)
        buffer.push(v);
    EXPECT_EQ(buffer.size(), values.size());
    EXPECT_GT(buffer.chunks_spilled(), 0u);
    EXPECT_GT(buffer.spilled_bytes(), 0u);

    std::sort(values.begin(), values.end());
    std::vector<std::uint64_t> drained;
    for (auto cursor = buffer.drain(); auto v = cursor.next();)
        drained.push_back(*v);
    EXPECT_EQ(drained, values);

    // The buffer resets after a full drain and is reusable.
    EXPECT_EQ(buffer.size(), 0u);
    buffer.push(3);
    buffer.push(1);
    drained.clear();
    for (auto cursor = buffer.drain(); auto v = cursor.next();)
        drained.push_back(*v);
    EXPECT_EQ(drained, (std::vector<std::uint64_t>{1, 3}));
}

TEST(ShardPlan, PartitionsBandSpaceExactly)
{
    const auto plan = seed::plan_shards(1000, 300, 64, 64);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front().band_lo, 0u);
    for (std::size_t s = 1; s < plan.size(); ++s)
        EXPECT_EQ(plan[s].band_lo, plan[s - 1].band_hi);
    // Slices widen by the D-SOFT projection margins and clamp to the
    // target.
    for (const auto& shard : plan) {
        EXPECT_LE(shard.slice_lo,
                  shard.band_lo > 64 ? shard.band_lo - 64 : 0);
        EXPECT_LE(shard.slice_hi, 1000u);
    }
    EXPECT_THROW((void)seed::plan_shards(1000, 0, 64, 64), FatalError);
}

/** Small species pair shared by the identity tests. */
synth::SpeciesPair
small_pair(const std::string& name, std::size_t chrom_len)
{
    synth::AncestorConfig config;
    config.num_chromosomes = 1;
    config.chromosome_length = chrom_len;
    config.exons_per_chromosome = 10;
    return synth::make_species_pair(synth::find_species_pair(name), config,
                                    4242);
}

void
expect_identical(const WgaResult& a, const WgaResult& b)
{
    ASSERT_EQ(a.alignments.size(), b.alignments.size());
    for (std::size_t i = 0; i < a.alignments.size(); ++i) {
        EXPECT_EQ(a.alignments[i].target_start,
                  b.alignments[i].target_start);
        EXPECT_EQ(a.alignments[i].query_start,
                  b.alignments[i].query_start);
        EXPECT_EQ(a.alignments[i].score, b.alignments[i].score);
        EXPECT_EQ(a.alignments[i].query_strand,
                  b.alignments[i].query_strand);
        EXPECT_EQ(a.alignments[i].cigar.to_string(),
                  b.alignments[i].cigar.to_string());
    }
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t i = 0; i < a.chains.size(); ++i)
        EXPECT_EQ(a.chains[i].score, b.chains[i].score);
}

TEST(ShardedSeeding, ShardTablesAreSlicesOfTheMonolithicIndex)
{
    const auto pair = small_pair("dm6-droSim1", 20000);
    const seq::PackedSequence& target =
        pair.target.genome.flattened_packed();
    const auto params = WgaParams::darwin_defaults();
    const seed::SeedPattern pattern(params.seed_pattern);

    const seed::SeedIndex mono(target, pattern);
    const seed::ShardedSeedIndexBuilder builder(
        target, pattern, seed::SeedIndex::kDefaultMaxBucket, 6000,
        params.dsoft.chunk_size, params.dsoft.bin_size);
    ASSERT_GT(builder.num_shards(), 1u);
    EXPECT_EQ(builder.skipped_windows(), mono.skipped_windows());
    EXPECT_EQ(builder.truncated_buckets(), mono.truncated_buckets());

    // Every shard bucket is the monolithic bucket cut to the shard's
    // slice (same order, same truncation), every over-represented flag
    // is global, and a shard holds no key the slice does not need.
    const auto mono_keys = mono.sections().keys;
    for (std::size_t s = 0; s < builder.num_shards(); ++s) {
        const auto shard = builder.build_shard(s);
        const auto& plan = builder.plan()[s];
        EXPECT_EQ(shard->skipped_windows(), mono.skipped_windows());
        EXPECT_EQ(shard->truncated_buckets(), mono.truncated_buckets());
        EXPECT_LE(shard->num_keys(),
                  plan.slice_hi - plan.slice_lo + mono.truncated_buckets());
        for (const seed::SeedKey key : mono_keys) {
            std::vector<std::uint32_t> expect;
            for (const std::uint32_t position : mono.lookup(key)) {
                if (position >= plan.slice_lo && position < plan.slice_hi)
                    expect.push_back(position);
            }
            const auto bucket = shard->lookup(key);
            const std::vector<std::uint32_t> got(bucket.begin(),
                                                 bucket.end());
            ASSERT_EQ(got, expect) << "shard " << s << " key " << key;
            ASSERT_EQ(shard->over_represented(key),
                      mono.over_represented(key))
                << "shard " << s << " key " << key;
        }
        for (const seed::SeedKey key : shard->sections().keys) {
            ASSERT_TRUE(std::binary_search(mono_keys.begin(),
                                           mono_keys.end(), key))
                << "shard " << s << " holds key " << key
                << " the monolithic index lacks";
        }
    }
}

TEST(ShardedIndexIo, RoundTripsThroughDwiV3)
{
    const auto pair = small_pair("dm6-droYak2", 12000);
    const seq::PackedSequence& target =
        pair.target.genome.flattened_packed();
    const auto params = WgaParams::darwin_defaults();
    const seed::SeedPattern pattern(params.seed_pattern);
    const seed::ShardedSeedIndexBuilder builder(
        target, pattern, seed::SeedIndex::kDefaultMaxBucket, 4000,
        params.dsoft.chunk_size, params.dsoft.bin_size);

    const std::string path = testing::temp_path("sharded.dwi");
    index::save_sharded_index(path, builder, 4000, 0x1234, target.size());

    const index::IndexInfo info = index::read_index_info(path);
    EXPECT_EQ(info.version, index::kIndexFormatVersion);
    EXPECT_EQ(info.shard_bp, 4000u);
    EXPECT_EQ(info.num_shards, builder.num_shards());
    EXPECT_EQ(info.sequence_digest, 0x1234u);

    // The monolithic loader refuses sharded files with a pointed message.
    try {
        (void)index::load_index(path);
        FAIL() << "load_index accepted a sharded file";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("sharded"),
                  std::string::npos);
    }

    index::ShardedIndexReader reader(path);
    ASSERT_EQ(reader.num_shards(), builder.num_shards());
    for (std::size_t s = 0; s < reader.num_shards(); ++s) {
        EXPECT_EQ(reader.plan()[s].band_lo, builder.plan()[s].band_lo);
        EXPECT_EQ(reader.plan()[s].band_hi, builder.plan()[s].band_hi);
        const auto loaded = reader.open_shard(s);
        const auto built = builder.build_shard(s);
        ASSERT_EQ(loaded->directory_bits(), built->directory_bits());
        const auto same = [](auto a, auto b) {
            return std::equal(a.begin(), a.end(), b.begin(), b.end());
        };
        const auto& l = loaded->sections();
        const auto& b = built->sections();
        EXPECT_TRUE(same(l.keys, b.keys)) << "shard " << s;
        EXPECT_TRUE(same(l.directory, b.directory)) << "shard " << s;
        EXPECT_TRUE(same(l.offsets, b.offsets)) << "shard " << s;
        EXPECT_TRUE(same(l.positions, b.positions)) << "shard " << s;
        EXPECT_TRUE(same(l.over_words, b.over_words)) << "shard " << s;
    }
    std::remove(path.c_str());
}

/** Installs a fault plan for one scope. */
struct PlanGuard {
    explicit PlanGuard(const fault::FaultPlan& plan)
    {
        fault::install_fault_plan(&plan);
    }
    ~PlanGuard() { fault::install_fault_plan(nullptr); }
    PlanGuard(const PlanGuard&) = delete;
    PlanGuard& operator=(const PlanGuard&) = delete;
};

/**
 * The materialized stage composition every strand-driver configuration
 * must reproduce: seed_all -> filter_all -> extend_all per strand over
 * byte storage and a byte-built index, forward then reverse, then the
 * chain.
 */
WgaResult
stage_reference(const WgaParams& params, const synth::SpeciesPair& pair)
{
    const seq::Sequence& target = pair.target.genome.flattened();
    const seed::SeedIndex index(target,
                                seed::SeedPattern(params.seed_pattern));
    const align::GactXTileAligner aligner(params.gactx);
    WgaResult result;
    for (std::size_t s = 0; s < (params.align_both_strands ? 2u : 1u);
         ++s) {
        const seq::Sequence query =
            s == 0 ? pair.query.genome.flattened()
                   : pair.query.genome.flattened().reverse_complement();
        const std::span<const std::uint8_t> t(target.codes());
        const std::span<const std::uint8_t> q(query.codes());
        const auto hits = seed::DsoftSeeder(index, params.dsoft)
                              .seed_all(query, &result.stats.seeding);
        const auto candidates =
            FilterStage(params, t, q).filter_all(hits, &result.stats.filter);
        for (auto& alignment :
             ExtendStage(params, t, q)
                 .extend_all(candidates, aligner, &result.stats.extend)) {
            alignment.query_strand =
                s == 0 ? align::Strand::Forward : align::Strand::Reverse;
            result.alignments.push_back(std::move(alignment));
        }
    }
    result.chains =
        chain::chain_alignments(result.alignments, chain::ChainParams{});
    return result;
}

/** Same output and the same stage workload. Sharded runs re-scan the
 *  query once per shard, so only their lookup count differs. */
void
expect_same_work(const WgaResult& reference, const WgaResult& run,
                 bool sharded)
{
    expect_identical(reference, run);
    const PipelineStats& a = reference.stats;
    const PipelineStats& b = run.stats;
    if (!sharded) {
        EXPECT_EQ(a.seeding.seed_lookups, b.seeding.seed_lookups);
    }
    EXPECT_EQ(a.seeding.candidates, b.seeding.candidates);
    EXPECT_EQ(a.filter.tiles, b.filter.tiles);
    EXPECT_EQ(a.filter.cells, b.filter.cells);
    EXPECT_EQ(a.filter.passed, b.filter.passed);
    EXPECT_EQ(a.extend.anchors_in, b.extend.anchors_in);
    EXPECT_EQ(a.extend.absorbed, b.extend.absorbed);
    EXPECT_EQ(a.extend.alignments_out, b.extend.alignments_out);
    EXPECT_EQ(a.extend.matched_bases, b.extend.matched_bases);
    EXPECT_EQ(a.extend.extension.cells, b.extend.extension.cells);
}

/** The kernel gauges every run publishes. */
void
expect_kernel_gauges(const obs::MetricsRegistry& metrics)
{
    const int active = align::kernels::KernelRegistry::instance().active().id;
    for (const char* name : {"wga.filter.kernel", "wga.extend.kernel"}) {
        const auto* gauge = metrics.find_gauge(name);
        ASSERT_NE(gauge, nullptr) << name;
        EXPECT_EQ(gauge->value(), active) << name;
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

/** The pair the configuration suite aligns, both strands. */
const synth::SpeciesPair&
driver_pair()
{
    static const synth::SpeciesPair pair = small_pair("ce11-cb4", 15000);
    return pair;
}

WgaParams
both_strands()
{
    WgaParams params = WgaParams::darwin_defaults();
    params.align_both_strands = true;
    return params;
}

enum class Storage { Byte, Packed };
enum class IndexSource { Built, Prebuilt, Sharded };

/** One strand-driver configuration. */
struct DriverConfig {
    Storage storage;
    IndexSource index;
    OverflowPolicy overflow;
    bool pool;
};

std::vector<DriverConfig>
all_configs()
{
    std::vector<DriverConfig> configs;
    for (const Storage storage : {Storage::Byte, Storage::Packed})
        for (const IndexSource index :
             {IndexSource::Built, IndexSource::Prebuilt, IndexSource::Sharded})
            for (const OverflowPolicy overflow :
                 {OverflowPolicy::Spill, OverflowPolicy::Backpressure})
                for (const bool pool : {true, false})
                    configs.push_back({storage, index, overflow, pool});
    return configs;
}

/** Test names print the configuration, e.g. packed_sharded_spill_pool. */
void
PrintTo(const DriverConfig& c, std::ostream* os)
{
    static const char* const kIndex[] = {"built", "prebuilt", "sharded"};
    *os << (c.storage == Storage::Byte ? "byte" : "packed") << "_"
        << kIndex[static_cast<int>(c.index)] << "_"
        << (c.overflow == OverflowPolicy::Spill ? "spill" : "backpressure")
        << (c.pool ? "_pool" : "_nopool");
}

/**
 * Storage x index source x overflow policy x pool: every combination
 * of the one strand driver reproduces the materialized stage
 * composition, both strands, with its workload counters. "built"
 * indexes the run's own storage, "prebuilt" maps a saved .dwi (the
 * serve and batch-cache path), "sharded" builds 6 kb band shards one
 * at a time. Spill configurations take tiny capacities so the
 * candidate buffer always spills; backpressure configurations must
 * neither spill nor publish wga.heap.* gauges.
 */
class StrandDriverIdentity : public ::testing::TestWithParam<DriverConfig> {};

TEST_P(StrandDriverIdentity, MatchesStageReference)
{
    const DriverConfig config = GetParam();
    const WgaParams params = both_strands();
    const synth::SpeciesPair& pair = driver_pair();
    static const WgaResult reference = stage_reference(params, pair);
    const seq::Genome& target = pair.target.genome;
    const seq::Genome& query = pair.query.genome;
    const auto view = [&config](const seq::Genome& genome) {
        if (config.storage == Storage::Packed)
            return seq::BaseView(genome.flattened_packed());
        return seq::BaseView(
            std::span<const std::uint8_t>(genome.flattened().codes()));
    };

    const seed::SeedPattern pattern(params.seed_pattern);
    std::shared_ptr<const seed::SeedIndex> index;
    std::unique_ptr<seed::ShardedSeedIndexBuilder> shards;
    Dataflow flow;
    if (config.index == IndexSource::Built) {
        index = config.storage == Storage::Packed
                    ? std::make_shared<const seed::SeedIndex>(
                          target.flattened_packed(), pattern)
                    : std::make_shared<const seed::SeedIndex>(
                          target.flattened(), pattern);
    } else if (config.index == IndexSource::Prebuilt) {
        const std::string path = testing::temp_path("driver.dwi");
        index::save_index(path, seed::SeedIndex(target.flattened(), pattern),
                          index::sequence_digest(target.flattened()),
                          target.flattened().size());
        index = index::load_index(path);
        std::remove(path.c_str());
    } else {
        shards = std::make_unique<seed::ShardedSeedIndexBuilder>(
            target.flattened_packed(), pattern,
            seed::SeedIndex::kDefaultMaxBucket, 6000,
            params.dsoft.chunk_size, params.dsoft.bin_size);
        ASSERT_GT(shards->num_shards(), 1u);
    }
    flow.index = index.get();
    flow.shards = shards.get();
    flow.overflow = config.overflow;
    flow.capacities.hit_stream_capacity = 64;
    flow.capacities.candidate_chunk = 16;
    flow.capacities.filter_batch = 32;
    ThreadPool pool(3);
    flow.pool = config.pool ? &pool : nullptr;
    obs::MetricsRegistry metrics;
    flow.metrics = &metrics;

    const WgaPipeline pipeline(params);
    const WgaResult run =
        pipeline.run_dataflow(flow, view(target), view(query));
    expect_same_work(reference, run, config.index == IndexSource::Sharded);

    expect_kernel_gauges(metrics);
    EXPECT_EQ(metrics.counter("wga.filter.tiles").value(),
              run.stats.filter.tiles);
    EXPECT_EQ(metrics.counter("wga.extend.alignments").value(),
              run.alignments.size());
    if (config.overflow == OverflowPolicy::Spill) {
        EXPECT_GT(run.stats.channels.spilled_bytes, 0u);
        EXPECT_GT(metrics.gauge("wga.heap.hit_stream_bytes").value(), 0);
        EXPECT_EQ(metrics.gauge("wga.heap.hits_pushed").value(),
                  static_cast<std::int64_t>(run.stats.seeding.candidates));
    } else {
        EXPECT_EQ(run.stats.channels.hit_stream_bytes, 0u);
        EXPECT_EQ(run.stats.channels.spilled_bytes, 0u);
        EXPECT_EQ(metrics.gauge_snapshot("wga.heap.").size(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, StrandDriverIdentity,
                         ::testing::ValuesIn(all_configs()));

TEST(StrandDriver, EveryEntryPointMatchesTheStageReference)
{
    // Each entry point is a configuration of the driver, and each
    // publishes the same kernel gauges; the in-RAM ones publish only
    // those under wga.* gauges.
    const WgaParams params = both_strands();
    const synth::SpeciesPair& pair = driver_pair();
    const WgaResult reference = stage_reference(params, pair);
    const seq::Genome& target = pair.target.genome;
    const seq::Genome& query = pair.query.genome;
    const WgaPipeline pipeline(params);
    const seed::SeedIndex index(target.flattened_packed(),
                                seed::SeedPattern(params.seed_pattern));
    ThreadPool pool(2);

    const auto check = [&](const char* entry, bool in_ram,
                           const std::function<WgaResult(
                               obs::MetricsRegistry*)>& run) {
        SCOPED_TRACE(entry);
        obs::MetricsRegistry metrics;
        expect_same_work(reference, run(&metrics), !in_ram);
        expect_kernel_gauges(metrics);
        if (in_ram) {
            EXPECT_EQ(metrics.gauge_snapshot("wga.").size(), 2u);
        } else {
            EXPECT_GT(metrics.gauge("wga.heap.hit_stream_bytes").value(), 0);
        }
        for (const std::string& name : metric_names(metrics)) {
            EXPECT_NE(name.rfind("wga.batch.", 0), 0u) << name;
            EXPECT_NE(name.rfind("batch.backend.", 0), 0u) << name;
        }
    };
    check("run", true, [&](obs::MetricsRegistry* m) {
        return pipeline.run(target, query, &pool, m);
    });
    check("run_packed", true, [&](obs::MetricsRegistry* m) {
        return pipeline.run_packed(target, query, nullptr, m);
    });
    check("run_with_index", true, [&](obs::MetricsRegistry* m) {
        return pipeline.run_with_index(index, target.flattened(),
                                       query.flattened(), nullptr, m);
    });
    check("run_with_index, packed", true, [&](obs::MetricsRegistry* m) {
        return pipeline.run_with_index(
            index, target.flattened_packed(), query.flattened_packed(), &pool,
            m);
    });
    StreamingParams sp;
    sp.shard_bp = 7000;
    check("run_streaming", false, [&](obs::MetricsRegistry* m) {
        return pipeline.run_streaming(target, query, sp, &pool, m);
    });
    for (const bool streaming : {false, true}) {
        check(streaming ? "batch --streaming" : "batch", !streaming,
              [&](obs::MetricsRegistry* m) {
                  batch::BatchOptions options;
                  options.params = params;
                  options.num_threads = 2;
                  options.streaming = streaming;
                  options.streaming_params = sp;
                  batch::BatchScheduler scheduler(options, m);
                  auto results = scheduler.run({{"pair", &target, &query}});
                  EXPECT_EQ(results.at(0).status, fault::PairStatus::Clean);
                  return std::move(results.at(0).result);
              });
    }
}

TEST(StrandDriver, PerChunkCapWithPrebuiltIndexMatchesStageReference)
{
    // The batch engine's degraded retry caps hits per query chunk and
    // keeps the cached (prebuilt) index: one shard, so the cap applies
    // to whole chunks exactly as seed_all applies it.
    WgaParams params = both_strands();
    params.dsoft.max_hits_per_chunk = 2;
    const synth::SpeciesPair& pair = driver_pair();
    const WgaResult reference = stage_reference(params, pair);
    EXPECT_LT(reference.stats.seeding.candidates,
              stage_reference(both_strands(), pair)
                  .stats.seeding.candidates);
    const seed::SeedIndex index(pair.target.genome.flattened(),
                                seed::SeedPattern(params.seed_pattern));
    const WgaPipeline pipeline(params);
    ThreadPool pool(2);
    expect_same_work(reference,
                     pipeline.run_with_index(
                         index, pair.target.genome.flattened(),
                         pair.query.genome.flattened(), &pool),
                     false);
    // A one-shard streaming run keeps the cap too.
    expect_same_work(reference,
                     pipeline.run_streaming(pair.target.genome,
                                            pair.query.genome,
                                            StreamingParams{}),
                     false);
}

TEST(StrandDriver, RejectsUngappedPackedAndShardedPerChunkCaps)
{
    const auto pair = small_pair("dm6-droSim1", 8000);
    StreamingParams sp;
    const WgaPipeline lastz(WgaParams::lastz_defaults());
    EXPECT_THROW((void)lastz.run_streaming(pair.target.genome,
                                           pair.query.genome, sp),
                 FatalError);
    EXPECT_THROW(
        (void)lastz.run_packed(pair.target.genome, pair.query.genome),
        FatalError);
    auto params = WgaParams::darwin_defaults();
    params.dsoft.max_hits_per_chunk = 100;
    const WgaPipeline capped(params);
    sp.shard_bp = 3000;
    EXPECT_THROW((void)capped.run_streaming(pair.target.genome,
                                            pair.query.genome, sp),
                 FatalError);
}

TEST(StrandDriver, UngappedPresetOnByteStorageMatchesStageReference)
{
    // The LASTZ baseline's ungapped filter reads byte storage only.
    WgaParams params = WgaParams::lastz_defaults();
    params.align_both_strands = true;
    const synth::SpeciesPair& pair = driver_pair();
    const WgaResult reference = stage_reference(params, pair);
    EXPECT_GT(reference.alignments.size(), 0u);
    const WgaPipeline pipeline(params);
    ThreadPool pool(2);
    expect_same_work(reference,
                     pipeline.run(pair.target.genome, pair.query.genome),
                     false);
    expect_same_work(
        reference,
        pipeline.run(pair.target.genome, pair.query.genome, &pool), false);
}

TEST(StrandDriver, ProducerFaultReachesTheCallerTagged)
{
    // A fault on the seeding producer thread surfaces on the caller as
    // the tagged InjectedFault, the producer retired (no hang), and the
    // failure is attributed to the seed stage.
    const auto plan = fault::FaultPlan::parse("seed.chunk:throw:count=0");
    const PlanGuard guard(plan);
    const synth::SpeciesPair& pair = driver_pair();
    const WgaPipeline pipeline(both_strands());
    ThreadPool pool(2);
    const auto expect_seed_fault = [](const std::function<void()>& run) {
        try {
            run();
            ADD_FAILURE() << "the seed.chunk fault did not surface";
        } catch (const fault::InjectedFault& error) {
            EXPECT_EQ(error.probe(), "seed.chunk");
        }
    };
    expect_seed_fault(
        [&] { pipeline.run(pair.target.genome, pair.query.genome, &pool); });
    StreamingParams sp;
    sp.hit_stream_capacity = 64;
    expect_seed_fault([&] {
        pipeline.run_streaming(pair.target.genome, pair.query.genome, sp);
    });

    const seed::SeedIndex index(pair.target.genome.flattened_packed(),
                                seed::SeedPattern(both_strands().seed_pattern));
    Dataflow flow;
    flow.index = &index;
    PipelineStats stats;
    const char* stage = "none";
    expect_seed_fault([&] {
        run_strand(both_strands(), flow,
                   pair.target.genome.flattened_packed(),
                   pair.query.genome.flattened_packed(),
                   align::Strand::Forward, &stats, &stage);
    });
    EXPECT_STREQ(stage, "seed");
}

TEST(StrandDriver, InRamEntryPointsOpenNoSpillFile)
{
    // Any spill write throws under this plan: the in-RAM entry points
    // never write one; run_streaming at tiny capacities does.
    const auto plan = fault::FaultPlan::parse("stream.spill_write:throw:count=0");
    const PlanGuard guard(plan);
    const synth::SpeciesPair& pair = driver_pair();
    const seq::Genome& target = pair.target.genome;
    const seq::Genome& query = pair.query.genome;
    const WgaPipeline pipeline(both_strands());
    const seed::SeedIndex index(target.flattened(),
                                seed::SeedPattern(both_strands().seed_pattern));
    ThreadPool pool(2);
    EXPECT_NO_THROW(pipeline.run(target, query, &pool));
    EXPECT_NO_THROW(pipeline.run_packed(target, query));
    EXPECT_NO_THROW(pipeline.run_with_index(index, target.flattened(),
                                            query.flattened()));
    EXPECT_NO_THROW(pipeline.run_with_index(
        index, target.flattened_packed(), query.flattened_packed(), &pool));
    batch::BatchOptions options;
    options.params = both_strands();
    options.num_threads = 2;
    batch::BatchScheduler scheduler(options);
    EXPECT_EQ(scheduler.run({{"pair", &target, &query}}).at(0).status,
              fault::PairStatus::Clean);
    EXPECT_EQ(plan.injected(), 0u);

    StreamingParams sp;
    sp.hit_stream_capacity = 64;
    sp.candidate_chunk = 16;
    EXPECT_THROW(pipeline.run_streaming(target, query, sp),
                 fault::InjectedFault);
}

TEST(StrandDriver, PackedGenomesRenderIdenticalMaf)
{
    // Genomes ingested as packed storage end to end: alignments and
    // MAF must match the byte-mode run exactly.
    const auto pair = small_pair("dm6-droYak2", 20000);
    seq::Genome packed_target("t"), packed_query("q");
    for (std::size_t c = 0; c < pair.target.genome.num_chromosomes(); ++c)
        packed_target.add_chromosome(
            seq::PackedSequence::pack(pair.target.genome.chromosome(c)));
    for (std::size_t c = 0; c < pair.query.genome.num_chromosomes(); ++c)
        packed_query.add_chromosome(
            seq::PackedSequence::pack(pair.query.genome.chromosome(c)));

    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto classic =
        pipeline.run(pair.target.genome, pair.query.genome);
    StreamingParams sp;
    sp.shard_bp = 9000;
    const auto streamed =
        pipeline.run_streaming(packed_target, packed_query, sp);
    expect_identical(classic, streamed);

    std::ostringstream maf_classic, maf_packed;
    write_maf(maf_classic, classic.alignments, pair.target.genome,
              pair.query.genome);
    write_maf(maf_packed, streamed.alignments, packed_target,
              packed_query);
    EXPECT_EQ(maf_classic.str(), maf_packed.str());
}

TEST(BatchStreaming, StreamingModeMatchesTheDataflowEngine)
{
    const auto pair_a = small_pair("dm6-droSim1", 15000);
    const auto pair_b = small_pair("dm6-droYak2", 15000);
    std::vector<batch::BatchJob> jobs = {
        {"a", &pair_a.target.genome, &pair_a.query.genome},
        {"b", &pair_b.target.genome, &pair_b.query.genome},
    };

    batch::BatchOptions classic;
    classic.params = WgaParams::darwin_defaults();
    classic.num_threads = 2;
    batch::BatchScheduler classic_engine(classic);
    const auto classic_results = classic_engine.run(jobs);

    batch::BatchOptions streaming = classic;
    streaming.streaming = true;
    streaming.streaming_params.shard_bp = 6000;
    streaming.streaming_params.hit_stream_capacity = 128;
    streaming.streaming_params.candidate_chunk = 64;
    batch::BatchScheduler streaming_engine(streaming);
    const auto streaming_results = streaming_engine.run(jobs);

    ASSERT_EQ(classic_results.size(), streaming_results.size());
    for (std::size_t p = 0; p < classic_results.size(); ++p) {
        EXPECT_EQ(streaming_results[p].status, fault::PairStatus::Clean);
        expect_identical(classic_results[p].result,
                         streaming_results[p].result);
    }
}

}  // namespace
}  // namespace darwin::wga
