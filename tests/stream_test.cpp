/**
 * @file
 * Tests for the bounded-memory dataflow: spill primitives
 * (wga/spill.h), the spill-or-backpressure channel
 * (wga/bounded_stream.h), sharded seed indexing (seed/sharded_index.h)
 * and its `.dwi` v2 persistence, and the streaming pipeline's
 * bit-identity with the classic materialized run — including the batch
 * engine's streaming mode.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <thread>

#include "batch/scheduler.h"
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
    buffer.drain_sorted([&](std::uint64_t v) { drained.push_back(v); });
    EXPECT_EQ(drained, values);

    // The buffer resets after a full drain and is reusable.
    EXPECT_EQ(buffer.size(), 0u);
    buffer.push(3);
    buffer.push(1);
    drained.clear();
    buffer.drain_sorted([&](std::uint64_t v) { drained.push_back(v); });
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

    // Every monolithic position appears in every shard whose slice
    // covers it, and shard buckets are subsequences of the monolithic
    // bucket (same order, same truncation).
    for (std::size_t s = 0; s < builder.num_shards(); ++s) {
        const auto shard = builder.build_shard(s);
        const auto& plan = builder.plan()[s];
        const auto mono_offsets = mono.bucket_offsets();
        const auto shard_offsets = shard->bucket_offsets();
        ASSERT_EQ(mono_offsets.size(), shard_offsets.size());
        for (std::size_t b = 0; b + 1 < mono_offsets.size(); ++b) {
            std::vector<std::uint32_t> expect;
            for (std::uint32_t o = mono_offsets[b];
                 o < mono_offsets[b + 1]; ++o) {
                const std::uint32_t position = mono.positions()[o];
                if (position >= plan.slice_lo && position < plan.slice_hi)
                    expect.push_back(position);
            }
            const std::vector<std::uint32_t> got(
                shard->positions().begin() + shard_offsets[b],
                shard->positions().begin() + shard_offsets[b + 1]);
            ASSERT_EQ(got, expect) << "shard " << s << " bucket " << b;
        }
    }
}

TEST(ShardedIndexIo, RoundTripsThroughDwiV2)
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
    EXPECT_EQ(info.version, index::kIndexShardedFormatVersion);
    EXPECT_EQ(info.shard_bp, 4000u);
    EXPECT_EQ(info.num_shards, builder.num_shards());
    EXPECT_EQ(info.sequence_digest, 0x1234u);

    // The monolithic loader refuses v2 files with a pointed message.
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
        ASSERT_EQ(loaded->num_positions(), built->num_positions());
        for (std::size_t i = 0; i < built->positions().size(); ++i)
            ASSERT_EQ(loaded->positions()[i], built->positions()[i]);
        const auto lo = loaded->bucket_offsets();
        const auto bo = built->bucket_offsets();
        ASSERT_EQ(lo.size(), bo.size());
        for (std::size_t i = 0; i < bo.size(); i += 97)
            ASSERT_EQ(lo[i], bo[i]);
    }
    std::remove(path.c_str());
}

TEST(StreamingPipeline, PackedRunIsBitIdenticalToByteRun)
{
    const auto pair = small_pair("dm6-droSim1", 30000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto classic =
        pipeline.run(pair.target.genome, pair.query.genome);
    const auto packed =
        pipeline.run_packed(pair.target.genome, pair.query.genome);
    expect_identical(classic, packed);

    // Both strands over a pool: packed strands run concurrently, as
    // byte strands do, and the output keeps strand order.
    WgaParams both = WgaParams::darwin_defaults();
    both.align_both_strands = true;
    const WgaPipeline both_pipeline(both);
    ThreadPool pool(3);
    expect_identical(
        both_pipeline.run(pair.target.genome, pair.query.genome, &pool),
        both_pipeline.run_packed(pair.target.genome, pair.query.genome,
                                 &pool));
}

TEST(StreamingPipeline, StreamingRunIsBitIdenticalIncludingMaf)
{
    const auto pair = small_pair("ce11-cb4", 30000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto classic =
        pipeline.run(pair.target.genome, pair.query.genome);

    // Tiny capacities force sharding, spilling, and candidate chunk
    // merges — the stress configuration must still be bit-identical.
    StreamingParams sp;
    sp.shard_bp = 7000;
    sp.hit_stream_capacity = 64;
    sp.candidate_chunk = 16;
    sp.filter_batch = 32;
    obs::MetricsRegistry metrics;
    const auto streamed = pipeline.run_streaming(
        pair.target.genome, pair.query.genome, sp, nullptr, &metrics);
    expect_identical(classic, streamed);

    // Telemetry: the dataflow reported its residency and throughput.
    EXPECT_GT(metrics.gauge("wga.heap.hits_pushed").value(), 0);
    EXPECT_GT(metrics.gauge("wga.heap.hit_stream_bytes").value(), 0);

    // And the rendered MAF matches byte for byte.
    std::ostringstream maf_classic, maf_streamed;
    write_maf(maf_classic, classic.alignments, pair.target.genome,
              pair.query.genome);
    write_maf(maf_streamed, streamed.alignments, pair.target.genome,
              pair.query.genome);
    EXPECT_EQ(maf_classic.str(), maf_streamed.str());
}

TEST(StreamingPipeline, PackedGenomesRenderIdenticalMaf)
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

TEST(StreamingPipeline, RunWithIndexPackedMatchesRunPacked)
{
    const auto pair = small_pair("dm6-dp4", 15000);
    const WgaPipeline pipeline(WgaParams::darwin_defaults());
    const auto baseline =
        pipeline.run_packed(pair.target.genome, pair.query.genome);
    const seed::SeedIndex index(
        pair.target.genome.flattened_packed(),
        seed::SeedPattern(pipeline.params().seed_pattern));
    const auto with_index = pipeline.run_with_index_packed(
        index, pair.target.genome.flattened_packed(),
        pair.query.genome.flattened_packed());
    expect_identical(baseline, with_index);
}

TEST(StreamingPipeline, RejectsUngappedAndPerChunkCaps)
{
    const auto pair = small_pair("dm6-droSim1", 8000);
    StreamingParams sp;
    const WgaPipeline lastz(WgaParams::lastz_defaults());
    EXPECT_THROW((void)lastz.run_streaming(pair.target.genome,
                                           pair.query.genome, sp),
                 FatalError);
    auto params = WgaParams::darwin_defaults();
    params.dsoft.max_hits_per_chunk = 100;
    const WgaPipeline capped(params);
    EXPECT_THROW((void)capped.run_streaming(pair.target.genome,
                                            pair.query.genome, sp),
                 FatalError);
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
