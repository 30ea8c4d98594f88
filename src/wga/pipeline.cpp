#include "wga/pipeline.h"

#include <limits>
#include <thread>

#include "align/kernels/kernel_registry.h"
#include "fault/cancel.h"
#include "obs/trace.h"
#include "seed/seed_index.h"
#include "seed/sharded_index.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "wga/spill.h"

namespace darwin::wga {

void
PipelineStats::merge(const PipelineStats& other)
{
    seeding.merge(other.seeding);
    filter.merge(other.filter);
    extend.anchors_in += other.extend.anchors_in;
    extend.absorbed += other.extend.absorbed;
    extend.extended += other.extend.extended;
    extend.duplicates += other.extend.duplicates;
    extend.alignments_out += other.extend.alignments_out;
    extend.matched_bases += other.extend.matched_bases;
    extend.extension.merge(other.extend.extension);
    seed_seconds += other.seed_seconds;
    filter_seconds += other.filter_seconds;
    extend_seconds += other.extend_seconds;
    chain_seconds += other.chain_seconds;
    channels.hit_stream_bytes += other.channels.hit_stream_bytes;
    channels.candidate_buffer_bytes += other.channels.candidate_buffer_bytes;
    channels.hits_spilled += other.channels.hits_spilled;
    channels.spill_episodes += other.channels.spill_episodes;
    channels.spilled_bytes += other.channels.spilled_bytes;
}

void
publish_pipeline_stats(obs::MetricsRegistry& metrics,
                       const PipelineStats& stats,
                       const std::string& prefix)
{
    const auto name = [&prefix](const char* leaf) { return prefix + leaf; };
    metrics.counter(name(".seed.lookups")).add(stats.seeding.seed_lookups);
    metrics.counter(name(".seed.hits")).add(stats.seeding.seed_hits);
    metrics.counter(name(".seed.candidates")).add(stats.seeding.candidates);
    metrics.counter(name(".filter.tiles")).add(stats.filter.tiles);
    metrics.counter(name(".filter.cells")).add(stats.filter.cells);
    metrics.counter(name(".filter.passed")).add(stats.filter.passed);
    metrics.counter(name(".filter.dropped"))
        .add(stats.filter.tiles - stats.filter.passed);
    metrics.counter(name(".extend.anchors_in")).add(stats.extend.anchors_in);
    metrics.counter(name(".extend.absorbed")).add(stats.extend.absorbed);
    metrics.counter(name(".extend.extended")).add(stats.extend.extended);
    metrics.counter(name(".extend.duplicates")).add(stats.extend.duplicates);
    metrics.counter(name(".extend.alignments"))
        .add(stats.extend.alignments_out);
    metrics.counter(name(".extend.matched_bases"))
        .add(stats.extend.matched_bases);
    metrics.counter(name(".extend.tiles")).add(stats.extend.extension.tiles);
    metrics.counter(name(".extend.cells")).add(stats.extend.extension.cells);
    metrics.counter(name(".extend.traceback_ops"))
        .add(stats.extend.extension.traceback_ops);
    metrics.counter(name(".extend.stripes"))
        .add(stats.extend.extension.stripes);
    metrics.counter(name(".extend.xdrop_terminations"))
        .add(stats.extend.extension.xdrop_terminations);
    if (stats.seed_seconds > 0.0)
        metrics.histogram(name(".seed.seconds")).observe(stats.seed_seconds);
    if (stats.filter_seconds > 0.0)
        metrics.histogram(name(".filter.seconds"))
            .observe(stats.filter_seconds);
    if (stats.extend_seconds > 0.0)
        metrics.histogram(name(".extend.seconds"))
            .observe(stats.extend_seconds);
    if (stats.chain_seconds > 0.0)
        metrics.histogram(name(".chain.seconds"))
            .observe(stats.chain_seconds);
}

void
publish_heap_gauges(obs::MetricsRegistry& metrics, const PipelineStats& stats)
{
    // The *_bytes gauges are the fixed capacities charged against the
    // heap budget; spilled bytes are deliberately uncharged (the escape
    // valve).
    const auto set = [&metrics](const char* name, std::uint64_t value) {
        metrics.gauge(name).set(static_cast<std::int64_t>(value));
    };
    set("wga.heap.hit_stream_bytes", stats.channels.hit_stream_bytes);
    set("wga.heap.candidate_buffer_bytes",
        stats.channels.candidate_buffer_bytes);
    set("wga.heap.hits_pushed", stats.seeding.candidates);
    set("wga.heap.hits_spilled", stats.channels.hits_spilled);
    set("wga.heap.spill_episodes", stats.channels.spill_episodes);
    set("wga.heap.candidates", stats.filter.passed);
    set("wga.heap.spilled_bytes", stats.channels.spilled_bytes);
    if (const fault::CancelToken* token = fault::current_token())
        set("wga.heap.charged_bytes", token->heap_bytes_charged());
}

void
publish_kernel_gauges(obs::MetricsRegistry& metrics)
{
    // All kernels are bit-identical, so every other wga.* value is
    // kernel-invariant.
    const int kernel_id =
        align::kernels::KernelRegistry::instance().active().id;
    metrics.gauge("wga.filter.kernel").set(kernel_id);
    metrics.gauge("wga.extend.kernel").set(kernel_id);
}

namespace {

/** The reverse pass's query: the reverse complement, stored like the
 *  forward query. */
struct ReverseQuery {
    std::vector<std::uint8_t> bytes;
    seq::PackedSequence packed;

    seq::BaseView
    of(seq::BaseView query)
    {
        if (const seq::PackedSequence* forward = query.packed_sequence()) {
            packed = forward->reverse_complement();
            return packed;
        }
        bytes.resize(query.size());
        for (std::size_t i = 0; i < query.size(); ++i)
            bytes[query.size() - 1 - i] = seq::complement(query[i]);
        return std::span<const std::uint8_t>(bytes);
    }
};

/** Seed every query chunk against every shard's table into `hits`,
 *  until the consumer closes it. Runs on the producer thread. */
void
seed_into(const WgaParams& params, const Dataflow& flow, seq::BaseView query,
          BoundedStream<seed::SeedHit>& hits, PipelineStats* seeded)
{
    const bool spill = flow.overflow == OverflowPolicy::Spill;
    const std::size_t num_shards = flow.shards ? flow.shards->num_shards() : 1;
    const std::size_t chunk = params.dsoft.chunk_size;
    // A spilling run's chunk hit vectors are transient — drained into
    // the fixed-capacity channel and freed — so it charges the
    // high-water of one chunk. An in-RAM run holds its hits, so each
    // chunk is charged as seeded.
    std::size_t chunk_hits_high_water = 0;
    bool open = true;
    for (std::size_t s = 0; open && s < num_shards; ++s) {
        std::shared_ptr<const seed::SeedIndex> shard;
        std::uint64_t band_lo = 0;
        std::uint64_t band_hi = ~0ull;
        if (flow.shards != nullptr) {
            shard = flow.shards->build_shard(s);
            band_lo = flow.shards->plan()[s].band_lo;
            band_hi = flow.shards->plan()[s].band_hi;
        }
        const seed::DsoftSeeder seeder(shard ? *shard : *flow.index,
                                       params.dsoft, band_lo, band_hi);
        for (std::size_t begin = 0; open && begin < query.size();
             begin += chunk) {
            const std::vector<seed::SeedHit> chunk_hits = seeder.seed_chunk(
                query, begin, std::min(query.size(), begin + chunk),
                &seeded->seeding, /*charge_heap=*/!spill);
            if (spill && chunk_hits.size() > chunk_hits_high_water) {
                fault::charge_heap_bytes(
                    (chunk_hits.size() - chunk_hits_high_water) *
                    sizeof(seed::SeedHit));
                chunk_hits_high_water = chunk_hits.size();
            }
            // False once the consumer closed the stream.
            open = hits.push_all(chunk_hits);
        }
    }
}

}  // namespace

std::vector<align::Alignment>
run_strand(const WgaParams& params, const Dataflow& flow,
           seq::BaseView target, seq::BaseView query, align::Strand strand,
           PipelineStats* stats, const char** stage)
{
    require((flow.index != nullptr) != (flow.shards != nullptr),
            "run_strand: set exactly one of index and shards");
    const std::size_t num_shards = flow.shards ? flow.shards->num_shards() : 1;
    if (num_shards > 1 && params.dsoft.max_hits_per_chunk != 0)
        fatal("run_strand: dsoft.max_hits_per_chunk must be 0 with more "
              "than one index shard — the per-chunk cap is defined over "
              "whole query chunks, which band sharding splits");
    const auto enter = [&](const char* name) {
        if (stage != nullptr)
            *stage = name;
        fault::poll(strprintf("%s.%s", flow.prefix, name).c_str());
    };
    const std::int64_t strand_arg = strand == align::Strand::Reverse ? 1 : 0;
    ReverseQuery reverse;
    if (strand == align::Strand::Reverse)
        query = reverse.of(query);

    // In-RAM runs size the channels to the input (see Dataflow).
    const bool spill = flow.overflow == OverflowPolicy::Spill;
    const std::size_t candidate_chunk =
        spill ? flow.capacities.candidate_chunk
              : std::numeric_limits<std::size_t>::max();
    const FilterStage filter(params, target, query);
    BoundedStream<seed::SeedHit> hits(
        spill ? flow.capacities.hit_stream_capacity
              : std::max<std::size_t>(1, query.size()),
        flow.overflow, flow.capacities.spill_dir);
    SortingSpillBuffer<FilterCandidate, CandidateOrder> candidates(
        candidate_chunk, CandidateOrder{}, flow.capacities.spill_dir);
    if (spill)
        fault::charge_heap_bytes(hits.resident_bytes() +
                                 candidate_chunk * sizeof(FilterCandidate));
    const std::size_t filter_batch =
        std::max<std::size_t>(1, flow.capacities.filter_batch);
    enter("filter");
    PipelineStats filtered;
    obs::ManualSpan filter_span = obs::ManualSpan::begin("filter", "wga");
    filter_span.arg("strand", strand_arg);

    // The producer runs under the caller's cancellation context and
    // request tag, so budget overruns, injected faults and trace
    // attribution apply to it too.
    PipelineStats seeded;
    std::exception_ptr producer_error;
    fault::CancelToken* token = fault::current_token();
    const std::size_t pair_index = fault::current_pair();
    const std::int64_t request = obs::RequestTag::current();
    std::thread producer([&] {
        const fault::ContextScope scope(token, pair_index);
        const obs::RequestTag tag(request);
        obs::ScopedSpan span("seed", "wga");
        span.arg("strand", strand_arg);
        span.arg("shards", static_cast<std::int64_t>(num_shards));
        // Seeding seconds are the producer's CPU time: its wall clock
        // also counts the waits on a full channel.
        const double cpu_start = thread_cpu_seconds();
        try {
            seed_into(params, flow, query, hits, &seeded);
        } catch (...) {
            producer_error = std::current_exception();
        }
        seeded.seed_seconds = thread_cpu_seconds() - cpu_start;
        span.arg("hits", static_cast<std::int64_t>(hits.pushed()));
        hits.close();
    });

    try {
        std::vector<seed::SeedHit> batch;
        batch.reserve(filter_batch);
        while (hits.pop_batch(&batch, filter_batch)) {
            Timer timer;
            for (const auto& slot :
                 filter.filter_hits(batch, &filtered.filter, flow.pool)) {
                if (slot)
                    candidates.push(*slot);
            }
            filtered.filter_seconds += timer.seconds();
            batch.clear();
        }
    } catch (...) {
        // Unblock and retire the producer before propagating (its
        // pushes fail once the stream is closed).
        hits.close();
        producer.join();
        throw;
    }
    producer.join();
    if (producer_error) {
        if (stage != nullptr)
            *stage = "seed";
        std::rethrow_exception(producer_error);
    }
    filter_span.arg("hits_spilled",
                    static_cast<std::int64_t>(hits.spilled_items()));
    filter_span.arg("candidates",
                    static_cast<std::int64_t>(candidates.size()));
    filter_span.end();
    filtered.seeding = seeded.seeding;
    filtered.seed_seconds = seeded.seed_seconds;
    if (spill)
        filtered.channels = {
            hits.resident_bytes(), candidate_chunk * sizeof(FilterCandidate),
            hits.spilled_items(), hits.spill_episodes(),
            hits.spilled_items() * sizeof(seed::SeedHit) +
                candidates.spilled_bytes()};
    stats->merge(filtered);
    if (flow.metrics != nullptr)
        publish_pipeline_stats(*flow.metrics, filtered, flow.prefix);

    enter("extend");
    obs::ScopedSpan span("extend", "wga");
    span.arg("strand", strand_arg);
    Timer timer;
    PipelineStats extended;
    const align::GactXTileAligner aligner(params.gactx);
    ExtendStage extend(params, target, query);
    auto drain = candidates.drain();
    std::vector<align::Alignment> alignments = extend.extend_stream(
        [&drain] { return drain.next(); }, aligner, &extended.extend,
        flow.pool);
    extended.extend_seconds = timer.seconds();
    span.arg("alignments", static_cast<std::int64_t>(alignments.size()));
    stats->merge(extended);
    if (flow.metrics != nullptr)
        publish_pipeline_stats(*flow.metrics, extended, flow.prefix);

    for (auto& alignment : alignments)
        alignment.query_strand = strand;
    return alignments;
}

WgaPipeline::WgaPipeline(WgaParams params, chain::ChainParams chain_params)
    : params_(std::move(params)), chain_params_(std::move(chain_params))
{
}

namespace {

/** Run `build` as the run's index step: an "index" span, accounted as
 *  seeding time (Table V). */
template <class Build>
auto
index_step(Build&& build, PipelineStats* stats,
           obs::MetricsRegistry* metrics)
{
    obs::ScopedSpan span("index", "wga");
    Timer timer;
    auto index = build();
    stats->seed_seconds = timer.seconds();
    if (metrics)
        publish_pipeline_stats(*metrics, *stats);
    return index;
}

/** An in-RAM run over a prebuilt index (see Dataflow). */
Dataflow
in_ram(const seed::SeedIndex& index, ThreadPool* pool,
       obs::MetricsRegistry* metrics)
{
    Dataflow flow;
    flow.index = &index;
    flow.pool = pool;
    flow.metrics = metrics;
    return flow;
}

/** run() and run_packed(): index the target in its own storage, then
 *  the in-RAM dataflow. */
WgaResult
run_in_ram(const WgaPipeline& pipeline, seq::BaseView target,
           seq::BaseView query, ThreadPool* pool,
           obs::MetricsRegistry* metrics)
{
    PipelineStats index_stats;
    const auto index = index_step(
        [&] {
            return seed::SeedIndex(
                target, seed::SeedPattern(pipeline.params().seed_pattern));
        },
        &index_stats, metrics);
    WgaResult result =
        pipeline.run_dataflow(in_ram(index, pool, metrics), target, query);
    result.stats.merge(index_stats);
    return result;
}

}  // namespace

WgaResult
WgaPipeline::run(const seq::Genome& target, const seq::Genome& query,
                 ThreadPool* pool, obs::MetricsRegistry* metrics) const
{
    return run_in_ram(*this, target.flattened(), query.flattened(), pool,
                      metrics);
}

WgaResult
WgaPipeline::run_packed(const seq::Genome& target, const seq::Genome& query,
                        ThreadPool* pool,
                        obs::MetricsRegistry* metrics) const
{
    return run_in_ram(*this, target.flattened_packed(),
                      query.flattened_packed(), pool, metrics);
}

WgaResult
WgaPipeline::run_streaming(const seq::Genome& target,
                           const seq::Genome& query,
                           const StreamingParams& streaming,
                           ThreadPool* pool,
                           obs::MetricsRegistry* metrics) const
{
    const seq::PackedSequence& flat = target.flattened_packed();
    // The global counting pass replaces the monolithic index build and
    // is accounted the same way (seeding time).
    PipelineStats index_stats;
    const auto shards = index_step(
        [&] {
            return seed::ShardedSeedIndexBuilder(
                flat, seed::SeedPattern(params_.seed_pattern),
                seed::SeedIndex::kDefaultMaxBucket, streaming.shard_bp,
                params_.dsoft.chunk_size, params_.dsoft.bin_size);
        },
        &index_stats, metrics);
    Dataflow flow;
    flow.shards = &shards;
    flow.overflow = OverflowPolicy::Spill;
    flow.capacities = streaming;
    flow.pool = pool;
    flow.metrics = metrics;
    WgaResult result = run_dataflow(flow, flat, query.flattened_packed());
    result.stats.merge(index_stats);
    return result;
}

WgaResult
WgaPipeline::run_with_index(const seed::SeedIndex& index,
                            seq::BaseView target, seq::BaseView query,
                            ThreadPool* pool,
                            obs::MetricsRegistry* metrics) const
{
    if (index.pattern().pattern() != params_.seed_pattern)
        fatal(strprintf("run_with_index: index seed shape %s does not "
                        "match the pipeline's %s",
                        index.pattern().pattern().c_str(),
                        params_.seed_pattern.c_str()));
    return run_dataflow(in_ram(index, pool, metrics), target, query);
}

WgaResult
WgaPipeline::run_dataflow(const Dataflow& flow, seq::BaseView target,
                          seq::BaseView query) const
{
    // Umbrella span over the whole run: per-request dumps group the
    // seed/filter/extend/chain children under one "pipeline" row, and
    // the span carries the workload size for at-a-glance triage.
    obs::ScopedSpan pipeline_span("pipeline", "wga");
    pipeline_span.arg("target_bases",
                      static_cast<std::int64_t>(target.size()));
    pipeline_span.arg("query_bases",
                      static_cast<std::int64_t>(query.size()));
    if (flow.metrics != nullptr)
        publish_kernel_gauges(*flow.metrics);

    WgaResult result;
    const std::size_t num_strands = params_.align_both_strands ? 2 : 1;
    std::vector<align::Alignment> per_strand[2];
    PipelineStats strand_stats[2];
    const auto run_one = [&](std::size_t s) {
        per_strand[s] = run_strand(
            params_, flow, target, query,
            s == 0 ? align::Strand::Forward : align::Strand::Reverse,
            &strand_stats[s]);
    };
    if (flow.pool != nullptr && num_strands == 2 &&
        flow.overflow == OverflowPolicy::Backpressure) {
        // In-RAM strands are independent: run them as two concurrent
        // streams over the shared pool. Their inner parallel_for calls
        // nest safely because waiting callers help drain the pool
        // queue. Spilling runs take one strand at a time, so only one
        // strand's channel windows are resident.
        flow.pool->parallel_for(0, num_strands, run_one, 1);
    } else {
        for (std::size_t s = 0; s < num_strands; ++s)
            run_one(s);
    }
    for (std::size_t s = 0; s < num_strands; ++s) {
        result.stats.merge(strand_stats[s]);
        result.alignments.insert(
            result.alignments.end(),
            std::make_move_iterator(per_strand[s].begin()),
            std::make_move_iterator(per_strand[s].end()));
    }

    obs::ScopedSpan span("chain", "wga");
    Timer timer;
    result.chains = chain::chain_alignments(result.alignments, chain_params_);
    PipelineStats stage;
    stage.chain_seconds = timer.seconds();
    result.stats.chain_seconds = stage.chain_seconds;
    span.arg("chains", static_cast<std::int64_t>(result.chains.size()));
    if (flow.metrics != nullptr) {
        publish_pipeline_stats(*flow.metrics, stage);
        if (flow.overflow == OverflowPolicy::Spill)
            publish_heap_gauges(*flow.metrics, result.stats);
    }
    return result;
}

}  // namespace darwin::wga
