/**
 * @file
 * The end-to-end whole-genome-alignment pipeline (paper Fig. 4/6):
 * seed (D-SOFT) -> filter (gapped BSW or ungapped X-drop) -> extend
 * (GACT-X) -> chain (axtChain-style).
 *
 * The same pipeline class realizes both systems under comparison:
 * construct with WgaParams::darwin_defaults() for Darwin-WGA and
 * WgaParams::lastz_defaults() for the LASTZ-like baseline.
 */
#ifndef DARWIN_WGA_PIPELINE_H
#define DARWIN_WGA_PIPELINE_H

#include <memory>

#include "align/gactx.h"
#include "chain/chainer.h"
#include "obs/metrics.h"
#include "seq/genome.h"
#include "util/thread_pool.h"
#include "wga/bounded_stream.h"
#include "wga/extend_stage.h"
#include "wga/filter_stage.h"

namespace darwin::seed {
class SeedIndex;
class ShardedSeedIndexBuilder;
}

namespace darwin::wga {

/** Per-stage work and workload accounting (Table V inputs). */
struct PipelineStats {
    seed::SeedingStats seeding;
    FilterStats filter;
    ExtendStats extend;

    /** Seeding and filtering run concurrently (a seeding producer
     *  feeds the filtering consumer), so these two are work seconds —
     *  time spent in seed and filter calls — and overlap in wall time. */
    double seed_seconds = 0.0;
    double filter_seconds = 0.0;
    double extend_seconds = 0.0;
    double chain_seconds = 0.0;

    /** Residency and spill traffic of the stage channels. Zero for
     *  in-RAM runs, whose channels never spill. */
    struct Channels {
        std::uint64_t hit_stream_bytes = 0;
        std::uint64_t candidate_buffer_bytes = 0;
        std::uint64_t hits_spilled = 0;
        std::uint64_t spill_episodes = 0;
        std::uint64_t spilled_bytes = 0;
    } channels;

    double
    total_seconds() const
    {
        return seed_seconds + filter_seconds + extend_seconds +
               chain_seconds;
    }

    /**
     * Accumulate another stats block (workload counters and stage
     * seconds). Used to combine per-stage and per-strand accounting;
     * note that when strands run concurrently the summed stage seconds
     * are CPU-time-like rather than wall-clock.
     */
    void merge(const PipelineStats& other);
};

/** Everything a WGA run produces. */
struct WgaResult {
    /** Local alignments in flattened-genome coordinates. */
    std::vector<align::Alignment> alignments;
    /** Chains over those alignments, sorted by descending score. */
    std::vector<chain::Chain> chains;
    PipelineStats stats;
};

/** Channel capacities and shard size of the spilling dataflow
 *  (WgaPipeline::run_streaming, batch --streaming). */
struct StreamingParams {
    /** Band-start basepairs owned per target index shard; at most one
     *  shard's seed table is resident at a time. */
    std::uint64_t shard_bp = 8ull << 20;

    /** In-memory window of the seed-hit channel (SeedHit records). */
    std::size_t hit_stream_capacity = 1 << 16;

    /** In-memory chunk of the candidate sort-spill buffer
     *  (FilterCandidate records). */
    std::size_t candidate_chunk = 1 << 14;

    /** Hits pulled from the channel per filter_hits batch. */
    std::size_t filter_batch = 2048;

    /** Spill directory ("" = system temp dir). */
    std::string spill_dir;
};

/**
 * How one strand pass runs: where its seed tables come from and how
 * its stage channels behave.
 *
 * Seed tables: a prebuilt `index` over the whole target (a one-shard
 * plan) or a `shards` builder that makes one band shard's table at a
 * time. Exactly one is set.
 *
 * Channels: with OverflowPolicy::Spill the hit channel and candidate
 * buffer take `capacities` and overflow to disk, and their windows are
 * charged to the heap budget. With Backpressure (the in-RAM runs) they
 * are sized to the input instead: the hit channel holds up to one hit
 * per query base and blocks the seeder beyond that, the candidate
 * buffer never spills, and the heap budget is charged per seeded chunk
 * (the hits the run holds). Only `capacities.filter_batch` applies.
 */
struct Dataflow {
    const seed::SeedIndex* index = nullptr;
    const seed::ShardedSeedIndexBuilder* shards = nullptr;
    OverflowPolicy overflow = OverflowPolicy::Backpressure;
    StreamingParams capacities;
    ThreadPool* pool = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    /** Metric family and stage-probe prefix ("wga" or "batch"). */
    const char* prefix = "wga";
};

/**
 * The strand driver every entry point runs: seed -> filter -> extend
 * for one query orientation (paper Fig. 4/6) over byte or 2-bit
 * storage.
 *
 * A producer thread seeds query chunks shard by shard into a
 * BoundedStream of SeedHits; this thread filters batches of hits into
 * a SortingSpillBuffer, whose sorted drain (sort_candidates order)
 * feeds ExtendStage::extend_stream. The output is therefore the
 * materialized seed_all -> filter_all -> extend_all result for any
 * index source, capacities, overflow policy and pool.
 *
 * `query` is the forward query; for Strand::Reverse the driver reads
 * its reverse complement (stored like the query) and coordinates stay
 * in reverse-complement space (the MAF '-' strand convention).
 *
 * Stats merge into *stats; with a registry, the seed and filter
 * workload and then the extension workload are published under
 * `<prefix>.*` as each completes. `*stage` (when given) names the
 * stage a failure belongs to: "filter" and "extend" as they are
 * entered — polling the `<prefix>.filter` / `<prefix>.extend` fault
 * probes — and "seed" when the producer's error is rethrown.
 *
 * A per-chunk hit cap (dsoft.max_hits_per_chunk) is defined over whole
 * query chunks, which band shards split, so it is fatal with more than
 * one shard.
 */
std::vector<align::Alignment> run_strand(const WgaParams& params,
                                         const Dataflow& flow,
                                         seq::BaseView target,
                                         seq::BaseView query,
                                         align::Strand strand,
                                         PipelineStats* stats,
                                         const char** stage = nullptr);

/** The full aligner. */
class WgaPipeline {
  public:
    explicit WgaPipeline(WgaParams params,
                         chain::ChainParams chain_params = {});

    const WgaParams& params() const { return params_; }

    /**
     * Align query against target. Coordinates in the result refer to the
     * flattened() sequences of the two genomes.
     *
     * @param pool    Optional thread pool for the filter and extension
     *        stages (and for running both strands at once).
     * @param metrics Optional registry: each stage publishes its
     *        workload counters and stage-seconds histograms under
     *        "wga.*" names as it completes (see DESIGN.md
     *        "Observability"). Purely additive — results are
     *        bit-identical with or without a registry.
     *
     * When a trace session is installed (obs::TraceSession::install),
     * the run also records "index"/"seed"/"filter"/"extend"/"chain"
     * spans in the "wga" category.
     */
    WgaResult run(const seq::Genome& target, const seq::Genome& query,
                  ThreadPool* pool = nullptr,
                  obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * run() over 2-bit packed storage: the flattened target and query
     * stay packed end to end — the seed index builds from packed words,
     * and the filter/extension stages decode one tile window at a time
     * (seq::BaseView). Results are bit-identical to run() on the same
     * genomes. Gapped filter mode only (ungapped scans need byte-backed
     * sequences). Works on byte-mode genomes too (they pack on first
     * use).
     */
    WgaResult run_packed(const seq::Genome& target,
                         const seq::Genome& query,
                         ThreadPool* pool = nullptr,
                         obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * Bounded-memory large-genome run: packed storage as run_packed,
     * plus (a) sharded seeding — the target's seed table is built one
     * band shard at a time (seed/sharded_index.h), never whole; (b) the
     * hit channel and candidate buffer take `streaming`'s capacities
     * and spill to disk past them. Alignments and chains (the output)
     * are still materialized; strands run one after the other.
     *
     * Identity: alignments/chains/MAF are bit-identical to run() —
     * band sharding partitions D-SOFT's band space exactly and the
     * candidate drain reproduces sort_candidates order. Only
     * stats.seeding.seed_lookups grows (each shard re-scans the
     * query). Requires gapped filter mode, and
     * dsoft.max_hits_per_chunk == 0 when the target spans more than
     * one shard.
     *
     * Fixed buffer capacities are charged against the installed
     * fault::CancelToken heap budget once per strand; spilled bytes are
     * not charged (disk is the escape valve). Residency and spill
     * telemetry lands in the wga.heap.* gauge family.
     */
    WgaResult run_streaming(const seq::Genome& target,
                            const seq::Genome& query,
                            const StreamingParams& streaming,
                            ThreadPool* pool = nullptr,
                            obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * Like run, but seed from a caller-provided index over `target`
     * instead of building one — the persisted-index path
     * (darwin-wga-serve, the batch engine's shared-target cache).
     * `target` and `query` are flattened sequences in byte or 2-bit
     * storage; the index may be built from either storage of the same
     * bases. It must use this pipeline's seed pattern (FatalError
     * otherwise); given that, results are bit-identical to run, and
     * stats.seed_seconds excludes the build the caller amortized away.
     */
    WgaResult run_with_index(const seed::SeedIndex& index,
                             seq::BaseView target, seq::BaseView query,
                             ThreadPool* pool = nullptr,
                             obs::MetricsRegistry* metrics = nullptr) const;

    /**
     * The run every entry point above configures: each strand through
     * run_strand (both at once over an in-RAM run's pool), then the
     * chain. `target`/`query` are the flattened sequences in byte or
     * 2-bit storage. A spilling run also sets the wga.heap.* gauges.
     */
    WgaResult run_dataflow(const Dataflow& flow, seq::BaseView target,
                           seq::BaseView query) const;

  private:
    WgaParams params_;
    chain::ChainParams chain_params_;
};

/**
 * Publish a stats block into a registry under `<prefix>.*` names —
 * counters for the stage workload (seed lookups/hits/candidates, filter
 * tiles/cells/passed/dropped, extension anchors/tiles/terminations/
 * matched bases) and one histogram observation per non-zero stage
 * seconds. Counters add, so publishing per stage or per strand
 * accumulates to the run totals. run_strand publishes through it with
 * its Dataflow's prefix: "wga" for WgaPipeline, "batch" for the batch
 * engine's strand tasks.
 */
void publish_pipeline_stats(obs::MetricsRegistry& metrics,
                            const PipelineStats& stats,
                            const std::string& prefix = "wga");

/**
 * Set the wga.heap.* gauges from a finished spilling run's channel
 * stats (run_streaming, a batch --streaming pair): the fixed channel
 * windows charged to the heap budget, hits pushed and spilled, spill
 * episodes, candidates and spilled bytes, and the installed
 * CancelToken's charged bytes.
 */
void publish_heap_gauges(obs::MetricsRegistry& metrics,
                         const PipelineStats& stats);

/**
 * Publish which kernel implementation the filter and extension stages
 * dispatch to, as the `wga.filter.kernel` and `wga.extend.kernel`
 * gauges (id: 0 scalar, 1 sse42, 2 avx2, 3 avx512). Every WgaPipeline
 * entry point and the batch scheduler call this, so all runs report the
 * same set.
 */
void publish_kernel_gauges(obs::MetricsRegistry& metrics);

}  // namespace darwin::wga

#endif  // DARWIN_WGA_PIPELINE_H
