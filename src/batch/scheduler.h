/**
 * @file
 * Batch-alignment engine: many (target, query) pairs driven through
 * seed -> filter -> extend -> chain by one pool of workers.
 *
 * Each pair runs as a `prepare` task (acquire the target's seed index
 * from the shared cache, or plan its shards in streaming mode; arm the
 * budget) followed by one `strand` task per query strand. A strand
 * task runs the serial pipeline's strand driver, wga::run_strand, and
 * whichever strand task of the pair finishes last chains the pair
 * inline. Workers take strand tasks
 * before prepare tasks, so started pairs finish before new ones begin;
 * the forward and reverse strands of a pair can run on two workers at
 * once.
 *
 * Determinism: results are bit-identical to running each pair through
 * the serial WgaPipeline, because each strand runs the very driver
 * WgaPipeline::run does (without a pool, which its results do not
 * depend on), and the chain step concatenates forward alignments
 * before reverse ones as the serial pipeline does.
 *
 * Fault tolerance (see DESIGN.md "Fault tolerance & degradation"):
 * every pair runs under its own fault::CancelToken. An exception or
 * budget overrun in any stage fails only that pair — its remaining
 * tasks drain and are dropped while the rest of the batch proceeds. A
 * budget overrun earns one *degraded* retry (apply_degrade'd
 * parameters) before the pair is quarantined with a machine-readable
 * QuarantineRecord; a FatalError anywhere aborts the whole run, and
 * run() rethrows it with the pair id and stage attached. A
 * fault::request_shutdown() cancels every in-flight pair (status
 * Interrupted) so the CLI can checkpoint and exit.
 */
#ifndef DARWIN_BATCH_SCHEDULER_H
#define DARWIN_BATCH_SCHEDULER_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "batch/metrics.h"
#include "chain/chainer.h"
#include "fault/cancel.h"
#include "fault/degrade.h"
#include "fault/quarantine.h"
#include "seq/genome.h"
#include "wga/pipeline.h"

namespace darwin::index {
class IndexCache;
}

namespace darwin::batch {

/** The degrade policy is shared with the serve daemon's circuit
 *  breaker (fault/degrade.h); these aliases keep the historical
 *  batch:: spelling working. */
using DegradePolicy = fault::DegradePolicy;
using fault::apply_degrade;

/** One (target, query) alignment job of a batch manifest. */
struct BatchJob {
    std::string name;  ///< label used for outputs/metrics, e.g. "ce11-cb4"
    const seq::Genome* target = nullptr;
    const seq::Genome* query = nullptr;
};

/** Result for one manifest entry, in manifest order. */
struct BatchPairResult {
    std::string name;
    fault::PairStatus status = fault::PairStatus::Clean;
    /** Attempts consumed (2 when the degraded retry ran). */
    std::uint32_t attempts = 0;
    wga::WgaResult result;  ///< empty for quarantined/interrupted pairs
    /** Failure details; reason == None for clean pairs. */
    fault::QuarantineRecord quarantine;
};

/** Engine configuration. */
struct BatchOptions {
    wga::WgaParams params;
    chain::ChainParams chain_params;

    /** Worker threads; 0 means hardware_concurrency(). */
    std::size_t num_threads = 0;

    /** Per-pair budgets; default unlimited. The wall clock starts when
     *  the pair's first task begins executing, not when it is queued. */
    fault::Budget pair_budget;

    /** Give a budget-overrun pair one degraded retry before
     *  quarantining it. */
    bool degraded_retry = true;
    DegradePolicy degrade;

    /**
     * Bounded-memory mode: strand tasks run the configuration of
     * WgaPipeline::run_streaming — 2-bit packed storage, the seed
     * table built one band shard at a time, hits and candidates
     * through channels that spill to disk past `streaming_params` —
     * instead of byte storage with a cached index. Results stay
     * bit-identical (both modes reproduce the serial pipeline
     * exactly); what changes is the residency envelope: no
     * whole-target seed table, so the per-strand footprint is bounded
     * by `streaming_params` regardless of genome size, and each
     * finished pair sets the wga.heap.* gauges. Pair isolation,
     * budgets, degraded retries and quarantine work unchanged. The
     * shared index cache is bypassed — shard tables are transient by
     * design. Requires gapped filter params, and
     * dsoft.max_hits_per_chunk == 0 when the target spans more than
     * one shard (FatalError otherwise).
     */
    bool streaming = false;
    wga::StreamingParams streaming_params;

    /**
     * Optional shared seed-index cache. When set (e.g. by a daemon that
     * also serves one-shot queries), the engine acquires target indexes
     * from it; when null, the engine uses a run-local cache with one
     * entry per worker thread, so at most that many finished targets'
     * tables stay resident. Either way, pairs sharing a target (by
     * sequence digest) reuse a resident index instead of rebuilding it
     * — saved rebuilds surface as the "batch.index.cache_hits" counter,
     * the resident count as the "batch.index.cache_size" gauge.
     */
    index::IndexCache* index_cache = nullptr;

    /**
     * Called once per pair, from a worker thread, the moment the pair
     * reaches a terminal status — so the runner can stream outputs and
     * journal entries instead of waiting for the whole batch. The
     * referenced result is the same object later returned by run().
     * A FatalError thrown by the callback aborts the run.
     */
    std::function<void(const BatchPairResult&)> on_pair_complete;
};

/** The batch engine. Construct once, run() one manifest at a time. */
class BatchScheduler {
  public:
    /**
     * @param metrics Optional registry for per-stage counters, queue
     *        depths, and latency histograms ("batch.*" names); pass
     *        nullptr to run unmetered (an internal registry is used).
     */
    explicit BatchScheduler(BatchOptions options,
                            MetricsRegistry* metrics = nullptr);

    const BatchOptions& options() const { return options_; }

    /**
     * Run every job in the manifest and return per-pair results in
     * manifest order. Jobs may share Genome objects (their flattened
     * forms are materialized up front, before workers start). Per-pair
     * failures never throw — they surface as PairStatus in the results;
     * only a FatalError (annotated with pair and stage when one was
     * active) propagates, after the pipeline shuts down cleanly.
     */
    std::vector<BatchPairResult> run(const std::vector<BatchJob>& jobs);

  private:
    BatchOptions options_;
    MetricsRegistry* metrics_;
    MetricsRegistry fallback_metrics_;
};

}  // namespace darwin::batch

#endif  // DARWIN_BATCH_SCHEDULER_H
