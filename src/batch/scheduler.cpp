#include "batch/scheduler.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_map>

#include "fault/fault_plan.h"
#include "index/index_cache.h"
#include "index/index_io.h"
#include "obs/trace.h"
#include "seed/seed_index.h"
#include "seed/sharded_index.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"
#include "util/work_queue.h"

namespace darwin::batch {

namespace {

/** Work items: a pair's prepare step, then one task per strand. */
struct PrepareTask {
    std::size_t pair = 0;
};
struct StrandTask {
    std::size_t pair = 0;
    std::size_t strand = 0;  ///< 0 forward, 1 reverse complement
};

/** Everything the engine tracks for one manifest entry. */
struct PairState {
    const BatchJob* job = nullptr;
    std::size_t pair_index = 0;
    /** This pair's parameters — a copy of the run's params that the
     *  degraded retry narrows. Stages reference it, so it only changes
     *  between attempts (when no task of the pair is running). */
    wga::WgaParams params;
    /** Borrowed from the engine's index cache; pairs sharing a target
     *  (same sequence digest) point at the same table. */
    std::shared_ptr<const seed::SeedIndex> index;
    /** Streaming mode: builds the pair's shard tables one at a time. */
    std::unique_ptr<seed::ShardedSeedIndexBuilder> shards;
    /** Per-strand alignments, concatenated forward-first at chain. */
    std::array<std::vector<align::Alignment>, 2> strand_alignments;
    std::atomic<std::size_t> strands_remaining{1};
    std::mutex stats_mutex;
    wga::WgaResult result;

    // --- fault-tolerance state ---
    fault::CancelToken token;
    /** Tasks enqueued but not yet finished (incremented before every
     *  push, decremented when the task completes or is dropped). A
     *  failed pair settles — retries or quarantines — only when this
     *  drains to zero, so no stale task of the old attempt can touch
     *  the new attempt's state. */
    std::atomic<std::size_t> inflight{0};
    std::atomic<bool> failed{false};
    std::atomic<bool> terminal{false};
    std::mutex fail_mutex;
    std::string fail_stage;
    fault::FailReason fail_reason = fault::FailReason::None;
    std::string fail_message;
    std::uint32_t attempts = 0;
    bool degraded = false;
    double work_seconds = 0.0;  ///< guarded by stats_mutex
    BatchPairResult out;        ///< filled at finalize
};

/** Name the stage a task is entering (what a failure is attributed
 *  to), then poll its `batch.<stage>` probe. */
void
enter_stage(const char*& current, const char* stage, const char* probe)
{
    current = stage;
    fault::poll(probe);
}

/** The batch engine for one run() invocation. */
class Engine {
  public:
    Engine(const BatchOptions& options, MetricsRegistry& metrics,
           const std::vector<BatchJob>& jobs)
        : options_(options), metrics_(metrics), jobs_(jobs),
          // Room for every task a pair can have queued at once — one
          // prepare, or one task per strand — so a push never fails.
          prepare_queue_(std::max<std::size_t>(jobs.size(), 1)),
          strand_queue_(std::max<std::size_t>(2 * jobs.size(), 1)),
          pairs_remaining_(jobs.size())
    {
        if (options_.index_cache != nullptr) {
            cache_ = options_.index_cache;
        } else {
            // Run-local cache: one entry per pair that can be in flight
            // (the worker count), so a finished target's table is freed
            // once newer targets push it out; a pair that needs it again
            // rebuilds it in milliseconds. Metrics are published by the
            // engine itself (batch.index.*), so the cache runs unmetered.
            owned_cache_ = std::make_unique<index::IndexCache>(
                std::min(worker_count(), std::max<std::size_t>(jobs.size(),
                                                               1)));
            cache_ = owned_cache_.get();
        }
        pairs_.reserve(jobs.size());
        for (std::size_t p = 0; p < jobs_.size(); ++p) {
            auto pair = std::make_unique<PairState>();
            pair->job = &jobs_[p];
            pair->pair_index = p;
            pair->params = options_.params;
            pairs_.push_back(std::move(pair));
        }
    }

    std::vector<BatchPairResult>
    run()
    {
        if (jobs_.empty())
            return {};
        // Materialize lazily-built flattened genomes on this thread:
        // jobs may share Genome objects, and Genome::flattened() is not
        // safe to first-build concurrently.
        for (const BatchJob& job : jobs_) {
            require(job.target != nullptr && job.query != nullptr,
                    "batch: job missing target/query genome");
            if (options_.streaming) {
                // Streaming pairs read packed storage only, and build
                // their (transient, sharded) seed tables per pair — no
                // byte caches, no cache digests.
                job.target->flattened_packed();
                job.query->flattened_packed();
                continue;
            }
            job.target->flattened();
            job.query->flattened();
            // Digest each distinct target once: the cache key that lets
            // pairs sharing a target share one seed index.
            if (!target_digests_.contains(job.target))
                target_digests_.emplace(
                    job.target,
                    index::sequence_digest(job.target->flattened()));
        }
        metrics_.counter("batch.pairs").add(jobs_.size());
        // The same kernel gauges the serial pipeline publishes, so
        // batch and serial runs stay comparable.
        wga::publish_kernel_gauges(metrics_);

        for (std::size_t p = 0; p < jobs_.size(); ++p)
            enqueue(prepare_queue_, PrepareTask{p}, "prepare");

        const std::size_t num_workers = worker_count();
        std::vector<std::thread> workers;
        workers.reserve(num_workers);
        for (std::size_t w = 0; w < num_workers; ++w)
            workers.emplace_back([this] { worker_loop(); });
        for (auto& worker : workers)
            worker.join();

        // The run is over: both queues are drained (or abandoned on a
        // fatal abort), so the depth gauges must read zero again.
        for (const char* queue : {"prepare", "strand"})
            metrics_.gauge(strprintf("batch.queue.%s.depth", queue)).set(0);

        if (fatal_)
            std::rethrow_exception(fatal_);

        std::vector<BatchPairResult> out;
        out.reserve(pairs_.size());
        for (auto& pair : pairs_)
            out.push_back(std::move(pair->out));
        return out;
    }

  private:
    /** Worker threads run() starts: num_threads, or one per hardware
     *  thread when that is 0. */
    std::size_t
    worker_count() const
    {
        if (options_.num_threads != 0)
            return options_.num_threads;
        return std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }

    /** Register a task with its pair's inflight count, then push. The
     *  increment happens before the push so the pair can never settle
     *  (retry/quarantine) while this task is still queued. */
    template <typename Task>
    void
    enqueue(WorkQueue<Task>& queue, Task task, const char* name)
    {
        pairs_[task.pair]->inflight.fetch_add(1, std::memory_order_acq_rel);
        const bool pushed = queue.try_push(task);
        require(pushed, "batch: task queue overflow");
        publish_depth(name, queue);
        wake_.notify_one();
    }

    template <typename Task>
    void
    publish_depth(const char* name, const WorkQueue<Task>& queue)
    {
        metrics_.gauge(strprintf("batch.queue.%s.depth", name))
            .set(static_cast<std::int64_t>(queue.size()));
    }

    void
    worker_loop()
    {
        while (!done_.load(std::memory_order_acquire)) {
            if (fault::shutdown_requested())
                handle_shutdown();
            if (run_one())
                continue;
            // Timed wait: a plain wait could miss a notify that raced
            // with the queue polls; 1ms bounds the idle-retry latency.
            std::unique_lock<std::mutex> lock(wake_mutex_);
            wake_.wait_for(lock, std::chrono::milliseconds(1));
        }
    }

    /** Run one task, strand tasks before prepare tasks, so pairs
     *  already started finish before new ones begin. False when both
     *  queues are empty (work may still be in flight on other
     *  workers). */
    bool
    run_one()
    {
        if (auto task = strand_queue_.try_pop()) {
            publish_depth("strand", strand_queue_);
            run_pair_task(task->pair, "seed", "batch.seed", false,
                          [&](const char*& stage) { do_strand(*task, stage); });
            return true;
        }
        if (auto task = prepare_queue_.try_pop()) {
            publish_depth("prepare", prepare_queue_);
            run_pair_task(task->pair, "prepare", "batch.prepare", true,
                          [&](const char*&) { do_prepare(*task); });
            return true;
        }
        return false;
    }

    /**
     * The per-pair isolation boundary every task runs inside. The
     * pair's CancelToken is installed for the calling thread (so kernel
     * probes charge and poll it), and the exception ladder routes each
     * failure class: FatalError aborts the whole run with pair+stage
     * context, everything else fails only this pair. The task starts in
     * `stage` (after polling `probe`); `fn` moves it on to later stages
     * through its `const char*&` argument (enter_stage), so a failure is
     * attributed to the stage that raised it. Tasks of an already-failed
     * pair are dropped here, which is how a poisoned pair's queued work
     * drains without executing.
     */
    template <typename Fn>
    void
    run_pair_task(std::size_t idx, const char* stage, const char* probe,
                  bool first_task_of_attempt, Fn&& fn)
    {
        PairState& pair = *pairs_[idx];
        if (fault::shutdown_requested()) {
            handle_shutdown();
            fail_pair(idx, stage, fault::FailReason::Interrupted,
                      "run interrupted by shutdown request");
        }
        if (pair.failed.load(std::memory_order_acquire) ||
            pair.terminal.load(std::memory_order_acquire)) {
            task_done(pair);
            return;
        }
        if (first_task_of_attempt) {
            // Arm here — when the pair *starts executing* — so pairs
            // queued behind a deep manifest don't burn wall budget
            // while waiting.
            pair.token.arm(options_.pair_budget);
            ++pair.attempts;
        }
        Timer timer;
        fault::ContextScope scope(&pair.token, idx);
        try {
            fault::poll(probe);
            fn(stage);
        } catch (const FatalError&) {
            fatal_abort(idx, stage, std::current_exception());
            return;
        } catch (const fault::CancelledError& error) {
            fail_pair(idx, stage,
                      fault::fail_reason_from_cancel(error.reason()),
                      error.what());
        } catch (const fault::InjectedFault& error) {
            fail_pair(idx, stage, fault::FailReason::Injected, error.what());
        } catch (const std::bad_alloc& error) {
            fail_pair(idx, stage, fault::FailReason::OutOfMemory,
                      error.what());
        } catch (const std::exception& error) {
            fail_pair(idx, stage, fault::FailReason::Exception, error.what());
        }
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.work_seconds += timer.seconds();
        }
        task_done(pair);
    }

    /** First failure wins; later failures of the same pair are noise
     *  from tasks that were already in flight. */
    void
    fail_pair(std::size_t idx, const char* stage, fault::FailReason reason,
              const std::string& message)
    {
        PairState& pair = *pairs_[idx];
        std::lock_guard<std::mutex> lock(pair.fail_mutex);
        if (pair.terminal.load(std::memory_order_acquire) ||
            pair.failed.load(std::memory_order_acquire))
            return;
        pair.fail_stage = stage;
        pair.fail_reason = reason;
        pair.fail_message = message;
        pair.failed.store(true, std::memory_order_release);
        // Stop the pair's other in-flight tasks at their next poll.
        pair.token.cancel(fault::CancelReason::External);
        if (reason == fault::FailReason::Injected)
            metrics_.counter("batch.fault.injected").add(1);
        if (fault::is_budget_overrun(reason))
            metrics_.counter("batch.fault.budget_overruns").add(1);
    }

    void
    task_done(PairState& pair)
    {
        if (pair.inflight.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            pair.failed.load(std::memory_order_acquire) &&
            !done_.load(std::memory_order_acquire))
            settle_failed(pair);
    }

    /** All tasks of a failed pair have drained: decide its fate. Runs
     *  on exactly one thread (the one that drained the last task). */
    void
    settle_failed(PairState& pair)
    {
        if (pair.terminal.load(std::memory_order_acquire))
            return;
        if (pair.fail_reason == fault::FailReason::Interrupted) {
            finalize_pair(pair, fault::PairStatus::Interrupted);
            return;
        }
        if (fault::is_budget_overrun(pair.fail_reason) &&
            options_.degraded_retry && !pair.degraded) {
            restart_degraded(pair);
            return;
        }
        quarantine_pair(pair);
    }

    void
    restart_degraded(PairState& pair)
    {
        obs::ScopedSpan span("degraded_retry", "batch.fault");
        span.arg("pair", static_cast<std::int64_t>(pair.pair_index));
        metrics_.counter("batch.fault.retries").add(1);
        warn(strprintf("batch: pair '%s' hit its %s budget in the %s "
                       "stage; retrying with degraded parameters",
                       pair.job->name.c_str(),
                       fault::fail_reason_name(pair.fail_reason),
                       pair.fail_stage.c_str()));
        pair.degraded = true;
        pair.params = apply_degrade(options_.params, options_.degrade);
        // A per-chunk hit cap is defined over whole query chunks, which
        // band sharding splits, so streaming retries drop it; the band
        // and ydrop degrades still bound the retry's work.
        if (options_.streaming)
            pair.params.dsoft.max_hits_per_chunk = 0;
        // Reset everything the failed attempt touched. No other task of
        // this pair exists (inflight == 0), so plain writes are safe.
        pair.result = wga::WgaResult{};
        pair.index.reset();
        pair.shards.reset();
        for (auto& alignments : pair.strand_alignments)
            alignments.clear();
        pair.failed.store(false, std::memory_order_release);
        enqueue(prepare_queue_, PrepareTask{pair.pair_index}, "prepare");
    }

    void
    quarantine_pair(PairState& pair)
    {
        obs::ScopedSpan span("quarantine", "batch.fault");
        span.arg("pair", static_cast<std::int64_t>(pair.pair_index));
        fault::QuarantineRecord record;
        record.pair_index = pair.pair_index;
        record.name = pair.job->name;
        record.stage = pair.fail_stage;
        record.reason = pair.fail_reason;
        record.message = pair.fail_message;
        record.attempts = pair.attempts;
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            record.elapsed_seconds = pair.work_seconds;
        }
        record.cells_charged = pair.token.cells_charged();
        record.heap_bytes_charged = pair.token.heap_bytes_charged();
        pair.out.quarantine = record;
        warn(strprintf("batch: quarantined pair '%s' (%s in the %s stage "
                       "after %u attempt%s): %s",
                       record.name.c_str(),
                       fault::fail_reason_name(record.reason),
                       record.stage.c_str(), record.attempts,
                       record.attempts == 1 ? "" : "s",
                       record.message.c_str()));
        finalize_pair(pair, fault::PairStatus::Quarantined);
    }

    /** The single exit point to a terminal status: fills the pair's
     *  BatchPairResult, bumps the reconciliation counters, streams the
     *  result to the runner's callback, and retires the pair. */
    void
    finalize_pair(PairState& pair, fault::PairStatus status)
    {
        if (pair.terminal.exchange(true, std::memory_order_acq_rel))
            return;
        pair.out.name = pair.job->name;
        pair.out.status = status;
        pair.out.attempts = pair.attempts;
        if (status == fault::PairStatus::Clean ||
            status == fault::PairStatus::Degraded)
            pair.out.result = std::move(pair.result);
        // No task of the pair runs any more: drop its borrow of the
        // seed index (the cache decides whether the table stays) and
        // its shard builder.
        pair.index.reset();
        pair.shards.reset();
        if (status == fault::PairStatus::Interrupted) {
            pair.out.quarantine.pair_index = pair.pair_index;
            pair.out.quarantine.name = pair.job->name;
            pair.out.quarantine.stage = pair.fail_stage;
            pair.out.quarantine.reason = fault::FailReason::Interrupted;
            pair.out.quarantine.message = pair.fail_message;
            pair.out.quarantine.attempts = pair.attempts;
        }
        metrics_
            .counter(strprintf("batch.fault.%s",
                               fault::pair_status_name(status)))
            .add(1);
        metrics_.counter("batch.pairs_completed").add(1);
        if (options_.on_pair_complete) {
            try {
                options_.on_pair_complete(pair.out);
            } catch (...) {
                fatal_abort(pair.pair_index, "on_pair_complete",
                            std::current_exception());
                return;
            }
        }
        if (pairs_remaining_.fetch_sub(1) == 1) {
            done_.store(true, std::memory_order_release);
            wake_.notify_all();
        }
    }

    /** A FatalError escapes pair isolation and aborts the run; run()
     *  rethrows it with the pair and stage attached. */
    void
    fatal_abort(std::size_t idx, const char* stage,
                std::exception_ptr error)
    {
        {
            std::lock_guard<std::mutex> lock(fatal_mutex_);
            if (!fatal_) {
                try {
                    std::rethrow_exception(error);
                } catch (const FatalError& fatal_error) {
                    fatal_ = std::make_exception_ptr(FatalError(strprintf(
                        "pair '%s' (%s stage): %s",
                        jobs_[idx].name.c_str(), stage,
                        fatal_error.what())));
                } catch (...) {
                    fatal_ = std::current_exception();
                }
            }
        }
        done_.store(true, std::memory_order_release);
        wake_.notify_all();
    }

    /** First sighting of the process shutdown flag: cancel every live
     *  pair so in-flight kernels stop at their next poll. Queued tasks
     *  of those pairs then drain as drops and each pair finalizes as
     *  Interrupted — which is what lets the runner flush a consistent
     *  checkpoint before exiting. */
    void
    handle_shutdown()
    {
        if (shutdown_handled_.exchange(true, std::memory_order_acq_rel))
            return;
        inform("batch: shutdown requested; cancelling in-flight pairs");
        for (std::size_t p = 0; p < pairs_.size(); ++p) {
            if (!pairs_[p]->terminal.load(std::memory_order_acquire))
                fail_pair(p, "shutdown", fault::FailReason::Interrupted,
                          "run interrupted by shutdown request");
        }
    }

    void
    do_prepare(const PrepareTask& task)
    {
        Timer timer;
        obs::ScopedSpan span("prepare", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        PairState& pair = *pairs_[task.pair];
        const wga::WgaParams& params = pair.params;
        const seed::SeedPattern pattern(params.seed_pattern);

        if (options_.streaming) {
            // Streaming pairs build their shard tables one at a time
            // inside each strand task; the global truncation pass runs
            // here, once per pair. The shared cache is bypassed: shard
            // tables are transient by design.
            pair.shards = std::make_unique<seed::ShardedSeedIndexBuilder>(
                pair.job->target->flattened_packed(), pattern,
                seed::SeedIndex::kDefaultMaxBucket,
                options_.streaming_params.shard_bp, params.dsoft.chunk_size,
                params.dsoft.bin_size);
        } else {
            // Acquire the target's index from the cache: the first pair
            // of a target builds it, the rest (and the degraded retry,
            // which leaves the seed shape untouched) reuse it.
            const seq::Sequence& target = pair.job->target->flattened();
            const index::IndexKey key{target_digests_.at(pair.job->target),
                                      params.seed_pattern,
                                      seed::SeedIndex::kDefaultMaxBucket};
            bool built = false;
            pair.index = cache_->acquire(
                key,
                [&] {
                    return std::make_shared<const seed::SeedIndex>(target,
                                                                   pattern);
                },
                &built);
            if (!built)
                metrics_.counter("batch.index.cache_hits").add(1);
            metrics_.gauge("batch.index.cache_size")
                .set(static_cast<std::int64_t>(cache_->size()));
        }

        const std::size_t num_strands = params.align_both_strands ? 2 : 1;
        pair.strands_remaining.store(num_strands);
        {
            // Index construction is the serial pipeline's up-front
            // seed_seconds; account it the same way.
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.seed_seconds += timer.seconds();
        }
        metrics_.histogram("batch.prepare.seconds").observe(timer.seconds());

        for (std::size_t s = 0; s < num_strands; ++s)
            enqueue(strand_queue_, StrandTask{task.pair, s}, "strand");
    }

    /**
     * One strand of a pair: wga::run_strand — the serial pipeline's
     * strand driver — on this worker, so the strand's alignments are
     * the serial ones by construction. In-RAM pairs read bytes through
     * the cached index; streaming pairs read 2-bit storage through
     * the pair's shard builder and spill. Stage workload goes out as
     * batch.* through the driver. Whichever strand task of the pair
     * finishes last runs the chain step.
     */
    void
    do_strand(const StrandTask& task, const char*& stage)
    {
        obs::ScopedSpan span("strand", "batch");
        span.arg("pair", static_cast<std::int64_t>(task.pair));
        span.arg("strand", static_cast<std::int64_t>(task.strand));
        PairState& pair = *pairs_[task.pair];
        const bool streaming = options_.streaming;
        const auto bases = [streaming](const seq::Genome& genome) {
            return streaming ? seq::BaseView(genome.flattened_packed())
                             : seq::BaseView(genome.flattened());
        };
        wga::Dataflow flow;
        flow.index = pair.index.get();
        flow.shards = pair.shards.get();
        if (streaming)
            flow.overflow = wga::OverflowPolicy::Spill;
        flow.capacities = options_.streaming_params;
        flow.metrics = &metrics_;
        flow.prefix = "batch";
        wga::PipelineStats local;
        // "seed" was entered (and batch.seed polled) by run_pair_task.
        pair.strand_alignments[task.strand] = wga::run_strand(
            pair.params, flow, bases(*pair.job->target),
            bases(*pair.job->query),
            task.strand == 0 ? align::Strand::Forward
                             : align::Strand::Reverse,
            &local, &stage);
        metrics_.counter("batch.strand.tasks").add(1);
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.merge(local);
        }

        if (pair.strands_remaining.fetch_sub(1) == 1) {
            enter_stage(stage, "chain", "batch.chain");
            chain_pair(pair);
        }
    }

    void
    chain_pair(PairState& pair)
    {
        Timer timer;
        obs::ScopedSpan span("chain", "batch");
        span.arg("pair", static_cast<std::int64_t>(pair.pair_index));
        // Forward alignments first, then reverse — the serial
        // pipeline's concatenation order, which the chainer sees.
        for (auto& alignments : pair.strand_alignments) {
            pair.result.alignments.insert(
                pair.result.alignments.end(),
                std::make_move_iterator(alignments.begin()),
                std::make_move_iterator(alignments.end()));
            alignments.clear();
        }
        pair.result.chains = chain::chain_alignments(
            pair.result.alignments, options_.chain_params);
        {
            std::lock_guard<std::mutex> lock(pair.stats_mutex);
            pair.result.stats.chain_seconds += timer.seconds();
        }
        metrics_.counter("batch.chain.tasks").add(1);
        metrics_.counter("batch.chains").add(pair.result.chains.size());
        metrics_.histogram("batch.chain.seconds").observe(timer.seconds());
        if (options_.streaming)
            wga::publish_heap_gauges(metrics_, pair.result.stats);

        finalize_pair(pair, pair.degraded ? fault::PairStatus::Degraded
                                          : fault::PairStatus::Clean);
    }

    const BatchOptions& options_;
    MetricsRegistry& metrics_;
    const std::vector<BatchJob>& jobs_;
    std::vector<std::unique_ptr<PairState>> pairs_;
    std::unique_ptr<index::IndexCache> owned_cache_;
    index::IndexCache* cache_ = nullptr;
    std::unordered_map<const seq::Genome*, std::uint64_t> target_digests_;

    WorkQueue<PrepareTask> prepare_queue_;
    WorkQueue<StrandTask> strand_queue_;

    std::atomic<std::size_t> pairs_remaining_;
    std::atomic<bool> done_{false};
    std::atomic<bool> shutdown_handled_{false};
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    std::mutex fatal_mutex_;
    std::exception_ptr fatal_;
};

}  // namespace

BatchScheduler::BatchScheduler(BatchOptions options, MetricsRegistry* metrics)
    : options_(std::move(options)),
      metrics_(metrics != nullptr ? metrics : &fallback_metrics_)
{
}

std::vector<BatchPairResult>
BatchScheduler::run(const std::vector<BatchJob>& jobs)
{
    Engine engine(options_, *metrics_, jobs);
    return engine.run();
}

}  // namespace darwin::batch
