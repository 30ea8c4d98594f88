/**
 * @file
 * Tests for the observability subsystem (src/obs/) and structured
 * logging: empty-histogram NaN semantics, DARWIN_LOG parsing, trace
 * JSON round-trip with span nesting and thread attribution, registry
 * snapshot consistency under concurrent writers, the JSON log sink, the
 * hw-model metric publisher, and — the load-bearing property — that
 * instrumenting the serial pipeline does not change its results.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "hw/perf_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/species.h"
#include "util/logging.h"
#include "wga/pipeline.h"
#include "test_temp_dir.h"

namespace darwin::obs {
namespace {

TEST(Histogram, EmptyHasNaNExtremaAndQuantiles)
{
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
    EXPECT_TRUE(std::isnan(hist.min()));
    EXPECT_TRUE(std::isnan(hist.max()));
    EXPECT_TRUE(std::isnan(hist.quantile(0.0)));
    EXPECT_TRUE(std::isnan(hist.quantile(0.5)));
    EXPECT_TRUE(std::isnan(hist.quantile(1.0)));
}

TEST(Histogram, SingleSampleCollapsesAllStatistics)
{
    Histogram hist;
    hist.observe(3.25);
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_DOUBLE_EQ(hist.sum(), 3.25);
    EXPECT_DOUBLE_EQ(hist.mean(), 3.25);
    EXPECT_DOUBLE_EQ(hist.min(), 3.25);
    EXPECT_DOUBLE_EQ(hist.max(), 3.25);
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), 3.25);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 3.25);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 3.25);
}

TEST(Metrics, EmptyHistogramDumpsNullNotNaN)
{
    MetricsRegistry registry;
    registry.histogram("empty.hist");
    const std::string json = registry.to_json();
    EXPECT_NE(json.find("\"min\": null"), std::string::npos);
    EXPECT_NE(json.find("\"p50\": null"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Metrics, FindAccessorsDoNotCreate)
{
    MetricsRegistry registry;
    EXPECT_EQ(registry.find_counter("never.made"), nullptr);
    EXPECT_EQ(registry.find_gauge("never.made"), nullptr);
    EXPECT_EQ(registry.find_histogram("never.made"), nullptr);
    registry.counter("made").add(2);
    ASSERT_NE(registry.find_counter("made"), nullptr);
    EXPECT_EQ(registry.find_counter("made")->value(), 2u);
    EXPECT_EQ(registry.find_histogram("made"), nullptr);
}

TEST(Metrics, GaugeSnapshotFiltersByPrefix)
{
    MetricsRegistry registry;
    registry.gauge("batch.queue.seed.depth").set(3);
    registry.gauge("batch.queue.filter.depth").set(5);
    registry.gauge("batch.inflight").set(9);
    const auto queues = registry.gauge_snapshot("batch.queue.");
    ASSERT_EQ(queues.size(), 2u);
    // Name order.
    EXPECT_EQ(queues[0].first, "batch.queue.filter.depth");
    EXPECT_EQ(queues[0].second, 5);
    EXPECT_EQ(queues[1].first, "batch.queue.seed.depth");
    EXPECT_EQ(queues[1].second, 3);
    EXPECT_EQ(registry.gauge_snapshot().size(), 3u);
}

TEST(Metrics, SnapshotConsistentUnderConcurrentWriters)
{
    MetricsRegistry registry;
    constexpr int kWriters = 4;
    constexpr int kIterations = 5'000;
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&registry, t] {
            Counter& counter = registry.counter("obs.count");
            Gauge& gauge =
                registry.gauge("obs.queue." + std::to_string(t));
            Histogram& hist =
                registry.histogram("obs.lat." + std::to_string(t));
            for (int i = 1; i <= kIterations; ++i) {
                counter.add(1);
                gauge.set(i);
                hist.observe(1.0);
            }
        });
    }
    // Reader races dumps against the writers: every dump must be
    // structurally whole (all three sections present, no crash).
    for (int i = 0; i < 25; ++i) {
        const std::string json = registry.to_json();
        EXPECT_NE(json.find("\"counters\""), std::string::npos);
        EXPECT_NE(json.find("\"gauges\""), std::string::npos);
        EXPECT_NE(json.find("\"histograms\""), std::string::npos);
        (void)registry.gauge_snapshot("obs.queue.");
    }
    for (auto& writer : writers)
        writer.join();
    // Final state is exact: no update was lost.
    EXPECT_EQ(registry.counter("obs.count").value(),
              static_cast<std::uint64_t>(kWriters) * kIterations);
    for (int t = 0; t < kWriters; ++t) {
        EXPECT_EQ(registry.gauge("obs.queue." + std::to_string(t)).value(),
                  kIterations);
        Histogram& hist = registry.histogram("obs.lat." + std::to_string(t));
        EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kIterations));
        EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(kIterations));
    }
}

TEST(Logging, ParseLogLevel)
{
    EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
    EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
    EXPECT_EQ(parse_log_level("INFO"), LogLevel::Info);
    EXPECT_EQ(parse_log_level("Warn"), LogLevel::Warn);
    EXPECT_EQ(parse_log_level("warning"), LogLevel::Warn);
    EXPECT_EQ(parse_log_level("ERROR"), LogLevel::Error);
    EXPECT_FALSE(parse_log_level("verbose").has_value());
    EXPECT_FALSE(parse_log_level("").has_value());
    EXPECT_FALSE(parse_log_level("warn ").has_value());
}

TEST(Logging, DarwinLogEnvironmentSetsThreshold)
{
    const LogLevel before = log_level();
    ::setenv("DARWIN_LOG", "error", 1);
    init_log_level_from_env();
    EXPECT_EQ(log_level(), LogLevel::Error);

    // Unrecognized and unset values leave the threshold unchanged.
    ::setenv("DARWIN_LOG", "not-a-level", 1);
    init_log_level_from_env();
    EXPECT_EQ(log_level(), LogLevel::Error);
    ::unsetenv("DARWIN_LOG");
    init_log_level_from_env();
    EXPECT_EQ(log_level(), LogLevel::Error);

    ::setenv("DARWIN_LOG", "DEBUG", 1);
    init_log_level_from_env();
    EXPECT_EQ(log_level(), LogLevel::Debug);

    ::unsetenv("DARWIN_LOG");
    set_log_level(before);
}

TEST(Logging, JsonLinesSinkWritesOneObjectPerLine)
{
    const std::string path = testing::temp_path("log.jsonl");
    const LogLevel before = log_level();
    set_log_level(LogLevel::Info);
    add_log_sink(std::make_shared<JsonLinesSink>(path));
    inform("batch started", {{"pairs", "8"}, {"threads", "4"}});
    warn("queue \"deep\"");
    clear_log_sinks();
    set_log_level(before);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"level\": \"info\""), std::string::npos);
    EXPECT_NE(line.find("\"msg\": \"batch started\""), std::string::npos);
    EXPECT_NE(line.find("\"pairs\": \"8\""), std::string::npos);
    EXPECT_NE(line.find("\"threads\": \"4\""), std::string::npos);
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"level\": \"warn\""), std::string::npos);
    // The quotes in the message were escaped.
    EXPECT_NE(line.find("queue \\\"deep\\\""), std::string::npos);
}

TEST(Trace, SpansAreInertWithoutInstalledSession)
{
    ASSERT_EQ(TraceSession::current(), nullptr);
    ScopedSpan span("seed", "wga");
    span.arg("hits", 1);  // must be a safe no-op
}

TEST(Trace, ManualSpanMovesAndEndsOnce)
{
    TraceSession session;
    auto span = ManualSpan::begin(&session, "extend", "batch");
    ManualSpan moved = std::move(span);
    moved.arg("pair", 3);
    moved.end();
    moved.end();  // idempotent
    const auto events = session.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "extend");
    EXPECT_EQ(events[0].category, "batch");
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].key, "pair");
    EXPECT_EQ(events[0].args[0].value, 3);
}

TEST(Trace, RoundTripPreservesNestingAndThreadAttribution)
{
    TraceSession session;
    TraceSession::install(&session);
    {
        ScopedSpan outer("pipeline", "wga");
        ScopedSpan inner("seed", "wga");
        inner.arg("hits", 42);
    }
    std::thread worker([] {
        ScopedSpan span("filter", "batch");
        span.arg("shard", 7);
    });
    worker.join();
    TraceSession::install(nullptr);

    const std::string json = session.to_json();
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);

    const auto events = parse_trace_events(json);
    ASSERT_EQ(events.size(), 3u);
    const auto find = [&events](const std::string& name) {
        for (const auto& event : events)
            if (event.name == name)
                return event;
        ADD_FAILURE() << "missing span " << name;
        return TraceEvent{};
    };
    const auto pipeline = find("pipeline");
    const auto seed = find("seed");
    const auto filter = find("filter");

    // The inner span nests inside the outer one, on the same thread.
    EXPECT_GE(seed.start_us, pipeline.start_us);
    EXPECT_LE(seed.start_us + seed.duration_us,
              pipeline.start_us + pipeline.duration_us);
    EXPECT_EQ(seed.tid, pipeline.tid);
    // The worker-thread span is attributed to a different thread.
    EXPECT_NE(filter.tid, pipeline.tid);

    // Categories and args survive the round trip.
    EXPECT_EQ(pipeline.category, "wga");
    EXPECT_EQ(filter.category, "batch");
    ASSERT_EQ(seed.args.size(), 1u);
    EXPECT_EQ(seed.args[0].key, "hits");
    EXPECT_EQ(seed.args[0].value, 42);
    ASSERT_EQ(filter.args.size(), 1u);
    EXPECT_EQ(filter.args[0].value, 7);
}

TEST(HwMetrics, DeviceEstimatePublishesCyclesAndTraffic)
{
    hw::WorkloadCounts workload;
    workload.filter_tiles = 1'000;
    workload.extension_tiles = 10;
    workload.extension.tiles = 10;
    workload.extension.stripes = 500;
    workload.extension.stripe_columns = 50'000;
    workload.extension.traceback_ops = 2'000;
    const hw::PerfModel model(hw::DeviceConfig::asic_40nm());
    const auto estimate = model.estimate(workload);
    EXPECT_GT(estimate.filter.cycles, 0u);
    EXPECT_GT(estimate.filter.dram_bytes, 0u);
    EXPECT_GT(estimate.extension.cycles, 0u);
    EXPECT_GT(estimate.extension.dram_bytes, 0u);

    MetricsRegistry registry;
    hw::publish_device_estimate(registry, estimate);
    EXPECT_EQ(registry.counter("hw.filter.cycles").value(),
              estimate.filter.cycles);
    EXPECT_EQ(registry.counter("hw.filter.dram_bytes").value(),
              estimate.filter.dram_bytes);
    EXPECT_EQ(registry.counter("hw.extend.cycles").value(),
              estimate.extension.cycles);
    EXPECT_EQ(registry.counter("hw.extend.dram_bytes").value(),
              estimate.extension.dram_bytes);
    EXPECT_GE(registry.gauge("hw.total.micros").value(), 0);
}

TEST(PipelineObservability, MetricsAndTraceDoNotChangeResults)
{
    synth::AncestorConfig shape;
    shape.num_chromosomes = 1;
    shape.chromosome_length = 12'000;
    shape.exons_per_chromosome = 5;
    const auto pair = synth::make_species_pair(
        synth::paper_species_pairs().front(), shape, 7);

    const wga::WgaPipeline pipeline(wga::WgaParams::darwin_defaults());
    const auto plain =
        pipeline.run(pair.target.genome, pair.query.genome);

    MetricsRegistry metrics;
    TraceSession session;
    TraceSession::install(&session);
    const auto observed = pipeline.run(pair.target.genome,
                                       pair.query.genome, nullptr, &metrics);
    TraceSession::install(nullptr);

    // Bit-identical output with observability on.
    ASSERT_EQ(plain.alignments.size(), observed.alignments.size());
    for (std::size_t i = 0; i < plain.alignments.size(); ++i) {
        EXPECT_EQ(plain.alignments[i].target_start,
                  observed.alignments[i].target_start);
        EXPECT_EQ(plain.alignments[i].query_start,
                  observed.alignments[i].query_start);
        EXPECT_EQ(plain.alignments[i].score, observed.alignments[i].score);
        EXPECT_EQ(plain.alignments[i].cigar.to_string(),
                  observed.alignments[i].cigar.to_string());
    }
    EXPECT_EQ(plain.chains.size(), observed.chains.size());

    // The serial path published non-zero per-stage counters...
    EXPECT_GT(metrics.counter("wga.seed.lookups").value(), 0u);
    EXPECT_GT(metrics.counter("wga.seed.hits").value(), 0u);
    EXPECT_GT(metrics.counter("wga.filter.tiles").value(), 0u);
    EXPECT_GT(metrics.counter("wga.extend.anchors_in").value(), 0u);
    EXPECT_GT(metrics.counter("wga.extend.matched_bases").value(), 0u);
    // ...and they reconcile across stages.
    EXPECT_EQ(metrics.counter("wga.filter.tiles").value(),
              metrics.counter("wga.filter.passed").value() +
                  metrics.counter("wga.filter.dropped").value());
    EXPECT_EQ(metrics.counter("wga.filter.passed").value(),
              metrics.counter("wga.extend.anchors_in").value());
    EXPECT_EQ(metrics.counter("wga.extend.anchors_in").value(),
              metrics.counter("wga.extend.absorbed").value() +
                  metrics.counter("wga.extend.extended").value());
    EXPECT_EQ(metrics.counter("wga.extend.alignments").value(),
              observed.alignments.size());

    // Every stage recorded a span.
    const auto events = session.snapshot();
    for (const char* stage : {"index", "seed", "filter", "extend", "chain"}) {
        const bool found =
            std::any_of(events.begin(), events.end(),
                        [stage](const TraceEvent& event) {
                            return event.name == stage;
                        });
        EXPECT_TRUE(found) << "no span recorded for stage " << stage;
    }
}

}  // namespace
}  // namespace darwin::obs
