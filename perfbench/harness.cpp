/**
 * Workload harness of the repository benchmark (see perfbench/README.md).
 *
 *   perfbench_harness gen <workload> --seed N --work DIR
 *   perfbench_harness ref <workload> --work DIR
 *   perfbench_harness run <workload> --seconds S --trace 0|1 --work DIR
 *
 * `gen` writes every input of a workload (FASTA, windows, manifest,
 * .dwi) from the seed; `ref` computes the reference outputs the timed
 * run is checked against; `run` reads only those files, times the
 * workload and prints one JSON line of raw metrics. Each step is its
 * own process so the run's peak RSS holds neither generator nor
 * reference memory.
 *
 * Layers are timed from outside: spans wrap the harness's own calls into
 * each layer's public entry point (SeedIndex, DsoftSeeder::seed_all,
 * FilterStage::filter_all, ExtendStage::extend_all,
 * chain::chain_alignments, write_maf, index::load_index,
 * Server::submit, BatchScheduler::run, WgaPipeline::run_streaming).
 */
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "align/gactx.h"
#include "align/kernels/kernel_registry.h"
#include "batch/manifest.h"
#include "batch/scheduler.h"
#include "chain/chainer.h"
#include "fault/cancel.h"
#include "index/index_io.h"
#include "obs/metrics.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seed/seed_pattern.h"
#include "seq/fasta.h"
#include "seq/packed_io.h"
#include "seq/shuffle.h"
#include "serve/server.h"
#include "synth/species.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wga/extend_stage.h"
#include "wga/filter_stage.h"
#include "wga/maf.h"
#include "wga/pipeline.h"

namespace fs = std::filesystem;
using namespace darwin;

namespace {

// ---------------------------------------------------------------------------
// Workload shapes. Changing any of these changes the benchmark.

constexpr std::size_t kThreads = 4;

// pair_120k and stream_spill: the ROADMAP pair,
// `darwin-wga synthesize --pair ce11-cb4 --size 120000`, whose default
// is 2 chromosomes of 120 kb per genome.
constexpr const char* kPairSpecies = "ce11-cb4";
constexpr std::size_t kPairChromosomes = 2;
constexpr std::size_t kPairChromosomeBp = 120'000;
constexpr std::size_t kExonEvery = 2'500;  // the CLI's --exon-every default

// serve_mixed: one 120 kb dm6-dp4 target; 10 kb query windows, most of
// them dinucleotide-shuffled (the FPR null model) so p50 lands on a null
// request and p90 on a homologous one.
constexpr const char* kServeSpecies = "dm6-dp4";
constexpr std::size_t kServeTargetBp = 120'000;
constexpr std::size_t kWindowBp = 10'000;
constexpr std::size_t kNullWindows = 32;
constexpr std::size_t kHomologousWindows = 8;
constexpr std::size_t kServeClients = 2;
constexpr std::size_t kServeWorkers = 2;

// batch_manifest: two seeds of each of the four paper species pairs,
// one 40 kb chromosome per genome.
constexpr std::size_t kBatchPairBp = 40'000;
constexpr std::size_t kBatchSeedsPerSpecies = 2;

// stream_spill: channel capacities small enough that the hit channel
// spills on every run (the CLI defaults never spill on this pair), under
// a heap budget sized above the run's charged bytes.
constexpr std::uint64_t kStreamShardBp = 64'000;
constexpr std::size_t kStreamHitCapacity = 256;
constexpr std::size_t kStreamCandidateChunk = 64;
constexpr std::size_t kStreamFilterBatch = 128;
constexpr std::uint64_t kStreamHeapBudget = 1ull << 30;

// Every pair is `darwin-wga synthesize` output at a fixed layout seed
// with point substitutions drawn from the run's seed (see make_pair).
constexpr std::uint64_t kLayoutSeed = 42;
constexpr double kVariationPerBp = 0.001;

// Before timing, pair_120k and stream_spill align this much of each
// genome's first chromosome once (see warmup_slice).
constexpr std::size_t kWarmupBp = 40'000;

// Set-up is repeated and its median reported.
constexpr int kSetupRepeats = 5;

// ---------------------------------------------------------------------------
// Small utilities.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double
now_s()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest-rank: the smallest value with at least q of the samples
    // at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
median(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
write_file(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
maf_text(const std::vector<align::Alignment>& alignments,
         const seq::Genome& target, const seq::Genome& query)
{
    std::ostringstream out;
    wga::write_maf(out, alignments, target, query);
    return out.str();
}

/** Matched bases in MAF text: columns whose two rows hold the same base. */
std::uint64_t
maf_matched_bp(const std::string& maf)
{
    std::uint64_t matched = 0;
    std::istringstream in(maf);
    std::string line;
    std::string rows[2];
    int row = 0;
    while (std::getline(in, line)) {
        if (line.rfind("s ", 0) != 0)
            continue;
        rows[row] = line.substr(line.find_last_of(' ') + 1);
        if (++row < 2)
            continue;
        row = 0;
        const std::size_t n = std::min(rows[0].size(), rows[1].size());
        for (std::size_t i = 0; i < n; ++i) {
            const char a = static_cast<char>(std::toupper(rows[0][i]));
            const char b = static_cast<char>(std::toupper(rows[1][i]));
            matched += a == b && a != '-' ? 1 : 0;
        }
    }
    return matched;
}

std::string
json_escape(const std::string& text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

std::string
json_number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

/**
 * One benchmark genome pair: `darwin-wga synthesize` output at a fixed
 * layout seed, plus point substitutions drawn from the run's seed at
 * kVariationPerBp in both genomes. The layout seed fixes the islands,
 * exons and repeat families, whose draw otherwise swings matched bases
 * and extension work by up to 2x between seeds; the run's seed still
 * gives every run its own sequences.
 */
std::string
json_list(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + json_number(values[i]);
    return out + "]";
}

synth::SpeciesPair
make_pair(const std::string& species, std::size_t chromosomes,
          std::size_t chromosome_bp, std::uint64_t layout_seed,
          std::uint64_t seed)
{
    synth::AncestorConfig shape;
    shape.num_chromosomes = chromosomes;
    shape.chromosome_length = chromosome_bp;
    shape.exons_per_chromosome = chromosome_bp / kExonEvery;
    synth::SpeciesPair pair = synth::make_species_pair(
        synth::find_species_pair(species), shape, layout_seed);
    Rng rng(seed);
    for (seq::Genome* genome : {&pair.target.genome, &pair.query.genome}) {
        seq::Genome varied(genome->name());
        for (seq::Sequence chromosome : genome->chromosomes()) {
            auto& codes = chromosome.codes();
            for (std::size_t i = rng.geometric(kVariationPerBp);
                 i < codes.size(); i += 1 + rng.geometric(kVariationPerBp))
                if (codes[i] < seq::kNumBases)
                    codes[i] = static_cast<std::uint8_t>(
                        (codes[i] + 1 + rng.uniform(seq::kNumBases - 1)) %
                        seq::kNumBases);
            varied.add_chromosome(std::move(chromosome));
        }
        *genome = std::move(varied);
    }
    return pair;
}

/** The exact generator arguments of one pair, as JSON. */
std::string
generator_record(const std::string& species, std::size_t chromosomes,
                 std::size_t chromosome_bp, std::uint64_t layout_seed,
                 std::uint64_t seed)
{
    return "{\"synthesize\": \"darwin-wga synthesize --pair " + species +
           " --size " + std::to_string(chromosome_bp) + " --chromosomes " +
           std::to_string(chromosomes) + " --exon-every " +
           std::to_string(kExonEvery) + " --seed " +
           std::to_string(layout_seed) +
           "\", \"substitutions_per_bp\": " + json_number(kVariationPerBp) +
           ", \"substitution_seed\": " + std::to_string(seed) + "}";
}

// ---------------------------------------------------------------------------
// Spans recorded by the harness around its calls into each layer. Kept
// in memory; written as a Chrome trace when the run ends.

struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::int64_t request = -1;
};

class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int
    begin(const std::string& name, int parent, std::int64_t request)
    {
        if (!enabled_)
            return -1;
        std::lock_guard lock(mutex_);
        spans_.push_back({name, now_s(), 0.0, parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** A span whose interval was observed elsewhere (e.g. a callback). */
    void
    record(const std::string& name, double start, double end, int parent,
           std::int64_t request)
    {
        if (!enabled_)
            return;
        std::lock_guard lock(mutex_);
        spans_.push_back({name, start, end, parent, request});
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        std::lock_guard lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now_s();
    }

    /**
     * Per span name: summed duration minus the part of each span's
     * interval that its children cover (children may run concurrently,
     * so the union of their intervals is subtracted).
     */
    std::map<std::string, double>
    self_seconds() const
    {
        std::lock_guard lock(mutex_);
        std::vector<std::vector<std::pair<double, double>>> children(
            spans_.size());
        for (const Span& span : spans_)
            if (span.parent >= 0)
                children[static_cast<std::size_t>(span.parent)].emplace_back(
                    span.start, span.end);
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto& intervals = children[i];
            std::sort(intervals.begin(), intervals.end());
            double covered = 0.0;
            double reach = spans_[i].start;
            for (const auto& [start, end] : intervals) {
                const double from = std::max(start, reach);
                const double to = std::min(end, spans_[i].end);
                if (to > from)
                    covered += to - from;
                reach = std::max(reach, to);
            }
            out[spans_[i].name] += spans_[i].end - spans_[i].start - covered;
        }
        return out;
    }

    void
    write_chrome_trace(const std::string& path) const
    {
        std::lock_guard lock(mutex_);
        std::ostringstream out;
        out << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\": \""
                << json_escape(s.name) << "\", \"ph\": \"X\", \"pid\": 1, "
                << "\"tid\": " << (s.request >= 0 ? s.request + 1 : 0)
                << ", \"ts\": " << json_number(s.start * 1e6)
                << ", \"dur\": " << json_number((s.end - s.start) * 1e6)
                << ", \"args\": {\"id\": " << i
                << ", \"parent\": " << s.parent
                << ", \"request\": " << s.request << "}}";
        }
        out << "\n]}\n";
        write_file(path, out.str());
    }

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; close() returns the wall it covered, traced or not. */
class Scope {
  public:
    Scope(Tracer& tracer, const std::string& name, int parent = -1,
          std::int64_t request = -1)
        : tracer_(tracer), id_(tracer.begin(name, parent, request)),
          start_(now_s())
    {
    }
    ~Scope() { close(); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }

    double
    close()
    {
        if (!closed_) {
            seconds_ = now_s() - start_;
            tracer_.end(id_);
            closed_ = true;
        }
        return seconds_;
    }

  private:
    Tracer& tracer_;
    int id_;
    double start_;
    double seconds_ = 0.0;
    bool closed_ = false;
};

// ---------------------------------------------------------------------------
// The pipeline's layers called one by one (the same sequence
// WgaPipeline::run_impl performs, strands in order), so each gets a span.

struct LayerTimes {
    double index = 0.0;
    double seed = 0.0;
    double filter = 0.0;
    double extend = 0.0;
    double chain = 0.0;
    double output = 0.0;

    double
    total() const
    {
        return index + seed + filter + extend + chain + output;
    }
};

struct StagedResult {
    std::vector<align::Alignment> alignments;
    std::vector<chain::Chain> chains;
    wga::PipelineStats stats;
    LayerTimes times;
};

/** seed -> filter -> extend -> chain against an existing index. */
StagedResult
run_layers(const wga::WgaParams& params, const seed::SeedIndex& index,
           const seq::Sequence& target, const seq::Sequence& query,
           ThreadPool* pool, Tracer& tracer, int parent,
           std::int64_t request)
{
    StagedResult out;
    const std::span<const std::uint8_t> target_span{target.codes().data(),
                                                    target.size()};
    const std::size_t strands = params.align_both_strands ? 2 : 1;
    for (std::size_t s = 0; s < strands; ++s) {
        const seq::Sequence query_s =
            s == 0 ? query : query.reverse_complement();
        const std::span<const std::uint8_t> query_span{
            query_s.codes().data(), query_s.size()};

        std::vector<seed::SeedHit> hits;
        {
            Scope span(tracer, "seed", parent, request);
            const seed::DsoftSeeder seeder(index, params.dsoft);
            hits = seeder.seed_all(query_s, &out.stats.seeding, pool);
            out.times.seed += span.close();
        }
        std::vector<wga::FilterCandidate> candidates;
        {
            Scope span(tracer, "filter", parent, request);
            const wga::FilterStage filter(params, target_span, query_span);
            candidates = filter.filter_all(hits, &out.stats.filter, pool);
            out.times.filter += span.close();
        }
        std::vector<align::Alignment> alignments;
        {
            Scope span(tracer, "extend", parent, request);
            const align::GactXTileAligner aligner(params.gactx);
            wga::ExtendStage extend(params, target_span, query_span);
            wga::ExtendStats stats;
            alignments = extend.extend_all(candidates, aligner, &stats, pool);
            wga::PipelineStats stage;
            stage.extend = stats;
            out.stats.merge(stage);
            out.times.extend += span.close();
        }
        for (auto& alignment : alignments) {
            alignment.query_strand =
                s == 0 ? align::Strand::Forward : align::Strand::Reverse;
            out.alignments.push_back(std::move(alignment));
        }
    }
    Scope span(tracer, "chain", parent, request);
    out.chains = chain::chain_alignments(out.alignments, chain::ChainParams{});
    out.times.chain = span.close();
    return out;
}

// ---------------------------------------------------------------------------
// Run results.

struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checks_ok = true;  ///< non-operation checks (trace identity, spill)
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> info;  ///< raw JSON values

    void
    check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }

    void
    require(bool ok, const std::string& what)
    {
        if (!ok) {
            checks_ok = false;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Layer counters from a stats block, and layer seconds from the spans. */
void
set_layer_metrics(Outcome& out, const wga::PipelineStats& stats,
                  const LayerTimes& times)
{
    auto& m = out.metrics;
    m["seed.s"] = times.seed;
    m["seed.lookups"] = static_cast<double>(stats.seeding.seed_lookups);
    m["seed.hits"] = static_cast<double>(stats.seeding.seed_hits);
    m["seed.candidates"] = static_cast<double>(stats.seeding.candidates);
    m["seed.lookups_per_s"] = ratio(m["seed.lookups"], times.seed);
    m["filter.s"] = times.filter;
    m["filter.tiles"] = static_cast<double>(stats.filter.tiles);
    m["filter.cells"] = static_cast<double>(stats.filter.cells);
    m["filter.cells_per_s"] = ratio(m["filter.cells"], times.filter);
    m["filter.pass_ratio"] = ratio(static_cast<double>(stats.filter.passed),
                                   m["filter.tiles"]);
    m["extend.s"] = times.extend;
    m["extend.tiles"] = static_cast<double>(stats.extend.extension.tiles);
    m["extend.cells"] = static_cast<double>(stats.extend.extension.cells);
    m["extend.cells_per_s"] = ratio(m["extend.cells"], times.extend);
    m["extend.anchors_in"] = static_cast<double>(stats.extend.anchors_in);
    m["extend.absorbed"] = static_cast<double>(stats.extend.absorbed);
    m["extend.traceback_ops"] =
        static_cast<double>(stats.extend.extension.traceback_ops);
    m["extend.yield"] =
        ratio(static_cast<double>(stats.extend.alignments_out),
              static_cast<double>(stats.extend.extended));
    m["chain.s"] = times.chain;
    m["output.s"] = times.output;
}

// ---------------------------------------------------------------------------
// Paths inside the work area.

struct Work {
    fs::path dir;

    std::string path(const std::string& leaf) const
    {
        return (dir / leaf).string();
    }
};

wga::WgaParams
pipeline_params()
{
    return wga::WgaParams::darwin_defaults();
}

/**
 * The first kWarmupBp of a genome's first chromosome. Aligning such a
 * slice once before timing lets the allocator and caches settle, so the
 * first timed run is not also the first run in the process.
 */
seq::Genome
warmup_slice(const seq::Genome& genome)
{
    const seq::Sequence& chromosome = genome.chromosome(0);
    seq::Genome slice(genome.name());
    slice.add_chromosome(seq::Sequence(
        chromosome.name(),
        chromosome.to_string(0, std::min(kWarmupBp, chromosome.size()))));
    return slice;
}

// ===========================================================================
// pair_120k

void
gen_pair(const Work& work, std::uint64_t seed)
{
    const auto pair =
        make_pair(kPairSpecies, kPairChromosomes, kPairChromosomeBp,
                  kLayoutSeed, seed);
    seq::write_genome_file(work.path("target.fa"), pair.target.genome);
    seq::write_genome_file(work.path("query.fa"), pair.query.genome);
    write_file(work.path("gen.json"),
               generator_record(kPairSpecies, kPairChromosomes,
                                kPairChromosomeBp, kLayoutSeed, seed) +
                   "\n");
}

/** FASTA load plus index build; median of kSetupRepeats. */
double
setup_pair(const Work& work, seq::Genome* target, seq::Genome* query,
           Tracer& tracer, Outcome& out)
{
    std::vector<double> setups;
    double fasta = 0.0;
    double build = 0.0;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double t0 = now_s();
        {
            Scope span(tracer, "seq.read_genome");
            *target = seq::read_genome(work.path("target.fa"));
            *query = seq::read_genome(work.path("query.fa"));
            target->flattened();
            query->flattened();
            fasta = span.close();
        }
        {
            Scope span(tracer, "seed.index_build");
            const seed::SeedIndex index(
                target->flattened(),
                seed::SeedPattern(pipeline_params().seed_pattern));
            build = span.close();
        }
        setups.push_back(now_s() - t0);
    }
    out.metrics["seq.fasta_load_s"] = fasta;
    out.metrics["seed.index_build_s"] = build;
    return median(setups);
}

void
run_pair(const Work& work, double seconds, Tracer& tracer, Outcome& out)
{
    seq::Genome target;
    seq::Genome query;
    const double setup = setup_pair(work, &target, &query, tracer, out);
    const wga::WgaPipeline pipeline(pipeline_params());
    ThreadPool pool1(1);
    ThreadPool pool_n(kThreads);
    pipeline.run(warmup_slice(target), warmup_slice(query), &pool_n);

    // The 1-thread MAF is the reference every 4-thread MAF must match.
    // The 1-thread run goes second so the 4-thread samples straddle it
    // in time, and a burst of host noise is less likely to hit them all.
    std::vector<double> walls;
    std::vector<std::string> mafs;
    const auto run_4t = [&] {
        Scope span(tracer, "pair.run_4t");
        const auto result = pipeline.run(target, query, &pool_n);
        walls.push_back(span.close());
        mafs.push_back(maf_text(result.alignments, target, query));
    };
    const double t_start = now_s();
    run_4t();
    double wall_1t = 0.0;
    std::string reference;
    {
        Scope span(tracer, "pair.run_1t");
        const auto result = pipeline.run(target, query, &pool1);
        wall_1t = span.close();
        reference = maf_text(result.alignments, target, query);
    }
    out.check(!reference.empty());
    while (!tracer.enabled() && now_s() - t_start < seconds)
        run_4t();
    for (const auto& maf : mafs)
        out.check(maf == reference);

    const double query_kbp =
        static_cast<double>(query.total_length()) / 1000.0;
    auto& m = out.metrics;
    m["setup_s"] = setup;
    m["pair_wall_s"] = median(walls);
    m["pair_wall_1t_s"] = wall_1t;
    m["throughput_kbp_s"] = query_kbp / median(walls);
    m["latency_p50_s"] = median(walls);
    m["latency_p90_s"] = quantile(walls, 0.9);
    m["matched_bp"] = static_cast<double>(maf_matched_bp(reference));
    out.info["latency_samples"] = std::to_string(walls.size());
    out.info["walls_4t_s"] = json_list(walls);
    if (!tracer.enabled())
        return;

    // Traced run: the same pair with every layer called (and spanned)
    // by the harness, at 1 and at 4 threads.
    const auto params = pipeline_params();
    const auto staged = [&](ThreadPool* pool, const char* name) {
        Scope root(tracer, name);
        Scope index_span(tracer, "index", root.id());
        const seed::SeedIndex index(target.flattened(),
                                    seed::SeedPattern(params.seed_pattern));
        const double index_s = index_span.close();
        StagedResult result =
            run_layers(params, index, target.flattened(), query.flattened(),
                       pool, tracer, root.id(), -1);
        result.times.index = index_s;
        return result;
    };
    const StagedResult traced_1t = staged(&pool1, "pair.layers_1t");
    out.require(maf_text(traced_1t.alignments, target, query) == reference,
                "traced 1-thread pair MAF differs from the untraced run");
    const StagedResult traced = staged(&pool_n, "pair.layers_4t");
    LayerTimes times = traced.times;
    std::string traced_maf;
    {
        Scope span(tracer, "output");
        wga::write_maf_file(work.path("traced.maf"), traced.alignments,
                            target, query);
        times.output = span.close();
        traced_maf = read_file(work.path("traced.maf"));
    }
    out.require(traced_maf == reference,
                "traced pair MAF differs from the untraced run");
    set_layer_metrics(out, traced.stats, times);
    m["extend.s_1t"] = traced_1t.times.extend;
    m["chain.chains"] = static_cast<double>(traced.chains.size());
    m["output.bytes"] = static_cast<double>(traced_maf.size());
    m["pool.efficiency"] = ratio(wall_1t, kThreads * walls.front());
    m["obs.trace_overhead"] =
        ratio(times.total() - times.output, walls.front()) - 1.0;
}

// ===========================================================================
// serve_mixed

struct Window {
    std::string name;
    bool homologous = false;
};

std::vector<Window>
read_windows(const Work& work)
{
    std::vector<Window> windows;
    std::istringstream in(read_file(work.path("windows.tsv")));
    std::string name;
    std::string kind;
    while (in >> name >> kind)
        windows.push_back({name, kind == "homologous"});
    if (windows.empty())
        throw std::runtime_error("windows.tsv lists no windows");
    return windows;
}

void
gen_serve(const Work& work, std::uint64_t seed)
{
    const auto pair =
        make_pair(kServeSpecies, 1, kServeTargetBp, kLayoutSeed, seed);
    seq::write_genome_file(work.path("target.fa"), pair.target.genome);

    // The windows come from the query genome: homologous ones verbatim,
    // null ones dinucleotide-shuffled. The file order is the request
    // order the clients cycle through. Order and offsets are part of the
    // fixed layout; the shuffles draw from the run's seed.
    Rng layout(kLayoutSeed);
    Rng rng(seed);
    const seq::Sequence& source = pair.query.genome.chromosome(0);
    const std::string bases = source.to_string();
    std::vector<Window> windows;
    for (std::size_t i = 0; i < kNullWindows + kHomologousWindows; ++i)
        windows.push_back({"", i >= kNullWindows});
    for (std::size_t i = windows.size(); i > 1; --i)
        std::swap(windows[i - 1], windows[layout.uniform(i)]);
    fs::create_directories(work.dir / "windows");
    std::ostringstream list;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const std::size_t start =
            layout.uniform(bases.size() - kWindowBp + 1);
        seq::Sequence window("win" + std::to_string(i),
                             bases.substr(start, kWindowBp));
        if (!windows[i].homologous)
            window = seq::dinucleotide_shuffle(window, rng);
        seq::Genome genome("win" + std::to_string(i));
        genome.add_chromosome(window);
        windows[i].name = "windows/w" + std::to_string(i) + ".fa";
        seq::write_genome_file(work.path(windows[i].name), genome);
        list << windows[i].name << '\t'
             << (windows[i].homologous ? "homologous" : "null") << '\n';
    }
    write_file(work.path("windows.tsv"), list.str());

    const seq::Genome target = seq::read_genome(work.path("target.fa"));
    const seed::SeedIndex index(
        target.flattened(),
        seed::SeedPattern(pipeline_params().seed_pattern));
    index::save_index(work.path("target.dwi"), index,
                      index::sequence_digest(target.flattened()),
                      target.flattened().size());
    write_file(work.path("gen.json"),
               "{\"target\": " +
                   generator_record(kServeSpecies, 1, kServeTargetBp,
                                    kLayoutSeed, seed) +
                   ", \"windows\": {\"bp\": " + std::to_string(kWindowBp) +
                   ", \"null\": " + std::to_string(kNullWindows) +
                   ", \"homologous\": " + std::to_string(kHomologousWindows) +
                   ", \"order_and_offsets_seed\": " +
                   std::to_string(kLayoutSeed) + ", \"shuffle_seed\": " +
                   std::to_string(seed) +
                   ", \"null_model\": \"seq::dinucleotide_shuffle\"}}\n");
}

/** The params a served align request runs with (protocol defaults). */
wga::WgaParams
serve_params()
{
    auto params = pipeline_params();
    params.align_both_strands = serve::Request{}.both_strands;
    return params;
}

std::string
reference_name(const std::string& window)
{
    return "ref/" + fs::path(window).stem().string() + ".maf";
}

void
ref_serve(const Work& work)
{
    const auto windows = read_windows(work);
    const seq::Genome target = seq::read_genome(work.path("target.fa"));
    // The flattened form is built lazily and must not be first built by
    // several threads at once.
    target.flattened();
    const auto index = index::load_index(work.path("target.dwi"));
    const wga::WgaPipeline pipeline(serve_params());
    fs::create_directories(work.dir / "ref");
    ThreadPool pool(kThreads);
    pool.parallel_for(
        0, windows.size(),
        [&](std::size_t i) {
            const seq::Genome query =
                seq::read_genome(work.path(windows[i].name));
            const auto result = pipeline.run_with_index(
                *index, target.flattened(), query.flattened());
            write_file(work.path(reference_name(windows[i].name)),
                       maf_text(result.alignments, target, query));
        },
        1);
}

/** Pull a numeric field out of a response line (0 when absent). */
double
response_number(const std::string& line, const std::string& key)
{
    const std::string needle = "\"" + key + "\": ";
    const auto at = line.find(needle);
    return at == std::string::npos
               ? 0.0
               : std::strtod(line.c_str() + at + needle.size(), nullptr);
}

class ServeClient {
  public:
    ServeClient(serve::Server& server, const Work& work,
                const std::vector<Window>& windows)
        : server_(server), work_(work), windows_(windows)
    {
    }

    struct Reply {
        std::string line;
        double latency = 0.0;
    };

    /** Submit one align for window `w` and wait for its response. */
    Reply
    call(std::size_t w, const std::string& out_path, const std::string& id)
    {
        const std::string line =
            "{\"op\": \"align\", \"id\": \"" + id + "\", \"target\": \"" +
            work_.path("target.fa") + "\", \"query\": \"" +
            work_.path(windows_[w].name) + "\", \"index\": \"" +
            work_.path("target.dwi") + "\", \"out\": \"" + out_path + "\"}";
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        Reply reply;
        const double t0 = now_s();
        const bool accepted =
            server_.submit(line, [&](const std::string& response) {
                std::lock_guard lock(mutex);
                reply.line = response;
                reply.latency = now_s() - t0;
                done = true;
                cv.notify_one();
            });
        if (!accepted)
            throw std::runtime_error("server refused a request");
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return done; });
        return reply;
    }

  private:
    serve::Server& server_;
    const Work& work_;
    const std::vector<Window>& windows_;
};

struct ServedRequest {
    std::size_t window = 0;
    double latency = 0.0;
    double service = 0.0;
    bool ok = false;
    bool shed = false;
};

/** Closed loop: each client sends its next request after the last reply. */
std::vector<ServedRequest>
serve_loop(serve::Server& server, const Work& work,
           const std::vector<Window>& windows,
           const std::vector<std::string>& references, double seconds,
           Tracer& tracer, double* wall)
{
    std::vector<std::vector<ServedRequest>> per_client(kServeClients);
    const double t0 = now_s();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kServeClients; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client(server, work, windows);
            const std::string out_path =
                work.path("serve_out/c" + std::to_string(c) + ".maf");
            std::size_t k = 0;
            while (now_s() - t0 < seconds) {
                const std::size_t w =
                    (c * windows.size() / kServeClients + k) % windows.size();
                const std::int64_t request =
                    static_cast<std::int64_t>(c * 1'000'000 + k);
                ++k;
                ServeClient::Reply reply;
                {
                    Scope span(tracer, "serve.submit", -1, request);
                    reply = client.call(w, out_path, std::to_string(request));
                }
                ServedRequest served;
                served.window = w;
                served.latency = reply.latency;
                served.service = response_number(reply.line, "seconds");
                served.shed =
                    reply.line.find("\"overloaded\"") != std::string::npos;
                served.ok = reply.line.find("\"status\": \"ok\"") !=
                                std::string::npos &&
                            read_file(out_path) == references[w];
                per_client[c].push_back(served);
            }
        });
    }
    for (auto& client : clients)
        client.join();
    *wall = now_s() - t0;
    std::vector<ServedRequest> all;
    for (const auto& served : per_client)
        all.insert(all.end(), served.begin(), served.end());
    return all;
}

void
run_serve(const Work& work, double seconds, Tracer& tracer, Outcome& out)
{
    const auto windows = read_windows(work);
    std::vector<std::string> references;
    std::uint64_t matched = 0;
    for (const auto& window : windows) {
        references.push_back(read_file(work.path(reference_name(window.name))));
        matched += maf_matched_bp(references.back());
    }
    fs::create_directories(work.dir / "serve_out");

    serve::ServerOptions options;
    options.num_workers = kServeWorkers;

    // Set-up: Server construction plus a warm-up request that loads the
    // target FASTA and mmaps the .dwi into the caches. The warm-up sends
    // a null window so its own alignment stays short.
    const std::size_t warmup = static_cast<std::size_t>(
        std::find_if(windows.begin(), windows.end(),
                     [](const Window& w) { return !w.homologous; }) -
        windows.begin());
    std::vector<double> setups;
    std::unique_ptr<serve::Server> server;
    for (int i = 0; i < kSetupRepeats; ++i) {
        server.reset();
        Scope span(tracer, "serve.setup");
        server = std::make_unique<serve::Server>(options);
        ServeClient client(*server, work, windows);
        const auto reply =
            client.call(warmup, work.path("serve_out/warmup.maf"), "warmup");
        setups.push_back(span.close());
        out.check(reply.line.find("\"status\": \"ok\"") != std::string::npos &&
                  read_file(work.path("serve_out/warmup.maf")) ==
                      references[warmup]);
    }

    // Untraced loop; a traced run splits its time between an untraced
    // and a traced loop so the two can be compared.
    Tracer off(false);
    double wall = 0.0;
    const auto requests =
        serve_loop(*server, work, windows, references,
                   tracer.enabled() ? seconds / 2 : seconds, off, &wall);
    std::vector<double> latencies;
    double service = 0.0;
    for (const auto& r : requests) {
        out.check(r.ok);
        latencies.push_back(r.latency);
        service += r.service;
    }
    const double window_kbp = static_cast<double>(kWindowBp) / 1000.0;
    const double n = static_cast<double>(requests.size());
    auto& m = out.metrics;
    m["setup_s"] = median(setups);
    m["pair_wall_s"] = ratio(wall, n);
    m["pair_wall_1t_s"] = ratio(service, n);
    m["throughput_kbp_s"] = ratio(n * window_kbp, wall);
    m["latency_p50_s"] = median(latencies);
    m["latency_p90_s"] = quantile(latencies, 0.9);
    m["matched_bp"] = static_cast<double>(matched);
    out.info["latency_samples"] = std::to_string(requests.size());
    std::size_t homologous = 0;
    for (const auto& r : requests)
        homologous += windows[r.window].homologous ? 1 : 0;
    out.info["homologous_requests"] = std::to_string(homologous);
    if (!tracer.enabled())
        return;

    double traced_wall = 0.0;
    const auto traced = serve_loop(*server, work, windows, references,
                                   seconds / 2, tracer, &traced_wall);
    double queue_wait = 0.0;
    double shed = 0.0;
    for (const auto& r : traced) {
        out.check(r.ok);
        queue_wait += r.latency - r.service;
        shed += r.shed ? 1.0 : 0.0;
    }

    // Replay every window through the layers the server calls, at one
    // thread as a server worker runs them.
    const auto params = serve_params();
    seq::Genome target;
    {
        Scope span(tracer, "seq.read_genome");
        target = seq::read_genome(work.path("target.fa"));
        target.flattened();
        m["seq.fasta_load_s"] = span.close();
    }
    std::shared_ptr<const seed::SeedIndex> index;
    {
        Scope span(tracer, "index.load");
        index = index::load_index(work.path("target.dwi"));
        m["index.load_s"] = span.close();
    }
    m["index.bytes"] =
        static_cast<double>(fs::file_size(work.path("target.dwi")));
    wga::PipelineStats stats;
    LayerTimes times;
    std::vector<double> replay_seconds(windows.size());
    double chains = 0.0;
    double output_bytes = 0.0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
        const auto request = static_cast<std::int64_t>(w);
        Scope root(tracer, "serve.replay", -1, request);
        const seq::Genome query = seq::read_genome(work.path(windows[w].name));
        StagedResult result =
            run_layers(params, *index, target.flattened(), query.flattened(),
                       nullptr, tracer, root.id(), request);
        {
            Scope span(tracer, "output", root.id(), request);
            const std::string path = work.path("serve_out/replay.maf");
            wga::write_maf_file(path, result.alignments, target, query);
            result.times.output = span.close();
            const std::string maf = read_file(path);
            output_bytes += static_cast<double>(maf.size());
            out.require(maf == references[w],
                        "replayed serve MAF differs from the served one");
        }
        replay_seconds[w] = result.times.total();
        stats.merge(result.stats);
        times.seed += result.times.seed;
        times.filter += result.times.filter;
        times.extend += result.times.extend;
        times.chain += result.times.chain;
        times.output += result.times.output;
        chains += static_cast<double>(result.chains.size());
    }
    set_layer_metrics(out, stats, times);
    std::vector<double> overhead;
    for (const auto& r : traced)
        overhead.push_back(r.latency - replay_seconds[r.window]);
    m["extend.s_1t"] = times.extend;
    m["chain.chains"] = chains;
    m["output.bytes"] = output_bytes;
    m["serve.queue_wait_s"] = ratio(queue_wait, traced.size());
    m["serve.shed"] = shed;
    m["serve.overhead_s"] = median(overhead);
    m["obs.trace_overhead"] =
        ratio(ratio(traced_wall, traced.size()), ratio(wall, n)) - 1.0;
}

// ===========================================================================
// batch_manifest

void
gen_batch(const Work& work, std::uint64_t seed)
{
    fs::create_directories(work.dir / "pairs");
    std::ostringstream manifest;
    std::ostringstream record;
    record << "{\"pairs\": [";
    bool first = true;
    for (const auto& spec : synth::paper_species_pairs()) {
        for (std::size_t k = 0; k < kBatchSeedsPerSpecies; ++k) {
            // "Two seeds" of a species pair: two layout seeds.
            const std::uint64_t layout_seed = kLayoutSeed + k;
            const auto pair = make_pair(spec.pair_name, 1, kBatchPairBp,
                                        layout_seed, seed);
            const std::string name =
                spec.pair_name + ".s" + std::to_string(k);
            const std::string target = "pairs/" + name + "_target.fa";
            const std::string query = "pairs/" + name + "_query.fa";
            seq::write_genome_file(work.path(target), pair.target.genome);
            seq::write_genome_file(work.path(query), pair.query.genome);
            manifest << name << '\t' << work.path(target) << '\t'
                     << work.path(query) << '\n';
            record << (first ? "" : ", ")
                   << generator_record(spec.pair_name, 1, kBatchPairBp,
                                       layout_seed, seed);
            first = false;
        }
    }
    record << "]}\n";
    write_file(work.path("manifest.tsv"), manifest.str());
    write_file(work.path("gen.json"), record.str());
}

struct BatchInputs {
    std::vector<batch::ManifestPair> pairs;
    std::vector<seq::Genome> genomes;  ///< target, query per pair
};

BatchInputs
load_batch(const Work& work)
{
    BatchInputs inputs;
    inputs.pairs = batch::read_manifest_file(work.path("manifest.tsv"));
    for (const auto& pair : inputs.pairs) {
        inputs.genomes.push_back(seq::read_genome(pair.target_path));
        inputs.genomes.push_back(seq::read_genome(pair.query_path));
        batch::validate_pair_genomes(pair, inputs.genomes.end()[-2],
                                     inputs.genomes.back());
    }
    return inputs;
}

void
ref_batch(const Work& work)
{
    const BatchInputs inputs = load_batch(work);
    const wga::WgaPipeline pipeline(pipeline_params());
    fs::create_directories(work.dir / "ref");
    ThreadPool pool(kThreads);
    pool.parallel_for(
        0, inputs.pairs.size(),
        [&](std::size_t p) {
            const seq::Genome& target = inputs.genomes[2 * p];
            const seq::Genome& query = inputs.genomes[2 * p + 1];
            const auto result = pipeline.run(target, query);
            write_file(work.path("ref/" + inputs.pairs[p].name + ".maf"),
                       maf_text(result.alignments, target, query));
        },
        1);
}

void
run_batch(const Work& work, double seconds, Tracer& tracer, Outcome& out)
{
    std::vector<double> setups;
    BatchInputs inputs;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Scope span(tracer, "seq.read_genome");
        inputs = load_batch(work);
        for (const auto& genome : inputs.genomes)
            genome.flattened();
        setups.push_back(span.close());
    }
    std::vector<batch::BatchJob> jobs;
    std::vector<std::string> references;
    std::uint64_t matched = 0;
    double query_kbp = 0.0;
    for (std::size_t p = 0; p < inputs.pairs.size(); ++p) {
        jobs.push_back({inputs.pairs[p].name, &inputs.genomes[2 * p],
                        &inputs.genomes[2 * p + 1]});
        references.push_back(
            read_file(work.path("ref/" + inputs.pairs[p].name + ".maf")));
        matched += maf_matched_bp(references.back());
        query_kbp +=
            static_cast<double>(inputs.genomes[2 * p + 1].total_length()) /
            1000.0;
    }
    fs::create_directories(work.dir / "batch_out");

    struct Pass {
        double wall = 0.0;
        double stage_seconds = 0.0;
        double prepare_seconds = 0.0;
        double output_seconds = 0.0;
        double output_bytes = 0.0;
        double chains = 0.0;
        wga::PipelineStats stats;
    };
    std::vector<double> latencies;
    // One BatchScheduler::run over the manifest; each pair's MAF is
    // written as it completes, as darwin-wga-batch does.
    const auto pass = [&](Tracer& t) {
        Pass result;
        obs::MetricsRegistry registry;
        batch::BatchOptions options;
        options.params = pipeline_params();
        options.num_threads = kThreads;
        std::mutex mutex;
        std::map<std::string, double> done;
        Scope root(t, "batch.run");
        const double t0 = now_s();
        options.on_pair_complete = [&](const batch::BatchPairResult& pair) {
            const auto it = std::find_if(
                jobs.begin(), jobs.end(),
                [&](const batch::BatchJob& j) { return j.name == pair.name; });
            const double start = now_s();
            wga::write_maf_file(work.path("batch_out/" + pair.name + ".maf"),
                                pair.result.alignments, *it->target,
                                *it->query);
            const double end = now_s();
            std::lock_guard lock(mutex);
            result.output_seconds += end - start;
            done[pair.name] = end - t0;
        };
        batch::BatchScheduler scheduler(options, &registry);
        const auto results = scheduler.run(jobs);
        result.wall = root.close();
        for (std::size_t p = 0; p < results.size(); ++p) {
            t.record("batch.pair", t0, t0 + done[jobs[p].name], root.id(),
                     static_cast<std::int64_t>(p));
            const std::string maf =
                read_file(work.path("batch_out/" + jobs[p].name + ".maf"));
            out.check(results[p].status == fault::PairStatus::Clean &&
                      maf == references[p]);
            result.output_bytes += static_cast<double>(maf.size());
            result.chains +=
                static_cast<double>(results[p].result.chains.size());
            latencies.push_back(done[jobs[p].name]);
            result.stage_seconds += results[p].result.stats.total_seconds();
            result.stats.merge(results[p].result.stats);
        }
        if (const auto* h = registry.find_histogram("batch.prepare.seconds"))
            result.prepare_seconds = h->sum();
        return result;
    };

    Tracer off(false);
    std::vector<double> walls;
    std::vector<double> stage_seconds;
    const double t_start = now_s();
    Pass last;
    do {
        last = pass(off);
        walls.push_back(last.wall);
        stage_seconds.push_back(last.stage_seconds);
    } while (!tracer.enabled() && now_s() - t_start < seconds);

    const double pairs = static_cast<double>(jobs.size());
    auto& m = out.metrics;
    m["setup_s"] = median(setups);
    m["pair_wall_s"] = median(walls) / pairs;
    m["pair_wall_1t_s"] = median(stage_seconds) / pairs;
    m["throughput_kbp_s"] = query_kbp / median(walls);
    m["latency_p50_s"] = median(latencies);
    m["latency_p90_s"] = quantile(latencies, 0.9);
    m["matched_bp"] = static_cast<double>(matched);
    out.info["latency_samples"] = std::to_string(latencies.size());
    out.info["batch_walls_s"] = json_list(walls);
    if (!tracer.enabled())
        return;

    const Pass traced = pass(tracer);
    LayerTimes times;
    times.seed = traced.stats.seed_seconds;
    times.filter = traced.stats.filter_seconds;
    times.extend = traced.stats.extend_seconds;
    times.chain = traced.stats.chain_seconds;
    set_layer_metrics(out, traced.stats, times);
    m["extend.s_1t"] = traced.stats.extend_seconds;
    m["seq.fasta_load_s"] = median(setups);
    m["chain.chains"] = traced.chains;
    m["output.s"] = traced.output_seconds;
    m["output.bytes"] = traced.output_bytes;
    m["batch.core_utilization"] =
        ratio(traced.stage_seconds, traced.wall * kThreads);
    m["batch.prepare_s"] = traced.prepare_seconds;
    m["obs.trace_overhead"] = ratio(traced.wall, walls.front()) - 1.0;
}

// ===========================================================================
// stream_spill

void
ref_stream(const Work& work)
{
    const seq::Genome target = seq::read_genome(work.path("target.fa"));
    const seq::Genome query = seq::read_genome(work.path("query.fa"));
    ThreadPool pool(kThreads);
    const auto result =
        wga::WgaPipeline(pipeline_params()).run(target, query, &pool);
    fs::create_directories(work.dir / "ref");
    write_file(work.path("ref/stream.maf"),
               maf_text(result.alignments, target, query));
}

void
run_stream(const Work& work, double seconds, Tracer& tracer, Outcome& out)
{
    // Set-up: FASTA parsed straight into 2-bit storage (no sidecar).
    std::vector<double> setups;
    seq::Genome target;
    seq::Genome query;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Scope span(tracer, "seq.read_genome_packed");
        target = seq::read_genome_packed(work.path("target.fa"), "", "");
        query = seq::read_genome_packed(work.path("query.fa"), "", "");
        target.flattened_packed();
        query.flattened_packed();
        setups.push_back(span.close());
    }
    const std::string reference = read_file(work.path("ref/stream.maf"));
    fs::create_directories(work.dir / "spill");

    wga::StreamingParams sp;
    sp.shard_bp = kStreamShardBp;
    sp.hit_stream_capacity = kStreamHitCapacity;
    sp.candidate_chunk = kStreamCandidateChunk;
    sp.filter_batch = kStreamFilterBatch;
    sp.spill_dir = work.path("spill");
    const wga::WgaPipeline pipeline(pipeline_params());

    struct Pass {
        double wall = 0.0;
        wga::WgaResult result;
        std::map<std::string, double> gauges;
    };
    const auto pass = [&](ThreadPool& pool, Tracer& t, const char* name) {
        Pass result;
        obs::MetricsRegistry registry;
        fault::CancelToken token;
        fault::Budget budget;
        budget.max_heap_bytes = kStreamHeapBudget;
        token.arm(budget);
        bool ok = false;
        {
            const fault::ContextScope scope(&token, 0);
            Scope span(t, name);
            try {
                const auto run = pipeline.run_streaming(target, query, sp,
                                                        &pool, &registry);
                result.wall = span.close();
                ok = maf_text(run.alignments, target, query) == reference;
                result.result = std::move(run);
            } catch (const fault::CancelledError& error) {
                std::fprintf(stderr, "perfbench: stream run cancelled: %s\n",
                             error.what());
                result.wall = span.close();
            }
        }
        out.check(ok);
        for (const char* gauge :
             {"wga.heap.spilled_bytes", "wga.heap.spill_episodes",
              "wga.heap.hit_stream_bytes", "wga.heap.candidate_buffer_bytes",
              "wga.heap.charged_bytes"})
            if (const auto* g = registry.find_gauge(gauge))
                result.gauges[gauge] = static_cast<double>(g->value());
        return result;
    };

    ThreadPool pool1(1);
    ThreadPool pool_n(kThreads);
    pipeline.run_streaming(warmup_slice(target), warmup_slice(query), sp,
                           &pool_n);
    Tracer off(false);
    // As in pair_120k, the 1-thread run goes between 4-thread samples.
    const double t_start = now_s();
    std::vector<double> walls{pass(pool_n, off, "stream.run_4t").wall};
    const Pass single = pass(pool1, off, "stream.run_1t");
    out.require(single.gauges.count("wga.heap.spill_episodes") &&
                    single.gauges.at("wga.heap.spill_episodes") > 0,
                "the hit channel did not spill");
    while (!tracer.enabled() && now_s() - t_start < seconds)
        walls.push_back(pass(pool_n, off, "stream.run_4t").wall);

    auto& m = out.metrics;
    m["setup_s"] = median(setups);
    m["pair_wall_s"] = median(walls);
    m["pair_wall_1t_s"] = single.wall;
    m["throughput_kbp_s"] =
        static_cast<double>(query.total_length()) / 1000.0 / median(walls);
    m["latency_p50_s"] = median(walls);
    m["latency_p90_s"] = quantile(walls, 0.9);
    m["matched_bp"] = static_cast<double>(maf_matched_bp(reference));
    out.info["latency_samples"] = std::to_string(walls.size());
    out.info["walls_4t_s"] = json_list(walls);
    if (!tracer.enabled())
        return;

    const Pass traced = pass(pool_n, tracer, "stream.run_streaming");
    const wga::PipelineStats& stats = traced.result.stats;
    LayerTimes times;
    times.seed = stats.seed_seconds;
    times.filter = stats.filter_seconds;
    times.extend = stats.extend_seconds;
    times.chain = stats.chain_seconds;
    {
        Scope span(tracer, "output");
        wga::write_maf_file(work.path("traced.maf"), traced.result.alignments,
                            target, query);
        times.output = span.close();
    }
    const std::string traced_maf = read_file(work.path("traced.maf"));
    out.require(traced_maf == reference,
                "traced stream MAF differs from the untraced run");
    set_layer_metrics(out, stats, times);
    m["extend.s_1t"] = single.result.stats.extend_seconds;
    m["chain.chains"] = static_cast<double>(traced.result.chains.size());
    m["output.bytes"] = static_cast<double>(traced_maf.size());
    out.info["heap_charged_bytes"] =
        json_number(traced.gauges.at("wga.heap.charged_bytes"));
    m["seq.pack_s"] = median(setups);
    m["stream.spilled_bytes"] = traced.gauges.at("wga.heap.spilled_bytes");
    m["stream.spill_episodes"] = traced.gauges.at("wga.heap.spill_episodes");
    m["stream.residency_bytes"] =
        traced.gauges.at("wga.heap.hit_stream_bytes") +
        traced.gauges.at("wga.heap.candidate_buffer_bytes");
    m["pool.efficiency"] = ratio(single.wall, kThreads * walls.front());
    m["obs.trace_overhead"] = ratio(traced.wall, walls.front()) - 1.0;
}

// ===========================================================================

struct Workload {
    const char* name;
    void (*gen)(const Work&, std::uint64_t);
    void (*ref)(const Work&);
    void (*run)(const Work&, double, Tracer&, Outcome&);
};

void
no_ref(const Work&)
{
}

const Workload kWorkloads[] = {
    {"pair_120k", gen_pair, no_ref, run_pair},
    {"serve_mixed", gen_serve, ref_serve, run_serve},
    {"batch_manifest", gen_batch, ref_batch, run_batch},
    {"stream_spill", gen_pair, ref_stream, run_stream},
};

void
print_outcome(const Outcome& out, const Tracer& tracer)
{
    const auto& registry = align::kernels::KernelRegistry::instance();
    std::ostringstream json;
    json << "{\"correct\": "
         << (out.failed == 0 && out.checks_ok ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : out.metrics) {
        json << (first ? "" : ", ") << '"' << name
             << "\": " << json_number(value);
        first = false;
    }
    json << "}, \"info\": {\"kernel\": \""
         << json_escape(registry.active().name)
         << "\", \"kernel_id\": " << registry.active().id
         << ", \"backend\": \"" << json_escape(registry.active_backend().name)
         << "\", \"backend_id\": " << registry.active_backend().id;
    for (const auto& [key, value] : out.info)
        json << ", \"" << key << "\": " << value;
    if (tracer.enabled()) {
        json << ", \"self_seconds\": {";
        first = true;
        for (const auto& [name, seconds] : tracer.self_seconds()) {
            json << (first ? "" : ", ") << '"' << json_escape(name)
                 << "\": " << json_number(seconds);
            first = false;
        }
        json << "}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness gen|ref|run <workload> "
                 "[--seed N] [--seconds S] [--trace 0|1] --work DIR\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 3)
        return usage();
    const std::string step = argv[1];
    const std::string name = argv[2];
    std::map<std::string, std::string> args;
    for (int i = 3; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    const Workload* workload = nullptr;
    for (const auto& w : kWorkloads)
        if (name == w.name)
            workload = &w;
    if (workload == nullptr || !args.count("--work"))
        return usage();
    Work work{args["--work"]};

    try {
        if (step == "gen") {
            fs::create_directories(work.dir);
            workload->gen(work, std::stoull(args["--seed"]));
        } else if (step == "ref") {
            workload->ref(work);
        } else if (step == "run") {
            Tracer tracer(args["--trace"] == "1");
            Outcome out;
            workload->run(work, std::stod(args["--seconds"]), tracer, out);
            if (tracer.enabled())
                tracer.write_chrome_trace(work.path("trace.json"));
            print_outcome(out, tracer);
        } else {
            return usage();
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_harness %s %s: %s\n", step.c_str(),
                     name.c_str(), error.what());
        return 1;
    }
    return 0;
}
