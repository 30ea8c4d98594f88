/**
 * @file
 * Additional coverage: hardware array models against the software
 * engines, MAF edge cases, pipeline parameter factories, and kernel
 * corner cases not exercised elsewhere.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "align/gactx.h"
#include "align/xdrop_reference.h"
#include "hw/gactx_array.h"
#include "seq/fasta.h"
#include "util/rng.h"
#include "util/logging.h"
#include "wga/chain_io.h"
#include "wga/maf.h"
#include "wga/params.h"
#include "test_temp_dir.h"

namespace darwin {
namespace {

std::vector<std::uint8_t>
random_codes(std::size_t len, Rng& rng)
{
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return codes;
}

std::span<const std::uint8_t>
sp(const std::vector<std::uint8_t>& v)
{
    return {v.data(), v.size()};
}

TEST(WgaParams, FactoriesMatchPaperDefaults)
{
    const auto darwin_params = wga::WgaParams::darwin_defaults();
    EXPECT_EQ(darwin_params.filter_mode, wga::FilterMode::Gapped);
    EXPECT_EQ(darwin_params.filter_threshold, 4000);
    EXPECT_EQ(darwin_params.extension_threshold, 4000);
    EXPECT_EQ(darwin_params.filter_tile, 320u);
    EXPECT_EQ(darwin_params.filter_band, 32u);
    EXPECT_EQ(darwin_params.gactx.tile_size, 1920u);
    EXPECT_EQ(darwin_params.gactx.overlap, 128u);
    EXPECT_EQ(darwin_params.gactx.ydrop, 9430);
    EXPECT_EQ(darwin_params.seed_pattern, "1110100110010101111");

    const auto lastz_params = wga::WgaParams::lastz_defaults();
    EXPECT_EQ(lastz_params.filter_mode, wga::FilterMode::Ungapped);
    EXPECT_EQ(lastz_params.filter_threshold, 3000);
    EXPECT_EQ(lastz_params.extension_threshold, 3000);
    // Everything else is shared so the comparison isolates the filter.
    EXPECT_EQ(lastz_params.seed_pattern, darwin_params.seed_pattern);
    EXPECT_EQ(lastz_params.gactx.tile_size, darwin_params.gactx.tile_size);
}

TEST(GactXArrayModel, RunTileMatchesSoftwareEngine)
{
    Rng rng(201);
    align::GactXParams params;
    params.tile_size = 512;
    const align::GactXTileAligner engine(params);
    const hw::GactXArrayModel array(params);
    const auto t = random_codes(512, rng);
    auto q = t;
    for (std::size_t i = 0; i < q.size(); i += 7)
        q[i] = static_cast<std::uint8_t>(rng.uniform(4));
    const auto sw = engine.align_tile(sp(t), sp(q));
    const auto hw_sim = array.run_tile(sp(t), sp(q));
    EXPECT_EQ(hw_sim.tile.max_score, sw.max_score);
    EXPECT_EQ(hw_sim.tile.target_max, sw.target_max);
    EXPECT_EQ(hw_sim.tile.cigar.to_string(), sw.cigar.to_string());
    EXPECT_GT(hw_sim.cycles, 0u);
    // Cycles are deterministic.
    EXPECT_EQ(array.run_tile(sp(t), sp(q)).cycles, hw_sim.cycles);
}

TEST(GactXEngine, EmptyInputs)
{
    align::GactXParams params;
    params.tile_size = 256;
    const align::GactXTileAligner aligner(params);
    const std::vector<std::uint8_t> empty;
    Rng rng(202);
    const auto t = random_codes(100, rng);
    EXPECT_EQ(aligner.align_tile({empty.data(), 0}, sp(t)).max_score, 0);
    EXPECT_EQ(aligner.align_tile(sp(t), {empty.data(), 0}).max_score, 0);
}

TEST(GactXEngine, TracebackMemoryLimitStopsTile)
{
    Rng rng(203);
    align::GactXParams params;
    params.tile_size = 1024;
    params.traceback_bytes = 2048;  // tiny
    const align::GactXTileAligner aligner(params);
    const auto t = random_codes(1024, rng);
    const auto tile = aligner.align_tile(sp(t), sp(t));
    // Truncated but self-consistent.
    EXPECT_GT(tile.max_score, 0);
    EXPECT_LT(tile.query_max, 1024u);
    EXPECT_TRUE(tile.cigar.consistent_with(sp(t), sp(t)));
}

TEST(GactXEngine, TwoSidedSeparatorIsNeverCrossed)
{
    // The pipeline relies on chromosome separators being uncrossable
    // when they appear in BOTH genomes (a chr1->chr2 alignment would
    // have to bridge 256 Ns on each side: >= 2*(430 + 255*30) = 16,460,
    // beyond Y = 9,430). Build two "genomes" of two homologous
    // chromosomes each and extend from an anchor in chromosome 1.
    Rng rng(204);
    const auto chr1 = random_codes(400, rng);
    const auto chr2 = random_codes(400, rng);
    std::vector<std::uint8_t> flat = chr1;
    flat.insert(flat.end(), seq::Genome::separator_length(), seq::BaseN);
    flat.insert(flat.end(), chr2.begin(), chr2.end());

    align::GactXParams params;
    params.tile_size = 1920;
    const align::GactXTileAligner aligner(params);
    // Identical "genomes": the strongest possible temptation to cross.
    const auto tile = aligner.align_tile(sp(flat), sp(flat));
    // The path must stop inside chromosome 1.
    EXPECT_LE(tile.target_max, 400u + 64u);
    EXPECT_EQ(tile.max_score,
              tile.cigar.score({flat.data(), tile.target_max},
                               {flat.data(), tile.query_max},
                               params.scoring));
}

TEST(XdropEngine, EmptyInputs)
{
    align::XDropConfig config;
    const std::vector<std::uint8_t> empty;
    Rng rng(205);
    const auto t = random_codes(50, rng);
    EXPECT_EQ(align::xdrop_extend({empty.data(), 0}, sp(t), config)
                  .max_score,
              0);
    EXPECT_EQ(align::xdrop_extend(sp(t), {empty.data(), 0}, config)
                  .max_score,
              0);
}

TEST(Maf, SkipsSeparatorCrossingAlignment)
{
    seq::Genome target("t");
    target.add_chromosome(seq::Sequence("t_chr1", "ACGTACGTAC"));
    target.add_chromosome(seq::Sequence("t_chr2", "GGGGCCCC"));
    seq::Genome query("q");
    query.add_chromosome(seq::Sequence("q_chr1", "ACGTACGTAC"));

    align::Alignment bogus;
    bogus.target_start = 5;
    // Ends inside chromosome 2's flat region: crosses the separator.
    bogus.target_end = target.flat_offset(1) + 4;
    bogus.query_start = 0;
    bogus.query_end = bogus.target_end - bogus.target_start;
    bogus.cigar.push(align::EditOp::Match,
                     static_cast<std::uint32_t>(bogus.target_span()));

    std::ostringstream out;
    wga::write_maf(out, {bogus}, target, query);
    // Header only; the record was skipped with a warning.
    EXPECT_EQ(out.str(), "##maf version=1 scoring=darwin-wga\n");
}

TEST(Maf, EmitsValidCoordinates)
{
    seq::Genome target("t");
    target.add_chromosome(seq::Sequence("t_chr1", "ACGTACGTACGT"));
    seq::Genome query("q");
    query.add_chromosome(seq::Sequence("q_chr1", "TTACGTACGTTT"));

    align::Alignment a;
    a.target_start = 0;
    a.target_end = 8;
    a.query_start = 2;
    a.query_end = 10;
    a.score = 100;
    a.cigar.push(align::EditOp::Match, 8);
    std::ostringstream out;
    wga::write_maf(out, {a}, target, query);
    const std::string maf = out.str();
    EXPECT_NE(maf.find("s t_chr1 0 8 + 12 ACGTACGT"), std::string::npos);
    EXPECT_NE(maf.find("s q_chr1 2 8 + 12 ACGTACGT"), std::string::npos);
}

TEST(Fasta, GenomeFileRoundTrip)
{
    seq::Genome genome("g");
    genome.add_chromosome(seq::Sequence("chrA", "ACGTACGTNNACGT"));
    genome.add_chromosome(seq::Sequence("chrB", "TTTTGGGG"));
    const std::string path = testing::temp_path("genome.fa");
    seq::write_genome_file(path, genome);
    const auto loaded = seq::read_genome(path, "g2");
    ASSERT_EQ(loaded.num_chromosomes(), 2u);
    EXPECT_EQ(loaded.chromosome(0).name(), "chrA");
    EXPECT_EQ(loaded.chromosome(0).to_string(),
              genome.chromosome(0).to_string());
    EXPECT_EQ(loaded.chromosome(1).to_string(),
              genome.chromosome(1).to_string());
}

TEST(Fasta, MissingFileFails)
{
    EXPECT_THROW(seq::read_genome("/nonexistent/path.fa"), FatalError);
}

TEST(GactXParams, InvalidConfigsRejected)
{
    align::GactXParams bad;
    bad.num_pe = 0;
    EXPECT_DEATH(align::GactXTileAligner{bad}, "num_pe");
    align::GactXParams bad2;
    bad2.tile_size = 64;
    bad2.overlap = 128;
    EXPECT_DEATH(align::GactXTileAligner{bad2}, "overlap");
}

TEST(ChainIo, WritesWellFormedUcscChains)
{
    // Two collinear alignments with a small gap; one chain expected.
    seq::Genome target("t");
    target.add_chromosome(
        seq::Sequence("t_chr1", std::string(400, 'A') + "CGT"));
    seq::Genome query("q");
    query.add_chromosome(
        seq::Sequence("q_chr1", std::string(400, 'A') + "CGT"));

    wga::WgaResult result;
    auto make_block = [](std::uint64_t t0, std::uint64_t q0,
                         std::uint32_t len) {
        align::Alignment a;
        a.target_start = t0;
        a.target_end = t0 + len;
        a.query_start = q0;
        a.query_end = q0 + len;
        a.score = 5000;
        a.cigar.push(align::EditOp::Match, len);
        return a;
    };
    result.alignments.push_back(make_block(10, 12, 100));
    result.alignments.push_back(make_block(150, 160, 80));
    chain::Chain chain;
    chain.members = {0, 1};
    chain.score = 9000;
    chain.matched_bases = 180;
    result.chains.push_back(chain);

    std::ostringstream out;
    wga::write_chains(out, result, target, query);
    const std::string text = out.str();
    // Header: chain score tName tSize + tStart tEnd qName qSize + ...
    EXPECT_NE(text.find("chain 9000 t_chr1 403 + 10 230 q_chr1 403 + 12 "
                        "240 1"),
              std::string::npos);
    // Blocks: 100 with gaps (40, 48), then the final 80.
    EXPECT_NE(text.find("100 40 48"), std::string::npos);
    EXPECT_NE(text.find("\n80\n"), std::string::npos);
}

TEST(ChainIo, ClipsOverlappingSeams)
{
    seq::Genome target("t");
    target.add_chromosome(
        seq::Sequence("t_chr1", std::string(300, 'A')));
    seq::Genome query("q");
    query.add_chromosome(seq::Sequence("q_chr1", std::string(300, 'A')));

    wga::WgaResult result;
    align::Alignment a1;
    a1.target_start = 0;
    a1.target_end = 120;
    a1.query_start = 0;
    a1.query_end = 120;
    a1.score = 5000;
    a1.cigar.push(align::EditOp::Match, 120);
    align::Alignment a2;
    a2.target_start = 100;  // overlaps a1 by 20
    a2.target_end = 220;
    a2.query_start = 110;   // overlaps by 10
    a2.query_end = 230;
    a2.score = 5000;
    a2.cigar.push(align::EditOp::Match, 120);
    result.alignments = {a1, a2};
    chain::Chain chain;
    chain.members = {0, 1};
    chain.score = 9000;
    result.chains.push_back(chain);

    std::ostringstream out;
    wga::write_chains(out, result, target, query);
    const std::string text = out.str();
    ASSERT_FALSE(text.empty());
    // Parse block lines and verify monotone non-negative gaps.
    std::istringstream lines(text);
    std::string line;
    std::getline(lines, line);  // header
    EXPECT_EQ(line.rfind("chain ", 0), 0u);
    while (std::getline(lines, line) && !line.empty()) {
        long long size = -1, dt = 0, dq = 0;
        const int fields = std::sscanf(line.c_str(), "%lld %lld %lld",
                                       &size, &dt, &dq);
        EXPECT_GE(fields, 1);
        EXPECT_GT(size, 0);
        EXPECT_GE(dt, 0);
        EXPECT_GE(dq, 0);
    }
}

}  // namespace
}  // namespace darwin
