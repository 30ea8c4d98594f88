/**
 * @file
 * Crash-safety artifact integrity tests: the checksum area appended to
 * `.dwi` files (monolithic and sharded), the digest pair embedded in
 * `.2bit` headers, legacy (pre-checksum) file acceptance, the
 * `darwin-wga-index fsck` validator over every artifact kind, and the
 * stream.spill_* fault probes (a spill I/O fault quarantines the pair,
 * it does not kill the process).
 */
#include <gtest/gtest.h>


#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "batch/checkpoint.h"
#include "batch/scheduler.h"
#include "fault/fault_plan.h"
#include "index/format.h"
#include "index/fsck.h"
#include "index/index_io.h"
#include "obs/metrics.h"
#include "seed/seed_index.h"
#include "seed/sharded_index.h"
#include "seq/packed_io.h"
#include "seq/packed_sequence.h"
#include "seq/sequence.h"
#include "synth/species.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"
#include "wga/params.h"
#include "test_temp_dir.h"

namespace darwin::index {
namespace {

using darwin::testing::temp_path;

seq::Sequence
random_sequence(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return seq::Sequence("rand", std::move(codes));
}

std::vector<char>
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Copy `src` with one byte at `offset` XOR-flipped. */
std::string
flip_byte(const std::string& src, const std::string& name,
          std::size_t offset)
{
    std::vector<char> bytes = slurp(src);
    EXPECT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    const std::string path = temp_path(name);
    spit(path, bytes);
    return path;
}

/** Write a monolithic index for a deterministic sequence. */
std::string
write_index(const std::string& name, const seq::Sequence& sequence)
{
    const std::string path = temp_path(name);
    const wga::WgaParams params = wga::WgaParams::darwin_defaults();
    const seed::SeedIndex index(sequence,
                                seed::SeedPattern(params.seed_pattern));
    save_index(path, index, sequence_digest(sequence), sequence.size());
    return path;
}

TEST(Checksums, FreshIndexCarriesATrailerAndLoads)
{
    const auto sequence = random_sequence(4096, 11);
    const std::string path = write_index("fresh.dwi", sequence);

    const IndexInfo info = read_index_info(path);
    const std::vector<char> bytes = slurp(path);
    ASSERT_EQ(bytes.size(), info.total_bytes);
    // The last 64 bytes are a checksum trailer with the right magic.
    ChecksumTrailer trailer;
    std::memcpy(&trailer, bytes.data() + bytes.size() - sizeof(trailer),
                sizeof(trailer));
    EXPECT_EQ(std::memcmp(trailer.magic, kIndexChecksumMagic,
                          sizeof(kIndexChecksumMagic)),
              0);
    EXPECT_EQ(trailer.num_digests, 3u);

    const auto index = load_index(path);
    EXPECT_GT(index->positions().size(), 0u);
}

TEST(Checksums, CorruptSectionByteIsRejected)
{
    const auto sequence = random_sequence(4096, 12);
    const std::string path = write_index("flip_section.dwi", sequence);
    const IndexInfo info = read_index_info(path);

    // Flip one byte in the middle of the positions section; the header
    // still validates, so only the digest pass can catch this.
    const std::vector<char> bytes = slurp(path);
    IndexHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    const std::string corrupt = flip_byte(
        path, "flip_section_corrupt.dwi",
        header.positions_offset + (info.num_positions / 2) * 4);
    try {
        load_index(corrupt);
        FAIL() << "corrupt section must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checksums, CorruptHeaderByteIsRejected)
{
    const auto sequence = random_sequence(4096, 13);
    const std::string path = write_index("flip_header.dwi", sequence);
    // sequence_digest lives at offset 16: geometry checks still pass,
    // the header digest is what refuses the file.
    const std::string corrupt =
        flip_byte(path, "flip_header_corrupt.dwi", 16);
    try {
        load_index(corrupt);
        FAIL() << "corrupt header must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checksums, LegacyIndexWithoutTrailerStillLoads)
{
    const auto sequence = random_sequence(4096, 14);
    const std::string path = write_index("legacy_src.dwi", sequence);
    const std::vector<char> with = slurp(path);
    IndexHeader header;
    std::memcpy(&header, with.data(), sizeof(header));

    // Reconstruct the pre-checksum format: truncate the file at its
    // sections' end and patch total_bytes back to that size.
    const std::uint64_t over_bytes = ((header.num_buckets + 63) / 64) * 8;
    const std::uint64_t sections_end =
        align_section(header.over_words_offset + over_bytes);
    std::vector<char> legacy(with.begin(),
                             with.begin() +
                                 static_cast<std::ptrdiff_t>(sections_end));
    header.total_bytes = sections_end;
    std::memcpy(legacy.data(), &header, sizeof(header));
    const std::string legacy_path = temp_path("legacy.dwi");
    spit(legacy_path, legacy);

    // Loads cleanly (no checksums to verify), identical table.
    const auto fresh = load_index(path);
    const auto old = load_index(legacy_path);
    ASSERT_EQ(old->positions().size(), fresh->positions().size());
    EXPECT_TRUE(std::equal(old->positions().begin(),
                           old->positions().end(),
                           fresh->positions().begin()));
}

TEST(Checksums, ShardedIndexRoundTripsAndRejectsCorruption)
{
    const auto sequence = random_sequence(20'000, 15);
    const wga::WgaParams params = wga::WgaParams::darwin_defaults();
    const seed::SeedPattern pattern(params.seed_pattern);
    const std::string path = temp_path("sharded.dwi");

    seq::PackedSequence packed = seq::PackedSequence::pack(sequence);
    const seed::ShardedSeedIndexBuilder builder(
        packed, pattern, 256, 7'000, params.dsoft.chunk_size,
        params.dsoft.bin_size);
    save_sharded_index(path, builder, 7'000, sequence_digest(sequence),
                       sequence.size());

    // Round-trip: every shard opens and the trailer is well-formed.
    {
        const ShardedIndexReader reader(path);
        ASSERT_GT(reader.num_shards(), 1u);
        for (std::size_t s = 0; s < reader.num_shards(); ++s)
            EXPECT_NE(reader.open_shard(s), nullptr);
    }

    // Corrupt one byte inside the last shard's positions and the
    // reader must refuse the whole file at construction.
    const IndexInfo info = read_index_info(path);
    const std::string corrupt =
        flip_byte(path, "sharded_corrupt.dwi",
                  static_cast<std::size_t>(info.total_bytes) -
                      sizeof(ChecksumTrailer) - 128);
    try {
        const ShardedIndexReader reader(corrupt);
        FAIL() << "corrupt sharded index must not open";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

/** A tiny genome written as FASTA, for `.2bit` sidecar tests. */
std::string
write_fasta(const std::string& name)
{
    const std::string path = temp_path(name);
    std::ofstream out(path);
    out << ">chr1\n";
    Rng rng(99);
    const char* bases = "ACGT";
    for (int line = 0; line < 40; ++line) {
        for (int i = 0; i < 60; ++i)
            out << bases[rng.uniform(4)];
        out << "\n";
    }
    return path;
}

TEST(Checksums, PackedSidecarCarriesDigestsAndRejectsCorruption)
{
    const std::string fasta = write_fasta("packed.fa");
    const std::string sidecar = fasta + ".2bit";
    const seq::Genome genome = seq::read_genome_packed(fasta);
    ASSERT_TRUE(std::ifstream(sidecar).good());

    // The header carries nonzero digests...
    const std::vector<char> bytes = slurp(sidecar);
    seq::PackedHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::uint64_t payload_digest = 0;
    std::memcpy(&payload_digest, header.reserved, 8);
    EXPECT_NE(payload_digest, 0u);

    // ...and a clean reload verifies them.
    const seq::Genome reloaded = seq::load_packed_genome(sidecar);
    EXPECT_EQ(reloaded.total_length(), genome.total_length());

    // A flipped payload byte is refused by the direct loader (the
    // read_genome_packed wrapper would silently rebuild — which is the
    // production behavior, but hides the rejection under test).
    const std::string corrupt = flip_byte(
        sidecar, "packed_corrupt.2bit", sizeof(seq::PackedHeader) + 32);
    try {
        seq::load_packed_genome(corrupt);
        FAIL() << "corrupt sidecar must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << e.what();
    }

    // A flipped header byte (the FASTA digest field) likewise.
    const std::string corrupt_header =
        flip_byte(sidecar, "packed_corrupt_header.2bit", 16);
    try {
        seq::load_packed_genome(corrupt_header);
        FAIL() << "corrupt sidecar header must not load";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checksums, LegacyPackedSidecarLoadsUnverified)
{
    const std::string fasta = write_fasta("packed_legacy.fa");
    const std::string sidecar = fasta + ".2bit";
    seq::read_genome_packed(fasta);

    // Zero both digest fields (as a pre-checksum writer left them) and
    // the loader must accept the file without verification.
    std::vector<char> bytes = slurp(sidecar);
    seq::PackedHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::memset(header.reserved, 0, 16);
    std::memcpy(bytes.data(), &header, sizeof(header));
    const std::string legacy = temp_path("packed_zeroed.2bit");
    spit(legacy, bytes);
    EXPECT_GT(seq::load_packed_genome(legacy).total_length(), 0u);
}

// ---------------------------------------------------------------------
// fsck

TEST(Fsck, CleanArtifactsOfEveryKindReportNoFindings)
{
    const auto sequence = random_sequence(4096, 21);
    const std::string dwi = write_index("fsck_clean.dwi", sequence);
    const std::string fasta = write_fasta("fsck_clean.fa");
    seq::read_genome_packed(fasta);

    const std::string journal = temp_path("fsck_clean.jsonl");
    {
        auto j = batch::CheckpointJournal::create(
            journal, batch::config_fingerprint("fsck-test"));
        batch::write_file_atomic(temp_path("fsck_p0.maf"),
                                 "a\n");
        j.record({"p0", fault::PairStatus::Clean, "",
                  "fsck_p0.maf"});
        j.record({"p1", fault::PairStatus::Quarantined, "injected", ""});
        j.close();
    }

    for (const std::string& path :
         {dwi, fasta + ".2bit", journal}) {
        std::string kind;
        const auto findings = fsck_file(path, &kind);
        EXPECT_TRUE(findings.empty())
            << path << ": " << (findings.empty()
                                    ? ""
                                    : findings[0].code + ": " +
                                          findings[0].detail);
        EXPECT_NE(kind, "unknown") << path;
    }
}

TEST(Fsck, TaggedFindingsForEveryFailureMode)
{
    // Missing file.
    {
        const auto findings = fsck_file(temp_path("nope.dwi"));
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "missing");
    }
    // Unknown type.
    {
        const std::string path = temp_path("fsck_unknown.bin");
        std::ofstream(path) << "plain text";
        const auto findings = fsck_file(path);
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "unknown-type");
    }
    // Corrupt index.
    {
        const auto sequence = random_sequence(4096, 22);
        const std::string dwi = write_index("fsck_bad.dwi", sequence);
        const std::string corrupt =
            flip_byte(dwi, "fsck_bad_corrupt.dwi", 300);
        std::string kind;
        const auto findings = fsck_file(corrupt, &kind);
        EXPECT_EQ(kind, "index");
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "bad-index");
        EXPECT_NE(findings[0].detail.find("checksum"), std::string::npos)
            << findings[0].detail;
    }
    // Corrupt sidecar.
    {
        const std::string fasta = write_fasta("fsck_bad.fa");
        seq::read_genome_packed(fasta);
        const std::string corrupt = flip_byte(
            fasta + ".2bit", "fsck_bad.2bit", 200);
        std::string kind;
        const auto findings = fsck_file(corrupt, &kind);
        EXPECT_EQ(kind, "packed-genome");
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "bad-packed");
    }
    // Journal with a bad status and a missing journaled output.
    {
        const std::string path = temp_path("fsck_bad.jsonl");
        std::ofstream(path)
            << "{\"journal\":\"darwin-wga-batch\",\"version\":1,"
               "\"config\":\"0123456789abcdef\"}\n"
            << "{\"pair\":\"p0\",\"status\":\"exploded\"}\n"
            << "{\"pair\":\"p1\",\"status\":\"clean\","
               "\"output\":\"never_written.maf\"}\n";
        std::string kind;
        const auto findings = fsck_file(path, &kind);
        EXPECT_EQ(kind, "journal");
        ASSERT_EQ(findings.size(), 2u);
        EXPECT_EQ(findings[0].code, "bad-journal");
        EXPECT_NE(findings[0].detail.find("exploded"), std::string::npos);
        EXPECT_NE(findings[1].detail.find("never_written.maf"),
                  std::string::npos);
    }
}

TEST(Fsck, FaultProbeFires)
{
    const auto plan = fault::FaultPlan::parse("index.fsck:throw");
    fault::install_fault_plan(&plan);
    EXPECT_THROW(fsck_file(temp_path("whatever")),
                 fault::InjectedFault);
    fault::install_fault_plan(nullptr);
}

// ---------------------------------------------------------------------
// Spill fault probes: an injected spill-write fault quarantines the
// pair in a streaming batch run; the process and sibling pairs are
// untouched.

TEST(SpillFaults, SpillWriteFaultQuarantinesThePairNotTheProcess)
{
    synth::AncestorConfig shape;
    shape.num_chromosomes = 1;
    shape.chromosome_length = 15'000;
    shape.exons_per_chromosome = 10;
    const auto specs = synth::paper_species_pairs();
    std::vector<synth::SpeciesPair> pairs;
    for (int i = 0; i < 2; ++i)
        pairs.push_back(synth::make_species_pair(
            specs[i % specs.size()], shape, 4'321 + i));

    std::vector<batch::BatchJob> jobs;
    for (std::size_t i = 0; i < pairs.size(); ++i)
        jobs.push_back({strprintf("pair%zu", i), &pairs[i].target.genome,
                        &pairs[i].query.genome});

    batch::BatchOptions options;
    options.params = wga::WgaParams::darwin_defaults();
    options.num_threads = 2;
    options.streaming = true;
    // Tiny capacities force the hit stream to spill on this input —
    // the same settings stream_test uses to exercise the spill path.
    options.streaming_params.shard_bp = 7'000;
    options.streaming_params.hit_stream_capacity = 64;
    options.streaming_params.candidate_chunk = 16;
    options.streaming_params.filter_batch = 32;
    options.streaming_params.spill = true;

    const auto plan =
        fault::FaultPlan::parse("stream.spill_write:throw:pair=1");
    fault::install_fault_plan(&plan);
    obs::MetricsRegistry metrics;
    batch::BatchScheduler scheduler(options, &metrics);
    const auto results = scheduler.run(jobs);
    fault::install_fault_plan(nullptr);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, fault::PairStatus::Clean)
        << results[0].quarantine.message;
    EXPECT_EQ(results[1].status, fault::PairStatus::Quarantined)
        << "the spill-write fault must quarantine pair 1";
    EXPECT_NE(results[1].quarantine.message.find("injected"),
              std::string::npos)
        << results[1].quarantine.message;
    EXPECT_GE(plan.injected(), 1u);
}

}  // namespace
}  // namespace darwin::index
