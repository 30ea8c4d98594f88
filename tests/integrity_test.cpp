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
#include <functional>
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
#include "util/digest.h"
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
    // One digest for the table directory, five for the one table.
    EXPECT_EQ(trailer.num_digests, 1u + kIndexSectionsPerTable);

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
    TableDirEntry table;
    std::memcpy(&table, bytes.data() + sizeof(IndexHeader), sizeof(table));
    const std::string corrupt = flip_byte(
        path, "flip_section_corrupt.dwi",
        table.positions_offset + (info.num_positions / 2) * 4);
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

// ---------------------------------------------------------------------
// Untrusted table structure: files whose checksums are recomputed after
// an edit, so only the structural checks stand between the bytes and a
// lookup. Each must end in a tagged error from load_index and fsck.

/** Recompute every digest and the header digest of a version-3 file
 *  after its section bytes were edited. */
void
reseal(std::vector<char>& bytes)
{
    const auto* base = reinterpret_cast<const std::uint8_t*>(bytes.data());
    IndexHeader header;
    std::memcpy(&header, base, sizeof(header));
    ChecksumTrailer trailer;
    std::memcpy(&trailer, base + bytes.size() - sizeof(trailer),
                sizeof(trailer));
    std::vector<TableDirEntry> tables(header.num_tables);
    std::memcpy(tables.data(), base + header.table_dir_offset,
                tables.size() * sizeof(TableDirEntry));
    std::vector<std::uint64_t> digests = {fnv1a64_bytes(
        {base + header.table_dir_offset,
         tables.size() * sizeof(TableDirEntry)})};
    for (const TableDirEntry& t : tables) {
        const std::uint64_t section[kIndexSectionsPerTable][2] = {
            {t.keys_offset, t.num_keys * 4},
            {t.directory_offset, ((1ULL << t.directory_bits) + 1) * 4},
            {t.offsets_offset, (t.num_keys + 1) * 4},
            {t.positions_offset, t.num_positions * 4},
            {t.over_words_offset, ((t.num_keys + 63) / 64) * 8}};
        for (const auto& [offset, size] : section)
            digests.push_back(fnv1a64_bytes({base + offset, size}));
    }
    ASSERT_EQ(digests.size(), trailer.num_digests);
    std::memcpy(bytes.data() + trailer.digests_offset, digests.data(),
                digests.size() * 8);
    trailer.header_digest = fnv1a64_bytes({base, sizeof(IndexHeader)});
    std::memcpy(bytes.data() + bytes.size() - sizeof(trailer), &trailer,
                sizeof(trailer));
}

/** The first table's entry and a u32 view of one of its sections. */
struct TableEdit {
    std::vector<char> bytes;
    TableDirEntry table;

    std::uint32_t*
    u32_at(std::uint64_t offset)
    {
        return reinterpret_cast<std::uint32_t*>(bytes.data() + offset);
    }
};

TableEdit
open_for_edit(const std::string& path)
{
    TableEdit edit{slurp(path), {}};
    std::memcpy(&edit.table, edit.bytes.data() + sizeof(IndexHeader),
                sizeof(edit.table));
    return edit;
}

/** Reseal `edit`, write it as `name`, and expect both load_index and
 *  fsck to refuse it with `fragment` in the message. */
void
expect_structure_rejected(TableEdit& edit, const std::string& name,
                          const std::string& fragment)
{
    reseal(edit.bytes);
    const std::string path = temp_path(name);
    spit(path, edit.bytes);
    try {
        load_index(path);
        ADD_FAILURE() << name << ": load_index accepted the file";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
            << name << ": " << e.what();
    }
    const auto findings = fsck_file(path);
    ASSERT_EQ(findings.size(), 1u) << name;
    EXPECT_EQ(findings[0].code, "bad-index");
    EXPECT_NE(findings[0].detail.find(fragment), std::string::npos)
        << name << ": " << findings[0].detail;
}

/** First key index i whose successor sits under the same prefix. */
std::uint32_t
same_prefix_pair(TableEdit& edit, unsigned key_bits)
{
    const std::uint32_t* keys = edit.u32_at(edit.table.keys_offset);
    const unsigned shift = key_bits - edit.table.directory_bits;
    for (std::uint32_t i = 0; i + 1 < edit.table.num_keys; ++i) {
        if ((keys[i] >> shift) == (keys[i + 1] >> shift))
            return i;
    }
    ADD_FAILURE() << "no two keys share a directory prefix";
    return 0;
}

TEST(IndexStructure, UntrustedTablesEndInTaggedErrors)
{
    const auto sequence = random_sequence(6000, 31);
    const std::string path = write_index("structure.dwi", sequence);
    const unsigned key_bits = static_cast<unsigned>(
        2 * seed::SeedPattern(wga::WgaParams::darwin_defaults().seed_pattern)
                .weight());
    // A clean file passes both readers.
    ASSERT_TRUE(fsck_file(path).empty());
    {
        TableEdit edit = open_for_edit(path);
        const std::uint64_t entries =
            (1ULL << edit.table.directory_bits) + 1;
        std::uint32_t* dir = edit.u32_at(edit.table.directory_offset);
        dir[entries / 2] = dir[entries / 2 + 1] + 1;
        expect_structure_rejected(edit, "dir_not_monotone.dwi",
                                  "directory is not monotone");
    }
    {
        TableEdit edit = open_for_edit(path);
        std::uint32_t* keys = edit.u32_at(edit.table.keys_offset);
        const std::uint32_t i = same_prefix_pair(edit, key_bits);
        std::swap(keys[i], keys[i + 1]);
        expect_structure_rejected(edit, "keys_unsorted.dwi",
                                  "not strictly ascending");
    }
    {
        TableEdit edit = open_for_edit(path);
        std::uint32_t* keys = edit.u32_at(edit.table.keys_offset);
        const std::uint32_t i = same_prefix_pair(edit, key_bits);
        keys[i + 1] = keys[i];
        expect_structure_rejected(edit, "keys_duplicate.dwi",
                                  "not strictly ascending");
    }
    {
        TableEdit edit = open_for_edit(path);
        std::uint32_t* keys = edit.u32_at(edit.table.keys_offset);
        keys[edit.table.num_keys / 2] ^= 1u << (key_bits - 1);
        expect_structure_rejected(edit, "key_wrong_prefix.dwi",
                                  "wrong directory prefix");
    }
    {
        TableEdit edit = open_for_edit(path);
        std::uint32_t* offsets = edit.u32_at(edit.table.offsets_offset);
        offsets[edit.table.num_keys] += 7;
        expect_structure_rejected(edit, "offsets_past_end.dwi",
                                  "position section's end");
    }
    {
        TableEdit edit = open_for_edit(path);
        std::uint32_t* offsets = edit.u32_at(edit.table.offsets_offset);
        offsets[edit.table.num_keys / 2] =
            static_cast<std::uint32_t>(edit.table.num_positions + 100);
        expect_structure_rejected(edit, "offsets_overrun.dwi",
                                  "offsets are not monotone");
    }
    {
        TableEdit edit = open_for_edit(path);
        std::uint32_t* positions = edit.u32_at(edit.table.positions_offset);
        positions[0] = static_cast<std::uint32_t>(sequence.size());
        expect_structure_rejected(edit, "position_past_target.dwi",
                                  "past the");
    }
}

TEST(IndexStructure, ShardedTableStructureIsCheckedPerShard)
{
    const auto sequence = random_sequence(20'000, 32);
    const wga::WgaParams params = wga::WgaParams::darwin_defaults();
    const std::string path = temp_path("structure_sharded.dwi");
    const seq::PackedSequence packed = seq::PackedSequence::pack(sequence);
    const seed::ShardedSeedIndexBuilder builder(
        packed, seed::SeedPattern(params.seed_pattern), 256, 7'000,
        params.dsoft.chunk_size, params.dsoft.bin_size);
    save_sharded_index(path, builder, 7'000, sequence_digest(sequence),
                       sequence.size());
    ASSERT_TRUE(fsck_file(path).empty());

    std::vector<char> bytes = slurp(path);
    IndexHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    ASSERT_GT(header.num_tables, 1u);
    TableDirEntry last;
    const std::uint64_t entry_offset =
        header.table_dir_offset +
        (header.num_tables - 1) * sizeof(TableDirEntry);
    std::memcpy(&last, bytes.data() + entry_offset, sizeof(last));
    auto* dir = reinterpret_cast<std::uint32_t*>(bytes.data() +
                                                 last.directory_offset);
    dir[1] = dir[2] + 1;
    reseal(bytes);
    const std::string bad = temp_path("structure_sharded_bad.dwi");
    spit(bad, bytes);

    // The reader opens (header, geometry and digests hold); the broken
    // shard is refused when attached, tagged with its number.
    const ShardedIndexReader reader(bad);
    EXPECT_NE(reader.open_shard(0), nullptr);
    try {
        reader.open_shard(header.num_tables - 1);
        FAIL() << "broken shard attached";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("directory is not monotone"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("shard"), std::string::npos)
            << e.what();
    }
    const auto findings = fsck_file(bad);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].code, "bad-index");
}

TEST(IndexStructure, DenseVersionOneAndTwoFilesAskForARebuild)
{
    // Versions 1 and 2 held a dense 4^weight offset table. Their header
    // keeps magic, version and endian tag where version 3 has them, so
    // a stamped version is all a reader sees before refusing.
    const auto sequence = random_sequence(4096, 33);
    const std::string path = write_index("dense_src.dwi", sequence);
    for (const std::uint32_t version : {1u, 2u}) {
        std::vector<char> bytes = slurp(path);
        std::memcpy(bytes.data() + 8, &version, sizeof(version));
        const std::string dense =
            temp_path(strprintf("dense_v%u.dwi", version));
        spit(dense, bytes);
        for (const auto& read : {std::function<void()>([&] {
                                     load_index(dense);
                                 }),
                                 std::function<void()>([&] {
                                     read_index_info(dense);
                                 })}) {
            try {
                read();
                ADD_FAILURE() << "dense v" << version << " accepted";
            } catch (const FatalError& e) {
                EXPECT_NE(std::string(e.what()).find("rebuild"),
                          std::string::npos)
                    << e.what();
                EXPECT_NE(std::string(e.what()).find(
                              strprintf("version-%u", version)),
                          std::string::npos)
                    << e.what();
            }
        }
        const auto findings = fsck_file(dense);
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].code, "bad-index");
        EXPECT_NE(findings[0].detail.find("rebuild"), std::string::npos)
            << findings[0].detail;
    }
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
    const std::vector<char> bytes = slurp(path);
    IndexHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    TableDirEntry last;
    std::memcpy(&last,
                bytes.data() + header.table_dir_offset +
                    (header.num_tables - 1) * sizeof(TableDirEntry),
                sizeof(last));
    ASSERT_GT(last.num_positions, 0u);
    const std::string corrupt =
        flip_byte(path, "sharded_corrupt.dwi",
                  last.positions_offset + (last.num_positions / 2) * 4);
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
