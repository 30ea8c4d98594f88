#include "index/index_io.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/cancel.h"
#include "index/format.h"
#include "util/digest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::index {

namespace {

/** RAII owner of one read-only mapping; the shared_ptr keepalive the
 *  attached SeedIndex holds. */
class Mapping {
  public:
    Mapping(void* data, std::size_t size) : data_(data), size_(size) {}

    ~Mapping()
    {
        if (data_ != nullptr)
            ::munmap(data_, size_);
    }

    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;

    const std::uint8_t*
    bytes() const
    {
        return static_cast<const std::uint8_t*>(data_);
    }

    std::size_t size() const { return size_; }

  private:
    void* data_;
    std::size_t size_;
};

[[noreturn]] void
bad_index(const std::string& path, const std::string& what)
{
    fatal(strprintf("%s: %s", path.c_str(), what.c_str()));
}

/** Validate everything decodable from the 192 header bytes alone. */
IndexHeader
validate_header(const std::string& path, const std::uint8_t* bytes,
                std::uint64_t file_size)
{
    if (file_size < sizeof(IndexHeader))
        bad_index(path, strprintf("truncated index header (%llu bytes, "
                                  "need %zu)",
                                  static_cast<unsigned long long>(file_size),
                                  sizeof(IndexHeader)));
    IndexHeader header;
    std::memcpy(&header, bytes, sizeof(header));
    if (std::memcmp(header.magic, kIndexMagic, sizeof(kIndexMagic)) != 0)
        bad_index(path, "not a darwin-wga index file (bad magic)");
    if (header.endian_tag != kIndexEndianTag)
        bad_index(path, "index was written with a different byte order");
    if (header.version >= 1 && header.version <= kIndexLastDenseVersion)
        bad_index(path,
                  strprintf("dense version-%u index layout is no longer "
                            "read (this build reads version %u); rebuild "
                            "it with darwin-wga-index build",
                            header.version, kIndexFormatVersion));
    if (header.version != kIndexFormatVersion)
        bad_index(path,
                  strprintf("unsupported index format version %u "
                            "(this build reads version %u; rebuild with "
                            "darwin-wga-index)",
                            header.version, kIndexFormatVersion));
    if (header.total_bytes != file_size)
        bad_index(path, strprintf("truncated or padded index file "
                                  "(header records %llu bytes, file has "
                                  "%llu)",
                                  static_cast<unsigned long long>(
                                      header.total_bytes),
                                  static_cast<unsigned long long>(
                                      file_size)));
    if (header.pattern_length == 0 ||
        header.pattern_length > kIndexMaxPatternLength)
        bad_index(path, strprintf("invalid seed-shape length %u",
                                  header.pattern_length));
    if (header.pattern[header.pattern_length] != '\0')
        bad_index(path, "seed-shape field is not NUL-terminated");
    for (std::uint32_t i = 0; i < header.pattern_length; ++i) {
        if (header.pattern[i] != '0' && header.pattern[i] != '1')
            bad_index(path, "seed-shape field holds non-'0'/'1' bytes");
    }
    if (header.max_bucket == 0)
        bad_index(path, "max_bucket of zero");
    if (header.num_tables == 0)
        bad_index(path, "index with zero tables");
    if (header.shard_bp == 0 && header.num_tables != 1)
        bad_index(path, strprintf("monolithic index with %u tables",
                                  header.num_tables));
    if (header.table_dir_offset != sizeof(IndexHeader) ||
        header.table_dir_offset +
                static_cast<std::uint64_t>(header.num_tables) *
                    sizeof(TableDirEntry) >
            header.total_bytes)
        bad_index(path, "table directory falls outside the file");
    return header;
}

/** One checksummed region: content bytes of a section. */
struct SectionSpan {
    const std::uint8_t* data;
    std::uint64_t bytes;
};

/** Verify header + per-section digests against the trailer; fatal on
 *  any mismatch (tagged "checksum mismatch"). */
void
verify_checksums(const std::string& path, const std::uint8_t* base,
                 const std::vector<SectionSpan>& sections,
                 const ChecksumTrailer& trailer)
{
    if (trailer.header_digest !=
        fnv1a64_bytes({base, sizeof(IndexHeader)}))
        bad_index(path, "header checksum mismatch (corrupt index?)");
    if (trailer.num_digests != sections.size())
        bad_index(path,
                  strprintf("checksum mismatch: trailer carries %u "
                            "section digests, layout has %zu sections",
                            trailer.num_digests, sections.size()));
    const auto* digests = reinterpret_cast<const std::uint64_t*>(
        base + trailer.digests_offset);
    for (std::size_t i = 0; i < sections.size(); ++i) {
        if (digests[i] !=
            fnv1a64_bytes({sections[i].data, sections[i].bytes}))
            bad_index(path,
                      strprintf("section %zu checksum mismatch "
                                "(corrupt index?)",
                                i));
    }
}

/** Byte offsets of one table's five sections, laid out from `start`. */
struct TableLayout {
    std::uint64_t offset[kIndexSectionsPerTable];
    std::uint64_t bytes[kIndexSectionsPerTable];
    std::uint64_t end;
};

TableLayout
layout_table(std::uint64_t start, std::uint64_t num_keys,
             unsigned directory_bits, std::uint64_t num_positions)
{
    TableLayout layout;
    layout.bytes[0] = num_keys * 4;
    layout.bytes[1] = ((std::uint64_t{1} << directory_bits) + 1) * 4;
    layout.bytes[2] = (num_keys + 1) * 4;
    layout.bytes[3] = num_positions * 4;
    layout.bytes[4] = ((num_keys + 63) / 64) * 8;
    std::uint64_t cursor = start;
    for (std::uint32_t i = 0; i < kIndexSectionsPerTable; ++i) {
        layout.offset[i] = align_section(cursor);
        cursor = layout.offset[i] + layout.bytes[i];
    }
    layout.end = cursor;
    return layout;
}

/** The recorded offsets of `entry`, in layout order. */
std::array<std::uint64_t, kIndexSectionsPerTable>
recorded_offsets(const TableDirEntry& entry)
{
    return {entry.keys_offset, entry.directory_offset, entry.offsets_offset,
            entry.positions_offset, entry.over_words_offset};
}

/** The checksum-inclusive total size for a file whose sections end at
 *  `sections_end` and carry `num_digests` section digests. */
constexpr std::uint64_t
checksummed_total(std::uint64_t sections_end, std::size_t num_digests)
{
    return align_section(sections_end + num_digests * 8) +
           sizeof(ChecksumTrailer);
}

void
write_padding(std::ofstream& out, std::uint64_t current,
              std::uint64_t target)
{
    static const char zeros[kIndexSectionAlign] = {};
    while (current < target) {
        const std::uint64_t n =
            std::min<std::uint64_t>(target - current, sizeof(zeros));
        out.write(zeros, static_cast<std::streamsize>(n));
        current += n;
    }
}

std::uint64_t
digest_of(const void* data, std::uint64_t bytes)
{
    return fnv1a64_bytes({static_cast<const std::uint8_t*>(data),
                          static_cast<std::size_t>(bytes)});
}

/** Header fields shared by monolithic and sharded files. */
IndexHeader
make_header(const std::string& path, const seed::SeedPattern& pattern,
            std::uint32_t max_bucket, std::uint64_t digest,
            std::uint64_t length, std::uint64_t skipped,
            std::uint64_t truncated, std::uint64_t shard_bp)
{
    const std::string& shape = pattern.pattern();
    if (shape.size() > kIndexMaxPatternLength)
        fatal(strprintf("%s: seed shape of %zu bp exceeds the index "
                        "format's %u bp limit",
                        path.c_str(), shape.size(), kIndexMaxPatternLength));
    IndexHeader header = {};
    std::memcpy(header.magic, kIndexMagic, sizeof(kIndexMagic));
    header.version = kIndexFormatVersion;
    header.endian_tag = kIndexEndianTag;
    header.sequence_digest = digest;
    header.sequence_length = length;
    header.max_bucket = max_bucket;
    header.pattern_length = static_cast<std::uint32_t>(shape.size());
    std::memcpy(header.pattern, shape.data(), shape.size());
    header.skipped_windows = skipped;
    header.truncated_buckets = truncated;
    header.shard_bp = shard_bp;
    header.table_dir_offset = sizeof(IndexHeader);
    return header;
}

/**
 * Write a complete index file: header, table directory, then each
 * table's five sections as `table_at(s)` produces them (one table
 * resident at a time), the digest array and the trailer. Band fields
 * come from `plan` (empty for a monolithic file). Atomic: tmp + rename.
 */
void
write_index_file(
    const std::string& path, IndexHeader header,
    const std::vector<seed::ShardPlan>& plan, std::size_t num_tables,
    const std::function<std::shared_ptr<const seed::SeedIndex>(std::size_t)>&
        table_at)
{
    header.num_tables = static_cast<std::uint32_t>(num_tables);
    std::vector<TableDirEntry> dir(num_tables, TableDirEntry{});
    const std::uint64_t dir_bytes = dir.size() * sizeof(TableDirEntry);

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out)
            fatal(strprintf("cannot write %s", tmp.c_str()));
        const auto write_bytes = [&out](const void* data,
                                        std::uint64_t bytes) {
            out.write(static_cast<const char*>(data),
                      static_cast<std::streamsize>(bytes));
        };
        // Header and directory go out as placeholders first (the table
        // sizes are only known after each build) and are patched in
        // place before the rename publishes the file.
        write_bytes(&header, sizeof(header));
        write_bytes(dir.data(), dir_bytes);

        std::uint64_t cursor = header.table_dir_offset + dir_bytes;
        std::vector<std::uint64_t> digests = {0};  // directory, patched
        for (std::size_t s = 0; s < num_tables; ++s) {
            const auto table = table_at(s);
            const seed::SeedIndex::Sections& sections = table->sections();
            TableDirEntry& entry = dir[s];
            if (!plan.empty()) {
                entry.band_lo = plan[s].band_lo;
                entry.band_hi = plan[s].band_hi;
                entry.slice_lo = plan[s].slice_lo;
                entry.slice_hi = plan[s].slice_hi;
            }
            entry.num_keys = table->num_keys();
            entry.num_positions = table->num_positions();
            entry.directory_bits = table->directory_bits();
            const TableLayout layout =
                layout_table(cursor, entry.num_keys, entry.directory_bits,
                             entry.num_positions);
            entry.keys_offset = layout.offset[0];
            entry.directory_offset = layout.offset[1];
            entry.offsets_offset = layout.offset[2];
            entry.positions_offset = layout.offset[3];
            entry.over_words_offset = layout.offset[4];
            const void* data[kIndexSectionsPerTable] = {
                sections.keys.data(), sections.directory.data(),
                sections.offsets.data(), sections.positions.data(),
                sections.over_words.data()};
            for (std::uint32_t i = 0; i < kIndexSectionsPerTable; ++i) {
                write_padding(out, cursor, layout.offset[i]);
                write_bytes(data[i], layout.bytes[i]);
                digests.push_back(digest_of(data[i], layout.bytes[i]));
                cursor = layout.offset[i] + layout.bytes[i];
            }
            header.num_keys += entry.num_keys;
            header.num_positions += entry.num_positions;
        }
        const std::uint64_t sections_end = align_section(cursor);
        write_padding(out, cursor, sections_end);

        // The directory digest covers the final (patched) entries; the
        // header digest covers the final header including total_bytes.
        digests[0] = digest_of(dir.data(), dir_bytes);
        header.total_bytes = checksummed_total(sections_end, digests.size());
        ChecksumTrailer trailer = {};
        std::memcpy(trailer.magic, kIndexChecksumMagic,
                    sizeof(kIndexChecksumMagic));
        trailer.version = kIndexChecksumVersion;
        trailer.num_digests = static_cast<std::uint32_t>(digests.size());
        trailer.digests_offset = sections_end;
        trailer.header_digest = digest_of(&header, sizeof(header));
        write_bytes(digests.data(), digests.size() * 8);
        const std::uint64_t trailer_offset =
            header.total_bytes - sizeof(ChecksumTrailer);
        write_padding(out, sections_end + digests.size() * 8,
                      trailer_offset);
        write_bytes(&trailer, sizeof(trailer));

        out.seekp(0);
        write_bytes(&header, sizeof(header));
        write_bytes(dir.data(), dir_bytes);
        out.flush();
        if (!out)
            fatal(strprintf("error writing %s", tmp.c_str()));
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        fatal(strprintf("cannot rename %s -> %s: %s", tmp.c_str(),
                        path.c_str(), ec.message().c_str()));
    }
}

}  // namespace

std::uint64_t
sequence_digest(seq::BaseView sequence)
{
    // FNV-1a chains: digesting window-by-window with the running hash
    // as the next seed equals one pass over the concatenated bytes, so
    // packed storage (decoded one window at a time) digests exactly as
    // bytes do.
    constexpr std::size_t kWindow = 1u << 20;
    std::vector<std::uint8_t> scratch;
    std::uint64_t hash = kFnv1aBasis;
    for (std::size_t start = 0; start < sequence.size();
         start += kWindow) {
        const std::size_t len =
            std::min(kWindow, sequence.size() - start);
        hash = fnv1a64_bytes(sequence.materialize(start, len, &scratch),
                             hash);
    }
    return hash;
}

void
save_index(const std::string& path, const seed::SeedIndex& index,
           std::uint64_t digest, std::uint64_t length)
{
    const IndexHeader header = make_header(
        path, index.pattern(), index.max_bucket(), digest, length,
        index.skipped_windows(), index.truncated_buckets(), 0);
    // Non-owning handle: the caller's index outlives the write.
    const std::shared_ptr<const seed::SeedIndex> table(
        std::shared_ptr<const seed::SeedIndex>{}, &index);
    write_index_file(path, header, {}, 1,
                     [&table](std::size_t) { return table; });
}

namespace {

/** mmap `path` read-only; fatal on any failure. */
std::shared_ptr<Mapping>
map_index_file(const std::string& path)
{
    fault::poll("index.mmap");
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal(strprintf("cannot open index %s: %s", path.c_str(),
                        std::strerror(errno)));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(strprintf("cannot stat index %s: %s", path.c_str(),
                        std::strerror(err)));
    }
    const auto file_size = static_cast<std::uint64_t>(st.st_size);
    if (file_size == 0) {
        ::close(fd);
        bad_index(path, "empty index file");
    }
    void* data = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int map_err = errno;
    ::close(fd);  // the mapping keeps its own reference
    if (data == MAP_FAILED)
        fatal(strprintf("cannot mmap index %s: %s", path.c_str(),
                        std::strerror(map_err)));
    return std::make_shared<Mapping>(data, file_size);
}

void
fill_info(IndexInfo* info, const IndexHeader& header)
{
    info->version = header.version;
    info->sequence_digest = header.sequence_digest;
    info->sequence_length = header.sequence_length;
    info->max_bucket = header.max_bucket;
    info->pattern.assign(header.pattern, header.pattern_length);
    info->num_keys = header.num_keys;
    info->num_positions = header.num_positions;
    info->skipped_windows = header.skipped_windows;
    info->truncated_buckets = header.truncated_buckets;
    info->total_bytes = header.total_bytes;
    info->shard_bp = header.shard_bp;
    info->num_shards = header.shard_bp != 0 ? header.num_tables : 0;
}

seed::SeedPattern
parse_pattern(const std::string& path, const std::string& shape)
{
    try {
        return seed::SeedPattern{shape};
    } catch (const FatalError& e) {
        bad_index(path, strprintf("invalid seed shape: %s", e.what()));
    }
}

/** A mapped index whose header, table geometry and checksums passed. */
struct MappedIndex {
    std::shared_ptr<Mapping> mapping;
    IndexHeader header;
    std::vector<TableDirEntry> tables;
};

/**
 * Map `path` and validate everything short of the table structure
 * (which attach_table checks per table): the header, each table's
 * counts and section offsets against the layout they imply, band
 * fields, and every digest in the mandatory checksum area.
 */
MappedIndex
open_index_file(const std::string& path)
{
    MappedIndex mapped;
    mapped.mapping = map_index_file(path);
    const std::uint8_t* base = mapped.mapping->bytes();
    const std::uint64_t file_size = mapped.mapping->size();
    const IndexHeader header = validate_header(path, base, file_size);
    mapped.header = header;
    const seed::SeedPattern pattern = parse_pattern(
        path, std::string(header.pattern, header.pattern_length));
    const unsigned key_bits = static_cast<unsigned>(2 * pattern.weight());

    const std::uint64_t dir_bytes =
        static_cast<std::uint64_t>(header.num_tables) *
        sizeof(TableDirEntry);
    mapped.tables.resize(header.num_tables);
    std::memcpy(mapped.tables.data(), base + header.table_dir_offset,
                dir_bytes);

    std::vector<SectionSpan> sections = {
        {base + header.table_dir_offset, dir_bytes}};
    std::uint64_t cursor = header.table_dir_offset + dir_bytes;
    std::uint64_t total_keys = 0;
    std::uint64_t total_positions = 0;
    for (std::uint32_t s = 0; s < header.num_tables; ++s) {
        const TableDirEntry& entry = mapped.tables[s];
        // Bound the counts before any size is computed from them.
        if (entry.num_keys > pattern.key_space() ||
            entry.num_positions > header.sequence_length ||
            entry.num_positions > header.total_bytes / 4 ||
            entry.directory_bits > key_bits)
            bad_index(path, strprintf("table %u: key, position or "
                                      "directory counts out of range",
                                      s));
        const TableLayout layout =
            layout_table(cursor, entry.num_keys, entry.directory_bits,
                         entry.num_positions);
        if (recorded_offsets(entry) != std::to_array(layout.offset) ||
            layout.end > header.total_bytes)
            bad_index(path, strprintf("table %u: section offsets disagree "
                                      "with section sizes",
                                      s));
        if (header.shard_bp == 0) {
            if (entry.band_lo != 0 || entry.band_hi != 0 ||
                entry.slice_lo != 0 || entry.slice_hi != 0)
                bad_index(path, "monolithic table carries band fields");
        } else if (entry.band_lo >= entry.band_hi ||
                   (s > 0 &&
                    entry.band_lo != mapped.tables[s - 1].band_hi)) {
            bad_index(path, strprintf("shard %u: band range is not a "
                                      "partition",
                                      s));
        }
        for (std::uint32_t i = 0; i < kIndexSectionsPerTable; ++i)
            sections.push_back({base + layout.offset[i], layout.bytes[i]});
        cursor = layout.end;
        total_keys += entry.num_keys;
        total_positions += entry.num_positions;
    }
    if (total_keys != header.num_keys ||
        total_positions != header.num_positions)
        bad_index(path, "table key/position counts disagree with the "
                        "header");

    // The checksum area is mandatory: its size follows from the
    // sections, and every digest is verified before a single section
    // byte is trusted, so a torn write or bit flip fails loudly here
    // instead of corrupting alignments downstream.
    const std::uint64_t sections_end = align_section(cursor);
    if (header.total_bytes != checksummed_total(sections_end,
                                                sections.size()))
        bad_index(path, "checksum area is missing or the wrong size "
                        "(truncated or corrupt index?)");
    ChecksumTrailer trailer;
    std::memcpy(&trailer, base + file_size - sizeof(ChecksumTrailer),
                sizeof(trailer));
    if (std::memcmp(trailer.magic, kIndexChecksumMagic,
                    sizeof(kIndexChecksumMagic)) != 0)
        bad_index(path, "file tail is not a checksum trailer (corrupt "
                        "or truncated checksum area)");
    if (trailer.version != kIndexChecksumVersion)
        bad_index(path, strprintf("unsupported checksum version %u",
                                  trailer.version));
    if (trailer.digests_offset != sections_end)
        bad_index(path, "checksum digest array is misplaced");
    verify_checksums(path, base, sections, trailer);
    return mapped;
}

/** Attach one table of a validated file; the table structure is checked
 *  here (SeedIndex::attach) and a violation tagged with the path. */
std::shared_ptr<const seed::SeedIndex>
attach_table(const std::string& path, const std::uint8_t* base,
             const IndexHeader& header, const TableDirEntry& entry,
             const std::string& label, std::shared_ptr<const void> storage)
{
    const auto u32_section = [base](std::uint64_t offset,
                                    std::uint64_t count) {
        return std::span<const std::uint32_t>{
            reinterpret_cast<const std::uint32_t*>(base + offset),
            static_cast<std::size_t>(count)};
    };
    const seed::SeedIndex::Sections sections = {
        u32_section(entry.keys_offset, entry.num_keys),
        u32_section(entry.directory_offset,
                    (std::uint64_t{1} << entry.directory_bits) + 1),
        u32_section(entry.offsets_offset, entry.num_keys + 1),
        u32_section(entry.positions_offset, entry.num_positions),
        {reinterpret_cast<const std::uint64_t*>(base +
                                                entry.over_words_offset),
         static_cast<std::size_t>((entry.num_keys + 63) / 64)}};
    seed::SeedPattern pattern = parse_pattern(
        path, std::string(header.pattern, header.pattern_length));
    try {
        return std::make_shared<const seed::SeedIndex>(
            seed::SeedIndex::attach(
                std::move(pattern), header.max_bucket, entry.directory_bits,
                sections, header.skipped_windows, header.truncated_buckets,
                header.sequence_length, std::move(storage)));
    } catch (const FatalError& e) {
        bad_index(path, label + e.what());
    }
}

}  // namespace

std::shared_ptr<const seed::SeedIndex>
load_index(const std::string& path, IndexInfo* info)
{
    const MappedIndex mapped = open_index_file(path);
    if (mapped.header.shard_bp != 0)
        bad_index(path, "sharded index; open with ShardedIndexReader "
                        "(or rebuild without --shard-bp)");
    auto index = attach_table(path, mapped.mapping->bytes(), mapped.header,
                              mapped.tables[0], "", mapped.mapping);
    if (info != nullptr)
        fill_info(info, mapped.header);
    return index;
}

IndexInfo
read_index_info(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(strprintf("cannot open index %s", path.c_str()));
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    std::uint8_t bytes[sizeof(IndexHeader)] = {};
    in.read(reinterpret_cast<char*>(bytes),
            static_cast<std::streamsize>(
                std::min<std::uint64_t>(file_size, sizeof(bytes))));
    const IndexHeader header = validate_header(path, bytes, file_size);
    IndexInfo info;
    fill_info(&info, header);
    return info;
}

void
save_sharded_index(const std::string& path,
                   const seed::ShardedSeedIndexBuilder& builder,
                   std::uint64_t shard_bp, std::uint64_t digest,
                   std::uint64_t length)
{
    if (shard_bp == 0)
        fatal(strprintf("%s: sharded index with zero shard-bp",
                        path.c_str()));
    const IndexHeader header = make_header(
        path, builder.pattern(), builder.max_bucket(), digest, length,
        builder.skipped_windows(), builder.truncated_buckets(), shard_bp);
    // One shard's table resident at a time — the writer honors the
    // same bound the sharded layout exists to provide.
    write_index_file(path, header, builder.plan(), builder.num_shards(),
                     [&builder](std::size_t s) {
                         return builder.build_shard(s);
                     });
}

ShardedIndexReader::ShardedIndexReader(const std::string& path)
    : path_(path)
{
    MappedIndex mapped = open_index_file(path);
    if (mapped.header.shard_bp == 0)
        bad_index(path, "monolithic index; open with load_index "
                        "(or rebuild with --shard-bp)");
    fill_info(&info_, mapped.header);
    base_ = mapped.mapping->bytes();
    mapping_ = std::move(mapped.mapping);
    tables_ = std::move(mapped.tables);
    plan_.reserve(tables_.size());
    for (const TableDirEntry& entry : tables_)
        plan_.push_back({entry.band_lo, entry.band_hi, entry.slice_lo,
                         entry.slice_hi});
    header_ = mapped.header;
}

std::shared_ptr<const seed::SeedIndex>
ShardedIndexReader::open_shard(std::size_t s) const
{
    require(s < plan_.size(), "ShardedIndexReader: shard out of range");
    return attach_table(path_, base_, header_, tables_[s],
                        strprintf("shard %zu: ", s), mapping_);
}

bool
is_index_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[sizeof(kIndexMagic)] = {};
    in.read(magic, sizeof(magic));
    return in.gcount() == sizeof(magic) &&
           std::memcmp(magic, kIndexMagic, sizeof(magic)) == 0;
}

}  // namespace darwin::index
