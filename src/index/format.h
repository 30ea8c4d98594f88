/**
 * @file
 * On-disk format of a persistent reference index (`.dwi`), version 3.
 *
 * A `.dwi` file holds the compact seed tables (seed/seed_index.h) of one
 * target sequence, laid out so a reader can mmap the file and hand the
 * sections to SeedIndex::attach() without copying a byte. A monolithic
 * file holds one table; a sharded file (seed/sharded_index.h) holds one
 * table per band shard, so a reader maps the file once and pages in one
 * shard's table at a time:
 *
 *     [IndexHeader]            192 bytes, at offset 0
 *     [table directory]        num_tables x TableDirEntry (128 bytes)
 *     per table, each section 64-byte aligned:
 *       [keys]                 num_keys x u32, strictly ascending
 *       [directory]            (2^directory_bits + 1) x u32
 *       [offsets]              (num_keys + 1) x u32
 *       [positions]            num_positions x u32
 *       [over-represented]     ceil(num_keys / 64) x u64
 *     [digest array]           1 + 5 x num_tables x u64, 64-byte aligned
 *     [ChecksumTrailer]        last 64 bytes of the file
 *
 * All integers are little-endian (the header carries an endian tag and
 * readers refuse a mismatch rather than byte-swap); all sections start
 * on a 64-byte boundary (cache-line alignment for the zero-copy load)
 * with zero padding between them, in exactly the order above, so a
 * reader recomputes every offset from the counts and refuses a file
 * whose recorded offsets differ. The header records the FNV-1a digest
 * and length of the sequence the tables were built from, so a loader
 * can verify an index actually belongs to the FASTA it is paired with,
 * and the seed shape + repeat cap, so a cache can key on exactly the
 * inputs that determine the table bytes.
 *
 * Versioning policy: `version` bumps on any layout or semantic change;
 * readers accept only the version they were built for (no in-place
 * migration — an index is a cache artifact, cheap to rebuild with
 * `darwin-wga-index build`). Versions 1 (monolithic) and 2 (sharded)
 * held a dense 4^weight-entry offset table per target; readers refuse
 * them with a tagged "rebuild" error.
 */
#ifndef DARWIN_INDEX_FORMAT_H
#define DARWIN_INDEX_FORMAT_H

#include <cstdint>
#include <type_traits>

namespace darwin::index {

/** File magic, first 8 bytes ("DWGAIDX" + NUL). */
inline constexpr char kIndexMagic[8] = {'D', 'W', 'G', 'A',
                                        'I', 'D', 'X', '\0'};

/** The one version written and read (compact tables). */
inline constexpr std::uint32_t kIndexFormatVersion = 3;

/** Last version with the dense 4^weight offset table; versions up to
 *  this one get the tagged rebuild error. */
inline constexpr std::uint32_t kIndexLastDenseVersion = 2;

/** Written natively; a reader seeing any other value is on a host with
 *  a different byte order than the writer. */
inline constexpr std::uint32_t kIndexEndianTag = 0x1a2b3c4dU;

/** Every section starts on this alignment. */
inline constexpr std::uint64_t kIndexSectionAlign = 64;

/** Longest representable seed-shape string (NUL-terminated on disk). */
inline constexpr std::uint32_t kIndexMaxPatternLength = 63;

/** Fixed-layout file header. Field offsets are load-bearing; magic,
 *  version and endian_tag sit where every earlier version had them. */
struct IndexHeader {
    char magic[8];                   ///< kIndexMagic
    std::uint32_t version;           ///< kIndexFormatVersion
    std::uint32_t endian_tag;        ///< kIndexEndianTag
    std::uint64_t sequence_digest;   ///< fnv1a64 over the target codes
    std::uint64_t sequence_length;   ///< target length in bases
    std::uint32_t max_bucket;        ///< repeat-seed truncation cap
    std::uint32_t pattern_length;    ///< strlen of the seed shape
    std::uint64_t num_keys;          ///< occupied keys, summed over tables
    std::uint64_t num_positions;     ///< positions, summed over tables
    std::uint64_t skipped_windows;   ///< windows skipped for N bases
    std::uint64_t truncated_buckets; ///< keys clamped at max_bucket
    std::uint64_t shard_bp;          ///< band-start bp per shard; 0 = monolithic
    std::uint32_t num_tables;        ///< 1 when monolithic, else one per shard
    std::uint32_t reserved32;        ///< zero; future use
    std::uint64_t table_dir_offset;  ///< sizeof(IndexHeader)
    std::uint64_t total_bytes;       ///< exact file size
    char pattern[kIndexMaxPatternLength + 1];  ///< '1'/'0' seed shape
    std::uint64_t reserved[3];       ///< zero; future use
};

static_assert(sizeof(IndexHeader) == 192,
              "IndexHeader layout is part of the on-disk format");
static_assert(std::is_trivially_copyable_v<IndexHeader>,
              "IndexHeader must be memcpy-safe");
static_assert(sizeof(IndexHeader) % kIndexSectionAlign == 0,
              "sections start 64-byte aligned right after the header");

/** One table's directory entry. Band/slice fields follow
 *  seed::ShardPlan and are zero in a monolithic file; the section
 *  offsets are absolute file offsets. */
struct TableDirEntry {
    std::uint64_t band_lo;
    std::uint64_t band_hi;
    std::uint64_t slice_lo;
    std::uint64_t slice_hi;
    std::uint64_t num_keys;
    std::uint64_t num_positions;
    std::uint32_t directory_bits;    ///< min(2 * weight, bit_width(num_keys))
    std::uint32_t reserved32;        ///< zero; future use
    std::uint64_t keys_offset;
    std::uint64_t directory_offset;
    std::uint64_t offsets_offset;
    std::uint64_t positions_offset;
    std::uint64_t over_words_offset;
    std::uint64_t reserved[4];       ///< zero; future use
};

static_assert(sizeof(TableDirEntry) == 128,
              "TableDirEntry layout is part of the on-disk format");
static_assert(std::is_trivially_copyable_v<TableDirEntry>,
              "TableDirEntry must be memcpy-safe");

/** Sections per table, in file order (and digest order). */
inline constexpr std::uint32_t kIndexSectionsPerTable = 5;

/** Round a byte offset up to the section alignment. */
constexpr std::uint64_t
align_section(std::uint64_t offset)
{
    return (offset + kIndexSectionAlign - 1) & ~(kIndexSectionAlign - 1);
}

/** Magic of the checksum trailer ("DWCSUM" + 2 NULs). */
inline constexpr char kIndexChecksumMagic[8] = {'D', 'W', 'C', 'S',
                                                'U', 'M', '\0', '\0'};

inline constexpr std::uint32_t kIndexChecksumVersion = 1;

/**
 * Crash-safety checksums, mandatory in version 3:
 *
 *     [sections ...]
 *     [digest array]     num_digests x u64 (fnv1a64), 64-byte aligned
 *     [ChecksumTrailer]  last 64 bytes of the file
 *
 * The digest array covers each section's *content* bytes in layout
 * order — the table directory, then the five sections of each table —
 * and header_digest covers the 192 header bytes as written. Readers
 * find the trailer at total_bytes - 64 and verify every digest before
 * handing out a table.
 */
struct ChecksumTrailer {
    char magic[8];                 ///< kIndexChecksumMagic
    std::uint32_t version;         ///< kIndexChecksumVersion
    std::uint32_t num_digests;     ///< entries in the digest array
    std::uint64_t digests_offset;  ///< absolute offset of the array
    std::uint64_t header_digest;   ///< fnv1a64 over the header bytes
    char reserved[32];             ///< zero; future use
};

static_assert(sizeof(ChecksumTrailer) == 64,
              "ChecksumTrailer layout is part of the on-disk format");
static_assert(std::is_trivially_copyable_v<ChecksumTrailer>,
              "ChecksumTrailer must be memcpy-safe");

}  // namespace darwin::index

#endif  // DARWIN_INDEX_FORMAT_H
