/**
 * @file
 * Persistent 2-bit genome storage: the `.2bit` sidecar cache.
 *
 * A `.2bit` file holds a whole Genome in PackedSequence form, laid out
 * so a reader can mmap it and attach every chromosome without copying
 * a byte:
 *
 *     [PackedHeader]        128 bytes, at offset 0
 *     [chromosome dir]      num_chromosomes x PackedChromEntry
 *     [name blob]           genome + chromosome names, unterminated
 *     per chromosome:
 *       [base words]        ceil(bases/32) x u64, 64-byte aligned
 *       [n-mask words]      ceil(bases/64) x u64, 64-byte aligned
 *
 * The header records the FNV-1a digest of the *source FASTA bytes*
 * (util/digest.h), so `read_genome_packed` can key the sidecar on
 * exactly the input that produced it: matching digest -> mmap reuse,
 * anything else (stale, corrupt, truncated) -> rebuild via tmp+rename.
 * Ingestion parses the mmap'd FASTA straight into packed words — no
 * byte-per-base intermediate ever exists, which is what lets a 100 Mbp
 * assembly load in ~total/4 bytes of heap.
 *
 * All integers little-endian (endian tag checked, never swapped);
 * validation failures are FatalError tagged with path + field, exactly
 * like the `.dwi` reader.
 *
 * Crash-safety checksums: the first 16 reserved header bytes hold two
 * fnv1a64 digests — payload_digest over every byte after the header
 * ([128, total_bytes)) and header_digest over the 128 header bytes
 * with the header_digest field itself zeroed. Both zero means a legacy
 * file (written before checksums existed), which loads unverified;
 * any nonzero pair is verified before a single section byte is
 * trusted, so a torn write or bit flip in the sidecar fails loudly at
 * load instead of corrupting alignments downstream.
 */
#ifndef DARWIN_SEQ_PACKED_IO_H
#define DARWIN_SEQ_PACKED_IO_H

#include <cstdint>
#include <string>
#include <type_traits>

#include "seq/genome.h"

namespace darwin::seq {

/** File magic, first 8 bytes ("DWGA2BT" + NUL). */
inline constexpr char kPackedMagic[8] = {'D', 'W', 'G', 'A',
                                         '2', 'B', 'T', '\0'};

/** Current (and only accepted) `.2bit` format version. */
inline constexpr std::uint32_t kPackedFormatVersion = 1;

/** Same endian tag convention as the `.dwi` format. */
inline constexpr std::uint32_t kPackedEndianTag = 0x1a2b3c4dU;

/** Every word section starts on this alignment. */
inline constexpr std::uint64_t kPackedSectionAlign = 64;

/** Fixed-layout file header. Field offsets are load-bearing. */
struct PackedHeader {
    char magic[8];                 ///< kPackedMagic
    std::uint32_t version;         ///< kPackedFormatVersion
    std::uint32_t endian_tag;      ///< kPackedEndianTag
    std::uint64_t fasta_digest;    ///< fnv1a64 over the source FASTA bytes
    std::uint64_t num_chromosomes;
    std::uint64_t total_bases;     ///< sum of chromosome lengths
    std::uint64_t dir_offset;      ///< chromosome directory
    std::uint64_t names_offset;    ///< name blob
    std::uint64_t names_bytes;     ///< name blob size
    std::uint64_t genome_name_offset;  ///< into the name blob
    std::uint64_t genome_name_length;
    std::uint64_t total_bytes;     ///< exact file size
    /** Bytes [0,8): fnv1a64 payload digest over [128, total_bytes).
     *  Bytes [8,16): fnv1a64 header digest (this field zeroed).
     *  Both zero = legacy file, no verification. Rest: future use. */
    char reserved[40];
};

static_assert(sizeof(PackedHeader) == 128,
              "PackedHeader layout is part of the on-disk format");
static_assert(std::is_trivially_copyable_v<PackedHeader>,
              "PackedHeader must be memcpy-safe");

/** One chromosome directory entry. */
struct PackedChromEntry {
    std::uint64_t name_offset;       ///< into the name blob
    std::uint64_t name_length;
    std::uint64_t num_bases;
    std::uint64_t base_words_offset; ///< absolute, 64-byte aligned
    std::uint64_t n_words_offset;    ///< absolute, 64-byte aligned
    std::uint64_t reserved;          ///< zero
};

static_assert(sizeof(PackedChromEntry) == 48,
              "PackedChromEntry layout is part of the on-disk format");

/** Serialize a genome to `path` atomically (tmp + rename). Works for
 *  byte-mode genomes too (packs on the fly). */
void save_packed_genome(const std::string& path, const Genome& genome,
                        std::uint64_t fasta_digest);

/**
 * mmap `path`, validate it, and return a packed Genome whose
 * chromosomes attach to the mapped words (the mapping lives as long as
 * any chromosome copy). When `expected_digest` is non-zero a mismatch
 * is fatal — that is how a caller detects a stale sidecar.
 */
Genome load_packed_genome(const std::string& path,
                          std::uint64_t expected_digest = 0);

/**
 * Read a FASTA as a packed Genome with a `.2bit` sidecar next to it:
 * a sidecar whose digest matches the FASTA bytes is mmap-reused; a
 * missing, stale, or corrupt sidecar is rebuilt by streaming the
 * mmap'd FASTA into packed words and written tmp+rename. Set
 * `sidecar_path` to override the default `<fasta>.2bit` (useful when
 * the FASTA's directory is read-only); empty disables the cache
 * entirely (parse-only).
 */
Genome read_genome_packed(const std::string& fasta_path,
                          const std::string& name = "",
                          const std::string& sidecar_path = "auto");

/** True when `path` exists and starts with the `.2bit` magic. */
bool is_packed_file(const std::string& path);

}  // namespace darwin::seq

#endif  // DARWIN_SEQ_PACKED_IO_H
