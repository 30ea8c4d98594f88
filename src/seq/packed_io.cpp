#include "seq/packed_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "seq/alphabet.h"
#include "seq/fasta.h"
#include "util/digest.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seq {

namespace {

/** RAII owner of one read-only mapping; the shared_ptr keepalive that
 *  attached chromosomes hold. */
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

std::shared_ptr<Mapping>
map_file(const std::string& path, const char* what)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal(strprintf("cannot open %s %s: %s", what, path.c_str(),
                        std::strerror(errno)));
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fatal(strprintf("cannot stat %s %s: %s", what, path.c_str(),
                        std::strerror(err)));
    }
    const auto file_size = static_cast<std::size_t>(st.st_size);
    if (file_size == 0) {
        ::close(fd);
        fatal(strprintf("%s: empty %s file", path.c_str(), what));
    }
    void* data = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int map_err = errno;
    ::close(fd);  // the mapping keeps its own reference
    if (data == MAP_FAILED)
        fatal(strprintf("cannot mmap %s %s: %s", what, path.c_str(),
                        std::strerror(map_err)));
    return std::make_shared<Mapping>(data, file_size);
}

[[noreturn]] void
bad_packed(const std::string& path, const std::string& what)
{
    fatal(strprintf("%s: %s", path.c_str(), what.c_str()));
}

void
write_padding(std::ofstream& out, std::uint64_t current,
              std::uint64_t target)
{
    static const char zeros[kPackedSectionAlign] = {};
    while (current < target) {
        const std::uint64_t n =
            std::min<std::uint64_t>(target - current, sizeof(zeros));
        out.write(zeros, static_cast<std::streamsize>(n));
        current += n;
    }
}

constexpr std::uint64_t
align_up(std::uint64_t offset)
{
    return (offset + kPackedSectionAlign - 1) & ~(kPackedSectionAlign - 1);
}

/**
 * Parse mmap'd FASTA bytes straight into packed chromosomes — the
 * record loop of read_fasta (parse_fasta), but no byte-per-base
 * intermediate is ever allocated.
 */
Genome
parse_fasta_packed(const std::uint8_t* data, std::size_t size,
                   const std::string& where, const std::string& name)
{
    Genome genome(name);
    PackedSequence current;
    std::size_t pos = 0;
    parse_fasta(
        where,
        [&](std::string_view& line) {
            if (pos >= size)
                return false;
            const auto* newline = static_cast<const std::uint8_t*>(
                std::memchr(data + pos, '\n', size - pos));
            const std::size_t end =
                newline != nullptr ? static_cast<std::size_t>(newline - data)
                                   : size;
            line = {reinterpret_cast<const char*>(data + pos), end - pos};
            pos = newline != nullptr ? end + 1 : size;
            return true;
        },
        [&current](std::uint8_t code) { current.append_code(code); },
        [&](std::string record) {
            current.set_name(std::move(record));
            genome.add_chromosome(std::move(current));
            current = PackedSequence();
        });
    if (genome.num_chromosomes() == 0)
        fatal("fasta: no records in file: " + where);
    return genome;
}

}  // namespace

void
save_packed_genome(const std::string& path, const Genome& genome,
                   std::uint64_t fasta_digest)
{
    const std::size_t n = genome.num_chromosomes();

    // Byte-mode genomes are packed chromosome-at-a-time on the fly;
    // packed genomes write their words directly.
    std::vector<PackedSequence> transient;
    const auto packed_of = [&](std::size_t i) -> const PackedSequence& {
        if (genome.packed())
            return genome.packed_chromosome(i);
        return transient[i];
    };
    if (!genome.packed()) {
        transient.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            transient.push_back(PackedSequence::pack(genome.chromosome(i)));
    }

    std::string names = genome.name();
    PackedHeader header = {};
    std::memcpy(header.magic, kPackedMagic, sizeof(kPackedMagic));
    header.version = kPackedFormatVersion;
    header.endian_tag = kPackedEndianTag;
    header.fasta_digest = fasta_digest;
    header.num_chromosomes = n;
    header.total_bases = genome.total_length();
    header.genome_name_offset = 0;
    header.genome_name_length = genome.name().size();

    std::vector<PackedChromEntry> dir(n);
    for (std::size_t i = 0; i < n; ++i) {
        dir[i].name_offset = names.size();
        dir[i].name_length = genome.chromosome_name(i).size();
        dir[i].num_bases = genome.chromosome_length(i);
        names += genome.chromosome_name(i);
    }
    header.dir_offset = sizeof(PackedHeader);
    header.names_offset =
        header.dir_offset + n * sizeof(PackedChromEntry);
    header.names_bytes = names.size();
    std::uint64_t cursor = align_up(header.names_offset + names.size());
    for (std::size_t i = 0; i < n; ++i) {
        const PackedSequence& chrom = packed_of(i);
        dir[i].base_words_offset = cursor;
        cursor = align_up(cursor + chrom.num_base_words() * 8);
        dir[i].n_words_offset = cursor;
        cursor = align_up(cursor + chrom.num_n_words() * 8);
    }
    header.total_bytes = cursor;

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
        write_bytes(&header, sizeof(header));
        write_bytes(dir.data(), dir.size() * sizeof(PackedChromEntry));
        write_bytes(names.data(), names.size());
        std::uint64_t written = header.names_offset + names.size();
        for (std::size_t i = 0; i < n; ++i) {
            const PackedSequence& chrom = packed_of(i);
            write_padding(out, written, dir[i].base_words_offset);
            write_bytes(chrom.base_words(), chrom.num_base_words() * 8);
            written = dir[i].base_words_offset + chrom.num_base_words() * 8;
            write_padding(out, written, dir[i].n_words_offset);
            write_bytes(chrom.n_words(), chrom.num_n_words() * 8);
            written = dir[i].n_words_offset + chrom.num_n_words() * 8;
        }
        write_padding(out, written, header.total_bytes);
        out.flush();
        if (!out)
            fatal(strprintf("error writing %s", tmp.c_str()));
    }
    // Checksum post-pass: hash the payload we just wrote, patch the two
    // digests into the header's reserved bytes, and only then publish.
    {
        const auto mapping = map_file(tmp, "packed genome");
        if (mapping->size() != header.total_bytes)
            fatal(strprintf("%s: short write (%zu of %llu bytes)",
                            tmp.c_str(), mapping->size(),
                            static_cast<unsigned long long>(
                                header.total_bytes)));
        const std::uint64_t payload_digest = fnv1a64_bytes(
            {mapping->bytes() + sizeof(PackedHeader),
             header.total_bytes - sizeof(PackedHeader)});
        std::memcpy(header.reserved, &payload_digest,
                    sizeof(payload_digest));
        const std::uint64_t header_digest = fnv1a64_bytes(
            {reinterpret_cast<const std::uint8_t*>(&header),
             sizeof(header)});
        std::memcpy(header.reserved + 8, &header_digest,
                    sizeof(header_digest));
        std::fstream patch(tmp, std::ios::in | std::ios::out |
                                    std::ios::binary);
        if (!patch)
            fatal(strprintf("cannot reopen %s", tmp.c_str()));
        patch.write(reinterpret_cast<const char*>(&header),
                    sizeof(header));
        patch.flush();
        if (!patch)
            fatal(strprintf("error patching checksums into %s",
                            tmp.c_str()));
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        fatal(strprintf("cannot rename %s -> %s: %s", tmp.c_str(),
                        path.c_str(), ec.message().c_str()));
    }
}

Genome
load_packed_genome(const std::string& path, std::uint64_t expected_digest)
{
    const auto mapping = map_file(path, "packed genome");
    const std::uint8_t* bytes = mapping->bytes();
    const std::uint64_t file_size = mapping->size();

    if (file_size < sizeof(PackedHeader))
        bad_packed(path, strprintf("truncated packed header (%llu bytes, "
                                   "need %zu)",
                                   static_cast<unsigned long long>(
                                       file_size),
                                   sizeof(PackedHeader)));
    PackedHeader header;
    std::memcpy(&header, bytes, sizeof(header));
    if (std::memcmp(header.magic, kPackedMagic, sizeof(kPackedMagic)) != 0)
        bad_packed(path, "not a darwin-wga packed genome (bad magic)");
    if (header.endian_tag != kPackedEndianTag)
        bad_packed(path, "packed genome was written with a different "
                         "byte order");
    if (header.version != kPackedFormatVersion)
        bad_packed(path, strprintf("unsupported packed format version %u "
                                   "(this build reads version %u)",
                                   header.version, kPackedFormatVersion));
    if (header.total_bytes != file_size)
        bad_packed(path,
                   strprintf("truncated or padded packed file (header "
                             "records %llu bytes, file has %llu)",
                             static_cast<unsigned long long>(
                                 header.total_bytes),
                             static_cast<unsigned long long>(file_size)));
    // Integrity first: verify both digests (when present) before any
    // directory or section byte is trusted.
    std::uint64_t payload_digest = 0;
    std::uint64_t header_digest = 0;
    std::memcpy(&payload_digest, header.reserved, sizeof(payload_digest));
    std::memcpy(&header_digest, header.reserved + 8,
                sizeof(header_digest));
    if (payload_digest != 0 || header_digest != 0) {
        PackedHeader canonical = header;
        std::memset(canonical.reserved + 8, 0, sizeof(header_digest));
        if (header_digest !=
            fnv1a64_bytes({reinterpret_cast<const std::uint8_t*>(
                               &canonical),
                           sizeof(canonical)}))
            bad_packed(path, "header checksum mismatch (corrupt packed "
                             "genome?)");
        if (payload_digest !=
            fnv1a64_bytes({bytes + sizeof(PackedHeader),
                           file_size - sizeof(PackedHeader)}))
            bad_packed(path, "payload checksum mismatch (corrupt packed "
                             "genome?)");
    }
    if (expected_digest != 0 && header.fasta_digest != expected_digest)
        bad_packed(path,
                   strprintf("stale sidecar: FASTA digest %s does not "
                             "match expected %s",
                             digest_hex(header.fasta_digest).c_str(),
                             digest_hex(expected_digest).c_str()));
    if (header.num_chromosomes == 0)
        bad_packed(path, "packed genome has no chromosomes");

    const std::uint64_t dir_bytes =
        header.num_chromosomes * sizeof(PackedChromEntry);
    if (header.dir_offset != sizeof(PackedHeader) ||
        header.names_offset != header.dir_offset + dir_bytes ||
        header.names_offset + header.names_bytes > file_size)
        bad_packed(path, "directory/name sections fall outside the file");
    if (header.genome_name_offset + header.genome_name_length >
        header.names_bytes)
        bad_packed(path, "genome name falls outside the name blob");

    const char* names =
        reinterpret_cast<const char*>(bytes + header.names_offset);
    Genome genome(std::string(names + header.genome_name_offset,
                              header.genome_name_length));

    std::uint64_t total_bases = 0;
    for (std::uint64_t i = 0; i < header.num_chromosomes; ++i) {
        PackedChromEntry entry;
        std::memcpy(&entry,
                    bytes + header.dir_offset + i * sizeof(entry),
                    sizeof(entry));
        if (entry.name_offset + entry.name_length > header.names_bytes)
            bad_packed(path, strprintf("chromosome %llu name falls "
                                       "outside the name blob",
                                       static_cast<unsigned long long>(i)));
        const std::uint64_t base_bytes =
            PackedSequence::base_word_count(entry.num_bases) * 8;
        const std::uint64_t n_bytes =
            PackedSequence::n_word_count(entry.num_bases) * 8;
        if (entry.base_words_offset % 8 != 0 ||
            entry.n_words_offset % 8 != 0 ||
            entry.base_words_offset + base_bytes > file_size ||
            entry.n_words_offset + n_bytes > file_size)
            bad_packed(path,
                       strprintf("chromosome %llu word sections are "
                                 "misaligned or fall outside the file",
                                 static_cast<unsigned long long>(i)));
        total_bases += entry.num_bases;
        genome.add_chromosome(PackedSequence::attach(
            std::string(names + entry.name_offset, entry.name_length),
            entry.num_bases,
            reinterpret_cast<const std::uint64_t*>(
                bytes + entry.base_words_offset),
            reinterpret_cast<const std::uint64_t*>(
                bytes + entry.n_words_offset),
            mapping));
    }
    if (total_bases != header.total_bases)
        bad_packed(path, "chromosome lengths disagree with the header's "
                         "total_bases");
    return genome;
}

Genome
read_genome_packed(const std::string& fasta_path, const std::string& name,
                   const std::string& sidecar_path)
{
    const auto fasta = map_file(fasta_path, "fasta");
    const std::uint64_t digest =
        fnv1a64_bytes({fasta->bytes(), fasta->size()});
    const std::string genome_name = name.empty() ? fasta_path : name;

    std::string sidecar;
    if (sidecar_path == "auto")
        sidecar = fasta_path + ".2bit";
    else
        sidecar = sidecar_path;

    if (!sidecar.empty() && is_packed_file(sidecar)) {
        try {
            Genome genome = load_packed_genome(sidecar, digest);
            genome.set_name(genome_name);
            debug(strprintf("reusing packed sidecar %s", sidecar.c_str()));
            return genome;
        } catch (const FatalError& e) {
            warn(strprintf("rebuilding packed sidecar %s: %s",
                           sidecar.c_str(), e.what()));
        }
    }

    Genome genome = parse_fasta_packed(fasta->bytes(), fasta->size(),
                                       fasta_path, genome_name);
    if (!sidecar.empty()) {
        try {
            save_packed_genome(sidecar, genome, digest);
        } catch (const FatalError& e) {
            // A read-only FASTA directory only costs us the cache.
            warn(strprintf("cannot write packed sidecar %s: %s",
                           sidecar.c_str(), e.what()));
        }
    }
    return genome;
}

bool
is_packed_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[sizeof(kPackedMagic)] = {};
    in.read(magic, sizeof(magic));
    return in.gcount() == sizeof(magic) &&
           std::memcmp(magic, kPackedMagic, sizeof(magic)) == 0;
}

}  // namespace darwin::seq
