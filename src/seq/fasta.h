/**
 * @file
 * FASTA reading and writing.
 *
 * Supports multi-record files, lower/upper case, arbitrary line widths, and
 * comments. Malformed inputs raise FatalError with a line-numbered message.
 */
#ifndef DARWIN_SEQ_FASTA_H
#define DARWIN_SEQ_FASTA_H

#include <array>
#include <cctype>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "seq/alphabet.h"
#include "seq/genome.h"
#include "seq/sequence.h"

namespace darwin::seq {

/** Per byte: its encode_base code when is_iupac, else kNumCodes. */
const std::array<std::uint8_t, 256>& iupac_code_table();

/** Fatal for a sequence-line byte that is neither whitespace nor an
 *  IUPAC letter, with the FASTA parsers' line-tagged message. */
[[noreturn]] void reject_fasta_byte(const std::string& where,
                                    std::size_t line_no, char c);

/**
 * The per-byte loop both FASTA parsers (read_fasta and the packed
 * reader in seq/packed_io) run over one sequence line: one table lookup
 * per base, `emit(code)` for each IUPAC letter, whitespace skipped,
 * anything else fatal.
 */
template <class Emit>
void
encode_fasta_line(std::string_view line, const std::string& where,
                  std::size_t line_no, Emit&& emit)
{
    const std::array<std::uint8_t, 256>& iupac = iupac_code_table();
    for (const char c : line) {
        const std::uint8_t code = iupac[static_cast<unsigned char>(c)];
        if (code < kNumCodes)
            emit(code);
        else if (std::isspace(static_cast<unsigned char>(c)) == 0)
            reject_fasta_byte(where, line_no, c);
    }
}

/** Parse every record from a FASTA stream. `source` names the stream in
 *  diagnostics (the file path when reading from disk). */
std::vector<Sequence> read_fasta(std::istream& in,
                                 const std::string& source = "");

/** Parse every record from a FASTA file. */
std::vector<Sequence> read_fasta_file(const std::string& path);

/** Read a FASTA file as a Genome (one chromosome per record). */
Genome read_genome(const std::string& path, const std::string& name = "");

/** Write records to a stream with the given line width. */
void write_fasta(std::ostream& out, const std::vector<Sequence>& records,
                 std::size_t line_width = 60);

/** Write a genome (one record per chromosome) to a file. */
void write_genome_file(const std::string& path, const Genome& genome,
                       std::size_t line_width = 60);

}  // namespace darwin::seq

#endif  // DARWIN_SEQ_FASTA_H
