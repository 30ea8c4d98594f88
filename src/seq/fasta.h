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
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seq {

/** Per byte: its encode_base code when is_iupac, else kNumCodes. */
const std::array<std::uint8_t, 256>& iupac_code_table();

/** Fatal for a sequence-line byte that is neither whitespace nor an
 *  IUPAC letter, with the FASTA parsers' line-tagged message. */
[[noreturn]] void reject_fasta_byte(const std::string& where,
                                    std::size_t line_no, char c);

/**
 * The per-byte loop parse_fasta runs over one sequence line: one table
 * lookup per base, `emit(code)` for each IUPAC letter, whitespace
 * skipped, anything else fatal.
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

/**
 * The record loop both FASTA parsers run (read_fasta over a stream, the
 * packed reader in seq/packed_io over mapped bytes). `next_line(line)`
 * sets `line` to the next line without its '\n' and returns false at
 * the end of input; `append(code)` receives each base code of the
 * current record and `emit(name)` ends it. Headers, comments, empty or
 * truncated records and data before the first header are handled
 * here, with `where`:line diagnostics.
 */
template <class NextLine, class Append, class Emit>
void
parse_fasta(const std::string& where, NextLine&& next_line, Append&& append,
            Emit&& emit)
{
    std::string name;
    bool in_record = false;
    std::size_t bases = 0;
    std::size_t line_no = 0;
    std::size_t header_line = 0;
    const auto flush = [&] {
        if (!in_record)
            return;
        if (bases == 0) {
            fatal(strprintf("%s:%zu: record '%s' has no sequence data "
                            "(empty or truncated record)",
                            where.c_str(), header_line, name.c_str()));
        }
        emit(std::move(name));
    };

    std::string_view line;
    while (next_line(line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        if (line.empty() || line[0] == ';')
            continue;
        if (line[0] == '>') {
            flush();
            name = trim(std::string(line.substr(1)));
            // Use only the first whitespace-delimited token as the name.
            name = name.substr(0, name.find_first_of(" \t"));
            if (name.empty())
                fatal(strprintf("%s:%zu: empty record name",
                                where.c_str(), line_no));
            header_line = line_no;
            in_record = true;
            bases = 0;
            continue;
        }
        if (!in_record) {
            fatal(strprintf("%s:%zu: sequence data before first '>' header",
                            where.c_str(), line_no));
        }
        encode_fasta_line(line, where, line_no, [&](std::uint8_t code) {
            ++bases;
            append(code);
        });
    }
    flush();
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
