#include "seq/fasta.h"

#include <array>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seq {

// One lookup per base in place of two out-of-line calls (is_iupac,
// encode_base), whose cost swung with code layout.
const std::array<std::uint8_t, 256>&
iupac_code_table()
{
    static const std::array<std::uint8_t, 256> table = [] {
        std::array<std::uint8_t, 256> codes{};
        for (std::size_t b = 0; b < codes.size(); ++b) {
            const char c = static_cast<char>(b);
            codes[b] = is_iupac(c) ? encode_base(c) : kNumCodes;
        }
        return codes;
    }();
    return table;
}

void
reject_fasta_byte(const std::string& where, std::size_t line_no, char c)
{
    if (!std::isalpha(static_cast<unsigned char>(c))) {
        fatal(strprintf("%s:%zu: invalid character '%c'", where.c_str(),
                        line_no, c));
    }
    fatal(strprintf("%s:%zu: '%c' is not an IUPAC nucleotide code "
                    "(corrupt or non-DNA file?)",
                    where.c_str(), line_no, c));
}

std::vector<Sequence>
read_fasta(std::istream& in, const std::string& source)
{
    const std::string where = source.empty() ? "fasta" : source;
    std::vector<Sequence> records;
    std::vector<std::uint8_t> codes;
    std::string buffer;
    std::size_t lines = 0;
    parse_fasta(
        where,
        [&](std::string_view& line) {
            if (!std::getline(in, buffer)) {
                if (in.bad())
                    fatal(strprintf("%s:%zu: read error (truncated file?)",
                                    where.c_str(), lines));
                return false;
            }
            ++lines;
            line = buffer;
            return true;
        },
        [&codes](std::uint8_t code) { codes.push_back(code); },
        [&](std::string name) {
            records.emplace_back(std::move(name), std::move(codes));
            codes = {};
        });
    return records;
}

std::vector<Sequence>
read_fasta_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("fasta: cannot open file: " + path);
    return read_fasta(in, path);
}

Genome
read_genome(const std::string& path, const std::string& name)
{
    Genome genome(name.empty() ? path : name);
    for (auto& record : read_fasta_file(path))
        genome.add_chromosome(std::move(record));
    if (genome.num_chromosomes() == 0)
        fatal("fasta: no records in file: " + path);
    return genome;
}

void
write_fasta(std::ostream& out, const std::vector<Sequence>& records,
            std::size_t line_width)
{
    require(line_width > 0, "write_fasta: line width must be positive");
    for (const auto& record : records) {
        out << '>' << record.name() << '\n';
        const std::string bases = record.to_string();
        for (std::size_t pos = 0; pos < bases.size(); pos += line_width) {
            out << bases.substr(pos, line_width) << '\n';
        }
    }
}

void
write_genome_file(const std::string& path, const Genome& genome,
                  std::size_t line_width)
{
    std::ofstream out(path);
    if (!out)
        fatal("fasta: cannot write file: " + path);
    write_fasta(out, genome.chromosomes(), line_width);
}

}  // namespace darwin::seq
