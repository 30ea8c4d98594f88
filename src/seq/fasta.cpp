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
    std::string line;
    std::string name;
    std::vector<std::uint8_t> codes;
    bool in_record = false;
    std::size_t line_no = 0;
    std::size_t header_line = 0;

    auto flush = [&] {
        if (!in_record)
            return;
        if (codes.empty()) {
            fatal(strprintf("%s:%zu: record '%s' has no sequence data "
                            "(empty or truncated record)",
                            where.c_str(), header_line, name.c_str()));
        }
        records.emplace_back(name, std::move(codes));
        codes = {};
    };

    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == ';')
            continue;
        if (line[0] == '>') {
            flush();
            name = trim(line.substr(1));
            // Use only the first whitespace-delimited token as the name.
            const auto space = name.find_first_of(" \t");
            if (space != std::string::npos)
                name = name.substr(0, space);
            if (name.empty())
                fatal(strprintf("%s:%zu: empty record name",
                                where.c_str(), line_no));
            header_line = line_no;
            in_record = true;
            continue;
        }
        if (!in_record) {
            fatal(strprintf("%s:%zu: sequence data before first '>' header",
                            where.c_str(), line_no));
        }
        encode_fasta_line(line, where, line_no, [&codes](std::uint8_t code) {
            codes.push_back(code);
        });
    }
    if (in.bad()) {
        fatal(strprintf("%s:%zu: read error (truncated file?)",
                        where.c_str(), line_no));
    }
    flush();
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
