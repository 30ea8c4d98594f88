#include "wga/maf.h"

#include <fstream>
#include <ostream>

#include "seq/base_view.h"
#include "util/logging.h"
#include "util/strings.h"

namespace darwin::wga {

namespace {

/** Render the gapped text of one side of an alignment. */
std::string
gapped_text(const align::Alignment& alignment, seq::BaseView flat,
            bool target_side)
{
    std::string out;
    std::uint64_t t = alignment.target_start;
    std::uint64_t q = alignment.query_start;
    for (const auto& run : alignment.cigar.runs()) {
        for (std::uint32_t k = 0; k < run.length; ++k) {
            switch (run.op) {
              case align::EditOp::Match:
              case align::EditOp::Mismatch:
                out.push_back(seq::decode_base(
                    flat[target_side ? t : q]));
                ++t;
                ++q;
                break;
              case align::EditOp::Insert:
                out.push_back(target_side ? '-'
                                          : seq::decode_base(flat[q]));
                ++q;
                break;
              case align::EditOp::Delete:
                out.push_back(target_side ? seq::decode_base(flat[t])
                                          : '-');
                ++t;
                break;
            }
        }
    }
    return out;
}

}  // namespace

void
write_maf(std::ostream& out,
          const std::vector<align::Alignment>& alignments,
          const seq::Genome& target, const seq::Genome& query,
          const std::string& comment)
{
    const seq::BaseView target_flat = target.flattened_view();
    const seq::BaseView query_flat = query.flattened_view();

    // Reverse-strand alignments carry coordinates in the space of the
    // reverse-complemented flattened query; materialize it on demand
    // (staying 2-bit packed when the genome is packed).
    seq::Sequence query_rc;
    seq::PackedSequence query_rc_packed;
    bool have_rc = false;

    out << "##maf version=1 scoring=darwin-wga\n";
    if (!comment.empty())
        out << "# " << comment << "\n";
    for (const auto& alignment : alignments) {
        const bool reverse =
            alignment.query_strand == align::Strand::Reverse;
        bool t_sep = false;
        bool q_sep = false;
        const auto t_pos = target.resolve(alignment.target_start, &t_sep);
        const auto t_end_pos =
            target.resolve(alignment.target_end > 0
                               ? alignment.target_end - 1 : 0, &t_sep);

        // Map the query footprint to forward-strand coordinates.
        const std::size_t q_flat_len = query.flat_length();
        const std::uint64_t q_fwd_start =
            reverse ? q_flat_len - alignment.query_end
                    : alignment.query_start;
        const std::uint64_t q_fwd_last =
            reverse ? q_flat_len - alignment.query_start - 1
                    : (alignment.query_end > 0 ? alignment.query_end - 1
                                               : 0);
        const auto q_pos = query.resolve(q_fwd_start, &q_sep);
        bool q_end_sep = false;
        const auto q_end_pos = query.resolve(q_fwd_last, &q_end_sep);
        if (t_sep || q_sep || q_end_sep ||
            t_end_pos.chromosome != t_pos.chromosome ||
            q_end_pos.chromosome != q_pos.chromosome) {
            warn("maf: skipping alignment crossing a chromosome separator");
            continue;
        }
        const std::string& t_name =
            target.chromosome_name(t_pos.chromosome);
        const std::size_t t_size =
            target.chromosome_length(t_pos.chromosome);
        const std::string& q_name = query.chromosome_name(q_pos.chromosome);
        const std::size_t q_size =
            query.chromosome_length(q_pos.chromosome);

        // MAF '-' strand starts count from the reverse-complement start
        // of the chromosome.
        const std::uint64_t q_field_start =
            reverse ? q_size - (q_pos.offset + alignment.query_span())
                    : q_pos.offset;
        if (reverse && !have_rc) {
            if (query.packed())
                query_rc_packed =
                    query.flattened_packed().reverse_complement();
            else
                query_rc = query.flattened().reverse_complement();
            have_rc = true;
        }
        const seq::BaseView query_side =
            !reverse ? query_flat
                     : (query.packed()
                            ? seq::BaseView(query_rc_packed)
                            : seq::BaseView(std::span<const std::uint8_t>{
                                  query_rc.codes().data(),
                                  query_rc.size()}));

        out << strprintf("a score=%d\n", alignment.score);
        out << strprintf(
            "s %s %llu %llu + %zu %s\n", t_name.c_str(),
            static_cast<unsigned long long>(t_pos.offset),
            static_cast<unsigned long long>(alignment.target_span()),
            t_size, gapped_text(alignment, target_flat, true).c_str());
        out << strprintf(
            "s %s %llu %llu %c %zu %s\n", q_name.c_str(),
            static_cast<unsigned long long>(q_field_start),
            static_cast<unsigned long long>(alignment.query_span()),
            reverse ? '-' : '+', q_size,
            gapped_text(alignment, query_side, false).c_str());
        out << "\n";
    }
}

void
write_maf_file(const std::string& path,
               const std::vector<align::Alignment>& alignments,
               const seq::Genome& target, const seq::Genome& query,
               const std::string& comment)
{
    std::ofstream out(path);
    if (!out)
        fatal("maf: cannot write file: " + path);
    write_maf(out, alignments, target, query, comment);
}

}  // namespace darwin::wga
