#include "seq/genome.h"

#include <algorithm>

#include "util/logging.h"

namespace darwin::seq {

std::size_t
Genome::add_chromosome(Sequence chromosome)
{
    require(!packed_mode_,
            "Genome::add_chromosome: cannot add a byte chromosome to a "
            "packed genome");
    chromosomes_.push_back(std::move(chromosome));
    flat_valid_ = false;
    packed_flat_valid_ = false;
    offsets_valid_ = false;
    return chromosomes_.size() - 1;
}

std::size_t
Genome::add_chromosome(PackedSequence chromosome)
{
    require(chromosomes_.empty(),
            "Genome::add_chromosome: cannot add a packed chromosome to a "
            "byte genome");
    packed_mode_ = true;
    packed_chromosomes_.push_back(std::move(chromosome));
    decoded_.clear();
    flat_valid_ = false;
    packed_flat_valid_ = false;
    offsets_valid_ = false;
    return packed_chromosomes_.size() - 1;
}

std::size_t
Genome::num_chromosomes() const
{
    return packed_mode_ ? packed_chromosomes_.size() : chromosomes_.size();
}

const std::string&
Genome::chromosome_name(std::size_t i) const
{
    require(i < num_chromosomes(), "Genome::chromosome_name: bad index");
    return packed_mode_ ? packed_chromosomes_[i].name()
                        : chromosomes_[i].name();
}

std::size_t
Genome::chromosome_length(std::size_t i) const
{
    require(i < num_chromosomes(), "Genome::chromosome_length: bad index");
    return packed_mode_ ? packed_chromosomes_[i].size()
                        : chromosomes_[i].size();
}

const Sequence&
Genome::chromosome(std::size_t i) const
{
    require(i < num_chromosomes(), "Genome::chromosome: bad index");
    if (!packed_mode_)
        return chromosomes_[i];
    if (decoded_.size() != packed_chromosomes_.size())
        decoded_.resize(packed_chromosomes_.size());
    if (!decoded_[i]) {
        decoded_[i] = std::make_unique<Sequence>(
            packed_chromosomes_[i].to_sequence());
    }
    return *decoded_[i];
}

const std::vector<Sequence>&
Genome::chromosomes() const
{
    require(!packed_mode_,
            "Genome::chromosomes: packed genome has no byte chromosome "
            "vector; use packed_chromosomes() or per-chromosome accessors");
    return chromosomes_;
}

const PackedSequence&
Genome::packed_chromosome(std::size_t i) const
{
    require(packed_mode_, "Genome::packed_chromosome: byte-mode genome");
    require(i < packed_chromosomes_.size(),
            "Genome::packed_chromosome: bad index");
    return packed_chromosomes_[i];
}

const std::vector<PackedSequence>&
Genome::packed_chromosomes() const
{
    require(packed_mode_, "Genome::packed_chromosomes: byte-mode genome");
    return packed_chromosomes_;
}

std::size_t
Genome::total_length() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < num_chromosomes(); ++i)
        total += chromosome_length(i);
    return total;
}

std::size_t
Genome::flat_length() const
{
    ensure_offsets();
    return flat_length_;
}

const Sequence&
Genome::flattened() const
{
    if (!flat_valid_)
        rebuild_flat();
    return flat_;
}

BaseView
Genome::flattened_view() const
{
    if (packed_mode_)
        return flattened_packed();
    return flattened();
}

const PackedSequence&
Genome::flattened_packed() const
{
    if (packed_flat_valid_)
        return packed_flat_;
    ensure_offsets();
    if (packed_mode_) {
        PackedSequence flat;
        flat.set_name(name_ + ":flat");
        for (std::size_t i = 0; i < packed_chromosomes_.size(); ++i) {
            if (i > 0)
                flat.append_n_run(separator_length());
            const PackedSequence& chrom = packed_chromosomes_[i];
            // Word-aligned append: flat_offsets keep every chromosome
            // start at a multiple of the packing geometry only when
            // lengths cooperate, so copy base by base via decode-free
            // window extraction.
            std::size_t pos = 0;
            while (pos < chrom.size()) {
                const std::size_t chunk =
                    std::min<std::size_t>(32, chrom.size() - pos);
                std::uint64_t lanes = chrom.extract_kmer(pos, chunk);
                std::uint64_t ambiguous = chrom.n_mask(pos, chunk);
                for (std::size_t j = 0; j < chunk; ++j) {
                    if (ambiguous & 1)
                        flat.append_code(BaseN);
                    else
                        flat.append_code(
                            static_cast<std::uint8_t>(lanes & 3));
                    lanes >>= 2;
                    ambiguous >>= 1;
                }
                pos += chunk;
            }
        }
        packed_flat_ = std::move(flat);
    } else {
        packed_flat_ = PackedSequence::pack(flattened());
    }
    packed_flat_valid_ = true;
    return packed_flat_;
}

void
Genome::release_decoded() const
{
    if (!packed_mode_)
        return;
    decoded_.clear();
    flat_ = Sequence();
    flat_valid_ = false;
}

std::size_t
Genome::flat_offset(std::size_t chromosome_index) const
{
    ensure_offsets();
    require(chromosome_index < flat_offsets_.size(),
            "Genome::flat_offset: bad index");
    return flat_offsets_[chromosome_index];
}

GenomePosition
Genome::resolve(std::size_t flat_position, bool* in_separator) const
{
    ensure_offsets();
    require(num_chromosomes() > 0, "Genome::resolve: empty genome");
    // flat_offsets_ is sorted; find the last chromosome starting at or
    // before flat_position.
    auto it = std::upper_bound(flat_offsets_.begin(), flat_offsets_.end(),
                               flat_position);
    const std::size_t chrom =
        static_cast<std::size_t>(it - flat_offsets_.begin()) - 1;
    const std::size_t within = flat_position - flat_offsets_[chrom];
    if (within >= chromosome_length(chrom)) {
        // Inside the separator after `chrom`.
        if (in_separator)
            *in_separator = true;
        const std::size_t next = std::min(chrom + 1,
                                          num_chromosomes() - 1);
        return {next, 0};
    }
    if (in_separator)
        *in_separator = false;
    return {chrom, within};
}

void
Genome::ensure_offsets() const
{
    if (offsets_valid_)
        return;
    flat_offsets_.clear();
    std::size_t position = 0;
    for (std::size_t i = 0; i < num_chromosomes(); ++i) {
        if (i > 0)
            position += separator_length();
        flat_offsets_.push_back(position);
        position += chromosome_length(i);
    }
    flat_length_ = position;
    offsets_valid_ = true;
}

void
Genome::rebuild_flat() const
{
    ensure_offsets();
    std::vector<std::uint8_t> codes;
    codes.reserve(flat_length_);
    for (std::size_t i = 0; i < num_chromosomes(); ++i) {
        if (i > 0)
            codes.insert(codes.end(), separator_length(), BaseN);
        if (packed_mode_) {
            const PackedSequence& chrom = packed_chromosomes_[i];
            const std::size_t begin = codes.size();
            codes.resize(begin + chrom.size());
            chrom.decode(0, chrom.size(), codes.data() + begin);
        } else {
            const auto& chrom_codes = chromosomes_[i].codes();
            codes.insert(codes.end(), chrom_codes.begin(),
                         chrom_codes.end());
        }
    }
    flat_ = Sequence(name_ + ":flat", std::move(codes));
    flat_valid_ = true;
}

}  // namespace darwin::seq
