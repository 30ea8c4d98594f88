#include "seq/packed_sequence.h"

#include <algorithm>

#include "util/logging.h"

namespace darwin::seq {

PackedSequence
PackedSequence::pack(std::string name, std::span<const std::uint8_t> codes)
{
    PackedSequence packed;
    packed.name_ = std::move(name);
    packed.size_ = codes.size();
    packed.base_words_.assign(base_word_count(codes.size()), 0);
    packed.n_words_.assign(n_word_count(codes.size()), 0);
    for (std::size_t i = 0; i < codes.size(); ++i) {
        const std::uint8_t code = codes[i];
        if (is_concrete(code)) {
            packed.base_words_[i >> 5] |= static_cast<std::uint64_t>(code)
                                          << (2 * (i & 31));
        } else {
            // N lanes stay zero in the base words so equal sequences
            // always produce equal words (digest stability).
            packed.n_words_[i >> 6] |= 1ULL << (i & 63);
        }
    }
    return packed;
}

PackedSequence
PackedSequence::pack(const Sequence& sequence)
{
    return pack(sequence.name(), std::span<const std::uint8_t>(
                                     sequence.codes().data(),
                                     sequence.codes().size()));
}

PackedSequence
PackedSequence::attach(std::string name, std::size_t num_bases,
                       const std::uint64_t* base_words,
                       const std::uint64_t* n_words,
                       std::shared_ptr<const void> keepalive)
{
    PackedSequence packed;
    packed.name_ = std::move(name);
    packed.size_ = num_bases;
    packed.attached_ = true;
    packed.base_ptr_ = base_words;
    packed.n_ptr_ = n_words;
    packed.keepalive_ = std::move(keepalive);
    return packed;
}

std::uint64_t
PackedSequence::extract_kmer(std::size_t pos, std::size_t k) const
{
    if (pos >= size_)
        return 0;
    k = std::min({k, size_ - pos, std::size_t{32}});
    const std::uint64_t* words = base_words();
    const std::size_t word = pos >> 5;
    const unsigned shift = 2 * static_cast<unsigned>(pos & 31);
    std::uint64_t lanes = words[word] >> shift;
    if (shift != 0 && word + 1 < num_base_words())
        lanes |= words[word + 1] << (64 - shift);
    if (k < 32)
        lanes &= (1ULL << (2 * k)) - 1;
    return lanes;
}

std::uint64_t
PackedSequence::n_mask(std::size_t pos, std::size_t len) const
{
    if (pos >= size_)
        return 0;
    len = std::min({len, size_ - pos, std::size_t{64}});
    const std::uint64_t* words = n_words();
    const std::size_t word = pos >> 6;
    const unsigned shift = static_cast<unsigned>(pos & 63);
    std::uint64_t bits = words[word] >> shift;
    if (shift != 0 && word + 1 < num_n_words())
        bits |= words[word + 1] << (64 - shift);
    if (len < 64)
        bits &= (1ULL << len) - 1;
    return bits;
}

void
PackedSequence::decode(std::size_t start, std::size_t len,
                       std::uint8_t* out) const
{
    if (start >= size_)
        return;
    len = std::min(len, size_ - start);
    std::size_t pos = start;
    std::size_t remaining = len;
    std::uint8_t* cursor = out;
    const std::uint64_t* words = base_words();
    while (remaining > 0) {
        // One word load serves up to 32 output bytes.
        const std::size_t chunk =
            std::min<std::size_t>(32 - (pos & 31), remaining);
        std::uint64_t lanes = words[pos >> 5] >> (2 * (pos & 31));
        for (std::size_t j = 0; j < chunk; ++j) {
            cursor[j] = static_cast<std::uint8_t>(lanes & 3);
            lanes >>= 2;
        }
        std::uint64_t ambiguous = n_mask(pos, chunk);
        while (ambiguous != 0) {
            const unsigned j =
                static_cast<unsigned>(__builtin_ctzll(ambiguous));
            ambiguous &= ambiguous - 1;
            cursor[j] = BaseN;
        }
        pos += chunk;
        cursor += chunk;
        remaining -= chunk;
    }
}

std::vector<std::uint8_t>
PackedSequence::decode(std::size_t start, std::size_t len) const
{
    if (start >= size_)
        return {};
    len = std::min(len, size_ - start);
    std::vector<std::uint8_t> codes(len);
    decode(start, len, codes.data());
    return codes;
}

Sequence
PackedSequence::to_sequence() const
{
    return Sequence(name_, decode(0, size_));
}

PackedSequence
PackedSequence::reverse_complement(std::string name) const
{
    PackedSequence rc;
    rc.name_ = name.empty() ? name_ : std::move(name);
    rc.size_ = size_;
    rc.base_words_.assign(num_base_words(), 0);
    rc.n_words_.assign(num_n_words(), 0);
    for (std::size_t i = 0; i < size_; ++i) {
        const std::size_t src = size_ - 1 - i;
        if (is_n(src)) {
            rc.n_words_[i >> 6] |= 1ULL << (i & 63);
        } else {
            // 2-bit complement is XOR 3: A(0)<->T(3), C(1)<->G(2).
            const std::uint64_t code = base2(src) ^ 3u;
            rc.base_words_[i >> 5] |= code << (2 * (i & 31));
        }
    }
    return rc;
}

void
PackedSequence::ensure_owned_capacity()
{
    if (attached_)
        fatal("PackedSequence: cannot append to an attached sequence");
    if ((size_ & 31) == 0)
        base_words_.push_back(0);
    if ((size_ & 63) == 0)
        n_words_.push_back(0);
}

void
PackedSequence::append_code(std::uint8_t code)
{
    ensure_owned_capacity();
    const std::size_t i = size_++;
    if (is_concrete(code)) {
        base_words_[i >> 5] |= static_cast<std::uint64_t>(code)
                               << (2 * (i & 31));
    } else {
        n_words_[i >> 6] |= 1ULL << (i & 63);
    }
}

void
PackedSequence::append_n_run(std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        append_code(BaseN);
}

std::size_t
PackedSequence::heap_bytes() const
{
    if (attached_)
        return name_.capacity();
    return name_.capacity() +
           (base_words_.capacity() + n_words_.capacity()) *
               sizeof(std::uint64_t);
}

}  // namespace darwin::seq
