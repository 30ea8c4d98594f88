/**
 * @file
 * PackedSequence: 2-bit-per-base DNA storage with an N-mask sidecar.
 *
 * The byte-per-base Sequence costs 8x more memory than the information
 * content of DNA; at the paper's 100 Mbp scale that difference decides
 * whether a genome pair fits in RAM at all (Scrooge makes the same
 * argument for CPU/GPU aligners). PackedSequence stores base i in bits
 * [2*(i%32), 2*(i%32)+2) of word i/32 (LSB-first), using the same 2-bit
 * codes as the low bits of the byte encoding (A=0, C=1, G=2, T=3).
 * Ambiguous bases are recorded in a separate 1-bit-per-base mask word
 * array; their 2-bit lanes are stored as zero so equal sequences always
 * have equal words (digests over the words are stable).
 *
 * Two ownership modes mirror SeedIndex: owned (vectors built in memory)
 * and attached (raw pointers into an mmap'd .2bit sidecar, kept alive by
 * a shared_ptr token). Positions are 0-based, ranges half-open.
 */
#ifndef DARWIN_SEQ_PACKED_SEQUENCE_H
#define DARWIN_SEQ_PACKED_SEQUENCE_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "seq/alphabet.h"
#include "seq/sequence.h"

namespace darwin::seq {

/** A named, 2-bit packed DNA sequence with an N-position mask. */
class PackedSequence {
  public:
    PackedSequence() = default;

    /** Pack byte codes (any code >= 4 is recorded as N). */
    static PackedSequence pack(std::string name,
                               std::span<const std::uint8_t> codes);

    /** Pack an existing byte Sequence, keeping its name. */
    static PackedSequence pack(const Sequence& sequence);

    /**
     * Zero-copy attach over externally owned word arrays (an mmap'd
     * .2bit sidecar). `keepalive` pins the backing storage; the arrays
     * must outlive every copy of this PackedSequence.
     */
    static PackedSequence attach(std::string name, std::size_t num_bases,
                                 const std::uint64_t* base_words,
                                 const std::uint64_t* n_words,
                                 std::shared_ptr<const void> keepalive);

    const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Base code at position i, N-aware (A=0..T=3, N=4). */
    std::uint8_t
    operator[](std::size_t i) const
    {
        if (n_words()[i >> 6] & (1ULL << (i & 63)))
            return BaseN;
        return base2(i);
    }

    /** Low 2 bits only; N positions read as A. Hot-path primitive. */
    std::uint8_t
    base2(std::size_t i) const
    {
        return static_cast<std::uint8_t>(
            (base_words()[i >> 5] >> (2 * (i & 31))) & 3);
    }

    /** True when position i is ambiguous. */
    bool
    is_n(std::size_t i) const
    {
        return (n_words()[i >> 6] & (1ULL << (i & 63))) != 0;
    }

    /**
     * Up to 32 bases starting at `pos` as 2-bit lanes, LSB-first (base
     * `pos` in bits [0,2)). Lanes past the sequence end and N lanes read
     * as zero. This is the SIMD-friendly k-mer fast path: one or two
     * word loads and a shift replace k byte loads.
     */
    std::uint64_t extract_kmer(std::size_t pos, std::size_t k) const;

    /**
     * N-mask for up to 64 bases starting at `pos`: bit j is set when
     * position pos+j is ambiguous. Bits past the end read as zero.
     */
    std::uint64_t n_mask(std::size_t pos, std::size_t len) const;

    /** Word-wise decode of [start, start+len) into byte codes. */
    void decode(std::size_t start, std::size_t len, std::uint8_t* out) const;

    /** Decode [start, start+len) as a fresh byte vector. */
    std::vector<std::uint8_t> decode(std::size_t start, std::size_t len) const;

    /** Decode the whole sequence into a byte Sequence (same name). */
    Sequence to_sequence() const;

    /** Reverse complement as a new (owned) PackedSequence. */
    PackedSequence reverse_complement(std::string name = {}) const;

    /** Append one base code (owned mode only). */
    void append_code(std::uint8_t code);

    /** Append a run of N (owned mode only). */
    void append_n_run(std::size_t count);

    const std::uint64_t*
    base_words() const
    {
        return attached_ ? base_ptr_ : base_words_.data();
    }

    const std::uint64_t*
    n_words() const
    {
        return attached_ ? n_ptr_ : n_words_.data();
    }

    /** Word counts for the current size (used by the .2bit writer). */
    static std::size_t
    base_word_count(std::size_t num_bases)
    {
        return (num_bases + 31) / 32;
    }

    static std::size_t
    n_word_count(std::size_t num_bases)
    {
        return (num_bases + 63) / 64;
    }

    std::size_t num_base_words() const { return base_word_count(size_); }
    std::size_t num_n_words() const { return n_word_count(size_); }

    bool attached() const { return attached_; }

    /** Approximate heap footprint in bytes (0 when attached). */
    std::size_t heap_bytes() const;

  private:
    void ensure_owned_capacity();

    std::string name_;
    std::size_t size_ = 0;
    std::vector<std::uint64_t> base_words_;
    std::vector<std::uint64_t> n_words_;
    bool attached_ = false;
    const std::uint64_t* base_ptr_ = nullptr;
    const std::uint64_t* n_ptr_ = nullptr;
    std::shared_ptr<const void> keepalive_;
};

}  // namespace darwin::seq

#endif  // DARWIN_SEQ_PACKED_SEQUENCE_H
