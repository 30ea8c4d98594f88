/**
 * @file
 * Seed position index over the target genome.
 *
 * A compact table sized by the keys the target actually produces, not
 * by the 4^weight key space: a 2 x 120 kb target touches ~236 k of the
 * 16.7 M keys of the 12-of-19 seed, so a dense offset array would be
 * 98.6% empty. Five sections, the software analogue of the seed table
 * the Darwin-WGA host keeps in DRAM:
 *
 *   keys        the occupied seed keys, strictly ascending;
 *   directory   2^b + 1 entries over the top b key bits: the keys with
 *               prefix p are keys[directory[p] .. directory[p+1]);
 *   offsets     num_keys + 1 entries: key i's positions are
 *               positions[offsets[i] .. offsets[i+1]);
 *   positions   target window starts, ascending within each key and cut
 *               to the first `max_bucket`;
 *   over words  one over-represented bit per key, LSB-first in u64s.
 *
 * b = min(2 * weight, bit_width(num_keys)) is fixed by the key count,
 * so a directory bucket holds about one key and lookup() is two
 * directory reads, a short search, and two offset reads. At full
 * occupancy b = 2 * weight and the directory is the dense table.
 *
 * The index reads its sections through spans, so one class serves both
 * storage modes: the building constructors fill owned vectors, and
 * attach() wraps externally owned memory — a memory-mapped index file
 * (src/index/) — zero-copy. DsoftSeeder is oblivious to the mode.
 */
#ifndef DARWIN_SEED_SEED_INDEX_H
#define DARWIN_SEED_SEED_INDEX_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "seed/seed_pattern.h"
#include "seq/base_view.h"

namespace darwin::seed {

/** One seed window: its key in the high 32 bits, its target start
 *  position in the low 32. */
using SeedWindow = std::uint64_t;

/**
 * Every window of `target` starting in [lo, hi) (clamped to the last
 * full window), stably radix-sorted by key, so positions ascend within
 * each key. Windows with an N at a match position are counted in
 * `*skipped` and left out. Fatal for targets of 2^32-1 bp or more.
 */
std::vector<SeedWindow> sorted_seed_windows(const seq::PackedSequence& target,
                                            const SeedPattern& pattern,
                                            std::size_t lo, std::size_t hi,
                                            std::uint64_t* skipped);

/** A key whose bucket overflowed `max_bucket`: positions at or past
 *  `cutoff` (its (max_bucket+1)-th window) are dropped. */
struct TruncatedKey {
    SeedKey key = 0;
    std::uint32_t cutoff = 0;
};

/** The keys of key-sorted `windows` that occur more than `max_bucket`
 *  times, ascending, each with its cutoff position. */
std::vector<TruncatedKey> truncated_keys(std::span<const SeedWindow> windows,
                                         std::uint32_t max_bucket);

/** Compact position index for one target sequence. */
class SeedIndex {
  public:
    /** Repeat-seed cap every default-configured index uses. Persisted
     *  index files record theirs in the header, and the index cache
     *  keys on it, so the same cap always yields the same buckets. */
    static constexpr std::uint32_t kDefaultMaxBucket = 256;

    /** The five sections, in file order. */
    struct Sections {
        std::span<const std::uint32_t> keys;
        std::span<const std::uint32_t> directory;
        std::span<const std::uint32_t> offsets;
        std::span<const std::uint32_t> positions;
        std::span<const std::uint64_t> over_words;
    };

    /**
     * Build the index over `target` (typically a flattened genome), in
     * byte or 2-bit storage: equal bases give bit-identical sections.
     * Windows containing N contribute nothing, so chromosome separators
     * are never indexed.
     *
     * @param max_bucket Buckets holding more than this many positions are
     *        truncated to it and flagged as over-represented; repetitive
     *        seeds otherwise swamp the filter stage (whole-genome aligners
     *        all cap repeat seeds one way or another).
     */
    SeedIndex(seq::BaseView target, const SeedPattern& pattern,
              std::uint32_t max_bucket = kDefaultMaxBucket);

    /**
     * Assemble an index from key-sorted `windows`. Each key in
     * `truncated` keeps only its positions below the cutoff and is
     * flagged over-represented — also when none of its windows are in
     * `windows`, so a shard of a larger target (seed/sharded_index.h)
     * answers over_represented() exactly as the whole-target index does.
     * truncated_buckets() reports truncated.size().
     */
    SeedIndex(SeedPattern pattern, std::uint32_t max_bucket,
              std::span<const SeedWindow> windows,
              std::span<const TruncatedKey> truncated,
              std::uint64_t skipped_windows);

    /**
     * Zero-copy view over externally owned sections (a mapped index
     * file). The sections are untrusted: attach() checks every
     * structural invariant lookup() relies on — directory monotone and
     * ending at the key count, keys strictly ascending under their
     * directory prefix, offsets monotone and ending at the position
     * count, positions ascending within a key and starting a full
     * window inside `target_length` bp — and fails with a FatalError
     * naming the first violation. `storage` keeps the backing memory
     * alive for the index's lifetime (e.g. the mmap holder).
     */
    static SeedIndex attach(SeedPattern pattern, std::uint32_t max_bucket,
                            unsigned directory_bits, const Sections& sections,
                            std::uint64_t skipped_windows,
                            std::uint64_t truncated_buckets,
                            std::uint64_t target_length,
                            std::shared_ptr<const void> storage = nullptr);

    SeedIndex(SeedIndex&&) = default;
    SeedIndex& operator=(SeedIndex&&) = default;
    SeedIndex(const SeedIndex&) = delete;
    SeedIndex& operator=(const SeedIndex&) = delete;

    /** Target positions whose window hashes to `key`. */
    std::span<const std::uint32_t> lookup(SeedKey key) const;

    /** True when the bucket was truncated at construction. */
    bool over_represented(SeedKey key) const;

    /** Total indexed positions (after truncation). */
    std::size_t num_positions() const { return sections_.positions.size(); }

    /** Occupied keys (including truncated keys with no positions). */
    std::size_t num_keys() const { return sections_.keys.size(); }

    /** Number of windows skipped because of ambiguous bases. */
    std::uint64_t skipped_windows() const { return skipped_; }

    /** Number of buckets that hit the cap. */
    std::uint64_t truncated_buckets() const { return truncated_; }

    const SeedPattern& pattern() const { return pattern_; }

    std::uint32_t max_bucket() const { return max_bucket_; }

    /** Width b of the key-prefix directory (2^b + 1 entries). */
    unsigned directory_bits() const { return directory_bits_; }

    /** Raw sections, exposed for serialization (src/index/index_io). */
    const Sections& sections() const { return sections_; }

    std::span<const std::uint32_t> positions() const
    {
        return sections_.positions;
    }

  private:
    explicit SeedIndex(SeedPattern pattern, std::uint32_t max_bucket)
        : pattern_(std::move(pattern)), max_bucket_(max_bucket)
    {
    }

    /** The directory width an index of `num_keys` keys uses. */
    static unsigned directory_bits_for(const SeedPattern& pattern,
                                       std::uint64_t num_keys);

    /** Index of `key` in the key section, or num_keys() when absent. */
    std::size_t find_key(SeedKey key) const;

    SeedPattern pattern_;
    std::uint32_t max_bucket_ = 0;
    unsigned directory_bits_ = 0;
    unsigned prefix_shift_ = 0;  ///< 2 * weight - directory_bits_

    // Owned storage (building constructors only; empty when attached).
    std::vector<std::uint32_t> owned_keys_;
    std::vector<std::uint32_t> owned_directory_;
    std::vector<std::uint32_t> owned_offsets_;
    std::vector<std::uint32_t> owned_positions_;
    std::vector<std::uint64_t> owned_over_words_;
    /** Keepalive for attached storage (e.g. the mmap holder). */
    std::shared_ptr<const void> storage_;

    /** The views every accessor reads, whichever mode owns the bytes. */
    Sections sections_;

    std::uint64_t skipped_ = 0;
    std::uint64_t truncated_ = 0;
};

}  // namespace darwin::seed

#endif  // DARWIN_SEED_SEED_INDEX_H
