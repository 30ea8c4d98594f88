/**
 * @file
 * Target-chunked (sharded) seed indexing for bounded-memory seeding.
 *
 * A monolithic seed table over a 100 Mbp target holds ~10^8 positions;
 * holding several of them is what breaks large-genome runs. Sharding
 * cuts the *diagonal band space* into contiguous ranges of `shard_bp`
 * band-start basepairs, so the pipeline can build (or load) one shard's
 * table at a time, seed the whole query against it, and release it
 * before the next.
 *
 * Correctness is exact, not approximate. D-SOFT assigns each raw hit
 * (t, q) of a query chunk to band floor((t + chunk_end - q) /
 * bin_size); a shard owning band starts [band_lo, band_hi) can only
 * receive hits whose target position lies in [band_lo - chunk_size,
 * band_hi + bin_size), so indexing exactly that slice reproduces every
 * owned-band hit. Two properties carry byte-identity vs the monolithic
 * run:
 *
 *  1. Global truncation. Repeat buckets keep their first `max_bucket`
 *     positions *globally*. A per-slice cap would keep the first
 *     max_bucket positions *of the slice* — a different set. The
 *     builder therefore makes one global pass (one key-sorted window
 *     list over the whole target, dropped when the pass ends) and keeps
 *     only the truncated keys with the position of each one's
 *     (max_bucket+1)-th occurrence; shard builds keep a position iff it
 *     falls below that cutoff, making every shard bucket exactly
 *     (global truncated bucket ∩ slice).
 *  2. Order preservation. Bucket positions are ascending in both the
 *     monolithic and the shard build (stable sort of windows taken in
 *     target order), so a shard bucket is a subsequence of the global
 *     bucket and D-SOFT's first-hit-per-band selection sees the same
 *     first hit.
 *
 * Every shard table also carries every globally truncated key (with an
 * empty bucket when none of its kept positions fall in the slice), so
 * over_represented() answers as the monolithic table does. Skipped-
 * window and truncated-bucket counts are global too, so shard tables
 * report the same telemetry the monolithic table would.
 */
#ifndef DARWIN_SEED_SHARDED_INDEX_H
#define DARWIN_SEED_SHARDED_INDEX_H

#include <cstdint>
#include <memory>
#include <vector>

#include "seed/seed_index.h"
#include "seq/packed_sequence.h"

namespace darwin::seed {

/** One shard of the banded target space. All units are basepairs. */
struct ShardPlan {
    std::uint64_t band_lo = 0;  ///< first owned band-start bp (inclusive)
    std::uint64_t band_hi = 0;  ///< end of owned band-start range (exclusive)
    std::uint64_t slice_lo = 0; ///< first indexed window start
    std::uint64_t slice_hi = 0; ///< end of indexed window starts (exclusive)
};

/**
 * Partition a target of `target_length` bp into shards owning
 * `shard_bp` of band-start space each, with slices widened by
 * `chunk_size` below and `bin_size` above (the D-SOFT projection
 * margins). Fatal (tagged "shard-bp") when shard_bp is zero. A
 * shard_bp >= target_length + chunk_size yields one shard whose slice
 * is the whole target.
 */
std::vector<ShardPlan> plan_shards(std::uint64_t target_length,
                                   std::uint64_t shard_bp,
                                   std::uint64_t chunk_size,
                                   std::uint64_t bin_size);

/**
 * Two-phase sharded index builder over a packed target: a global
 * truncation pass at construction (cutoffs of the truncated keys,
 * skipped windows), then per-shard table builds on demand. Only the
 * truncated keys stay resident between build_shard calls; each shard
 * table is O(positions in its slice), owned by the returned SeedIndex
 * and freed when the caller drops it.
 */
class ShardedSeedIndexBuilder {
  public:
    ShardedSeedIndexBuilder(const seq::PackedSequence& target,
                            const SeedPattern& pattern,
                            std::uint32_t max_bucket,
                            std::uint64_t shard_bp,
                            std::uint64_t chunk_size,
                            std::uint64_t bin_size);

    const std::vector<ShardPlan>& plan() const { return plan_; }
    std::size_t num_shards() const { return plan_.size(); }

    /** Global telemetry (identical to the monolithic build's). */
    std::uint64_t skipped_windows() const { return skipped_; }
    std::uint64_t truncated_buckets() const { return truncated_.size(); }

    const SeedPattern& pattern() const { return pattern_; }
    std::uint32_t max_bucket() const { return max_bucket_; }

    /**
     * Build shard `s`'s position table. Positions are global target
     * coordinates restricted to the shard's slice and filtered by the
     * global truncation cutoffs.
     */
    std::shared_ptr<const SeedIndex> build_shard(std::size_t s) const;

  private:
    const seq::PackedSequence& target_;
    SeedPattern pattern_;
    std::uint32_t max_bucket_;
    std::vector<ShardPlan> plan_;
    /** Keys whose global bucket overflows max_bucket, ascending, each
     *  with the position of its (max_bucket+1)-th occurrence. */
    std::vector<TruncatedKey> truncated_;
    std::uint64_t skipped_ = 0;
};

}  // namespace darwin::seed

#endif  // DARWIN_SEED_SHARDED_INDEX_H
