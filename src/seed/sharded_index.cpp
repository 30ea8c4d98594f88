#include "seed/sharded_index.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seed {

std::vector<ShardPlan>
plan_shards(std::uint64_t target_length, std::uint64_t shard_bp,
            std::uint64_t chunk_size, std::uint64_t bin_size)
{
    if (shard_bp == 0)
        fatal("shard-bp: shard size of zero bp (must be positive)");
    // Band starts range over projected target positions, which exceed
    // raw positions by up to the query chunk size.
    const std::uint64_t band_end = target_length + chunk_size + bin_size;
    std::vector<ShardPlan> plan;
    for (std::uint64_t lo = 0; lo < band_end; lo += shard_bp) {
        ShardPlan shard;
        shard.band_lo = lo;
        shard.band_hi = std::min(band_end, lo + shard_bp);
        shard.slice_lo = lo > chunk_size ? lo - chunk_size : 0;
        shard.slice_hi = std::min<std::uint64_t>(
            target_length, shard.band_hi + bin_size);
        plan.push_back(shard);
    }
    if (plan.empty()) {
        // Degenerate empty target: one empty shard keeps callers simple.
        plan.push_back(ShardPlan{0, band_end, 0, 0});
    }
    return plan;
}

ShardedSeedIndexBuilder::ShardedSeedIndexBuilder(
    const seq::PackedSequence& target, const SeedPattern& pattern,
    std::uint32_t max_bucket, std::uint64_t shard_bp,
    std::uint64_t chunk_size, std::uint64_t bin_size)
    : target_(target), pattern_(pattern), max_bucket_(max_bucket)
{
    require(max_bucket_ > 0,
            "ShardedSeedIndexBuilder: max_bucket must be positive");
    plan_ = plan_shards(target.size(), shard_bp, chunk_size, bin_size);
    // Global pass: the whole target's windows, sorted by key, yield the
    // truncation cutoffs; the window list is dropped on return.
    const auto windows =
        sorted_seed_windows(target, pattern_, 0, target.size(), &skipped_);
    truncated_ = truncated_keys(windows, max_bucket_);
}

std::shared_ptr<const SeedIndex>
ShardedSeedIndexBuilder::build_shard(std::size_t s) const
{
    require(s < plan_.size(), "ShardedSeedIndexBuilder: bad shard index");
    const ShardPlan& shard = plan_[s];
    std::uint64_t slice_skipped = 0;  // the global count is reported
    const auto windows = sorted_seed_windows(
        target_, pattern_, shard.slice_lo, shard.slice_hi, &slice_skipped);
    return std::make_shared<const SeedIndex>(pattern_, max_bucket_, windows,
                                             truncated_, skipped_);
}

}  // namespace darwin::seed
