/**
 * @file
 * Tests for the persistent reference index (src/index/): on-disk
 * round-trip fidelity (bit-identical sections and D-SOFT hits through a
 * mapped file), header validation of corrupted/truncated/mismatched
 * files, and the LRU cache's eviction order, single-flight builds, and
 * behavior under concurrent acquire/release.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "index/format.h"
#include "index/index_cache.h"
#include "index/index_io.h"
#include "obs/metrics.h"
#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seed/seed_pattern.h"
#include "seq/sequence.h"
#include "util/logging.h"
#include "util/rng.h"
#include "test_temp_dir.h"

namespace darwin::index {
namespace {

seq::Sequence
random_sequence(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> codes(len);
    for (auto& c : codes)
        c = static_cast<std::uint8_t>(rng.uniform(4));
    return seq::Sequence("rand", std::move(codes));
}

using darwin::testing::temp_path;

/** Write a valid index for a deterministic 2 kb sequence. */
std::string
write_reference_index(const std::string& name,
                      const seq::Sequence& sequence,
                      const seed::SeedPattern& pattern)
{
    const std::string path = temp_path(name);
    const seed::SeedIndex index(sequence, pattern);
    save_index(path, index, sequence_digest(sequence), sequence.size());
    return path;
}

std::vector<char>
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::vector<char>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Rewrite one header field of an on-disk index. */
template <typename Mutator>
std::string
corrupt_header(const std::string& src, const std::string& name,
               Mutator mutate)
{
    std::vector<char> bytes = slurp(src);
    IndexHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    mutate(header);
    std::memcpy(bytes.data(), &header, sizeof(header));
    const std::string path = temp_path(name);
    spit(path, bytes);
    return path;
}

TEST(IndexIo, RoundTripPreservesEverySection)
{
    const auto sequence = random_sequence(2'000, 42);
    const seed::SeedPattern pattern("11011011");
    const seed::SeedIndex built(sequence, pattern);
    const std::string path =
        write_reference_index("rt_sections.dwi", sequence, pattern);

    IndexInfo info;
    const auto loaded = load_index(path, &info);
    ASSERT_NE(loaded, nullptr);

    EXPECT_EQ(loaded->pattern().pattern(), pattern.pattern());
    EXPECT_EQ(loaded->max_bucket(), built.max_bucket());
    EXPECT_EQ(loaded->skipped_windows(), built.skipped_windows());
    EXPECT_EQ(loaded->truncated_buckets(), built.truncated_buckets());

    const auto equal_u32 = [](std::span<const std::uint32_t> a,
                              std::span<const std::uint32_t> b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(std::uint32_t)) == 0;
    };
    EXPECT_TRUE(
        equal_u32(loaded->bucket_offsets(), built.bucket_offsets()));
    EXPECT_TRUE(equal_u32(loaded->positions(), built.positions()));
    ASSERT_EQ(loaded->over_represented_words().size(),
              built.over_represented_words().size());
    EXPECT_EQ(std::memcmp(loaded->over_represented_words().data(),
                          built.over_represented_words().data(),
                          built.over_represented_words().size() *
                              sizeof(std::uint64_t)),
              0);

    EXPECT_EQ(info.sequence_digest, sequence_digest(sequence));
    EXPECT_EQ(info.sequence_length, sequence.size());
    EXPECT_EQ(info.num_positions, built.num_positions());
    EXPECT_EQ(info.pattern, pattern.pattern());
    EXPECT_EQ(info.total_bytes, std::filesystem::file_size(path));
}

TEST(IndexIo, MappedIndexProducesBitIdenticalDsoftHits)
{
    // Planted 60 bp identity so seeding produces real candidate bands,
    // then D-SOFT through the built index and through the mapped file
    // must emit exactly the same hits.
    auto target = random_sequence(3'000, 7);
    auto query = random_sequence(3'000, 8);
    for (std::size_t i = 0; i < 60; ++i)
        query.codes()[1'200 + i] = target.codes()[400 + i];

    const seed::SeedPattern pattern("111011011");
    const seed::SeedIndex built(target, pattern);
    const std::string path =
        write_reference_index("rt_dsoft.dwi", target, pattern);
    const auto mapped = load_index(path);

    seed::DsoftParams params;
    params.chunk_size = 256;
    const auto from_built =
        seed::DsoftSeeder(built, params).seed_all(query);
    const auto from_mapped =
        seed::DsoftSeeder(*mapped, params).seed_all(query);
    EXPECT_GE(from_built.size(), 1u);
    EXPECT_EQ(from_built, from_mapped);
}

TEST(IndexIo, TruncatedBucketsSurviveTheRoundTrip)
{
    const seq::Sequence target("t", std::string(500, 'A'));
    const seed::SeedPattern pattern("1111");
    const seed::SeedIndex built(target, pattern, /*max_bucket=*/16);
    const std::string path = temp_path("rt_trunc.dwi");
    save_index(path, built, sequence_digest(target), target.size());
    const auto loaded = load_index(path);

    const auto codes = seq::encode_string("AAAA");
    const auto key = *pattern.key_at({codes.data(), codes.size()}, 0);
    EXPECT_EQ(loaded->lookup(key).size(), 16u);
    EXPECT_TRUE(loaded->over_represented(key));
    EXPECT_EQ(loaded->truncated_buckets(), 1u);
    EXPECT_EQ(loaded->max_bucket(), 16u);
}

TEST(IndexIo, IsIndexFileSniffsMagic)
{
    const auto sequence = random_sequence(600, 9);
    const std::string path = write_reference_index(
        "sniff.dwi", sequence, seed::SeedPattern("1111"));
    EXPECT_TRUE(is_index_file(path));

    const std::string fasta = temp_path("sniff.fa");
    spit(fasta, {'>', 'c', 'h', 'r', '\n', 'A', 'C', 'G', 'T', '\n'});
    EXPECT_FALSE(is_index_file(fasta));
    EXPECT_FALSE(is_index_file(temp_path("no_such_file.dwi")));
}

/** Expect load_index (and read_index_info) to throw a FatalError whose
 *  message names the offending file. */
void
expect_rejected(const std::string& path, const std::string& fragment)
{
    try {
        load_index(path);
        FAIL() << "load_index accepted " << path;
    } catch (const FatalError& error) {
        EXPECT_NE(std::string(error.what()).find(path),
                  std::string::npos)
            << "error not tagged with the path: " << error.what();
        EXPECT_NE(std::string(error.what()).find(fragment),
                  std::string::npos)
            << "expected '" << fragment << "' in: " << error.what();
    }
}

TEST(IndexIo, RejectsBadMagic)
{
    const auto sequence = random_sequence(600, 10);
    const std::string good = write_reference_index(
        "good_magic.dwi", sequence, seed::SeedPattern("1111"));
    const std::string bad =
        corrupt_header(good, "bad_magic.dwi", [](IndexHeader& h) {
            h.magic[0] = 'X';
        });
    expect_rejected(bad, "bad magic");
}

TEST(IndexIo, RejectsWrongVersion)
{
    const auto sequence = random_sequence(600, 11);
    const std::string good = write_reference_index(
        "good_ver.dwi", sequence, seed::SeedPattern("1111"));
    const std::string bad =
        corrupt_header(good, "bad_ver.dwi", [](IndexHeader& h) {
            h.version = kIndexShardedFormatVersion + 1;
        });
    expect_rejected(bad, "version");
}

TEST(IndexIo, RejectsForeignEndianness)
{
    const auto sequence = random_sequence(600, 12);
    const std::string good = write_reference_index(
        "good_endian.dwi", sequence, seed::SeedPattern("1111"));
    const std::string bad =
        corrupt_header(good, "bad_endian.dwi", [](IndexHeader& h) {
            h.endian_tag = __builtin_bswap32(h.endian_tag);
        });
    expect_rejected(bad, "byte order");
}

TEST(IndexIo, RejectsTruncatedFile)
{
    const auto sequence = random_sequence(600, 13);
    const std::string good = write_reference_index(
        "good_trunc.dwi", sequence, seed::SeedPattern("1111"));
    std::vector<char> bytes = slurp(good);
    ASSERT_GT(bytes.size(), 256u);
    bytes.resize(bytes.size() - 128);  // chop off tail bytes
    const std::string bad = temp_path("truncated.dwi");
    spit(bad, bytes);
    expect_rejected(bad, "truncated");
}

TEST(IndexIo, RejectsFileShorterThanHeader)
{
    const std::string bad = temp_path("stub.dwi");
    std::vector<char> bytes(32, 0);
    std::memcpy(bytes.data(), kIndexMagic, sizeof(kIndexMagic));
    spit(bad, bytes);
    EXPECT_THROW(load_index(bad), FatalError);
    EXPECT_THROW(read_index_info(bad), FatalError);
}

TEST(IndexIo, RejectsCorruptSeedShape)
{
    const auto sequence = random_sequence(600, 14);
    const std::string good = write_reference_index(
        "good_pattern.dwi", sequence, seed::SeedPattern("1111"));
    const std::string bad =
        corrupt_header(good, "bad_pattern.dwi", [](IndexHeader& h) {
            h.pattern[0] = '2';
        });
    expect_rejected(bad, "seed-shape");
}

TEST(IndexIo, RejectsMissingFile)
{
    EXPECT_THROW(load_index(temp_path("never_written.dwi")), FatalError);
}

TEST(IndexIo, SaveLeavesNoTempFileBehind)
{
    const auto sequence = random_sequence(600, 15);
    const std::string path = write_reference_index(
        "atomic.dwi", sequence, seed::SeedPattern("1111"));
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------
// IndexCache
// ---------------------------------------------------------------------

std::shared_ptr<const seed::SeedIndex>
tiny_index(std::uint64_t seed)
{
    const auto sequence = random_sequence(400, seed);
    return std::make_shared<const seed::SeedIndex>(
        sequence, seed::SeedPattern("1111"));
}

IndexKey
key_for(std::uint64_t digest)
{
    return IndexKey{digest, "1111", seed::SeedIndex::kDefaultMaxBucket};
}

TEST(IndexCache, HitReturnsSameInstance)
{
    IndexCache cache(4);
    bool built = false;
    const auto first =
        cache.acquire(key_for(1), [] { return tiny_index(1); }, &built);
    EXPECT_TRUE(built);
    const auto second =
        cache.acquire(key_for(1), [] { return tiny_index(1); }, &built);
    EXPECT_FALSE(built);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(IndexCache, DistinctKeysDistinctEntries)
{
    IndexCache cache(4);
    const auto a = cache.acquire(key_for(1), [] { return tiny_index(1); });
    const auto b = cache.acquire(key_for(2), [] { return tiny_index(2); });
    // Same digest, different shape or cap: still distinct entries.
    const auto c = cache.acquire(
        IndexKey{1, "1101", seed::SeedIndex::kDefaultMaxBucket}, [] {
            const auto sequence = random_sequence(400, 3);
            return std::make_shared<const seed::SeedIndex>(
                sequence, seed::SeedPattern("1101"));
        });
    const auto d = cache.acquire(IndexKey{1, "1111", 16}, [] {
        const auto sequence = random_sequence(400, 4);
        return std::make_shared<const seed::SeedIndex>(
            sequence, seed::SeedPattern("1111"), 16);
    });
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a.get(), d.get());
}

TEST(IndexCache, EvictsLeastRecentlyUsed)
{
    IndexCache cache(2);
    cache.acquire(key_for(1), [] { return tiny_index(1); });
    cache.acquire(key_for(2), [] { return tiny_index(2); });
    // Touch 1 so 2 becomes the LRU entry, then insert 3.
    cache.acquire(key_for(1), [] { return tiny_index(1); });
    cache.acquire(key_for(3), [] { return tiny_index(3); });

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.contains(key_for(1)));
    EXPECT_FALSE(cache.contains(key_for(2)));
    EXPECT_TRUE(cache.contains(key_for(3)));
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(IndexCache, EvictionDoesNotInvalidateBorrowedIndex)
{
    IndexCache cache(1);
    const auto borrowed =
        cache.acquire(key_for(1), [] { return tiny_index(1); });
    cache.acquire(key_for(2), [] { return tiny_index(2); });
    EXPECT_FALSE(cache.contains(key_for(1)));
    // The evicted index must stay fully usable while borrowed.
    EXPECT_GT(borrowed->num_positions(), 0u);
    EXPECT_GT(borrowed->bucket_offsets().size(), 0u);
}

TEST(IndexCache, ConcurrentAcquireRunsBuilderOnce)
{
    IndexCache cache(4);
    std::atomic<int> builds{0};
    std::atomic<int> ready{0};
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const seed::SeedIndex>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            got[t] = cache.acquire(key_for(99), [&] {
                builds.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return tiny_index(99);
            });
        });
    }
    for (auto& thread : threads)
        thread.join();

    EXPECT_EQ(builds.load(), 1);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(kThreads));
}

TEST(IndexCache, BuilderFailurePropagatesAndLeavesNoEntry)
{
    IndexCache cache(4);
    EXPECT_THROW(cache.acquire(key_for(5),
                               []() -> std::shared_ptr<
                                        const seed::SeedIndex> {
                                   throw std::runtime_error("disk gone");
                               }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.contains(key_for(5)));
    // A later acquire of the same key retries the build.
    bool built = false;
    const auto index =
        cache.acquire(key_for(5), [] { return tiny_index(5); }, &built);
    EXPECT_TRUE(built);
    ASSERT_NE(index, nullptr);
}

TEST(IndexCache, ConcurrentChurnStaysWithinCapacity)
{
    // Four threads hammer three keys through a capacity-1 cache while
    // holding borrowed pointers; every acquire must return a usable
    // index and the cache must never exceed its capacity.
    IndexCache cache(1);
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 40; ++i) {
                const std::uint64_t digest = (t + i) % 3 + 1;
                const auto index = cache.acquire(
                    key_for(digest),
                    [digest] { return tiny_index(digest); });
                if (index == nullptr || index->num_positions() == 0)
                    failed.store(true);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    EXPECT_FALSE(failed.load());
    EXPECT_LE(cache.size(), 1u);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_EQ(cache.hits() + cache.misses(), 4u * 40u);
}

TEST(IndexCache, PublishesMetrics)
{
    obs::MetricsRegistry metrics;
    IndexCache cache(1, &metrics, "test.index");
    cache.acquire(key_for(1), [] { return tiny_index(1); });
    cache.acquire(key_for(1), [] { return tiny_index(1); });
    cache.acquire(key_for(2), [] { return tiny_index(2); });
    EXPECT_EQ(metrics.counter("test.index.cache_hits").value(), 1u);
    EXPECT_EQ(metrics.counter("test.index.cache_misses").value(), 2u);
    EXPECT_EQ(metrics.counter("test.index.cache_evictions").value(), 1u);
    EXPECT_EQ(metrics.gauge("test.index.cache_size").value(), 1);
}

TEST(IndexCache, ClearDropsEntriesButNotBorrows)
{
    IndexCache cache(4);
    const auto borrowed =
        cache.acquire(key_for(1), [] { return tiny_index(1); });
    cache.acquire(key_for(2), [] { return tiny_index(2); });
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_GT(borrowed->num_positions(), 0u);
}

}  // namespace
}  // namespace darwin::index
