/**
 * @file
 * Tests for the seed module: spaced seed patterns, transition
 * neighborhoods, the position index, and D-SOFT banding.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "seed/dsoft.h"
#include "seed/seed_index.h"
#include "seed/seed_pattern.h"
#include "seed/sharded_index.h"
#include "seq/packed_sequence.h"
#include "seq/sequence.h"
#include "util/logging.h"
#include "util/rng.h"

namespace darwin::seed {
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

TEST(SeedPattern, LastzDefaultIs12of19)
{
    const auto pattern = SeedPattern::lastz_default();
    EXPECT_EQ(pattern.span(), 19u);
    EXPECT_EQ(pattern.weight(), 12u);
    EXPECT_EQ(pattern.key_space(), 1ULL << 24);
}

TEST(SeedPattern, RejectsMalformed)
{
    EXPECT_THROW(SeedPattern(""), FatalError);
    EXPECT_THROW(SeedPattern("11012"), FatalError);
    EXPECT_THROW(SeedPattern("000"), FatalError);
    EXPECT_THROW(SeedPattern(std::string(16, '1')), FatalError);
}

TEST(SeedPattern, KeyIgnoresDontCares)
{
    const SeedPattern pattern("101");
    const auto a = seq::encode_string("AAA");
    const auto b = seq::encode_string("ACA");
    const auto c = seq::encode_string("AAG");
    EXPECT_EQ(pattern.key_at({a.data(), a.size()}, 0),
              pattern.key_at({b.data(), b.size()}, 0));
    EXPECT_NE(pattern.key_at({a.data(), a.size()}, 0),
              pattern.key_at({c.data(), c.size()}, 0));
}

TEST(SeedPattern, KeyRejectsNAndOverrun)
{
    const SeedPattern pattern("111");
    const auto withn = seq::encode_string("ANA");
    EXPECT_FALSE(pattern.key_at({withn.data(), withn.size()}, 0));
    const auto ok = seq::encode_string("ACG");
    EXPECT_TRUE(pattern.key_at({ok.data(), ok.size()}, 0));
    EXPECT_FALSE(pattern.key_at({ok.data(), ok.size()}, 1));
}

TEST(SeedPattern, TransitionNeighborsMatchTransitionMutants)
{
    const SeedPattern pattern("111");
    const auto base = seq::encode_string("ACG");
    const auto key = *pattern.key_at({base.data(), base.size()}, 0);
    const auto neighbors = pattern.transition_neighbors(key);
    EXPECT_EQ(neighbors.size(), 3u);
    // Transition mutants: GCG (A->G), ATG (C->T), ACA (G->A).
    for (const std::string mutant : {"GCG", "ATG", "ACA"}) {
        const auto codes = seq::encode_string(mutant);
        const auto mkey = *pattern.key_at({codes.data(), codes.size()}, 0);
        EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), mkey),
                  neighbors.end())
            << "missing transition mutant " << mutant;
    }
    // A transversion mutant must NOT be in the neighborhood.
    const auto tv = seq::encode_string("CCG");
    const auto tvkey = *pattern.key_at({tv.data(), tv.size()}, 0);
    EXPECT_EQ(std::find(neighbors.begin(), neighbors.end(), tvkey),
              neighbors.end());
}

TEST(SeedIndex, FindsAllOccurrences)
{
    const SeedPattern pattern("1111");
    const seq::Sequence target("t", "ACGTAACGTA");
    const SeedIndex index(target, pattern);
    const auto codes = seq::encode_string("ACGT");
    const auto key = *pattern.key_at({codes.data(), codes.size()}, 0);
    const auto hits = index.lookup(key);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 5u);
}

TEST(SeedIndex, SkipsWindowsWithN)
{
    const SeedPattern pattern("1111");
    const seq::Sequence target("t", "ACGTNACGT");
    const SeedIndex index(target, pattern);
    // Windows at 1..4 contain the N.
    EXPECT_GT(index.skipped_windows(), 0u);
    const auto codes = seq::encode_string("ACGT");
    const auto key = *pattern.key_at({codes.data(), codes.size()}, 0);
    ASSERT_EQ(index.lookup(key).size(), 2u);
}

TEST(SeedIndex, TruncatesRepeatBuckets)
{
    const SeedPattern pattern("1111");
    const seq::Sequence target("t", std::string(500, 'A'));
    const SeedIndex index(target, pattern, /*max_bucket=*/16);
    const auto codes = seq::encode_string("AAAA");
    const auto key = *pattern.key_at({codes.data(), codes.size()}, 0);
    EXPECT_EQ(index.lookup(key).size(), 16u);
    EXPECT_TRUE(index.over_represented(key));
    EXPECT_EQ(index.truncated_buckets(), 1u);
}

TEST(SeedIndex, SpacedPatternIndexesCorrectKey)
{
    const SeedPattern pattern("1011");
    const seq::Sequence target("t", "AGCTA");
    const SeedIndex index(target, pattern);
    // Window 0: A?CT -> key from A,C,T. A query window "AACT" must match.
    const auto probe = seq::encode_string("AACT");
    const auto key = *pattern.key_at({probe.data(), probe.size()}, 0);
    const auto hits = index.lookup(key);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], 0u);
}

// ---------------------------------------------------------------------
// Compact layout: every lookup() and over_represented() answer equals a
// naive std::map index built window by window.

struct ReferenceIndex {
    std::map<SeedKey, std::vector<std::uint32_t>> buckets;
    std::set<SeedKey> over;
};

ReferenceIndex
reference_index(const seq::Sequence& target, const SeedPattern& pattern,
                std::uint32_t max_bucket)
{
    ReferenceIndex ref;
    const std::span<const std::uint8_t> codes{target.codes().data(),
                                              target.size()};
    for (std::size_t pos = 0; pos + pattern.span() <= target.size();
         ++pos) {
        const auto key = pattern.key_at(codes, pos);
        if (!key)
            continue;
        auto& bucket = ref.buckets[*key];
        if (bucket.size() < max_bucket)
            bucket.push_back(static_cast<std::uint32_t>(pos));
        else
            ref.over.insert(*key);
    }
    return ref;
}

void
expect_matches_reference(const SeedIndex& index, const ReferenceIndex& ref,
                         std::uint64_t seed)
{
    EXPECT_EQ(index.num_keys(), ref.buckets.size());
    EXPECT_EQ(index.truncated_buckets(), ref.over.size());
    std::size_t positions = 0;
    for (const auto& [key, bucket] : ref.buckets) {
        const auto got = index.lookup(key);
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), bucket)
            << "key " << key;
        ASSERT_EQ(index.over_represented(key), ref.over.contains(key))
            << "key " << key;
        positions += bucket.size();
    }
    EXPECT_EQ(index.num_positions(), positions);
    // Absent keys: empty bucket, never over-represented.
    Rng rng(seed);
    const std::uint64_t key_space = index.pattern().key_space();
    for (int sample = 0; sample < 2'000; ++sample) {
        const auto key = static_cast<SeedKey>(rng.uniform(key_space));
        if (ref.buckets.contains(key))
            continue;
        ASSERT_TRUE(index.lookup(key).empty()) << "key " << key;
        ASSERT_FALSE(index.over_represented(key)) << "key " << key;
    }
    // Boundary keys of the key space.
    for (const SeedKey key : {SeedKey{0},
                              static_cast<SeedKey>(key_space - 1)}) {
        const auto it = ref.buckets.find(key);
        EXPECT_EQ(index.lookup(key).size(),
                  it == ref.buckets.end() ? 0u : it->second.size());
    }
}

TEST(CompactIndex, MatchesNaiveReferenceOnARandomTarget)
{
    const SeedPattern pattern = SeedPattern::lastz_default();
    const auto target = random_sequence(30'000, 101);
    const SeedIndex index(target, pattern);
    expect_matches_reference(index, reference_index(target, pattern, 256),
                             7);
    // Sized by occupied keys: b = bit_width(keys) < 2 * weight, and the
    // sections are a small fraction of a 4^12-entry dense table.
    EXPECT_EQ(index.directory_bits(),
              static_cast<unsigned>(std::bit_width(index.num_keys())));
    EXPECT_LT(index.directory_bits(), 24u);
    EXPECT_EQ(index.sections().directory.size(),
              (std::size_t{1} << index.directory_bits()) + 1);
    const auto& sections = index.sections();
    EXPECT_LT(sections.keys.size_bytes() + sections.directory.size_bytes() +
                  sections.offsets.size_bytes() +
                  sections.positions.size_bytes() +
                  sections.over_words.size_bytes(),
              1u << 20);
}

TEST(CompactIndex, MatchesNaiveReferenceOnARepetitiveTargetWithNs)
{
    // Tandem repeats overflow a small cap; runs of N skip windows.
    std::string bases;
    Rng rng(5);
    const char* alphabet = "ACGT";
    for (int block = 0; block < 40; ++block) {
        for (int i = 0; i < 30; ++i)
            bases += alphabet[rng.uniform(4)];
        bases += block % 3 == 0 ? "NNNNN" : "ACGTTGCAACGTTGCA";
    }
    const seq::Sequence target("t", bases);
    const SeedPattern pattern("1101011");
    const SeedIndex index(target, pattern, /*max_bucket=*/4);
    const ReferenceIndex ref = reference_index(target, pattern, 4);
    EXPECT_GT(ref.over.size(), 0u);
    EXPECT_GT(index.skipped_windows(), 0u);
    expect_matches_reference(index, ref, 8);
}

TEST(CompactIndex, NoOccupiedKeys)
{
    const SeedPattern pattern("1111");
    // All-N target: every window skipped; a target shorter than the
    // span has no window at all.
    for (const std::string bases : {"NNNNNNNN", "ACG", ""}) {
        const seq::Sequence target("t", bases);
        const SeedIndex index(target, pattern);
        EXPECT_EQ(index.num_keys(), 0u) << bases;
        EXPECT_EQ(index.num_positions(), 0u);
        EXPECT_EQ(index.directory_bits(), 0u);
        EXPECT_EQ(index.sections().directory.size(), 2u);
        EXPECT_EQ(index.sections().offsets.size(), 1u);
        EXPECT_TRUE(index.sections().over_words.empty());
        for (SeedKey key = 0; key < pattern.key_space(); ++key) {
            ASSERT_TRUE(index.lookup(key).empty());
            ASSERT_FALSE(index.over_represented(key));
        }
    }
    EXPECT_EQ(SeedIndex(seq::Sequence("t", "NNNNNNNN"), pattern)
                  .skipped_windows(),
              5u);
}

TEST(CompactIndex, OneOccupiedKey)
{
    const SeedPattern pattern("1111");
    const seq::Sequence target("t", "AAAAAAA");
    const SeedIndex index(target, pattern);
    ASSERT_EQ(index.num_keys(), 1u);
    EXPECT_EQ(index.directory_bits(), 1u);  // bit_width(1)
    expect_matches_reference(index, reference_index(target, pattern, 256),
                             9);
    EXPECT_EQ(index.lookup(0).size(), 4u);
}

TEST(CompactIndex, FullOccupancyIsTheDenseTable)
{
    // Weight 2: 16 keys, all present in 2 kb of random bases, so the
    // directory has 2 * weight bits and directory[k] == k.
    const SeedPattern pattern("101");
    const auto target = random_sequence(2'000, 11);
    const SeedIndex index(target, pattern);
    ASSERT_EQ(index.num_keys(), pattern.key_space());
    EXPECT_EQ(index.directory_bits(), 2 * pattern.weight());
    const auto directory = index.sections().directory;
    for (std::size_t k = 0; k < directory.size(); ++k)
        ASSERT_EQ(directory[k], k);
    expect_matches_reference(index, reference_index(target, pattern, 256),
                             10);
}

TEST(CompactIndex, BucketsAtAndOneOverTheCap)
{
    // Weight-1 seed: every base is its own window. A occurs exactly
    // max_bucket times, C max_bucket + 1 times.
    const SeedPattern pattern("1");
    const seq::Sequence target("t", "AAAACCCCCGT");
    const SeedIndex index(target, pattern, /*max_bucket=*/4);
    const SeedKey a = seq::encode_base('A');
    const SeedKey c = seq::encode_base('C');
    EXPECT_EQ(index.lookup(a).size(), 4u);
    EXPECT_FALSE(index.over_represented(a));
    EXPECT_EQ(index.lookup(c).size(), 4u);
    EXPECT_TRUE(index.over_represented(c));
    EXPECT_EQ(index.lookup(c).front(), 4u);
    EXPECT_EQ(index.lookup(c).back(), 7u);
    EXPECT_EQ(index.truncated_buckets(), 1u);
    expect_matches_reference(index, reference_index(target, pattern, 4),
                             12);
}

TEST(CompactIndex, PackedBuildIsBitIdenticalToByteBuild)
{
    const SeedPattern pattern = SeedPattern::lastz_default();
    auto target = random_sequence(8'000, 13);
    for (std::size_t i = 3'000; i < 3'040; ++i)
        target.codes()[i] = seq::BaseN;
    const SeedIndex from_bytes(target, pattern);
    const SeedIndex from_packed(seq::PackedSequence::pack(target), pattern);
    const auto same = [](auto a, auto b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    const auto& x = from_bytes.sections();
    const auto& y = from_packed.sections();
    EXPECT_TRUE(same(x.keys, y.keys));
    EXPECT_TRUE(same(x.directory, y.directory));
    EXPECT_TRUE(same(x.offsets, y.offsets));
    EXPECT_TRUE(same(x.positions, y.positions));
    EXPECT_TRUE(same(x.over_words, y.over_words));
    EXPECT_EQ(from_bytes.skipped_windows(), from_packed.skipped_windows());
}

TEST(CompactIndex, ShardsKeepGlobalTruncationFlags)
{
    // A repeat overflowing the cap early in the target: shards whose
    // slice lies past the cutoff hold the key with an empty bucket and
    // still report it over-represented, as the whole-target index does.
    std::string bases(400, 'A');
    Rng rng(21);
    for (int i = 0; i < 1'600; ++i)
        bases += "ACGT"[rng.uniform(4)];
    bases += std::string(40, 'A');
    const seq::Sequence target("t", bases);
    const auto packed = seq::PackedSequence::pack(target);
    const SeedPattern pattern("11011");
    const SeedIndex mono(target, pattern, /*max_bucket=*/8);
    const ShardedSeedIndexBuilder builder(packed, pattern, 8, 300, 64, 32);
    ASSERT_GT(builder.num_shards(), 3u);
    ASSERT_GT(mono.truncated_buckets(), 0u);
    EXPECT_EQ(builder.truncated_buckets(), mono.truncated_buckets());
    const SeedKey all_a = 0;
    ASSERT_TRUE(mono.over_represented(all_a));
    for (std::size_t s = 0; s < builder.num_shards(); ++s) {
        const auto shard = builder.build_shard(s);
        const auto& plan = builder.plan()[s];
        for (SeedKey key = 0; key < pattern.key_space(); ++key) {
            ASSERT_EQ(shard->over_represented(key),
                      mono.over_represented(key))
                << "shard " << s << " key " << key;
            std::vector<std::uint32_t> expect;
            for (const std::uint32_t position : mono.lookup(key)) {
                if (position >= plan.slice_lo && position < plan.slice_hi)
                    expect.push_back(position);
            }
            const auto got = shard->lookup(key);
            ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                      expect)
                << "shard " << s << " key " << key;
        }
    }
}

TEST(Dsoft, FindsPlantedMatchOncePerBand)
{
    // Target and query share one exact 40bp region; every seed position in
    // it hits, but D-SOFT must emit a single candidate for the band.
    Rng rng(71);
    auto target = random_sequence(400, 72);
    auto query = random_sequence(400, 73);
    for (std::size_t i = 0; i < 40; ++i)
        query.codes()[200 + i] = target.codes()[100 + i];

    const SeedPattern pattern("11111111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 400;  // whole query in one chunk
    params.bin_size = 128;
    params.transitions = false;
    const DsoftSeeder seeder(index, params);
    SeedingStats stats;
    const auto hits = seeder.seed_all(query, &stats);
    ASSERT_GE(hits.size(), 1u);
    // All hits on the planted diagonal are collapsed to one band; random
    // 8-mers may add a few more elsewhere.
    std::size_t planted = 0;
    for (const auto& hit : hits) {
        const std::int64_t diag = static_cast<std::int64_t>(hit.target_pos) -
                                  static_cast<std::int64_t>(hit.query_pos);
        if (diag == -100)
            ++planted;
    }
    EXPECT_EQ(planted, 1u);
    EXPECT_GT(stats.seed_hits, 20u);  // the raw hits were all enumerated
    EXPECT_EQ(stats.candidates, hits.size());
}

TEST(Dsoft, ThresholdFiltersIsolatedHits)
{
    Rng rng(74);
    auto target = random_sequence(2000, 75);
    auto query = random_sequence(2000, 76);
    for (std::size_t i = 0; i < 60; ++i)
        query.codes()[1000 + i] = target.codes()[500 + i];

    const SeedPattern pattern("111111111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 128;
    params.bin_size = 128;
    params.transitions = false;
    params.min_hits_per_band = 4;
    const DsoftSeeder seeder(index, params);
    const auto hits = seeder.seed_all(query);
    // Only the planted 60bp run produces >= 4 collinear hits per band.
    ASSERT_GE(hits.size(), 1u);
    for (const auto& hit : hits) {
        const std::int64_t diag = static_cast<std::int64_t>(hit.target_pos) -
                                  static_cast<std::int64_t>(hit.query_pos);
        EXPECT_EQ(diag, -500);
    }
}

TEST(Dsoft, TransitionsRecoverTransitionMutatedSeeds)
{
    // Mutate one seed position with a transition; exact seeding misses it,
    // 1-transition seeding finds it.
    Rng rng(77);
    auto target = random_sequence(600, 78);
    auto query = random_sequence(600, 79);
    for (std::size_t i = 0; i < 19; ++i)
        query.codes()[300 + i] = target.codes()[200 + i];
    // Apply a transition at a match position of the 12of19 pattern (offset
    // 0 is a '1' position).
    query.codes()[300] = seq::transition_partner(query.codes()[300]);

    const SeedPattern pattern = SeedPattern::lastz_default();
    const SeedIndex index(target, pattern);

    DsoftParams exact;
    exact.chunk_size = 600;
    exact.transitions = false;
    const auto exact_hits = DsoftSeeder(index, exact).seed_all(query);
    bool exact_found = false;
    for (const auto& hit : exact_hits) {
        if (hit.target_pos == 200 && hit.query_pos == 300)
            exact_found = true;
    }
    EXPECT_FALSE(exact_found);

    DsoftParams with_tr = exact;
    with_tr.transitions = true;
    const auto tr_hits = DsoftSeeder(index, with_tr).seed_all(query);
    bool tr_found = false;
    for (const auto& hit : tr_hits) {
        if (hit.target_pos == 200 && hit.query_pos == 300)
            tr_found = true;
    }
    EXPECT_TRUE(tr_found);
}

TEST(Dsoft, LookupCountsTransitionMultiplier)
{
    const SeedPattern pattern = SeedPattern::lastz_default();
    auto target = random_sequence(500, 80);
    auto query = random_sequence(500, 81);
    const SeedIndex index(target, pattern);

    DsoftParams params;
    params.chunk_size = 500;
    params.transitions = false;
    SeedingStats without;
    DsoftSeeder(index, params).seed_all(query, &without);

    params.transitions = true;
    SeedingStats with;
    DsoftSeeder(index, params).seed_all(query, &with);

    // (m+1) = 13 lookups per position with 1 transition allowed.
    EXPECT_EQ(with.seed_lookups, without.seed_lookups * 13);
}

TEST(Dsoft, ParallelMatchesSerial)
{
    Rng rng(82);
    auto target = random_sequence(3000, 83);
    auto query = random_sequence(3000, 84);
    for (std::size_t i = 0; i < 100; ++i)
        query.codes()[700 + i] = target.codes()[1500 + i];
    const SeedPattern pattern("1110110111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 64;
    const DsoftSeeder seeder(index, params);
    const auto serial = seeder.seed_all(query);
    ThreadPool pool(4);
    const auto parallel = seeder.seed_all(query, nullptr, &pool);
    EXPECT_EQ(serial, parallel);
}

TEST(Dsoft, StrideSkipsPositions)
{
    auto target = random_sequence(1000, 85);
    const SeedPattern pattern("11111111");
    const SeedIndex index(target, pattern);
    DsoftParams params;
    params.chunk_size = 1000;
    params.transitions = false;
    SeedingStats s1, s4;
    DsoftSeeder(index, params).seed_all(target, &s1);
    params.query_stride = 4;
    DsoftSeeder(index, params).seed_all(target, &s4);
    EXPECT_NEAR(static_cast<double>(s1.seed_lookups) / 4.0,
                static_cast<double>(s4.seed_lookups),
                static_cast<double>(s1.seed_lookups) * 0.01 + 2);
}

}  // namespace
}  // namespace darwin::seed
