#include "seed/seed_index.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/logging.h"
#include "util/strings.h"

namespace darwin::seed {

namespace {

constexpr std::uint32_t kNoCutoff = std::numeric_limits<std::uint32_t>::max();

SeedKey
key_of(SeedWindow window)
{
    return static_cast<SeedKey>(window >> 32);
}

std::uint32_t
position_of(SeedWindow window)
{
    return static_cast<std::uint32_t>(window);
}

/** Stable LSD radix sort of `windows` by their `key_bits`-wide key, in
 *  as few passes of at most 12 bits as cover the key (two for the
 *  12-of-19 seed), so the histogram stays in L1. */
void
sort_by_key(std::vector<SeedWindow>& windows, unsigned key_bits)
{
    if (windows.size() < 2 || key_bits == 0)
        return;
    const unsigned passes = (key_bits + 11) / 12;
    const unsigned digit_bits = (key_bits + passes - 1) / passes;
    const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
    std::vector<SeedWindow> scratch(windows.size());
    std::vector<std::uint32_t> starts(mask + 1);
    for (unsigned pass = 0; pass < passes; ++pass) {
        const unsigned shift = 32 + pass * digit_bits;
        std::fill(starts.begin(), starts.end(), 0);
        for (const SeedWindow window : windows)
            ++starts[(window >> shift) & mask];
        std::uint32_t running = 0;
        for (std::uint32_t& start : starts) {
            const std::uint32_t count = start;
            start = running;
            running += count;
        }
        for (const SeedWindow window : windows)
            scratch[starts[(window >> shift) & mask]++] = window;
        windows.swap(scratch);
    }
}

/** One key-extraction pass over windows [lo, hi), then the sort.
 *  `Source` is anything pattern.key_at accepts (byte span or
 *  PackedSequence). */
template <class Source>
std::vector<SeedWindow>
collect_windows(const Source& source, std::size_t target_size,
                const SeedPattern& pattern, std::size_t lo, std::size_t hi,
                std::uint64_t* skipped)
{
    if (target_size >= std::numeric_limits<std::uint32_t>::max())
        fatal("SeedIndex: target longer than 2^32-1 is not supported");
    const std::size_t last = target_size >= pattern.span()
                                 ? target_size - pattern.span() + 1
                                 : 0;
    hi = std::min(hi, last);
    std::vector<SeedWindow> windows;
    windows.reserve(hi > lo ? hi - lo : 0);
    for (std::size_t pos = lo; pos < hi; ++pos) {
        const auto key = pattern.key_at(source, pos);
        if (key)
            windows.push_back(static_cast<SeedWindow>(*key) << 32 | pos);
        else
            ++*skipped;
    }
    sort_by_key(windows, static_cast<unsigned>(2 * pattern.weight()));
    return windows;
}

/** Whole-target build shared by the byte and packed constructors. */
template <class Source>
SeedIndex
build_index(const Source& source, std::size_t target_size,
            const SeedPattern& pattern, std::uint32_t max_bucket)
{
    std::uint64_t skipped = 0;
    const auto windows = collect_windows(source, target_size, pattern, 0,
                                         target_size, &skipped);
    return SeedIndex(pattern, max_bucket, windows,
                     truncated_keys(windows, max_bucket), skipped);
}

/** Thrown unlogged: the loader re-throws it tagged with the file path
 *  through fatal(), which logs it once. */
[[noreturn]] void
bad_sections(const std::string& what)
{
    throw FatalError("SeedIndex::attach: " + what);
}

}  // namespace

std::vector<SeedWindow>
sorted_seed_windows(const seq::PackedSequence& target,
                    const SeedPattern& pattern, std::size_t lo,
                    std::size_t hi, std::uint64_t* skipped)
{
    return collect_windows(target, target.size(), pattern, lo, hi, skipped);
}

std::vector<TruncatedKey>
truncated_keys(std::span<const SeedWindow> windows, std::uint32_t max_bucket)
{
    std::vector<TruncatedKey> out;
    for (std::size_t run = 0; run < windows.size();) {
        const SeedKey key = key_of(windows[run]);
        std::size_t end = run + 1;
        while (end < windows.size() && key_of(windows[end]) == key)
            ++end;
        if (end - run > max_bucket)
            out.push_back({key, position_of(windows[run + max_bucket])});
        run = end;
    }
    return out;
}

unsigned
SeedIndex::directory_bits_for(const SeedPattern& pattern,
                              std::uint64_t num_keys)
{
    return static_cast<unsigned>(
        std::min<std::uint64_t>(2 * pattern.weight(),
                                std::bit_width(num_keys)));
}

SeedIndex::SeedIndex(seq::BaseView target, const SeedPattern& pattern,
                     std::uint32_t max_bucket)
    : SeedIndex(target.packed()
                    ? build_index(*target.packed_sequence(), target.size(),
                                  pattern, max_bucket)
                    : build_index(target.bytes(), target.size(), pattern,
                                  max_bucket))
{
}

SeedIndex::SeedIndex(SeedPattern pattern, std::uint32_t max_bucket,
                     std::span<const SeedWindow> windows,
                     std::span<const TruncatedKey> truncated,
                     std::uint64_t skipped_windows)
    : SeedIndex(std::move(pattern), max_bucket)
{
    require(max_bucket_ > 0, "SeedIndex: max_bucket must be positive");
    skipped_ = skipped_windows;
    truncated_ = truncated.size();

    // Merge the sorted windows with the sorted truncated keys: every key
    // of either becomes one entry, cut at its cutoff when truncated.
    owned_positions_.reserve(windows.size());
    std::vector<std::size_t> over_keys;
    std::size_t w = 0;
    std::size_t t = 0;
    while (w < windows.size() || t < truncated.size()) {
        SeedKey key = 0;
        if (t < truncated.size() &&
            (w == windows.size() || truncated[t].key <= key_of(windows[w])))
            key = truncated[t].key;
        else
            key = key_of(windows[w]);
        std::uint32_t cutoff = kNoCutoff;
        if (t < truncated.size() && truncated[t].key == key) {
            cutoff = truncated[t].cutoff;
            ++t;
            over_keys.push_back(owned_keys_.size());
        }
        owned_offsets_.push_back(
            static_cast<std::uint32_t>(owned_positions_.size()));
        owned_keys_.push_back(key);
        for (; w < windows.size() && key_of(windows[w]) == key; ++w) {
            if (position_of(windows[w]) < cutoff)
                owned_positions_.push_back(position_of(windows[w]));
        }
    }
    owned_offsets_.push_back(
        static_cast<std::uint32_t>(owned_positions_.size()));
    owned_over_words_.assign((owned_keys_.size() + 63) / 64, 0);
    for (const std::size_t i : over_keys)
        owned_over_words_[i / 64] |= 1ULL << (i % 64);

    // Directory over the top b key bits: count keys per prefix, then
    // prefix-sum into start indices.
    directory_bits_ = directory_bits_for(pattern_, owned_keys_.size());
    prefix_shift_ =
        static_cast<unsigned>(2 * pattern_.weight()) - directory_bits_;
    owned_directory_.assign((std::size_t{1} << directory_bits_) + 1, 0);
    for (const SeedKey key : owned_keys_)
        ++owned_directory_[(key >> prefix_shift_) + 1];
    for (std::size_t p = 1; p < owned_directory_.size(); ++p)
        owned_directory_[p] += owned_directory_[p - 1];

    sections_ = {owned_keys_, owned_directory_, owned_offsets_,
                 owned_positions_, owned_over_words_};
}

SeedIndex
SeedIndex::attach(SeedPattern pattern, std::uint32_t max_bucket,
                  unsigned directory_bits, const Sections& sections,
                  std::uint64_t skipped_windows,
                  std::uint64_t truncated_buckets,
                  std::uint64_t target_length,
                  std::shared_ptr<const void> storage)
{
    if (max_bucket == 0)
        bad_sections("max_bucket must be positive");
    const std::size_t num_keys = sections.keys.size();
    const unsigned expected_bits = directory_bits_for(pattern, num_keys);
    if (directory_bits != expected_bits)
        bad_sections(strprintf("directory width %u disagrees with %zu keys "
                               "(expected %u bits)",
                               directory_bits, num_keys, expected_bits));
    const unsigned shift =
        static_cast<unsigned>(2 * pattern.weight()) - directory_bits;
    const auto& directory = sections.directory;
    const auto& keys = sections.keys;
    const auto& offsets = sections.offsets;
    const auto& positions = sections.positions;
    if (directory.size() != (std::size_t{1} << directory_bits) + 1)
        bad_sections("directory section size disagrees with its width");
    if (offsets.size() != num_keys + 1)
        bad_sections("offset section size disagrees with the key count");
    if (sections.over_words.size() != (num_keys + 63) / 64)
        bad_sections("over-represented section size disagrees with the "
                     "key count");

    // Directory: starts at 0, never decreases, ends at the key count.
    // Established before any key is read through it.
    if (directory.front() != 0 || directory.back() != num_keys)
        bad_sections("directory does not span the key section");
    for (std::size_t p = 1; p < directory.size(); ++p) {
        if (directory[p] < directory[p - 1])
            bad_sections(strprintf("directory is not monotone at prefix %zu",
                                   p));
    }
    for (std::size_t p = 0; p + 1 < directory.size(); ++p) {
        for (std::size_t i = directory[p]; i < directory[p + 1]; ++i) {
            if ((keys[i] >> shift) != p)
                bad_sections(strprintf("key %u sits under the wrong "
                                       "directory prefix %zu",
                                       keys[i], p));
            if (i > 0 && keys[i] <= keys[i - 1])
                bad_sections(strprintf("keys are not strictly ascending at "
                                       "key %zu",
                                       i));
        }
    }

    // Offsets: start at 0, never decrease, end at the position count;
    // positions ascend within a key and start a full window.
    if (offsets.front() != 0 || offsets.back() != positions.size())
        bad_sections("offsets do not end at the position section's end");
    const std::uint64_t window_limit =
        target_length >= pattern.span() ? target_length - pattern.span() + 1
                                        : 0;
    for (std::size_t i = 0; i < num_keys; ++i) {
        if (offsets[i + 1] < offsets[i])
            bad_sections(strprintf("offsets are not monotone at key %zu", i));
    }
    for (std::size_t i = 0; i < num_keys; ++i) {
        for (std::uint32_t o = offsets[i]; o < offsets[i + 1]; ++o) {
            if (positions[o] >= window_limit)
                bad_sections(strprintf("position %u lies past the %llu bp "
                                       "target",
                                       positions[o],
                                       static_cast<unsigned long long>(
                                           target_length)));
            if (o > offsets[i] && positions[o] <= positions[o - 1])
                bad_sections(strprintf("positions of key %zu are not "
                                       "ascending",
                                       i));
        }
    }
    if (num_keys % 64 != 0 &&
        (sections.over_words.back() >> (num_keys % 64)) != 0)
        bad_sections("over-represented bits set past the last key");

    SeedIndex index(std::move(pattern), max_bucket);
    index.directory_bits_ = directory_bits;
    index.prefix_shift_ = shift;
    index.storage_ = std::move(storage);
    index.sections_ = sections;
    index.skipped_ = skipped_windows;
    index.truncated_ = truncated_buckets;
    return index;
}

std::size_t
SeedIndex::find_key(SeedKey key) const
{
    const std::uint32_t prefix = key >> prefix_shift_;
    const auto first = sections_.keys.begin() + sections_.directory[prefix];
    const auto last = sections_.keys.begin() + sections_.directory[prefix + 1];
    const auto it = std::lower_bound(first, last, key);
    if (it == last || *it != key)
        return sections_.keys.size();
    return static_cast<std::size_t>(it - sections_.keys.begin());
}

std::span<const std::uint32_t>
SeedIndex::lookup(SeedKey key) const
{
    require(key < pattern_.key_space(), "SeedIndex::lookup: key range");
    const std::size_t i = find_key(key);
    if (i == sections_.keys.size())
        return {};
    const std::uint32_t lo = sections_.offsets[i];
    const std::uint32_t hi = sections_.offsets[i + 1];
    return {sections_.positions.data() + lo, hi - lo};
}

bool
SeedIndex::over_represented(SeedKey key) const
{
    require(key < pattern_.key_space(),
            "SeedIndex::over_represented: key range");
    const std::size_t i = find_key(key);
    if (i == sections_.keys.size())
        return false;
    return (sections_.over_words[i / 64] >> (i % 64)) & 1ULL;
}

}  // namespace darwin::seed
