#include "consensus/index.hh"

#include <algorithm>
#include <numeric>

#include "util/thread_pool.hh"

namespace sage {

namespace {

/** Index order: by k-mer, then by position. A closure type, not a
 *  function pointer, so std::sort inlines the comparison. */
constexpr auto kmerThenPos = [](const KmerHit &a, const KmerHit &b) {
    return a.kmer != b.kmer ? a.kmer < b.kmer : a.pos < b.pos;
};

/**
 * Sort @p hits, k-mers of length @p k, into index order. With a
 * @p pool they are scattered into k-mer ranges, a few per worker so
 * uneven ones still spread, and each range sorts as one pool item.
 * A range is a run of k-mer prefixes (the top kPrefixBits bits) cut
 * where the hits counted so far pass the next share, so equal k-mers
 * share a range; no two hits share a position, so the order is the
 * one a single std::sort gives.
 */
void
sortMinimizers(std::vector<KmerHit> &hits, unsigned k, ThreadPool *pool)
{
    const size_t ranges = pool != nullptr ? 4 * pool->threadCount() : 0;
    if (pool == nullptr || hits.size() < 2 * ranges) {
        std::sort(hits.begin(), hits.end(), kmerThenPos);
        return;
    }
    constexpr unsigned kPrefixBits = 12;
    const unsigned shift = 2 * k > kPrefixBits ? 2 * k - kPrefixBits : 0;
    std::vector<uint32_t> range_of(size_t(1) << kPrefixBits, 0);
    for (const KmerHit &hit : hits)
        range_of[hit.kmer >> shift]++;
    // range_of holds each prefix's count until it is given its range.
    std::vector<size_t> start(ranges + 1, 0);
    size_t range = 0, counted = 0;
    for (uint32_t &entry : range_of) {
        counted += entry;
        start[range + 1] += entry;
        entry = static_cast<uint32_t>(range);
        if (counted * ranges >= (range + 1) * hits.size() &&
            range + 1 < ranges)
            range++;
    }
    std::partial_sum(start.begin(), start.end(), start.begin());

    std::vector<KmerHit> scattered(hits.size());
    std::vector<size_t> next(start.begin(), start.end() - 1);
    for (const KmerHit &hit : hits)
        scattered[next[range_of[hit.kmer >> shift]]++] = hit;
    pool->parallelFor(ranges, [&](size_t r) {
        std::sort(scattered.begin() + start[r],
                  scattered.begin() + start[r + 1], kmerThenPos);
    });
    hits = std::move(scattered);
}

} // namespace

MinimizerIndex::MinimizerIndex(std::string_view consensus,
                               IndexConfig config, ThreadPool *pool)
    : consensus_(consensus), config_(config)
{
    // Group the minimizers by k-mer. They arrive position-sorted with
    // each position once, so within a k-mer the positions ascend.
    std::vector<KmerHit> hits =
        extractMinimizers(consensus, config_.k, config_.w);
    sortMinimizers(hits, config_.k, pool);
    for (size_t i = 0; i < hits.size(); i++)
        distinct_ += i == 0 || hits[i].kmer != hits[i - 1].kmer;

    size_t capacity = 16;
    while (capacity < 2 * distinct_)
        capacity *= 2;
    const size_t mask = capacity - 1;
    slotMask_ = mask;
    // The table starts uninitialised and is emptied by range, on the
    // pool when there is one, so its first-touch page faults spread.
    slots_.reset(new Slot[capacity]);
    const size_t fills = pool != nullptr ? pool->threadCount() : 1;
    auto empty_range = [&](size_t r) {
        std::fill(slots_.get() + r * capacity / fills,
                  slots_.get() + (r + 1) * capacity / fills,
                  Slot{kEmptySlot, 0, 0});
    };
    if (pool != nullptr)
        pool->parallelFor(fills, empty_range);
    else
        empty_range(0);

    // Insert in k-mer order, which fixes where each probe lands. The
    // home slot of the minimizer kPrefetchAhead places on is
    // prefetched, so the random table misses overlap.
    constexpr size_t kPrefetchAhead = 16;
    positions_.reserve(hits.size());
    for (size_t i = 0; i < hits.size();) {
        if (i + kPrefetchAhead < hits.size())
            __builtin_prefetch(
                &slots_[hashKmer(hits[i + kPrefetchAhead].kmer) & mask]);
        const uint64_t kmer = hits[i].kmer;
        size_t end = i;
        while (end < hits.size() && hits[end].kmer == kmer)
            end++;
        // Cap repetitive seeds: long position lists blow up candidate
        // sets without adding placement information. Truncating (rather
        // than dropping) keeps reads from repeat regions mappable to
        // *some* repeat copy — any copy yields a valid consensus
        // encoding.
        const size_t keep =
            std::min<size_t>(end - i, config_.maxOccurrence);
        size_t slot = hashKmer(kmer) & mask;
        while (slots_[slot].kmer != kEmptySlot)
            slot = (slot + 1) & mask;
        slots_[slot] = {kmer, static_cast<uint32_t>(positions_.size()),
                        static_cast<uint32_t>(keep)};
        for (size_t h = i; h < i + keep; h++)
            positions_.push_back(hits[h].pos);
        i = end;
    }
    positions_.shrink_to_fit();
}

SeedHits
MinimizerIndex::lookup(uint64_t kmer) const
{
    const size_t mask = slotMask_;
    for (size_t slot = hashKmer(kmer) & mask;; slot = (slot + 1) & mask) {
        const Slot &entry = slots_[slot];
        if (entry.kmer == kmer)
            return {positions_.data() + entry.offset, entry.count};
        if (entry.kmer == kEmptySlot)
            return {};
    }
}

void
MinimizerIndex::lookupAll(const std::vector<KmerHit> &seeds,
                          std::vector<SeedHits> &hits) const
{
    const size_t mask = slotMask_;
    for (const KmerHit &seed : seeds)
        __builtin_prefetch(&slots_[hashKmer(seed.kmer) & mask]);
    hits.resize(seeds.size());
    for (size_t i = 0; i < seeds.size(); i++) {
        hits[i] = lookup(seeds[i].kmer);
        if (!hits[i].empty())
            __builtin_prefetch(hits[i].data);
    }
}

size_t
MinimizerIndex::memoryBytes() const
{
    return (slotMask_ + 1) * sizeof(Slot)
        + positions_.size() * sizeof(uint32_t);
}

} // namespace sage
