#include "consensus/index.hh"

#include <algorithm>

namespace sage {

MinimizerIndex::MinimizerIndex(std::string_view consensus,
                               IndexConfig config)
    : consensus_(consensus), config_(config)
{
    // Group the minimizers by k-mer. They arrive position-sorted with
    // each position once, so within a k-mer the positions ascend.
    std::vector<KmerHit> hits =
        extractMinimizers(consensus, config_.k, config_.w);
    std::sort(hits.begin(), hits.end(),
              [](const KmerHit &a, const KmerHit &b) {
                  return a.kmer != b.kmer ? a.kmer < b.kmer
                                          : a.pos < b.pos;
              });
    for (size_t i = 0; i < hits.size(); i++)
        distinct_ += i == 0 || hits[i].kmer != hits[i - 1].kmer;

    size_t capacity = 16;
    while (capacity < 2 * distinct_)
        capacity *= 2;
    slots_.assign(capacity, Slot{kEmptySlot, 0, 0});
    const size_t mask = capacity - 1;

    positions_.reserve(hits.size());
    for (size_t i = 0; i < hits.size();) {
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
    const size_t mask = slots_.size() - 1;
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
    const size_t mask = slots_.size() - 1;
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
    return slots_.size() * sizeof(Slot)
        + positions_.size() * sizeof(uint32_t);
}

} // namespace sage
