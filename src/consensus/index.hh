/**
 * @file
 * Minimizer index over a consensus sequence.
 *
 * Compressors map reads against the consensus to find mismatch
 * information (paper §5.1); this index supplies the seed hits.
 */

#ifndef SAGE_CONSENSUS_INDEX_HH
#define SAGE_CONSENSUS_INDEX_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "genomics/kmer.hh"

namespace sage {

class ThreadPool;

/** Index build parameters. */
struct IndexConfig
{
    unsigned k = 15;         ///< K-mer length.
    unsigned w = 5;          ///< Minimizer window (k-mers per window).
    unsigned maxOccurrence = 64;  ///< Drop seeds more frequent than this.
};

/**
 * Consensus positions of one seed, in ascending order: a pointer-plus-
 * count view into the index, valid while the index lives.
 */
struct SeedHits
{
    const uint32_t *data = nullptr;
    uint32_t count = 0;

    const uint32_t *begin() const { return data; }
    const uint32_t *end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
};

/**
 * Hash index from minimizer k-mer to consensus positions.
 *
 * Flat layout: an open-addressing table (linear probing, power-of-two
 * size, at most half full) of (k-mer, offset, count) slots over one
 * positions array that holds each k-mer's positions contiguously.
 */
class MinimizerIndex
{
  public:
    /**
     * Build an index over @p consensus. The string must outlive us.
     * With a @p pool the minimizers sort on it in k-mer-range
     * partitions; the table is the same either way.
     */
    MinimizerIndex(std::string_view consensus, IndexConfig config = {},
                   ThreadPool *pool = nullptr);

    /**
     * Indexed positions of @p kmer: the first maxOccurrence in
     * ascending order, empty if absent.
     */
    SeedHits lookup(uint64_t kmer) const;

    /**
     * lookup() of every seed in @p seeds, into @p hits (resized to
     * match). The first probe slot of every seed is prefetched before
     * any is probed, and each found seed's positions before they are
     * read, so one batch's cache misses overlap instead of queueing.
     */
    void lookupAll(const std::vector<KmerHit> &seeds,
                   std::vector<SeedHits> &hits) const;

    const IndexConfig &config() const { return config_; }
    std::string_view consensus() const { return consensus_; }

    /** Number of distinct indexed minimizers. */
    size_t distinctSeeds() const { return distinct_; }

    /** Index memory footprint in bytes (for Table 3): the slot table
     *  plus the positions array. */
    size_t memoryBytes() const;

  private:
    struct Slot
    {
        uint64_t kmer;
        uint32_t offset;  ///< First position in positions_.
        uint32_t count;   ///< Number of positions.
    };

    /** Marks an empty slot. A k-mer of k <= 31 packs into 62 bits, so
     *  no k-mer can take this value. */
    static constexpr uint64_t kEmptySlot = ~uint64_t(0);

    std::string_view consensus_;
    IndexConfig config_;
    std::unique_ptr<Slot[]> slots_;
    size_t slotMask_ = 0;  ///< Slot count minus one.
    std::vector<uint32_t> positions_;
    size_t distinct_ = 0;
};

} // namespace sage

#endif // SAGE_CONSENSUS_INDEX_HH
