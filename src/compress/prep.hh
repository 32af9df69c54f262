/**
 * @file
 * Shared compression-side preparation: map reads against the consensus,
 * classify them (mapped / escaped), and reorder by matching position
 * (paper §5.1.3, Property 6). Both the SpringLike baseline and SAGe
 * consume this; they differ only in how they *encode* the result.
 */

#ifndef SAGE_COMPRESS_PREP_HH
#define SAGE_COMPRESS_PREP_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "consensus/mapper.hh"
#include "genomics/read.hh"

namespace sage {

class ThreadPool;

/** Why a read bypasses consensus-based encoding. */
enum class EscapeReason : uint8_t {
    None = 0,       ///< Read is consensus-encoded.
    Unmapped = 1,   ///< No acceptable mapping found.
    ContainsN = 2,  ///< Alphabet exceeds ACGT (corner case, §5.1.4).
};

/** Per-read classification result. */
struct ReadClass
{
    EscapeReason escape = EscapeReason::None;
    ReadMapping mapping;  ///< Valid when escape == None.
};

/** Prepared (mapped + reordered) view over a read set. */
struct PreppedReads
{
    const ReadSet *source = nullptr;
    std::vector<ReadClass> classes;   ///< Parallel to source->reads.
    /**
     * Encoding order: mapped reads sorted by primary matching position,
     * then escaped reads in original order. order[i] is the source index
     * of the i-th encoded read.
     */
    std::vector<uint32_t> order;

    size_t
    escapedCount() const
    {
        size_t n = 0;
        for (const auto &c : classes)
            n += c.escape != EscapeReason::None;
        return n;
    }
};

/** Classify, map and reorder a read set against @p consensus. Reads
 *  holding a non-ACGT base escape as ContainsN without being mapped;
 *  with a pool, the index sorts on it and reads classify and map in
 *  parallel. */
PreppedReads prepareReads(const ReadSet &rs, std::string_view consensus,
                          const MapperConfig &config,
                          ThreadPool *pool = nullptr);

} // namespace sage

#endif // SAGE_COMPRESS_PREP_HH
