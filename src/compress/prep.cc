#include "compress/prep.hh"

#include <algorithm>

#include "genomics/alphabet.hh"
#include "util/thread_pool.hh"

namespace sage {

PreppedReads
prepareReads(const ReadSet &rs, std::string_view consensus,
             const MapperConfig &config, ThreadPool *pool)
{
    PreppedReads prep;
    prep.source = &rs;
    prep.classes.resize(rs.reads.size());

    const ConsensusMapper mapper(consensus, config, pool);
    auto classify = [&](size_t i) {
        ReadClass &cls = prep.classes[i];
        // Reads with N expand the alphabet beyond 2 bits: corner case
        // (paper §5.1.4); they take the escape path regardless of
        // mappability so every mismatch base stays 2-bit encodable.
        // Classified first, they are never mapped.
        if (!isAcgtOnly(rs.reads[i].bases)) {
            cls.escape = EscapeReason::ContainsN;
            return;
        }
        cls.mapping = mapper.mapSequence(rs.reads[i].bases);
        if (!cls.mapping.mapped)
            cls.escape = EscapeReason::Unmapped;
    };
    if (pool != nullptr) {
        pool->parallelFor(rs.reads.size(), classify);
    } else {
        for (size_t i = 0; i < rs.reads.size(); i++)
            classify(i);
    }

    // Encoding order: mapped reads by (primary position, index) so the
    // delta-encoded matching positions are small (Property 6); escapes
    // trail in original order.
    std::vector<uint32_t> mapped, escaped;
    for (uint32_t i = 0; i < prep.classes.size(); i++) {
        if (prep.classes[i].escape == EscapeReason::None)
            mapped.push_back(i);
        else
            escaped.push_back(i);
    }
    std::sort(mapped.begin(), mapped.end(),
              [&](uint32_t a, uint32_t b) {
                  const uint64_t pa =
                      prep.classes[a].mapping.primaryPosition();
                  const uint64_t pb =
                      prep.classes[b].mapping.primaryPosition();
                  return pa != pb ? pa < pb : a < b;
              });
    prep.order = std::move(mapped);
    prep.order.insert(prep.order.end(), escaped.begin(), escaped.end());
    return prep;
}

} // namespace sage
