/**
 * @file
 * Banded global alignment with traceback.
 *
 * Both SAGe and the SpringLike baseline find mismatch information by
 * mapping reads against the consensus (paper §5.1); the actual
 * base-by-base edit script comes from this aligner.
 */

#ifndef SAGE_CONSENSUS_ALIGN_HH
#define SAGE_CONSENSUS_ALIGN_HH

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "consensus/edits.hh"

namespace sage {

/** True when read base @p q scores as a match against consensus base
 *  @p t. N never matches, so unknown bases always surface as explicit
 *  edits. */
inline bool
basesMatch(char q, char t)
{
    return q == t && q != 'N' && q != 'n';
}

/** Result of a banded alignment. */
struct AlignResult
{
    uint32_t editDistance = 0;   ///< Unit-cost edit distance.
    std::vector<EditOp> ops;     ///< Query-coordinate edit script.
};

/**
 * Globally align @p query (read chunk) against @p target (consensus
 * window) with a diagonal band of half-width @p band.
 *
 * Returns nullopt when no alignment exists inside the band. On success,
 * applying the returned ops to @p target reproduces @p query exactly
 * (see reconstructSegment). N in the query never matches (always scored
 * as an edit), so reconstruction emits it as a substitution base.
 *
 * Cost model is unit edit distance; runs in O(|query| * band) time and
 * memory (traceback matrix of 2-bit moves kept as bytes for simplicity).
 */
std::optional<AlignResult> bandedAlign(std::string_view target,
                                       std::string_view query,
                                       uint32_t band);

/**
 * Convenience: edit distance only (no traceback), same band semantics.
 */
std::optional<uint32_t> bandedDistance(std::string_view target,
                                       std::string_view query,
                                       uint32_t band);

} // namespace sage

#endif // SAGE_CONSENSUS_ALIGN_HH
