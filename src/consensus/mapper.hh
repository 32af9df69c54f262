/**
 * @file
 * Consensus mapper: finds each read's matching position(s) in the
 * consensus sequence and extracts its mismatch information.
 *
 * This implements the compression-side mapping step shared by SAGe and
 * the SpringLike baseline (paper §5.1: "SAGe identifies the mismatches
 * during compression by mapping reads to the consensus sequence"). It is
 * a standard seed-chain-align pipeline:
 *
 *   minimizer seeds -> diagonal-consistent chains -> segment selection
 *   (up to N segments for chimeric reads, paper §5.1.2) -> piecewise
 *   banded alignment between anchors -> edit script.
 *
 * Two exact shortcuts skip work whose outcome is already known: a
 * strand whose seed span cannot beat the other strand's best chain is
 * not looked up, and a segment whose anchors share one diagonal is
 * compared base by base along it, falling back to the piecewise
 * alignment only when a piece between anchors holds two mismatches.
 *
 * Note this mapping is internal to compression and independent from the
 * read mapping performed later during genome analysis (paper footnote 6).
 */

#ifndef SAGE_CONSENSUS_MAPPER_HH
#define SAGE_CONSENSUS_MAPPER_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "consensus/align.hh"
#include "consensus/edits.hh"
#include "consensus/index.hh"
#include "genomics/read.hh"

namespace sage {

class ThreadPool;

/** Mapper tuning knobs. */
struct MapperConfig
{
    IndexConfig index;

    /** Top-N matching positions per read (paper uses N = 3). */
    unsigned maxSegments = 3;

    /** Give up (escape) when edits exceed this fraction of read length. */
    double maxEditFraction = 0.4;

    /** Base band half-width for piecewise alignment. */
    uint32_t basePad = 24;

    /** Band escalation limit. */
    uint32_t maxBand = 512;

    /** Diagonal slack allowed while chaining anchors over a gap. */
    uint32_t
    chainSlack(uint32_t gap) const
    {
        return 16 + gap / 16;
    }

    /** Minimum anchors for a chain to be considered at all. */
    unsigned minChainAnchors = 2;
};

/** Aggregate statistics over a batch of mappings. */
struct MappingStats
{
    uint64_t totalReads = 0;
    uint64_t mappedReads = 0;
    uint64_t reverseReads = 0;
    uint64_t chimericReads = 0;   ///< Mapped with >1 segment.
    uint64_t totalEdits = 0;
    uint64_t totalAlignedBases = 0;
};

/** Maps reads against a fixed consensus sequence. */
class ConsensusMapper
{
  public:
    /** @p consensus must outlive the mapper. A @p pool helps build
     *  the index (MinimizerIndex) and is not kept. */
    ConsensusMapper(std::string_view consensus, MapperConfig config = {},
                    ThreadPool *pool = nullptr);

    /** Map one oriented base string (both strands are tried). Safe
     *  to call from several threads at once: each thread maps through
     *  its own working memory, reused across calls. */
    ReadMapping mapSequence(std::string_view bases) const;

    /** Map every read of a set (optionally across a thread pool). */
    std::vector<ReadMapping> mapAll(const ReadSet &rs,
                                    ThreadPool *pool = nullptr) const;

    /** Summarize a batch of mappings. */
    static MappingStats summarize(const std::vector<ReadMapping> &maps,
                                  const ReadSet &rs);

    const MinimizerIndex &index() const { return index_; }
    std::string_view consensus() const { return consensus_; }
    const MapperConfig &config() const { return config_; }

  private:
    struct Anchor;
    struct Chain;
    struct StrandChains;
    struct Scratch;

    /** Look up one strand's @p seeds and chain the hits by diagonal
     *  into @p out, working in @p scratch. */
    void buildChains(const std::vector<KmerHit> &seeds, Scratch &scratch,
                     StrandChains &out) const;

    /** alignChain's script when anchors [@p first, @p last) all lie
     *  on diagonal @p diag and the window is inside the consensus:
     *  appends it to @p ops when no piece between anchors holds two
     *  mismatches, and otherwise returns false with part of a script
     *  appended. */
    bool alignDiagonal(std::string_view bases, const Anchor *first,
                       const Anchor *last, uint32_t read_start,
                       uint32_t read_end, int64_t diag,
                       std::vector<EditOp> &ops) const;

    /** Align read interval [@p read_start, @p read_end) of @p bases
     *  along one chain's anchors [@p first, @p last) into @p out. */
    bool alignChain(std::string_view bases, const Anchor *first,
                    const Anchor *last, uint32_t read_start,
                    uint32_t read_end, AlignedSegment &out) const;

    std::string_view consensus_;
    MapperConfig config_;
    MinimizerIndex index_;
};

} // namespace sage

#endif // SAGE_CONSENSUS_MAPPER_HH
