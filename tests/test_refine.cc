/**
 * @file
 * Tests for consensus refinement (derived-consensus mode, paper §2.2)
 * and failure-injection tests for the SAGe container (corruption and
 * truncation must be detected, never silently mis-decoded).
 */

#include <gtest/gtest.h>

#include "consensus/refine.hh"
#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

// ---------------------------------------------------------------------
// Consensus refinement
// ---------------------------------------------------------------------

TEST(Refine, RewritesConsistentVariantSites)
{
    // Reads drawn from the donor but mapped against the reference:
    // true variant sites show consistent disagreement and should be
    // rewritten toward the donor base.
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0; // Enough coverage to vote.
    const SimulatedDataset ds = synthesizeDataset(spec);

    ThreadPool pool;
    ConsensusMapper mapper(ds.reference);
    const auto mappings = mapper.mapAll(ds.readSet, &pool);

    RefineStats stats;
    const std::string refined =
        refineConsensus(ds.reference, ds.readSet, mappings, {}, &stats);
    EXPECT_GT(stats.positionsVoted, ds.reference.size() / 2);
    EXPECT_GT(stats.positionsChanged, 0u);
    EXPECT_EQ(refined.size(), ds.reference.size());
}

TEST(Refine, ReducesEditsOnRemap)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0;
    const SimulatedDataset ds = synthesizeDataset(spec);

    ThreadPool pool;
    ConsensusMapper draft_mapper(ds.reference);
    const auto draft_maps = draft_mapper.mapAll(ds.readSet, &pool);
    const MappingStats before =
        ConsensusMapper::summarize(draft_maps, ds.readSet);

    const std::string refined =
        refineConsensus(ds.reference, ds.readSet, draft_maps);
    ConsensusMapper refined_mapper(refined);
    const auto refined_maps = refined_mapper.mapAll(ds.readSet, &pool);
    const MappingStats after =
        ConsensusMapper::summarize(refined_maps, ds.readSet);

    EXPECT_LT(after.totalEdits, before.totalEdits)
        << "majority-vote polish should remove shared variant edits";
}

TEST(Refine, ImprovesSageCompressionRatio)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0;
    const SimulatedDataset ds = synthesizeDataset(spec);

    ThreadPool pool;
    ConsensusMapper mapper(ds.reference);
    const auto mappings = mapper.mapAll(ds.readSet, &pool);
    const std::string refined =
        refineConsensus(ds.reference, ds.readSet, mappings);

    const SageArchive base =
        sageCompress(ds.readSet, ds.reference, {}, &pool);
    const SageArchive polished =
        sageCompress(ds.readSet, refined, {}, &pool);
    EXPECT_LT(polished.dnaBytes, base.dnaBytes);

    // Still lossless against the refined consensus.
    const ReadSet back = sageDecompress(polished.bytes);
    std::multiset<std::string> want, got;
    for (const auto &read : ds.readSet.reads)
        want.insert(read.bases);
    for (const auto &read : back.reads)
        got.insert(read.bases);
    EXPECT_EQ(want, got);
}

TEST(Refine, NoChangesWithoutCoverage)
{
    ReadSet empty;
    const std::string draft(5000, 'A');
    RefineStats stats;
    const std::string refined =
        refineConsensus(draft, empty, {}, {}, &stats);
    EXPECT_EQ(refined, draft);
    EXPECT_EQ(stats.positionsChanged, 0u);
}

// ---------------------------------------------------------------------
// Failure injection on the SAGe container
// ---------------------------------------------------------------------

class SageCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const SimulatedDataset ds =
            synthesizeDataset(makeTinySpec(false));
        archive_ = sageCompress(ds.readSet, ds.reference).bytes;
    }

    std::vector<uint8_t> archive_;
};

TEST_F(SageCorruption, BitFlipIsDetected)
{
    Rng rng(99);
    for (int trial = 0; trial < 8; trial++) {
        auto corrupt = archive_;
        corrupt[rng.nextBelow(corrupt.size())] ^=
            static_cast<uint8_t>(1u << rng.nextBelow(8));
        // The bundle CRC covers every stream, so any flip dies in
        // deserialization rather than producing wrong reads.
        EXPECT_DEATH({ ReadSet rs = sageDecompress(corrupt); (void)rs; },
                     ".*");
    }
}

TEST_F(SageCorruption, TruncationIsDetected)
{
    auto truncated = archive_;
    truncated.resize(truncated.size() / 2);
    EXPECT_DEATH({ ReadSet rs = sageDecompress(truncated); (void)rs; },
                 ".*");
}

TEST_F(SageCorruption, EmptyInputIsRejected)
{
    std::vector<uint8_t> empty;
    EXPECT_DEATH({ ReadSet rs = sageDecompress(empty); (void)rs; },
                 ".*");
}

// ---------------------------------------------------------------------
// DNA-only decode mode
// ---------------------------------------------------------------------

TEST(DnaOnlyDecode, SkipsQualityButKeepsBases)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);

    const MemorySource source(archive.bytes);
    SageReaderOptions dna_only;
    dna_only.dnaOnly = true;
    SageReader full(source);
    SageReader dna(source, dna_only);
    while (dna.hasNext()) {
        const Read full_read = full.next();
        const Read dna_read = dna.next();
        EXPECT_EQ(dna_read.bases, full_read.bases);
        EXPECT_TRUE(dna_read.quals.empty());
        EXPECT_FALSE(full_read.quals.empty());
    }
}

} // namespace
} // namespace sage
