/**
 * @file
 * Tests for the consensus substrate: banded alignment, edit-script
 * reconstruction exactness, the minimizer index, and the mapper
 * (including chimeric split mapping and property analyses).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "consensus/align.hh"
#include "consensus/index.hh"
#include "consensus/mapper.hh"
#include "consensus/stats.hh"
#include "genomics/alphabet.hh"
#include "simgen/synthesize.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

std::string
randomSeq(Rng &rng, size_t len)
{
    std::string s;
    for (size_t i = 0; i < len; i++)
        s.push_back(codeToBase(static_cast<uint8_t>(rng.nextBelow(4))));
    return s;
}

// ---------------------------------------------------------------------
// Banded alignment
// ---------------------------------------------------------------------

TEST(BandedAlign, IdenticalStringsZeroEdits)
{
    const std::string s = "ACGTACGTAAACCC";
    const auto result = bandedAlign(s, s, 4);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->editDistance, 0u);
    EXPECT_TRUE(result->ops.empty());
}

TEST(BandedAlign, SingleSubstitution)
{
    const std::string t = "ACGTACGTAAACCC";
    std::string q = t;
    q[5] = 'A'; // was C
    const auto result = bandedAlign(t, q, 4);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->editDistance, 1u);
    ASSERT_EQ(result->ops.size(), 1u);
    EXPECT_EQ(result->ops[0].type, EditType::Sub);
    EXPECT_EQ(result->ops[0].readPos, 5u);
    EXPECT_EQ(result->ops[0].bases, "A");
}

TEST(BandedAlign, InsertionBlockMerged)
{
    const std::string t = "ACGTACGTACGT";
    const std::string q = "ACGTAGGGCGTACGT"; // GGG inserted at 5.
    const auto result = bandedAlign(t, q, 6);
    ASSERT_TRUE(result.has_value());
    // Unit-cost edit distance is 3 (three inserted bases).
    EXPECT_EQ(result->editDistance, 3u);
    // Blocks must be merged into one op.
    size_t ins_ops = 0;
    for (const auto &op : result->ops)
        ins_ops += op.type == EditType::Ins;
    EXPECT_EQ(ins_ops, 1u);
}

TEST(BandedAlign, DeletionBlockMerged)
{
    const std::string t = "ACGTAGGGCGTACGT";
    const std::string q = "ACGTACGTACGT";
    const auto result = bandedAlign(t, q, 6);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->editDistance, 3u);
    size_t del_ops = 0;
    for (const auto &op : result->ops) {
        if (op.type == EditType::Del) {
            del_ops++;
            EXPECT_EQ(op.length, 3u);
        }
    }
    EXPECT_EQ(del_ops, 1u);
}

TEST(BandedAlign, NarrowBandCostsMoreThanWideBand)
{
    // The band corridor always reaches the terminal corner (it includes
    // the length difference), so narrow bands degrade cost rather than
    // fail. A true shift-by-8 alignment needs band >= 8 to see the
    // optimal 16-edit solution (8 del + 8 ins).
    const std::string t = "AAAAAAAACGCGCGCGCGCGACGACG";
    const std::string q = "CGCGCGCGCGCGACGACGTTTTTTTT";
    const auto narrow = bandedDistance(t, q, 1);
    const auto wide = bandedDistance(t, q, 12);
    ASSERT_TRUE(narrow.has_value());
    ASSERT_TRUE(wide.has_value());
    EXPECT_GT(*narrow, *wide);
}

/** Property: reconstruction from an alignment is always exact. */
TEST(BandedAlign, ReconstructionExactUnderRandomEdits)
{
    Rng rng(77);
    for (int trial = 0; trial < 200; trial++) {
        const std::string target = randomSeq(rng, 150 + rng.nextBelow(200));
        // Mutate the target into the query.
        std::string query;
        for (char c : target) {
            const double roll = rng.nextDouble();
            if (roll < 0.02) {
                continue; // deletion
            } else if (roll < 0.04) {
                query.push_back(codeToBase(
                    static_cast<uint8_t>(rng.nextBelow(4))));
                query.push_back(c); // insertion
            } else if (roll < 0.07) {
                uint8_t nc = static_cast<uint8_t>(rng.nextBelow(4));
                query.push_back(codeToBase(nc)); // substitution (maybe id)
            } else {
                query.push_back(c);
            }
        }
        if (query.empty())
            continue;
        const auto result = bandedAlign(target, query, 32);
        ASSERT_TRUE(result.has_value()) << "trial " << trial;

        AlignedSegment seg;
        seg.consensusPos = 0;
        seg.readStart = 0;
        seg.readLength = static_cast<uint32_t>(query.size());
        seg.ops = result->ops;
        EXPECT_EQ(reconstructSegment(target, seg), query)
            << "trial " << trial;
    }
}

TEST(BandedAlign, NInQueryBecomesExplicitEdit)
{
    const std::string t = "ACGTACGTACGT";
    std::string q = t;
    q[4] = 'N';
    const auto result = bandedAlign(t, q, 4);
    ASSERT_TRUE(result.has_value());
    EXPECT_GE(result->editDistance, 1u);
    AlignedSegment seg;
    seg.readLength = static_cast<uint32_t>(q.size());
    seg.ops = result->ops;
    EXPECT_EQ(reconstructSegment(t, seg), q);
}

// ---------------------------------------------------------------------
// Edit scripts
// ---------------------------------------------------------------------

TEST(Edits, ReconstructWithExplicitOps)
{
    const std::string consensus = "AAAACCCCGGGGTTTT";
    AlignedSegment seg;
    seg.consensusPos = 4;
    seg.readStart = 0;
    seg.readLength = 8;
    // Read = consensus[4..12) with a substitution at read pos 2.
    EditOp sub;
    sub.readPos = 2;
    sub.type = EditType::Sub;
    sub.bases = "T";
    seg.ops.push_back(sub);
    EXPECT_EQ(reconstructSegment(consensus, seg), "CCTCGGGG");
}

TEST(Edits, DeletionSkipsConsensus)
{
    const std::string consensus = "ACGTACGTACGT";
    AlignedSegment seg;
    seg.consensusPos = 0;
    seg.readLength = 8;
    EditOp del;
    del.readPos = 4;
    del.type = EditType::Del;
    del.length = 4;
    seg.ops.push_back(del);
    EXPECT_EQ(reconstructSegment(consensus, seg), "ACGTACGT");
}

TEST(Edits, StoredBaseCount)
{
    std::vector<EditOp> ops(2);
    ops[0].type = EditType::Sub;
    ops[0].bases = "A";
    ops[1].type = EditType::Ins;
    ops[1].length = 3;
    ops[1].bases = "ACG";
    EXPECT_EQ(storedBaseCount(ops), 4u);
}

// ---------------------------------------------------------------------
// Minimizer index
// ---------------------------------------------------------------------

TEST(Index, LookupFindsPlantedKmer)
{
    Rng rng(55);
    std::string consensus = randomSeq(rng, 20000);
    IndexConfig config;
    MinimizerIndex index(consensus, config);
    EXPECT_GT(index.distinctSeeds(), 100u);
    // Every stored position must actually hold the k-mer.
    const auto minimizers =
        extractMinimizers(consensus, config.k, config.w);
    for (size_t i = 0; i < std::min<size_t>(minimizers.size(), 50); i++) {
        const auto &positions = index.lookup(minimizers[i].kmer);
        bool found = false;
        for (uint32_t pos : positions)
            found |= pos == minimizers[i].pos;
        EXPECT_TRUE(found);
    }
}

TEST(Index, MasksRepetitiveSeeds)
{
    // Highly repetitive sequence: the repeated seed must be masked.
    std::string consensus;
    for (int i = 0; i < 3000; i++)
        consensus += "ACGTACGTAC";
    IndexConfig config;
    config.maxOccurrence = 16;
    MinimizerIndex index(consensus, config);
    for (const auto &hit : extractMinimizers(consensus, config.k,
                                             config.w)) {
        EXPECT_LE(index.lookup(hit.kmer).size(), config.maxOccurrence);
    }
}

/** lookup() against per-k-mer position lists built from the minimizers
 *  (position order, first maxOccurrence kept); absent k-mers are empty. */
void
expectLookupMatchesReference(const std::string &consensus,
                             const IndexConfig &config, Rng &rng)
{
    const MinimizerIndex index(consensus, config);
    std::map<uint64_t, std::vector<uint32_t>> reference;
    for (const auto &hit :
         extractMinimizers(consensus, config.k, config.w)) {
        std::vector<uint32_t> &positions = reference[hit.kmer];
        if (positions.size() < config.maxOccurrence)
            positions.push_back(hit.pos);
    }
    EXPECT_EQ(index.distinctSeeds(), reference.size());
    for (const auto &[kmer, positions] : reference) {
        const SeedHits hits = index.lookup(kmer);
        EXPECT_EQ(std::vector<uint32_t>(hits.begin(), hits.end()),
                  positions)
            << "kmer " << kmer;
    }

    const uint64_t mask = (uint64_t(1) << (2 * config.k)) - 1;
    size_t absent = 0;
    for (const auto &hit : extractKmers(consensus, config.k)) {
        if (reference.count(hit.kmer) == 0) {
            EXPECT_TRUE(index.lookup(hit.kmer).empty());
            absent++;
        }
    }
    for (int i = 0; i < 2000; i++) {
        const uint64_t kmer = rng.next() & mask;
        if (reference.count(kmer) == 0) {
            EXPECT_TRUE(index.lookup(kmer).empty());
            absent++;
        }
    }
    EXPECT_GT(absent, 0u);
}

TEST(Index, LookupMatchesReferenceLists)
{
    Rng rng(57);
    IndexConfig config;
    expectLookupMatchesReference(randomSeq(rng, 50000), config, rng);

    // A 400-base unit repeated 200 times (every seed past maxOccurrence),
    // point-mutated here and there, then a unique tail.
    const std::string unit = randomSeq(rng, 400);
    std::string repetitive;
    for (int i = 0; i < 200; i++)
        repetitive += unit;
    for (int i = 0; i < 300; i++)
        repetitive[rng.nextBelow(repetitive.size())] =
            codeToBase(static_cast<uint8_t>(rng.nextBelow(4)));
    repetitive += randomSeq(rng, 5000);
    expectLookupMatchesReference(repetitive, config, rng);
    config.maxOccurrence = 3;
    expectLookupMatchesReference(repetitive, config, rng);
}

/** An index built on pools of 1, 3 and 4 workers answers every lookup
 *  of @p consensus's k-mers, and of random ones, as the serial build
 *  does, with the same seed count and footprint. */
void
expectPoolBuildsMatchSerial(const std::string &consensus,
                            const IndexConfig &config, Rng &rng)
{
    const MinimizerIndex serial(consensus, config);
    std::vector<uint64_t> kmers;
    for (const auto &hit : extractKmers(consensus, config.k))
        kmers.push_back(hit.kmer);
    const uint64_t mask = (uint64_t(1) << (2 * config.k)) - 1;
    for (int i = 0; i < 2000; i++)
        kmers.push_back(rng.next() & mask);
    auto positions = [](SeedHits hits) {
        return std::vector<uint32_t>(hits.begin(), hits.end());
    };
    for (size_t threads : {1, 3, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " workers");
        ThreadPool pool(threads);
        const MinimizerIndex pooled(consensus, config, &pool);
        EXPECT_EQ(pooled.distinctSeeds(), serial.distinctSeeds());
        EXPECT_EQ(pooled.memoryBytes(), serial.memoryBytes());
        for (uint64_t kmer : kmers) {
            ASSERT_EQ(positions(pooled.lookup(kmer)),
                      positions(serial.lookup(kmer)))
                << "kmer " << kmer;
        }
    }
}

TEST(IndexOnPool, MatchesSerial)
{
    // The Index.LookupMatchesReferenceLists inputs.
    Rng rng(57);
    IndexConfig config;
    expectPoolBuildsMatchSerial(randomSeq(rng, 50000), config, rng);
    const std::string unit = randomSeq(rng, 400);
    std::string repetitive;
    for (int i = 0; i < 200; i++)
        repetitive += unit;
    for (int i = 0; i < 300; i++)
        repetitive[rng.nextBelow(repetitive.size())] =
            codeToBase(static_cast<uint8_t>(rng.nextBelow(4)));
    repetitive += randomSeq(rng, 5000);
    expectPoolBuildsMatchSerial(repetitive, config, rng);
    IndexConfig capped = config;
    capped.maxOccurrence = 3;
    expectPoolBuildsMatchSerial(repetitive, capped, rng);

    // N runs, which no k-mer spans.
    std::string with_n;
    for (int i = 0; i < 40; i++) {
        with_n += randomSeq(rng, 500 + rng.nextBelow(1000));
        with_n += std::string(1 + rng.nextBelow(60), 'N');
    }
    expectPoolBuildsMatchSerial(with_n, config, rng);

    // Shorter than k: no minimizers at all.
    const std::string tiny = randomSeq(rng, config.k - 1);
    EXPECT_EQ(MinimizerIndex(tiny, config).distinctSeeds(), 0u);
    expectPoolBuildsMatchSerial(tiny, config, rng);
}

// ---------------------------------------------------------------------
// Mapper
// ---------------------------------------------------------------------

TEST(Mapper, ExactSubstringMapsWithZeroEdits)
{
    Rng rng(66);
    const std::string consensus = randomSeq(rng, 50000);
    ConsensusMapper mapper(consensus);
    const std::string read = consensus.substr(12345, 150);
    const ReadMapping mapping = mapper.mapSequence(read);
    ASSERT_TRUE(mapping.mapped);
    EXPECT_FALSE(mapping.reverse);
    EXPECT_EQ(mapping.totalEdits(), 0u);
    EXPECT_EQ(mapping.primaryPosition(), 12345u);
    EXPECT_EQ(reconstructRead(consensus, mapping), read);
}

TEST(Mapper, ReverseStrandDetected)
{
    Rng rng(67);
    const std::string consensus = randomSeq(rng, 50000);
    ConsensusMapper mapper(consensus);
    const std::string read =
        reverseComplement(consensus.substr(30000, 150));
    const ReadMapping mapping = mapper.mapSequence(read);
    ASSERT_TRUE(mapping.mapped);
    EXPECT_TRUE(mapping.reverse);
    // Oriented reconstruction must equal rc(read).
    EXPECT_EQ(reconstructRead(consensus, mapping),
              reverseComplement(read));
}

TEST(Mapper, RejectsForeignSequence)
{
    Rng rng(68);
    const std::string consensus = randomSeq(rng, 50000);
    ConsensusMapper mapper(consensus);
    Rng other(999);
    const std::string junk = randomSeq(other, 150);
    const ReadMapping mapping = mapper.mapSequence(junk);
    EXPECT_FALSE(mapping.mapped);
}

TEST(Mapper, ChimericReadGetsMultipleSegments)
{
    Rng rng(69);
    const std::string consensus = randomSeq(rng, 80000);
    MapperConfig config;
    config.maxSegments = 3;
    ConsensusMapper mapper(consensus, config);
    // Join two distant loci (Property 4).
    const std::string read =
        consensus.substr(5000, 900) + consensus.substr(60000, 900);
    const ReadMapping mapping = mapper.mapSequence(read);
    ASSERT_TRUE(mapping.mapped);
    EXPECT_EQ(mapping.segments.size(), 2u);
    EXPECT_EQ(reconstructRead(consensus, mapping), read);
}

TEST(Mapper, SingleSegmentModeStillReconstructs)
{
    Rng rng(70);
    const std::string consensus = randomSeq(rng, 80000);
    MapperConfig config;
    config.maxSegments = 1;
    config.maxEditFraction = 0.8;
    ConsensusMapper mapper(consensus, config);
    const std::string read =
        consensus.substr(5000, 900) + consensus.substr(60000, 900);
    const ReadMapping mapping = mapper.mapSequence(read);
    if (mapping.mapped) {
        EXPECT_EQ(mapping.segments.size(), 1u);
        EXPECT_EQ(reconstructRead(consensus, mapping), read);
    }
}

TEST(Mapper, MapAllReconstructsSimulatedShortReads)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    ConsensusMapper mapper(ds.reference);
    const auto mappings = mapper.mapAll(ds.readSet);
    const MappingStats stats =
        ConsensusMapper::summarize(mappings, ds.readSet);
    // Nearly everything should map against the same-species reference.
    EXPECT_GT(stats.mappedReads, stats.totalReads * 95 / 100);
    for (size_t i = 0; i < mappings.size(); i++) {
        if (!mappings[i].mapped)
            continue;
        const std::string oriented = mappings[i].reverse
            ? reverseComplement(ds.readSet.reads[i].bases)
            : ds.readSet.reads[i].bases;
        ASSERT_EQ(reconstructRead(ds.reference, mappings[i]), oriented)
            << "read " << i;
    }
}

TEST(Mapper, MapAllReconstructsSimulatedLongReads)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    ConsensusMapper mapper(ds.reference);
    const auto mappings = mapper.mapAll(ds.readSet);
    const MappingStats stats =
        ConsensusMapper::summarize(mappings, ds.readSet);
    EXPECT_GT(stats.mappedReads, stats.totalReads * 80 / 100);
    for (size_t i = 0; i < mappings.size(); i++) {
        if (!mappings[i].mapped)
            continue;
        const std::string oriented = mappings[i].reverse
            ? reverseComplement(ds.readSet.reads[i].bases)
            : ds.readSet.reads[i].bases;
        ASSERT_EQ(reconstructRead(ds.reference, mappings[i]), oriented)
            << "read " << i;
    }
}

TEST(Mapper, MapAllOnPoolMatchesSerial)
{
    ThreadPool pool(4);
    for (bool long_reads : {false, true}) {
        SCOPED_TRACE(long_reads ? "long reads" : "short reads");
        const SimulatedDataset ds =
            synthesizeDataset(makeTinySpec(long_reads));
        const ConsensusMapper mapper(ds.reference);
        const auto serial = mapper.mapAll(ds.readSet);
        const auto pooled = mapper.mapAll(ds.readSet, &pool);
        ASSERT_EQ(pooled.size(), serial.size());
        for (size_t i = 0; i < serial.size(); i++) {
            const ReadMapping &a = serial[i];
            const ReadMapping &b = pooled[i];
            ASSERT_EQ(b.mapped, a.mapped) << "read " << i;
            ASSERT_EQ(b.reverse, a.reverse) << "read " << i;
            ASSERT_EQ(b.segments.size(), a.segments.size()) << "read " << i;
            for (size_t s = 0; s < a.segments.size(); s++) {
                const AlignedSegment &x = a.segments[s];
                const AlignedSegment &y = b.segments[s];
                EXPECT_EQ(y.consensusPos, x.consensusPos);
                EXPECT_EQ(y.readStart, x.readStart);
                EXPECT_EQ(y.readLength, x.readLength);
                ASSERT_EQ(y.ops.size(), x.ops.size()) << "read " << i;
                for (size_t o = 0; o < x.ops.size(); o++) {
                    EXPECT_EQ(y.ops[o].readPos, x.ops[o].readPos);
                    EXPECT_EQ(y.ops[o].type, x.ops[o].type);
                    EXPECT_EQ(y.ops[o].length, x.ops[o].length);
                    EXPECT_EQ(y.ops[o].bases, x.ops[o].bases);
                }
            }
        }
    }
}

/** An edit script as text: "S12:A" substitutes A at read offset 12,
 *  "I40:ACG" inserts ACG there and "D7x3" deletes 3 consensus bases. */
std::string
scriptText(const std::vector<EditOp> &ops)
{
    std::string text;
    for (const EditOp &op : ops) {
        if (!text.empty())
            text += ' ';
        switch (op.type) {
        case EditType::Sub:
            text += "S" + std::to_string(op.readPos) + ":" + op.bases;
            break;
        case EditType::Ins:
            text += "I" + std::to_string(op.readPos) + ":" + op.bases;
            break;
        case EditType::Del:
            text += "D" + std::to_string(op.readPos) + "x"
                + std::to_string(op.length);
            break;
        }
    }
    return text;
}

/** A base other than @p base. */
char
otherBase(char base)
{
    return base == 'A' ? 'C' : 'A';
}

/** Map @p read, expect one forward segment at consensus offset @p pos
 *  that rebuilds it, and return that segment's script as text. */
std::string
mapForward(const ConsensusMapper &mapper, const std::string &read,
           uint64_t pos)
{
    const ReadMapping mapping = mapper.mapSequence(read);
    EXPECT_TRUE(mapping.mapped);
    EXPECT_FALSE(mapping.reverse);
    EXPECT_EQ(reconstructRead(mapper.consensus(), mapping), read);
    if (mapping.segments.size() != 1) {
        ADD_FAILURE() << mapping.segments.size() << " segments";
        return "";
    }
    EXPECT_EQ(mapping.segments[0].consensusPos, pos);
    return scriptText(mapping.segments[0].ops);
}

TEST(Mapper, OneSubstitutionInEachOfTwoPieces)
{
    // Anchors lie between the two mismatches, so each sits alone in an
    // equal-length piece, where the DP's only cost-1 alignment is the
    // substitution.
    Rng rng(71);
    const std::string consensus = randomSeq(rng, 50000);
    const ConsensusMapper mapper(consensus);
    std::string read = consensus.substr(20000, 150);
    read[20] = otherBase(read[20]);
    read[120] = otherBase(read[120]);
    EXPECT_EQ(mapForward(mapper, read, 20000),
              std::string("S20:") + read[20] + " S120:" + read[120]);
}

TEST(Mapper, TwoEditsInOnePieceTakeTheDp)
{
    // Every k-mer starting at read offset 61..63 covers the mismatch at
    // 63, so no anchor splits the two: the piece goes to bandedAlign,
    // which here returns both substitutions.
    Rng rng(71);
    const std::string consensus = randomSeq(rng, 50000);
    const ConsensusMapper mapper(consensus);
    std::string read = consensus.substr(20000, 150);
    read[60] = otherBase(read[60]);
    read[63] = otherBase(read[63]);
    EXPECT_EQ(mapForward(mapper, read, 20000),
              std::string("S60:") + read[60] + " S63:" + read[63]);

    // A deletion at 60 and an insertion at 63 leave every anchor on one
    // diagonal, but read offsets 60-63 all mismatch along it. The DP
    // aligns them with the two indels, not four substitutions.
    const std::string window = consensus.substr(20000, 150);
    read = window.substr(0, 60) + window.substr(61, 3) + "G"
        + window.substr(64);
    EXPECT_EQ(mapForward(mapper, read, 20000), "D60x1 I63:G");
}

TEST(Mapper, InsertionKeepsItsIndelScript)
{
    // The anchors after the insertion lie three diagonals off those
    // before it, so the segment is aligned piece by piece. The script
    // is the one the piecewise DP gave before any shortcut existed: the
    // three inserted bases spread over read offsets 73-77.
    Rng rng(71);
    const std::string consensus = randomSeq(rng, 50000);
    const ConsensusMapper mapper(consensus);
    const std::string read = consensus.substr(30000, 75) + "TGA"
        + consensus.substr(30075, 72);
    EXPECT_EQ(mapForward(mapper, read, 30000), "I73:G I75:T I77:A");
}

TEST(Mapper, OverhangingReadKeepsItsClampedPosition)
{
    // A read that starts 10 bases before the consensus projects its
    // window to offset -10, which clamps to 0; one that runs 10 bases
    // past the end gets a shortened tail window. Both are aligned piece
    // by piece (the end case's script pinned from the piecewise DP).
    Rng rng(71);
    const std::string consensus = randomSeq(rng, 50000);
    const ConsensusMapper mapper(consensus);
    Rng other(72);
    const std::string before = randomSeq(other, 10);
    EXPECT_EQ(mapForward(mapper, before + consensus.substr(0, 140), 0),
              "I0:" + before);
    const std::string after = randomSeq(other, 10);
    EXPECT_EQ(mapForward(mapper, consensus.substr(49860) + after, 49860),
              "I137:CCC I141:TATTAT I148:A");
}

TEST(Mapper, NAgainstNIsASubstitution)
{
    // N never matches, not even an N in the consensus: the read keeps
    // its N as an explicit substitution, as bandedAlign scores it.
    Rng rng(71);
    std::string consensus = randomSeq(rng, 50000);
    consensus[40070] = 'N';
    const ConsensusMapper mapper(consensus);
    EXPECT_EQ(mapForward(mapper, consensus.substr(40000, 150), 40000),
              "S70:N");
}

TEST(Mapper, OwnReverseComplementMapsForward)
{
    // Both strands of a read equal to its reverse complement chain the
    // same: the tie goes to the forward strand. A reverse-strand read
    // maps first on this thread, so reverse chains left over from it
    // would also show here.
    Rng rng(71);
    std::string consensus = randomSeq(rng, 50000);
    Rng other(73);
    const std::string half = randomSeq(other, 75);
    const std::string read = half + reverseComplement(half);
    ASSERT_EQ(read, reverseComplement(read));
    consensus.replace(10000, read.size(), read);
    const ConsensusMapper mapper(consensus);

    const ReadMapping reverse =
        mapper.mapSequence(reverseComplement(consensus.substr(25000, 150)));
    ASSERT_TRUE(reverse.mapped);
    EXPECT_TRUE(reverse.reverse);
    EXPECT_EQ(mapForward(mapper, read, 10000), "");
}

TEST(Mapper, StrandTieGoesForwardWhenReverseIsChainedFirst)
{
    // The read sits at 2600 and its reverse complement, but for one base
    // near the read's end, at 45000. The reverse strand's seeds span
    // more of the read, so it is chained first; its best chain stops
    // short of the changed base and scores exactly the forward strand's
    // bound, as the forward chain does. The reverse strand must score
    // strictly higher to win, so the forward strand is still chained
    // and wins.
    Rng rng(71);
    std::string consensus = randomSeq(rng, 50000);
    std::string copy = consensus.substr(2600, 150);
    copy[146] = otherBase(copy[146]);
    consensus.replace(45000, copy.size(), reverseComplement(copy));
    const ConsensusMapper mapper(consensus);
    EXPECT_EQ(mapForward(mapper, consensus.substr(2600, 150), 2600), "");
}

// ---------------------------------------------------------------------
// Property analyses (Fig. 7 / Fig. 10 inputs)
// ---------------------------------------------------------------------

TEST(PropertyStats, ShortReadsMostlyZeroMismatches)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    ConsensusMapper mapper(ds.reference);
    const auto mappings = mapper.mapAll(ds.readSet);
    const PropertyStats stats = analyzeProperties(mappings);
    // Property 2: bucket 0 dominates mismatch counts per read.
    EXPECT_GT(stats.mismatchCountPerRead.fraction(0), 0.3);
    // Property 5: substitutions dominate short-read mismatch events.
    EXPECT_GT(stats.substitutionFraction, 0.8);
}

TEST(PropertyStats, MatchingPositionDeltasAreSmall)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0; // Dense sampling.
    const SimulatedDataset ds = synthesizeDataset(spec);
    ConsensusMapper mapper(ds.reference);
    const auto mappings = mapper.mapAll(ds.readSet);
    const PropertyStats stats = analyzeProperties(mappings);
    // Property 6: after reordering, most deltas need few bits.
    const auto &hist = stats.matchingPosDeltaBits;
    uint64_t small = 0;
    for (unsigned b = 0; b <= 6; b++)
        small += hist.count(b);
    EXPECT_GT(static_cast<double>(small) / hist.total(), 0.8);
}

TEST(PropertyStats, LongReadIndelBlocksSkewedToOne)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    ConsensusMapper mapper(ds.reference);
    const auto mappings = mapper.mapAll(ds.readSet);
    const PropertyStats stats = analyzeProperties(mappings);
    // Property 3: most indel blocks have length 1...
    EXPECT_GT(stats.indelBlockLength.fraction(1), 0.5);
}

} // namespace
} // namespace sage
