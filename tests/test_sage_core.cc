/**
 * @file
 * Tests for the SAGe core: Algorithm 1 tuning, tuned arrays, and full
 * compress/decompress losslessness across optimization levels,
 * technologies and corner cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "compress/quality.hh"
#include "compress/streams.hh"
#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

// ---------------------------------------------------------------------
// Algorithm 1 / tuned arrays
// ---------------------------------------------------------------------

TEST(Tuner, SingleClassForUniformWidths)
{
    Histogram hist;
    hist.add(4, 1000); // Every value needs exactly 4 bits.
    const AssociationTable table = tuneBitCounts(hist);
    ASSERT_EQ(table.widthByRank.size(), 1u);
    EXPECT_EQ(table.widthByRank[0], 4);
}

TEST(Tuner, SplitsSkewedDistribution)
{
    // Paper Property 1: most deltas tiny, rare ones large. The tuner
    // should not charge 16 bits to every value.
    Histogram hist;
    hist.add(2, 100000);
    hist.add(16, 100);
    const AssociationTable table = tuneBitCounts(hist);
    ASSERT_GE(table.widthByRank.size(), 2u);
    // Most frequent class (rank 0) must be the narrow one.
    EXPECT_EQ(table.widthByRank[0], 2);
}

TEST(Tuner, CostBeatsFixedWidth)
{
    Histogram hist;
    Rng rng(21);
    std::vector<uint64_t> values;
    for (int i = 0; i < 50000; i++) {
        // Geometric-ish deltas with a heavy tail.
        uint64_t v = rng.nextGeometric(0.4);
        if (rng.nextBool(0.01))
            v += rng.nextBelow(1 << 14);
        values.push_back(v);
        hist.add(valueBits(v));
    }
    const AssociationTable table = tuneBitCounts(hist);
    const TunedFieldCodec codec(table);
    uint64_t tuned_bits = 0;
    unsigned max_bits = 0;
    for (uint64_t v : values) {
        tuned_bits += codec.costBits(v);
        max_bits = std::max(max_bits, valueBits(v));
    }
    const uint64_t fixed_bits =
        static_cast<uint64_t>(values.size()) * max_bits;
    EXPECT_LT(tuned_bits, fixed_bits);
}

TEST(Tuner, RespectsMaxClasses)
{
    Histogram hist;
    for (unsigned b = 1; b <= 20; b++)
        hist.add(b, 1000 >> (b / 4));
    TunerConfig config;
    config.maxClasses = 3;
    config.epsilon = 0.0; // Force the full search up to maxClasses.
    const AssociationTable table = tuneBitCounts(hist, config);
    EXPECT_LE(table.widthByRank.size(), 3u);
}

TEST(TunedArray, RoundTripRandomValues)
{
    Rng rng(8);
    std::vector<uint64_t> values;
    for (int i = 0; i < 20000; i++)
        values.push_back(rng.nextGeometric(0.3));
    const AssociationTable table = TunedFieldCodec::tuneFor(values);
    TunedArrayEncoder enc(table);
    for (uint64_t v : values)
        enc.append(v);
    auto array = enc.takeArray();
    auto guide = enc.takeGuide();
    TunedArrayDecoder dec(table, BitReader(array), BitReader(guide));
    for (uint64_t v : values)
        ASSERT_EQ(dec.next(), v);
}

TEST(TunedArray, AssociationTableSerialization)
{
    AssociationTable table;
    table.widthByRank = {2, 4, 8, 17};
    std::vector<uint8_t> buf;
    table.serialize(buf);
    size_t pos = 0;
    const AssociationTable back =
        AssociationTable::deserialize(buf, pos);
    EXPECT_EQ(back, table);
    EXPECT_EQ(pos, buf.size());
}

TEST(TunedArray, GuideUsesShortCodesForCommonClass)
{
    // 90% of values need 3 bits, 10% need 12: rank 0 must be width 3.
    std::vector<uint64_t> values;
    Rng rng(31);
    for (int i = 0; i < 10000; i++)
        values.push_back(rng.nextBool(0.9) ? 5 : 3000);
    const AssociationTable table = TunedFieldCodec::tuneFor(values);
    EXPECT_EQ(table.widthByRank[0], valueBits(5));
}

// ---------------------------------------------------------------------
// SAGe parameters header
// ---------------------------------------------------------------------

TEST(SageParams, HeaderRoundTrip)
{
    SageParams params;
    params.numReads = 12345;
    params.consensusLength = 999999;
    params.consensusTwoBit = false;
    params.hasQuality = true;
    params.reorderReads = false;
    params.maxSegments = 3;
    params.modalReadLength = 151;
    params.matchPos.widthByRank = {3, 9};
    params.readLen.widthByRank = {1};
    params.mismatchCount.widthByRank = {2, 5, 9};
    params.mismatchPos.widthByRank = {4};
    params.segPos.widthByRank = {20};
    params.segLen.widthByRank = {12};

    const SageParams back =
        SageParams::deserialize(params.serialize());
    EXPECT_EQ(back.numReads, params.numReads);
    EXPECT_EQ(back.consensusLength, params.consensusLength);
    EXPECT_EQ(back.consensusTwoBit, params.consensusTwoBit);
    EXPECT_EQ(back.hasQuality, params.hasQuality);
    EXPECT_EQ(back.reorderReads, params.reorderReads);
    EXPECT_EQ(back.maxSegments, params.maxSegments);
    EXPECT_EQ(back.modalReadLength, params.modalReadLength);
    EXPECT_EQ(back.matchPos, params.matchPos);
    EXPECT_EQ(back.mismatchCount, params.mismatchCount);
}

// ---------------------------------------------------------------------
// End-to-end losslessness
// ---------------------------------------------------------------------

/** Sorted multiset view of (bases, quals) records. */
std::multiset<std::pair<std::string, std::string>>
recordSet(const ReadSet &rs)
{
    std::multiset<std::pair<std::string, std::string>> set;
    for (const auto &read : rs.reads)
        set.emplace(read.bases, read.quals);
    return set;
}

class SageRoundTrip : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SageRoundTrip, ShortReadsLosslessAtEveryLevel)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config = SageConfig::atLevel(GetParam());
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST_P(SageRoundTrip, LongReadsLosslessAtEveryLevel)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    SageConfig config = SageConfig::atLevel(GetParam());
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

INSTANTIATE_TEST_SUITE_P(OptimizationLevels, SageRoundTrip,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(SageRoundTripExtra, PreserveOrderRestoresExactSequence)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.preserveOrder = true;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    for (size_t i = 0; i < back.reads.size(); i++) {
        EXPECT_EQ(back.reads[i].bases, ds.readSet.reads[i].bases);
        EXPECT_EQ(back.reads[i].quals, ds.readSet.reads[i].quals);
        EXPECT_EQ(back.reads[i].header, ds.readSet.reads[i].header);
    }
}

TEST(SageRoundTripExtra, QualityCanBeDropped)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.keepQuality = false;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    EXPECT_EQ(archive.qualityBytes, 0u);
    const ReadSet back = sageDecompress(archive.bytes);
    for (const auto &read : back.reads)
        EXPECT_TRUE(read.quals.empty());
}

TEST(SageRoundTripExtra, ReadsWithNSurvive)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.nReadProb = 0.2; // Force many N-containing reads.
    const SimulatedDataset ds = synthesizeDataset(spec);
    bool any_n = false;
    for (const auto &read : ds.readSet.reads)
        any_n |= read.bases.find('N') != std::string::npos;
    ASSERT_TRUE(any_n) << "spec should have produced N reads";

    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(SageRoundTripExtra, ClippedReadsSurvive)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.clipProb = 0.3;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(SageRoundTripExtra, ChimericLongReadsSurvive)
{
    DatasetSpec spec = makeTinySpec(true);
    spec.sequencer.chimeraProb = 0.5;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(SageRoundTripExtra, EmptyReadSet)
{
    ReadSet rs;
    rs.name = "empty";
    const std::string consensus(1000, 'A');
    const SageArchive archive = sageCompress(rs, consensus);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_TRUE(back.reads.empty());
}

TEST(SageRoundTripExtra, PackedOutputFormats)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);

    const MemorySource source(archive.bytes);
    SageReader ascii_dec(source);
    const auto ascii = ascii_dec.decodeAllPacked(OutputFormat::Ascii);
    SageReader two_dec(source);
    const auto twobit = two_dec.decodeAllPacked(OutputFormat::TwoBit);
    ASSERT_EQ(ascii.size(), twobit.size());

    // Cross-check: unpacking 2-bit must equal the ASCII bases when the
    // read is ACGT-only.
    for (size_t i = 0; i < ascii.size(); i++) {
        const std::string bases(ascii[i].begin(), ascii[i].end());
        if (bases.find('N') == std::string::npos) {
            EXPECT_EQ(unpackSequence(twobit[i], bases.size(),
                                     OutputFormat::TwoBit),
                      bases);
        }
    }
}

TEST(SageRoundTripExtra, CompressionBeatsTwoBitPacking)
{
    // With redundant sampling (depth > 4), SAGe must beat the trivial
    // 2 bits/base floor on DNA.
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const double dna_ratio =
        static_cast<double>(ds.readSet.dnaBytes())
        / static_cast<double>(archive.dnaBytes);
    EXPECT_GT(dna_ratio, 4.0) << "consensus encoding should beat 4x";
}

TEST(SageRoundTripExtra, HigherLevelsNeverLargerDna)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    double prev = 1e30;
    for (unsigned level = 0; level <= 4; level++) {
        SageConfig config = SageConfig::atLevel(level);
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);
        // Allow 2% slack: O3 can trade position bytes for base bytes.
        EXPECT_LT(static_cast<double>(archive.dnaBytes), prev * 1.02)
            << "level " << level;
        prev = static_cast<double>(archive.dnaBytes);
    }
}

/** The archive's own CRC-32, stored little-endian in its last 4 bytes. */
uint32_t
trailerCrc(const std::vector<uint8_t> &archive)
{
    const size_t n = archive.size();
    return uint32_t(archive[n - 4]) | uint32_t(archive[n - 3]) << 8 |
        uint32_t(archive[n - 2]) << 16 | uint32_t(archive[n - 1]) << 24;
}

/** Size and CRC-32 of one stream of an archive. */
struct StreamPin
{
    const char *name;
    uint64_t size;
    uint32_t crc;
};

/**
 * Expect @p archive to hold exactly the streams @p pins name, each of
 * the size and CRC-32 pinned, plus a quality stream. Only the header
 * and quality streams' layouts have changed since the other 16 pins
 * were taken, so those pins show that mapping and the DNA side still
 * write the same bytes.
 */
template <size_t N>
void
expectStreamsBesidesQuality(const std::vector<uint8_t> &archive,
                            const StreamPin (&pins)[N])
{
    const StreamBundle bundle = StreamBundle::deserialize(archive);
    const std::map<std::string, uint64_t> sizes = bundle.sizes();
    EXPECT_EQ(sizes.size(), N + 1);
    EXPECT_TRUE(bundle.has("quality"));
    for (const StreamPin &pin : pins) {
        SCOPED_TRACE(pin.name);
        ASSERT_TRUE(bundle.has(pin.name));
        EXPECT_EQ(bundle.stream(pin.name).size(), pin.size);
        EXPECT_EQ(Crc32::of(bundle.stream(pin.name)), pin.crc);
    }
}

const StreamPin kTinyShortStreams[] = {
    {"chunks", 16, 0xbf4bdb75u}, {"consensus", 16384, 0xfa2a7c8au},
    {"escape", 0, 0x00000000u}, {"flags", 437, 0x3e06e813u},
    {"headers", 4239, 0x0fbb92efu}, {"mbta", 152, 0x3a93f461u},
    {"mca", 232, 0xb042a0b9u}, {"mcga", 231, 0x18b501cau},
    {"mmpa", 454, 0x28a6febdu}, {"mmpga", 113, 0x149e5e37u},
    {"mpa", 1241, 0xe1f6095au}, {"mpga", 346, 0x92406fb5u},
    {"params", 35, 0x768a323cu}, {"rla", 221, 0xbdd7e9e0u},
    {"rlga", 220, 0x60172800u}, {"sga", 0, 0x00000000u},
    {"sgga", 0, 0x00000000u},
};

const StreamPin kTinyLongStreams[] = {
    {"chunks", 15, 0x296e02a6u}, {"consensus", 16384, 0xfa2a7c8au},
    {"escape", 0, 0x00000000u}, {"flags", 33, 0x62f2863du},
    {"headers", 388, 0x6f21015fu}, {"mbta", 3427, 0xee51c4d8u},
    {"mca", 119, 0x3bac1ee8u}, {"mcga", 31, 0xdeedc45du},
    {"mmpa", 6142, 0xc73e8f0fu}, {"mmpga", 2572, 0x826e407bu},
    {"mpa", 133, 0xbe5e89c2u}, {"mpga", 20, 0xb735e294u},
    {"params", 41, 0xb1ebcca4u}, {"rla", 160, 0x0d2c39b8u},
    {"rlga", 21, 0x151d6089u}, {"sga", 117, 0xc3ac3e36u},
    {"sgga", 17, 0x7e3727fdu},
};

const StreamPin kRepeatRichStreams[] = {
    {"chunks", 66, 0x81312e08u}, {"consensus", 15000, 0x10259951u},
    {"escape", 114, 0xedef3cdbu}, {"flags", 2400, 0x660abb7cu},
    {"headers", 24696, 0xb207b98au}, {"mbta", 1940, 0xcf8c950du},
    {"mca", 1553, 0x8fd2cedbu}, {"mcga", 1390, 0xfba7433fu},
    {"mmpa", 5109, 0x3eeac806u}, {"mmpga", 1485, 0xb0a45ff1u},
    {"mpa", 3895, 0xd4092d26u}, {"mpga", 1798, 0x7608846fu},
    {"params", 36, 0xc6f36ddeu}, {"rla", 1217, 0xea79a61du},
    {"rlga", 1208, 0xb2ab1b5au}, {"sga", 0, 0x00000000u},
    {"sgga", 0, 0x00000000u},
};

const StreamPin kSmallBlockStreams[] = {
    {"chunks", 164, 0x0cc4ab81u}, {"consensus", 10000, 0x7638af42u},
    {"escape", 57, 0xf2d2ae44u}, {"flags", 1600, 0xe5747a73u},
    {"headers", 15958, 0xc0e4061fu}, {"mbta", 367, 0xa0b18e7bu},
    {"mca", 828, 0x47fc6300u}, {"mcga", 827, 0x2a1a0d48u},
    {"mmpa", 1070, 0x56e0606fu}, {"mmpga", 278, 0x79070306u},
    {"mpa", 2724, 0x883754f2u}, {"mpga", 1118, 0x19c4a1ecu},
    {"params", 36, 0xf778056eu}, {"rla", 810, 0x5d57e8b7u},
    {"rlga", 807, 0xa5a05b7bu}, {"sga", 0, 0x00000000u},
    {"sgga", 0, 0x00000000u},
};

const StreamPin kRs2LikeStreams[] = {
    {"chunks", 116, 0xf7914262u}, {"consensus", 31250, 0xd1a4b9bfu},
    {"escape", 798, 0x96d742ffu}, {"flags", 4999, 0xe7451a59u},
    {"headers", 55388, 0xfeeb17a5u}, {"mbta", 1326, 0x85974f53u},
    {"mca", 2615, 0xd300be95u}, {"mcga", 2593, 0x1df67bffu},
    {"mmpa", 3822, 0x1949985eu}, {"mmpga", 938, 0xc6bb0e6au},
    {"mpa", 8483, 0x4ad8024fu}, {"mpga", 3479, 0xf89bbb9du},
    {"params", 37, 0x29d8b8afu}, {"rla", 2544, 0x5ca5fc67u},
    {"rlga", 2515, 0x4a9871bbu}, {"sga", 0, 0x00000000u},
    {"sgga", 0, 0x00000000u},
};

TEST(SageEncode, ByteIdenticalAcrossPoolSizes)
{
    // Pinned size and trailer CRC of each archive: a change to the
    // mapper, index, pool or quality coder that alters any byte fails
    // here. (Pin the stored CRC: a CRC over the whole archive, which
    // ends in its own CRC, is always the CRC-32 residue.)
    struct Case
    {
        bool longReads;
        size_t bytes;
        uint32_t crc;
        const StreamPin (&streams)[17];
    };
    ThreadPool one(1), four(4);
    for (const Case &c : {Case{false, 32016, 0x51bca581u, kTinyShortStreams},
                          Case{true, 38888, 0x980f4836u, kTinyLongStreams}}) {
        SCOPED_TRACE(c.longReads ? "long reads" : "short reads");
        const SimulatedDataset ds =
            synthesizeDataset(makeTinySpec(c.longReads));
        SageConfig config;
        config.chunkReads = 4096;
        const std::vector<uint8_t> serial =
            sageCompress(ds.readSet, ds.reference, config).bytes;
        EXPECT_EQ(sageCompress(ds.readSet, ds.reference, config, &one).bytes,
                  serial);
        EXPECT_EQ(sageCompress(ds.readSet, ds.reference, config, &four).bytes,
                  serial);
        ASSERT_EQ(serial.size(), c.bytes);
        EXPECT_EQ(trailerCrc(serial), c.crc);
        expectStreamsBesidesQuality(serial, c.streams);
    }
}

TEST(SageEncode, ByteIdenticalOnRepeatRichReads)
{
    // RS2-like reads over a small reference that is 30% repeat copies:
    // strands there collect far more anchors and open chains (up to 59
    // on one strand) than the tiny sets reach, so the chaining search
    // and its tie-breaks run where the pins above do not take them.
    DatasetSpec spec = makeRs2Spec();
    spec.seed = 7;
    spec.genome.referenceLength = 60000;
    spec.genome.repeatFraction = 0.3;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 4096;
    ThreadPool one(1), four(4);
    const std::vector<uint8_t> serial =
        sageCompress(ds.readSet, ds.reference, config).bytes;
    EXPECT_EQ(sageCompress(ds.readSet, ds.reference, config, &one).bytes,
              serial);
    EXPECT_EQ(sageCompress(ds.readSet, ds.reference, config, &four).bytes,
              serial);
    ASSERT_EQ(serial.size(), 103060u);
    EXPECT_EQ(trailerCrc(serial), 0x4e27acffu);
    expectStreamsBesidesQuality(serial, kRepeatRichStreams);
}

TEST(SageEncode, ByteIdenticalOnRs2LikeReads)
{
    // The ingest benchmark's read shape: RS2-like reads over a reference
    // sized for their count at RS2's depth, here 20 k reads. Most map
    // with no edit or a few substitutions, about half on each strand,
    // so the mapper's shortcuts for those carry nearly every read.
    DatasetSpec spec = makeRs2Spec();
    spec.seed = 29;
    spec.genome.referenceLength = static_cast<uint64_t>(
        20000.0 * spec.sequencer.readLength / spec.depth);
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 4096;
    ThreadPool four(4);
    const std::vector<uint8_t> serial =
        sageCompress(ds.readSet, ds.reference, config).bytes;
    EXPECT_EQ(sageCompress(ds.readSet, ds.reference, config, &four).bytes,
              serial);
    ASSERT_EQ(serial.size(), 206408u);
    EXPECT_EQ(trailerCrc(serial), 0xce0fa9a6u);
    expectStreamsBesidesQuality(serial, kRs2LikeStreams);
}

TEST(SageEncode, ByteIdenticalWithSmallQualityBlocks)
{
    // The pins above make one quality block and one header block. Here
    // an RS2-like set spans several chunks with 4096-character quality
    // blocks, so about 150 blocks start mid-read, and every third read
    // has no quality string, so some reads give a block nothing.
    DatasetSpec spec = makeRs2Spec();
    spec.seed = 11;
    spec.genome.referenceLength = 40000;
    SimulatedDataset ds = synthesizeDataset(spec);
    for (size_t i = 0; i < ds.readSet.reads.size(); i += 3)
        ds.readSet.reads[i].quals.clear();
    SageConfig config;
    config.chunkReads = 1024;
    config.quality.blockChars = 4096;
    ThreadPool one(1), four(4);
    const std::vector<uint8_t> serial =
        sageCompress(ds.readSet, ds.reference, config).bytes;
    EXPECT_EQ(sageCompress(ds.readSet, ds.reference, config, &one).bytes,
              serial);
    EXPECT_EQ(sageCompress(ds.readSet, ds.reference, config, &four).bytes,
              serial);
    ASSERT_EQ(serial.size(), 70869u);
    EXPECT_EQ(trailerCrc(serial), 0x35736c5au);
    expectStreamsBesidesQuality(serial, kSmallBlockStreams);
    const ReadSet decoded = sageDecompress(serial);
    EXPECT_EQ(recordSet(decoded), recordSet(ds.readSet));

    // A block ends at each chunk boundary and every 4096 characters
    // within a chunk: 153 of the 159 start inside a read. Where each
    // read's quality starts comes from the decoded reads, in the order
    // they are stored.
    const QualityArchive quality = unpackQuality(
        StreamBundle::deserialize(serial).stream("quality"));
    EXPECT_EQ(quality.chunks.size(), 7u);
    std::set<uint64_t> read_starts;
    uint64_t at = 0;
    for (const Read &read : decoded.reads) {
        read_starts.insert(at);
        at += read.quals.size();
    }
    EXPECT_EQ(at, quality.totalChars());
    size_t mid_read = 0;
    at = 0;
    for (uint64_t chars : quality.blockChars) {
        mid_read += read_starts.count(at) == 0;
        at += chars;
    }
    EXPECT_EQ(quality.blocks.size(), 159u);
    EXPECT_EQ(mid_read, 153u);
}

TEST(SageEncode, QualityOfAnotherLengthIsRejected)
{
    // A read's quality is empty or one character per base: the decoder
    // refuses any other length, so the writer does not write one.
    SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    ds.readSet.reads[3].quals.pop_back();
    EXPECT_DEATH(
        { sageCompress(ds.readSet, ds.reference); },
        "read 3 has 149 quality characters for 150 bases");
    ds.readSet.reads[3].quals.clear();
    EXPECT_NO_FATAL_FAILURE(sageCompress(ds.readSet, ds.reference));
}

TEST(SageEncode, HeaderWithNewlineIsRejected)
{
    // A header is one line of the header stream: one holding a newline
    // would give the stream a line more than the archive has reads, and
    // its own decoder would refuse the archive, so the writer does not
    // write one.
    SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    ds.readSet.reads[3].header = "read3\nsecond line";
    EXPECT_DEATH(
        { sageCompress(ds.readSet, ds.reference); },
        "read 3 has a header that holds a newline");
    ds.readSet.reads[3].header = "read3 second line";
    EXPECT_NO_FATAL_FAILURE(sageCompress(ds.readSet, ds.reference));
}

TEST(SageDecoderInfo, StreamSizesAndWorkingSet)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const MemorySource source(archive.bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(source));
    const ArchiveInfo &info = decoder->info();
    EXPECT_EQ(info.params.numReads, ds.readSet.reads.size());
    EXPECT_GT(info.dnaStreamBytes(), 0u);
    EXPECT_LE(info.dnaStreamBytes(), archive.bytes.size());
    // SW working set ~ consensus; tiny relative to Spring-class tools.
    EXPECT_LT(decoder->workingSetBytes(),
              ds.reference.size() + 4096);
}

TEST(SageStreaming, NextYieldsSameAsDecodeAll)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    const MemorySource source(archive.bytes);
    SageReader a(source), b(source);
    const ReadSet all = b.decodeAll();
    size_t i = 0;
    while (a.hasNext()) {
        const Read read = a.next();
        ASSERT_LT(i, all.reads.size());
        EXPECT_EQ(read.bases, all.reads[i].bases);
        i++;
    }
    EXPECT_EQ(i, all.reads.size());
}

TEST(SageStreaming, DecodeAllAfterNextKeepsOriginalOrder)
{
    // Reads taken through next() leave decodeAll() the rest, in their
    // original relative order. 600 takes cross a chunk boundary.
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 512;
    config.preserveOrder = true;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    for (size_t takes : {size_t(1), size_t(600)}) {
        SCOPED_TRACE(takes);
        SageReader reader(source);
        std::set<std::string> taken;
        for (size_t i = 0; i < takes; i++)
            taken.insert(reader.next().header);
        const ReadSet rest = reader.decodeAll();
        EXPECT_FALSE(reader.hasNext());

        std::vector<const Read *> expected;
        for (const Read &read : ds.readSet.reads) {
            if (taken.count(read.header) == 0)
                expected.push_back(&read);
        }
        ASSERT_EQ(taken.size(), takes);
        ASSERT_EQ(rest.reads.size(), expected.size());
        for (size_t i = 0; i < expected.size(); i++) {
            EXPECT_EQ(rest.reads[i].header, expected[i]->header);
            EXPECT_EQ(rest.reads[i].bases, expected[i]->bases);
            EXPECT_EQ(rest.reads[i].quals, expected[i]->quals);
        }
    }
}

} // namespace
} // namespace sage
