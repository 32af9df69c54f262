/**
 * @file
 * Tests for the compression substrate: gpzip (general-purpose baseline),
 * the range coder, the quality codec, the stream bundle and the
 * SpringLike genomic baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compress/gpzip.hh"
#include "compress/quality.hh"
#include "compress/range_coder.hh"
#include "compress/springlike.hh"
#include "compress/streams.hh"
#include "genomics/fastq.hh"
#include "simgen/synthesize.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

std::vector<uint8_t>
randomBytes(Rng &rng, size_t n)
{
    std::vector<uint8_t> data(n);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    return data;
}

// ---------------------------------------------------------------------
// gpzip
// ---------------------------------------------------------------------

/** gpzip::tryDecompress's bytes; a failed Status fails the test. */
std::vector<uint8_t>
decompressed(const std::vector<uint8_t> &archive, ThreadPool *pool = nullptr)
{
    StatusOr<std::vector<uint8_t>> out = gpzip::tryDecompress(archive, pool);
    EXPECT_TRUE(out.ok()) << out.status().toString();
    return out.ok() ? std::move(out.value()) : std::vector<uint8_t>{};
}

TEST(Gpzip, RoundTripText)
{
    const std::string text =
        "the quick brown fox jumps over the lazy dog. "
        "the quick brown fox jumps over the lazy dog again and again.";
    const auto archive = gpzip::compress(text);
    const auto back = decompressed(archive);
    EXPECT_EQ(std::string(back.begin(), back.end()), text);
}

TEST(Gpzip, RoundTripEmpty)
{
    const auto archive = gpzip::compress(std::string_view(""));
    const auto back = decompressed(archive);
    EXPECT_TRUE(back.empty());
}

TEST(Gpzip, RoundTripRandom)
{
    Rng rng(42);
    const auto data = randomBytes(rng, 100000);
    const auto archive = gpzip::compress(data.data(), data.size());
    EXPECT_EQ(decompressed(archive), data);
}

TEST(Gpzip, RoundTripHighlyRepetitive)
{
    std::string text;
    for (int i = 0; i < 5000; i++)
        text += "ABCDEFGH";
    const auto archive = gpzip::compress(text);
    // Strong compression expected on pure repetition.
    EXPECT_LT(archive.size(), text.size() / 20);
    const auto back = decompressed(archive);
    EXPECT_EQ(std::string(back.begin(), back.end()), text);
}

TEST(Gpzip, RoundTripAllByteValues)
{
    std::vector<uint8_t> data;
    for (int rep = 0; rep < 10; rep++)
        for (int b = 0; b < 256; b++)
            data.push_back(static_cast<uint8_t>(b));
    const auto archive = gpzip::compress(data.data(), data.size());
    EXPECT_EQ(decompressed(archive), data);
}

TEST(Gpzip, MultiBlockParallelRoundTrip)
{
    Rng rng(43);
    // Compressible multi-block payload.
    std::vector<uint8_t> data;
    for (int i = 0; i < 400000; i++)
        data.push_back(static_cast<uint8_t>(rng.nextBelow(8)));
    gpzip::Config config;
    config.blockSize = 64 << 10;
    ThreadPool pool(4);
    const auto archive = gpzip::compress(data.data(), data.size(),
                                         config, &pool);
    EXPECT_EQ(decompressed(archive, &pool), data);
    // Parallel and serial containers decode identically.
    EXPECT_EQ(decompressed(archive), data);
}

TEST(Gpzip, CorruptionDetected)
{
    const std::string text = "some data worth protecting, repeated "
                             "some data worth protecting";
    auto archive = gpzip::compress(text);
    archive[archive.size() / 2] ^= 0x40;
    EXPECT_FALSE(gpzip::tryDecompress(archive).ok());
}

TEST(GpzipOnPool, CorruptBlockIsAStatus)
{
    // A pool worker's decode error comes back through parallelFor to
    // the caller, and from there as the Status.
    Rng rng(44);
    std::vector<uint8_t> data;
    for (int i = 0; i < 300000; i++)
        data.push_back(static_cast<uint8_t>(rng.nextBelow(8)));
    gpzip::Config config;
    config.blockSize = 64 << 10;
    auto archive = gpzip::compress(data.data(), data.size(), config);
    archive[archive.size() / 2] ^= 0x40;
    ThreadPool pool(4);
    const StatusOr<std::vector<uint8_t>> out =
        gpzip::tryDecompress(archive, &pool);
    ASSERT_FALSE(out.ok());
    EXPECT_TRUE(out.status().code() == StatusCode::Corrupt ||
                out.status().code() == StatusCode::Truncated)
        << out.status().toString();
}

TEST(Gpzip, BlockOver16MiBRoundTrips)
{
    // Block sizes are not capped, and the parser's chain links cover
    // every position of a block of any size.
    Rng rng(45);
    std::vector<uint8_t> data =
        randomBytes(rng, (size_t{16} << 20) + (64 << 10));
    // The last 4 KiB repeat bytes 8 KiB earlier: a match past 16 MiB.
    std::copy(data.end() - 12288, data.end() - 8192, data.end() - 4096);
    gpzip::Config config;
    config.blockSize = data.size();
    const auto archive = gpzip::compress(data.data(), data.size(), config);
    EXPECT_EQ(decompressed(archive), data);
}

TEST(Gpzip, GenomicTextCompresses)
{
    // DNA-like text: ~2-6x is the general-compressor band the paper
    // reports for this class of tools (§2.2).
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const std::string fastq = toFastq(ds.readSet);
    const auto archive = gpzip::compress(fastq);
    const double ratio =
        static_cast<double>(fastq.size()) / archive.size();
    // General-purpose band (paper §2.2: ~2-6x on real data; synthetic
    // headers/qualities compress a bit better).
    EXPECT_GT(ratio, 2.0);
    EXPECT_LT(ratio, 15.0);
}

// ---------------------------------------------------------------------
// Range coder
// ---------------------------------------------------------------------

TEST(RangeCoder, AdaptiveModelRoundTrip)
{
    Rng rng(9);
    std::vector<unsigned> symbols;
    for (int i = 0; i < 50000; i++)
        symbols.push_back(static_cast<unsigned>(
            rng.nextWeighted({80, 10, 6, 3, 1})));

    RangeEncoder enc;
    AdaptiveModel enc_model(5);
    for (unsigned s : symbols)
        enc_model.encode(enc, s);
    const auto bytes = enc.finish();

    RangeDecoder dec(bytes.data(), bytes.size());
    AdaptiveModel dec_model(5);
    for (unsigned s : symbols)
        ASSERT_EQ(dec_model.decode(dec), s);
}

TEST(RangeCoder, SkewedStreamBeatsOneBytePerSymbol)
{
    Rng rng(10);
    RangeEncoder enc;
    AdaptiveModel model(4);
    const int n = 100000;
    for (int i = 0; i < n; i++)
        model.encode(enc, rng.nextBool(0.95) ? 0 : 1 + rng.nextBelow(3));
    const auto bytes = enc.finish();
    EXPECT_LT(bytes.size(), static_cast<size_t>(n) / 8)
        << "strongly skewed stream should cost well under 1 bit/symbol";
}

// ---------------------------------------------------------------------
// Quality codec
// ---------------------------------------------------------------------

std::vector<std::string>
makeQualStrings(size_t reads, size_t len, unsigned levels, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> quals;
    for (size_t r = 0; r < reads; r++) {
        std::string q;
        char cur = 'I';
        for (size_t i = 0; i < len; i++) {
            if (rng.nextBool(0.05))
                cur = static_cast<char>('I' - rng.nextBelow(levels));
            q.push_back(cur);
        }
        quals.push_back(std::move(q));
    }
    return quals;
}

TEST(Quality, RoundTrip)
{
    const auto quals = makeQualStrings(500, 150, 6, 77);
    const QualityArchive archive = compressQuality(quals);
    EXPECT_EQ(decompressQuality(archive), quals);
}

TEST(Quality, RoundTripVariableLengths)
{
    Rng rng(78);
    std::vector<std::string> quals;
    for (int r = 0; r < 300; r++) {
        std::string q;
        const size_t len = 1 + rng.nextBelow(500);
        for (size_t i = 0; i < len; i++)
            q.push_back(static_cast<char>('!' + rng.nextBelow(40)));
        quals.push_back(std::move(q));
    }
    const QualityArchive archive = compressQuality(quals);
    EXPECT_EQ(decompressQuality(archive), quals);
}

TEST(Quality, EmptyInput)
{
    const QualityArchive archive = compressQuality(std::vector<std::string>{});
    EXPECT_TRUE(decompressQuality(archive).empty());
}

TEST(Quality, BlockRandomAccessMatchesFullDecode)
{
    const auto quals = makeQualStrings(2000, 150, 6, 79);
    QualityConfig config;
    config.blockChars = 40000; // Force several blocks.
    const QualityArchive archive = compressQuality(quals, config);
    ASSERT_GT(archive.blocks.size(), 2u);

    std::string flat_full;
    for (const auto &q : decompressQuality(archive))
        flat_full += q;
    std::string flat_blocks;
    for (size_t b = 0; b < archive.blocks.size(); b++)
        flat_blocks += decompressQualityBlock(archive, b);
    EXPECT_EQ(flat_blocks, flat_full);
}

TEST(Quality, BlocksOnPoolMatchSerial)
{
    const auto quals = makeQualStrings(2000, 150, 6, 81);
    QualityConfig config;
    config.blockChars = 40000; // Several blocks to spread over the pool.
    ThreadPool pool(4);
    const QualityArchive serial = compressQuality(quals, config);
    const QualityArchive pooled = compressQuality(quals, config, &pool);
    ASSERT_GT(serial.blocks.size(), 4u);
    EXPECT_EQ(packQuality(pooled), packQuality(serial));
    EXPECT_EQ(decompressQuality(pooled), quals);
}

TEST(Quality, AlphabetSymbolFirstSeenInLastRead)
{
    // '~' first appears in the last read, in the last block, past
    // blocks that add no symbol: the first-appearance scan must reach
    // it, and the alphabet stays in order of first appearance.
    const std::vector<std::string> quals = {"IIIII#II", "", "#I#II", "IIII",
                                            "II5I", "", "I#I~"};
    QualityConfig config;
    config.blockChars = 5;
    const QualityArchive serial = compressQuality(quals, config);
    EXPECT_EQ(serial.alphabet, "I#5~");
    ThreadPool pool(3);
    EXPECT_EQ(packQuality(compressQuality(quals, config, &pool)),
              packQuality(serial));
    EXPECT_EQ(decompressQuality(serial), quals);
    const std::vector<uint8_t> pinned = {
        0x04, 0x49, 0x23, 0x35, 0x7e, 0x07, 0x08, 0x00, 0x05, 0x04, 0x04,
        0x00, 0x04, 0x05, 0x05, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
        0x05, 0x00, 0x40, 0x1c, 0x71, 0xc6, 0x05, 0x06, 0x00, 0x3f, 0xff,
        0xff, 0xff, 0x00, 0x05, 0x06, 0x00, 0x35, 0x92, 0x67, 0x26, 0x00,
        0x05, 0x06, 0x00, 0x38, 0x3d, 0x7d, 0x45, 0x40};
    EXPECT_EQ(packQuality(serial), pinned);
}

TEST(Quality, CompressesBinnedScoresWell)
{
    const auto quals = makeQualStrings(2000, 150, 4, 80);
    const QualityArchive archive = compressQuality(quals);
    const double ratio = static_cast<double>(archive.totalChars())
        / static_cast<double>(archive.compressedBytes());
    // Paper Table 2 band for short-read quality: ~2.8-5.
    EXPECT_GT(ratio, 2.0);
}

// ---------------------------------------------------------------------
// Stream bundle
// ---------------------------------------------------------------------

TEST(StreamBundle, RoundTrip)
{
    StreamBundle bundle;
    bundle.stream("alpha") = {1, 2, 3};
    bundle.stream("beta") = {};
    bundle.stream("gamma") = std::vector<uint8_t>(1000, 0xaa);
    const auto bytes = bundle.serialize();
    const StreamBundle back = StreamBundle::deserialize(bytes);
    EXPECT_EQ(back.stream("alpha"), bundle.stream("alpha"));
    EXPECT_EQ(back.stream("beta"), bundle.stream("beta"));
    EXPECT_EQ(back.stream("gamma"), bundle.stream("gamma"));
    EXPECT_EQ(back.totalBytes(), bundle.totalBytes());
}

TEST(StreamBundle, CorruptionDetected)
{
    StreamBundle bundle;
    bundle.stream("data") = std::vector<uint8_t>(100, 7);
    auto bytes = bundle.serialize();
    bytes[10] ^= 1;
    EXPECT_DEATH(
        { auto b = StreamBundle::deserialize(bytes); (void)b; }, ".*");
}

// ---------------------------------------------------------------------
// SpringLike
// ---------------------------------------------------------------------

std::multiset<std::pair<std::string, std::string>>
recordSet(const ReadSet &rs)
{
    std::multiset<std::pair<std::string, std::string>> set;
    for (const auto &read : rs.reads)
        set.emplace(read.bases, read.quals);
    return set;
}

TEST(SpringLike, ShortReadRoundTrip)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    const auto back = springlike::decompress(result.archive);
    EXPECT_EQ(recordSet(back.readSet), recordSet(ds.readSet));
}

TEST(SpringLike, LongReadRoundTrip)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(true));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    const auto back = springlike::decompress(result.archive);
    EXPECT_EQ(recordSet(back.readSet), recordSet(ds.readSet));
}

TEST(SpringLike, PreserveOrderExact)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    springlike::Config config;
    config.preserveOrder = true;
    const auto result =
        springlike::compress(ds.readSet, ds.reference, config);
    const auto back = springlike::decompress(result.archive);
    ASSERT_EQ(back.readSet.reads.size(), ds.readSet.reads.size());
    for (size_t i = 0; i < back.readSet.reads.size(); i++)
        EXPECT_EQ(back.readSet.reads[i].bases,
                  ds.readSet.reads[i].bases);
}

TEST(SpringLike, BeatsGpzipOnDna)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0;
    const SimulatedDataset ds = synthesizeDataset(spec);
    const auto spring = springlike::compress(ds.readSet, ds.reference);

    std::string dna;
    for (const auto &read : ds.readSet.reads) {
        dna += read.bases;
        dna.push_back('\n');
    }
    const auto gp = gpzip::compress(dna);
    EXPECT_LT(spring.dnaBytes, gp.size())
        << "genomic compressor must beat the general-purpose one "
           "(paper §2.2)";
}

TEST(SpringLike, ReportsTimingSplit)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    EXPECT_GT(result.mapSeconds, 0.0);
    EXPECT_GT(result.encodeSeconds, 0.0);
    EXPECT_GT(result.streamSizes.size(), 5u);
}

TEST(SpringLike, WorkingSetLargerThanConsensus)
{
    // The decode working set includes backend streams — this is the
    // resource-heaviness property the paper attributes to (N)Spr.
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto result = springlike::compress(ds.readSet, ds.reference);
    const auto back = springlike::decompress(result.archive);
    EXPECT_GT(back.workingSetBytes, ds.reference.size());
}

} // namespace
} // namespace sage
