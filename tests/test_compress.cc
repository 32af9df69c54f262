/**
 * @file
 * Tests for the compression substrate: gpzip (general-purpose baseline),
 * the range coder, the quality codec, the stream bundle and the
 * SpringLike genomic baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "compress/gpzip.hh"
#include "compress/headers.hh"
#include "compress/quality.hh"
#include "compress/range_coder.hh"
#include "compress/springlike.hh"
#include "compress/streams.hh"
#include "genomics/fastq.hh"
#include "simgen/synthesize.hh"
#include "util/rng.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"
#include "util/varint.hh"

#include "range_encoder.hh"

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

/** @p archive (one block) re-framed to declare @p declared decoded
 *  bytes in a block of that size; the coded block and CRC are kept. */
std::vector<uint8_t>
redeclared(const std::vector<uint8_t> &archive, uint64_t declared)
{
    size_t pos = 4;
    getVarint(archive.data(), archive.size(), pos);  // Decoded size.
    getVarint(archive.data(), archive.size(), pos);  // Block size.
    EXPECT_EQ(getVarint(archive.data(), archive.size(), pos), 1u);
    const uint64_t coded = getVarint(archive.data(), archive.size(), pos);
    std::vector<uint8_t> out(archive.begin(), archive.begin() + 4);
    putVarint(out, declared);
    putVarint(out, declared);
    putVarint(out, 1);
    putVarint(out, coded);
    out.insert(out.end(), archive.begin() + static_cast<ptrdiff_t>(pos),
               archive.end());
    return out;
}

TEST(Gpzip, BlockDecodingPastItsDeclaredSizeIsCorrupt)
{
    // Long runs code a 259-byte match in a few bits; a block that
    // decodes past the size its container declares stops there.
    const std::string text(100000, 'A');
    const auto archive = gpzip::compress(text);
    const StatusOr<std::vector<uint8_t>> out =
        gpzip::tryDecompress(redeclared(archive, 1000));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::Corrupt)
        << out.status().toString();
    EXPECT_NE(out.status().toString().find("past its 1000 declared"),
              std::string::npos)
        << out.status().toString();
    EXPECT_EQ(decompressed(redeclared(archive, text.size())),
              std::vector<uint8_t>(text.begin(), text.end()));
}

TEST(Gpzip, DeclaredSizeBeyondTheCodedBitsIsCorrupt)
{
    // No block can yield more than 259 bytes per coded bit, so a
    // header declaring more is rejected before anything is allocated.
    const auto archive = gpzip::compress(std::string(5000, 'C'));
    const StatusOr<std::vector<uint8_t>> out =
        gpzip::tryDecompress(redeclared(archive, uint64_t{1} << 40));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::Corrupt)
        << out.status().toString();
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
        encodeAdaptive(enc, enc_model, s);
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
        encodeAdaptive(enc, model,
                       rng.nextBool(0.95) ? 0 : 1 + rng.nextBelow(3));
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
    // Five-character blocks: one lane each, and every block carries
    // its tables (codec byte 1, then contexts and frequencies).
    // Five-character blocks: one lane each, and every block carries
    // its tables (codec byte 1, then contexts and frequencies).
    const std::vector<uint8_t> pinned = {
        0x04, 0x49, 0x23, 0x35, 0x7e, 0x07, 0x08, 0x00, 0x05, 0x04, 0x04,
        0x00, 0x04, 0x05, 0x05, 0x0d, 0x01, 0x01, 0x00, 0x02, 0x00, 0xff,
        0x1f, 0x00, 0x01, 0x06, 0x28, 0x80, 0x00, 0x05, 0x1b, 0x01, 0x03,
        0x00, 0x02, 0x00, 0x01, 0x00, 0xff, 0x1f, 0x00, 0x02, 0x00, 0xff,
        0x1f, 0x00, 0x01, 0x02, 0x02, 0x00, 0xff, 0x1f, 0x00, 0x01, 0x08,
        0x28, 0x80, 0x00, 0x05, 0x1c, 0x01, 0x03, 0x00, 0x02, 0x00, 0xab,
        0x15, 0x00, 0xd5, 0x0a, 0x00, 0x02, 0x00, 0xff, 0x1f, 0x00, 0x01,
        0x02, 0x02, 0x00, 0xff, 0x1f, 0x00, 0x01, 0x02, 0x5c, 0x60, 0x03,
        0x05, 0x0e, 0x01, 0x01, 0x00, 0x02, 0x00, 0xcd, 0x19, 0x01, 0xb3,
        0x06, 0xbe, 0x84, 0x1a, 0x06, 0x05, 0x1c, 0x01, 0x03, 0x00, 0x02,
        0x00, 0xab, 0x15, 0x00, 0xd5, 0x0a, 0x00, 0x02, 0x00, 0x01, 0x02,
        0xff, 0x1f, 0x02, 0x02, 0x00, 0xff, 0x1f, 0x00, 0x01, 0xaa, 0x74,
        0x60, 0x03};
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

/** One block holding @p chars, over the alphabet of first appearance. */
QualityArchive
oneBlock(const std::string &chars)
{
    QualityConfig config;
    config.blockChars = std::max<uint64_t>(1, chars.size());
    QualityArchive archive =
        compressQuality(std::vector<std::string>{chars}, config);
    EXPECT_EQ(archive.blocks.size(), 1u);
    return archive;
}

/** The StatusCode of decoding block 0 of @p archive; Ok when it
 *  decodes to @p want. */
StatusCode
blockStatus(const QualityArchive &archive, const std::string &want)
{
    try {
        const std::string got = decompressQualityBlock(archive, 0);
        EXPECT_EQ(got, want);
        return StatusCode::Ok;
    } catch (const StatusError &err) {
        return err.status().code();
    }
}

TEST(Quality, RoundTripAtEveryLaneCount)
{
    // One lane per 4096 characters, up to eight; the last lane also
    // takes the characters the others leave over.
    const auto quals = makeQualStrings(800, 150, 6, 82);
    std::string flat;
    for (const auto &q : quals)
        flat += q;
    for (size_t chars : {1, 2, 4095, 4096, 8191, 8192, 12289, 32767, 32768,
                         32775, 100003}) {
        SCOPED_TRACE(chars);
        const std::string block = flat.substr(0, chars);
        const QualityArchive archive = oneBlock(block);
        ASSERT_EQ(archive.blocks[0][0], 1) << "codec byte";
        EXPECT_EQ(decompressQualityBlock(archive, 0), block);
    }
}

TEST(Quality, RoundTripOverAlphabetsOfOneAndOfEveryByte)
{
    // One symbol: every context is certain, so the lanes never move
    // and the block is its tables and states.
    const std::string same(50000, 'I');
    const QualityArchive constant = oneBlock(same);
    EXPECT_EQ(decompressQualityBlock(constant, 0), same);
    EXPECT_LT(constant.blocks[0].size(), 64u);

    Rng rng(83);
    std::string bytes;
    for (unsigned c = 0; c < 256; c++)
        bytes.push_back(static_cast<char>(c));
    for (int i = 0; i < 60000; i++)
        bytes.push_back(static_cast<char>(rng.nextBelow(256)));
    const QualityArchive every = oneBlock(bytes);
    EXPECT_EQ(every.alphabet.size(), 256u);
    EXPECT_EQ(decompressQualityBlock(every, 0), bytes);
}

TEST(Quality, BlocksEndAtChunkBoundaries)
{
    // 40 reads of 150 characters per chunk: 6000 characters, cut into
    // 4096-character blocks. No block holds characters of two chunks,
    // and a block starts at each chunk's first character.
    const auto quals = makeQualStrings(1000, 150, 6, 84);
    QualityConfig config;
    config.blockChars = 4096;
    QualityEncoder encoder(
        std::vector<std::string_view>(quals.begin(), quals.end()), config,
        nullptr, 40);
    for (size_t b = 0; b < encoder.blockCount(); b++)
        encoder.encodeBlock(b);
    const QualityArchive archive = encoder.take();
    std::set<uint64_t> starts;
    uint64_t at = 0;
    for (uint64_t chars : archive.blockChars) {
        EXPECT_LE(chars, config.blockChars);
        starts.insert(at);
        const uint64_t chunk = at / 6000;
        EXPECT_LE(at + chars, (chunk + 1) * 6000) << "block at " << at;
        at += chars;
    }
    for (uint64_t chunk = 0; chunk < 25; chunk++)
        EXPECT_EQ(starts.count(chunk * 6000), 1u) << "chunk " << chunk;
    EXPECT_EQ(archive.blocks.size(), 50u);
    EXPECT_EQ(decompressQuality(archive), quals);

    // Chunks shorter than an eighth of a block share one instead of
    // each carrying its tables: with 600-character chunks, a block ends
    // at the first chunk boundary past 5000 characters, after nine.
    config.blockChars = 40000;
    QualityEncoder shared(
        std::vector<std::string_view>(quals.begin(), quals.end()), config,
        nullptr, 4);
    EXPECT_EQ(shared.blockCount(), 28u);
}

TEST(Quality, DamagedRansBlocksAreCaught)
{
    // About a thousand single-bit flips spread past the codec byte of
    // an eight-lane block: each fails with Corrupt or Truncated, the
    // tables' checks catching some and the lane end check the rest; none
    // decodes to other characters.
    const auto quals = makeQualStrings(230, 150, 6, 85);
    std::string flat;
    for (const auto &q : quals)
        flat += q;
    const QualityArchive archive = oneBlock(flat);
    const std::vector<uint8_t> &payload = archive.blocks[0];
    ASSERT_GT(payload.size(), 100u);
    const size_t stride = std::max<size_t>(1, payload.size() * 8 / 1000);
    size_t caught = 0, silent = 0;
    for (size_t bit = 8; bit < payload.size() * 8; bit += stride) {
        QualityArchive damaged = archive;
        damaged.blocks[0][bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        try {
            silent += decompressQualityBlock(damaged, 0) != flat;
        } catch (const StatusError &err) {
            const StatusCode code = err.status().code();
            EXPECT_TRUE(code == StatusCode::Corrupt ||
                        code == StatusCode::Truncated)
                << err.status().toString();
            caught++;
        }
    }
    EXPECT_GT(caught, 0u);
    EXPECT_EQ(silent, 0u) << "flips decoded to other characters";
}

TEST(Quality, ShortPayloadsAreTruncatedInBothCodecs)
{
    const auto quals = makeQualStrings(100, 150, 6, 86);
    std::string flat;
    for (const auto &q : quals)
        flat += q;
    QualityArchive rans = oneBlock(flat);
    QualityArchive range = rans;
    range.blocks[0] = encodeRangeBlock(range.alphabet, flat);
    ASSERT_EQ(range.blocks[0][0], 0) << "a range-coded block starts at 0";
    EXPECT_EQ(decompressQualityBlock(range, 0), flat);
    for (QualityArchive *archive : {&rans, &range}) {
        const std::vector<uint8_t> whole = archive->blocks[0];
        for (size_t keep = 0; keep < whole.size(); keep++) {
            archive->blocks[0].assign(whole.begin(), whole.begin() + keep);
            EXPECT_EQ(blockStatus(*archive, flat), StatusCode::Truncated)
                << "codec " << unsigned(whole[0]) << ", " << keep << " of "
                << whole.size() << " bytes";
        }
    }
    // A count the payload cannot hold fails before its output exists.
    // (Past 32768 characters the lane count stays at eight, so only
    // the count changes.)
    const auto more = makeQualStrings(300, 150, 6, 88);
    std::string longer;
    for (const auto &q : more)
        longer += q;
    QualityArchive eight = oneBlock(longer);
    EXPECT_EQ(blockStatus(eight, longer), StatusCode::Ok);
    eight.blockChars[0] = uint64_t{1} << 40;
    EXPECT_EQ(blockStatus(eight, longer), StatusCode::Truncated);
}

TEST(Quality, MalformedRansTablesAreCorrupt)
{
    // Alphabet "I#": codec 1, one context (0) with its symbols as gaps
    // and frequencies, then one lane state of 2^23 and no bytes.
    QualityArchive archive = oneBlock("I#");
    const std::vector<uint8_t> state = {0x00, 0x00, 0x80, 0x00};
    auto with_tables = [&](std::vector<uint8_t> tables) {
        tables.insert(tables.end(), state.begin(), state.end());
        archive.blocks[0] = std::move(tables);
        archive.blockChars[0] = 0;
        return blockStatus(archive, "");
    };
    // Two symbols of 2048 each: a valid table.
    EXPECT_EQ(with_tables({1, 1, 0, 2, 0, 0x80, 0x10, 0, 0x80, 0x10}),
              StatusCode::Ok);
    // Frequencies that sum to 4095, or past 4096.
    EXPECT_EQ(with_tables({1, 1, 0, 2, 0, 0x80, 0x10, 0, 0xff, 0x0f}),
              StatusCode::Corrupt);
    EXPECT_EQ(with_tables({1, 1, 0, 2, 0, 0x80, 0x10, 0, 0x81, 0x10}),
              StatusCode::Corrupt);
    // A symbol outside the two-symbol alphabet, a context outside its
    // eight, a zero frequency, more contexts than the alphabet has.
    EXPECT_EQ(with_tables({1, 1, 0, 2, 0, 0x80, 0x10, 1, 0x80, 0x10}),
              StatusCode::Corrupt);
    EXPECT_EQ(with_tables({1, 1, 8, 1, 0, 0x80, 0x20}), StatusCode::Corrupt);
    EXPECT_EQ(with_tables({1, 1, 0, 2, 0, 0, 0, 0x80, 0x20}),
              StatusCode::Corrupt);
    EXPECT_EQ(with_tables({1, 9}), StatusCode::Corrupt);
    // A lane state outside [2^23, 2^31), and an unknown codec.
    archive.blocks[0] = {1, 0, 0xff, 0xff, 0x7f, 0x00};
    EXPECT_EQ(blockStatus(archive, ""), StatusCode::Corrupt);
    archive.blocks[0] = {2, 0, 0x00, 0x00, 0x80, 0x00};
    EXPECT_EQ(blockStatus(archive, ""), StatusCode::Corrupt);
    // Characters in a context the block stores no table for.
    archive.blocks[0] = {1, 0, 0x00, 0x00, 0x80, 0x00};
    archive.blockChars[0] = 3;
    EXPECT_EQ(blockStatus(archive, "III"), StatusCode::Corrupt);
}

TEST(Quality, RangeCodedBlocksStillDecode)
{
    // Blocks of the adaptive coder that wrote every archive before the
    // rANS codec, next to rANS blocks in the same archive.
    const auto quals = makeQualStrings(600, 150, 6, 87);
    QualityConfig config;
    config.blockChars = 30000;
    QualityArchive archive = compressQuality(quals, config);
    ASSERT_GT(archive.blocks.size(), 2u);
    const std::vector<std::string> blocks = [&] {
        std::vector<std::string> out;
        for (size_t b = 0; b < archive.blocks.size(); b++)
            out.push_back(decompressQualityBlock(archive, b));
        return out;
    }();
    for (size_t b = 0; b < archive.blocks.size(); b += 2)
        archive.blocks[b] = encodeRangeBlock(archive.alphabet, blocks[b]);
    EXPECT_EQ(decompressQuality(archive), quals);
    // The store reads the same blocks as one chunk of every read, each
    // read's characters following the last's.
    const QualityStore store(packQuality(archive), {quals.size()});
    uint64_t at = 0;
    for (size_t r = 0; r < quals.size(); r++) {
        std::string got;
        store.append(at, quals[r].size(), got);
        at += quals[r].size();
        ASSERT_EQ(got, quals[r]) << "read " << r;
    }
}

/** The StatusCode @p fn throws, or Ok. */
template <typename Fn>
StatusCode
thrownCode(const Fn &fn)
{
    try {
        fn();
        return StatusCode::Ok;
    } catch (const StatusError &err) {
        return err.status().code();
    }
}

TEST(QualityFraming, PerChunkRowsRoundTrip)
{
    // Three chunks of four reads: every read with quality, none, and
    // reads 1 and 3 only. Rows carry counts and presence, not lengths:
    // a read takes its bases' worth of characters from where the
    // chunk's reads before it end.
    std::vector<std::string> quals = {"IIII", "I#I#", "##", "I",
                                      "", "", "", "",
                                      "", "#I#", "", "I#"};
    QualityEncoder encoder(
        std::vector<std::string_view>(quals.begin(), quals.end()), {},
        nullptr, 4);
    for (size_t b = 0; b < encoder.blockCount(); b++)
        encoder.encodeBlock(b);
    const std::vector<uint8_t> bytes = packChunkedQuality(encoder.take());
    ASSERT_EQ(bytes[0], 0);
    const QualityArchive back = unpackQuality(bytes);
    EXPECT_TRUE(back.readLengths.empty());
    ASSERT_EQ(back.chunks.size(), 3u);
    EXPECT_EQ(back.chunks[0].presence, QualityPresence::All);
    EXPECT_EQ(back.chunks[0].chars, 11u);
    EXPECT_EQ(back.chunks[1].presence, QualityPresence::None);
    EXPECT_EQ(back.chunks[2].presence, QualityPresence::Some);
    EXPECT_EQ(back.chunks[2].reads, 4u);
    EXPECT_EQ(back.chunks[2].mask, std::vector<uint8_t>{0x0a});
    EXPECT_EQ(back.chunks[2].chars, 5u);

    const QualityStore store(bytes, {4, 4, 4});
    for (size_t c = 0; c < 3; c++) {
        const ChunkQuality chunk = store.chunk(c);
        EXPECT_EQ(chunk.lengths, nullptr);
        uint64_t at = chunk.start;
        for (size_t i = 0; i < 4; i++) {
            const std::string &want = quals[c * 4 + i];
            ASSERT_EQ(chunk.has(i), !want.empty()) << c << ", " << i;
            std::string got;
            if (chunk.has(i))
                store.append(at, want.size(), got);
            at += got.size();
            EXPECT_EQ(got, want) << c << ", " << i;
        }
        EXPECT_EQ(at, chunk.start + chunk.chars);
    }
    // The per-read framing of the same reads gives the same rows, and
    // keeps the stored lengths for the decoder to check.
    QualityEncoder again(
        std::vector<std::string_view>(quals.begin(), quals.end()), {},
        nullptr, 4);
    for (size_t b = 0; b < again.blockCount(); b++)
        again.encodeBlock(b);
    const QualityStore legacy(packQuality(again.take()), {4, 4, 4});
    for (size_t c = 0; c < 3; c++) {
        const ChunkQuality chunk = legacy.chunk(c);
        const ChunkQuality want = store.chunk(c);
        EXPECT_EQ(chunk.start, want.start);
        EXPECT_EQ(chunk.chars, want.chars);
        EXPECT_EQ(chunk.presence, want.presence);
        ASSERT_NE(chunk.lengths, nullptr);
        EXPECT_EQ(chunk.lengths[1], quals[c * 4 + 1].size());
    }
}

TEST(QualityFraming, MalformedRowsAreRefused)
{
    const std::vector<std::string> quals(8, "I#");
    QualityEncoder encoder(
        std::vector<std::string_view>(quals.begin(), quals.end()), {},
        nullptr, 4);
    encoder.encodeBlock(0);
    const QualityArchive archive = encoder.take();
    const std::vector<uint8_t> bytes = packChunkedQuality(archive);
    // Row 0 follows the 0 byte, the alphabet (a count and two
    // characters) and the row count: its count's change from 0 (8,
    // zigzag 16) beside its presence (All). Row 1's count repeats.
    ASSERT_EQ(bytes[4], 2);
    ASSERT_EQ(bytes[5], 16 << 2 | 1);
    ASSERT_EQ(bytes[6], 1);
    const auto unpacked = [&](std::vector<uint8_t> edited) {
        return thrownCode([&] { (void)unpackQuality(edited); });
    };
    std::vector<uint8_t> edited = bytes;
    edited[5] = 16 << 2 | 3;  // Presence 3.
    EXPECT_EQ(unpacked(edited), StatusCode::Corrupt);
    edited[5] = 16 << 2 | 0;  // No read with quality, and 8 characters.
    EXPECT_EQ(unpacked(edited), StatusCode::Corrupt);
    edited[5] = 1 << 2 | 1;   // A count of -1.
    EXPECT_EQ(unpacked(edited), StatusCode::Corrupt);
    edited = bytes;
    edited.resize(6);
    EXPECT_EQ(unpacked(edited), StatusCode::Truncated);

    const auto indexed = [&](const QualityArchive &a,
                             std::vector<uint64_t> chunks) {
        return thrownCode([&] {
            QualityStore store(a.readLengths.empty() ? packChunkedQuality(a)
                                                     : packQuality(a),
                               chunks);
        });
    };
    const QualityArchive rows = unpackQuality(bytes);
    EXPECT_EQ(indexed(rows, {4, 4}), StatusCode::Ok);
    EXPECT_EQ(indexed(rows, {4, 4, 0}), StatusCode::Corrupt);
    QualityArchive some = rows;
    some.chunks[1].presence = QualityPresence::Some;
    some.chunks[1].reads = 5;
    some.chunks[1].mask = {0x1f};
    EXPECT_EQ(indexed(some, {4, 4}), StatusCode::Corrupt);
    QualityArchive more = rows;
    more.chunks[1].chars++;
    EXPECT_EQ(indexed(more, {4, 4}), StatusCode::Corrupt);
    // The per-read framing must cover every read.
    QualityArchive per_read = unpackQuality(packQuality(archive));
    per_read.readLengths.pop_back();
    EXPECT_EQ(indexed(per_read, {4, 4}), StatusCode::Corrupt);
}

// ---------------------------------------------------------------------
// Header blocks
// ---------------------------------------------------------------------

/** @p n reads whose headers are @p bytes characters long. */
ReadSet
headerSet(size_t n, size_t bytes)
{
    ReadSet rs;
    for (size_t i = 0; i < n; i++) {
        Read read;
        read.header = std::to_string(i) + ":";
        read.header.resize(bytes, static_cast<char>('a' + i % 26));
        rs.reads.push_back(std::move(read));
    }
    return rs;
}

/** Stored order 0, 1, ..., @p n - 1. */
std::vector<uint32_t>
identityOrder(size_t n)
{
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    return order;
}

TEST(HeaderBlocks, EndAtChunkBoundariesPast32KiB)
{
    // Lines of 1000 bytes in chunks of 10: a block ends at the first
    // chunk boundary once it holds 32 KiB, so after 4 chunks.
    const ReadSet rs = headerSet(100, 999);
    const HeaderArchive archive =
        compressHeaderBlocks(rs, identityOrder(100), 10);
    EXPECT_EQ(archive.blockLines, (std::vector<uint64_t>{40, 40, 20}));
    const std::vector<uint8_t> bytes = packHeaders(archive);
    ASSERT_EQ(bytes[0], 0);
    const HeaderStore store(bytes, 100, std::vector<uint64_t>(10, 10));
    for (size_t c = 10; c-- > 0;) {
        const ChunkHeaders headers = store.chunk(c);
        for (size_t i = 0; i < 10; i++)
            ASSERT_EQ(headers[i], rs.reads[c * 10 + i].header);
        EXPECT_EQ(headers.bytes(10), 9990u);
    }
    // Without chunks, one block; an empty set, one empty block, and a
    // chunk of no reads needs no block.
    EXPECT_EQ(compressHeaderBlocks(rs, identityOrder(100), 0).blockLines,
              std::vector<uint64_t>{100});
    const HeaderArchive empty = compressHeaderBlocks(ReadSet{}, {}, 10);
    EXPECT_EQ(empty.blockLines, std::vector<uint64_t>{0});
    const HeaderStore none(packHeaders(empty), 0, {0});
    EXPECT_EQ(none.chunk(0).bytes(0), 0u);
}

TEST(HeaderBlocks, MalformedStreamsAreRefused)
{
    const ReadSet rs = headerSet(100, 999);
    const HeaderArchive archive =
        compressHeaderBlocks(rs, identityOrder(100), 10);
    const std::vector<uint8_t> bytes = packHeaders(archive);
    const auto unpacked = [](std::vector<uint8_t> edited, uint64_t reads) {
        return thrownCode([&] { (void)unpackHeaders(edited, reads); });
    };
    EXPECT_EQ(unpacked(bytes, 100), StatusCode::Ok);
    EXPECT_EQ(unpacked(bytes, 99), StatusCode::Corrupt);
    EXPECT_EQ(unpacked(bytes, 101), StatusCode::Corrupt);
    std::vector<uint8_t> edited = bytes;
    edited[0] = 7;  // No layout.
    EXPECT_EQ(unpacked(edited, 100), StatusCode::Corrupt);
    edited = bytes;
    edited.pop_back();
    EXPECT_EQ(unpacked(edited, 100), StatusCode::Truncated);
    edited = bytes;
    edited.push_back(0);
    EXPECT_EQ(unpacked(edited, 100), StatusCode::Corrupt);
    EXPECT_EQ(unpacked({}, 0), StatusCode::Truncated);

    // Chunks of 30 reads: chunk 1 holds lines 30..59, across the end
    // of block 0 at line 40.
    EXPECT_EQ(thrownCode([&] {
                  HeaderStore store(bytes, 100, {30, 30, 30, 10});
              }),
              StatusCode::Corrupt);

    // A block that decodes to a line fewer than its table says fails
    // the chunks it covers, on every use, and no other chunk.
    HeaderArchive short_block = archive;
    std::string text;
    for (size_t i = 40; i < 79; i++)
        text += rs.reads[i].header + "\n";
    short_block.blocks[1] = gpzip::compress(text);
    const HeaderStore store(packHeaders(short_block), 100,
                            std::vector<uint64_t>(10, 10));
    for (size_t c = 0; c < 10; c++) {
        for (int use = 0; use < 2; use++) {
            EXPECT_EQ(thrownCode([&] { (void)store.chunk(c); }),
                      c / 4 == 1 ? StatusCode::Corrupt : StatusCode::Ok)
                << "chunk " << c;
        }
    }
    // So does a block whose last line has no newline.
    text += rs.reads[79].header;
    short_block.blocks[1] = gpzip::compress(text);
    const HeaderStore unterminated(packHeaders(short_block), 100,
                                   std::vector<uint64_t>(10, 10));
    EXPECT_EQ(thrownCode([&] { (void)unterminated.chunk(5); }),
              StatusCode::Corrupt);

    // A stream written before header blocks, one bare gpzip container,
    // is one block of every line.
    std::string all;
    for (const Read &read : rs.reads)
        all += read.header + "\n";
    const std::vector<uint8_t> legacy = gpzip::compress(all);
    ASSERT_EQ(legacy[0], 'G');
    const HeaderArchive one = unpackHeaders(legacy, 100);
    EXPECT_EQ(one.blockLines, std::vector<uint64_t>{100});
    const HeaderStore old(legacy, 100, std::vector<uint64_t>(10, 10));
    EXPECT_EQ(old.chunk(7)[3], rs.reads[73].header);
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
