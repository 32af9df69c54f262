/**
 * @file
 * Robustness tests: deterministic fault injection
 * (io/fault_injection.hh), hardened parsing of corrupted archives
 * (SageDecoder::tryOpen over truncated and bit-flipped containers),
 * and graceful degradation in the service layer — a failed chunk
 * decode surfaces RequestStatus::Error to the affected request only,
 * never poisons the cache, and reconciles with the injected fault
 * counts. Runs under the ASan/UBSan preset in CI, which is what
 * turns "no crash" into "no crash and no leak".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "compress/gpzip.hh"
#include "compress/headers.hh"
#include "compress/quality.hh"
#include "compress/streams.hh"
#include "core/sage.hh"
#include "io/fault_injection.hh"
#include "simgen/synthesize.hh"
#include "util/crc32.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "util/varint.hh"

#include "corpus_file.hh"

namespace sage {
namespace {

/** A counting source that fails the first @p failures try-reads with
 *  IoError, then behaves: the shape of a transient disk hiccup. */
class FlakySource final : public ByteSource
{
  public:
    FlakySource(const ByteSource &inner, int failures)
        : inner_(inner), failuresLeft_(failures)
    {}

    /** Arm the next @p n try-reads to fail. */
    void setFailures(int n) { failuresLeft_.store(n); }

    uint64_t size() const override { return inner_.size(); }
    void readAt(uint64_t offset, void *dst, size_t size) const override
    {
        inner_.readAt(offset, dst, size);
    }
    const uint8_t *view(uint64_t, size_t) const override
    {
        return nullptr; // Force the try-read path.
    }
    Status tryReadAt(uint64_t offset, void *dst,
                     size_t size) const override
    {
        if (failuresLeft_.fetch_sub(1, std::memory_order_relaxed) > 0)
            return Status::ioError("transient hiccup");
        return inner_.tryReadAt(offset, dst, size);
    }
    std::string describe() const override { return "<flaky>"; }

  private:
    const ByteSource &inner_;
    mutable std::atomic<int> failuresLeft_;
};

/** Compress a small synthetic dataset into archive bytes with enough
 *  chunks for cache/eviction traffic. */
std::vector<uint8_t>
makeArchiveBytes(unsigned chunk_reads = 512)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = chunk_reads;
    SageArchive archive = sageCompress(ds.readSet, ds.reference, config);
    return std::move(archive.bytes);
}

/** The stream directory of archive @p bytes. */
StreamDirectory
directoryOf(const std::vector<uint8_t> &bytes)
{
    return orExit(StreamDirectory::tryParse(MemorySource(bytes)));
}

// ---------------------------------------------------------------------
// FaultInjectionSource
// ---------------------------------------------------------------------

TEST(FaultInjection, SameSeedSameSchedule)
{
    std::vector<uint8_t> bytes(1 << 16);
    for (size_t i = 0; i < bytes.size(); i++)
        bytes[i] = static_cast<uint8_t>(i * 131);
    const MemorySource inner(bytes);

    FaultConfig config;
    config.seed = 42;
    config.ioErrorRate = 0.1;
    config.shortReadRate = 0.1;
    config.bitFlipRate = 0.1;

    const auto runSchedule = [&](const FaultInjectionSource &source) {
        std::vector<StatusCode> codes;
        std::vector<uint8_t> dst(256);
        for (uint64_t op = 0; op < 500; op++) {
            const Status status =
                source.tryReadAt((op * 97) % (bytes.size() - dst.size()),
                                 dst.data(), dst.size());
            codes.push_back(status.code());
        }
        return codes;
    };

    const FaultInjectionSource a(inner, config);
    const FaultInjectionSource b(inner, config);
    EXPECT_EQ(runSchedule(a), runSchedule(b));
    EXPECT_EQ(a.counters().ioErrors, b.counters().ioErrors);
    EXPECT_EQ(a.counters().shortReads, b.counters().shortReads);
    EXPECT_EQ(a.counters().bitFlips, b.counters().bitFlips);
    EXPECT_EQ(a.counters().operations, 500u);
    // The schedule actually fired: ~10% per kind over 500 draws.
    EXPECT_GT(a.counters().ioErrors, 0u);
    EXPECT_GT(a.counters().shortReads, 0u);
    EXPECT_GT(a.counters().bitFlips, 0u);
}

TEST(FaultInjection, FatalPathPassesThroughUninjected)
{
    std::vector<uint8_t> bytes(4096, 0xA5);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.failEveryN = 1; // Every recoverable read fails ...
    const FaultInjectionSource source(inner, config);

    // ... yet the fatal path delivers clean bytes,
    std::vector<uint8_t> dst(64, 0);
    source.readAt(128, dst.data(), dst.size());
    EXPECT_EQ(std::memcmp(dst.data(), bytes.data() + 128, dst.size()),
              0);

    // views are refused (so no caller can bypass the schedule),
    EXPECT_EQ(source.view(0, 16), nullptr);

    // and the recoverable path fails on schedule.
    EXPECT_EQ(source.tryReadAt(128, dst.data(), dst.size()).code(),
              StatusCode::IoError);
    EXPECT_EQ(source.counters().ioErrors, 1u);
}

TEST(FaultInjection, DisarmedReadsPassThroughUncounted)
{
    std::vector<uint8_t> bytes(4096, 0x3C);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.failEveryN = 1;
    FaultInjectionSource source(inner, config);

    source.setArmed(false);
    std::vector<uint8_t> dst(64, 0);
    EXPECT_TRUE(source.tryReadAt(0, dst.data(), dst.size()).ok());
    EXPECT_EQ(dst[0], 0x3C);
    EXPECT_EQ(source.counters().operations, 0u);

    source.setArmed(true);
    EXPECT_FALSE(source.tryReadAt(0, dst.data(), dst.size()).ok());
    EXPECT_EQ(source.counters().operations, 1u);
}

TEST(FaultInjection, BitFlipCorruptsExactlyOneBit)
{
    std::vector<uint8_t> bytes(1024);
    for (size_t i = 0; i < bytes.size(); i++)
        bytes[i] = static_cast<uint8_t>(i);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.bitFlipRate = 1.0;
    const FaultInjectionSource source(inner, config);

    std::vector<uint8_t> dst(256, 0);
    ASSERT_TRUE(source.tryReadAt(0, dst.data(), dst.size()).ok());
    int flipped_bits = 0;
    for (size_t i = 0; i < dst.size(); i++) {
        uint8_t diff = static_cast<uint8_t>(dst[i] ^ bytes[i]);
        while (diff != 0) {
            flipped_bits += diff & 1;
            diff >>= 1;
        }
    }
    EXPECT_EQ(flipped_bits, 1);
    EXPECT_EQ(source.counters().bitFlips, 1u);
}

TEST(FaultInjection, ShortReadReportsTruncated)
{
    const std::vector<uint8_t> bytes(1024, 0x77);
    const MemorySource inner(bytes);
    FaultConfig config;
    config.shortReadRate = 1.0;
    const FaultInjectionSource source(inner, config);

    std::vector<uint8_t> dst(100, 0);
    const Status status = source.tryReadAt(0, dst.data(), dst.size());
    EXPECT_EQ(status.code(), StatusCode::Truncated);
    EXPECT_EQ(source.counters().shortReads, 1u);
}

// ---------------------------------------------------------------------
// Corrupted archives: hardened parsing, never a crash
// ---------------------------------------------------------------------

TEST(CorruptArchive, TruncationAtEveryFramingBoundaryIsRecoverable)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const StreamDirectory dir = directoryOf(bytes);

    // Candidate cut points: the head of the container, every stream's
    // framing edges (just before the name, mid-payload, end of
    // payload), and just short of the trailer.
    std::vector<uint64_t> cuts = {0, 1, 2, 3, 5, bytes.size() - 1,
                                  bytes.size() - 4};
    for (const auto &[name, extent] : dir.extents()) {
        (void)name;
        if (extent.offset > 0)
            cuts.push_back(extent.offset - 1);
        cuts.push_back(extent.offset);
        cuts.push_back(extent.offset + extent.size / 2);
        cuts.push_back(extent.offset + extent.size);
    }

    for (const uint64_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        const MemorySource truncated(bytes.data(),
                                     static_cast<size_t>(cut));
        const StatusOr<std::unique_ptr<SageDecoder>> opened =
            SageDecoder::tryOpen(truncated);
        ASSERT_FALSE(opened.ok()) << "cut at " << cut << " of "
                                  << bytes.size() << " parsed";
        const StatusCode code = opened.status().code();
        EXPECT_TRUE(code == StatusCode::Truncated ||
                    code == StatusCode::Corrupt ||
                    code == StatusCode::OutOfRange)
            << "cut at " << cut << ": " << opened.status().toString();
    }
}

TEST(CorruptArchive, ChecksumVerificationCatchesEveryStreamBitFlip)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const StreamDirectory dir = directoryOf(bytes);

    for (const auto &[name, extent] : dir.extents()) {
        if (extent.size == 0)
            continue;
        std::vector<uint8_t> flipped = bytes;
        flipped[extent.offset + extent.size / 2] ^= 0x10;
        const MemorySource source(flipped);
        const StatusOr<std::unique_ptr<SageDecoder>> opened =
            SageDecoder::tryOpen(source, /*dna_only=*/false,
                                 /*verify_checksum=*/true);
        ASSERT_FALSE(opened.ok())
            << "bit flip in stream " << name << " went unnoticed";
    }
}

TEST(CorruptArchive, BitFlippedStreamsNeverCrashTheDecoder)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const StreamDirectory dir = directoryOf(bytes);

    // Without checksum verification the flip reaches the parser and
    // the per-chunk decoder. Either may reject it with a Status (or,
    // for flips in slack bits, decode something) — what they must
    // never do is crash, assert, or leak (ASan preset covers leaks).
    // The columnar loop the service caches with must reach the same
    // verdict, and the same reads, as the per-read loop.
    for (const auto &[name, extent] : dir.extents()) {
        if (extent.size == 0)
            continue;
        for (const uint64_t pos :
             {extent.offset, extent.offset + extent.size / 2,
              extent.offset + extent.size - 1}) {
            std::vector<uint8_t> flipped = bytes;
            flipped[pos] ^= 0x04;
            const MemorySource source(flipped);
            const StatusOr<std::unique_ptr<SageDecoder>> opened =
                SageDecoder::tryOpen(source);
            if (!opened.ok())
                continue; // Rejected at parse: fine.
            SageDecoder &decoder = **opened;
            for (size_t c = 0; c < decoder.chunkCount(); c++) {
                const StatusOr<std::vector<Read>> chunk =
                    decoder.tryDecodeChunkShared(c);
                ReadColumns columns;
                const Status columnar =
                    decoder.tryDecodeChunkShared(c, columns);
                ASSERT_EQ(columnar.code(), chunk.ok()
                                               ? StatusCode::Ok
                                               : chunk.status().code())
                    << name << " flipped at " << pos << ", chunk " << c;
                if (!chunk.ok())
                    continue;
                ASSERT_EQ(columns.size(), chunk->size());
                for (size_t i = 0; i < columns.size(); i++) {
                    EXPECT_EQ(columns[i].header, (*chunk)[i].header);
                    EXPECT_EQ(columns[i].bases, (*chunk)[i].bases);
                    EXPECT_EQ(columns[i].quals, (*chunk)[i].quals);
                }
            }
        }
    }
}

TEST(CorruptArchive, TryOpenReportsMissingStreams)
{
    // An empty-but-well-framed bundle parses as a directory yet fails
    // archive open with a Corrupt "missing stream" status.
    const std::vector<uint8_t> empty_bundle = {0x00, 0x00, 0x00,
                                               0x00, 0x00};
    // varint stream count 0 + CRC32 trailer of the empty body.
    const MemorySource source(empty_bundle);
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source);
    ASSERT_FALSE(opened.ok());
}

/** Status of a checksum-verified open of @p bundle's serialization.
 *  Re-framing keeps the container framing and trailer CRC valid, so
 *  only the edited stream content is wrong. */
Status
reframedOpenStatus(const StreamBundle &bundle)
{
    const std::vector<uint8_t> bytes = bundle.serialize();
    const MemorySource source(bytes);
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source, /*dna_only=*/false,
                             /*verify_checksum=*/true);
    return opened.ok() ? Status() : opened.status();
}

TEST(CorruptArchive, EmptyQualityAlphabetIsCorrupt)
{
    StreamBundle bundle = StreamBundle::deserialize(makeArchiveBytes());
    std::vector<uint8_t> &quality = bundle.stream("quality");
    // Zero the alphabet-size varint, which follows the per-chunk
    // framing's leading 0, and drop the alphabet itself, so every later
    // field of the quality framing still parses.
    ASSERT_EQ(quality[0], 0);
    size_t pos = 1;
    const uint64_t alphabet = getVarint(quality, pos);
    ASSERT_GT(alphabet, 0u);
    std::vector<uint8_t> zeroed = {0, 0};
    zeroed.insert(zeroed.end(), quality.begin() + pos + alphabet,
                  quality.end());
    quality = std::move(zeroed);
    EXPECT_EQ(reframedOpenStatus(bundle).code(), StatusCode::Corrupt);

    // The block codec refuses it on its own too (SpringLike decodes
    // through it without the open-time check).
    QualityArchive archive = compressQuality(std::vector<std::string>{"II#I"});
    archive.alphabet.clear();
    EXPECT_THROW(decompressQualityBlock(archive, 0), StatusError);
}

/** Flip every bit of @p bytes in [first, last), one at a time, handing
 *  each variant to @p check. */
template <typename Check>
void
forEachBitFlip(std::vector<uint8_t> bytes, size_t first, size_t last,
               const Check &check)
{
    for (size_t at = first; at < last; at++) {
        for (unsigned bit = 0; bit < 8; bit++) {
            bytes[at] ^= static_cast<uint8_t>(1u << bit);
            check(bytes);
            bytes[at] ^= static_cast<uint8_t>(1u << bit);
        }
    }
}

/** Each chunk's StatusCode, and the CRC-32 of its reads when it
 *  decodes (0 otherwise). */
struct ChunkOutcomes
{
    std::vector<StatusCode> codes;
    std::vector<uint32_t> digests;
};

/** Fold each read's header, bases and quality, each ending in a
 *  newline, into @p crc. */
void
addRead(Crc32 &crc, const Read &read)
{
    const uint8_t newline = '\n';
    for (const std::string *field : {&read.header, &read.bases, &read.quals}) {
        crc.update(reinterpret_cast<const uint8_t *>(field->data()),
                   field->size());
        crc.update(&newline, 1);
    }
}

/** Decode each chunk of @p decoder through both loops, which must
 *  agree on its StatusCode and reads. */
ChunkOutcomes
decodeEveryChunk(const SageDecoder &decoder)
{
    ChunkOutcomes out;
    for (size_t c = 0; c < decoder.chunkCount(); c++) {
        const StatusOr<std::vector<Read>> reads =
            decoder.tryDecodeChunkShared(c);
        ReadColumns columns;
        const Status columnar = decoder.tryDecodeChunkShared(c, columns);
        const StatusCode code =
            reads.ok() ? StatusCode::Ok : reads.status().code();
        EXPECT_EQ(columnar.code(), code) << "chunk " << c;
        Crc32 crc;
        if (reads.ok()) {
            EXPECT_EQ(columns.size(), reads->size()) << "chunk " << c;
            for (size_t i = 0; i < reads->size(); i++) {
                addRead(crc, (*reads)[i]);
                if (i < columns.size()) {
                    EXPECT_EQ(columns[i].header, (*reads)[i].header);
                    EXPECT_EQ(columns[i].quals, (*reads)[i].quals);
                }
            }
        }
        out.codes.push_back(code);
        out.digests.push_back(reads.ok() ? crc.value() : 0);
    }
    return out;
}

/** True for the codes a damaged block may fail a chunk with. */
bool
damaged(StatusCode code)
{
    return code == StatusCode::Corrupt || code == StatusCode::Truncated;
}

TEST(CorruptArchive, ShortHeaderStreamIsCorrupt)
{
    // A header block that decodes to one line fewer than its table
    // says. Open reads only the table, so the archive opens; every
    // chunk the block covers then fails to decode, in both loops, and
    // so does verifyArchive. A table whose line counts no longer sum
    // to the read count fails the open. The archive has one block.
    const StreamBundle bundle = StreamBundle::deserialize(makeArchiveBytes());
    const uint64_t reads =
        SageParams::deserialize(bundle.stream("params")).numReads;
    const HeaderArchive headers =
        unpackHeaders(bundle.stream("headers"), reads);
    ASSERT_EQ(headers.blocks.size(), 1u);
    std::vector<uint8_t> text =
        orExit(gpzip::tryDecompress(headers.blocks[0]));
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n');
    // Drop the last line, keeping the block well formed.
    text.pop_back();
    text.erase(std::find(text.rbegin(), text.rend(), '\n').base(),
               text.end());
    HeaderArchive short_block = headers;
    short_block.blocks[0] = gpzip::compress(text.data(), text.size());

    StreamBundle edited = bundle;
    edited.stream("headers") = packHeaders(short_block);
    ASSERT_TRUE(reframedOpenStatus(edited).ok());
    const std::vector<uint8_t> bytes = edited.serialize();
    const MemorySource source(bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(source));
    ASSERT_GT(decoder->chunkCount(), 1u);
    for (const StatusCode code : decodeEveryChunk(*decoder).codes)
        EXPECT_EQ(code, StatusCode::Corrupt);
    EXPECT_EQ(verifyArchive(source).code(), StatusCode::Corrupt);

    short_block.blockLines[0]--;
    edited.stream("headers") = packHeaders(short_block);
    EXPECT_EQ(reframedOpenStatus(edited).code(), StatusCode::Corrupt);

    // A stream written before header blocks is one bare gpzip
    // container, read as one block of every line: short, it fails the
    // chunks at their decode too.
    edited.stream("headers") = short_block.blocks[0];
    ASSERT_TRUE(reframedOpenStatus(edited).ok());
    const std::vector<uint8_t> legacy_bytes = edited.serialize();
    const MemorySource legacy_source(legacy_bytes);
    const std::unique_ptr<SageDecoder> legacy =
        orExit(SageDecoder::tryOpen(legacy_source));
    for (const StatusCode code : decodeEveryChunk(*legacy).codes)
        EXPECT_EQ(code, StatusCode::Corrupt);
    EXPECT_EQ(verifyArchive(legacy_source).code(), StatusCode::Corrupt);
}

/** An archive of 4 chunks of 64 reads whose headers, about 600 bytes
 *  each, give every chunk a header block of its own. */
std::vector<uint8_t>
fourHeaderBlockArchive()
{
    Rng rng(31);
    std::string consensus;
    for (int i = 0; i < 4000; i++)
        consensus += "ACGT"[rng.nextBelow(4)];
    ReadSet rs;
    for (int i = 0; i < 256; i++) {
        Read read;
        read.header = "r" + std::to_string(i) + " ";
        while (read.header.size() < 600)
            read.header += "abcdefghijklmnopqrstuvwxyz"[rng.nextBelow(26)];
        read.bases = consensus.substr(rng.nextBelow(3900), 60);
        read.quals = std::string(60, "#+5?I"[rng.nextBelow(5)]);
        rs.reads.push_back(std::move(read));
    }
    SageConfig config;
    config.chunkReads = 64;
    return sageCompress(rs, consensus, config).bytes;
}

TEST(CorruptArchive, DamagedHeaderBlockFailsOnlyItsChunk)
{
    // Each header block is a gpzip container with its own CRC-32 over
    // its text. Bits flipped across chunk 1's block (its framing, its
    // code tables and its payload) fail chunk 1 alone, with Corrupt or
    // Truncated from both loops, and every other chunk decodes to its
    // digest. The archive opens every time: open reads only the table.
    // A few flips change no decoded byte (a field the decoder does not
    // need, such as the block size of a one-block container, a code no
    // symbol uses, or padding after the end-of-block code); the chunk
    // then decodes to its own digest, never to other headers.
    const std::vector<uint8_t> bytes = fourHeaderBlockArchive();
    const MemorySource clean(bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(clean));
    ASSERT_EQ(decoder->chunkCount(), 4u);
    const ChunkOutcomes want = decodeEveryChunk(*decoder);
    for (const StatusCode code : want.codes)
        ASSERT_EQ(code, StatusCode::Ok);

    const StreamBundle bundle = StreamBundle::deserialize(bytes);
    const HeaderArchive headers =
        unpackHeaders(bundle.stream("headers"), 256);
    ASSERT_EQ(headers.blocks.size(), 4u);
    const StreamExtent extent = directoryOf(bytes).extent("headers");
    size_t block = extent.offset + extent.size;  // Where block 1 starts.
    for (size_t b = 4; b-- > 1;)
        block -= headers.blocks[b].size();
    const size_t size = headers.blocks[1].size();
    ASSERT_GT(size, 400u);
    // Every bit of the container framing, of spans of the payload from
    // its middle and from its end, and one bit of each byte of the code
    // tables (4 bits for each of 285 + 30 symbols). The other chunks
    // are checked on every eighth flip.
    constexpr size_t kFraming = 16;
    constexpr size_t kTables = (285 + 30) / 2;
    uint64_t flips = 0, caught = 0;
    const auto check = [&](const std::vector<uint8_t> &flipped) {
        const MemorySource source(flipped);
        const std::unique_ptr<SageDecoder> opened =
            orExit(SageDecoder::tryOpen(source));
        const bool all = flips++ % 8 == 0;
        for (size_t c = 0; c < opened->chunkCount(); c++) {
            if (c != 1 && !all)
                continue;
            const StatusOr<std::vector<Read>> reads =
                opened->tryDecodeChunkShared(c);
            ReadColumns columns;
            const StatusCode columnar =
                opened->tryDecodeChunkShared(c, columns).code();
            if (c == 1 && !reads.ok()) {
                EXPECT_TRUE(damaged(reads.status().code()))
                    << reads.status().toString();
                EXPECT_EQ(columnar, reads.status().code());
                caught++;
                continue;
            }
            ASSERT_TRUE(reads.ok()) << "chunk " << c << ": "
                                    << reads.status().toString();
            ASSERT_EQ(columnar, StatusCode::Ok) << "chunk " << c;
            Crc32 crc;
            for (const Read &read : *reads)
                addRead(crc, read);
            ASSERT_EQ(crc.value(), want.digests[c]) << "chunk " << c;
        }
    };
    forEachBitFlip(bytes, block, block + kFraming, check);
    std::vector<uint8_t> flipped = bytes;
    for (size_t at = block + kFraming; at < block + kFraming + kTables;
         at++) {
        flipped[at] ^= static_cast<uint8_t>(1u << (at % 8));
        check(flipped);
        flipped[at] = bytes[at];
    }
    forEachBitFlip(bytes, block + size / 2, block + size / 2 + 16, check);
    forEachBitFlip(bytes, block + size - 16, block + size, check);
    // Nearly every flip is caught: all but the few that change nothing.
    EXPECT_GT(caught, flips * 9 / 10) << caught << " of " << flips;
}

TEST(CorruptArchive, QualityStreamMustCoverEveryRead)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 512;
    const StreamBundle bundle = StreamBundle::deserialize(
        sageCompress(ds.readSet, ds.reference, config).bytes);
    ASSERT_TRUE(bundle.has("quality"));

    // A well-framed quality stream for one read fewer.
    std::vector<std::string> quals;
    for (size_t i = 0; i + 1 < ds.readSet.reads.size(); i++)
        quals.push_back(ds.readSet.reads[i].quals);
    StreamBundle short_quality = bundle;
    short_quality.stream("quality") = packQuality(compressQuality(quals));
    EXPECT_EQ(reframedOpenStatus(short_quality).code(),
              StatusCode::Corrupt);

    // No quality stream although the params declare quality scores.
    StreamBundle no_quality;
    for (const auto &[name, size] : bundle.sizes()) {
        (void)size;
        if (name != "quality")
            no_quality.stream(name) = bundle.stream(name);
    }
    EXPECT_EQ(reframedOpenStatus(no_quality).code(), StatusCode::Corrupt);
}

TEST(CorruptArchive, QualityLengthMustMatchTheBases)
{
    // Read 0's quality (chunk 0's, in the per-chunk framing) grows by
    // 10^8 characters and block 0's count with it, so the framing
    // agrees and the archive opens. Both chunk loops refuse chunk 0
    // from its length streams, before any block decodes: the stored
    // count no longer matches the bases. Once, this decoded 10^8
    // characters in 0.85 s and served them. One archive has rANS
    // blocks in the per-chunk framing, the other (committed) was
    // written by the range coder in the per-read framing.
    for (const bool legacy : {false, true}) {
        SCOPED_TRACE(legacy ? "range-coded tiny.sage" : "rANS blocks");
        StreamBundle bundle = StreamBundle::deserialize(
            legacy ? corpusFile("tiny.sage") : makeArchiveBytes());
        QualityArchive quality = unpackQuality(bundle.stream("quality"));
        ASSERT_EQ(quality.blocks[0][0], legacy ? 0 : 1);
        // The per-read framing stores read 0's length; the per-chunk
        // framing, which takes it from the bases, chunk 0's count.
        if (legacy)
            quality.readLengths[0] += 100000000;
        else
            quality.chunks[0].chars += 100000000;
        quality.blockChars[0] += 100000000;
        bundle.stream("quality") =
            legacy ? packQuality(quality) : packChunkedQuality(quality);
        const std::vector<uint8_t> bytes = bundle.serialize();
        const MemorySource source(bytes);
        const std::unique_ptr<SageDecoder> decoder =
            orExit(SageDecoder::tryOpen(source));

        const StatusOr<std::vector<Read>> reads =
            decoder->tryDecodeChunkShared(0);
        ASSERT_FALSE(reads.ok());
        EXPECT_EQ(reads.status().code(), StatusCode::Corrupt);
        EXPECT_NE(reads.status().message().find("quality characters for"),
                  std::string::npos)
            << reads.status().toString();
        ReadColumns columns;
        const Status status = decoder->tryDecodeChunkShared(0, columns);
        EXPECT_EQ(status.code(), StatusCode::Corrupt);
        EXPECT_EQ(status.message(), reads.status().message());
    }
}

TEST(CorruptArchive, OrderStreamMustBeAPermutation)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 512;
    config.preserveOrder = true;
    const StreamBundle bundle = StreamBundle::deserialize(
        sageCompress(ds.readSet, ds.reference, config).bytes);
    std::vector<uint64_t> order;
    const std::vector<uint8_t> &raw = bundle.stream("order");
    for (size_t pos = 0; pos < raw.size();)
        order.push_back(getVarint(raw, pos));
    ASSERT_EQ(order.size(), ds.readSet.reads.size());
    ASSERT_TRUE(reframedOpenStatus(bundle).ok());

    // Re-encode an edited order stream; only its entries are wrong.
    auto with_order = [&](const std::vector<uint64_t> &entries) {
        StreamBundle edited = bundle;
        std::vector<uint8_t> &stream = edited.stream("order");
        stream.clear();
        for (uint64_t entry : entries)
            putVarint(stream, entry);
        return reframedOpenStatus(edited);
    };
    std::vector<uint64_t> one_short = order;
    one_short.pop_back();
    EXPECT_EQ(with_order(one_short).code(), StatusCode::Corrupt);

    std::vector<uint64_t> duplicated = order;
    duplicated[1] = duplicated[0];
    EXPECT_EQ(with_order(duplicated).code(), StatusCode::Corrupt);

    std::vector<uint64_t> out_of_range = order;
    out_of_range[0] = order.size();
    EXPECT_EQ(with_order(out_of_range).code(), StatusCode::Corrupt);

    std::vector<uint64_t> one_long = order;
    one_long.push_back(order.size());
    EXPECT_EQ(with_order(one_long).code(), StatusCode::Corrupt);
}

/** Recompute the CRC32 trailer of @p bytes over its (edited) body, so
 *  the checksum passes and only the edited stream is wrong. */
void
reseal(std::vector<uint8_t> &bytes)
{
    const size_t body = bytes.size() - 4;
    const uint32_t crc = Crc32::of(bytes.data(), body);
    for (size_t i = 0; i < 4; i++)
        bytes[body + i] = static_cast<uint8_t>(crc >> (8 * i));
}

/**
 * An archive whose consensus and escape streams start with code 4 (N).
 * A consensus with an N in front is stored 3-bit packed, and reads
 * holding an N escape whole, 3-bit packed. Here only the all-N reads
 * escape, so both streams start with code 4; with its low bit flipped
 * it is 5, which is no base.
 */
std::vector<uint8_t>
leadingNArchive()
{
    Rng rng(19);
    std::string consensus = "N";
    for (int i = 0; i < 4000; i++)
        consensus += "ACGT"[rng.nextBelow(4)];
    ReadSet rs;
    for (int i = 0; i < 48; i++) {
        Read read;
        read.header = "r" + std::to_string(i);
        read.bases = i % 6 == 0 ? std::string(100, 'N')
                                : consensus.substr(1 + 71 * i, 100);
        read.quals = std::string(100, 'I');
        rs.reads.push_back(std::move(read));
    }
    SageConfig config;
    config.chunkReads = 8;
    return sageCompress(rs, consensus, config).bytes;
}

/** leadingNArchive() with the first escape code flipped from 4 to 5
 *  and the trailer re-sealed: it opens, and one chunk fails to decode. */
std::vector<uint8_t>
badEscapeArchive()
{
    std::vector<uint8_t> bytes = leadingNArchive();
    bytes[directoryOf(bytes).extent("escape").offset] ^= 1;
    reseal(bytes);
    return bytes;
}

TEST(CorruptArchive, BadThreeBitCodeIsCorrupt)
{
    const std::vector<uint8_t> bytes = leadingNArchive();
    const StreamDirectory dir = directoryOf(bytes);

    for (const char *stream : {"consensus", "escape"}) {
        std::vector<uint8_t> flipped = bytes;
        const uint64_t at = dir.extent(stream).offset;
        ASSERT_EQ(flipped[at] & 7, 4) << stream << " starts with no N";
        flipped[at] ^= 1;
        const MemorySource source(flipped);
        const StatusOr<std::unique_ptr<SageDecoder>> opened =
            SageDecoder::tryOpen(source);
        Status status = opened.ok() ? Status() : opened.status();
        for (size_t c = 0; opened.ok() && c < (*opened)->chunkCount() &&
             status.ok(); c++) {
            const StatusOr<std::vector<Read>> reads =
                (*opened)->tryDecodeChunkShared(c);
            ReadColumns columns;
            const Status columnar =
                (*opened)->tryDecodeChunkShared(c, columns);
            EXPECT_EQ(columnar.code(),
                      reads.ok() ? StatusCode::Ok : reads.status().code())
                << stream << ", chunk " << c;
            if (!reads.ok())
                status = reads.status();
        }
        EXPECT_EQ(status.code(), StatusCode::Corrupt) << stream;
        EXPECT_NE(status.message().find("bad base code"),
                  std::string::npos)
            << stream << ": " << status.toString();
    }
}

/**
 * A one-read archive whose DNA streams are written by hand. The read is
 * 40 bases in two segments: the first, @p first_segment bases long,
 * has no events; the second opens with an event at position 0 whose
 * MBTA bit marks the corner-case escape (paper §5.1.4), and the escape
 * stream holds 40 T's. The encoder marks an escape before a read's
 * first base, so only a first segment of length 0 makes a valid read.
 */
std::vector<uint8_t>
cornerEscapeInSecondSegment(uint64_t first_segment)
{
    Rng rng(29);
    std::string consensus;
    for (int i = 0; i < 4000; i++)
        consensus += "ACGT"[rng.nextBelow(4)];
    ReadSet rs;
    rs.reads.push_back(
        Read{"r0", consensus.substr(100, 40), std::string(40, 'I')});
    SageConfig config;
    config.chunkReads = 16;
    StreamBundle bundle =
        StreamBundle::deserialize(sageCompress(rs, consensus, config).bytes);

    // Every field in one 32-bit class, so any value below fits.
    SageParams params = SageParams::deserialize(bundle.stream("params"));
    const AssociationTable wide{{32}};
    params.matchPos = params.readLen = params.mismatchCount = wide;
    params.mismatchPos = params.segPos = params.segLen = wide;
    const TunedFieldCodec codec(wide);

    BitWriter flags, mpa, mpga, rla, rlga, sga, sgga, mca, mcga, mmpa,
        mmpga, mbta;
    flags.writeBit(false);  // Forward strand,
    flags.writeUnary(1);    // two segments.
    if (!params.constantReadLength) {
        codec.encode(rla, rlga,
                     zigzagEncode(40 - int64_t(params.modalReadLength)));
    }
    codec.encode(mpa, mpga, 100);                 // Segment 0 at 100,
    codec.encode(sga, sgga, zigzagEncode(1000));  // segment 1 at 1100,
    codec.encode(sga, sgga, 40 - first_segment);  // holding the rest.
    codec.encode(mca, mcga, 0);                   // No events in 0;
    codec.encode(mca, mcga, 1);                   // one in 1, at 0,
    codec.encode(mmpa, mmpga, 0);
    mbta.writeBit(true);                          // marked as an escape.

    bundle.stream("params") = params.serialize();
    bundle.stream("flags") = flags.take();
    bundle.stream("mpa") = mpa.take();
    bundle.stream("mpga") = mpga.take();
    bundle.stream("rla") = rla.take();
    bundle.stream("rlga") = rlga.take();
    bundle.stream("sga") = sga.take();
    bundle.stream("sgga") = sgga.take();
    bundle.stream("mca") = mca.take();
    bundle.stream("mcga") = mcga.take();
    bundle.stream("mmpa") = mmpa.take();
    bundle.stream("mmpga") = mmpga.take();
    bundle.stream("mbta") = mbta.take();
    bundle.stream("escape") =
        packSequence(std::string(40, 'T'), OutputFormat::ThreeBit);
    return bundle.serialize();
}

TEST(CorruptArchive, CornerEscapeAfterDecodedBasesIsCorrupt)
{
    // With no bases before it, the escape is the read: 40 T's. After
    // segment 0's 20 bases it would make a 60-base read of a 40-base
    // one, and both chunk loops report Corrupt instead.
    for (const uint64_t first_segment : {0, 20}) {
        const std::vector<uint8_t> bytes =
            cornerEscapeInSecondSegment(first_segment);
        const MemorySource source(bytes);
        const std::unique_ptr<SageDecoder> decoder =
            orExit(SageDecoder::tryOpen(source));
        ASSERT_EQ(decoder->chunkCount(), 1u);
        const StatusOr<std::vector<Read>> reads =
            decoder->tryDecodeChunkShared(0);
        ReadColumns columns;
        const Status columnar = decoder->tryDecodeChunkShared(0, columns);
        if (first_segment == 0) {
            ASSERT_TRUE(reads.ok()) << reads.status().toString();
            ASSERT_TRUE(columnar.ok()) << columnar.toString();
            ASSERT_EQ(reads->size(), 1u);
            EXPECT_EQ((*reads)[0].bases, std::string(40, 'T'));
            ASSERT_EQ(columns.size(), 1u);
            EXPECT_EQ(columns[0].bases, (*reads)[0].bases);
            continue;
        }
        ASSERT_FALSE(reads.ok())
            << "decoded a read of " << (*reads)[0].bases.size() << " bases";
        EXPECT_EQ(reads.status().code(), StatusCode::Corrupt);
        EXPECT_NE(reads.status().message().find(
                      "escape marker after 20 decoded bases"),
                  std::string::npos)
            << reads.status().toString();
        EXPECT_EQ(columnar.code(), StatusCode::Corrupt)
            << columnar.toString();
    }
}

TEST(VerifyArchive, DecodesWhatTheChecksumPasses)
{
    // Both archives pass their trailer CRC; the check must still fail
    // them, because a decode would.
    const std::vector<uint8_t> good = makeArchiveBytes();
    EXPECT_TRUE(verifyArchive(MemorySource(good)).ok());

    // A flipped header stream: the open reads only its table, and the
    // decode of the chunks the flipped block covers catches it.
    std::vector<uint8_t> headers = good;
    const StreamExtent extent = directoryOf(headers).extent("headers");
    headers[extent.offset + extent.size / 2] ^= 0x10;
    reseal(headers);
    ASSERT_TRUE(verifyArchiveChecksum(MemorySource(headers)).ok());
    const Status header_status = verifyArchive(MemorySource(headers));
    EXPECT_TRUE(header_status.code() == StatusCode::Corrupt ||
                header_status.code() == StatusCode::Truncated)
        << header_status.toString();

    // A bad escape code: the archive opens, one chunk does not decode.
    const std::vector<uint8_t> escape = badEscapeArchive();
    ASSERT_TRUE(verifyArchiveChecksum(MemorySource(escape)).ok());
    ASSERT_TRUE(SageDecoder::tryOpen(MemorySource(escape)).ok());
    const Status escape_status = verifyArchive(MemorySource(escape));
    EXPECT_EQ(escape_status.code(), StatusCode::Corrupt);
    EXPECT_NE(escape_status.message().find("bad base code"),
              std::string::npos)
        << escape_status.toString();
}

TEST(SageReaderTest, CorruptChunkExitsWithItsStatus)
{
    // SageReader's value-returning calls exit 1 printing the decode's
    // Status, on the pooled, the sequential, the range and the
    // prefetched path alike.
    const std::vector<uint8_t> bytes = badEscapeArchive();
    const MemorySource source(bytes);
    EXPECT_EXIT(
        {
            ThreadPool pool(4);
            SageReader reader(source);
            reader.decodeAll(&pool);
        },
        ::testing::ExitedWithCode(1), "bad base code");
    EXPECT_EXIT(
        {
            SageReader reader(source);
            while (reader.hasNext())
                reader.next();
        },
        ::testing::ExitedWithCode(1), "bad base code");
    EXPECT_EXIT(
        {
            SageReader reader(source);
            reader.decodeRange(0, reader.chunkCount());
        },
        ::testing::ExitedWithCode(1), "bad base code");
    // A failed prefetched decode is reported when the walk reaches it.
    EXPECT_EXIT(
        {
            ThreadPool prefetch(1);
            SageReaderOptions options;
            options.prefetchPool = &prefetch;
            SageReader reader(source, options);
            reader.decodeAll();
        },
        ::testing::ExitedWithCode(1), "bad base code");
}

TEST(CorruptArchive, GpzipBitFlipsAlwaysReturnStatus)
{
    // Flips in a gpzip stream's framing (its block sizes) or near the
    // end of its last block can leave a prefix code that needs more
    // bits than the stream holds. gpzip, and the chunk decode that
    // decodes a header block through it, report that as Truncated.
    constexpr size_t kFramingBytes = 16;
    constexpr size_t kTailBytes = 64;

    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    std::string text;
    for (const Read &read : ds.readSet.reads)
        text += read.header + '\n';
    const std::vector<uint8_t> stream = gpzip::compress(text);
    ASSERT_GT(stream.size(), kFramingBytes + kTailBytes);
    uint64_t truncated = 0;
    const auto decompress = [&](const std::vector<uint8_t> &bytes) {
        const StatusOr<std::vector<uint8_t>> out =
            gpzip::tryDecompress(bytes);
        truncated += !out.ok() && out.status().code() == StatusCode::Truncated;
    };
    forEachBitFlip(stream, 0, kFramingBytes, decompress);
    forEachBitFlip(stream, stream.size() - kTailBytes, stream.size(),
                   decompress);
    EXPECT_GT(truncated, 0u);

    // In an archive, the same flips in its header block come back from
    // the first decode of a chunk the block covers: the open reads
    // only the header table.
    const std::vector<uint8_t> archive = makeArchiveBytes();
    const StreamExtent headers = directoryOf(archive).extent("headers");
    const HeaderArchive blocks = unpackHeaders(
        StreamBundle::deserialize(archive).stream("headers"),
        ds.readSet.reads.size());
    ASSERT_EQ(blocks.blocks.size(), 1u);
    const size_t block_size = blocks.blocks[0].size();
    ASSERT_GT(block_size, kFramingBytes + kTailBytes);
    const size_t block = headers.offset + headers.size - block_size;
    truncated = 0;
    const auto decode = [&](const std::vector<uint8_t> &bytes) {
        const MemorySource source(bytes);
        const std::unique_ptr<SageDecoder> decoder =
            orExit(SageDecoder::tryOpen(source));
        const StatusOr<std::vector<Read>> reads =
            decoder->tryDecodeChunkShared(0);
        truncated += !reads.ok() &&
            reads.status().code() == StatusCode::Truncated;
    };
    forEachBitFlip(archive, block, block + kFramingBytes, decode);
    forEachBitFlip(archive, block + block_size - kTailBytes,
                   block + block_size, decode);
    EXPECT_GT(truncated, 0u);
}

// ---------------------------------------------------------------------
// Service degradation under faults
// ---------------------------------------------------------------------

/** Service over a fault-injected in-memory archive. The injector is
 *  disarmed for the constructor (archive open must see clean bytes)
 *  and armed afterwards. */
struct FaultedService
{
    explicit FaultedService(const std::vector<uint8_t> &bytes,
                            FaultConfig fault_config,
                            ServiceOptions options = {})
        : source(bytes), faulty(source, fault_config)
    {
        faulty.setArmed(false);
        options.ownedPoolThreads = 2;
        service = std::make_unique<SageArchiveService>(faulty, options);
        faulty.setArmed(true);
    }

    MemorySource source;
    FaultInjectionSource faulty;
    std::unique_ptr<SageArchiveService> service;
};

/** Chunk @p chunk's reads, addressed as the chunk's read span. */
ReadResult
readChunk(SageArchiveService &service, size_t chunk)
{
    return service.readRange(service.chunkFirstRead(chunk),
                             service.chunkReadCount(chunk));
}

TEST(ServiceFault, ErrorIsPerRequestAndNeverPoisonsTheCache)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    FaultConfig fault_config;
    fault_config.failEveryN = 1; // Every armed decode read fails.
    ServiceOptions options;
    options.decodeRetries = 0;
    FaultedService harness(bytes, fault_config, options);
    SageArchiveService &service = *harness.service;
    ASSERT_GE(service.chunkCount(), 2u);

    // Affected request: clean Error with the decode's Status attached.
    const ReadResult failed = readChunk(service, 0);
    EXPECT_EQ(failed.status, RequestStatus::Error);
    EXPECT_TRUE(failed.reads.empty());
    EXPECT_FALSE(failed.error.ok());
    EXPECT_EQ(failed.error.code(), StatusCode::IoError);

    // The failure left no poisoned cache entry: once the fault
    // clears, the same chunk decodes on the next request.
    harness.faulty.setArmed(false);
    const ReadResult recovered = readChunk(service, 0);
    EXPECT_EQ(recovered.status, RequestStatus::Ok);
    EXPECT_FALSE(recovered.reads.empty());

    // Unaffected bytes are byte-identical to a clean decode.
    const MemorySource clean(bytes);
    SageReader reader(clean);
    const ReadSet expected = reader.decodeRange(0, 1);
    ASSERT_EQ(recovered.reads.size(), expected.reads.size());
    for (size_t i = 0; i < expected.reads.size(); i++)
        EXPECT_EQ(recovered.reads[i].bases, expected.reads[i].bases);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.errored, 1u);
    EXPECT_EQ(stats.ioErrors, 1u);
    EXPECT_EQ(stats.corruptChunks, 0u);
    EXPECT_EQ(stats.retries, 0u);
}

TEST(ServiceFault, SubmitDeliversErrorOnceOnAPoolWorker)
{
    // submit()'s completion contract for the Error status (the other
    // statuses are covered in test_service.cc): done runs exactly
    // once, on a pool worker and never the submitting thread, and the
    // request is counted once.
    ThreadPool pool(1);
    std::thread::id worker;
    pool.submit([&worker] { worker = std::this_thread::get_id(); });
    pool.wait();
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    FaultConfig fault_config;
    fault_config.failEveryN = 1;
    ServiceOptions options;
    options.decodeRetries = 0;
    options.pool = &pool;
    FaultedService harness(bytes, fault_config, options);
    SageArchiveService &service = *harness.service;

    std::atomic<int> calls{0};
    std::promise<std::thread::id> ran_on;
    service.submit(service.chunkFirstRead(0), service.chunkReadCount(0),
                   RequestOptions{}, [&](RangeResult result) {
                       EXPECT_EQ(result.status, RequestStatus::Error);
                       EXPECT_EQ(result.error.code(),
                                 StatusCode::IoError);
                       EXPECT_TRUE(result.runs.empty());
                       calls++;
                       ran_on.set_value(std::this_thread::get_id());
                   });
    EXPECT_EQ(ran_on.get_future().get(), worker);
    EXPECT_NE(worker, std::this_thread::get_id());
    pool.wait(); // A second call would have landed by now.
    EXPECT_EQ(calls.load(), 1);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.latencySamples, 1u);
    EXPECT_EQ(stats.errored, 1u);
    EXPECT_EQ(stats.ioErrors, 1u);
}

TEST(ServiceFault, ConcurrentRequestsAllSeeTheSharedError)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    FaultConfig fault_config;
    fault_config.failEveryN = 1;
    fault_config.latencyMicros = 200; // Widen the single-flight window.
    ServiceOptions options;
    options.decodeRetries = 0;
    FaultedService harness(bytes, fault_config, options);
    SageArchiveService &service = *harness.service;

    // Many clients pile onto the same failing chunk: every one must
    // complete with Error (leader or coalesced follower), and the
    // process must survive.
    constexpr int kClients = 8;
    std::atomic<int> errors{0};
    std::vector<std::thread> fleet;
    for (int c = 0; c < kClients; c++) {
        fleet.emplace_back([&service, &errors] {
            const ReadResult result =
                readChunk(service, 0);
            if (result.status == RequestStatus::Error &&
                !result.error.ok())
                errors.fetch_add(1, std::memory_order_relaxed);
        });
    }
    for (auto &client : fleet)
        client.join();
    EXPECT_EQ(errors.load(), kClients);
    EXPECT_EQ(service.stats().errored,
              static_cast<uint64_t>(kClients));

    // Recovery still works after the pile-up.
    harness.faulty.setArmed(false);
    EXPECT_EQ(readChunk(service, 0).status,
              RequestStatus::Ok);
}

TEST(ServiceFault, SessionsRetryPastNonStickyErrors)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    FaultConfig fault_config;
    fault_config.failEveryN = 1;
    ServiceOptions options;
    options.decodeRetries = 0;
    options.sessionReadahead = false; // Strictly on-demand walk.
    FaultedService harness(bytes, fault_config, options);
    SageArchiveService &service = *harness.service;

    ServiceSession session = service.openSession();
    ASSERT_TRUE(session.hasNext());
    EXPECT_TRUE(session.read(64).empty());
    EXPECT_EQ(session.lastStatus(), RequestStatus::Error);

    // Error is not sticky: the cursor is parked before the failed
    // chunk, and once the fault clears the same session resumes and
    // completes a full, correct walk.
    harness.faulty.setArmed(false);
    uint64_t delivered = 0;
    while (session.hasNext()) {
        const std::vector<Read> reads = session.read(1024);
        if (reads.empty() &&
            session.lastStatus() != RequestStatus::Ok)
            break;
        delivered += reads.size();
    }
    EXPECT_EQ(delivered, service.readCount());
}

TEST(ServiceFault, RetryAbsorbsTransientIoErrors)
{
    const std::vector<uint8_t> bytes = makeArchiveBytes();
    const MemorySource inner(bytes);

    ServiceOptions options;
    options.decodeRetries = 2;
    options.ownedPoolThreads = 2;

    // The source heals after one failure — exactly the transient
    // hiccup decodeRetries exists for. The request sees nothing.
    FlakySource flaky(inner, 0); // Clean during open ...
    SageArchiveService service(flaky, options);
    flaky.setFailures(1); // ... one hiccup before the first decode.

    const ReadResult result = readChunk(service, 0);
    EXPECT_EQ(result.status, RequestStatus::Ok);
    EXPECT_FALSE(result.reads.empty());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.ioErrors, 0u);
    EXPECT_EQ(stats.corruptChunks, 0u);
    EXPECT_EQ(stats.errored, 0u);
}

} // namespace
} // namespace sage
