/**
 * @file
 * Tests for container v2: chunked archives, the chunk index, the
 * v1 backward-compatibility path, chunk-parallel decode being
 * byte-identical to sequential decode, quality blocks decoding on
 * first use on every decode path, and every decode path opening a
 * chunk through one fetch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include "compress/headers.hh"
#include "compress/quality.hh"
#include "compress/streams.hh"
#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/crc32.hh"
#include "util/thread_pool.hh"

#include "corpus_file.hh"

namespace sage {
namespace {

/** Sorted multiset view of (bases, quals) records. */
std::multiset<std::pair<std::string, std::string>>
recordSet(const ReadSet &rs)
{
    std::multiset<std::pair<std::string, std::string>> set;
    for (const auto &read : rs.reads)
        set.emplace(read.bases, read.quals);
    return set;
}

/** Element-wise equality including headers. */
void
expectSameReads(const ReadSet &a, const ReadSet &b)
{
    ASSERT_EQ(a.reads.size(), b.reads.size());
    for (size_t i = 0; i < a.reads.size(); i++) {
        EXPECT_EQ(a.reads[i].bases, b.reads[i].bases) << "read " << i;
        EXPECT_EQ(a.reads[i].quals, b.reads[i].quals) << "read " << i;
        EXPECT_EQ(a.reads[i].header, b.reads[i].header) << "read " << i;
    }
}

// ---------------------------------------------------------------------
// Round trips across chunk sizes
// ---------------------------------------------------------------------

class ChunkedRoundTrip : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(ChunkedRoundTrip, ShortReadsLossless)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = GetParam();
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader reader(source);
    EXPECT_EQ(reader.info().params.version, kFormatVersionChunked);
    const uint64_t reads = ds.readSet.reads.size();
    const uint64_t chunk = GetParam();
    EXPECT_EQ(reader.chunkCount(), (reads + chunk - 1) / chunk);
    const ReadSet back = reader.decodeAll();
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST_P(ChunkedRoundTrip, LongReadsLossless)
{
    DatasetSpec spec = makeTinySpec(true);
    spec.sequencer.chimeraProb = 0.3;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = GetParam();
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

// Chunk of 1 read (one chunk per read), a prime size that never divides
// the read count evenly, and a mid-size many-chunk configuration.
INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedRoundTrip,
                         ::testing::Values(1u, 7u, 64u));

TEST(ChunkedArchive, ExactlyOneChunkWhenSizeMatchesReadCount)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads =
        static_cast<uint32_t>(ds.readSet.reads.size());
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader reader(source);
    EXPECT_EQ(reader.chunkCount(), 1u);
    const ReadSet back = reader.decodeAll();
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(ChunkedArchive, EscapeReadsCrossChunks)
{
    // Many N-reads force escape payloads; tiny chunks make escape-
    // stream offsets matter on nearly every boundary.
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.nReadProb = 0.3;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 5;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
}

TEST(ChunkedArchive, EmptyReadSetStillChunked)
{
    ReadSet rs;
    rs.name = "empty";
    const std::string consensus(1000, 'A');
    SageConfig config;
    config.chunkReads = 16;
    const SageArchive archive = sageCompress(rs, consensus, config);
    const ReadSet back = sageDecompress(archive.bytes);
    EXPECT_TRUE(back.reads.empty());
}

TEST(ChunkedArchive, StreamingNextMatchesDecodeAllAcrossChunks)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 13;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader a(source), b(source);
    ASSERT_GT(a.chunkCount(), 1u);
    const ReadSet all = b.decodeAll();
    size_t i = 0;
    while (a.hasNext()) {
        const Read read = a.next();
        ASSERT_LT(i, all.reads.size());
        EXPECT_EQ(read.bases, all.reads[i].bases);
        EXPECT_EQ(read.quals, all.reads[i].quals);
        i++;
    }
    EXPECT_EQ(i, all.reads.size());
}

// ---------------------------------------------------------------------
// v1 backward compatibility
// ---------------------------------------------------------------------

TEST(ChunkedArchive, V1ArchiveStillDecodes)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 0; // Legacy single-stream layout.
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const MemorySource source(archive.bytes);
    SageReader reader(source);
    EXPECT_EQ(reader.info().params.version, kFormatVersionLegacy);
    EXPECT_FALSE(reader.info().streamSizes.count("chunks"));
    EXPECT_EQ(reader.chunkCount(), 1u);
    const ReadSet back = reader.decodeAll();
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));

    // The parallel entry point degrades gracefully on one chunk.
    ThreadPool pool(4);
    SageReader par(source);
    expectSameReads(par.decodeAll(&pool), back);
}

// ---------------------------------------------------------------------
// Parallel decode == sequential decode
// ---------------------------------------------------------------------

TEST(ParallelDecode, MatchesSequentialReadSet)
{
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.nReadProb = 0.05; // Exercise escapes too.
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 9;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    const MemorySource source(archive.bytes);
    SageReader seq(source);
    ASSERT_GT(seq.chunkCount(), 1u);
    const ReadSet expect = seq.decodeAll();

    ThreadPool pool(4);
    SageReader par(source);
    const ReadSet got = par.decodeAll(&pool);
    expectSameReads(got, expect);
}

TEST(ParallelDecode, RestoresPreservedOrder)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 11;
    config.preserveOrder = true;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    ThreadPool pool(4);
    const MemorySource source(archive.bytes);
    SageReader par(source);
    ASSERT_GT(par.chunkCount(), 1u);
    const ReadSet got = par.decodeAll(&pool);
    ASSERT_EQ(got.reads.size(), ds.readSet.reads.size());
    for (size_t i = 0; i < got.reads.size(); i++) {
        EXPECT_EQ(got.reads[i].bases, ds.readSet.reads[i].bases);
        EXPECT_EQ(got.reads[i].quals, ds.readSet.reads[i].quals);
        EXPECT_EQ(got.reads[i].header, ds.readSet.reads[i].header);
    }
}

TEST(ParallelDecode, MatchesSequentialPacked)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 7;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    const MemorySource source(archive.bytes);
    SageReaderOptions dna;
    dna.dnaOnly = true;
    SageReader seq(source, dna);
    const auto expect = seq.decodeAllPacked(OutputFormat::TwoBit);

    ThreadPool pool(4);
    SageReader par(source, dna);
    const auto got = par.decodeAllPacked(OutputFormat::TwoBit, &pool);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); i++)
        EXPECT_EQ(got[i], expect[i]) << "read " << i;
}

TEST(ParallelDecode, LongChimericReads)
{
    DatasetSpec spec = makeTinySpec(true);
    spec.sequencer.chimeraProb = 0.4;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 6;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    const MemorySource source(archive.bytes);
    SageReader seq(source);
    const ReadSet expect = seq.decodeAll();

    ThreadPool pool(3);
    SageReader par(source);
    expectSameReads(par.decodeAll(&pool), expect);
}

TEST(ParallelDecode, EveryOptimizationLevel)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    ThreadPool pool(4);
    for (unsigned level = 0; level <= 4; level++) {
        SageConfig config = SageConfig::atLevel(level);
        config.chunkReads = 10;
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);
        const MemorySource source(archive.bytes);
        SageReader seq(source);
        const ReadSet expect = seq.decodeAll();
        SageReader par(source);
        const ReadSet got = par.decodeAll(&pool);
        ASSERT_EQ(got.reads.size(), expect.reads.size())
            << "level " << level;
        for (size_t i = 0; i < got.reads.size(); i++) {
            EXPECT_EQ(got.reads[i].bases, expect.reads[i].bases)
                << "level " << level << " read " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Chunk table plumbing
// ---------------------------------------------------------------------

TEST(ChunkTableSer, RoundTrip)
{
    ChunkTable table;
    table.entries.resize(3);
    table.entries[0].readCount = 64;
    table.entries[1].readCount = 64;
    table.entries[2].readCount = 17;
    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        table.entries[1].offsets[s] = 100 + s;
        table.entries[2].offsets[s] = 100000 + 257 * s;
    }
    const ChunkTable back = ChunkTable::deserialize(table.serialize());
    ASSERT_EQ(back.entries.size(), table.entries.size());
    for (size_t c = 0; c < back.entries.size(); c++) {
        EXPECT_EQ(back.entries[c].readCount,
                  table.entries[c].readCount);
        EXPECT_EQ(back.entries[c].offsets, table.entries[c].offsets);
    }
}

TEST(ChunkTableSer, ChunkedArchiveIsOnlyMarginallyLarger)
{
    // The chunk table + per-chunk alignment padding must stay a small
    // tax relative to the unchunked archive.
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig v1;
    v1.chunkReads = 0;
    SageConfig v2;
    v2.chunkReads = 32;
    const SageArchive a1 = sageCompress(ds.readSet, ds.reference, v1);
    const SageArchive a2 = sageCompress(ds.readSet, ds.reference, v2);
    EXPECT_LT(static_cast<double>(a2.bytes.size()),
              1.05 * static_cast<double>(a1.bytes.size()));
}

// ---------------------------------------------------------------------
// Lazy quality: blocks decode on first use, on every decode path
// ---------------------------------------------------------------------

using Record = std::tuple<std::string, std::string, std::string>;

/** (header, bases, quals) of each read, in order. */
std::vector<Record>
records(const std::vector<Read> &reads)
{
    std::vector<Record> out;
    out.reserve(reads.size());
    for (const Read &read : reads)
        out.emplace_back(read.header, read.bases, read.quals);
    return out;
}

/** records(), sorted: compares stored-order output with the input. */
std::vector<Record>
sortedRecords(const std::vector<Read> &reads)
{
    std::vector<Record> out = records(reads);
    std::sort(out.begin(), out.end());
    return out;
}

/** A tiny-spec archive in 64-read chunks whose 997-character quality
 *  blocks leave many reads straddling a block boundary (and long reads
 *  spanning several). */
struct LazyQualityArchive
{
    explicit LazyQualityArchive(bool long_reads)
        : ds(synthesizeDataset(makeTinySpec(long_reads)))
    {
        SageConfig config;
        config.chunkReads = 64;
        config.quality.blockChars = 997;
        config.preserveOrder = true;
        bytes = sageCompress(ds.readSet, ds.reference, config).bytes;
    }

    SimulatedDataset ds;
    std::vector<uint8_t> bytes;
};

TEST(LazyQuality, EveryDecodePathMatchesInput)
{
    ThreadPool pool(4);
    for (const bool long_reads : {false, true}) {
        SCOPED_TRACE(long_reads ? "long reads" : "short reads");
        const LazyQualityArchive archive(long_reads);
        const ReadSet &input = archive.ds.readSet;
        ASSERT_FALSE(input.reads.front().quals.empty());
        const std::vector<Record> expected = sortedRecords(input.reads);
        const MemorySource source(archive.bytes);

        {
            SageReader reader(source);
            ASSERT_GT(reader.chunkCount(), 1u);
            std::vector<Read> reads;
            while (reader.hasNext())
                reads.push_back(reader.next());
            EXPECT_EQ(sortedRecords(reads), expected) << "next()";
        }
        for (ThreadPool *decode_pool : {static_cast<ThreadPool *>(nullptr),
                                        &pool}) {
            SCOPED_TRACE(decode_pool ? "pooled" : "serial");
            SageReader reader(source);
            expectSameReads(reader.decodeAll(decode_pool), input);
            // Host fields are copied, not moved out: a range decode after
            // decodeAll still returns headers and quality.
            EXPECT_EQ(sortedRecords(
                          reader.decodeRange(0, reader.chunkCount())
                              .reads),
                      expected)
                << "decodeRange after decodeAll";
        }
        {
            SageReader reader(source);
            EXPECT_EQ(sortedRecords(
                          reader.decodeRange(0, reader.chunkCount())
                              .reads),
                      expected)
                << "decodeRange";
        }
        {
            const std::unique_ptr<SageDecoder> decoder =
                orExit(SageDecoder::tryOpen(source));
            std::vector<Read> reads;
            for (size_t c = decoder->chunkCount(); c-- > 0;) {
                StatusOr<std::vector<Read>> chunk =
                    decoder->tryDecodeChunkShared(c);
                ASSERT_TRUE(chunk.ok()) << chunk.status().toString();
                reads.insert(reads.end(), chunk.value().begin(),
                             chunk.value().end());
            }
            EXPECT_EQ(sortedRecords(reads), expected)
                << "tryDecodeChunkShared, last chunk first";
        }
    }
}

TEST(LazyQuality, ConcurrentFirstTouchMatchesSerial)
{
    const LazyQualityArchive archive(false);
    const MemorySource source(archive.bytes);
    const std::unique_ptr<SageDecoder> serial =
        orExit(SageDecoder::tryOpen(source));
    const size_t chunks = serial->chunkCount();
    std::vector<std::vector<Record>> expected;
    for (size_t c = 0; c < chunks; c++) {
        StatusOr<std::vector<Read>> reads = serial->tryDecodeChunkShared(c);
        ASSERT_TRUE(reads.ok()) << reads.status().toString();
        expected.push_back(records(reads.value()));
    }

    // A fresh decoder: every quality block is first touched by racing
    // threads, each walking all chunks in its own order.
    const std::unique_ptr<SageDecoder> shared =
        orExit(SageDecoder::tryOpen(source));
    constexpr unsigned kThreads = 8;
    std::vector<std::vector<std::vector<Record>>> got(
        kThreads, std::vector<std::vector<Record>>(chunks));
    std::vector<std::string> errors(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            std::vector<size_t> order(chunks);
            std::iota(order.begin(), order.end(), size_t{0});
            std::shuffle(order.begin(), order.end(), std::mt19937(t));
            while (!go.load())
                std::this_thread::yield();
            for (const size_t c : order) {
                StatusOr<std::vector<Read>> reads =
                    shared->tryDecodeChunkShared(c);
                if (!reads.ok()) {
                    errors[t] = reads.status().toString();
                    return;
                }
                got[t][c] = records(reads.value());
            }
        });
    }
    go.store(true);
    for (std::thread &thread : threads)
        thread.join();

    for (unsigned t = 0; t < kThreads; t++) {
        SCOPED_TRACE("thread " + std::to_string(t));
        EXPECT_EQ(errors[t], "");
        for (size_t c = 0; c < chunks; c++)
            EXPECT_TRUE(got[t][c] == expected[c]) << "chunk " << c;
    }
}

// ---------------------------------------------------------------------
// Lazy headers: a chunk's header block decodes on its first use
// ---------------------------------------------------------------------

TEST(LazyHeaders, ConcurrentFirstTouchMatchesSerial)
{
    // Headers of about 100 bytes in 64-read chunks: a header block
    // ends at the first chunk boundary past 32 KiB of text, so each of
    // the 5 blocks is shared by about 6 chunks. On a fresh decoder,
    // racing threads first-touch every block from chunks that share
    // it, through both chunk loops, and get the serial result.
    SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    for (size_t i = 0; i < ds.readSet.reads.size(); i++) {
        std::string &header = ds.readSet.reads[i].header;
        header += ' ';
        header.append(100 - std::min<size_t>(header.size(), 99),
                      static_cast<char>('a' + i % 26));
    }
    SageConfig config;
    config.chunkReads = 64;
    const std::vector<uint8_t> bytes =
        sageCompress(ds.readSet, ds.reference, config).bytes;
    const HeaderArchive headers = unpackHeaders(
        StreamBundle::deserialize(bytes).stream("headers"),
        ds.readSet.reads.size());
    ASSERT_EQ(headers.blocks.size(), 5u);

    const MemorySource source(bytes);
    const std::unique_ptr<SageDecoder> serial =
        orExit(SageDecoder::tryOpen(source));
    const size_t chunks = serial->chunkCount();
    ASSERT_GT(chunks, 2 * headers.blocks.size());
    std::vector<std::vector<Record>> expected;
    for (size_t c = 0; c < chunks; c++) {
        StatusOr<std::vector<Read>> reads = serial->tryDecodeChunkShared(c);
        ASSERT_TRUE(reads.ok()) << reads.status().toString();
        expected.push_back(records(reads.value()));
    }

    const std::unique_ptr<SageDecoder> shared =
        orExit(SageDecoder::tryOpen(source));
    constexpr unsigned kThreads = 8;
    std::vector<std::vector<std::vector<Record>>> got(
        kThreads, std::vector<std::vector<Record>>(chunks));
    std::vector<std::string> errors(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            std::vector<size_t> order(chunks);
            std::iota(order.begin(), order.end(), size_t{0});
            std::shuffle(order.begin(), order.end(), std::mt19937(t));
            while (!go.load())
                std::this_thread::yield();
            for (const size_t c : order) {
                // Odd threads take the columnar loop.
                if (t % 2 == 1) {
                    ReadColumns columns;
                    const Status status =
                        shared->tryDecodeChunkShared(c, columns);
                    if (!status.ok()) {
                        errors[t] = status.toString();
                        return;
                    }
                    for (size_t i = 0; i < columns.size(); i++) {
                        const ReadView read = columns[i];
                        got[t][c].emplace_back(std::string(read.header),
                                               std::string(read.bases),
                                               std::string(read.quals));
                    }
                    continue;
                }
                StatusOr<std::vector<Read>> reads =
                    shared->tryDecodeChunkShared(c);
                if (!reads.ok()) {
                    errors[t] = reads.status().toString();
                    return;
                }
                got[t][c] = records(reads.value());
            }
        });
    }
    go.store(true);
    for (std::thread &thread : threads)
        thread.join();

    for (unsigned t = 0; t < kThreads; t++) {
        SCOPED_TRACE("thread " + std::to_string(t));
        EXPECT_EQ(errors[t], "");
        for (size_t c = 0; c < chunks; c++)
            EXPECT_TRUE(got[t][c] == expected[c]) << "chunk " << c;
    }
}

/** Fold each read's header, bases and quality, each ending in a
 *  newline, into @p crc. */
void
addRead(Crc32 &crc, const ReadView &read)
{
    const uint8_t newline = '\n';
    for (const std::string_view field :
         {read.header, read.bases, read.quals}) {
        crc.update(reinterpret_cast<const uint8_t *>(field.data()),
                   field.size());
        crc.update(&newline, 1);
    }
}

TEST(LegacyQuality, CommittedArchivesDecodeToTheirDigests)
{
    // Archives committed before header blocks and the per-chunk
    // quality framing: each header stream is one bare gpzip container,
    // and each quality stream stores every read's length. The first two
    // were written before quality blocks moved to rANS, so every block
    // is range-coded; the other two hold the same reads in rANS blocks.
    // In the small-blocks pair 3 chunks hold blocks that start
    // mid-read. All decode to the reads they held when written (CRC-32
    // of the reads in stored order, taken with the decoder that came
    // with them), through SageReader and through the columnar chunk
    // loop.
    struct Case
    {
        const char *file;
        size_t chunks;
        size_t reads;
        uint32_t digest;
        uint8_t codec;
    };
    for (const Case &c :
         {Case{"tiny.sage", 1, 4, 0x63a542f3u, 0},
          Case{"tiny_small_quality_blocks.sage", 3, 20, 0x0e504066u, 0},
          Case{"tiny_rans.sage", 1, 4, 0x63a542f3u, 1},
          Case{"tiny_rans_small_blocks.sage", 3, 20, 0x0e504066u, 1}}) {
        SCOPED_TRACE(c.file);
        const std::vector<uint8_t> bytes = corpusFile(c.file);
        const StreamBundle bundle = StreamBundle::deserialize(bytes);
        ASSERT_EQ(bundle.stream("headers")[0], 'G') << "a gpzip container";
        ASSERT_NE(bundle.stream("quality")[0], 0) << "per-read framing";
        const QualityArchive quality = unpackQuality(bundle.stream("quality"));
        ASSERT_EQ(quality.readLengths.size(), c.reads);
        for (const std::vector<uint8_t> &block : quality.blocks)
            ASSERT_EQ(block[0], c.codec) << "the block's codec";
        const MemorySource source(bytes);
        {
            SageReader reader(source);
            ASSERT_EQ(reader.chunkCount(), c.chunks);
            Crc32 crc;
            size_t reads = 0;
            for (size_t k = 0; k < reader.chunkCount(); k++) {
                for (const Read &read : reader.readChunk(k)) {
                    addRead(crc, read);
                    reads++;
                }
            }
            EXPECT_EQ(reads, c.reads);
            EXPECT_EQ(crc.value(), c.digest) << "SageReader";
        }
        const std::unique_ptr<SageDecoder> decoder =
            orExit(SageDecoder::tryOpen(source));
        Crc32 crc;
        for (size_t k = 0; k < decoder->chunkCount(); k++) {
            ReadColumns columns;
            ASSERT_TRUE(decoder->tryDecodeChunkShared(k, columns).ok());
            for (size_t i = 0; i < columns.size(); i++)
                addRead(crc, columns[i]);
        }
        EXPECT_EQ(crc.value(), c.digest) << "columns";
    }
}

// ---------------------------------------------------------------------
// One chunk fetch behind every decode path
// ---------------------------------------------------------------------

/** Counts the reads made through it; offers the inner source's views
 *  only when asked to. */
class CountingSource final : public ByteSource
{
  public:
    CountingSource(const ByteSource &inner, bool views)
        : inner_(inner), views_(views)
    {}

    uint64_t size() const override { return inner_.size(); }
    void
    readAt(uint64_t offset, void *dst, size_t size) const override
    {
        singles_++;
        inner_.readAt(offset, dst, size);
    }
    const uint8_t *
    view(uint64_t offset, size_t size) const override
    {
        return views_ ? inner_.view(offset, size) : nullptr;
    }
    void
    readBatch(const Extent *extents, size_t count) const override
    {
        batches_++;
        inner_.readBatch(extents, count);
    }
    Status
    tryReadAt(uint64_t offset, void *dst, size_t size) const override
    {
        singles_++;
        return inner_.tryReadAt(offset, dst, size);
    }
    Status
    tryReadBatch(const Extent *extents, size_t count) const override
    {
        batches_++;
        return inner_.tryReadBatch(extents, count);
    }
    std::string describe() const override { return "<counting>"; }

    void
    reset()
    {
        singles_ = 0;
        batches_ = 0;
    }
    uint64_t singles() const { return singles_; }
    uint64_t batches() const { return batches_; }

  private:
    const ByteSource &inner_;
    const bool views_;
    mutable std::atomic<uint64_t> singles_{0}, batches_{0};
};

/** Reads made by one decode path's full walk, counted after open. */
struct WalkReads
{
    std::string path;
    uint64_t singles = 0;
    uint64_t batches = 0;
};

/** Walk a fresh reader (or decoder) over @p source with every decode
 *  path. */
std::vector<WalkReads>
countWalkReads(CountingSource &source)
{
    ThreadPool pool(3);
    ThreadPool prefetch(1);
    SageReaderOptions prefetching;
    prefetching.prefetchPool = &prefetch;
    const auto on_reader = [&](SageReaderOptions options,
                               std::function<void(SageReader &)> walk) {
        return [&source, options, walk] {
            SageReader reader(source, options);
            source.reset();
            walk(reader);
        };
    };
    const std::vector<std::pair<std::string, std::function<void()>>>
        paths = {
            {"next", on_reader({}, [](SageReader &r) {
                 while (r.hasNext())
                     r.next();
             })},
            {"decodeRange", on_reader({}, [](SageReader &r) {
                 r.decodeRange(0, r.chunkCount());
             })},
            {"decodeRange+pool", on_reader({}, [&](SageReader &r) {
                 r.decodeRange(0, r.chunkCount(), &pool);
             })},
            {"decodeAll",
             on_reader({}, [](SageReader &r) { r.decodeAll(); })},
            {"decodeAllPacked+pool", on_reader({}, [&](SageReader &r) {
                 r.decodeAllPacked(OutputFormat::TwoBit, &pool);
             })},
            {"tryDecodeChunkShared", [&source] {
                 const std::unique_ptr<SageDecoder> d =
                     orExit(SageDecoder::tryOpen(source));
                 source.reset();
                 for (size_t c = 0; c < d->chunkCount(); c++)
                     ASSERT_TRUE(d->tryDecodeChunkShared(c).ok());
             }},
            {"prefetch next", on_reader(prefetching, [](SageReader &r) {
                 while (r.hasNext())
                     r.next();
             })},
            {"prefetch decodeAll",
             on_reader(prefetching, [](SageReader &r) { r.decodeAll(); })},
        };
    std::vector<WalkReads> out;
    for (const auto &[name, walk] : paths) {
        walk();
        out.push_back({name, source.singles(), source.batches()});
    }
    return out;
}

/** A multi-chunk archive with escapes, quality and preserved order. */
std::vector<uint8_t>
fetchTestArchive()
{
    DatasetSpec spec = makeTinySpec(false);
    spec.sequencer.nReadProb = 0.05;
    const SimulatedDataset ds = synthesizeDataset(spec);
    SageConfig config;
    config.chunkReads = 11;
    config.preserveOrder = true;
    return sageCompress(ds.readSet, ds.reference, config).bytes;
}

TEST(ChunkFetch, ViewsMeanNoReads)
{
    const std::vector<uint8_t> bytes = fetchTestArchive();
    const MemorySource memory(bytes);
    CountingSource source(memory, /*views=*/true);
    for (const WalkReads &walk : countWalkReads(source)) {
        EXPECT_EQ(walk.singles, 0u) << walk.path;
        EXPECT_EQ(walk.batches, 0u) << walk.path;
    }
}

TEST(ChunkFetch, OneBatchedReadPerChunk)
{
    const std::vector<uint8_t> bytes = fetchTestArchive();
    const MemorySource memory(bytes);
    CountingSource source(memory, /*views=*/false);
    const size_t chunks = SageReader(memory).chunkCount();
    ASSERT_GT(chunks, 2u);
    for (const WalkReads &walk : countWalkReads(source)) {
        EXPECT_EQ(walk.singles, 0u) << walk.path;
        EXPECT_EQ(walk.batches, chunks) << walk.path;
    }
}

} // namespace
} // namespace sage
