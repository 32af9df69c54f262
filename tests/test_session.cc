/**
 * @file
 * Tests for the streaming session API (io/session.hh): SageWriter
 * streaming archives to sinks/files, SageReader chunk-range random
 * access over files and striped sources, v1 compatibility, and the
 * corrupt/truncated error paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "core/sage.hh"
#include "io/striped.hh"
#include "simgen/synthesize.hh"
#include "util/thread_pool.hh"

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
expectSameReads(const std::vector<Read> &a, const std::vector<Read> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].bases, b[i].bases) << "read " << i;
        EXPECT_EQ(a[i].quals, b[i].quals) << "read " << i;
        EXPECT_EQ(a[i].header, b[i].header) << "read " << i;
    }
}

std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + "sage_session_" + name;
}

/** Scratch path unique to the running test: ctest runs every test as
 *  its own parallel process, so fixture files must not collide. */
std::string
perTestScratchPath(const std::string &suffix)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return scratchPath(std::string(info->test_suite_name()) + "_" +
                       info->name() + "_" + suffix);
}

/** Compress @p ds with @p config through the legacy one-call API. */
SageArchive
compress(const SimulatedDataset &ds, const SageConfig &config = {})
{
    return sageCompress(ds.readSet, ds.reference, config);
}

// ---------------------------------------------------------------------
// SageWriter
// ---------------------------------------------------------------------

TEST(SageWriterTest, MemorySinkMatchesLegacyCompressByteForByte)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive expect = compress(ds);

    MemorySink sink;
    SageWriter writer(sink);
    writer.add(ds.readSet);
    const SageWriteStats stats = writer.finish(ds.reference);

    // The streamed container is the same format, byte for byte.
    EXPECT_EQ(sink.bytes(), expect.bytes);
    EXPECT_EQ(stats.archiveBytes, expect.bytes.size());
    EXPECT_EQ(stats.streamSizes, expect.streamSizes);
    EXPECT_EQ(stats.dnaBytes, expect.dnaBytes);
    EXPECT_EQ(stats.qualityBytes, expect.qualityBytes);
    EXPECT_EQ(stats.metaBytes, expect.metaBytes);
}

TEST(SageWriterTest, FileSessionRoundTrip)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const std::string path = scratchPath("roundtrip.sage");

    SageWriter writer(path);
    for (const Read &read : ds.readSet.reads)
        writer.add(read); // One-at-a-time add() path.
    EXPECT_EQ(writer.pendingReads(), ds.readSet.reads.size());
    const SageWriteStats stats = writer.finish(ds.reference);

    FileSource file(path);
    EXPECT_EQ(file.size(), stats.archiveBytes);

    SageReader reader(path);
    EXPECT_EQ(reader.readCount(), ds.readSet.reads.size());
    const ReadSet back = reader.decodeAll();
    EXPECT_EQ(recordSet(back), recordSet(ds.readSet));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Chunk-range random access
// ---------------------------------------------------------------------

class RangeDecode : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ds_ = synthesizeDataset(makeTinySpec(false));
        SageConfig config;
        config.chunkReads = 13;
        archive_ = compress(ds_, config);
        path_ = perTestScratchPath("range.sage");
        {
            FileSink sink(path_);
            sink.writeBytes(archive_.bytes);
        }
    }

    void TearDown() override { std::remove(path_.c_str()); }

    SimulatedDataset ds_;
    SageArchive archive_;
    std::string path_;
};

TEST_F(RangeDecode, RangeEqualsMatchingDecodeAllSlice)
{
    // Stored-order reference via the whole-archive path.
    SageReader whole(path_);
    const size_t chunks = whole.chunkCount();
    ASSERT_GT(chunks, 2u);
    const ReadSet all = whole.decodeAll();

    SageReader reader(path_); // Fresh session for random access.
    for (size_t first = 0; first < chunks; first += 2) {
        for (size_t count : {size_t{1}, size_t{2}, chunks - first}) {
            if (count > chunks - first)
                continue;
            const ReadSet part = reader.decodeRange(first, count);
            const size_t base =
                static_cast<size_t>(reader.chunkFirstRead(first));
            ASSERT_LE(base + part.reads.size(), all.reads.size());
            for (size_t i = 0; i < part.reads.size(); i++) {
                EXPECT_EQ(part.reads[i].bases,
                          all.reads[base + i].bases)
                    << "chunk range [" << first << ", "
                    << first + count << ") read " << i;
                EXPECT_EQ(part.reads[i].quals,
                          all.reads[base + i].quals);
            }
        }
    }
}

TEST_F(RangeDecode, ParallelRangeMatchesSequentialRange)
{
    SageReader reader(path_);
    ASSERT_GT(reader.chunkCount(), 3u);
    ThreadPool pool(4);
    const ReadSet seq = reader.decodeRange(1, 3);
    const ReadSet par = reader.decodeRange(1, 3, &pool);
    expectSameReads(par.reads, seq.reads);
}

TEST_F(RangeDecode, ReadChunkIsRepeatable)
{
    SageReader reader(path_);
    ASSERT_GT(reader.chunkCount(), 1u);
    const std::vector<Read> once = reader.readChunk(1);
    const std::vector<Read> twice = reader.readChunk(1);
    ASSERT_FALSE(once.empty());
    // Headers and quality survive repeated random access (they are
    // copied, not moved, on this path).
    EXPECT_FALSE(once.front().header.empty());
    expectSameReads(twice, once);
    EXPECT_EQ(once.size(), reader.chunkReadCount(1));
}

TEST_F(RangeDecode, RangeDecodeTouchesOnlyItsChunks)
{
    // A reader over a file plus per-chunk fetch sizes: decoding one
    // chunk must not require the other chunks' bytes. Approximate by
    // checking the decoder's per-chunk costs cover the DNA payload and
    // that single-chunk decode works on every chunk independently.
    SageReader reader(path_);
    const auto chunk_bytes = reader.chunkCompressedBytes();
    ASSERT_EQ(chunk_bytes.size(), reader.chunkCount());
    uint64_t total = 0;
    for (uint64_t bytes : chunk_bytes)
        total += bytes;
    EXPECT_GT(total, 0u);
    EXPECT_LT(total, reader.info().totalCompressedBytes);
    for (size_t c = 0; c < reader.chunkCount(); c++) {
        const std::vector<Read> chunk = reader.readChunk(c);
        EXPECT_EQ(chunk.size(), reader.chunkReadCount(c));
    }
}

TEST_F(RangeDecode, OutOfRangeChunkDies)
{
    SageReader reader(path_);
    const size_t chunks = reader.chunkCount();
    EXPECT_DEATH({ auto rs = reader.decodeRange(chunks, 1); (void)rs; },
                 "out of bounds");
}

// ---------------------------------------------------------------------
// Sequential contract through the session
// ---------------------------------------------------------------------

TEST(SageReaderTest, NextWalkMatchesDecodeAll)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 9;
    const SageArchive archive = compress(ds, config);

    MemorySource source(archive.bytes);
    SageReader a(source);
    SageReader b(source);
    const ReadSet all = a.decodeAll();
    size_t i = 0;
    while (b.hasNext()) {
        const Read read = b.next();
        ASSERT_LT(i, all.reads.size());
        EXPECT_EQ(read.bases, all.reads[i].bases);
        EXPECT_EQ(read.quals, all.reads[i].quals);
        i++;
    }
    EXPECT_EQ(i, all.reads.size());
}

TEST(SageReaderTest, DnaOnlySkipsQuality)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = compress(ds);
    MemorySource source(archive.bytes);
    SageReaderOptions options;
    options.dnaOnly = true;
    SageReader reader(source, options);
    const ReadSet back = reader.decodeAll();
    ASSERT_FALSE(back.reads.empty());
    for (const Read &read : back.reads)
        EXPECT_TRUE(read.quals.empty());
}

// ---------------------------------------------------------------------
// v1 archives through the session API
// ---------------------------------------------------------------------

TEST(SageReaderTest, V1ArchiveDecodesAsOneChunk)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 0; // Legacy single-stream layout.
    const SageArchive archive = compress(ds, config);

    MemorySource source(archive.bytes);
    SageReader reader(source);
    EXPECT_EQ(reader.info().params.version, kFormatVersionLegacy);
    EXPECT_EQ(reader.chunkCount(), 1u);
    EXPECT_EQ(reader.chunkReadCount(0), ds.readSet.reads.size());

    const ReadSet ranged = reader.decodeRange(0, 1);
    EXPECT_EQ(recordSet(ranged), recordSet(ds.readSet));

    SageReader whole(source);
    EXPECT_EQ(recordSet(whole.decodeAll()), recordSet(ds.readSet));
}

// ---------------------------------------------------------------------
// Striped sources
// ---------------------------------------------------------------------

TEST(SageReaderTest, StripedDecodeByteIdenticalAcrossWidths)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 17;
    const SageArchive archive = compress(ds, config);

    MemorySource flat(archive.bytes);
    SageReaderOptions dna;
    dna.dnaOnly = true;
    SageReader reference(flat, dna);
    const auto expect = reference.decodeAllPacked(OutputFormat::TwoBit);

    ThreadPool pool(3);
    for (size_t width : {size_t{1}, size_t{2}, size_t{4}}) {
        const auto shards = stripeShards(archive.bytes, width, 512);
        std::vector<MemorySource> sources;
        sources.reserve(width);
        for (const auto &shard : shards)
            sources.emplace_back(shard);
        std::vector<const ByteSource *> refs;
        for (const auto &src : sources)
            refs.push_back(&src);
        StripedSource striped(std::move(refs), 512);

        SageReader reader(striped, dna);
        const auto got = reader.decodeAllPacked(OutputFormat::TwoBit,
                                                &pool);
        ASSERT_EQ(got.size(), expect.size()) << width << " stripes";
        for (size_t i = 0; i < got.size(); i++)
            EXPECT_EQ(got[i], expect[i])
                << width << " stripes, read " << i;
    }
}

// ---------------------------------------------------------------------
// Prefetch-next-chunk mode
// ---------------------------------------------------------------------

class PrefetchDecode : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ds_ = synthesizeDataset(makeTinySpec(false));
        SageConfig config;
        config.chunkReads = 11;
        config.preserveOrder = true;
        archive_ = compress(ds_, config);
        path_ = perTestScratchPath("prefetch.sage");
        {
            FileSink sink(path_);
            sink.writeBytes(archive_.bytes);
        }
    }

    void TearDown() override { std::remove(path_.c_str()); }

    SageReaderOptions
    prefetchOptions()
    {
        SageReaderOptions options;
        options.prefetchPool = &prefetchPool_;
        return options;
    }

    /** One thread is enough: the prefetch task blocks on I/O. */
    ThreadPool prefetchPool_{1};
    SimulatedDataset ds_;
    SageArchive archive_;
    std::string path_;
};

TEST_F(PrefetchDecode, DecodeAllOverFileSourceIsByteIdentical)
{
    SageReader plain(path_);
    const ReadSet expect = plain.decodeAll();

    SageReader prefetched(path_, prefetchOptions());
    ASSERT_GT(prefetched.chunkCount(), 2u);
    const ReadSet got = prefetched.decodeAll();
    expectSameReads(got.reads, expect.reads);
}

TEST_F(PrefetchDecode, NextWalkOverFileSourceIsByteIdentical)
{
    SageReader plain(path_);
    SageReader prefetched(path_, prefetchOptions());
    while (plain.hasNext()) {
        ASSERT_TRUE(prefetched.hasNext());
        const Read a = plain.next();
        const Read b = prefetched.next();
        EXPECT_EQ(b.bases, a.bases);
        EXPECT_EQ(b.quals, a.quals);
        EXPECT_EQ(b.header, a.header);
    }
    EXPECT_FALSE(prefetched.hasNext());
}

TEST_F(PrefetchDecode, RangeAndRandomAccessSurvivePrefetchMisses)
{
    SageReader plain(path_);
    SageReader prefetched(path_, prefetchOptions());
    const size_t chunks = plain.chunkCount();
    ASSERT_GT(chunks, 3u);

    // Out-of-order chunk access: every decode misses the prefetched
    // slot (it holds the *next* chunk), exercising the discard path.
    for (size_t c : {chunks - 1, size_t{0}, size_t{2}, size_t{1}}) {
        expectSameReads(prefetched.readChunk(c), plain.readChunk(c));
    }
    // Ranges, including one that rides the slot across chunks.
    const ReadSet a = plain.decodeRange(1, chunks - 1);
    const ReadSet b = prefetched.decodeRange(1, chunks - 1);
    expectSameReads(b.reads, a.reads);
}

TEST_F(PrefetchDecode, AbandonedPrefetchShutsDownCleanly)
{
    // Open, decode one chunk (leaving chunk 1's decode in flight or
    // ready), and destroy: the reader must drain the slot first.
    SageReader prefetched(path_, prefetchOptions());
    ASSERT_GT(prefetched.chunkCount(), 1u);
    const std::vector<Read> chunk = prefetched.readChunk(0);
    EXPECT_FALSE(chunk.empty());
}

TEST_F(PrefetchDecode, PrefetchOverMemorySourceIsByteIdentical)
{
    MemorySource source(archive_.bytes);
    SageReader plain(source);
    SageReader prefetched(source, prefetchOptions());
    const ReadSet expect = plain.decodeAll();
    const ReadSet got = prefetched.decodeAll();
    expectSameReads(got.reads, expect.reads);
}

TEST_F(PrefetchDecode, PrefetchComposesWithDecodePool)
{
    // A decode pool takes the parallel path (prefetcher idle); the
    // result must still match, and the reader must shut down cleanly
    // with both pools alive.
    SageReader plain(path_);
    const ReadSet expect = plain.decodeAll();
    ThreadPool pool(3);
    SageReader prefetched(path_, prefetchOptions());
    const ReadSet got = prefetched.decodeAll(&pool);
    expectSameReads(got.reads, expect.reads);
}

// ---------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------

TEST(SageReaderTest, TruncatedArchiveFileDies)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = compress(ds);
    const std::string path = scratchPath("truncated.sage");
    {
        FileSink sink(path);
        sink.write(archive.bytes.data(), archive.bytes.size() / 2);
    }
    EXPECT_EXIT({ SageReader reader(path); },
                ::testing::ExitedWithCode(1), ".*");
    std::remove(path.c_str());
}

TEST(SageReaderTest, ChecksumOptionCatchesBitFlip)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageArchive archive = compress(ds);
    archive.bytes[archive.bytes.size() / 3] ^= 0x04;
    MemorySource source(archive.bytes);
    SageReaderOptions verify;
    verify.verifyChecksum = true;
    EXPECT_EXIT({ SageReader reader(source, verify); },
                ::testing::ExitedWithCode(1), "CRC mismatch");
}

TEST(SageReaderTest, MissingArchiveFileDiesWithPath)
{
    EXPECT_EXIT({ SageReader reader("/nonexistent/missing.sage"); },
                ::testing::ExitedWithCode(1), "missing.sage");
}

} // namespace
} // namespace sage
