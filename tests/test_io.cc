/**
 * @file
 * Tests for the io/ subsystem: ByteSource/ByteSink implementations
 * (memory, file, striped) and container-directory parsing over a
 * source (extents, lazy loads, checksum verification, error paths).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "compress/streams.hh"
#include "io/byte_stream.hh"
#include "io/container.hh"
#include "io/file_stream.hh"
#include "io/striped.hh"
#include "util/rng.hh"

namespace sage {
namespace {

/** Deterministic pseudo-random payload. */
std::vector<uint8_t>
pattern(size_t size, uint64_t seed = 1)
{
    Rng rng(seed);
    std::vector<uint8_t> out(size);
    for (auto &byte : out)
        byte = static_cast<uint8_t>(rng.nextBelow(256));
    return out;
}

/** @p size bytes at @p offset through tryRead; a failed Status fails
 *  the test. */
std::vector<uint8_t>
readSpan(const ByteSource &source, uint64_t offset, size_t size)
{
    std::vector<uint8_t> out;
    const Status status = source.tryRead(offset, size, out);
    EXPECT_TRUE(status.ok()) << status.toString();
    return out;
}

/** Every byte of @p source, through readSpan(). */
std::vector<uint8_t>
readWhole(const ByteSource &source)
{
    return readSpan(source, 0, static_cast<size_t>(source.size()));
}

/** Unique scratch path under the gtest temp dir. */
std::string
scratchPath(const std::string &name)
{
    return ::testing::TempDir() + "sage_io_" + name;
}

// ---------------------------------------------------------------------
// Memory source/sink
// ---------------------------------------------------------------------

TEST(MemoryStream, SourceReadsAndViews)
{
    const std::vector<uint8_t> data = pattern(1000);
    MemorySource source(data);
    EXPECT_EQ(source.size(), data.size());
    EXPECT_EQ(readWhole(source), data);
    EXPECT_EQ(readSpan(source, 17, 100),
              std::vector<uint8_t>(data.begin() + 17,
                                   data.begin() + 117));
    ASSERT_NE(source.view(5, 10), nullptr);
    EXPECT_EQ(source.view(5, 10), data.data() + 5);
    EXPECT_EQ(source.view(995, 10), nullptr); // Past the end.
}

TEST(MemoryStream, OwningSourceOutlivesInput)
{
    std::vector<uint8_t> data = pattern(64);
    const std::vector<uint8_t> copy = data;
    MemorySource source(std::move(data));
    EXPECT_EQ(readWhole(source), copy);
}

TEST(MemoryStream, OutOfRangeReadDies)
{
    const std::vector<uint8_t> data = pattern(16);
    MemorySource source(data);
    uint8_t buf[8];
    EXPECT_EXIT({ source.readAt(12, buf, 8); },
                ::testing::ExitedWithCode(1), "past end");
}

TEST(MemoryStream, SinkAccumulates)
{
    MemorySink sink;
    const std::vector<uint8_t> data = pattern(300);
    sink.write(data.data(), 100);
    sink.write(data.data() + 100, 200);
    EXPECT_EQ(sink.tell(), 300u);
    EXPECT_EQ(sink.bytes(), data);
}

// ---------------------------------------------------------------------
// File source/sink
// ---------------------------------------------------------------------

TEST(FileStream, SinkSourceRoundTrip)
{
    const std::string path = scratchPath("roundtrip.bin");
    // Mix small appends with one oversized write to cross the sink's
    // internal buffer boundary.
    const std::vector<uint8_t> data = pattern(700 * 1024);
    {
        FileSink sink(path);
        sink.write(data.data(), 10);
        sink.write(data.data() + 10, 300 * 1024);
        sink.write(data.data() + 10 + 300 * 1024,
                   data.size() - 10 - 300 * 1024);
        EXPECT_EQ(sink.tell(), data.size());
        sink.close();
    }
    FileSource source(path);
    EXPECT_EQ(source.size(), data.size());
    EXPECT_EQ(readWhole(source), data);
    // Random-access reads: small (cached) and large (direct).
    EXPECT_EQ(readSpan(source, 123, 45),
              std::vector<uint8_t>(data.begin() + 123,
                                   data.begin() + 168));
    EXPECT_EQ(readSpan(source, 650 * 1024, 2048),
              std::vector<uint8_t>(data.begin() + 650 * 1024,
                                   data.begin() + 650 * 1024 + 2048));
    EXPECT_EQ(readSpan(source, 100 * 1024, 200 * 1024),
              std::vector<uint8_t>(data.begin() + 100 * 1024,
                                   data.begin() + 300 * 1024));
    // Files cannot hand out stable views.
    EXPECT_EQ(source.view(0, 16), nullptr);
    std::remove(path.c_str());
}

TEST(FileStream, ReadBatchCoalescesArbitraryExtents)
{
    const std::string path = scratchPath("batch.bin");
    const std::vector<uint8_t> data = pattern(512 * 1024);
    {
        FileSink sink(path);
        sink.writeBytes(data);
    }
    FileSource source(path);

    // Extents deliberately out of order, adjacent, gapped below and
    // above the coalescing threshold, duplicated, and empty — the
    // batched read must behave exactly like per-extent readAt().
    struct Case
    {
        uint64_t offset;
        size_t size;
    };
    const std::vector<Case> cases = {
        {400 * 1024, 1000},  // Far extent first (sorting exercised).
        {0, 13},
        {13, 100},           // Adjacent to the previous one.
        {200, 50},           // Small gap: same preadv run.
        {90 * 1024, 4096},   // Gap > 64 KB: its own run.
        {0, 13},             // Duplicate of an earlier extent.
        {512 * 1024 - 7, 7}, // Runs to EOF exactly.
        {1000, 0},           // Empty extent is skipped.
    };
    std::vector<std::vector<uint8_t>> buffers;
    std::vector<ByteSource::Extent> extents;
    for (const Case &c : cases) {
        buffers.emplace_back(c.size, 0xAA);
        extents.push_back({c.offset, buffers.back().data(), c.size});
    }
    source.readBatch(extents.data(), extents.size());
    for (size_t i = 0; i < cases.size(); i++) {
        const std::vector<uint8_t> want(
            data.begin() + static_cast<ptrdiff_t>(cases[i].offset),
            data.begin() +
                static_cast<ptrdiff_t>(cases[i].offset + cases[i].size));
        EXPECT_EQ(buffers[i], want) << "extent " << i;
    }

    // Many small extents overflowing one iovec budget still complete.
    std::vector<std::vector<uint8_t>> many(300,
                                           std::vector<uint8_t>(16));
    std::vector<ByteSource::Extent> many_extents;
    for (size_t i = 0; i < many.size(); i++)
        many_extents.push_back({i * 32, many[i].data(), 16});
    source.readBatch(many_extents.data(), many_extents.size());
    for (size_t i = 0; i < many.size(); i++) {
        const std::vector<uint8_t> want(
            data.begin() + static_cast<ptrdiff_t>(i * 32),
            data.begin() + static_cast<ptrdiff_t>(i * 32 + 16));
        EXPECT_EQ(many[i], want) << "extent " << i;
    }
    std::remove(path.c_str());
}

TEST(FileStream, ReadBatchPastEndDiesWithPath)
{
    const std::string path = scratchPath("batch_short.bin");
    {
        FileSink sink(path);
        const std::vector<uint8_t> data = pattern(64);
        sink.writeBytes(data);
    }
    FileSource source(path);
    uint8_t buf[32];
    ByteSource::Extent extent{40, buf, 32};
    EXPECT_EXIT({ source.readBatch(&extent, 1); },
                ::testing::ExitedWithCode(1), "batch_short.bin");
    std::remove(path.c_str());
}

TEST(MemoryStream, ReadBatchMatchesPerExtentReads)
{
    const std::vector<uint8_t> data = pattern(4096);
    MemorySource source(data);
    std::vector<uint8_t> a(100), b(5), c(256);
    std::vector<ByteSource::Extent> extents = {
        {50, a.data(), a.size()},
        {0, b.data(), b.size()},
        {4096 - 256, c.data(), c.size()},
    };
    source.readBatch(extents.data(), extents.size());
    EXPECT_EQ(a, readSpan(source, 50, 100));
    EXPECT_EQ(b, readSpan(source, 0, 5));
    EXPECT_EQ(c, readSpan(source, 4096 - 256, 256));
}

TEST(FileStream, MissingFileDiesWithPath)
{
    EXPECT_EXIT({ FileSource source("/nonexistent/sage-no-such.bin"); },
                ::testing::ExitedWithCode(1), "sage-no-such.bin");
}

TEST(FileStream, ReadPastEndDiesWithPath)
{
    const std::string path = scratchPath("short.bin");
    {
        FileSink sink(path);
        const std::vector<uint8_t> data = pattern(32);
        sink.writeBytes(data);
    }
    FileSource source(path);
    uint8_t buf[64];
    EXPECT_EXIT({ source.readAt(0, buf, 64); },
                ::testing::ExitedWithCode(1), "short.bin");
    std::remove(path.c_str());
}

TEST(FileStream, UnwritablePathDies)
{
    EXPECT_EXIT({ FileSink sink("/nonexistent/dir/out.bin"); },
                ::testing::ExitedWithCode(1), "out.bin");
}

// ---------------------------------------------------------------------
// Striped source/sink
// ---------------------------------------------------------------------

class StripedRoundTrip
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>>
{};

TEST_P(StripedRoundTrip, ShardsReassembleExactly)
{
    const size_t stripes = std::get<0>(GetParam());
    const uint64_t stripe_bytes = std::get<1>(GetParam());
    const std::vector<uint8_t> data = pattern(1000);

    const auto shards = stripeShards(data, stripes, stripe_bytes);
    ASSERT_EQ(shards.size(), stripes);
    uint64_t total = 0;
    for (const auto &shard : shards)
        total += shard.size();
    EXPECT_EQ(total, data.size());

    std::vector<MemorySource> sources;
    sources.reserve(stripes);
    for (const auto &shard : shards)
        sources.emplace_back(shard);
    std::vector<const ByteSource *> refs;
    for (const auto &src : sources)
        refs.push_back(&src);
    StripedSource striped(std::move(refs), stripe_bytes);

    EXPECT_EQ(striped.size(), data.size());
    EXPECT_EQ(readWhole(striped), data);
    // Spans crossing several stripe boundaries.
    for (uint64_t offset : {0ull, 1ull, 63ull, 500ull, 990ull}) {
        const size_t size =
            static_cast<size_t>(std::min<uint64_t>(37, 1000 - offset));
        EXPECT_EQ(readSpan(striped, offset, size),
                  std::vector<uint8_t>(data.begin() + offset,
                                       data.begin() + offset + size))
            << "offset " << offset;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, StripedRoundTrip,
    ::testing::Values(std::make_tuple(size_t{1}, uint64_t{64}),
                      std::make_tuple(size_t{2}, uint64_t{64}),
                      std::make_tuple(size_t{4}, uint64_t{64}),
                      std::make_tuple(size_t{3}, uint64_t{7}),
                      std::make_tuple(size_t{4}, uint64_t{4096})));

TEST(Striped, SinkMatchesStripeShards)
{
    const std::vector<uint8_t> data = pattern(777);
    const auto expect = stripeShards(data, 3, 32);

    std::vector<MemorySink> sinks(3);
    std::vector<ByteSink *> refs = {&sinks[0], &sinks[1], &sinks[2]};
    StripedSink striped(std::move(refs), 32);
    // Write in awkward pieces; the split must be identical.
    striped.write(data.data(), 5);
    striped.write(data.data() + 5, 400);
    striped.write(data.data() + 405, data.size() - 405);
    EXPECT_EQ(striped.tell(), data.size());
    for (size_t d = 0; d < 3; d++)
        EXPECT_EQ(sinks[d].bytes(), expect[d]) << "shard " << d;
}

TEST(Striped, ViewWithinOneStripeIsZeroCopy)
{
    const std::vector<uint8_t> data = pattern(256);
    const auto shards = stripeShards(data, 2, 64);
    MemorySource a(shards[0]), b(shards[1]);
    StripedSource striped({&a, &b}, 64);
    // Inside stripe 1 (bytes 64..127 live on shard b at offset 0).
    const uint8_t *view = striped.view(70, 20);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(std::vector<uint8_t>(view, view + 20),
              std::vector<uint8_t>(data.begin() + 70,
                                   data.begin() + 90));
    // Crossing the 128-byte boundary cannot be a contiguous view.
    EXPECT_EQ(striped.view(120, 20), nullptr);
}

TEST(Striped, MismatchedShardSizesDie)
{
    const std::vector<uint8_t> data = pattern(300);
    auto shards = stripeShards(data, 2, 64);
    shards[1].push_back(0); // No valid 2-way layout has this split.
    MemorySource a(shards[0]), b(shards[1]);
    EXPECT_EXIT({ StripedSource striped({&a, &b}, 64); },
                ::testing::ExitedWithCode(1), "stripe shard");
}

// ---------------------------------------------------------------------
// Stream directory
// ---------------------------------------------------------------------

StreamBundle
makeBundle()
{
    StreamBundle bundle;
    bundle.stream("alpha") = pattern(100, 3);
    bundle.stream("beta") = {};
    bundle.stream("gamma") = pattern(5000, 4);
    return bundle;
}

TEST(StreamDirectory, ExtentsMatchSerializedBundle)
{
    const StreamBundle bundle = makeBundle();
    const std::vector<uint8_t> bytes = bundle.serialize();
    MemorySource source(bytes);

    const StatusOr<StreamDirectory> parsed = StreamDirectory::tryParse(source);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const StreamDirectory &dir = parsed.value();
    EXPECT_EQ(dir.sizes(), bundle.sizes());
    EXPECT_TRUE(dir.has("beta"));
    EXPECT_FALSE(dir.has("delta"));
    std::vector<uint8_t> payload;
    for (const char *name : {"alpha", "beta", "gamma"}) {
        ASSERT_TRUE(dir.tryLoad(source, name, payload).ok()) << name;
        EXPECT_EQ(payload, bundle.stream(name)) << name;
    }
    EXPECT_EQ(dir.tryLoad(source, "delta", payload).code(),
              StatusCode::Corrupt);
}

TEST(StreamDirectory, WriteToMatchesSerialize)
{
    const StreamBundle bundle = makeBundle();
    MemorySink sink;
    const uint64_t written = bundle.writeTo(sink);
    EXPECT_EQ(written, sink.bytes().size());
    EXPECT_EQ(sink.bytes(), bundle.serialize());
}

TEST(StreamDirectory, ChecksumDetectsCorruption)
{
    const StreamBundle bundle = makeBundle();
    std::vector<uint8_t> bytes = bundle.serialize();
    EXPECT_TRUE(verifyArchiveChecksum(MemorySource(bytes)).ok());
    bytes[bytes.size() / 2] ^= 0x10;
    EXPECT_EQ(verifyArchiveChecksum(MemorySource(bytes)).code(),
              StatusCode::Corrupt);
}

TEST(StreamDirectory, TruncatedContainerIsTruncated)
{
    const StreamBundle bundle = makeBundle();
    std::vector<uint8_t> bytes = bundle.serialize();
    bytes.resize(bytes.size() / 2);
    MemorySource source(bytes);
    const StatusOr<StreamDirectory> parsed = StreamDirectory::tryParse(source);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::Truncated)
        << parsed.status().toString();
}

TEST(StreamDirectory, EmptyInputIsTruncated)
{
    const std::vector<uint8_t> empty;
    MemorySource source(empty);
    const StatusOr<StreamDirectory> parsed = StreamDirectory::tryParse(source);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::Truncated);
    EXPECT_NE(parsed.status().message().find("too small"),
              std::string::npos)
        << parsed.status().toString();
}

} // namespace
} // namespace sage
