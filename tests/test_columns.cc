/**
 * @file
 * The decoder's two chunk loops agree. Every chunk decodes to the same
 * reads, or fails with the same StatusCode, through the per-read loop
 * (tryDecodeChunkShared into Reads) and the columnar loop (into
 * ReadColumns, the form the service caches): over short reads with
 * escapes, a chunk opened by a reverse-strand read, long reads, a
 * DNA-only decoder, an archive without quality, a v1 single-chunk
 * archive and bit-flipped archives. The columnar loop sizes its arenas
 * before the first read, so none of them re-grows; and the service's
 * cache charges each chunk its columns' capacity and keeps its
 * resident bytes inside the budget. Runs under the ASan/UBSan and TSan
 * presets in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/rng.hh"

namespace sage {
namespace {

/**
 * Expect an arena holding @p size bytes to have been sized once for
 * its chunk: its capacity is at most what the decoder reserves (the
 * size, rounded up to the arena granule past it) plus what an
 * allocator may round that up by. An arena that re-grew by doubling
 * overshoots by far more.
 */
void
expectSizedOnce(const std::string &arena, const char *name, size_t chunk)
{
    constexpr uint64_t kGranule = SageDecoder::kArenaGranule;
    const uint64_t size = arena.size();
    const uint64_t reserved =
        size < kGranule ? size : (size + kGranule - 1) / kGranule * kGranule;
    EXPECT_LE(arena.capacity(), reserved + 32)
        << name << " arena of chunk " << chunk << " holds " << size;
}

/**
 * Decode chunk @p c of @p decoder through both loops, expect the same
 * reads (or the same StatusCode), and expect every arena of the
 * columns to have been sized once. Returns the columnar outcome.
 */
StatusOr<ReadColumns>
decodeBothWays(const SageDecoder &decoder, size_t c)
{
    const StatusOr<std::vector<Read>> reads =
        decoder.tryDecodeChunkShared(c);
    ReadColumns columns;
    const Status status = decoder.tryDecodeChunkShared(c, columns);
    const StatusCode want =
        reads.ok() ? StatusCode::Ok : reads.status().code();
    EXPECT_EQ(status.code(), want)
        << "chunk " << c << ": per-read loop "
        << (reads.ok() ? std::string("ok") : reads.status().toString())
        << ", columnar loop " << status.toString();
    if (!status.ok())
        return status;
    if (!reads.ok())
        return reads.status();

    EXPECT_EQ(columns.size(), reads->size()) << "chunk " << c;
    size_t mismatches = 0;
    for (size_t i = 0; i < columns.size() && i < reads->size(); i++) {
        const ReadView got = columns[i];
        const Read &read = (*reads)[i];
        mismatches += got.header != read.header ||
                      got.bases != read.bases || got.quals != read.quals;
    }
    EXPECT_EQ(mismatches, 0u) << "chunk " << c;
    expectSizedOnce(columns.bases, "bases", c);
    expectSizedOnce(columns.quals, "quality", c);
    expectSizedOnce(columns.headers, "header", c);
    EXPECT_EQ(columns.ends.capacity(), columns.ends.size())
        << "chunk " << c;
    return columns;
}

/** decodeBothWays() over every chunk, each expected to decode. */
void
expectEveryChunkAgrees(const SageDecoder &decoder)
{
    for (size_t c = 0; c < decoder.chunkCount(); c++) {
        const StatusOr<ReadColumns> columns = decodeBothWays(decoder, c);
        EXPECT_TRUE(columns.ok())
            << "chunk " << c << ": " << columns.status().toString();
    }
}

/** An RS2-like read set, scaled down to a few thousand reads. */
SimulatedDataset
rs2LikeDataset()
{
    DatasetSpec spec = makeRs2Spec();
    spec.seed = 5;
    spec.genome.referenceLength = 40000;
    return synthesizeDataset(spec);
}

std::vector<uint8_t>
compressed(const SimulatedDataset &ds, uint32_t chunk_reads)
{
    SageConfig config;
    config.chunkReads = chunk_reads;
    return sageCompress(ds.readSet, ds.reference, config).bytes;
}

// ---------------------------------------------------------------------
// The two chunk loops
// ---------------------------------------------------------------------

TEST(ChunkLoops, Rs2LikeReadsWithEscapes)
{
    const std::vector<uint8_t> bytes = compressed(rs2LikeDataset(), 512);
    const MemorySource source(bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(source));
    ASSERT_GT(decoder->chunkCount(), 2u);
    ASSERT_GT(decoder->info().streamSizes.at("escape"), 0u);
    ASSERT_TRUE(decoder->info().params.hasQuality);
    expectEveryChunkAgrees(*decoder);
}

TEST(ChunkLoops, ReverseStrandReadOpensAChunk)
{
    // Reads cut from a random consensus and stored reverse-complemented
    // map to the reverse strand; every tenth carries an N and escapes
    // whole. A chunk whose first read is flipped must keep the bases
    // arena it reserved (decodeBothWays checks its capacity): flipping
    // the whole arena string would trade its buffer for the flip's
    // scratch, and the arena would re-grow from one read's size.
    Rng rng(23);
    std::string consensus;
    for (int i = 0; i < 20000; i++)
        consensus += "ACGT"[rng.nextBelow(4)];
    ReadSet rs;
    for (int i = 0; i < 160; i++) {
        std::string piece = consensus.substr(97 * i, 120);
        Read read;
        read.header = "rc" + std::to_string(i);
        if (i % 10 == 3) {
            piece[60] = 'N';
            read.bases = piece;
        } else {
            read.bases = reverseComplement(piece);
        }
        read.quals = std::string(120, "#+5?I"[i % 5]);
        rs.reads.push_back(std::move(read));
    }
    SageConfig config;
    config.chunkReads = 16;
    const std::vector<uint8_t> bytes =
        sageCompress(rs, consensus, config).bytes;
    const MemorySource source(bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(source));
    ASSERT_GT(decoder->info().streamSizes.at("escape"), 0u);

    size_t reverse_first = 0;
    for (size_t c = 0; c < decoder->chunkCount(); c++) {
        const StatusOr<ReadColumns> columns = decodeBothWays(*decoder, c);
        ASSERT_TRUE(columns.ok()) << columns.status().toString();
        ASSERT_FALSE(columns->empty());
        const std::string first((*columns)[0].bases);
        reverse_first +=
            consensus.find(first) == std::string::npos &&
            consensus.find(reverseComplement(first)) != std::string::npos;
    }
    EXPECT_GT(reverse_first, 0u);
}

TEST(ChunkLoops, LongReads)
{
    // RS4/RS5-like long reads vary in length, so the bases arena is
    // sized from a pass over the chunk's length streams; RS5's chimeras
    // add extra segments.
    for (DatasetSpec spec : {makeRs4Spec(), makeRs5Spec()}) {
        spec.genome.referenceLength = 1 << 17;
        spec.depth = 3.0;
        const std::vector<uint8_t> bytes =
            compressed(synthesizeDataset(spec), 8);
        const MemorySource source(bytes);
        const std::unique_ptr<SageDecoder> decoder =
            orExit(SageDecoder::tryOpen(source));
        ASSERT_FALSE(decoder->info().params.constantReadLength)
            << spec.name;
        ASSERT_GT(decoder->chunkCount(), 2u) << spec.name;
        expectEveryChunkAgrees(*decoder);
    }
}

TEST(ChunkLoops, DnaOnlyDecoder)
{
    const std::vector<uint8_t> bytes = compressed(rs2LikeDataset(), 512);
    const MemorySource source(bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(source, /*dna_only=*/true));
    expectEveryChunkAgrees(*decoder);
    const StatusOr<ReadColumns> columns = decodeBothWays(*decoder, 0);
    ASSERT_TRUE(columns.ok());
    EXPECT_TRUE(columns->headers.empty());
    EXPECT_TRUE(columns->quals.empty());
    EXPECT_FALSE(columns->bases.empty());
}

TEST(ChunkLoops, ArchiveWithoutQuality)
{
    SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    for (Read &read : ds.readSet.reads)
        read.quals.clear();
    const std::vector<uint8_t> bytes = compressed(ds, 256);
    const MemorySource source(bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(source));
    ASSERT_FALSE(decoder->info().params.hasQuality);
    expectEveryChunkAgrees(*decoder);
}

TEST(ChunkLoops, SingleChunkV1Archive)
{
    const std::vector<uint8_t> bytes =
        compressed(synthesizeDataset(makeTinySpec(false)), 0);
    const MemorySource source(bytes);
    const std::unique_ptr<SageDecoder> decoder =
        orExit(SageDecoder::tryOpen(source));
    ASSERT_LT(decoder->info().params.version, kFormatVersionChunked);
    ASSERT_EQ(decoder->chunkCount(), 1u);
    expectEveryChunkAgrees(*decoder);
}

TEST(ChunkLoops, BitFlipsGiveTheSameStatus)
{
    // One bit flipped in bytes spread over every stream: where the
    // archive still opens, each chunk fails with the same StatusCode
    // through both loops, or decodes to the same reads.
    const std::vector<uint8_t> bytes =
        compressed(synthesizeDataset(makeTinySpec(false)), 256);
    const size_t stride = std::max<size_t>(1, bytes.size() / 700);
    uint64_t failed = 0;
    for (size_t at = 0; at < bytes.size(); at += stride) {
        std::vector<uint8_t> flipped = bytes;
        flipped[at] ^= static_cast<uint8_t>(1u << (at % 8));
        const MemorySource source(flipped);
        const StatusOr<std::unique_ptr<SageDecoder>> opened =
            SageDecoder::tryOpen(source);
        if (!opened.ok())
            continue;
        for (size_t c = 0; c < (*opened)->chunkCount(); c++)
            failed += !decodeBothWays(**opened, c).ok();
    }
    EXPECT_GT(failed, 0u);
}

// ---------------------------------------------------------------------
// What a cached chunk is charged
// ---------------------------------------------------------------------

TEST(ChunkCharge, EachChunkIsChargedItsColumnsCapacity)
{
    // A budget that holds the whole archive: every chunk stays
    // resident, each is charged its columns' capacity, and the cache's
    // resident bytes are the sum of those charges.
    const std::vector<uint8_t> bytes = compressed(rs2LikeDataset(), 512);
    const MemorySource source(bytes);
    ServiceOptions options;
    options.cacheBudgetBytes = 1ull << 30;
    options.cacheShards = 2;
    options.ownedPoolThreads = 2;
    SageArchiveService service(source, options);

    uint64_t charged = 0;
    std::vector<RangeResult> held;
    for (size_t c = 0; c < service.chunkCount(); c++) {
        std::promise<RangeResult> done;
        service.submit(service.chunkFirstRead(c), service.chunkReadCount(c),
                       {}, [&done](RangeResult result) {
                           done.set_value(std::move(result));
                       });
        held.push_back(done.get_future().get());
        const RangeResult &result = held.back();
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result.runs.size(), 1u);
        const DecodedChunk &chunk = *result.runs[0].chunk;
        EXPECT_EQ(chunk.bytes, chunk.reads.capacityBytes()) << c;
        expectSizedOnce(chunk.reads.bases, "bases", c);
        charged += chunk.bytes;
    }
    const ChunkCacheStats stats = service.stats().cache;
    EXPECT_EQ(stats.residentChunks, service.chunkCount());
    EXPECT_EQ(stats.residentBytes, charged);
}

TEST(ChunkCharge, ResidentBytesNeverExceedTheBudget)
{
    // A budget of about two and a half chunks, and four clients reading
    // chunks concurrently: every chunk handed out is charged its
    // columns' capacity, and no snapshot finds more resident than the
    // budget.
    const std::vector<uint8_t> bytes = compressed(rs2LikeDataset(), 256);
    const MemorySource source(bytes);
    uint64_t chunk_bytes = 0;
    {
        const std::unique_ptr<SageDecoder> decoder =
            orExit(SageDecoder::tryOpen(source));
        ReadColumns columns;
        ASSERT_TRUE(decoder->tryDecodeChunkShared(0, columns).ok());
        chunk_bytes = columns.capacityBytes();
    }
    ServiceOptions options;
    options.cacheBudgetBytes = chunk_bytes * 5 / 2;
    options.cacheShards = 1;
    options.ownedPoolThreads = 4;
    SageArchiveService service(source, options);
    ASSERT_GT(service.chunkCount(), 4u);

    std::atomic<int> wrong_charges{0};
    std::atomic<int> over_budget{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < 4; t++) {
        clients.emplace_back([&, t] {
            Rng rng(100 + t);
            for (int i = 0; i < 24; i++) {
                const size_t c = rng.nextBelow(service.chunkCount());
                std::promise<RangeResult> done;
                service.submit(service.chunkFirstRead(c),
                               service.chunkReadCount(c), {},
                               [&done](RangeResult result) {
                                   done.set_value(std::move(result));
                               });
                const RangeResult result = done.get_future().get();
                for (const ReadRun &run : result.runs) {
                    wrong_charges +=
                        run.chunk->bytes != run.chunk->reads.capacityBytes();
                }
                over_budget += service.stats().cache.residentBytes >
                               options.cacheBudgetBytes;
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(wrong_charges.load(), 0);
    EXPECT_EQ(over_budget.load(), 0);
    const ChunkCacheStats stats = service.stats().cache;
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.residentBytes, options.cacheBudgetBytes);
}

} // namespace
} // namespace sage
