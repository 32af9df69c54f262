#include "io/session.hh"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "compress/streams.hh"
#include "genomics/alphabet.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace sage {

SageWriter::SageWriter(ByteSink &sink, SageConfig config)
    : sink_(&sink), config_(config)
{
}

SageWriter::SageWriter(const std::string &path, SageConfig config)
    : file_(std::make_unique<FileSink>(path)), sink_(file_.get()),
      config_(config)
{
}

SageWriter::~SageWriter() = default;

void
SageWriter::add(Read read)
{
    sage_assert(!finished_, "add() after finish()");
    pending_.reads.push_back(std::move(read));
}

void
SageWriter::add(const ReadSet &rs)
{
    sage_assert(!finished_, "add() after finish()");
    pending_.reads.insert(pending_.reads.end(), rs.reads.begin(),
                          rs.reads.end());
    if (pending_.name.empty())
        pending_.name = rs.name;
}

void
SageWriter::add(ReadSet &&rs)
{
    sage_assert(!finished_, "add() after finish()");
    if (pending_.reads.empty()) {
        pending_ = std::move(rs);
        return;
    }
    pending_.reads.insert(
        pending_.reads.end(),
        std::make_move_iterator(rs.reads.begin()),
        std::make_move_iterator(rs.reads.end()));
}

SageWriteStats
SageWriter::finish(std::string_view consensus, ThreadPool *pool)
{
    sage_assert(!finished_, "finish() called twice");
    finished_ = true;

    StreamBundle bundle;
    const SageArchive accounting =
        sageEncodeToBundle(pending_, consensus, config_, pool, bundle);
    pending_ = ReadSet{};

    SageWriteStats stats;
    stats.archiveBytes = bundle.writeTo(*sink_);
    sink_->flush();
    stats.streamSizes = accounting.streamSizes;
    stats.mapSeconds = accounting.mapSeconds;
    stats.encodeSeconds = accounting.encodeSeconds;
    stats.tuneSeconds = accounting.tuneSeconds;
    stats.dnaBytes = accounting.dnaBytes;
    stats.qualityBytes = accounting.qualityBytes;
    stats.metaBytes = accounting.metaBytes;
    return stats;
}

SageReader::SageReader(const ByteSource &source,
                       SageReaderOptions options)
    : decoder_(orExit(SageDecoder::tryOpen(source, options.dnaOnly,
                                           options.verifyChecksum))),
      prefetchPool_(options.prefetchPool)
{
}

SageReader::SageReader(const std::string &path, SageReaderOptions options)
    : file_(std::make_unique<FileSource>(path)),
      decoder_(orExit(SageDecoder::tryOpen(*file_, options.dnaOnly,
                                           options.verifyChecksum))),
      prefetchPool_(options.prefetchPool)
{
}

SageReader::~SageReader()
{
    // An in-flight prefetch decodes through decoder_; wait it out.
    if (prefetch_.valid())
        prefetch_.wait();
}

std::vector<Read>
SageReader::decodeChunk(size_t chunk)
{
    // Double buffering: take the chunk decoded behind the previous one
    // (or decode in line on a miss — first chunk, or a jump), and put
    // the slot to work on chunk+1 meanwhile. Speculate only while
    // access looks sequential (first decode, successor of the last
    // one, or a prefetch hit): scattered random access would otherwise
    // pay a wasted chunk decode per call.
    std::future<StatusOr<std::vector<Read>>> prefetched;
    if (prefetchPool_) {
        if (prefetch_.valid() && prefetchChunk_ == chunk) {
            prefetched = std::move(prefetch_);
        } else if (prefetch_.valid() &&
                   prefetch_.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready) {
            // A jump left this speculation behind. One still running
            // is left to finish rather than waited for.
            prefetch_ = {};
        }
        const bool sequential = prefetched.valid() ||
            lastChunk_ == SIZE_MAX || chunk == lastChunk_ + 1;
        lastChunk_ = chunk;
        if (sequential && !prefetch_.valid() && chunk + 1 < chunkCount()) {
            // A failed decode waits in the slot; it is reported only
            // if the walk reaches that chunk.
            using Task = std::packaged_task<StatusOr<std::vector<Read>>()>;
            auto task = std::make_shared<Task>(
                [decoder = decoder_.get(), next = chunk + 1] {
                    return decoder->tryDecodeChunkShared(next);
                });
            prefetch_ = task->get_future();
            prefetchChunk_ = chunk + 1;
            prefetchPool_->submit([task] { (*task)(); });
        }
    }
    StatusOr<std::vector<Read>> decoded =
        prefetched.valid() ? prefetched.get()
                           : decoder_->tryDecodeChunkShared(chunk);
    if (!decoded.ok() && prefetch_.valid())
        prefetch_.wait();  // Exit with no decode still running.
    return orExit(std::move(decoded));
}

bool
SageReader::decodeOnPool(ThreadPool *pool, size_t first, size_t count,
                         const std::function<Status(size_t)> &decode)
{
    if (!pool || pool->threadCount() < 2 || count < 2)
        return false;
    // Chunks are independent slices: each worker decodes its own.
    std::vector<Status> failed(count);
    pool->parallelFor(count, [&](size_t i) {
        failed[i] = decode(first + i);
    });
    for (const Status &status : failed)
        orExit(status);
    return true;
}

void
SageReader::decodeInto(size_t first, size_t count, ThreadPool *pool,
                       Read *out)
{
    if (count == 0)
        return;
    const uint64_t base = chunkFirstRead(first);
    if (decodeOnPool(pool, first, count, [&](size_t chunk) {
            return decoder_->tryDecodeChunkShared(
                chunk, out + (chunkFirstRead(chunk) - base));
        }))
        return;
    for (size_t c = first; c < first + count; c++) {
        std::vector<Read> reads = decodeChunk(c);
        std::move(reads.begin(), reads.end(),
                  out + (chunkFirstRead(c) - base));
    }
}

void
SageReader::takeAll()
{
    current_.clear();
    currentAt_ = 0;
    nextChunk_ = chunkCount();
    taken_ = readCount();
}

std::vector<Read>
SageReader::readChunk(size_t chunk)
{
    sage_assert(chunk < chunkCount(), "chunk index out of range");
    return decodeChunk(chunk);
}

ReadSet
SageReader::decodeRange(size_t first_chunk, size_t chunk_count,
                        ThreadPool *pool)
{
    sage_assert(first_chunk <= chunkCount() &&
                chunk_count <= chunkCount() - first_chunk,
                "chunk range out of bounds");
    ReadSet rs;
    if (chunk_count == 0)
        return rs;
    const size_t last = first_chunk + chunk_count - 1;
    rs.reads.resize(static_cast<size_t>(chunkFirstRead(last) +
                                        chunkReadCount(last) -
                                        chunkFirstRead(first_chunk)));
    decodeInto(first_chunk, chunk_count, pool, rs.reads.data());
    return rs;
}

Read
SageReader::next()
{
    sage_assert(hasNext(), "reader exhausted");
    while (currentAt_ == current_.size()) {
        current_ = decodeChunk(nextChunk_++);
        currentAt_ = 0;
    }
    taken_++;
    return std::move(current_[currentAt_++]);
}

ReadSet
SageReader::decodeAll(ThreadPool *pool)
{
    const uint64_t taken = taken_;
    ReadSet rs;
    rs.reads.resize(static_cast<size_t>(readCount() - taken));
    // The rest of the chunk under the next() cursor, then every later
    // chunk.
    const size_t current = static_cast<size_t>(
        std::move(current_.begin() + currentAt_, current_.end(),
                  rs.reads.begin()) - rs.reads.begin());
    decodeInto(nextChunk_, chunkCount() - nextChunk_, pool,
               rs.reads.data() + current);
    takeAll();

    // The result holds the stored-order reads [taken, numReads); put
    // them in original order. order() is a permutation (checked at
    // open).
    const std::vector<uint32_t> &order = decoder_->order();
    if (!order.empty()) {
        constexpr uint32_t kTaken = UINT32_MAX;
        // by_original[o]: where in rs.reads the read of original index
        // o sits, or kTaken.
        std::vector<uint32_t> by_original(order.size(), kTaken);
        for (size_t i = 0; i < rs.reads.size(); i++)
            by_original[order[taken + i]] = static_cast<uint32_t>(i);
        std::vector<Read> restored;
        restored.reserve(rs.reads.size());
        for (uint32_t i : by_original) {
            if (i != kTaken)
                restored.push_back(std::move(rs.reads[i]));
        }
        rs.reads = std::move(restored);
    }
    return rs;
}

std::vector<std::vector<uint8_t>>
SageReader::decodeAllPacked(OutputFormat fmt, ThreadPool *pool)
{
    const uint64_t taken = taken_;
    std::vector<std::vector<uint8_t>> out(
        static_cast<size_t>(readCount() - taken));
    // Stored read index i lands at out[i - taken].
    const auto pack = [&](uint64_t index, const Read &read) {
        const OutputFormat effective =
            fmt == OutputFormat::TwoBit && !isAcgtOnly(read.bases)
                ? OutputFormat::ThreeBit : fmt;
        out[static_cast<size_t>(index - taken)] =
            packSequence(read.bases, effective);
    };
    const auto pack_chunk = [&](size_t chunk,
                                const std::vector<Read> &reads) {
        for (size_t r = 0; r < reads.size(); r++)
            pack(chunkFirstRead(chunk) + r, reads[r]);
    };
    for (size_t r = currentAt_; r < current_.size(); r++)
        pack(taken + (r - currentAt_), current_[r]);
    const size_t first = nextChunk_;
    const size_t count = chunkCount() - first;
    if (!decodeOnPool(pool, first, count, [&](size_t chunk) {
            StatusOr<std::vector<Read>> reads =
                decoder_->tryDecodeChunkShared(chunk);
            if (reads.ok())
                pack_chunk(chunk, reads.value());
            return reads.status();
        })) {
        for (size_t c = first; c < first + count; c++)
            pack_chunk(c, decodeChunk(c));
    }
    takeAll();
    return out;
}

ReadSet
sageDecompress(const std::vector<uint8_t> &archive)
{
    const MemorySource source(archive);
    SageReaderOptions options;
    options.verifyChecksum = true;
    SageReader reader(source, options);
    return reader.decodeAll();
}

Status
verifyArchive(const ByteSource &source)
{
    StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source, /*dna_only=*/false,
                             /*verify_checksum=*/true);
    if (!opened.ok())
        return opened.status();
    const SageDecoder &decoder = *opened.value();
    for (size_t c = 0; c < decoder.chunkCount(); c++) {
        StatusOr<std::vector<Read>> reads = decoder.tryDecodeChunkShared(c);
        if (!reads.ok()) {
            return Status(reads.status().code(),
                          "chunk " + std::to_string(c) + ": " +
                              reads.status().message());
        }
    }
    return Status();
}

} // namespace sage
