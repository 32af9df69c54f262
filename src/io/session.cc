#include "io/session.hh"

#include <iterator>

#include "compress/streams.hh"
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
    : source_(&source),
      decoder_(std::make_unique<SageDecoder>(source, options.dnaOnly,
                                             options.verifyChecksum))
{
    decoder_->setPrefetchPool(options.prefetchPool);
}

SageReader::SageReader(const std::string &path, SageReaderOptions options)
    : file_(std::make_unique<FileSource>(path)), source_(file_.get()),
      decoder_(std::make_unique<SageDecoder>(*file_, options.dnaOnly,
                                             options.verifyChecksum))
{
    decoder_->setPrefetchPool(options.prefetchPool);
}

Status
SageReader::verify() const
{
    return verifyArchiveChecksumStatus(*source_);
}

SageReader::~SageReader() = default;

std::vector<Read>
SageReader::readChunk(size_t chunk)
{
    return decoder_->decodeChunks(chunk, 1).reads;
}

ReadSet
SageReader::decodeRange(size_t first_chunk, size_t chunk_count,
                        ThreadPool *pool)
{
    return decoder_->decodeChunks(first_chunk, chunk_count, pool);
}

} // namespace sage
