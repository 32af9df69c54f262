/**
 * @file
 * Streaming session API — the preferred way to produce and consume
 * SAGe archives.
 *
 *   SageWriter writer("reads.sage");
 *   writer.add(read_set);
 *   SageWriteStats stats = writer.finish(reference);
 *
 *   SageReader reader("reads.sage");
 *   ReadSet some = reader.decodeRange(first_chunk, n_chunks, &pool);
 *
 * SageWriter wraps the encoder and streams the container to a ByteSink
 * (a file, a memory buffer, or a striped device set) without ever
 * materializing the serialized archive as one buffer. SageReader
 * parses only the header + chunk table from a ByteSource and fetches
 * per-chunk byte slices on demand, so chunk-range random access over a
 * FileSource never loads the full archive — the software analogue of
 * the paper's SAGe_Read/SAGe_Write interface (§5.4), and the layer the
 * Fig. 15 multi-SSD mode plugs into via StripedSource.
 *
 * The legacy whole-buffer calls (sageCompress/sageDecompress,
 * core/encoder.hh + core/decoder.hh) remain as thin compatibility
 * wrappers over the same machinery.
 *
 * Note on write granularity: the container's stream-table layout
 * groups each stream's chunks contiguously, so the writer can only
 * stream the file out at finish() (stream by stream), not one chunk at
 * a time; a chunk-major v3 layout would lift that. The read side is
 * fully chunk-granular today.
 */

#ifndef SAGE_IO_SESSION_HH
#define SAGE_IO_SESSION_HH

#include <memory>
#include <string_view>

#include "core/decoder.hh"
#include "core/encoder.hh"
#include "core/format.hh"
#include "io/byte_stream.hh"
#include "io/file_stream.hh"

namespace sage {

class ThreadPool;

/** Accounting returned by SageWriter::finish (cf. SageArchive, minus
 *  the resident bytes — those went to the sink). */
struct SageWriteStats
{
    /** Serialized container size (bytes delivered to the sink). */
    uint64_t archiveBytes = 0;

    /** Per-stream sizes (bytes) for the Fig. 17 breakdown. */
    std::map<std::string, uint64_t> streamSizes;

    /** Wall-clock split, for Fig. 18. */
    double mapSeconds = 0.0;
    double encodeSeconds = 0.0;
    double tuneSeconds = 0.0;  ///< Algorithm 1 share (§8.6).

    /** DNA-stream bytes (consensus + arrays + escapes). */
    uint64_t dnaBytes = 0;
    /** Quality-stream bytes. */
    uint64_t qualityBytes = 0;
    /** Host-side metadata bytes (headers, order). */
    uint64_t metaBytes = 0;
};

/** Write session: accumulate reads, encode once, stream to a sink. */
class SageWriter
{
  public:
    /** Write to @p sink (must outlive the writer). */
    explicit SageWriter(ByteSink &sink, SageConfig config = {});

    /** Write to a file (owned FileSink; fatal naming the path). */
    explicit SageWriter(const std::string &path, SageConfig config = {});

    ~SageWriter();

    SageWriter(const SageWriter &) = delete;
    SageWriter &operator=(const SageWriter &) = delete;

    /** Queue one read for encoding. */
    void add(Read read);

    /** Queue a whole read set (copies the reads). */
    void add(const ReadSet &rs);

    /** Queue a whole read set without copying (moves the reads in) —
     *  keeps peak memory at one copy of the input, matching the old
     *  sageCompress(rs, ...) footprint. */
    void add(ReadSet &&rs);

    /** Reads queued so far. */
    uint64_t pendingReads() const { return pending_.reads.size(); }

    /**
     * Encode everything queued against @p consensus and stream the
     * container to the sink (flushed). One-shot: the writer is spent
     * afterwards.
     */
    SageWriteStats finish(std::string_view consensus,
                          ThreadPool *pool = nullptr);

  private:
    std::unique_ptr<FileSink> file_;  ///< Owned for the path ctor.
    ByteSink *sink_;
    SageConfig config_;
    ReadSet pending_;
    bool finished_ = false;
};

/** Read-session options. */
struct SageReaderOptions
{
    /** Skip host-side header/quality streams (accelerator prep path). */
    bool dnaOnly = false;
    /** Stream the whole archive through CRC32 before decoding. Off by
     *  default: it reads every byte, defeating chunk-range laziness.
     *  (The legacy sageDecompress wrapper always verifies.) */
    bool verifyChecksum = false;
    /**
     * Prefetch-next-chunk mode, on when set: a task on this pool opens
     * chunk i+1 through the source while chunk i decodes, overlapping
     * real FileSource/StripedSource I/O with decode on the sequential
     * paths (next(), decodeRange()/decodeAll() without a decode pool).
     * Byte-identical output; pointless over a MemorySource (chunk
     * fetches are zero-copy views there anyway). The pool must outlive
     * the reader; one thread is plenty (the task blocks on I/O), and
     * sharing it across many short-lived readers amortizes thread
     * startup.
     */
    ThreadPool *prefetchPool = nullptr;
};

/**
 * Read session over a SAGe archive: header + chunk table up front,
 * per-chunk byte slices on demand.
 */
class SageReader
{
  public:
    /** Read through @p source (must outlive the reader). */
    explicit SageReader(const ByteSource &source,
                        SageReaderOptions options = {});

    /** Read from a file (owned FileSource; fatal naming the path). */
    explicit SageReader(const std::string &path,
                        SageReaderOptions options = {});

    ~SageReader();

    SageReader(const SageReader &) = delete;
    SageReader &operator=(const SageReader &) = delete;

    /** Structural info (sizes, params). */
    const ArchiveInfo &info() const { return decoder_->info(); }

    /** Number of independently decodable chunks (1 for v1 archives). */
    size_t chunkCount() const { return decoder_->chunkCount(); }

    /** Total reads in the archive. */
    uint64_t readCount() const { return info().params.numReads; }

    /** Reads stored in chunk @p chunk / its first stored-order index. */
    uint64_t
    chunkReadCount(size_t chunk) const
    {
        return decoder_->chunkReadCount(chunk);
    }
    uint64_t
    chunkFirstRead(size_t chunk) const
    {
        return decoder_->chunkFirstRead(chunk);
    }

    /**
     * Random access: decode chunk @p chunk alone, fetching only its
     * byte slices. Repeatable — reading the same chunk twice yields
     * identical reads (headers/quality included).
     */
    std::vector<Read> readChunk(size_t chunk);

    /**
     * Decode chunks [@p first_chunk, @p first_chunk + @p chunk_count)
     * in stored order, optionally chunk-parallel across @p pool. The
     * result equals the matching slice of decodeAll() on an archive
     * without a preserved-order permutation (the permutation is global,
     * so ranges always come back in stored order).
     */
    ReadSet decodeRange(size_t first_chunk, size_t chunk_count,
                        ThreadPool *pool = nullptr);

    /** True while sequential reads remain. */
    bool hasNext() const { return decoder_->hasNext(); }

    /** Decode the next read in stored order. */
    Read next() { return decoder_->next(); }

    /** Decode everything (restores preserved order; one-shot). */
    ReadSet
    decodeAll(ThreadPool *pool = nullptr)
    {
        return decoder_->decodeAll(pool);
    }

    /** Decode everything into packed analysis format (one-shot). */
    std::vector<std::vector<uint8_t>>
    decodeAllPacked(OutputFormat fmt, ThreadPool *pool = nullptr)
    {
        return decoder_->decodeAllPacked(fmt, pool);
    }

    /** Per-chunk compressed DNA bytes (chunk fetch cost). */
    std::vector<uint64_t>
    chunkCompressedBytes() const
    {
        return decoder_->chunkCompressedBytes();
    }

    /**
     * Stream the whole archive through the CRC32 trailer check and
     * report the outcome as a Status instead of dying: Corrupt on a
     * checksum mismatch, Truncated when the container cannot hold a
     * trailer, IoError when the bytes cannot be read. Reads every
     * byte; independent of decode state and repeatable.
     */
    Status verify() const;

  private:
    std::unique_ptr<FileSource> file_;  ///< Owned for the path ctor.
    const ByteSource *source_ = nullptr;
    std::unique_ptr<SageDecoder> decoder_;
};

} // namespace sage

#endif // SAGE_IO_SESSION_HH
