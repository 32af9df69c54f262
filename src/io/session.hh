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
 * SageReader is built on the decoder's two recoverable calls
 * (SageDecoder::tryOpen and tryDecodeChunkShared) and is where their
 * Status becomes a process exit: a bad archive or failed read exits 1
 * with the Status printed (util/status.hh: orExit). Callers that must
 * survive bad bytes use the decoder directly, or verifyArchive().
 *
 * The whole-buffer calls (sageCompress in core/encoder.hh,
 * sageDecompress here) remain as thin wrappers over the same
 * machinery.
 *
 * Note on write granularity: the container's stream-table layout
 * groups each stream's chunks contiguously, so the writer can only
 * stream the file out at finish() (stream by stream), not one chunk at
 * a time; a chunk-major v3 layout would lift that. The read side is
 * fully chunk-granular today.
 */

#ifndef SAGE_IO_SESSION_HH
#define SAGE_IO_SESSION_HH

#include <cstdint>
#include <functional>
#include <future>
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
    /** Wall time of pass 1 (sampling the field values) plus Algorithm 1
     *  tuning, taken inside the encode's DNA job while the quality jobs
     *  and the header gpzip share the cores: not the tuner's own cost. */
    double tuneSeconds = 0.0;

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
     *  (sageDecompress always verifies.) */
    bool verifyChecksum = false;
    /**
     * Prefetch-next-chunk mode, on when set: while the caller consumes
     * chunk i, a task on this pool decodes chunk i+1, overlapping real
     * FileSource/StripedSource I/O and decode with the caller's work
     * on the sequential paths (next(), readChunk(), and
     * decodeRange()/decodeAll()/decodeAllPacked() without a decode
     * pool). Byte-identical output. The pool must outlive the reader;
     * one thread is enough (one chunk is in flight at a time), and
     * sharing it across many short-lived readers amortizes thread
     * startup.
     */
    ThreadPool *prefetchPool = nullptr;
};

/**
 * Read session over a SAGe archive: header + chunk table up front,
 * per-chunk byte slices on demand. Every call that returns reads exits
 * the process (status 1, Status printed) when the archive turns out to
 * be corrupt or unreadable; so does opening one. One thread at a time.
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

    /** Waits out an in-flight prefetch. */
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
     * so ranges always come back in stored order). Independent of the
     * next() cursor and repeatable.
     */
    ReadSet decodeRange(size_t first_chunk, size_t chunk_count,
                        ThreadPool *pool = nullptr);

    /** True while sequential reads remain. */
    bool hasNext() const { return taken_ < readCount(); }

    /** Decode the next read in stored order. */
    Read next();

    /**
     * Decode every read not yet taken through next(). When the archive
     * preserved the original order, those reads come in their original
     * relative order: after n next() calls, the input's reads minus
     * the n taken, in input order. Otherwise they come in stored order.
     * With a pool, chunks decode in parallel; the result is identical.
     * Like next(), it uses the reads up: hasNext() is false afterwards.
     */
    ReadSet decodeAll(ThreadPool *pool = nullptr);

    /**
     * Decode every read not yet taken into packed analysis format, in
     * stored order — what SAGe_Read hands to an accelerator (paper
     * §5.4): per-read packed bases (3-bit for a read holding a non-ACGT
     * base when @p fmt is TwoBit). Optionally chunk-parallel, like
     * decodeAll(). Open with dnaOnly so no header or quality is
     * decoded on the way.
     */
    std::vector<std::vector<uint8_t>>
    decodeAllPacked(OutputFormat fmt, ThreadPool *pool = nullptr);

    /** Per-chunk compressed DNA bytes (chunk fetch cost). */
    std::vector<uint64_t>
    chunkCompressedBytes() const
    {
        return decoder_->chunkCompressedBytes();
    }

  private:
    /** Decode chunk @p chunk (< chunkCount()) through the prefetch
     *  slot: take its prefetched reads or decode in line, and while
     *  access looks sequential start decoding chunk @p chunk+1
     *  meanwhile. Exits on a failed decode. */
    std::vector<Read> decodeChunk(size_t chunk);

    /** When @p pool has several threads and [first, first + count)
     *  several chunks: run @p decode(chunk) for each chunk across the
     *  pool, exit on the first failure in chunk order once all are
     *  done, and return true. Otherwise return false, leaving the walk
     *  to the caller. */
    bool decodeOnPool(ThreadPool *pool, size_t first, size_t count,
                      const std::function<Status(size_t)> &decode);

    /** Decode chunks [first, first + count) into @p out[0..) in stored
     *  order: in place across @p pool (decodeOnPool), or in order
     *  through decodeChunk(). */
    void decodeInto(size_t first, size_t count, ThreadPool *pool,
                    Read *out);

    /** Mark every read taken (after decodeAll/decodeAllPacked). */
    void takeAll();

    std::unique_ptr<FileSource> file_;  ///< Owned for the path ctor.
    std::unique_ptr<SageDecoder> decoder_;
    ThreadPool *prefetchPool_ = nullptr;

    // Prefetch slot: chunk prefetchChunk_'s decode, running or done.
    std::future<StatusOr<std::vector<Read>>> prefetch_;
    size_t prefetchChunk_ = 0;
    /** Last chunk decodeChunk() served; SIZE_MAX before the first.
     *  Speculation continues only across sequential access. */
    size_t lastChunk_ = SIZE_MAX;

    // next() cursor: the chunk being walked and the reads taken.
    std::vector<Read> current_;
    size_t currentAt_ = 0;
    size_t nextChunk_ = 0;
    uint64_t taken_ = 0;
};

/**
 * One-call convenience: decode a resident SAGe archive into a ReadSet,
 * in original order when the archive preserved it. The container CRC
 * is checked first, so any bit flip exits before a read is produced.
 */
ReadSet sageDecompress(const std::vector<uint8_t> &archive);

/**
 * Check that a decode of @p source will succeed, without exiting: the
 * trailer checksum, then a full open (host streams included), then a
 * decode of every chunk. Returns the first failure's Status. Reads
 * every byte and decodes every read.
 */
Status verifyArchive(const ByteSource &source);

} // namespace sage

#endif // SAGE_IO_SESSION_HH
