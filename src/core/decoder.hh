/**
 * @file
 * SAGe streaming decompressor.
 *
 * Mirrors the hardware datapath (paper §5.2): a Scan Unit walk over the
 * position arrays/guide arrays and a Read Construction Unit walk over
 * the consensus and MBTA, emitting one read at a time with only
 * sequential accesses. The same functional core backs:
 *   - SAGeSW (host software decompression, paper §7 config v), and
 *   - the hardware timing model (hw/), which replays the stream sizes
 *     this decoder reports and the bases it reconstructs.
 *
 * The decoder reads the container through a ByteSource
 * (io/byte_stream.hh): params, chunk table and consensus are parsed up
 * front, while the 13 DNA streams are fetched per chunk. Every decode
 * call opens its chunks through one non-fatal fetch: zero-copy views
 * where the source offers them (a MemorySource), and one batched read
 * for the rest (a FileSource coalesces it into preadv calls; a
 * StripedSource, io/striped.hh, serves it from a device array, paper
 * Fig. 15). Over a FileSource this decodes any chunk subrange without
 * ever loading the full archive. The Status-returning calls hand a
 * failed fetch back; the others die with its message.
 *
 * The host-side streams are loaded at open but not expanded per read.
 * Headers are gpzip-decoded into one text buffer indexed by line
 * starts. Quality keeps only its framing (compress/quality.hh:
 * QualityStore); each quality block range-decodes the first time a
 * decoded read needs it and then stays resident for the decoder's
 * lifetime (paper §5.1.5). Every decode call copies header and quality
 * fields out of these shared stores rather than using them up.
 *
 * Container v2 archives carry a chunk index (format.hh): each chunk is
 * an independently decodable slice of the read set, the software
 * analogue of the paper's per-Scan-Unit slices. decodeAll(),
 * decodeAllPacked() and decodeChunks() walk a chunk range in order, or
 * fan it across an optional ThreadPool, preserving output order; the
 * sequential next() API walks the chunks in order. v1 archives load as
 * a single chunk.
 *
 * Most users should prefer the session API (io/session.hh:
 * SageWriter/SageReader) over constructing a SageDecoder directly.
 */

#ifndef SAGE_CORE_DECODER_HH
#define SAGE_CORE_DECODER_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/format.hh"
#include "genomics/alphabet.hh"
#include "genomics/read.hh"
#include "io/byte_stream.hh"
#include "io/container.hh"

namespace sage {

class QualityStore;
class ThreadPool;

/** Per-archive structural info used by the hardware timing model. */
struct ArchiveInfo
{
    SageParams params;
    std::map<std::string, uint64_t> streamSizes;
    uint64_t totalCompressedBytes = 0;

    /** DNA-path bytes the accelerator must stream (no host streams). */
    uint64_t dnaStreamBytes() const;
};

/** Streaming decoder over a SAGe archive. */
class SageDecoder
{
  public:
    /**
     * Parse headers through @p source; cheap (the DNA streams are not
     * read until chunks are opened). The source must outlive us.
     *
     * @param dna_only skip the host-side quality/header streams: the
     *        read-mapping pipeline never touches quality scores (paper
     *        §5.1.5 — they are decoded lazily, per block, only around
     *        mismatches during later variant calling), so the prep
     *        stage feeding an accelerator decodes DNA alone. Reads then
     *        come back with empty headers and quality. A full decoder
     *        already defers quality blocks to first use; dna_only also
     *        skips loading the quality stream and decoding headers.
     * @param verify_checksum stream the whole archive through CRC32
     *        before decoding (reads every byte; defeats the streaming
     *        constructor's laziness, so it is opt-in here).
     */
    explicit SageDecoder(const ByteSource &source, bool dna_only = false,
                         bool verify_checksum = false);

    /**
     * Legacy whole-buffer constructor: wraps @p archive in a
     * MemorySource and always verifies the container CRC (matching the
     * historical sageDecompress contract: any bit flip is fatal before
     * any read is produced). The archive bytes must outlive us.
     */
    explicit SageDecoder(const std::vector<uint8_t> &archive,
                         bool dna_only = false);
    ~SageDecoder();

    /**
     * Non-fatal open over untrusted bytes: every framing field, stream
     * table entry and header stream is bounds-checked, and any
     * malformed or unreadable input comes back as a Status
     * (Truncated/Corrupt/IoError/...) instead of killing the process.
     * The serving path (and anything else that must survive a bad
     * archive) opens through here; the fatal constructors remain the
     * CLI/batch contract.
     */
    static StatusOr<std::unique_ptr<SageDecoder>>
    tryOpen(const ByteSource &source, bool dna_only = false,
            bool verify_checksum = false);

    /** Structural info (sizes, params). */
    const ArchiveInfo &info() const { return info_; }

    /** Number of independently decodable chunks (1 for v1 archives). */
    size_t chunkCount() const { return chunks_.size(); }

    /** Reads stored in chunk @p chunk. */
    uint64_t chunkReadCount(size_t chunk) const;

    /** Stored-order index of chunk @p chunk's first read. */
    uint64_t chunkFirstRead(size_t chunk) const;

    /** Per-chunk compressed DNA bytes (slice sizes summed across the
     *  13 streams) — the I/O cost of fetching each chunk, used by the
     *  pipeline model to overlap chunk I/O with decode. */
    std::vector<uint64_t> chunkCompressedBytes() const;

    /** True while reads remain. */
    bool hasNext() const { return emitted_ < info_.params.numReads; }

    /**
     * Decode the next read's bases (and quality if present).
     * Reads come out in stored order (matching-position order).
     */
    Read next();

    /**
     * Decode chunks [@p first, @p first + @p count) into stored-order
     * reads, fetching only those chunks' byte slices from the source.
     * Independent of the sequential next() cursor and repeatable: it
     * never consumes decoder state, so the same range can be decoded
     * twice. No original-order restoration (the permutation is global);
     * reads match the corresponding decodeAll() slice in stored order.
     * With a pool, chunks in the range decode in parallel.
     */
    ReadSet decodeChunks(size_t first, size_t count,
                         ThreadPool *pool = nullptr);

    /**
     * Decode chunk @p chunk alone into stored-order reads — the
     * service layer's decode-into-cache entry point. I/O failures and
     * corrupt chunk data come back as a Status instead of aborting, so
     * one bad chunk degrades one request, not the process. Unlike the
     * other decode calls this touches no sequential or prefetch state,
     * so any number of threads may call it concurrently on one
     * decoder, also alongside one thread using the other decode calls.
     * Each call opens its own chunk through the thread-safe ByteSource
     * and copies headers and quality out of the shared host stores;
     * the first call to need a quality block decodes it while
     * concurrent callers wait for that one decode. The same chunk
     * decodes repeatably.
     */
    StatusOr<std::vector<Read>> tryDecodeChunkShared(size_t chunk);

    /**
     * Decode every read not yet taken through next() into a ReadSet.
     * When the archive preserved the original order, those reads come
     * in their original relative order: after n next() calls, the
     * input's reads minus the n taken, in input order. Otherwise they
     * come in stored order. With a pool and a multi-chunk archive,
     * chunks decode in parallel; the result is identical to the
     * sequential path. Like next(), it advances the sequential cursor;
     * headers and quality are copied, so later decodeChunks() calls
     * still return them.
     */
    ReadSet decodeAll(ThreadPool *pool = nullptr);

    /**
     * Decode everything into packed analysis format — what SAGe_Read
     * hands to an accelerator (paper §5.4): per-read packed bases.
     * Optionally chunk-parallel, like decodeAll(). Decodes no header
     * or quality.
     */
    std::vector<std::vector<uint8_t>>
    decodeAllPacked(OutputFormat fmt, ThreadPool *pool = nullptr);

    /**
     * Enable prefetch-next-chunk mode: while the sequential decode
     * paths (next(), and decodeChunks()/decodeAll() without a decode
     * pool) work through chunk i, a task on @p pool opens chunk i+1
     * through the ByteSource, so real FileSource / StripedSource I/O
     * overlaps decode — the host-software analogue of the paper's
     * NAND-streaming/decode double buffering (§5.2.2). Output is
     * byte-identical to non-prefetched decoding; a failed background
     * open is reported only when the walk reaches that chunk.
     *
     * The pool must outlive this decoder (one thread is enough: the
     * open task blocks on pread, not CPU). Pass nullptr to disable.
     * Chunk-parallel decodes ignore the prefetcher — their workers
     * already overlap fetch and decode per chunk.
     */
    void setPrefetchPool(ThreadPool *pool);

    /** Decoder working-set bytes: registers + consensus window model.
     *  (The HW streams the consensus; software keeps it resident.) */
    uint64_t workingSetBytes() const;

  private:
    struct ChunkCursor;
    /** An opened chunk, or why it could not be opened. */
    using OpenedChunk = StatusOr<std::unique_ptr<ChunkCursor>>;

    /** Per-chunk slice bounds resolved from the chunk table. */
    struct ChunkSlice
    {
        uint64_t readCount = 0;
        uint64_t firstRead = 0;  ///< Prefix sum of readCount.
        std::array<uint64_t, kChunkStreamCount> offsets{};
        std::array<uint64_t, kChunkStreamCount> sizes{};
    };

    /** tryOpen's blank instance; every member has a safe default. */
    SageDecoder() = default;

    void parseContainer(bool dna_only);

    /** Status-returning core of parseContainer: parses and validates
     *  untrusted container framing, stream tables and host streams. */
    Status tryParseContainer(bool dna_only);

    /**
     * The one chunk fetch: open chunk @p chunk (< chunkCount()) for
     * decode, viewing its 13 stream slices where the source offers
     * views and fetching the rest in one tryReadBatch. Reads only
     * immutable decoder state, so any thread may call it.
     */
    OpenedChunk tryOpenChunk(size_t chunk) const;

    /** Queue a background open of chunk @p chunk (no-op while the
     *  prefetch slot is busy). */
    void startPrefetch(size_t chunk);

    /** Claim the prefetch slot: wait out an in-flight open of
     *  @p chunk, then hand back the slot's result when it was for
     *  @p chunk (nullopt otherwise). Leaves the slot idle unless
     *  another chunk's open is still in flight. */
    std::optional<OpenedChunk> takePrefetched(size_t chunk);

    /** Open chunk @p index for sequential decode: take a matching
     *  prefetched chunk (or open in line), then start opening chunk
     *  @p index+1 when prefetching is on. Fatal when the open failed. */
    std::unique_ptr<ChunkCursor> openChunk(size_t index);

    /** Position the sequential cursor on the next read (opening
     *  chunks as needed) and return it. Requires hasNext(). */
    ChunkCursor &advanceCursor();

    /** Decode one read's bases via @p cur. */
    std::string decodeBases(ChunkCursor &cur) const;

    /** Decode one read via @p cur: its bases, plus the header and
     *  quality of stored-order read @p read_index copied from the host
     *  stores (decoding quality blocks on first use). */
    Read decodeOne(ChunkCursor &cur, uint64_t read_index) const;

    /** Walk chunks [first, first+count), calling body(cursor, index)
     *  for every read in stored order within its chunk: in order
     *  through openChunk(), or across @p pool when it has more than
     *  one thread and the range more than one chunk (indices are
     *  disjoint across workers). */
    template <typename Body>
    void walkChunks(size_t first, size_t count, ThreadPool *pool,
                    const Body &body);

    /** Owned backing for the legacy vector constructor. */
    std::unique_ptr<MemorySource> ownedSource_;
    const ByteSource *source_ = nullptr;
    StreamDirectory dir_;
    /** Absolute extents of the 13 DNA streams, ChunkStreamIndex order. */
    std::array<StreamExtent, kChunkStreamCount> dnaExtents_{};

    ArchiveInfo info_;
    std::string consensus_;

    // Host-side stores, indexed by stored-order read index; empty in
    // DNA-only mode. Read i's header is the line at
    // [headerStarts_[i], headerStarts_[i + 1] - 1) of headerText_.
    std::vector<uint8_t> headerText_;
    std::vector<uint64_t> headerStarts_;
    /** Null when the archive has no quality scores. */
    std::unique_ptr<QualityStore> quals_;
    /** Original index of each stored-order read: a permutation of
     *  [0, numReads), checked at open. Empty when the archive did not
     *  preserve order. */
    std::vector<uint32_t> order_;

    // Field codecs are immutable after construction and shared by all
    // chunk cursors (decode() is const and thread-safe).
    std::unique_ptr<const TunedFieldCodec> matchCodec_, lenCodec_,
        countCodec_, posCodec_, segposCodec_, seglenCodec_;

    std::vector<ChunkSlice> chunks_;
    std::unique_ptr<ChunkCursor> cursor_;  ///< Sequential next() state.
    size_t nextChunk_ = 0;                 ///< Next chunk to open.
    uint64_t emitted_ = 0;

    // Prefetch-next-chunk state: a one-deep slot (double buffering —
    // the chunk being decoded plus the chunk in flight, exactly the
    // paper's two decompression-window registers).
    enum class PrefetchState { Idle, InFlight, Ready };
    ThreadPool *prefetchPool_ = nullptr;
    std::mutex prefetchMutex_;
    std::condition_variable prefetchCv_;
    PrefetchState prefetchState_ = PrefetchState::Idle;
    size_t prefetchChunk_ = 0;      ///< Chunk the slot refers to.
    std::optional<OpenedChunk> prefetched_;  ///< Result when Ready.
    /** Last chunk openChunk() served; SIZE_MAX before the first open.
     *  Speculation continues only across sequential opens. */
    size_t lastOpenedChunk_ = SIZE_MAX;
};

/** One-call convenience: decode a SAGe archive into a ReadSet. */
ReadSet sageDecompress(const std::vector<uint8_t> &archive);

} // namespace sage

#endif // SAGE_CORE_DECODER_HH
