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
 *     and event counts this decoder reports.
 *
 * The decoder reads the container through a ByteSource
 * (io/byte_stream.hh): params, chunk table and consensus are parsed up
 * front, while the 13 DNA streams are fetched per chunk, exactly when a
 * chunk is opened. Over a FileSource this decodes any chunk subrange
 * without ever loading the full archive; over a MemorySource the
 * per-chunk fetches are zero-copy views. A StripedSource
 * (io/striped.hh) serves chunk fetches from a device array (paper
 * Fig. 15).
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
 * decodeAllPacked() and decodeChunks() accept an optional ThreadPool
 * and fan chunks across it, preserving output order; the sequential
 * next() API walks the chunks in order. v1 archives load as a single
 * chunk.
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
     * service layer's decode-into-cache entry point. Unlike the other
     * decode calls this touches no sequential, prefetch or event
     * state, so any number of threads may call it concurrently on one
     * decoder, also alongside one thread using the other decode calls.
     * Each call fetches its own byte slices through the thread-safe
     * ByteSource and copies headers and quality out of the shared host
     * stores; the first call to need a quality block decodes it while
     * concurrent callers wait for that one decode. The same chunk
     * decodes repeatably. Decoded mismatch events are not added to
     * eventsDecoded().
     */
    std::vector<Read> decodeChunkShared(size_t chunk);

    /**
     * Non-fatal flavor of decodeChunkShared(): I/O failures and
     * corrupt chunk data come back as a Status instead of aborting,
     * so one bad chunk degrades one request, not the process. Same
     * thread-safety contract as decodeChunkShared().
     */
    StatusOr<std::vector<Read>> tryDecodeChunkShared(size_t chunk);

    /**
     * Decode every read not yet taken through next() into a ReadSet
     * (restores original order when the archive preserved it). With a
     * pool and a multi-chunk archive, chunks decode in parallel; the
     * result is identical to the sequential path. Like next(), it
     * advances the sequential cursor; headers and quality are copied,
     * so later decodeChunks() calls still return them.
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
     * pool) work through chunk i, a task on @p pool fetches chunk
     * i+1's byte slices through the ByteSource, so real FileSource /
     * StripedSource I/O overlaps decode — the host-software analogue
     * of the paper's NAND-streaming/decode double buffering (§5.2.2).
     * Output is byte-identical to non-prefetched decoding.
     *
     * The pool must outlive this decoder (one thread is enough: the
     * fetch task blocks on pread, not CPU). Pass nullptr to disable.
     * Chunk-parallel decodes ignore the prefetcher — their workers
     * already overlap fetch and decode per chunk.
     */
    void setPrefetchPool(ThreadPool *pool);

    /** Decoder working-set bytes: registers + consensus window model.
     *  (The HW streams the consensus; software keeps it resident.) */
    uint64_t workingSetBytes() const;

    /** Total mismatch events decoded so far (HW model input). */
    uint64_t eventsDecoded() const { return events_; }

  private:
    struct ChunkCursor;

    /** Per-chunk slice bounds resolved from the chunk table. */
    struct ChunkSlice
    {
        uint64_t readCount = 0;
        uint64_t firstRead = 0;  ///< Prefix sum of readCount.
        std::array<uint64_t, kChunkStreamCount> offsets{};
        std::array<uint64_t, kChunkStreamCount> sizes{};
    };

    /** One chunk's byte slices, owned (the prefetcher's payload). */
    struct ChunkBytes
    {
        std::array<std::vector<uint8_t>, kChunkStreamCount> streams;
    };

    /** tryOpen's blank instance; every member has a safe default. */
    SageDecoder() = default;

    void parseContainer(bool dna_only);

    /** Status-returning core of parseContainer: parses and validates
     *  untrusted container framing, stream tables and host streams. */
    Status tryParseContainer(bool dna_only);

    /** Synchronously read every stream slice of @p slice. */
    ChunkBytes fetchChunkBytes(const ChunkSlice &slice) const;

    /** Non-fatal fetch of every stream slice of @p slice. */
    StatusOr<ChunkBytes> tryFetchChunkBytes(const ChunkSlice &slice) const;

    /** Queue a background fetch of chunk @p chunk (requires an idle
     *  prefetch slot; callers take the slot first). */
    void startPrefetch(size_t chunk);

    /** Claim the prefetch slot: wait out any in-flight fetch, then
     *  move its payload into @p out when it was for @p chunk.
     *  Leaves the slot idle. Returns whether @p out was filled. */
    bool takePrefetched(size_t chunk, ChunkBytes &out);

    /** Open chunk @p index for sequential decode: consume a matching
     *  prefetched payload (or fetch in line), then kick off the fetch
     *  of chunk @p index+1 when prefetching is on. */
    std::unique_ptr<ChunkCursor> openChunk(size_t index);

    /** Position the sequential cursor on the next read (opening
     *  chunks as needed) and return it. Requires hasNext(). */
    ChunkCursor &advanceCursor();

    /** Decode one read's bases via @p cur, counting its mismatch
     *  events into @p events. */
    std::string decodeBases(ChunkCursor &cur, uint64_t &events) const;

    /** Decode one read via @p cur: its bases, plus the header and
     *  quality of stored-order read @p read_index copied from the host
     *  stores (decoding quality blocks on first use). */
    Read decodeOne(ChunkCursor &cur, uint64_t read_index,
                   uint64_t &events) const;

    /** True when a chunk range may fan out across @p pool. */
    bool canDecodeParallel(const ThreadPool *pool, size_t count) const;

    /** Fan chunks [first, first+count) across @p pool, calling
     *  body(cursor, index, events) for every read in stored order
     *  within its chunk (indices are disjoint across workers).
     *  Requires canDecodeParallel(pool, count). */
    template <typename Body>
    void decodeParallel(ThreadPool *pool, size_t first, size_t count,
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
    std::vector<uint32_t> order_;

    // Field codecs are immutable after construction and shared by all
    // chunk cursors (decode() is const and thread-safe).
    std::unique_ptr<const TunedFieldCodec> matchCodec_, lenCodec_,
        countCodec_, posCodec_, segposCodec_, seglenCodec_;

    std::vector<ChunkSlice> chunks_;
    std::unique_ptr<ChunkCursor> cursor_;  ///< Sequential next() state.
    size_t nextChunk_ = 0;                 ///< Next chunk to open.
    uint64_t emitted_ = 0;
    uint64_t events_ = 0;

    // Prefetch-next-chunk state: a one-deep slot (double buffering —
    // the chunk being decoded plus the chunk in flight, exactly the
    // paper's two decompression-window registers).
    enum class PrefetchState { Idle, InFlight, Ready };
    ThreadPool *prefetchPool_ = nullptr;
    std::mutex prefetchMutex_;
    std::condition_variable prefetchCv_;
    PrefetchState prefetchState_ = PrefetchState::Idle;
    size_t prefetchChunk_ = 0;      ///< Chunk the slot refers to.
    ChunkBytes prefetchBytes_;      ///< Payload when Ready.
    /** Last chunk openChunk() served; SIZE_MAX before the first open.
     *  Speculation continues only across sequential opens. */
    size_t lastOpenedChunk_ = SIZE_MAX;
};

/** One-call convenience: decode a SAGe archive into a ReadSet. */
ReadSet sageDecompress(const std::vector<uint8_t> &archive);

} // namespace sage

#endif // SAGE_CORE_DECODER_HH
