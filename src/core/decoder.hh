/**
 * @file
 * SAGe decompressor: an opened archive and its one decode call.
 *
 * Mirrors the hardware datapath (paper §5.2): a Scan Unit walk over the
 * position arrays/guide arrays and a Read Construction Unit walk over
 * the consensus and MBTA, emitting the reads of one chunk in stored
 * order with only sequential accesses. The same functional core backs:
 *   - SAGeSW (host software decompression, paper §7 config v), and
 *   - the hardware timing model (hw/), which replays the stream sizes
 *     this decoder reports and the bases it reconstructs.
 *
 * SageDecoder::tryOpen parses params, chunk table and consensus through
 * a ByteSource (io/byte_stream.hh) and checks every framing field; the
 * 13 DNA streams are fetched per chunk by tryDecodeChunkShared: zero-
 * copy views where the source offers them (a MemorySource), and one
 * batched read for the rest (a FileSource coalesces it into preadv
 * calls; a StripedSource, io/striped.hh, serves it from a device
 * array, paper Fig. 15). Over a FileSource this decodes any chunk
 * without ever loading the full archive. Both calls report bad bytes
 * and failed reads as a Status; nothing here exits.
 *
 * The two host-side streams are loaded at open, but only their tables
 * are read, so open does no work per read (but for the optional order
 * stream, and the per-read lengths of a quality stream written before
 * the per-chunk framing). Both are cut into blocks that decode the
 * first time a chunk needs them and then stay resident for the
 * decoder's lifetime (paper §5.1.5): a chunk's headers lie in one
 * gpzip block (compress/headers.hh: HeaderStore), and its quality in
 * rANS blocks (compress/quality.hh: QualityStore), each read taking as
 * many characters as it has bases. Every decode copies header and
 * quality fields out of these shared stores rather than using them up.
 * A chunk decodes into Reads, or into ReadColumns (genomics/read.hh:
 * one arena per field, the form the archive service caches) with no
 * allocation per read; both loops run the same per-read steps.
 *
 * Container v2 archives carry a chunk index (format.hh): each chunk is
 * an independently decodable slice of the read set, the software
 * analogue of the paper's per-Scan-Unit slices. v1 archives load as a
 * single chunk. Nothing in an opened decoder changes afterwards (the
 * host blocks' first-use decode aside, which is internally
 * synchronized), so one decoder serves any number of threads.
 *
 * Sequential walks, whole-archive decodes, original-order restore and
 * chunk prefetch live one layer up, in the session API (io/session.hh:
 * SageReader), which most users should prefer.
 */

#ifndef SAGE_CORE_DECODER_HH
#define SAGE_CORE_DECODER_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/format.hh"
#include "genomics/alphabet.hh"
#include "genomics/read.hh"
#include "io/byte_stream.hh"
#include "io/container.hh"

namespace sage {

class HeaderStore;
class QualityStore;
struct ChunkQuality;

/** Per-archive structural info used by the hardware timing model. */
struct ArchiveInfo
{
    SageParams params;
    std::map<std::string, uint64_t> streamSizes;
    uint64_t totalCompressedBytes = 0;

    /** DNA-path bytes the accelerator must stream (no host streams). */
    uint64_t dnaStreamBytes() const;
};

/** An opened SAGe archive: structure accessors and per-chunk decode. */
class SageDecoder
{
  public:
    /**
     * Open an archive through @p source, which must outlive the
     * decoder. Cheap: the DNA streams are not read until a chunk is
     * decoded, and no header or quality block decodes. Every framing
     * field, stream table entry and host-stream table is
     * bounds-checked, and any malformed or unreadable input comes back
     * as a Status (Truncated/Corrupt/IoError/...). A damaged header or
     * quality block fails only the chunks it covers, when they decode.
     *
     * @param dna_only skip the host-side quality/header streams: the
     *        read-mapping pipeline never touches quality scores (paper
     *        §5.1.5 — they are decoded lazily, per block, only around
     *        mismatches during later variant calling), so the prep
     *        stage feeding an accelerator decodes DNA alone. Reads then
     *        come back with empty headers and quality. A full decoder
     *        already defers header and quality blocks to first use;
     *        dna_only also skips loading those two streams.
     * @param verify_checksum stream the whole archive through CRC32
     *        before parsing (reads every byte, so it is opt-in).
     */
    static StatusOr<std::unique_ptr<SageDecoder>>
    tryOpen(const ByteSource &source, bool dna_only = false,
            bool verify_checksum = false);

    ~SageDecoder();

    SageDecoder(const SageDecoder &) = delete;
    SageDecoder &operator=(const SageDecoder &) = delete;

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

    /** Original index of each stored-order read: a permutation of
     *  [0, numReads), checked at open. Empty when the archive did not
     *  preserve order. */
    const std::vector<uint32_t> &order() const { return order_; }

    /**
     * Decode chunk @p chunk into its stored-order reads, fetching only
     * its byte slices. I/O failures, corrupt chunk data and an
     * out-of-range @p chunk come back as a Status, so one bad chunk
     * degrades one request, not the process. Touches no decoder state,
     * so any number of threads may call it concurrently: each call
     * opens its own chunk through the thread-safe ByteSource and
     * copies headers and quality out of the shared host stores; the
     * first call to need a header or quality block decodes it while
     * concurrent callers wait for that one decode. The same chunk
     * decodes repeatably.
     */
    StatusOr<std::vector<Read>> tryDecodeChunkShared(size_t chunk) const;

    /**
     * tryDecodeChunkShared() into caller storage: writes the chunk's
     * reads to @p out[0, chunkReadCount(@p chunk)), so a range decode
     * fills its result in place with no per-chunk vector. On failure
     * that span is left partly written.
     */
    Status tryDecodeChunkShared(size_t chunk, Read *out) const;

    /**
     * tryDecodeChunkShared() into columns: writes the chunk's reads to
     * @p out, which must be empty, bases straight into its arena and
     * headers and quality copied in from the host stores, with no
     * allocation per read. Each arena is sized for the chunk before
     * its first read: exactly, or from kArenaGranule up to the next
     * multiple of it (to at most 256 MiB each), so that a cache
     * replacing chunks of about the same size reuses the memory it
     * frees. The reads and any failing Status equal the Read
     * overloads'; on failure @p out is left partly written.
     */
    Status tryDecodeChunkShared(size_t chunk, ReadColumns &out) const;

    /** Size step of a column arena of kArenaGranule bytes or more. */
    static constexpr uint64_t kArenaGranule = uint64_t{64} << 10;

    /** Decoder working-set bytes: registers + consensus window model.
     *  (The HW streams the consensus; software keeps it resident.) */
    uint64_t workingSetBytes() const;

  private:
    struct ChunkCursor;
    struct ChunkHost;
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

    /** Parse and validate untrusted container framing, stream tables
     *  and host streams. */
    Status tryParseContainer(bool dna_only);

    /**
     * The one chunk fetch: open chunk @p chunk (< chunkCount()) for
     * decode, viewing its 13 stream slices where the source offers
     * views and fetching the rest in one tryReadBatch.
     */
    OpenedChunk tryOpenChunk(size_t chunk) const;

    /**
     * Decode one read's bases via @p cur, appending them to @p out.
     * Returns true when the read lies on the reverse strand: the
     * appended bases are then its reverse complement, which the caller
     * flips in place in whichever way suits its storage.
     */
    bool decodeBases(ChunkCursor &cur, std::string &out) const;

    /** One read's length: the modal length, plus the delta read from
     *  @p rla / @p rlga unless every read has the modal length. A
     *  length past 2^31 is Corrupt. */
    uint64_t readLength(BitReader &rla, BitReader &rlga) const;

    /** Total bases of chunk @p chunk's reads, from copies of @p cur's
     *  length streams; stops early where the decode itself would fail.
     *  Sizes a column arena. Its reads with quality take one character
     *  per base, so a chunk whose @p quality holds another number of
     *  characters is Corrupt, and so is a read whose stored length (the
     *  per-read framing) is neither 0 nor its base count: both chunk
     *  loops refuse the chunk before any of its blocks decodes. */
    uint64_t checkChunkLengths(const ChunkCursor &cur, size_t chunk,
                               const ChunkQuality &quality) const;

    /** Chunk @p chunk's host fields, after checkChunkLengths(), with
     *  its header block decoded (on first use). */
    ChunkHost openHost(const ChunkCursor &cur, size_t chunk) const;

    /** Append the quality of the chunk's read @p i, whose bases number
     *  @p length, to @p out if it has any (decoding quality blocks on
     *  first use). */
    void appendQuality(ChunkHost &host, uint64_t i, uint64_t length,
                       std::string &out) const;

    /** Decode the chunk's read @p i via @p cur: its bases, plus its
     *  header and quality copied from the host stores. */
    Read decodeOne(ChunkCursor &cur, ChunkHost &host, uint64_t i) const;

    const ByteSource *source_ = nullptr;
    /** Absolute extents of the 13 DNA streams, ChunkStreamIndex order. */
    std::array<StreamExtent, kChunkStreamCount> dnaExtents_{};

    ArchiveInfo info_;
    std::string consensus_;

    // Host-side stores, indexed by chunk; null in DNA-only mode, and
    // quals_ also when the archive has no quality scores.
    std::unique_ptr<HeaderStore> headers_;
    std::unique_ptr<QualityStore> quals_;
    std::vector<uint32_t> order_;

    // Field codecs are immutable after open and shared by all chunk
    // cursors (decode() is const and thread-safe).
    std::unique_ptr<const TunedFieldCodec> matchCodec_, lenCodec_,
        countCodec_, posCodec_, segposCodec_, seglenCodec_;

    std::vector<ChunkSlice> chunks_;
};

} // namespace sage

#endif // SAGE_CORE_DECODER_HH
