/**
 * @file
 * Block-addressable lossless quality-score codec.
 *
 * Quality scores lack the DNA stream's redundancy, so genomic compressors
 * handle them as a separate stream with context modeling (paper §2.2,
 * §5.1.5). The stream is cut into independently decodable blocks so that
 * a variant-calling stage can fetch only the blocks around mismatches —
 * the access pattern the paper's host-side quality decompression
 * argument rests on (only ~0.03% of blocks touched on average, max
 * 10.7%).
 *
 * A block codes its characters with a static order-2 model whose
 * frequency tables it carries, decoded by up to eight interleaved rANS
 * lanes, each over its own contiguous slice of the block (the structure
 * of CRAM 3.1's rANS-Nx16; F. Giesen, "Interleaved entropy coders",
 * arXiv:1402.3392). The lanes' symbol chains are independent, so the
 * decode runs several symbols per dependent step. Blocks written before
 * this codec use an order-2 adaptive range coder; they still decode,
 * told apart by the block's leading codec byte (docs/format.md).
 */

#ifndef SAGE_COMPRESS_QUALITY_HH
#define SAGE_COMPRESS_QUALITY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/lazy_block.hh"

namespace sage {

class ThreadPool;

/** Which reads of a chunk have quality scores. */
enum class QualityPresence : uint8_t
{
    None = 0,
    All = 1,
    Some = 2,  ///< Those a per-read mask marks.
};

/** One chunk's row of the per-chunk framing (packChunkedQuality). */
struct QualityChunk
{
    /** The chunk's quality characters: the base counts of its reads
     *  that have quality, summed. */
    uint64_t chars = 0;
    QualityPresence presence = QualityPresence::None;
    /** With Some: the chunk's read count, and one bit per read, LSB
     *  first, set when that read has quality. */
    uint64_t reads = 0;
    std::vector<uint8_t> mask;
};

/** A compressed quality stream with random block access. */
struct QualityArchive
{
    /** Distinct quality characters, index = model symbol. */
    std::string alphabet;
    /** Independent compressed blocks. */
    std::vector<std::vector<uint8_t>> blocks;
    /** Number of quality characters in each block. */
    std::vector<uint64_t> blockChars;
    /** Per-read quality string lengths: the per-read framing
     *  (packQuality), which restores record boundaries alone. */
    std::vector<uint32_t> readLengths;
    /** One row per chunk: the per-chunk framing (packChunkedQuality),
     *  whose reads take their quality lengths from their bases. */
    std::vector<QualityChunk> chunks;

    /** Total compressed size in bytes, including metadata estimate. */
    uint64_t compressedBytes() const;

    /** Total quality characters stored. */
    uint64_t totalChars() const;
};

/** Codec parameters. */
struct QualityConfig
{
    /** Uncompressed characters per independently decodable block.
     *  The paper cites 25 MB blocks; scaled down with our datasets. */
    uint64_t blockChars = 1 << 20;
};

/**
 * The quality encoder in steps, for callers that run the blocks on a
 * job list of their own. Construction records the read lengths and the
 * chunk rows, cuts the characters into blocks and fixes the alphabet in
 * order of first appearance: each block's presence pass runs on
 * @p pool, and only the scan for first appearances is serial, stopping
 * once every symbol present has been seen. encodeBlock() then codes one
 * block straight from the views: a pass that counts its order-2
 * contexts, then the rANS lanes, last symbol first.
 *
 * Blocks hold at most config.blockChars characters and may start
 * mid-read. With @p chunkReads > 0, reads [k * chunkReads,
 * (k + 1) * chunkReads) form chunk k, and a block also ends at a chunk
 * boundary once it holds config.blockChars / 8 characters: a chunk of
 * at least that many decodes only its own blocks, while shorter chunks
 * share a block rather than each carry its tables. With 0, all reads
 * form one chunk.
 */
class QualityEncoder
{
  public:
    /** @p quals views per-read quality strings, in the order they are
     *  stored; the strings must outlive the encoder. */
    QualityEncoder(std::vector<std::string_view> quals,
                   const QualityConfig &config = {},
                   ThreadPool *pool = nullptr, uint64_t chunkReads = 0);

    /** Independent blocks (an empty input still gets one). */
    size_t blockCount() const { return archive_.blocks.size(); }

    /** Code block @p b. Distinct blocks may be encoded from different
     *  threads at once. */
    void encodeBlock(size_t b);

    /** The archive; every block must have been encoded. */
    QualityArchive take() { return std::move(archive_); }

  private:
    /** Call @p fn on each read's slice of block @p b, in order. */
    template <typename Fn>
    void forEachPiece(size_t b, Fn &&fn) const;

    /** Where a block starts: a read and a character within it. */
    struct BlockStart
    {
        size_t read = 0;
        size_t offset = 0;
    };

    std::vector<std::string_view> quals_;
    std::vector<BlockStart> blockStart_;
    std::array<int, 256> symbolOf_;
    QualityArchive archive_;
};

/**
 * Compress per-read quality strings (order preserved): a
 * QualityEncoder without chunks whose blocks are coded across @p pool
 * when one is given; the output is the same either way.
 */
QualityArchive compressQuality(std::vector<std::string_view> quals,
                               const QualityConfig &config = {},
                               ThreadPool *pool = nullptr);

/** compressQuality() over views of @p quals. */
QualityArchive compressQuality(const std::vector<std::string> &quals,
                               const QualityConfig &config = {},
                               ThreadPool *pool = nullptr);

/**
 * Serialize an archive in the per-read framing (varint alphabet, read
 * lengths, then each block's character count, size and bytes): what
 * SpringLike writes, and SAGe archives did before the per-chunk
 * framing.
 */
std::vector<uint8_t> packQuality(const QualityArchive &archive);

/**
 * Serialize an archive in the per-chunk framing: a 0 byte (a per-read
 * stream starts with its alphabet size, 1..256), the alphabet, one row
 * per chunk (its character count's change from the last row's and its
 * presence in one varint, and with Some the read count and mask), then
 * the blocks as packQuality() writes them.
 */
std::vector<uint8_t> packChunkedQuality(const QualityArchive &archive);

/**
 * Parse a stream in either framing back into an archive: readLengths
 * or chunks is filled, by the framing. The framing is untrusted: an
 * alphabet outside 1..256 symbols, an unknown presence, a chunk of no
 * quality with characters, a count that outruns the stream or a block
 * payload past its end throws StatusError (Corrupt/Truncated).
 */
QualityArchive unpackQuality(const std::vector<uint8_t> &bytes);

/** Decompress every block of an archive with read lengths (the
 *  per-read framing), restoring the original strings. */
std::vector<std::string> decompressQuality(const QualityArchive &archive);

/**
 * Decompress a single block's character payload (random access), in
 * either codec. The block is untrusted: an out-of-range index, an
 * alphabet outside 1..256 symbols, an unknown codec byte, frequency
 * tables that do not sum to the model's scale or name a symbol outside
 * the alphabet, or lanes that do not end in their initial state with
 * every byte consumed throw StatusError (Corrupt); a payload that runs
 * out first throws Truncated.
 */
std::string decompressQualityBlock(const QualityArchive &archive,
                                   size_t block_index);

/** One chunk's quality, as the chunk loops read it. */
struct ChunkQuality
{
    /** Offset of the chunk's first character in the stream. */
    uint64_t start = 0;
    /** The chunk's characters. */
    uint64_t chars = 0;
    QualityPresence presence = QualityPresence::None;
    /** With Some: one bit per read (QualityChunk::mask). */
    const uint8_t *mask = nullptr;
    /** Per-read framing only: each of the chunk's reads' stored
     *  length, which must be 0 or the read's base count; else null. */
    const uint32_t *lengths = nullptr;

    /** Whether the chunk's read @p i has quality. */
    bool
    has(uint64_t i) const
    {
        return presence == QualityPresence::All ||
            (presence == QualityPresence::Some &&
             (mask[i >> 3] >> (i & 7) & 1) != 0);
    }
};

/**
 * Access by chunk to a compressed quality stream whose blocks decode
 * the first time a read needs them and then stay resident (LazyBlock;
 * paper §5.1.5: quality stays off the data-preparation path until
 * something asks for it). Construction keeps only the framing: the
 * alphabet, each chunk's row and character offset, and the block
 * table. A read takes as many characters as it has bases, from where
 * the reads before it in its chunk end, and may straddle blocks.
 * append() is safe from any number of threads.
 */
class QualityStore
{
  public:
    /**
     * Keep quality stream @p stream (either framing), indexed for
     * chunks of @p chunkReads reads each, in stored order: only its
     * framing is read (the checks of unpackQuality()), and the blocks
     * decode from the kept stream. A stream in the per-read framing is
     * turned into chunk rows here, and keeps its lengths for the chunk
     * loops to check. Throws StatusError, also (Corrupt) when the
     * stream has another number of chunks or reads, a mask of another
     * length, or blocks that hold a different number of characters
     * than its rows. Blocks of either codec decode
     * (decompressQualityBlock()).
     */
    QualityStore(std::vector<uint8_t> stream,
                 const std::vector<uint64_t> &chunkReads);

    /** Chunk @p chunk's quality framing. */
    ChunkQuality chunk(size_t chunk) const;

    /** Append the @p n characters at offset @p at of the stream to
     *  @p out, decoding the blocks they span on first use. Throws
     *  StatusError (Corrupt) when they run past the stream. An empty
     *  string gets one allocation of @p n; a column arena with room for
     *  them, none. */
    void append(uint64_t at, uint64_t n, std::string &out) const;

  private:
    /** Block @p b's characters, decoding them on first use. */
    const std::string &decoded(size_t b) const;

    std::vector<uint8_t> stream_;
    std::string alphabet_;
    std::vector<QualityChunk> chunks_;
    /** Character offset of each chunk; one extra entry ends the last. */
    std::vector<uint64_t> chunkStart_;
    /** Stored-order index of each chunk's first read. */
    std::vector<uint64_t> chunkFirstRead_;
    /** Per-read framing only: each read's stored length. */
    std::vector<uint32_t> readLengths_;
    /** Character offset of each block; one extra entry ends the last. */
    std::vector<uint64_t> blockStart_;
    std::unique_ptr<LazyBlock<std::string>[]> blocks_;
};

} // namespace sage

#endif // SAGE_COMPRESS_QUALITY_HH
