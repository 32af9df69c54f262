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
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sage {

class ThreadPool;

/** A compressed quality stream with random block access. */
struct QualityArchive
{
    /** Distinct quality characters, index = model symbol. */
    std::string alphabet;
    /** Independent compressed blocks. */
    std::vector<std::vector<uint8_t>> blocks;
    /** Number of quality characters in each block. */
    std::vector<uint64_t> blockChars;
    /** Per-read quality string lengths (restores record boundaries). */
    std::vector<uint32_t> readLengths;

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
 * job list of their own. Construction records the read lengths, cuts
 * the characters into blocks and fixes the alphabet in order of first
 * appearance: each block's presence pass runs on @p pool, and only the
 * scan for first appearances is serial, stopping once every symbol
 * present has been seen. encodeBlock() then codes one block straight
 * from the views: a pass that counts its order-2 contexts, then the
 * rANS lanes, last symbol first.
 *
 * Blocks hold at most config.blockChars characters and may start
 * mid-read. With @p chunkReads > 0, reads [k * chunkReads,
 * (k + 1) * chunkReads) form chunk k, and a block also ends at a chunk
 * boundary once it holds config.blockChars / 8 characters: a chunk of
 * at least that many decodes only its own blocks, while shorter chunks
 * share a block rather than each carry its tables.
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
 * Serialize an archive into its container stream (varint alphabet,
 * read lengths, then each block's character count, size and bytes).
 */
std::vector<uint8_t> packQuality(const QualityArchive &archive);

/**
 * Parse a packQuality() stream back into an archive. The framing is
 * untrusted: an alphabet outside 1..256 symbols, a count that outruns
 * the stream or a block payload past its end throws StatusError
 * (Corrupt/Truncated).
 */
QualityArchive unpackQuality(const std::vector<uint8_t> &bytes);

/** Decompress every block, restoring the original strings. */
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

/**
 * Per-read access to a compressed quality stream that decodes each
 * block the first time a read needs it (paper §5.1.5: quality stays
 * off the data-preparation path until something asks for it).
 * Construction keeps only the framing: the alphabet, each read's
 * character offset and the block table. A read whose characters
 * straddle a block boundary joins the blocks it spans.
 *
 * appendRead() is safe from any number of threads. Each block decodes once,
 * under its own lock, and concurrent first readers wait for that one
 * decode; a decode that throws stores nothing, so the next reader
 * retries. Decoded blocks stay resident for the store's lifetime.
 */
class QualityStore
{
  public:
    /** Index @p archive (unpackQuality() or compressQuality() output).
     *  Throws StatusError (Corrupt) when its blocks hold a different
     *  number of characters than its reads. Blocks of either codec
     *  decode (decompressQualityBlock()). */
    explicit QualityStore(QualityArchive archive);

    /** Reads the stream holds. */
    uint64_t readCount() const { return readStart_.size() - 1; }

    /** Offset of read @p index's first character in the stream;
     *  readOffset(readCount()) is the stream's length. */
    uint64_t readOffset(uint64_t index) const { return readStart_[index]; }

    /** Append the quality string of read @p index to @p out,
     *  decoding the blocks it spans on first use. An empty string gets
     *  one allocation of the read's length; a column arena with room
     *  for it, none. */
    void appendRead(uint64_t index, std::string &out) const;

  private:
    struct Block
    {
        std::vector<uint8_t> payload;
        std::mutex mutex;  ///< Held while the block decodes.
        std::atomic<bool> ready{false};
        std::string chars;  ///< Decoded characters, once ready.
    };

    /** Block @p b's characters, decoding them on first use. */
    const std::string &decoded(size_t b) const;

    std::string alphabet_;
    /** Character offset of each read; one extra entry ends the last. */
    std::vector<uint64_t> readStart_;
    /** Character offset of each block; one extra entry ends the last. */
    std::vector<uint64_t> blockStart_;
    std::unique_ptr<Block[]> blocks_;
};

} // namespace sage

#endif // SAGE_COMPRESS_QUALITY_HH
