/**
 * @file
 * Read headers in independently compressed blocks that decode on first
 * use.
 *
 * The header stream holds one line per read, in stored order. The
 * writer cuts it into blocks of whole chunks, each a gpzip container
 * (compress/gpzip.hh) behind a table of line counts, so a chunk's
 * headers decode from one block of their own instead of from the whole
 * stream: genozip's independently compressed vblocks, and the paper's
 * per-block host-side decode (§5.1.5). A block ends at a chunk boundary
 * once it holds kHeaderBlockBytes of text, gpzip's window: chunks
 * shorter than that share a block rather than each pay for a
 * container's framing and code tables. A stream written before this
 * layout is one bare gpzip container, read as a single block
 * (docs/format.md, "Header stream layout").
 */

#ifndef SAGE_COMPRESS_HEADERS_HH
#define SAGE_COMPRESS_HEADERS_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "compress/lazy_block.hh"

namespace sage {

struct ReadSet;

/** Header text a block holds before it may end at a chunk boundary. */
constexpr uint64_t kHeaderBlockBytes = uint64_t{32} << 10;

/** A header stream's blocks. */
struct HeaderArchive
{
    /** Lines, one per read, in each block. */
    std::vector<uint64_t> blockLines;
    /** Each block's gpzip container of its lines, each ending in '\n'. */
    std::vector<std::vector<uint8_t>> blocks;
};

/**
 * The headers of @p rs in stored @p order, cut into blocks and
 * gpzip-compressed on the calling thread. With @p chunkReads > 0,
 * stored reads [k * chunkReads, (k + 1) * chunkReads) form chunk k, and
 * a block ends at a chunk boundary once it holds kHeaderBlockBytes of
 * text; with 0, every header is in one block. An empty set still gets
 * one block. No header may hold '\n' (the archive writer refuses one).
 */
HeaderArchive compressHeaderBlocks(const ReadSet &rs,
                                   const std::vector<uint32_t> &order,
                                   uint64_t chunkReads);

/** Serialize @p archive as a header stream: a 0 byte, the block count,
 *  each block's line count and size, then the blocks. */
std::vector<uint8_t> packHeaders(const HeaderArchive &archive);

/**
 * Parse the header stream @p bytes of an archive of @p reads reads, in
 * either layout: a bare gpzip container (it starts with the magic byte
 * 'G') is one block of every line. Only the table is read; the blocks
 * are copied out undecoded. Throws StatusError: Corrupt when the line
 * counts do not sum to @p reads or bytes follow the last block,
 * Truncated when the table or a block runs past the stream.
 */
HeaderArchive unpackHeaders(const std::vector<uint8_t> &bytes,
                            uint64_t reads);

/** A chunk's headers: views into its decoded block. */
class ChunkHeaders
{
  public:
    ChunkHeaders() = default;
    ChunkHeaders(const char *text, const uint32_t *starts)
        : text_(text), starts_(starts)
    {}

    /** Header of the chunk's read @p i, without its newline. */
    std::string_view
    operator[](uint64_t i) const
    {
        return {text_ + starts_[i], starts_[i + 1] - starts_[i] - 1};
    }

    /** Bytes of the chunk's first @p n headers, newlines excluded. */
    uint64_t bytes(uint64_t n) const { return starts_[n] - starts_[0] - n; }

  private:
    const char *text_ = nullptr;
    /** Where each line starts; one more entry ends the last. */
    const uint32_t *starts_ = nullptr;
};

/**
 * Per-chunk access to a header stream whose blocks decode the first
 * time a chunk needs them and then stay resident: the text, and where
 * each of its lines starts as a 32-bit offset. chunk() is safe from any
 * number of threads (LazyBlock).
 */
class HeaderStore
{
  public:
    /** Keep header stream @p stream of an archive of @p reads reads,
     *  indexed for chunks of @p chunkReads reads each, in stored order:
     *  only its table is read (the checks of unpackHeaders()), and the
     *  blocks decode from the kept stream. Throws StatusError, also
     *  (Corrupt) when a chunk's reads do not lie in one block. */
    HeaderStore(std::vector<uint8_t> stream, uint64_t reads,
                const std::vector<uint64_t> &chunkReads);

    /**
     * The headers of chunk @p chunk, decoding its block on first use.
     * Throws StatusError when the block fails its gpzip checks (Corrupt
     * or Truncated), exceeds 4 GiB, or does not decode to exactly its
     * line count with every line ending in '\n' (Corrupt). A failed
     * block keeps nothing, and chunks in other blocks are unaffected.
     */
    ChunkHeaders chunk(size_t chunk) const;

  private:
    /** A decoded block. */
    struct Lines
    {
        std::vector<uint8_t> text;
        std::vector<uint32_t> starts;
    };

    /** Where a chunk's headers lie: a block, and the block's line that
     *  holds the chunk's first header. */
    struct Place
    {
        size_t block = 0;
        uint64_t line = 0;
    };

    std::vector<uint8_t> stream_;
    std::vector<uint64_t> blockLines_;
    std::unique_ptr<LazyBlock<Lines>[]> blocks_;
    /** One per chunk; an empty chunk's block is blockLines_.size(). */
    std::vector<Place> chunkPlace_;
};

} // namespace sage

#endif // SAGE_COMPRESS_HEADERS_HH
