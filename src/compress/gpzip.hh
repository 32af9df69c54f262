/**
 * @file
 * gpzip: a from-scratch general-purpose block compressor standing in for
 * pigz (parallel gzip) in the paper's baseline set (§3.1, §7).
 *
 * Design mirrors DEFLATE: LZ77 over a 64 KiB window with hash-chain match
 * finding, then per-block canonical Huffman coding of a merged
 * literal/length alphabet plus a distance alphabet. Blocks are compressed
 * and decompressed independently, which is exactly what makes pigz
 * parallel — and exactly why its compression ratio trails genomic
 * compressors: no cross-block, long-range redundancy is captured.
 */

#ifndef SAGE_COMPRESS_GPZIP_HH
#define SAGE_COMPRESS_GPZIP_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace sage {

class ThreadPool;

namespace gpzip {

/** Compression knobs. */
struct Config
{
    /** Independent-block size in bytes (pigz default is 128 KiB). */
    size_t blockSize = 1 << 20;
    /** Hash-chain search depth; higher = better ratio, slower. */
    unsigned maxChain = 48;
    /** Enable one-step lazy matching. */
    bool lazy = true;
};

/** Compress @p size bytes; uses @p pool for block parallelism if given. */
std::vector<uint8_t> compress(const uint8_t *data, size_t size,
                              const Config &config = {},
                              ThreadPool *pool = nullptr);

/** String-view convenience overload. */
std::vector<uint8_t> compress(std::string_view text,
                              const Config &config = {},
                              ThreadPool *pool = nullptr);

/** Decompress a gpzip container and verify its stored CRC-32;
 *  blocks decode across @p pool when given. Malformed framing,
 *  truncated blocks and CRC mismatches come back as
 *  Truncated/Corrupt (a pool worker's failure is rethrown on the
 *  caller by ThreadPool::parallelFor and returned the same way). */
StatusOr<std::vector<uint8_t>>
tryDecompress(const std::vector<uint8_t> &archive,
              ThreadPool *pool = nullptr);

/** tryDecompress() of the @p size-byte container at @p archive. */
StatusOr<std::vector<uint8_t>>
tryDecompress(const uint8_t *archive, size_t size,
              ThreadPool *pool = nullptr);

} // namespace gpzip
} // namespace sage

#endif // SAGE_COMPRESS_GPZIP_HH
