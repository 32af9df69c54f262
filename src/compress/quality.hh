/**
 * @file
 * Block-addressable lossless quality-score codec.
 *
 * Quality scores lack the DNA stream's redundancy, so genomic compressors
 * handle them as a separate stream with context modeling (paper §2.2,
 * §5.1.5). This codec is an order-2 adaptive range coder over the (small)
 * quality alphabet, chunked into independently decodable blocks so that a
 * variant-calling stage can fetch only the blocks around mismatches — the
 * access pattern the paper's host-side quality decompression argument
 * rests on (only ~0.03% of blocks touched on average, max 10.7%).
 */

#ifndef SAGE_COMPRESS_QUALITY_HH
#define SAGE_COMPRESS_QUALITY_HH

#include <cstdint>
#include <string>
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
 * Compress per-read quality strings (order preserved). With a @p pool
 * the independent blocks are range-coded in parallel; the output is the
 * same either way.
 */
QualityArchive compressQuality(const std::vector<std::string> &quals,
                               const QualityConfig &config = {},
                               ThreadPool *pool = nullptr);

/**
 * Serialize an archive into its container stream (varint alphabet,
 * read lengths, then each block's character count, size and bytes).
 */
std::vector<uint8_t> packQuality(const QualityArchive &archive);

/** Decompress every block, restoring the original strings. */
std::vector<std::string> decompressQuality(const QualityArchive &archive);

/** Decompress a single block's character payload (random access). */
std::string decompressQualityBlock(const QualityArchive &archive,
                                   size_t block_index);

} // namespace sage

#endif // SAGE_COMPRESS_QUALITY_HH
