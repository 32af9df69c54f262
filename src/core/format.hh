/**
 * @file
 * SAGe container format: configuration, tuned-parameter header, and
 * stream naming. The encoder (encoder.hh) writes this format; the
 * software decompressor (decoder.hh) and the hardware model (hw/) both
 * consume it.
 *
 * Stream inventory (paper §5.1):
 *   consensus      2/3-bit packed consensus sequence
 *   flags          per-read bits: reverse-strand, segment-count unary,
 *                  (pre-O4 only) escape indicator bits
 *   mpa / mpga     matching-position deltas (array / guide array)
 *   rla / rlga     read-length deltas from the modal length
 *   sga / sgga     extra chimeric segment positions and lengths
 *   mca / mcga     per-segment mismatch event counts
 *   mmpa / mmpga   mismatch position deltas, indel lengths (8-bit
 *                  chained), single-base-indel flags
 *   mbta           mismatch bases, type inference markers, ins/del bits,
 *                  inserted bases, corner-case disambiguation bits
 *   escape         3-bit packed payload for corner-case reads
 *   chunks         v2 only: per-chunk read counts + stream offsets
 *   headers        read headers (host-side, gpzip)
 *   quality        quality-score archive (host-side, paper §5.1.5)
 *   order          optional original-order permutation
 *
 * Container version 2 partitions the reads into fixed-size chunks: at
 * each chunk boundary every DNA bit array is padded to a byte boundary
 * and the matching-position delta state resets, so any chunk decodes
 * with zero knowledge of its predecessors — the software analogue of
 * the paper's per-Scan-Unit slices (§5.2) and the unit of parallel
 * decode and future multi-SSD sharding. Version 1 (no chunk table) is
 * still read; it is treated as a single chunk. See docs/format.md.
 */

#ifndef SAGE_CORE_FORMAT_HH
#define SAGE_CORE_FORMAT_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compress/quality.hh"
#include "consensus/mapper.hh"
#include "core/tuned_array.hh"

namespace sage {

/**
 * Compressor configuration, including the ablation switches that map to
 * the paper's optimization levels (Fig. 17):
 *   NO: reorderReads=0, tuneArrays=0, maxSegments=1, inferTypes=0,
 *       cornerTrick=0
 *   O1: + reorderReads            (§5.1.3 matching positions)
 *   O2: + tuneArrays              (§5.1.1 positions & counts)
 *   O3: + maxSegments=3, inferTypes (§5.1.2 bases & types)
 *   O4: + cornerTrick             (§5.1.4 corner cases)
 */
struct SageConfig
{
    /** O1a: reorder reads by matching position and delta-encode. */
    bool reorderReads = true;
    /** O1b: Algorithm-1-tuned matching-position (and segment) arrays
     *  — §5.1.3 is the whole matching-position pipeline. */
    bool tuneMatchArrays = true;
    /** O2: Algorithm-1-tuned mismatch position/count/read-length
     *  arrays plus indel-block encoding (§5.1.1). */
    bool tuneArrays = true;
    /** O3a: top-N matching positions for chimeric reads (paper N=3). */
    unsigned maxSegments = 3;
    /** O3b: infer substitution type via consensus comparison. */
    bool inferTypes = true;
    /** O4: mark corner cases via the mismatch-at-position-0 trick. */
    bool cornerTrick = true;

    /** Compress quality scores (optional per paper §5.1.5). */
    bool keepQuality = true;
    /** Store original read order. */
    bool preserveOrder = false;

    /**
     * Reads per independently decodable chunk (container v2). Every DNA
     * bit array is byte-aligned and the matching-position delta resets
     * at each chunk boundary, enabling parallel decode at the cost of a
     * few padding bytes and one chunk-table row per chunk. 0 writes the
     * legacy v1 single-stream layout (no chunk table).
     */
    uint32_t chunkReads = 65536;

    TunerConfig tuner;
    MapperConfig mapper;
    QualityConfig quality;

    /** Apply a paper optimization level 0..4 (NO..O4). */
    static SageConfig atLevel(unsigned level);
};

/** Container versions the decoder understands. */
constexpr uint32_t kFormatVersionLegacy = 1;   ///< Single-stream layout.
constexpr uint32_t kFormatVersionChunked = 2;  ///< Adds the chunk table.

/**
 * Index of each DNA-path stream in a chunk-table offset row. The order
 * is frozen by the v2 container layout (docs/format.md).
 */
enum ChunkStreamIndex : unsigned {
    kChunkFlags = 0,
    kChunkMpa,
    kChunkMpga,
    kChunkRla,
    kChunkRlga,
    kChunkSga,
    kChunkSgga,
    kChunkMca,
    kChunkMcga,
    kChunkMmpa,
    kChunkMmpga,
    kChunkMbta,
    kChunkEscape,
    kChunkStreamCount
};

/** Container stream name of each ChunkStreamIndex entry — the single
 *  source of truth for every walker of the chunk table (decoder,
 *  device chunk extents). */
constexpr const char *kChunkStreamNames[kChunkStreamCount] = {
    "flags", "mpa", "mpga", "rla", "rlga", "sga", "sgga",
    "mca", "mcga", "mmpa", "mmpga", "mbta", "escape"};

/**
 * The v2 chunk index: for every chunk, its read count and the byte
 * offset at which its slice of each DNA stream starts. All streams are
 * byte-aligned at chunk boundaries, so offsets are exact byte positions
 * and any chunk is decodable with zero predecessor state.
 */
struct ChunkTable
{
    struct Entry
    {
        uint64_t readCount = 0;
        std::array<uint64_t, kChunkStreamCount> offsets{};
    };

    std::vector<Entry> entries;

    std::vector<uint8_t> serialize() const;
    static ChunkTable deserialize(const std::vector<uint8_t> &bytes);
};

/** Tuned per-read-set parameters written at the start of the file
 *  (paper §5.1: "The parameters are then encoded at the beginning of
 *  the compressed file"). */
struct SageParams
{
    uint32_t version = kFormatVersionChunked;
    uint64_t numReads = 0;
    uint64_t consensusLength = 0;
    bool consensusTwoBit = true;
    bool hasQuality = false;
    bool preservedOrder = false;

    // Ablation switches baked into the stream layout.
    bool reorderReads = true;
    bool tuneMatchArrays = true;
    bool tuneArrays = true;
    unsigned maxSegments = 3;
    bool inferTypes = true;
    bool cornerTrick = true;

    /** Modal read length (read lengths stored as zig-zag deltas). */
    uint64_t modalReadLength = 0;
    /** Set when every read has the modal length (fixed-length short
     *  read sets): the read-length arrays are omitted entirely. */
    bool constantReadLength = false;

    // Association tables (only meaningful when tuneArrays is set).
    AssociationTable matchPos;
    AssociationTable readLen;
    AssociationTable mismatchCount;
    AssociationTable mismatchPos;
    AssociationTable segPos;
    AssociationTable segLen;

    std::vector<uint8_t> serialize() const;
    static SageParams deserialize(const std::vector<uint8_t> &bytes);
};

/** Compressed read set plus the accounting benches need. */
struct SageArchive
{
    std::vector<uint8_t> bytes;

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

} // namespace sage

#endif // SAGE_CORE_FORMAT_HH
