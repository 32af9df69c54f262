/**
 * @file
 * SAGe's core data structure: arrays + guide arrays with per-read-set
 * tuned bit widths (paper §5.1, Fig. 6, Fig. 8, Algorithm 1).
 *
 * A TunedArray stores a sequence of unsigned values in two bit streams:
 *  - the *array* holds each value in one of up to 8 tuned bit widths;
 *  - the *guide array* holds, per value, a variable-length prefix code
 *    (0, 10, 110, ...) naming the width class, with shorter codes
 *    assigned to more frequent classes (paper §5.1.1).
 *
 * The class boundaries come from Algorithm 1: an exhaustive search over
 * bit-count boundaries minimizing total encoded size (array + guide),
 * with an epsilon-convergence cutoff on the number of classes d.
 *
 * Decoding needs only comparators and shifters over streaming data —
 * no tables, no random accesses — which is what makes the hardware
 * Scan Unit (paper §5.2) lightweight.
 */

#ifndef SAGE_CORE_TUNED_ARRAY_HH
#define SAGE_CORE_TUNED_ARRAY_HH

#include <cstdint>
#include <vector>

#include "util/bitio.hh"
#include "util/histogram.hh"

namespace sage {

/**
 * The Association Table (paper Fig. 8): maps guide-code rank to value
 * bit width. Rank r is encoded as r one-bits and a zero (0, 10, 110...).
 */
struct AssociationTable
{
    /** Bit width per guide rank; rank 0 = most frequent class. */
    std::vector<uint8_t> widthByRank;

    /** Serialize into a header byte stream. */
    void serialize(std::vector<uint8_t> &out) const;

    /** Parse back from a header byte stream. */
    static AssociationTable deserialize(const std::vector<uint8_t> &data,
                                        size_t &pos);

    bool
    operator==(const AssociationTable &other) const
    {
        return widthByRank == other.widthByRank;
    }
};

/** Algorithm 1 configuration. */
struct TunerConfig
{
    /** Convergence threshold epsilon on relative size improvement. */
    double epsilon = 0.01;
    /** Maximum number of distinct bit counts (paper: d <= 8). */
    unsigned maxClasses = 8;
    /** Enumeration budget guard; falls back to quantile split beyond. */
    uint64_t maxCombinations = 4'000'000;
};

/**
 * Algorithm 1 (paper §5.1.1): choose bit-count boundaries W minimizing
 * the encoded size of values whose bit-count histogram is @p hist.
 *
 * Returns the association table with classes ordered by descending
 * frequency (rank 0 most common). The histogram is indexed by
 * bits-needed (index 0 unused; values need at least 1 bit).
 */
AssociationTable tuneBitCounts(const Histogram &hist,
                               const TunerConfig &config = {});

/** Bits needed to store @p v (0 -> 1). */
inline unsigned
valueBits(uint64_t v)
{
    unsigned bits = 1;
    while (v >>= 1)
        bits++;
    return bits;
}

/**
 * Field-level tuned codec: encodes/decodes single values against caller-
 * supplied array/guide bit streams. SAGe interleaves heterogeneous
 * fields (position deltas, indel flags, indel lengths) in the same
 * MMPA/MMPGA streams, so the codec must not own the streams.
 */
class TunedFieldCodec
{
  public:
    explicit TunedFieldCodec(AssociationTable table);

    /** Encode one value (guide code + value bits). */
    void encode(BitWriter &array, BitWriter &guide, uint64_t value) const;

    /** Decode one value. */
    uint64_t decode(BitReader &array, BitReader &guide) const;

    /** Bits one value would cost (guide + array). */
    unsigned costBits(uint64_t value) const;

    const AssociationTable &table() const { return table_; }

    /** Build a table from sample values via Algorithm 1. */
    static AssociationTable tuneFor(const std::vector<uint64_t> &values,
                                    const TunerConfig &config = {});

    /** tuneFor() from the histogram of the values' valueBits(), which
     *  is all it reads of them. */
    static AssociationTable tuneForBits(Histogram bits,
                                        const TunerConfig &config = {});

  private:
    AssociationTable table_;
    /** Cheapest fitting rank for each bits-needed value. */
    std::vector<uint8_t> rankForBits_;
};

/** Encoder over self-owned streams (convenience wrapper). */
class TunedArrayEncoder
{
  public:
    explicit TunedArrayEncoder(AssociationTable table)
        : codec_(std::move(table))
    {}

    /** Append one value; it must fit the largest tuned width. */
    void append(uint64_t value) { codec_.encode(array_, guide_, value); }

    /** Bits written so far (array / guide). */
    uint64_t arrayBits() const { return array_.bitCount(); }
    uint64_t guideBits() const { return guide_.bitCount(); }

    /** Finish and move out the two byte streams. */
    std::vector<uint8_t> takeArray() { return array_.take(); }
    std::vector<uint8_t> takeGuide() { return guide_.take(); }

    const AssociationTable &table() const { return codec_.table(); }

  private:
    TunedFieldCodec codec_;
    BitWriter array_;
    BitWriter guide_;
};

/** Decoder over caller-provided streams (convenience wrapper). */
class TunedArrayDecoder
{
  public:
    TunedArrayDecoder(AssociationTable table, BitReader array,
                      BitReader guide)
        : codec_(std::move(table)), array_(array), guide_(guide)
    {}

    /** Decode the next value. */
    uint64_t next() { return codec_.decode(array_, guide_); }

  private:
    TunedFieldCodec codec_;
    BitReader array_;
    BitReader guide_;
};

} // namespace sage

#endif // SAGE_CORE_TUNED_ARRAY_HH
