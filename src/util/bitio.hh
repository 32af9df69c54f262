/**
 * @file
 * LSB-first bit-stream writer/reader.
 *
 * SAGe's arrays and guide arrays (paper §5.1) are sequences of fields whose
 * widths are data-dependent (chosen per read set by Algorithm 1). Both the
 * software decompressor and the hardware Scan Unit model consume the exact
 * same bit layout, so the layout lives here, in one place.
 *
 * Bits are packed LSB-first within each byte: the first bit written is bit 0
 * of byte 0. A field written with writeBits(v, n) is recovered by the next
 * readBits(n) at the same position.
 */

#ifndef SAGE_UTIL_BITIO_HH
#define SAGE_UTIL_BITIO_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.hh"
#include "util/status.hh"

namespace sage {

/** Append-only bit stream writer. */
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append the low @p nbits bits of @p value (0 <= nbits <= 57). */
    void
    writeBits(uint64_t value, unsigned nbits)
    {
        sage_assert(nbits <= 57, "writeBits supports at most 57 bits");
        if (nbits == 0)
            return;
        if (nbits < 64)
            value &= (uint64_t(1) << nbits) - 1;
        acc_ |= value << accBits_;
        accBits_ += nbits;
        while (accBits_ >= 8) {
            bytes_.push_back(static_cast<uint8_t>(acc_));
            acc_ >>= 8;
            accBits_ -= 8;
        }
    }

    /** Append a single bit. */
    void writeBit(bool bit) { writeBits(bit ? 1 : 0, 1); }

    /**
     * Append a unary-terminated prefix code: @p count one-bits followed by
     * a zero bit (the paper's guide-array codes 0, 10, 110, 1110, ...).
     */
    void
    writeUnary(unsigned count)
    {
        for (unsigned i = 0; i < count; i++)
            writeBit(true);
        writeBit(false);
    }

    /** Number of bits written so far. */
    uint64_t bitCount() const { return bytes_.size() * 8 + accBits_; }

    /** Pad with zero bits to the next byte boundary. */
    void
    alignByte()
    {
        if (accBits_ > 0)
            writeBits(0, 8 - accBits_);
    }

    /** Flush and return the backing byte vector (byte-aligned). */
    std::vector<uint8_t>
    take()
    {
        alignByte();
        return std::move(bytes_);
    }

    /** Read-only view of complete bytes written so far. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
    uint64_t acc_ = 0;
    unsigned accBits_ = 0;
};

/** Sequential bit stream reader over a byte buffer. */
class BitReader
{
  public:
    BitReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit BitReader(const std::vector<uint8_t> &bytes)
        : BitReader(bytes.data(), bytes.size())
    {}

    /**
     * Read @p nbits bits (LSB-first) as an unsigned value. Underrun
     * (the stream ends mid-field — truncated or corrupt input) throws
     * StatusError; fatal decode paths catch it at their boundary.
     */
    uint64_t
    readBits(unsigned nbits)
    {
        sage_assert(nbits <= 57, "readBits supports at most 57 bits");
        if (accBits_ < nbits) {
            refill(nbits);
            sage_check_data(accBits_ >= nbits, Truncated,
                            "bit stream underrun at bit ", bitPosition());
        }
        uint64_t v = nbits < 64 ? acc_ & ((uint64_t(1) << nbits) - 1) : acc_;
        acc_ >>= nbits;
        accBits_ -= nbits;
        return v;
    }

    /** Read a single bit. */
    bool readBit() { return readBits(1) != 0; }

    /**
     * Peek up to @p nbits without consuming them; bits past the end of
     * the stream read as zero (callers must validate via the decoded
     * symbol, e.g. table-driven prefix decode).
     */
    uint64_t
    peekBits(unsigned nbits)
    {
        sage_assert(nbits <= 57, "peekBits supports at most 57 bits");
        refill(nbits);
        return nbits < 64 ? acc_ & ((uint64_t(1) << nbits) - 1) : acc_;
    }

    /**
     * Discard @p nbits previously peeked bits. A prefix code decoded
     * from a peek that ran past the end of the stream can be longer
     * than the bits left; like readBits, that underrun throws
     * StatusError (Truncated).
     */
    void
    skipBits(unsigned nbits)
    {
        sage_check_data(accBits_ >= nbits, Truncated,
                        "bit stream underrun at bit ", bitPosition());
        acc_ >>= nbits;
        accBits_ -= nbits;
    }

    /** Read a unary-terminated code (count of leading one-bits). */
    unsigned
    readUnary()
    {
        unsigned count = 0;
        while (readBit())
            count++;
        return count;
    }

    /** Bits consumed so far. */
    uint64_t bitPosition() const { return byte_ * 8 - accBits_; }

    /** Skip to the next byte boundary of the stream. */
    void
    alignByte()
    {
        const unsigned drop = accBits_ & 7;
        acc_ >>= drop;
        accBits_ -= drop;
    }

  private:
    /**
     * Top the accumulator up to at least @p nbits buffered bits,
     * loading eight input bytes per iteration away from the stream
     * tail. Stops silently at end of data (callers that must not run
     * past the end check accBits_ afterwards). Only whole bytes enter
     * the accumulator, so bitPosition() stays exact.
     */
    void
    refill(unsigned nbits)
    {
        while (accBits_ < nbits && byte_ < size_) {
            if (byte_ + 8 <= size_) {
                uint64_t word;
                std::memcpy(&word, data_ + byte_, sizeof(word));
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) &&             \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
                word = __builtin_bswap64(word);
#endif
                // nbits <= 57 bounds accBits_ at 56 here, so at least
                // one whole byte always fits.
                const unsigned take = (64 - accBits_) >> 3;
                if (take < 8)
                    word &= (uint64_t(1) << (take * 8)) - 1;
                acc_ |= word << accBits_;
                byte_ += take;
                accBits_ += take * 8;
            } else {
                acc_ |= static_cast<uint64_t>(data_[byte_++]) << accBits_;
                accBits_ += 8;
            }
        }
    }

    const uint8_t *data_;
    size_t size_;
    size_t byte_ = 0;
    uint64_t acc_ = 0;
    unsigned accBits_ = 0;
};

} // namespace sage

#endif // SAGE_UTIL_BITIO_HH
