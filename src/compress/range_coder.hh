/**
 * @file
 * Adaptive range (arithmetic) coder.
 *
 * Backend entropy stage for the quality-score codec and the SpringLike
 * baseline's high-ratio streams. This is deliberately the *kind* of coder
 * the paper contrasts SAGe against: decoding requires sequential,
 * model-state-dependent computation with table updates — efficient on a
 * host CPU, but ill-suited to the lightweight streaming hardware SAGe
 * targets (paper §3.2).
 */

#ifndef SAGE_COMPRESS_RANGE_CODER_HH
#define SAGE_COMPRESS_RANGE_CODER_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace sage {

/**
 * 32-bit range encoder with carry counting (LZMA-style low/cache
 * management, so carries propagate correctly into already-buffered
 * bytes).
 */
class RangeEncoder
{
  public:
    /** Encode a symbol given cumulative frequency [cumLow, cumHigh) of
     *  total @p total. */
    void
    encode(uint32_t cum_low, uint32_t cum_high, uint32_t total)
    {
        sage_assert(cum_low < cum_high && cum_high <= total,
                    "bad range coder interval");
        const uint32_t r = range_ / total;
        low_ += static_cast<uint64_t>(r) * cum_low;
        range_ = r * (cum_high - cum_low);
        while (range_ < (1u << 24)) {
            shiftLow();
            range_ <<= 8;
        }
    }

    /** Flush the encoder and return the byte stream. */
    std::vector<uint8_t>
    finish()
    {
        for (int i = 0; i < 5; i++)
            shiftLow();
        return std::move(bytes_);
    }

  private:
    void
    shiftLow()
    {
        if (static_cast<uint32_t>(low_) < 0xff000000u ||
            (low_ >> 32) != 0) {
            // Safe to flush: carry (if any) is applied to the cached
            // byte and any run of 0xff bytes behind it.
            uint8_t carry = static_cast<uint8_t>(low_ >> 32);
            bytes_.push_back(cache_ + carry);
            for (; pendingFf_ > 0; pendingFf_--)
                bytes_.push_back(static_cast<uint8_t>(0xff + carry));
            cache_ = static_cast<uint8_t>(low_ >> 24);
        } else {
            pendingFf_++;
        }
        low_ = (low_ << 8) & 0xffffffffULL;
    }

    std::vector<uint8_t> bytes_;
    uint64_t low_ = 0;
    uint32_t range_ = 0xffffffffu;
    uint8_t cache_ = 0;
    uint64_t pendingFf_ = 0;
    friend class RangeDecoder;
};

/** Matching decoder (subtraction form of the same coder). */
class RangeDecoder
{
  public:
    RangeDecoder(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
        // First byte is the encoder's initial zero cache; fold all five
        // init bytes through the 32-bit code register.
        for (int i = 0; i < 5; i++)
            code_ = (code_ << 8) | nextByte();
    }

    /** Current cumulative-frequency position for @p total. */
    uint32_t
    decodeFreq(uint32_t total)
    {
        r_ = range_ / total;
        const uint32_t f = code_ / r_;
        return f >= total ? total - 1 : f;
    }

    /** Commit to the symbol whose interval is [cumLow, cumHigh). */
    void
    decodeUpdate(uint32_t cum_low, uint32_t cum_high)
    {
        code_ -= r_ * cum_low;
        range_ = r_ * (cum_high - cum_low);
        while (range_ < (1u << 24)) {
            code_ = (code_ << 8) | nextByte();
            range_ <<= 8;
        }
    }

  private:
    uint8_t
    nextByte()
    {
        return pos_ < size_ ? data_[pos_++] : 0;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    uint32_t code_ = 0;
    uint32_t range_ = 0xffffffffu;
    uint32_t r_ = 0;
};

/**
 * Adaptive frequency models over a small alphabet with periodic halving.
 * Linear cumulative search is fine for alphabets <= 64 symbols.
 *
 * One object holds @p contexts independent models in one contiguous
 * frequency array (context c owns entries [c*symbols, (c+1)*symbols)),
 * so a context-mixing coder indexes its models without a per-model
 * allocation or pointer chase.
 */
class AdaptiveModel
{
  public:
    explicit AdaptiveModel(unsigned symbols, unsigned contexts = 1)
        : symbols_(symbols),
          freq_(static_cast<size_t>(symbols) * contexts, 1),
          total_(contexts, symbols)
    {}

    void
    encode(RangeEncoder &enc, unsigned symbol, unsigned context = 0)
    {
        const uint32_t *freq = frequencies(context);
        uint32_t cum = 0;
        for (unsigned s = 0; s < symbol; s++)
            cum += freq[s];
        enc.encode(cum, cum + freq[symbol], total_[context]);
        bump(context, symbol);
    }

    unsigned
    decode(RangeDecoder &dec, unsigned context = 0)
    {
        const uint32_t *freq = frequencies(context);
        const uint32_t f = dec.decodeFreq(total_[context]);
        uint32_t cum = 0;
        unsigned symbol = 0;
        while (cum + freq[symbol] <= f)
            cum += freq[symbol++];
        dec.decodeUpdate(cum, cum + freq[symbol]);
        bump(context, symbol);
        return symbol;
    }

  private:
    uint32_t *
    frequencies(unsigned context)
    {
        return freq_.data() + static_cast<size_t>(context) * symbols_;
    }

    void
    bump(unsigned context, unsigned symbol)
    {
        uint32_t *freq = frequencies(context);
        uint32_t &total = total_[context];
        freq[symbol] += 32;
        total += 32;
        if (total > (1u << 16)) {
            total = 0;
            for (unsigned s = 0; s < symbols_; s++) {
                freq[s] = (freq[s] + 1) >> 1;
                total += freq[s];
            }
        }
    }

    unsigned symbols_;
    std::vector<uint32_t> freq_;
    std::vector<uint32_t> total_;
};

} // namespace sage

#endif // SAGE_COMPRESS_RANGE_CODER_HH
