/**
 * @file
 * Adaptive range (arithmetic) decoder.
 *
 * The entropy stage of quality blocks written before the rANS codec
 * (compress/quality.hh), kept so those archives still decode; nothing
 * writes it any more (the tests keep the matching encoder,
 * tests/range_encoder.hh). This is deliberately the *kind* of coder
 * the paper contrasts SAGe against: decoding requires sequential,
 * model-state-dependent computation with table updates — efficient on a
 * host CPU, but ill-suited to the lightweight streaming hardware SAGe
 * targets (paper §3.2).
 */

#ifndef SAGE_COMPRESS_RANGE_CODER_HH
#define SAGE_COMPRESS_RANGE_CODER_HH

#include <cstdint>
#include <vector>

#include "util/status.hh"

namespace sage {

/**
 * 32-bit range decoder (the subtraction form of an LZMA-style coder
 * with carry counting). The bytes are untrusted: a read past the end
 * of the payload throws StatusError (Truncated), as a valid stream
 * never needs one.
 */
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
        sage_check_data(pos_ < size_, Truncated,
                        "range-coded block runs past its payload");
        return data_[pos_++];
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

    unsigned
    decode(RangeDecoder &dec, unsigned context = 0)
    {
        const uint32_t *freq = frequencies(context);
        const uint32_t f = dec.decodeFreq(total(context));
        uint32_t cum = 0;
        unsigned symbol = 0;
        while (cum + freq[symbol] <= f)
            cum += freq[symbol++];
        dec.decodeUpdate(cum, cum + freq[symbol]);
        update(context, symbol);
        return symbol;
    }

    /** Context @p context's symbol frequencies. */
    const uint32_t *
    frequencies(unsigned context) const
    {
        return freq_.data() + static_cast<size_t>(context) * symbols_;
    }

    /** The sum of context @p context's frequencies. */
    uint32_t total(unsigned context) const { return total_[context]; }

    /** Count one @p symbol in context @p context. */
    void
    update(unsigned context, unsigned symbol)
    {
        uint32_t *freq =
            freq_.data() + static_cast<size_t>(context) * symbols_;
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

  private:
    unsigned symbols_;
    std::vector<uint32_t> freq_;
    std::vector<uint32_t> total_;
};

} // namespace sage

#endif // SAGE_COMPRESS_RANGE_CODER_HH
