/**
 * @file
 * The adaptive range encoder that wrote quality blocks before the rANS
 * codec. Nothing in the library writes those blocks any more; the
 * tests keep this encoder as the reference for the decoder that still
 * reads them (compress/range_coder.hh).
 */

#ifndef SAGE_TESTS_RANGE_ENCODER_HH
#define SAGE_TESTS_RANGE_ENCODER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compress/range_coder.hh"
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
};

/** Encode @p symbol in @p context of @p model, then count it, as
 *  AdaptiveModel::decode() does on the other side. */
inline void
encodeAdaptive(RangeEncoder &enc, AdaptiveModel &model, unsigned symbol,
               unsigned context = 0)
{
    const uint32_t *freq = model.frequencies(context);
    uint32_t cum = 0;
    for (unsigned s = 0; s < symbol; s++)
        cum += freq[s];
    enc.encode(cum, cum + freq[symbol], model.total(context));
    model.update(context, symbol);
}

/**
 * A quality block as the adaptive coder wrote it: @p chars, each one
 * of @p alphabet's symbols, range-coded under the order-2 context of
 * compress/quality.cc (the previous symbol, and the one before it
 * quantized to four levels) with fresh models.
 */
inline std::vector<uint8_t>
encodeRangeBlock(std::string_view alphabet, std::string_view chars)
{
    const auto symbols = static_cast<unsigned>(alphabet.size());
    std::array<unsigned, 256> level{};
    for (unsigned s = 0; s < symbols; s++)
        level[s] = std::min(s * 4 / symbols, 3u);
    AdaptiveModel models(symbols, symbols * 4);
    RangeEncoder enc;
    unsigned prev1 = 0, prev2 = 0;
    for (char c : chars) {
        const auto symbol = static_cast<unsigned>(alphabet.find(c));
        sage_assert(symbol < symbols, "character outside the alphabet");
        encodeAdaptive(enc, models, symbol, prev1 * 4 + level[prev2]);
        prev2 = prev1;
        prev1 = symbol;
    }
    return enc.finish();
}

} // namespace sage

#endif // SAGE_TESTS_RANGE_ENCODER_HH
