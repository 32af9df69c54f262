/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320, initial value
 * and final xor 0xFFFFFFFF) used for container integrity checks in the
 * gpzip and SAGe file formats and to seal every protocol-v2 wire frame
 * (net/protocol.hh).
 *
 * Crc32::update runs one of two tiers, resolved once at first use:
 *
 *   - slice8: a portable slicing-by-8 loop over eight 256-entry tables
 *     (8 bytes per step). The only tier on non-x86 builds and under
 *     SAGE_FORCE_SCALAR=1.
 *   - pclmul: PCLMULQDQ folding (Gopal et al., "Fast CRC Computation
 *     for Generic Polynomials Using PCLMULQDQ Instruction", Intel
 *     2009) with four 128-bit accumulators over 64 bytes per step and
 *     a Barrett reduction to 32 bits. An update of 64 bytes or more
 *     runs its 16-byte-multiple prefix here and the tail through
 *     slice8, so short frames never enter the SIMD path.
 *
 * Both tiers compute the same value for every input, so archives and
 * frames written on one host verify on any other
 * (tests/test_util.cc checks both against a bitwise reference).
 */

#ifndef SAGE_UTIL_CRC32_HH
#define SAGE_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sage {

/** Incrementally updatable CRC-32 checksum. */
class Crc32
{
  public:
    /** Feed @p size bytes into the checksum. */
    void update(const uint8_t *data, size_t size);

    /** Feed a byte vector. */
    void
    update(const std::vector<uint8_t> &data)
    {
        update(data.data(), data.size());
    }

    /** Final checksum value. */
    uint32_t value() const { return state_ ^ 0xffffffffu; }

    /** One-shot convenience. */
    static uint32_t
    of(const uint8_t *data, size_t size)
    {
        Crc32 crc;
        crc.update(data, size);
        return crc.value();
    }

    static uint32_t
    of(const std::vector<uint8_t> &data)
    {
        return of(data.data(), data.size());
    }

  private:
    uint32_t state_ = 0xffffffffu;
};

namespace crc32 {

/** Name of the tier Crc32::update resolved to: "pclmul" or "slice8". */
const char *activeTierName();

/**
 * The slicing-by-8 tier on its own (always available; tests and
 * benches check and measure the dispatched path against it). Continues
 * the finished CRC-32 value @p crc — 0 before any data — over @p size
 * bytes, so feeding the result of one call into the next checksums
 * the concatenation.
 */
uint32_t slice8(uint32_t crc, const uint8_t *data, size_t size);

} // namespace crc32

} // namespace sage

#endif // SAGE_UTIL_CRC32_HH
