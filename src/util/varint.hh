/**
 * @file
 * LEB128-style variable-length integers and zig-zag signed mapping.
 * Used in container headers and the SpringLike baseline's streams.
 */

#ifndef SAGE_UTIL_VARINT_HH
#define SAGE_UTIL_VARINT_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/status.hh"

namespace sage {

/** Append @p value as a LEB128 varint to @p out. */
inline void
putVarint(std::vector<uint8_t> &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<uint8_t>(value));
}

/**
 * Read a LEB128 varint from the @p size bytes at @p data, at offset
 * @p pos (advanced). Throws StatusError (Truncated/Corrupt) on
 * malformed input — the bytes are usually untrusted archive content.
 * Callers on a fatal path catch at their public boundary (see
 * util/status.hh).
 */
inline uint64_t
getVarint(const uint8_t *data, size_t size, size_t &pos)
{
    uint64_t value = 0;
    unsigned shift = 0;
    for (;;) {
        sage_check_data(pos < size, Truncated, "varint underrun at byte ",
                        pos);
        const uint8_t byte = data[pos++];
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
        shift += 7;
        sage_check_data(shift < 64, Corrupt, "varint overflow at byte ",
                        pos);
    }
}

/** getVarint() over the bytes of @p data. */
inline uint64_t
getVarint(const std::vector<uint8_t> &data, size_t &pos)
{
    return getVarint(data.data(), data.size(), pos);
}

/** Map a signed value onto unsigned zig-zag space. */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/** Invert zigzagEncode. */
inline int64_t
zigzagDecode(uint64_t u)
{
    return static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
}

} // namespace sage

#endif // SAGE_UTIL_VARINT_HH
