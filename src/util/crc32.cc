#include "util/crc32.hh"

#include <array>

#include "util/cpu.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAGE_CRC_X86 1
#include <immintrin.h>
#else
#define SAGE_CRC_X86 0
#endif

namespace sage {

namespace {

using Slice8Tables = std::array<std::array<uint32_t, 256>, 8>;

/** Table k maps byte b to the CRC register of b followed by k zero
 *  bytes; table 0 is the classic bytewise table. */
constexpr Slice8Tables
makeTables()
{
    Slice8Tables t{};
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); k++) {
        for (uint32_t i = 0; i < 256; i++)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

constexpr Slice8Tables kTables = makeTables();

uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** Slicing-by-8 over the raw (pre-inverted) register @p c. */
uint32_t
updateSlice8(uint32_t c, const uint8_t *data, size_t size)
{
    for (; size >= 8; data += 8, size -= 8) {
        const uint32_t lo = loadLe32(data) ^ c;
        const uint32_t hi = loadLe32(data + 4);
        c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
            kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
            kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    }
    for (size_t i = 0; i < size; i++)
        c = kTables[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
    return c;
}

#if SAGE_CRC_X86

// ---------------------------------------------------------------------
// PCLMULQDQ folding (Gopal et al., Intel 2009)
//
// In the bit-reflected domain a 128-bit lane holds 128 message bits,
// and multiplying its low/high quadwords by x^(n+32) / x^(n-32) mod P
// moves them n bits further down the message, where they xor into the
// block that sits there. Four lanes fold 64 bytes per step (n = 512),
// then fold into one lane and 16-byte blocks (n = 128), and the last
// 128 bits reduce to 64 and then, by Barrett reduction, to the 32-bit
// register. The constants are the reflected-0xEDB88320 ones from the
// paper (also used by zlib and Linux): each k is x^e mod P(x),
// bit-reflected and shifted left one, and mu is floor(x^64 / P(x)).
// ---------------------------------------------------------------------

#define SAGE_TARGET_PCLMUL __attribute__((target("pclmul,sse4.1")))

constexpr long long kK1 = 0x154442bd4;  // e = 4 * 128 + 32
constexpr long long kK2 = 0x1c6e41596;  // e = 4 * 128 - 32
constexpr long long kK3 = 0x1751997d0;  // e = 128 + 32
constexpr long long kK4 = 0x0ccaa009e;  // e = 128 - 32
constexpr long long kK5 = 0x163cd6124;  // e = 64
constexpr long long kPoly = 0x1db710641;  // P(x), reflected
constexpr long long kMu = 0x1f7011641;    // floor(x^64 / P(x)), reflected

/** Smallest update the folding kernel takes: one block per lane. */
constexpr size_t kPclmulMinBytes = 64;

SAGE_TARGET_PCLMUL inline __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Fold @p lane forward by the distance @p k encodes onto @p next. */
SAGE_TARGET_PCLMUL inline __m128i
fold(__m128i lane, __m128i k, __m128i next)
{
    return _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                      _mm_clmulepi64_si128(lane, k, 0x11)),
        next);
}

/** CRC register @p crc over @p size bytes; size >= kPclmulMinBytes
 *  and a multiple of 16. */
SAGE_TARGET_PCLMUL uint32_t
updatePclmul(uint32_t crc, const uint8_t *data, size_t size)
{
    const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
    const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
    const __m128i k5 = _mm_set_epi64x(0, kK5);
    const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i x0 = _mm_xor_si128(load128(data),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x1 = load128(data + 16);
    __m128i x2 = load128(data + 32);
    __m128i x3 = load128(data + 48);
    data += 64;
    size -= 64;
    for (; size >= 64; data += 64, size -= 64) {
        x0 = fold(x0, k1k2, load128(data));
        x1 = fold(x1, k1k2, load128(data + 16));
        x2 = fold(x2, k1k2, load128(data + 32));
        x3 = fold(x3, k1k2, load128(data + 48));
    }
    x0 = fold(x0, k3k4, x1);
    x0 = fold(x0, k3k4, x2);
    x0 = fold(x0, k3k4, x3);
    for (; size >= 16; data += 16, size -= 16)
        x0 = fold(x0, k3k4, load128(data));

    // 128 -> 64 bits, then 64 -> 32 bits plus 32 bits of headroom.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

    // Barrett reduction: q = floor(x0 * mu / x^64), then x0 - q * P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
    return static_cast<uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#endif // SAGE_CRC_X86

} // namespace

void
Crc32::update(const uint8_t *data, size_t size)
{
    uint32_t c = state_;
#if SAGE_CRC_X86
    if (size >= kPclmulMinBytes && detectedCarrylessMultiply()) {
        const size_t bulk = size & ~size_t{15};
        c = updatePclmul(c, data, bulk);
        data += bulk;
        size -= bulk;
    }
#endif
    state_ = updateSlice8(c, data, size);
}

namespace crc32 {

const char *
activeTierName()
{
    return detectedCarrylessMultiply() ? "pclmul" : "slice8";
}

uint32_t
slice8(uint32_t crc, const uint8_t *data, size_t size)
{
    return updateSlice8(crc ^ 0xffffffffu, data, size) ^ 0xffffffffu;
}

} // namespace crc32

} // namespace sage
