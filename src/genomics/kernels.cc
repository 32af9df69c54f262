#include "genomics/kernels.hh"

#include <array>
#include <cstring>

#include "util/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAGE_KERNELS_X86 1
#include <immintrin.h>
#else
#define SAGE_KERNELS_X86 0
#endif

namespace sage {
namespace kernels {

namespace {

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/** Base code -> ASCII; codes 5-7 are invalid and rejected separately. */
constexpr char kCodeChar[8] = {'A', 'C', 'G', 'T', 'N', 'N', 'N', 'N'};

/** ASCII -> base code, baseToCode semantics (unknown -> 4). */
constexpr std::array<uint8_t, 256>
buildCharCode()
{
    std::array<uint8_t, 256> t{};
    for (size_t i = 0; i < t.size(); i++)
        t[i] = 4;
    t['A'] = t['a'] = 0;
    t['C'] = t['c'] = 1;
    t['G'] = t['g'] = 2;
    t['T'] = t['t'] = 3;
    return t;
}
constexpr std::array<uint8_t, 256> kCharCode = buildCharCode();

/** ASCII -> complement, complementBase semantics (unknown -> 'N'). */
constexpr std::array<char, 256>
buildComplement()
{
    std::array<char, 256> t{};
    for (size_t i = 0; i < t.size(); i++)
        t[i] = 'N';
    t['A'] = t['a'] = 'T';
    t['C'] = t['c'] = 'G';
    t['G'] = t['g'] = 'C';
    t['T'] = t['t'] = 'A';
    return t;
}
constexpr std::array<char, 256> kComplement = buildComplement();

/** Packed 2-bit byte -> its four ASCII bases (endian-independent). */
constexpr std::array<std::array<char, 4>, 256>
buildUnpack2()
{
    std::array<std::array<char, 4>, 256> t{};
    for (size_t b = 0; b < t.size(); b++) {
        for (size_t k = 0; k < 4; k++)
            t[b][k] = kCodeChar[(b >> (2 * k)) & 3];
    }
    return t;
}
constexpr std::array<std::array<char, 4>, 256> kUnpack2 = buildUnpack2();

/**
 * 12-bit group -> four ASCII bases for 3-bit unpack: 3 bytes hold
 * exactly eight 3-bit fields, split into two 12-bit halves of four
 * codes each. 16 KB of LUT (plus a 4 KB validity sidecar marking
 * groups containing codes 5-7) stays L1-resident and replaces four
 * shift/mask/branch chains per lookup.
 */
constexpr std::array<std::array<char, 4>, 4096>
buildUnpack3()
{
    std::array<std::array<char, 4>, 4096> t{};
    for (size_t w = 0; w < t.size(); w++) {
        for (size_t k = 0; k < 4; k++)
            t[w][k] = kCodeChar[(w >> (3 * k)) & 7];
    }
    return t;
}
constexpr std::array<std::array<char, 4>, 4096> kUnpack3 =
    buildUnpack3();

constexpr std::array<uint8_t, 4096>
buildUnpack3Bad()
{
    std::array<uint8_t, 4096> t{};
    for (size_t w = 0; w < t.size(); w++) {
        uint8_t bad = 0;
        for (size_t k = 0; k < 4; k++)
            bad |= static_cast<uint8_t>(((w >> (3 * k)) & 7) > 4);
        t[w] = bad;
    }
    return t;
}
constexpr std::array<uint8_t, 4096> kUnpack3Bad = buildUnpack3Bad();

/** Plausible FASTQ sequence characters: letters + gap markers. */
constexpr std::array<bool, 256>
buildSeqChar()
{
    std::array<bool, 256> t{};
    for (char c = 'A'; c <= 'Z'; c++)
        t[static_cast<uint8_t>(c)] = true;
    for (char c = 'a'; c <= 'z'; c++)
        t[static_cast<uint8_t>(c)] = true;
    t[static_cast<uint8_t>('.')] = true;
    t[static_cast<uint8_t>('-')] = true;
    t[static_cast<uint8_t>('*')] = true;
    return t;
}
constexpr std::array<bool, 256> kSeqChar = buildSeqChar();

// ---------------------------------------------------------------------
// Scalar baselines (table/word-driven)
// ---------------------------------------------------------------------

void
pack2bitScalar(const char *bases, size_t count, uint8_t *out)
{
    const uint8_t *s = reinterpret_cast<const uint8_t *>(bases);
    size_t i = 0, o = 0;
    uint8_t seen = 0;
    for (; i + 4 <= count; i += 4, o++) {
        const uint8_t c0 = kCharCode[s[i]];
        const uint8_t c1 = kCharCode[s[i + 1]];
        const uint8_t c2 = kCharCode[s[i + 2]];
        const uint8_t c3 = kCharCode[s[i + 3]];
        seen |= c0 | c1 | c2 | c3;
        out[o] = static_cast<uint8_t>(c0 | (c1 << 2) | (c2 << 4) |
                                      (c3 << 6));
    }
    if (i < count) {
        uint8_t byte = 0;
        for (unsigned shift = 0; i < count; i++, shift += 2) {
            const uint8_t c = kCharCode[s[i]];
            seen |= c;
            byte |= static_cast<uint8_t>((c & 3) << shift);
        }
        out[o] = byte;
    }
    // Code 4 (N/unknown) is the only value with bit 2 set.
    sage_assert((seen & 4) == 0,
                "2-bit packing requires ACGT-only sequence");
}

void
pack3bitScalar(const char *bases, size_t count, uint8_t *out)
{
    const uint8_t *s = reinterpret_cast<const uint8_t *>(bases);
    size_t i = 0, o = 0;
    for (; i + 8 <= count; i += 8, o += 3) {
        uint32_t w = 0;
        for (unsigned k = 0; k < 8; k++)
            w |= static_cast<uint32_t>(kCharCode[s[i + k]]) << (3 * k);
        out[o] = static_cast<uint8_t>(w);
        out[o + 1] = static_cast<uint8_t>(w >> 8);
        out[o + 2] = static_cast<uint8_t>(w >> 16);
    }
    if (i < count) {
        uint32_t acc = 0;
        unsigned bits = 0;
        for (; i < count; i++) {
            acc |= static_cast<uint32_t>(kCharCode[s[i]]) << bits;
            bits += 3;
        }
        for (; bits > 0; bits -= (bits < 8 ? bits : 8)) {
            out[o++] = static_cast<uint8_t>(acc);
            acc >>= 8;
        }
    }
}

void
unpack2bitScalar(const uint8_t *packed, size_t packed_size, size_t count,
                 char *out)
{
    sage_assert(packed_size >= (count + 3) / 4,
                "2-bit stream underrun");
    size_t i = 0;
    for (; i + 4 <= count; i += 4)
        std::memcpy(out + i, kUnpack2[packed[i >> 2]].data(), 4);
    if (i < count) {
        uint8_t byte = packed[i >> 2];
        for (; i < count; i++) {
            out[i] = kCodeChar[byte & 3];
            byte >>= 2;
        }
    }
}

bool
unpack3bitScalar(const uint8_t *packed, size_t packed_size, size_t count,
                 char *out)
{
    sage_assert(packed_size >= (3 * count + 7) / 8,
                "3-bit stream underrun");
    size_t i = 0, o = 0;
    unsigned invalid = 0;
    for (; i + 8 <= count; i += 8, o += 3) {
        const uint32_t w = static_cast<uint32_t>(packed[o]) |
            (static_cast<uint32_t>(packed[o + 1]) << 8) |
            (static_cast<uint32_t>(packed[o + 2]) << 16);
        const uint32_t lo = w & 0xFFF;
        const uint32_t hi = w >> 12;
        invalid |= kUnpack3Bad[lo] | kUnpack3Bad[hi];
        std::memcpy(out + i, kUnpack3[lo].data(), 4);
        std::memcpy(out + i + 4, kUnpack3[hi].data(), 4);
    }
    // Tail: 3*i bits consumed == o whole bytes (i is a multiple of 8).
    for (uint64_t bit = 3 * static_cast<uint64_t>(i); i < count;
         i++, bit += 3) {
        const size_t byte = static_cast<size_t>(bit >> 3);
        const unsigned shift = static_cast<unsigned>(bit & 7);
        unsigned v = packed[byte] >> shift;
        if (shift > 5 && byte + 1 < packed_size)
            v |= static_cast<unsigned>(packed[byte + 1]) << (8 - shift);
        const unsigned code = v & 7;
        invalid |= static_cast<unsigned>(code > 4);
        out[i] = kCodeChar[code];
    }
    return invalid == 0;
}

void
reverseComplementScalar(const char *seq, size_t count, char *out)
{
    const uint8_t *s = reinterpret_cast<const uint8_t *>(seq);
    for (size_t j = 0; j < count; j++)
        out[j] = kComplement[s[count - 1 - j]];
}

bool
isAcgtOnlyScalar(const char *seq, size_t count)
{
    const uint8_t *s = reinterpret_cast<const uint8_t *>(seq);
    for (size_t i = 0; i < count; i++) {
        if (kCharCode[s[i]] >= 4)
            return false;
    }
    return true;
}

#if SAGE_KERNELS_X86

// ---------------------------------------------------------------------
// SSSE3 kernels (128-bit pshufb)
//
// The complement/validation trick: fold case with `c & 0xDF` (the only
// preimages of 'A' under that mask are 'A' and 'a', and likewise for
// C/G/T), look the low nibble up in a 16-entry table of the expected
// source characters (invalid nibbles hold 0xFF, which no folded byte
// can equal), and compare: lanes where the folded byte equals the
// expected source are real bases, every other lane is forced to 'N' —
// exactly complementBase's semantics for arbitrary bytes.
// ---------------------------------------------------------------------

#define SAGE_TARGET_SSSE3 __attribute__((target("ssse3")))
#define SAGE_TARGET_AVX2 __attribute__((target("avx2")))

/** Expected folded byte per low nibble (0xFF = no base has it). */
#define SAGE_NIB_SRC                                                        \
    '\xFF', 'A', '\xFF', 'C', 'T', '\xFF', '\xFF', 'G', '\xFF', '\xFF',     \
        '\xFF', '\xFF', '\xFF', '\xFF', '\xFF', '\xFF'
/** Complement per low nibble (don't-care lanes masked to 'N'). */
#define SAGE_NIB_COMP                                                       \
    'N', 'T', 'N', 'G', 'A', 'N', 'N', 'C', 'N', 'N', 'N', 'N', 'N',        \
        'N', 'N', 'N'
/** Base code per low nibble (don't-care lanes rejected separately). */
#define SAGE_NIB_CODE                                                       \
    0, 0, 0, 1, 3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0

SAGE_TARGET_SSSE3 void
unpack2bitSsse3(const uint8_t *packed, size_t packed_size, size_t count,
                char *out)
{
    sage_assert(packed_size >= (count + 3) / 4,
                "2-bit stream underrun");
    const __m128i ascii =
        _mm_setr_epi8('A', 'C', 'G', 'T', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                      0, 0);
    const __m128i mask3 = _mm_set1_epi8(0x03);
    size_t i = 0;
    for (; i + 64 <= count; i += 64) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(packed + (i >> 2)));
        const __m128i t0 = _mm_and_si128(x, mask3);
        const __m128i t1 = _mm_and_si128(_mm_srli_epi16(x, 2), mask3);
        const __m128i t2 = _mm_and_si128(_mm_srli_epi16(x, 4), mask3);
        const __m128i t3 = _mm_and_si128(_mm_srli_epi16(x, 6), mask3);
        const __m128i a = _mm_unpacklo_epi8(t0, t1);
        const __m128i b = _mm_unpackhi_epi8(t0, t1);
        const __m128i c = _mm_unpacklo_epi8(t2, t3);
        const __m128i d = _mm_unpackhi_epi8(t2, t3);
        __m128i *dst = reinterpret_cast<__m128i *>(out + i);
        _mm_storeu_si128(
            dst, _mm_shuffle_epi8(ascii, _mm_unpacklo_epi16(a, c)));
        _mm_storeu_si128(
            dst + 1, _mm_shuffle_epi8(ascii, _mm_unpackhi_epi16(a, c)));
        _mm_storeu_si128(
            dst + 2, _mm_shuffle_epi8(ascii, _mm_unpacklo_epi16(b, d)));
        _mm_storeu_si128(
            dst + 3, _mm_shuffle_epi8(ascii, _mm_unpackhi_epi16(b, d)));
    }
    if (i < count) {
        unpack2bitScalar(packed + (i >> 2), packed_size - (i >> 2),
                         count - i, out + i);
    }
}

SAGE_TARGET_AVX2 void
unpack2bitAvx2(const uint8_t *packed, size_t packed_size, size_t count,
               char *out)
{
    sage_assert(packed_size >= (count + 3) / 4,
                "2-bit stream underrun");
    const __m256i ascii = _mm256_setr_epi8(
        'A', 'C', 'G', 'T', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'A',
        'C', 'G', 'T', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m256i mask3 = _mm256_set1_epi8(0x03);
    size_t i = 0;
    for (; i + 128 <= count; i += 128) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(packed + (i >> 2)));
        const __m256i t0 = _mm256_and_si256(x, mask3);
        const __m256i t1 =
            _mm256_and_si256(_mm256_srli_epi16(x, 2), mask3);
        const __m256i t2 =
            _mm256_and_si256(_mm256_srli_epi16(x, 4), mask3);
        const __m256i t3 =
            _mm256_and_si256(_mm256_srli_epi16(x, 6), mask3);
        const __m256i a = _mm256_unpacklo_epi8(t0, t1);
        const __m256i b = _mm256_unpackhi_epi8(t0, t1);
        const __m256i c = _mm256_unpacklo_epi8(t2, t3);
        const __m256i d = _mm256_unpackhi_epi8(t2, t3);
        // Unpacks interleave within 128-bit lanes, so r0..r3 hold the
        // expansions of packed bytes {0-3,16-19}, {4-7,20-23},
        // {8-11,24-27}, {12-15,28-31}; the cross-lane permutes below
        // stitch them back into sequential order.
        const __m256i r0 = _mm256_unpacklo_epi16(a, c);
        const __m256i r1 = _mm256_unpackhi_epi16(a, c);
        const __m256i r2 = _mm256_unpacklo_epi16(b, d);
        const __m256i r3 = _mm256_unpackhi_epi16(b, d);
        const __m256i s0 = _mm256_permute2x128_si256(r0, r1, 0x20);
        const __m256i s1 = _mm256_permute2x128_si256(r2, r3, 0x20);
        const __m256i s2 = _mm256_permute2x128_si256(r0, r1, 0x31);
        const __m256i s3 = _mm256_permute2x128_si256(r2, r3, 0x31);
        __m256i *dst = reinterpret_cast<__m256i *>(out + i);
        _mm256_storeu_si256(dst, _mm256_shuffle_epi8(ascii, s0));
        _mm256_storeu_si256(dst + 1, _mm256_shuffle_epi8(ascii, s1));
        _mm256_storeu_si256(dst + 2, _mm256_shuffle_epi8(ascii, s2));
        _mm256_storeu_si256(dst + 3, _mm256_shuffle_epi8(ascii, s3));
    }
    if (i < count) {
        unpack2bitSsse3(packed + (i >> 2), packed_size - (i >> 2),
                        count - i, out + i);
    }
}

// ---------------------------------------------------------------------
// Shuffle-based 3-bit unpack (genozip-style pshufb gathers).
//
// Eight 3-bit codes live in three bytes; code k of a group starts at
// bit 3k, i.e. inside byte 3k>>3 at shift 3k&7. pshufb replicates each
// code's covering byte *pair* into its own 16-bit lane, a per-lane
// multiply by 1 << (13 - shift) slides the field to bits 13..15 (the
// lanes' shifts differ, so the "variable shift" SSE lacks becomes a
// pmullw by per-lane constants), and one constant psrlw-by-13 drops
// every lane's code into bits 0..2. packus + a 16-entry ASCII table
// shuffle finish the job. Validation matches the scalar kernel: codes
// 5-7 render as 'N' and fail the stream assert.
// ---------------------------------------------------------------------

/** Byte-pair gather for codes 0-7 of a 3-byte group at offset @p base:
 *  lane k reads bytes (3k>>3)+base and (3k>>3)+base+1. */
#define SAGE_UNPACK3_SHUF(base)                                             \
    (base), (base) + 1, (base), (base) + 1, (base), (base) + 1,             \
        (base) + 1, (base) + 2, (base) + 1, (base) + 2, (base) + 1,         \
        (base) + 2, (base) + 2, (base) + 3, (base) + 2, (base) + 3
/** Per-lane 1 << (13 - (3k & 7)) multipliers for codes 0-7. */
#define SAGE_UNPACK3_MUL 8192, 1024, 128, 4096, 512, 64, 2048, 256

SAGE_TARGET_SSSE3 bool
unpack3bitSsse3(const uint8_t *packed, size_t packed_size, size_t count,
                char *out)
{
    sage_assert(packed_size >= (3 * count + 7) / 8,
                "3-bit stream underrun");
    const __m128i shufLo = _mm_setr_epi8(SAGE_UNPACK3_SHUF(0));
    const __m128i shufHi = _mm_setr_epi8(SAGE_UNPACK3_SHUF(3));
    const __m128i mul = _mm_setr_epi16(SAGE_UNPACK3_MUL);
    const __m128i ascii =
        _mm_setr_epi8('A', 'C', 'G', 'T', 'N', 'N', 'N', 'N', 0, 0, 0,
                      0, 0, 0, 0, 0);
    const __m128i four = _mm_set1_epi8(4);
    __m128i badAcc = _mm_setzero_si128();
    size_t i = 0, o = 0;
    // Each iteration loads 16 bytes but consumes 6 (16 codes), so the
    // loop also needs the full load to stay inside the stream; the
    // last few groups fall through to the scalar kernel.
    for (; i + 16 <= count && o + 16 <= packed_size; i += 16, o += 6) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(packed + o));
        const __m128i lo = _mm_srli_epi16(
            _mm_mullo_epi16(_mm_shuffle_epi8(x, shufLo), mul), 13);
        const __m128i hi = _mm_srli_epi16(
            _mm_mullo_epi16(_mm_shuffle_epi8(x, shufHi), mul), 13);
        const __m128i codes = _mm_packus_epi16(lo, hi);
        badAcc = _mm_or_si128(badAcc, _mm_cmpgt_epi8(codes, four));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_shuffle_epi8(ascii, codes));
    }
    const bool valid = _mm_movemask_epi8(badAcc) == 0;
    if (i == count)
        return valid;
    // i is a multiple of 8, so 3i/8 whole bytes are consumed.
    return unpack3bitScalar(packed + o, packed_size - o, count - i,
                            out + i) && valid;
}

SAGE_TARGET_AVX2 bool
unpack3bitAvx2(const uint8_t *packed, size_t packed_size, size_t count,
               char *out)
{
    sage_assert(packed_size >= (3 * count + 7) / 8,
                "3-bit stream underrun");
    // One 16-byte load broadcast to both lanes feeds all 32 codes:
    // pshufb is in-lane, so the two shuffle controls give lane 0 codes
    // 0-7 / 16-23 and lane 1 codes 8-15 / 24-31 (byte offsets 0/3 and
    // 6/9 — at most byte 12 of the load).
    const __m256i shufA = _mm256_setr_epi8(SAGE_UNPACK3_SHUF(0),
                                           SAGE_UNPACK3_SHUF(3));
    const __m256i shufB = _mm256_setr_epi8(SAGE_UNPACK3_SHUF(6),
                                           SAGE_UNPACK3_SHUF(9));
    const __m256i mul = _mm256_setr_epi16(SAGE_UNPACK3_MUL,
                                          SAGE_UNPACK3_MUL);
    const __m256i ascii = _mm256_setr_epi8(
        'A', 'C', 'G', 'T', 'N', 'N', 'N', 'N', 0, 0, 0, 0, 0, 0, 0, 0,
        'A', 'C', 'G', 'T', 'N', 'N', 'N', 'N', 0, 0, 0, 0, 0, 0, 0,
        0);
    const __m256i four = _mm256_set1_epi8(4);
    __m256i badAcc = _mm256_setzero_si256();
    size_t i = 0, o = 0;
    for (; i + 32 <= count && o + 16 <= packed_size; i += 32, o += 12) {
        const __m256i x = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(packed + o)));
        const __m256i a = _mm256_srli_epi16(
            _mm256_mullo_epi16(_mm256_shuffle_epi8(x, shufA), mul), 13);
        const __m256i b = _mm256_srli_epi16(
            _mm256_mullo_epi16(_mm256_shuffle_epi8(x, shufB), mul), 13);
        // packus interleaves per lane (a0 b0 | a1 b1 in 64-bit units
        // holding codes 0-7, 16-23, 8-15, 24-31); permute to order.
        const __m256i codes = _mm256_permute4x64_epi64(
            _mm256_packus_epi16(a, b), 0xD8);
        badAcc =
            _mm256_or_si256(badAcc, _mm256_cmpgt_epi8(codes, four));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_shuffle_epi8(ascii, codes));
    }
    const bool valid = _mm256_movemask_epi8(badAcc) == 0;
    if (i == count)
        return valid;
    return unpack3bitSsse3(packed + o, packed_size - o, count - i,
                           out + i) && valid;
}

SAGE_TARGET_SSSE3 void
pack2bitSsse3(const char *bases, size_t count, uint8_t *out)
{
    const __m128i fold = _mm_set1_epi8(static_cast<char>(0xDF));
    const __m128i lowNib = _mm_set1_epi8(0x0F);
    const __m128i nibSrc = _mm_setr_epi8(SAGE_NIB_SRC);
    const __m128i nibCode = _mm_setr_epi8(SAGE_NIB_CODE);
    const __m128i w14 = _mm_setr_epi8(1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1,
                                      4, 1, 4, 1, 4);
    const __m128i w116 =
        _mm_setr_epi16(1, 16, 1, 16, 1, 16, 1, 16);
    __m128i badAcc = _mm_setzero_si128();
    const __m128i ones = _mm_set1_epi8(static_cast<char>(0xFF));
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(bases + i));
        const __m128i f = _mm_and_si128(v, fold);
        const __m128i idx = _mm_and_si128(f, lowNib);
        const __m128i valid =
            _mm_cmpeq_epi8(f, _mm_shuffle_epi8(nibSrc, idx));
        badAcc = _mm_or_si128(badAcc, _mm_xor_si128(valid, ones));
        const __m128i codes = _mm_shuffle_epi8(nibCode, idx);
        // codes c0..c15 -> bytes (c0 | c1<<2 | c2<<4 | c3<<6), four at
        // a time: pairwise 1,4 weights then pairwise 1,16 weights.
        const __m128i m1 = _mm_maddubs_epi16(codes, w14);
        const __m128i m2 = _mm_madd_epi16(m1, w116);
        __m128i pk = _mm_packs_epi32(m2, m2);
        pk = _mm_packus_epi16(pk, pk);
        const int quad = _mm_cvtsi128_si32(pk);
        std::memcpy(out + (i >> 2), &quad, 4);
    }
    sage_assert(_mm_movemask_epi8(badAcc) == 0,
                "2-bit packing requires ACGT-only sequence");
    if (i < count)
        pack2bitScalar(bases + i, count - i, out + (i >> 2));
}

SAGE_TARGET_SSSE3 void
reverseComplementSsse3(const char *seq, size_t count, char *out)
{
    const __m128i fold = _mm_set1_epi8(static_cast<char>(0xDF));
    const __m128i lowNib = _mm_set1_epi8(0x0F);
    const __m128i nibSrc = _mm_setr_epi8(SAGE_NIB_SRC);
    const __m128i nibComp = _mm_setr_epi8(SAGE_NIB_COMP);
    const __m128i rev = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7,
                                      6, 5, 4, 3, 2, 1, 0);
    const __m128i allN = _mm_set1_epi8('N');
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(seq + count - 16 - i));
        const __m128i f = _mm_and_si128(v, fold);
        const __m128i idx = _mm_and_si128(f, lowNib);
        const __m128i valid =
            _mm_cmpeq_epi8(f, _mm_shuffle_epi8(nibSrc, idx));
        const __m128i comp = _mm_shuffle_epi8(nibComp, idx);
        const __m128i res =
            _mm_or_si128(_mm_and_si128(valid, comp),
                         _mm_andnot_si128(valid, allN));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_shuffle_epi8(res, rev));
    }
    for (; i < count; i++)
        out[i] = kComplement[static_cast<uint8_t>(seq[count - 1 - i])];
}

SAGE_TARGET_AVX2 void
reverseComplementAvx2(const char *seq, size_t count, char *out)
{
    const __m256i fold = _mm256_set1_epi8(static_cast<char>(0xDF));
    const __m256i lowNib = _mm256_set1_epi8(0x0F);
    const __m256i nibSrc =
        _mm256_setr_epi8(SAGE_NIB_SRC, SAGE_NIB_SRC);
    const __m256i nibComp =
        _mm256_setr_epi8(SAGE_NIB_COMP, SAGE_NIB_COMP);
    const __m256i rev = _mm256_setr_epi8(
        15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14,
        13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    const __m256i allN = _mm256_set1_epi8('N');
    size_t i = 0;
    for (; i + 32 <= count; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(seq + count - 32 - i));
        const __m256i f = _mm256_and_si256(v, fold);
        const __m256i idx = _mm256_and_si256(f, lowNib);
        const __m256i valid =
            _mm256_cmpeq_epi8(f, _mm256_shuffle_epi8(nibSrc, idx));
        const __m256i comp = _mm256_shuffle_epi8(nibComp, idx);
        __m256i res =
            _mm256_or_si256(_mm256_and_si256(valid, comp),
                            _mm256_andnot_si256(valid, allN));
        // In-lane byte reverse, then swap the two lanes.
        res = _mm256_shuffle_epi8(res, rev);
        res = _mm256_permute2x128_si256(res, res, 0x01);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), res);
    }
    for (; i < count; i++)
        out[i] = kComplement[static_cast<uint8_t>(seq[count - 1 - i])];
}

SAGE_TARGET_SSSE3 bool
isAcgtOnlySsse3(const char *seq, size_t count)
{
    const __m128i fold = _mm_set1_epi8(static_cast<char>(0xDF));
    const __m128i lowNib = _mm_set1_epi8(0x0F);
    const __m128i nibSrc = _mm_setr_epi8(SAGE_NIB_SRC);
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(seq + i));
        const __m128i f = _mm_and_si128(v, fold);
        const __m128i idx = _mm_and_si128(f, lowNib);
        const __m128i valid =
            _mm_cmpeq_epi8(f, _mm_shuffle_epi8(nibSrc, idx));
        if (_mm_movemask_epi8(valid) != 0xFFFF)
            return false;
    }
    return isAcgtOnlyScalar(seq + i, count - i);
}

SAGE_TARGET_AVX2 bool
isAcgtOnlyAvx2(const char *seq, size_t count)
{
    const __m256i fold = _mm256_set1_epi8(static_cast<char>(0xDF));
    const __m256i lowNib = _mm256_set1_epi8(0x0F);
    const __m256i nibSrc =
        _mm256_setr_epi8(SAGE_NIB_SRC, SAGE_NIB_SRC);
    size_t i = 0;
    for (; i + 32 <= count; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(seq + i));
        const __m256i f = _mm256_and_si256(v, fold);
        const __m256i idx = _mm256_and_si256(f, lowNib);
        const __m256i valid =
            _mm256_cmpeq_epi8(f, _mm256_shuffle_epi8(nibSrc, idx));
        if (_mm256_movemask_epi8(valid) != -1)
            return false;
    }
    return isAcgtOnlyScalar(seq + i, count - i);
}

#endif // SAGE_KERNELS_X86

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

struct KernelTable
{
    void (*pack2)(const char *, size_t, uint8_t *);
    void (*pack3)(const char *, size_t, uint8_t *);
    void (*unpack2)(const uint8_t *, size_t, size_t, char *);
    bool (*unpack3)(const uint8_t *, size_t, size_t, char *);
    void (*revcomp)(const char *, size_t, char *);
    bool (*acgtOnly)(const char *, size_t);
    SimdLevel level;
};

constexpr KernelTable kScalarTable = {
    pack2bitScalar, pack3bitScalar, unpack2bitScalar, unpack3bitScalar,
    reverseComplementScalar, isAcgtOnlyScalar, SimdLevel::Scalar,
};

KernelTable
resolveKernels()
{
    KernelTable table = kScalarTable;
#if SAGE_KERNELS_X86
    const SimdLevel level = detectedSimdLevel();
    if (level >= SimdLevel::SSSE3) {
        table.pack2 = pack2bitSsse3;
        table.unpack2 = unpack2bitSsse3;
        table.unpack3 = unpack3bitSsse3;
        table.revcomp = reverseComplementSsse3;
        table.acgtOnly = isAcgtOnlySsse3;
        table.level = SimdLevel::SSSE3;
    }
    if (level >= SimdLevel::AVX2) {
        table.unpack2 = unpack2bitAvx2;
        table.unpack3 = unpack3bitAvx2;
        table.revcomp = reverseComplementAvx2;
        table.acgtOnly = isAcgtOnlyAvx2;
        table.level = SimdLevel::AVX2;
    }
#endif
    return table;
}

const KernelTable &
active()
{
    static const KernelTable table = resolveKernels();
    return table;
}

} // namespace

SimdLevel
activeLevel()
{
    return active().level;
}

const char *
activeLevelName()
{
    return simdLevelName(active().level);
}

void
pack2bit(const char *bases, size_t count, uint8_t *out)
{
    active().pack2(bases, count, out);
}

void
pack3bit(const char *bases, size_t count, uint8_t *out)
{
    active().pack3(bases, count, out);
}

void
unpack2bit(const uint8_t *packed, size_t packed_size, size_t count,
           char *out)
{
    active().unpack2(packed, packed_size, count, out);
}

bool
unpack3bit(const uint8_t *packed, size_t packed_size, size_t count,
           char *out)
{
    return active().unpack3(packed, packed_size, count, out);
}

void
reverseComplement(const char *seq, size_t count, char *out)
{
    active().revcomp(seq, count, out);
}

bool
isAcgtOnly(const char *seq, size_t count)
{
    return active().acgtOnly(seq, count);
}

void
basesToCodes(const char *bases, size_t count, uint8_t *codes)
{
    const uint8_t *s = reinterpret_cast<const uint8_t *>(bases);
    for (size_t i = 0; i < count; i++)
        codes[i] = kCharCode[s[i]];
}

void
codesToBases(const uint8_t *codes, size_t count, char *bases)
{
    unsigned invalid = 0;
    for (size_t i = 0; i < count; i++) {
        invalid |= static_cast<unsigned>(codes[i] > 4);
        bases[i] = kCodeChar[codes[i] & 7];
    }
    sage_assert(invalid == 0, "bad base code");
}

size_t
findInvalidBase(const char *bases, size_t count)
{
    const uint8_t *s = reinterpret_cast<const uint8_t *>(bases);
    for (size_t i = 0; i < count; i++) {
        if (!kSeqChar[s[i]])
            return i;
    }
    return count;
}

namespace scalar {

void
pack2bit(const char *bases, size_t count, uint8_t *out)
{
    pack2bitScalar(bases, count, out);
}

void
pack3bit(const char *bases, size_t count, uint8_t *out)
{
    pack3bitScalar(bases, count, out);
}

void
unpack2bit(const uint8_t *packed, size_t packed_size, size_t count,
           char *out)
{
    unpack2bitScalar(packed, packed_size, count, out);
}

bool
unpack3bit(const uint8_t *packed, size_t packed_size, size_t count,
           char *out)
{
    return unpack3bitScalar(packed, packed_size, count, out);
}

void
reverseComplement(const char *seq, size_t count, char *out)
{
    reverseComplementScalar(seq, count, out);
}

bool
isAcgtOnly(const char *seq, size_t count)
{
    return isAcgtOnlyScalar(seq, count);
}

} // namespace scalar

} // namespace kernels
} // namespace sage
