/**
 * @file
 * DNA alphabet codecs.
 *
 * Genomic reads use the 4-letter alphabet A/C/G/T plus N for unknown bases
 * (paper §2.1). SAGe's hardware formats output as 2-bit (ACGT only), 3-bit
 * (with N) or ASCII on request (paper §5.2.2, step 12); the codecs for all
 * three live here so the software decompressor, the hardware model and the
 * analysis accelerators agree on representations.
 */

#ifndef SAGE_GENOMICS_ALPHABET_HH
#define SAGE_GENOMICS_ALPHABET_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.hh"

namespace sage {

/** Numeric codes for DNA bases. */
enum class Base : uint8_t { A = 0, C = 1, G = 2, T = 3, N = 4 };

/** Number of distinct base codes including N. */
constexpr unsigned kBaseCodes = 5;

/** Map an ASCII base character (upper or lower case) to its code. */
inline uint8_t
baseToCode(char c)
{
    switch (c) {
      case 'A': case 'a': return 0;
      case 'C': case 'c': return 1;
      case 'G': case 'g': return 2;
      case 'T': case 't': return 3;
      default: return 4; // Everything unknown maps to N.
    }
}

/** Map a base code back to its ASCII character. */
inline char
codeToBase(uint8_t code)
{
    static constexpr char kBases[] = {'A', 'C', 'G', 'T', 'N'};
    sage_assert(code < kBaseCodes, "bad base code ", unsigned(code));
    return kBases[code];
}

/** Complement of a base character (N maps to N). */
inline char
complementBase(char c)
{
    switch (c) {
      case 'A': case 'a': return 'T';
      case 'C': case 'c': return 'G';
      case 'G': case 'g': return 'C';
      case 'T': case 't': return 'A';
      default: return 'N';
    }
}

/** Reverse complement of a sequence (SIMD-dispatched, kernels.hh). */
std::string reverseComplement(std::string_view seq);

/** Reverse complement @p seq in place (SIMD-dispatched). The result
 *  takes over a thread-local scratch buffer of exactly its size, and
 *  the scratch keeps @p seq's old buffer. */
void reverseComplementInPlace(std::string &seq);

/** Reverse complement @p count bases at @p seq in place, through the
 *  same scratch: for a read inside a larger buffer, such as a column
 *  arena, whose buffer must stay where it is. */
void reverseComplementInPlace(char *seq, size_t count);

/** True if the sequence contains only A/C/G/T (SIMD-dispatched). */
bool isAcgtOnly(std::string_view seq);

/** Output formats SAGe_Read can request (paper §5.4). */
enum class OutputFormat : uint8_t {
    Ascii,     ///< One byte per base, FASTQ-style.
    TwoBit,    ///< 2 bits per base; only valid for ACGT-only reads.
    ThreeBit,  ///< 3 bits per base; supports N.
};

/** Bits per base for a given output format. */
inline unsigned
bitsPerBase(OutputFormat fmt)
{
    switch (fmt) {
      case OutputFormat::Ascii: return 8;
      case OutputFormat::TwoBit: return 2;
      case OutputFormat::ThreeBit: return 3;
    }
    return 8;
}

/** Pack a sequence at 2 or 3 bits/base (ASCII passes through). */
std::vector<uint8_t> packSequence(std::string_view seq, OutputFormat fmt);

/** Invert packSequence given the base count. A 3-bit code that is no
 *  base (5-7) throws StatusError (Corrupt): packed bytes come from
 *  archives, and bad ones must not abort the process. */
std::string unpackSequence(const uint8_t *packed, size_t packed_size,
                           size_t num_bases, OutputFormat fmt);

/** unpackSequence() appended to @p out (on a throw, @p out keeps a
 *  partly written tail). */
void appendUnpackedSequence(std::string &out, const uint8_t *packed,
                            size_t packed_size, size_t num_bases,
                            OutputFormat fmt);

/** Invert packSequence given the base count. */
std::string unpackSequence(const std::vector<uint8_t> &packed,
                           size_t num_bases, OutputFormat fmt);

} // namespace sage

#endif // SAGE_GENOMICS_ALPHABET_HH
