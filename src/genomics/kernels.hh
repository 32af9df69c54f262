/**
 * @file
 * Runtime-dispatched sequence kernels: the hot base-level transforms
 * under every SAGe chunk decode and FASTQ ingest.
 *
 * The paper's premise (§3, §5.2) is that data preparation must run at
 * hardware speed; on the host that means the four transforms every
 * decode/encode pass leans on — 2/3-bit unpack, pack, reverse
 * complement, and bulk base validation — must not crawl through a bit
 * stream one base at a time. This layer provides:
 *
 *   - a portable scalar baseline that is already table/word-driven
 *     (4 bases per packed byte for 2-bit, 8 bases per 3 packed bytes
 *     for 3-bit, 256-entry LUTs for complement/validation), and
 *   - SSSE3/AVX2 shuffle kernels (16-entry pshufb LUTs, reversed
 *     vector stores) selected once at startup via util/cpu.hh.
 *
 * Dispatch honors SAGE_FORCE_SCALAR=1 so both paths can be exercised
 * by the same test suite. Every kernel is byte-identical to the
 * historical BitReader/BitWriter implementations (tests/test_kernels).
 *
 * Bit layout contract (matches util/bitio.hh): fields are LSB-first
 * within each byte; 2-bit base k of packed byte b sits at bits
 * [2k, 2k+2); 3-bit fields run little-endian across byte boundaries;
 * the final partial byte is zero-padded.
 */

#ifndef SAGE_GENOMICS_KERNELS_HH
#define SAGE_GENOMICS_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "util/cpu.hh"

namespace sage {
namespace kernels {

/** SIMD tier the dispatched kernels resolved to (after the
 *  SAGE_FORCE_SCALAR override). */
SimdLevel activeLevel();

/** Lower-case name of the active tier: "scalar", "ssse3", "avx2". */
const char *activeLevelName();

// ---------------------------------------------------------------------
// Dispatched kernels (scalar / SSSE3 / AVX2 chosen at startup)
// ---------------------------------------------------------------------

/**
 * Pack @p count ACGT bases at 2 bits/base into @p out
 * (capacity >= (count + 3) / 4 bytes; final byte zero-padded).
 * Panics when the sequence contains anything but A/C/G/T (either
 * case), matching the historical packSequence contract.
 */
void pack2bit(const char *bases, size_t count, uint8_t *out);

/**
 * Pack @p count bases at 3 bits/base into @p out
 * (capacity >= (3 * count + 7) / 8 bytes; final byte zero-padded).
 * Unknown characters map to N, as baseToCode always did.
 */
void pack3bit(const char *bases, size_t count, uint8_t *out);

/**
 * Unpack @p count 2-bit bases from @p packed (@p packed_size bytes)
 * into @p out (capacity >= count chars). Panics on underrun.
 */
void unpack2bit(const uint8_t *packed, size_t packed_size, size_t count,
                char *out);

/**
 * Unpack @p count 3-bit bases from @p packed (@p packed_size bytes)
 * into @p out (capacity >= count chars). Panics on underrun. Returns
 * false when any code is invalid (5-7: corrupt input); those bases
 * come out as 'N'.
 */
bool unpack3bit(const uint8_t *packed, size_t packed_size, size_t count,
                char *out);

/**
 * Reverse complement @p count bases of @p seq into @p out (capacity
 * >= count; must not alias @p seq). Case-folds to upper case; every
 * non-ACGT byte complements to 'N' (complementBase semantics).
 */
void reverseComplement(const char *seq, size_t count, char *out);

/** True when @p seq is A/C/G/T only (either case). */
bool isAcgtOnly(const char *seq, size_t count);

// ---------------------------------------------------------------------
// Bulk code conversion + ingest validation (table-driven scalar)
// ---------------------------------------------------------------------

/** Bulk baseToCode: unknown characters map to code 4 (N). */
void basesToCodes(const char *bases, size_t count, uint8_t *codes);

/** Bulk codeToBase; panics on codes > 4 like codeToBase. */
void codesToBases(const uint8_t *codes, size_t count, char *bases);

/**
 * FASTQ ingest guard: index of the first byte of @p bases that cannot
 * be a sequence character (we accept letters — the IUPAC codes, either
 * case — plus '.', '-' and '*' gap markers), or @p count when the
 * whole buffer is plausible. Catches binary garbage and control
 * characters at ingest instead of silently turning them into N bases.
 */
size_t findInvalidBase(const char *bases, size_t count);

// ---------------------------------------------------------------------
// Scalar baselines (always available; used by tests and benches to
// check and measure the dispatched kernels against)
// ---------------------------------------------------------------------

namespace scalar {

void pack2bit(const char *bases, size_t count, uint8_t *out);
void pack3bit(const char *bases, size_t count, uint8_t *out);
void unpack2bit(const uint8_t *packed, size_t packed_size, size_t count,
                char *out);
bool unpack3bit(const uint8_t *packed, size_t packed_size, size_t count,
                char *out);
void reverseComplement(const char *seq, size_t count, char *out);
bool isAcgtOnly(const char *seq, size_t count);

} // namespace scalar

} // namespace kernels
} // namespace sage

#endif // SAGE_GENOMICS_KERNELS_HH
