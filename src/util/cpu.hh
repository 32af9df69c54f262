/**
 * @file
 * Host CPU capability detection for the runtime-dispatched sequence
 * kernels (genomics/kernels.hh) and the CRC-32 tier (util/crc32.hh).
 *
 * The SAGe paper's premise is that data preparation must run at
 * hardware speed; on the software side that means the hot base-level
 * transforms pick the widest SIMD path the host offers. Detection is
 * done once, at first use, and can be overridden for testing and
 * debugging by setting SAGE_FORCE_SCALAR=1 in the environment (CI runs
 * the whole test suite both ways).
 */

#ifndef SAGE_UTIL_CPU_HH
#define SAGE_UTIL_CPU_HH

#include <string>

namespace sage {

/** SIMD instruction-set tiers the sequence kernels dispatch over. */
enum class SimdLevel {
    Scalar,  ///< Portable table-driven baseline (always available).
    SSSE3,   ///< 128-bit shuffle kernels (pshufb).
    AVX2,    ///< 256-bit shuffle kernels.
};

/**
 * Highest SIMD tier this host supports, honoring SAGE_FORCE_SCALAR.
 * Resolved once; every call after the first is a load.
 */
SimdLevel detectedSimdLevel();

/** Raw hardware capability, ignoring SAGE_FORCE_SCALAR (diagnostics). */
SimdLevel hardwareSimdLevel();

/** True when SAGE_FORCE_SCALAR=1 (or any non-"0" value) is set. */
bool simdForcedScalar();

/** Lower-case tier name: "scalar", "ssse3", "avx2". */
const char *simdLevelName(SimdLevel level);

/**
 * True when the host has carry-less multiply (PCLMULQDQ, plus the
 * SSE4.1 the CRC-32 folding kernel's reduction uses) and
 * SAGE_FORCE_SCALAR is not set. Always false on non-x86 builds.
 * Resolved once, like detectedSimdLevel().
 */
bool detectedCarrylessMultiply();

/** std::thread::hardware_concurrency with a minimum of 1. */
unsigned hardwareConcurrency();

/** Compiler identity this library was built with, e.g. "gcc 12.2.0". */
std::string compilerVersion();

} // namespace sage

#endif // SAGE_UTIL_CPU_HH
