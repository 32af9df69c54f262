#include "util/cpu.hh"

#include <cstdlib>
#include <thread>

namespace sage {

namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAGE_X86_DISPATCH 1
#else
#define SAGE_X86_DISPATCH 0
#endif

SimdLevel
probeHardware()
{
#if SAGE_X86_DISPATCH
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::AVX2;
    if (__builtin_cpu_supports("ssse3"))
        return SimdLevel::SSSE3;
#endif
    return SimdLevel::Scalar;
}

bool
probeCarrylessMultiply()
{
#if SAGE_X86_DISPATCH
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}

bool
probeForcedScalar()
{
    const char *force = std::getenv("SAGE_FORCE_SCALAR");
    return force && *force && !(force[0] == '0' && force[1] == '\0');
}

} // namespace

SimdLevel
hardwareSimdLevel()
{
    static const SimdLevel level = probeHardware();
    return level;
}

bool
simdForcedScalar()
{
    static const bool forced = probeForcedScalar();
    return forced;
}

SimdLevel
detectedSimdLevel()
{
    static const SimdLevel level =
        simdForcedScalar() ? SimdLevel::Scalar : hardwareSimdLevel();
    return level;
}

bool
detectedCarrylessMultiply()
{
    static const bool available =
        !simdForcedScalar() && probeCarrylessMultiply();
    return available;
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar: return "scalar";
      case SimdLevel::SSSE3: return "ssse3";
      case SimdLevel::AVX2: return "avx2";
    }
    return "scalar";
}

unsigned
hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::string
compilerVersion()
{
#if defined(__clang__)
    return "clang " + std::string(__clang_version__);
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace sage
