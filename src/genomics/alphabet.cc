#include "genomics/alphabet.hh"

#include <cstring>

#include "genomics/kernels.hh"
#include "util/status.hh"

namespace sage {

// Every bulk transform here routes through the runtime-dispatched
// kernel layer (genomics/kernels.hh): table-driven scalar baseline,
// SSSE3/AVX2 when the host has them, SAGE_FORCE_SCALAR=1 to override.
// Output is byte-identical to the historical per-bit implementations.

std::string
reverseComplement(std::string_view seq)
{
    std::string out(seq.size(), '\0');
    kernels::reverseComplement(seq.data(), seq.size(), out.data());
    return out;
}

namespace {

/** The SIMD kernels mirror while storing, so in-place needs a scratch;
 *  it is thread-local to spare the hot decode loop an allocation per
 *  reverse-strand read. */
std::string &
reverseScratch()
{
    thread_local std::string scratch;
    return scratch;
}

} // namespace

void
reverseComplementInPlace(std::string &seq)
{
    std::string &scratch = reverseScratch();
    scratch.assign(seq.size(), '\0');
    kernels::reverseComplement(seq.data(), seq.size(), scratch.data());
    seq.swap(scratch);
}

void
reverseComplementInPlace(char *seq, size_t count)
{
    std::string &scratch = reverseScratch();
    scratch.resize(count);
    kernels::reverseComplement(seq, count, scratch.data());
    std::memcpy(seq, scratch.data(), count);
}

bool
isAcgtOnly(std::string_view seq)
{
    return kernels::isAcgtOnly(seq.data(), seq.size());
}

std::vector<uint8_t>
packSequence(std::string_view seq, OutputFormat fmt)
{
    if (fmt == OutputFormat::Ascii)
        return std::vector<uint8_t>(seq.begin(), seq.end());

    if (fmt == OutputFormat::TwoBit) {
        std::vector<uint8_t> out((seq.size() + 3) / 4);
        kernels::pack2bit(seq.data(), seq.size(), out.data());
        return out;
    }
    std::vector<uint8_t> out((3 * seq.size() + 7) / 8);
    kernels::pack3bit(seq.data(), seq.size(), out.data());
    return out;
}

void
appendUnpackedSequence(std::string &out, const uint8_t *packed,
                       size_t packed_size, size_t num_bases,
                       OutputFormat fmt)
{
    if (fmt == OutputFormat::Ascii) {
        out.append(reinterpret_cast<const char *>(packed), packed_size);
        return;
    }
    const size_t at = out.size();
    out.resize(at + num_bases);
    if (fmt == OutputFormat::TwoBit) {
        kernels::unpack2bit(packed, packed_size, num_bases,
                            out.data() + at);
    } else {
        sage_check_data(kernels::unpack3bit(packed, packed_size,
                                            num_bases, out.data() + at),
                        Corrupt, "bad base code in 3-bit stream");
    }
}

std::string
unpackSequence(const uint8_t *packed, size_t packed_size,
               size_t num_bases, OutputFormat fmt)
{
    std::string out;
    appendUnpackedSequence(out, packed, packed_size, num_bases, fmt);
    return out;
}

std::string
unpackSequence(const std::vector<uint8_t> &packed, size_t num_bases,
               OutputFormat fmt)
{
    return unpackSequence(packed.data(), packed.size(), num_bases, fmt);
}

} // namespace sage
