/**
 * @file
 * libFuzzer entry point for the untrusted-container surface: the
 * StreamDirectory framing parser, the full archive open
 * (SageDecoder::tryOpen — stream decompression, parameter decode,
 * consensus unpack, chunk-table validation), per-chunk decode, and
 * the trailer checksum walk. Every byte here is attacker-controlled;
 * the contract under test is "a Status, never a crash".
 *
 * Built behind -DSAGE_BUILD_FUZZERS=ON (clang only); see
 * fuzz/CMakeLists.txt. Seeds live in fuzz/corpus/ — a valid tiny
 * archive plus truncated/flipped variants gives the fuzzer the
 * framing structure to mutate from.
 */

#include <cstddef>
#include <cstdint>

#include "core/decoder.hh"
#include "io/byte_stream.hh"
#include "io/container.hh"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace sage;
    const MemorySource source(data, size);

    // Framing alone: must always come back as a StatusOr.
    const StatusOr<StreamDirectory> dir =
        StreamDirectory::tryParse(source);
    (void)dir;

    // Trailer checksum walk over arbitrary bytes.
    (void)verifyArchiveChecksum(source);

    // The full open; when the input happens to parse, decode every
    // chunk too — the per-read decode loop is the deepest consumer
    // of untrusted bytes.
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source);
    if (opened.ok()) {
        SageDecoder &decoder = **opened;
        for (size_t c = 0; c < decoder.chunkCount(); c++)
            (void)decoder.tryDecodeChunkShared(c);
    }
    return 0;
}
