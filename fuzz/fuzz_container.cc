/**
 * @file
 * libFuzzer entry point for the untrusted-container surface: the
 * StreamDirectory framing parser, the full archive open
 * (SageDecoder::tryOpen — parameter decode, consensus unpack,
 * chunk-table and host-stream table validation), per-chunk decode
 * with its first-use header and quality block decodes, and the
 * trailer checksum walk. Every byte here is attacker-controlled;
 * the contract under test is "a Status, never a crash". Each chunk
 * decodes through both of the decoder's loops, per read and into
 * columns, and the harness aborts when they disagree on a read or on
 * the StatusCode.
 *
 * Built behind -DSAGE_BUILD_FUZZERS=ON (clang only); see
 * fuzz/CMakeLists.txt. Seeds live in fuzz/corpus/ — valid tiny
 * archives in both host-stream layouts plus truncated/flipped variants
 * give the fuzzer the framing structure to mutate from.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/decoder.hh"
#include "io/byte_stream.hh"
#include "io/container.hh"

namespace {

/** Abort, which the fuzzer reports, unless the loops agree. */
void
expectAgreement(bool agree, size_t chunk, const char *what)
{
    if (agree)
        return;
    std::fprintf(stderr, "chunk %zu: the two decode loops disagree on %s\n",
                 chunk, what);
    std::abort();
}

/** Decode @p chunk per read and into columns; they must agree. */
void
decodeBothLoops(const sage::SageDecoder &decoder, size_t chunk)
{
    using namespace sage;
    const StatusOr<std::vector<Read>> reads =
        decoder.tryDecodeChunkShared(chunk);
    ReadColumns columns;
    const Status status = decoder.tryDecodeChunkShared(chunk, columns);
    expectAgreement(status.code() == (reads.ok() ? StatusCode::Ok
                                                 : reads.status().code()),
                    chunk, "the status");
    if (!reads.ok())
        return;
    expectAgreement(columns.size() == reads->size(), chunk,
                    "the read count");
    for (size_t i = 0; i < columns.size(); i++) {
        const ReadView got = columns[i];
        const Read &want = (*reads)[i];
        expectAgreement(got.header == want.header &&
                            got.bases == want.bases &&
                            got.quals == want.quals,
                        chunk, "a read");
    }
}

} // namespace

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
    // chunk too — the decode loops are the deepest consumers of
    // untrusted bytes.
    const StatusOr<std::unique_ptr<SageDecoder>> opened =
        SageDecoder::tryOpen(source);
    if (opened.ok()) {
        const SageDecoder &decoder = **opened;
        for (size_t c = 0; c < decoder.chunkCount(); c++)
            decodeBothLoops(decoder, c);
    }
    return 0;
}
