/**
 * @file
 * libFuzzer entry point for one quality block, in either codec: the
 * rANS blocks (tables, lane states, renormalisation bytes and the
 * end-of-block lane check) and the range-coded blocks of older
 * archives. The contract under test is "the characters or a
 * StatusError of Corrupt or Truncated, never a crash"; any other
 * outcome aborts.
 *
 * Input layout:
 *   byte 0      alphabet size - 1 (1..256 symbols)
 *   bytes 1..3  character count, little-endian (under 2^24, so the
 *               output stays small)
 *   the rest    the block payload, codec byte first
 *
 * Seeds live in fuzz/corpus_quality/: a range-coded block, rANS blocks
 * of one lane and of eight, and alphabets of 1 and 40 symbols. Built
 * behind -DSAGE_BUILD_FUZZERS=ON; see fuzz/CMakeLists.txt.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "compress/quality.hh"
#include "util/status.hh"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace sage;
    if (size < 4)
        return 0;
    QualityArchive archive;
    for (unsigned s = 0; s <= data[0]; s++)
        archive.alphabet.push_back(static_cast<char>(s));
    archive.blockChars.push_back(uint64_t(data[1]) | uint64_t(data[2]) << 8 |
                                 uint64_t(data[3]) << 16);
    archive.blocks.emplace_back(data + 4, data + size);
    try {
        const std::string chars = decompressQualityBlock(archive, 0);
        if (chars.size() != archive.blockChars[0]) {
            std::fprintf(stderr, "block decoded to %zu characters of %llu\n",
                         chars.size(),
                         static_cast<unsigned long long>(
                             archive.blockChars[0]));
            std::abort();
        }
    } catch (const StatusError &err) {
        const StatusCode code = err.status().code();
        if (code != StatusCode::Corrupt && code != StatusCode::Truncated) {
            std::fprintf(stderr, "unexpected status: %s\n",
                         err.status().toString().c_str());
            std::abort();
        }
    }
    return 0;
}
