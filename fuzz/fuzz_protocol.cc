/**
 * @file
 * libFuzzer entry point for the wire-protocol surface (net/protocol.hh):
 * frame integrity (verifyFrame, and with it the CRC-32 kernel on
 * arbitrary lengths and alignments), the request parser, the reply
 * header parser and the OPEN, READ, STAT and error-message payload
 * parsers. Every byte here comes off a socket; the contract under test
 * is "a verdict or a Status, never a crash".
 *
 * An input is one frame without its u32 length prefix, trailing CRC
 * included, as a peer's connection state machine hands it over. It
 * goes to verifyFrame unchanged, which a mutated frame almost never
 * passes, so the harness then reseals it — version byte set, trailing
 * CRC recomputed — and drives the parsers with that, letting mutations
 * reach past the integrity check. The dispatched CRC is also checked
 * against the slicing-by-8 tier on every input.
 *
 * Built behind -DSAGE_BUILD_FUZZERS=ON; see fuzz/CMakeLists.txt. Seeds
 * live in fuzz/corpus_protocol/: one frame per message type, written
 * by the append* encoders.
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "net/protocol.hh"
#include "util/crc32.hh"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    using namespace sage;
    using namespace sage::net;

    if (Crc32::of(data, size) != crc32::slice8(0, data, size))
        std::abort();

    size_t body = 0;
    (void)verifyFrame(data, size, &body);

    if (size < kReplyHeaderBytes + kFrameCrcBytes)
        return 0;  // Too short to reseal into anything verifyFrame takes.
    std::vector<uint8_t> frame(data, data + size);
    frame[2] = kProtocolVersion;
    const size_t unsealed = size - kFrameCrcBytes;
    const uint32_t crc = Crc32::of(frame.data(), unsealed);
    for (size_t i = 0; i < kFrameCrcBytes; i++)
        frame[unsealed + i] = static_cast<uint8_t>(crc >> (8 * i));
    if (verifyFrame(frame.data(), frame.size(), &body) !=
        FrameVerdict::Ok)
        std::abort();  // A resealed frame must always verify.

    (void)parseRequestFrame(frame.data(), body);
    (void)parseReplyHeader(frame.data(), body);
    // Every payload parser sees the bytes after the reply header, as a
    // client would hand them over for whichever type the header names.
    const uint8_t *payload = frame.data() + kReplyHeaderBytes;
    const size_t payload_size = body - kReplyHeaderBytes;
    (void)parseOpenReplyPayload(payload, payload_size);
    (void)parseReadReplyPayload(payload, payload_size);
    (void)parseStatReplyPayload(payload, payload_size);
    (void)parseErrorMessage(payload, payload_size);
    return 0;
}
