/**
 * @file
 * libFuzzer entry point for the server's per-connection state machine
 * (net/connection.hh), driven without a socket: frame cutting, the
 * length, version and CRC checks, request parsing, dispatch into a live
 * MultiArchiveService, backpressure and the reply queue. The contract
 * under test is "whole reply frames that verify and parse, never a
 * crash".
 *
 * An input is a run of pieces, each one length byte L and then L bytes
 * (fewer when the input ends first). Each piece is one receive() call,
 * so frames straddle calls the way they straddle recv()s. L = 0 is a
 * peer that reads: the driver waits out in-flight reads, hands their
 * replies to the connection and writes out everything queued. A
 * connection that stops wanting input is written out first, as the
 * server's loop would wait for the peer to read. After the last piece
 * the driver settles the same way, aborting if any outgoing frame
 * fails verifyFrame or parseReplyHeader.
 *
 * The service serves one tiny synthesized archive, OPENed by the name
 * "tiny.sage" as archive id 0, from a temporary directory written once
 * per process. Built behind -DSAGE_BUILD_FUZZERS=ON; see
 * fuzz/CMakeLists.txt. Seeds live in fuzz/corpus_server/.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/encoder.hh"
#include "io/file_stream.hh"
#include "net/connection.hh"
#include "simgen/profiles.hh"
#include "simgen/synthesize.hh"

namespace {

using namespace sage;
using namespace sage::net;

constexpr uint64_t kConnId = kFirstConnTag;

/** The archive directory, the service over it and the context every
 *  input's connection shares; the directory goes at exit. */
struct Fixture
{
    Fixture() : dir(makeDir()), service(dir, serviceOptions()),
                context(service, connectionOptions(), [] {})
    {
        DatasetSpec spec = makeTinySpec(false);
        spec.genome.referenceLength = 1 << 12;
        const SimulatedDataset ds = synthesizeDataset(spec);
        SageConfig config;
        config.chunkReads = 16;
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);
        {
            FileSink sink(dir + "/tiny.sage");
            sink.writeBytes(archive.bytes);
        }
        if (!service.open("tiny.sage").ok())
            std::abort();
    }

    ~Fixture() { std::filesystem::remove_all(dir); }

    static std::string
    makeDir()
    {
        std::string path =
            (std::filesystem::temp_directory_path() / "sage_fuzz_XXXXXX")
                .string();
        if (!::mkdtemp(path.data()))
            std::abort();
        return path;
    }

    static MultiArchiveOptions
    serviceOptions()
    {
        MultiArchiveOptions options;
        options.ownedPoolThreads = 1;
        return options;
    }

    /** Small limits, so backpressure and the frame cap engage at
     *  fuzzing sizes. */
    static ServerOptions
    connectionOptions()
    {
        ServerOptions options;
        options.maxRequestFrameBytes = 1024;
        options.txHighWaterBytes = 4096;
        return options;
    }

    std::string dir;
    MultiArchiveService service;
    ConnectionContext context;
};

uint32_t
loadLe32(const uint8_t *bytes)
{
    return static_cast<uint32_t>(bytes[0]) |
           static_cast<uint32_t>(bytes[1]) << 8 |
           static_cast<uint32_t>(bytes[2]) << 16 |
           static_cast<uint32_t>(bytes[3]) << 24;
}

/** Check and write out every queued reply, each in two writes. */
void
writeOut(Connection &conn, uint64_t now_ms)
{
    while (conn.txSize() != 0) {
        const uint8_t *frame = conn.txData();
        const size_t size = conn.txSize();
        size_t body = 0;
        if (size < kLenBytes || loadLe32(frame) != size - kLenBytes ||
            verifyFrame(frame + kLenBytes, size - kLenBytes, &body) !=
                FrameVerdict::Ok ||
            !parseReplyHeader(frame + kLenBytes, body).ok())
            std::abort();
        conn.consume(size / 2, now_ms);
        conn.consume(size - size / 2, now_ms);
    }
}

/** Write out, wait out in-flight reads, deliver their replies, and
 *  again until nothing is left in flight or queued. */
void
settle(Connection &conn, CompletionQueue &completions, uint64_t now_ms)
{
    while (true) {
        writeOut(conn, now_ms);
        completions.wait();
        std::vector<Completion> done = completions.take();
        if (done.empty())
            return;
        for (Completion &completion : done) {
            if (completion.connId != kConnId)
                std::abort();
            conn.complete(std::move(completion.frame));
        }
    }
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    static Fixture fixture;
    ConnectionContext &context = fixture.context;
    Connection conn(context, kConnId, 0);
    uint64_t now_ms = 0;
    size_t at = 0;
    // A finished or expired connection is one the server closes.
    while (at < size && !conn.finished() && !conn.expired(now_ms)) {
        const size_t claimed = data[at++];
        const size_t piece = std::min(claimed, size - at);
        now_ms += 100;
        if (piece == 0) {
            settle(conn, context.completions, now_ms);
            continue;
        }
        if (!conn.wantsInput())
            writeOut(conn, now_ms);
        conn.receive(data + at, piece, now_ms);
        at += piece;
    }
    settle(conn, context.completions, now_ms);
    return 0;
}
