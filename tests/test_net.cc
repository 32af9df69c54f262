/**
 * @file
 * Tests for the network front end (src/net/): wire-protocol encode /
 * decode round trips and malformed-frame rejection, the
 * MultiArchiveService registry (byte identity across archives, LRU
 * eviction past the open cap with transparent reopen, admission
 * control shed, server-side fault injection), and the epoll server
 * over real loopback sockets — multi-connection byte identity vs a
 * sequential SageReader, Overloaded / Expired / error replies that
 * leave the connection usable, corrupt-archive isolation between
 * connections, and hostile-bytes handling. Runs under the ASan/UBSan
 * and TSan presets in CI.
 *
 * The resilience layer rides the same fixtures: protocol-v2 frame
 * integrity (version byte + CRC-32, verifyFrame), connection hygiene
 * (idle / header-read timeouts, max-connection shed), graceful drain
 * and its forced deadline, and the retrying Client (maxAttempts > 1):
 * held-id re-validation across a server restart, version-byte damage,
 * Overloaded retries, and a ChaosProxy in the path — byte identity
 * against the sequential reader must survive deterministic resets,
 * corruption, stalls and splits.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>

#include "core/sage.hh"
#include "net/connection.hh"
#include "simgen/synthesize.hh"
#include "util/crc32.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

using net::ChaosConfig;
using net::ChaosProxy;
using net::Client;
using net::ClientOptions;
using net::MsgType;
using net::OpenReply;
using net::ReplyHeader;
using net::RequestFrame;
using net::Server;
using net::ServerOptions;
using net::WireServerStats;
using net::WireStatus;

/** Scratch path unique to the running test: ctest runs every test as
 *  its own parallel process, so fixture files must not collide. */
std::string
perTestScratchPath(const std::string &suffix)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "sage_net_" +
        std::string(info->test_suite_name()) + "_" + info->name() +
        "_" + suffix;
}

/** Element-wise equality including headers. */
void
expectSameReads(const std::vector<Read> &a, const std::vector<Read> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        ASSERT_EQ(a[i].bases, b[i].bases) << "read " << i;
        ASSERT_EQ(a[i].quals, b[i].quals) << "read " << i;
        ASSERT_EQ(a[i].header, b[i].header) << "read " << i;
    }
}

/** One archive of a synthetic corpus plus its stored-order truth. */
struct CorpusArchive
{
    std::string name;
    std::vector<Read> expected;
    size_t chunks = 0;
};

/** Synthesize @p count distinct archives under @p dir (created here)
 *  with many small chunks each, returning per-archive ground truth
 *  from a plain sequential reader. */
std::vector<CorpusArchive>
makeCorpus(const std::string &dir, size_t count)
{
    ::mkdir(dir.c_str(), 0755);
    std::vector<CorpusArchive> corpus;
    for (size_t i = 0; i < count; i++) {
        DatasetSpec spec = makeTinySpec(false);
        spec.seed += 17 * (i + 1);  // Distinct reads per archive.
        const SimulatedDataset ds = synthesizeDataset(spec);
        SageConfig config;
        config.chunkReads = 64;  // Many small chunks.
        config.preserveOrder = false;
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);

        CorpusArchive entry;
        entry.name = "rs" + std::to_string(i) + ".sage";
        const std::string path = dir + "/" + entry.name;
        {
            FileSink sink(path);
            sink.writeBytes(archive.bytes);
        }
        SageReader reader(path);
        entry.chunks = reader.chunkCount();
        for (size_t c = 0; c < entry.chunks; c++) {
            const std::vector<Read> reads = reader.readChunk(c);
            entry.expected.insert(entry.expected.end(), reads.begin(),
                                  reads.end());
        }
        corpus.push_back(std::move(entry));
    }
    return corpus;
}

void
removeCorpus(const std::string &dir,
             const std::vector<CorpusArchive> &corpus)
{
    for (const CorpusArchive &entry : corpus)
        std::remove((dir + "/" + entry.name).c_str());
    ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------
// Protocol round trips
// ---------------------------------------------------------------------

/** Integrity-check @p frame (version byte + CRC, as both peers do)
 *  and return the body size with the trailing CRC stripped. */
size_t
verifiedBodySize(const std::vector<uint8_t> &frame)
{
    size_t body = 0;
    const net::FrameVerdict verdict = net::verifyFrame(
        frame.data() + net::kLenBytes, frame.size() - net::kLenBytes,
        &body);
    EXPECT_EQ(verdict, net::FrameVerdict::Ok)
        << net::frameVerdictName(verdict);
    return body;
}

/** Parse @p frame skipping its length prefix, asserting the prefix
 *  matches the body size and the v2 CRC verifies. */
StatusOr<RequestFrame>
parseRequest(const std::vector<uint8_t> &frame)
{
    EXPECT_GE(frame.size(), net::kLenBytes);
    uint32_t len = 0;
    std::memcpy(&len, frame.data(), sizeof len);
    EXPECT_EQ(static_cast<size_t>(len) + net::kLenBytes, frame.size());
    return net::parseRequestFrame(frame.data() + net::kLenBytes,
                                  verifiedBodySize(frame));
}

TEST(NetProtocol, OpenRequestRoundTrip)
{
    std::vector<uint8_t> frame;
    net::appendOpenRequest(frame, 42, "dir/reads.sage",
                           RequestPriority::Interactive, 250);
    const StatusOr<RequestFrame> parsed = parseRequest(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->type, MsgType::Open);
    EXPECT_EQ(parsed->priority, RequestPriority::Interactive);
    EXPECT_EQ(parsed->requestId, 42u);
    EXPECT_EQ(parsed->deadlineMs, 250u);
    EXPECT_EQ(parsed->name, "dir/reads.sage");
}

TEST(NetProtocol, ReadRequestsRoundTrip)
{
    std::vector<uint8_t> frame;
    net::appendReadRangeRequest(frame, 7, 3, 1000, 64,
                                RequestPriority::Background, 0);
    StatusOr<RequestFrame> parsed = parseRequest(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->type, MsgType::ReadRange);
    EXPECT_EQ(parsed->priority, RequestPriority::Background);
    EXPECT_EQ(parsed->requestId, 7u);
    EXPECT_EQ(parsed->archive, 3u);
    EXPECT_EQ(parsed->first, 1000u);
    EXPECT_EQ(parsed->count, 64u);

    frame.clear();
    net::appendReadChunkRequest(frame, 8, 2, 5,
                                RequestPriority::Normal, 10);
    parsed = parseRequest(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->type, MsgType::ReadChunk);
    EXPECT_EQ(parsed->archive, 2u);
    EXPECT_EQ(parsed->chunk, 5u);
    EXPECT_EQ(parsed->deadlineMs, 10u);

    frame.clear();
    net::appendStatRequest(frame, 9, net::kStatServer);
    parsed = parseRequest(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->type, MsgType::Stat);
    EXPECT_EQ(parsed->archive, net::kStatServer);

    frame.clear();
    net::appendCloseRequest(frame, 10, 1);
    parsed = parseRequest(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->type, MsgType::Close);
    EXPECT_EQ(parsed->archive, 1u);
}

/** @p reads as columns, the form the server encodes replies from. */
ReadColumns
columnsOf(const std::vector<Read> &reads)
{
    ReadColumns columns;
    for (const Read &read : reads) {
        columns.headers += read.header;
        columns.bases += read.bases;
        columns.quals += read.quals;
        columns.endRead();
    }
    return columns;
}

TEST(NetProtocol, ReadReplyRoundTrip)
{
    std::vector<Read> reads(3);
    reads[0].header = "@r0";
    reads[0].bases = "ACGTACGT";
    reads[0].quals = "IIIIIIII";
    reads[1].bases = "GGGG";  // No header, no quality.
    reads[2].header = "@r2 with spaces";
    reads[2].bases = std::string(1000, 'A');
    reads[2].quals = std::string(1000, '#');
    reads.emplace_back();
    reads[3].header = "@" + std::string(65534, 'h');  // u16 maximum.
    reads[3].bases = "ACGT";
    reads[3].quals = "IIII";

    std::vector<uint8_t> frame;
    ASSERT_TRUE(
        net::appendReadReply(frame, MsgType::ReadRange, 77, reads).ok());

    // One byte more than the u16 header length holds is refused, and
    // the buffer is left exactly as it was.
    std::vector<Read> too_long = reads;
    too_long[3].header.push_back('h');
    std::vector<uint8_t> refused = frame;
    const Status status =
        net::appendReadReply(refused, MsgType::ReadRange, 78, too_long);
    EXPECT_EQ(status.code(), StatusCode::OutOfRange);
    EXPECT_NE(status.toString().find("65535"), std::string::npos)
        << status.toString();
    EXPECT_EQ(refused, frame);

    const size_t body = verifiedBodySize(frame);
    const StatusOr<ReplyHeader> header = net::parseReplyHeader(
        frame.data() + net::kLenBytes, body);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->type, MsgType::ReadRange);
    EXPECT_EQ(header->status, WireStatus::Ok);
    EXPECT_EQ(header->requestId, 77u);

    const size_t skip = net::kLenBytes + net::kReplyHeaderBytes;
    const StatusOr<std::vector<Read>> back =
        net::parseReadReplyPayload(frame.data() + skip,
                                   body - net::kReplyHeaderBytes);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    expectSameReads(*back, reads);

    // The span encoder, given a run that crosses a chunk boundary (the
    // tail of one chunk's reads, then the head of the next), emits the
    // vector overload's frame byte for byte.
    Read other;
    other.bases = "TTTT";
    const ReadColumns chunk_a = columnsOf({other, reads[0], reads[1]});
    const ReadColumns chunk_b = columnsOf({reads[2], reads[3], other});
    const net::ReadSpan spans[] = {{&chunk_a, 1, 2}, {&chunk_b, 0, 2}};
    std::vector<uint8_t> spanned;
    ASSERT_TRUE(net::appendReadReply(spanned, MsgType::ReadRange, 77,
                                     spans, 2)
                    .ok());
    EXPECT_EQ(spanned, frame);

    // The span encoder refuses the same over-long header, leaving the
    // buffer as it was.
    const ReadColumns too_long_columns = columnsOf(too_long);
    const net::ReadSpan too_long_spans[] = {{&too_long_columns, 0, 2},
                                            {&too_long_columns, 2, 2}};
    refused = frame;
    EXPECT_EQ(net::appendReadReply(refused, MsgType::ReadRange, 78,
                                   too_long_spans, 2)
                  .code(),
              StatusCode::OutOfRange);
    EXPECT_EQ(refused, frame);

    // An empty reply: no spans, an empty span and an empty vector are
    // the same zero-read frame.
    std::vector<uint8_t> empty_vector, no_spans, empty_span;
    ASSERT_TRUE(net::appendReadReply(empty_vector, MsgType::ReadChunk, 9,
                                     std::vector<Read>{})
                    .ok());
    ASSERT_TRUE(
        net::appendReadReply(no_spans, MsgType::ReadChunk, 9, nullptr, 0)
            .ok());
    const net::ReadSpan nothing{&chunk_a, 0, 0};
    ASSERT_TRUE(net::appendReadReply(empty_span, MsgType::ReadChunk, 9,
                                     &nothing, 1)
                    .ok());
    EXPECT_EQ(no_spans, empty_vector);
    EXPECT_EQ(empty_span, empty_vector);
    const size_t empty_body = verifiedBodySize(empty_vector);
    EXPECT_EQ(empty_body, net::kReplyHeaderBytes + 4);
    const StatusOr<std::vector<Read>> none = net::parseReadReplyPayload(
        empty_vector.data() + skip, empty_body - net::kReplyHeaderBytes);
    ASSERT_TRUE(none.ok()) << none.status().toString();
    EXPECT_TRUE(none->empty());
}

TEST(NetProtocol, ReadReplyMatchesTheDocumentedLayout)
{
    // Protocol v2 byte for byte, assembled by hand from the layout in
    // net/protocol.hh, so an encoder rewrite cannot drift the wire
    // format unnoticed.
    Read read;
    read.header = "@h";
    read.bases = "ACG";
    read.quals = "IJK";
    std::vector<uint8_t> want = {
        0x82, 0x00, net::kProtocolVersion, 0x00,  // type, status, v, 0
        0x34, 0x12, 0, 0, 0, 0, 0, 0,             // request id
        1, 0, 0, 0,                               // read count
        2, 0, 3, 0, 0, 0, 3, 0, 0, 0,             // descriptor
        '@', 'h', 'A', 'C', 'G', 'I', 'J', 'K'};
    const uint32_t crc = Crc32::of(want.data(), want.size());
    for (int shift = 0; shift < 32; shift += 8)
        want.push_back(static_cast<uint8_t>(crc >> shift));
    const uint32_t len = static_cast<uint32_t>(want.size());
    want.insert(want.begin(),
                {static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
                 static_cast<uint8_t>(len >> 16),
                 static_cast<uint8_t>(len >> 24)});

    std::vector<uint8_t> frame = {0xAA};  // Appends after what is there.
    ASSERT_TRUE(
        net::appendReadReply(frame, MsgType::ReadRange, 0x1234, {read})
            .ok());
    want.insert(want.begin(), 0xAA);
    EXPECT_EQ(frame, want);
}

TEST(NetProtocol, OpenStatErrorRepliesRoundTrip)
{
    OpenReply meta;
    meta.archive = 5;
    meta.readCount = 12345;
    meta.chunkCount = 77;
    std::vector<uint8_t> frame;
    net::appendOpenReply(frame, 11, MsgType::Open, meta);
    const size_t skip = net::kLenBytes + net::kReplyHeaderBytes;
    StatusOr<OpenReply> open = net::parseOpenReplyPayload(
        frame.data() + skip,
        verifiedBodySize(frame) - net::kReplyHeaderBytes);
    ASSERT_TRUE(open.ok()) << open.status().toString();
    EXPECT_EQ(open->archive, 5u);
    EXPECT_EQ(open->readCount, 12345u);
    EXPECT_EQ(open->chunkCount, 77u);

    WireServerStats stats;
    stats.openArchives = 2;
    stats.knownArchives = 9;
    stats.opens = 10;
    stats.reopens = 3;
    stats.evictions = 4;
    stats.admitted = 1000;
    stats.overloaded = 17;
    stats.readsServed = 123456;
    stats.bytesServed = 1ull << 33;
    stats.cacheBytesReserved = 1 << 20;
    stats.cacheBudgetBytes = 1 << 24;
    stats.queueDepth = 6;
    frame.clear();
    net::appendStatReply(frame, 12, stats);
    const StatusOr<WireServerStats> back = net::parseStatReplyPayload(
        frame.data() + skip,
        verifiedBodySize(frame) - net::kReplyHeaderBytes);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->knownArchives, 9u);
    EXPECT_EQ(back->reopens, 3u);
    EXPECT_EQ(back->overloaded, 17u);
    EXPECT_EQ(back->bytesServed, 1ull << 33);
    EXPECT_EQ(back->queueDepth, 6u);

    frame.clear();
    net::appendErrorReply(frame, MsgType::ReadRange, 13,
                          WireStatus::Overloaded, "queue full");
    const size_t error_body = verifiedBodySize(frame);
    const StatusOr<ReplyHeader> header = net::parseReplyHeader(
        frame.data() + net::kLenBytes, error_body);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->status, WireStatus::Overloaded);
    const StatusOr<std::string> message = net::parseErrorMessage(
        frame.data() + skip, error_body - net::kReplyHeaderBytes);
    ASSERT_TRUE(message.ok()) << message.status().toString();
    EXPECT_EQ(*message, "queue full");
}

TEST(NetProtocol, MalformedRequestsRejected)
{
    // Every strict prefix of a valid frame must fail cleanly. The
    // parsers run on CRC-stripped bodies (verifyFrame strips it),
    // so drop the trailing CRC before slicing.
    std::vector<uint8_t> frame;
    net::appendReadRangeRequest(frame, 1, 0, 0, 4,
                                RequestPriority::Normal, 0);
    const uint8_t *body = frame.data() + net::kLenBytes;
    const size_t size =
        frame.size() - net::kLenBytes - net::kFrameCrcBytes;
    for (size_t cut = 0; cut < size; cut++)
        EXPECT_FALSE(net::parseRequestFrame(body, cut).ok())
            << "prefix of " << cut << " bytes parsed";

    // Trailing garbage is rejected, not ignored.
    std::vector<uint8_t> padded(body, body + size);
    padded.push_back(0);
    EXPECT_FALSE(
        net::parseRequestFrame(padded.data(), padded.size()).ok());

    // Unknown message type.
    std::vector<uint8_t> bad(body, body + size);
    bad[0] = 0;
    EXPECT_FALSE(net::parseRequestFrame(bad.data(), bad.size()).ok());
    bad[0] = 99;
    EXPECT_FALSE(net::parseRequestFrame(bad.data(), bad.size()).ok());

    // Out-of-range priority class.
    bad = std::vector<uint8_t>(body, body + size);
    bad[1] = static_cast<uint8_t>(kRequestPriorityCount);
    EXPECT_FALSE(net::parseRequestFrame(bad.data(), bad.size()).ok());

    // OPEN whose name length field exceeds the actual bytes.
    frame.clear();
    net::appendOpenRequest(frame, 2, "abc", RequestPriority::Normal, 0);
    std::vector<uint8_t> lying(frame.begin() + net::kLenBytes,
                               frame.end() - net::kFrameCrcBytes);
    lying[net::kRequestHeaderBytes] = 200;  // nameLen u16 low byte.
    EXPECT_FALSE(
        net::parseRequestFrame(lying.data(), lying.size()).ok());
}

TEST(NetProtocol, HostileReadReplyCountRejected)
{
    // A reply claiming 2^32-1 reads in a 12-byte payload must fail
    // before any allocation, not OOM.
    std::vector<uint8_t> payload(12, 0xFF);
    EXPECT_FALSE(
        net::parseReadReplyPayload(payload.data(), payload.size())
            .ok());
}

TEST(NetProtocol, WireStatusMapsLosslessly)
{
    EXPECT_EQ(net::wireStatusFromStatus(Status()), WireStatus::Ok);
    EXPECT_EQ(net::wireStatusFromStatus(Status::corrupt("x")),
              WireStatus::Corrupt);
    EXPECT_EQ(net::wireStatusFromStatus(Status::truncated("x")),
              WireStatus::Truncated);
    EXPECT_EQ(net::wireStatusFromStatus(Status::outOfRange("x")),
              WireStatus::OutOfRange);
    EXPECT_EQ(net::wireStatusFromRequest(RequestStatus::Expired,
                                         Status()),
              WireStatus::Expired);
    EXPECT_EQ(net::wireStatusFromRequest(RequestStatus::Cancelled,
                                         Status()),
              WireStatus::Cancelled);
    EXPECT_EQ(net::wireStatusFromRequest(RequestStatus::Error,
                                         Status::ioError("disk")),
              WireStatus::IoError);
    EXPECT_TRUE(
        net::statusFromWire(WireStatus::Ok, "").ok());
    EXPECT_FALSE(
        net::statusFromWire(WireStatus::Overloaded, "shed").ok());
}

TEST(NetProtocol, FrameIntegrityVerdicts)
{
    std::vector<uint8_t> frame;
    net::appendOpenRequest(frame, 42, "reads.sage",
                           RequestPriority::Normal, 0);
    const uint8_t *body = frame.data() + net::kLenBytes;
    const size_t size = frame.size() - net::kLenBytes;

    // Pristine frame: Ok, body size excludes the CRC.
    size_t body_size = 0;
    EXPECT_EQ(net::verifyFrame(body, size, &body_size),
              net::FrameVerdict::Ok);
    EXPECT_EQ(body_size, size - net::kFrameCrcBytes);

    // Any single flipped bit anywhere — header, payload, or the CRC
    // itself — must be caught.
    for (size_t at = 0; at < size; at++) {
        if (at == 2)
            continue;  // The version byte reports VersionMismatch.
        std::vector<uint8_t> damaged(body, body + size);
        damaged[at] ^= 0x01;
        EXPECT_EQ(net::verifyFrame(damaged.data(), damaged.size(),
                                   nullptr),
                  net::FrameVerdict::CrcMismatch)
            << "flip at byte " << at;
    }

    // Any other version byte is a version mismatch, never misreported
    // as corruption — checked before the CRC, so it holds whether or
    // not the peer appended a CRC at all.
    for (const uint8_t version : {uint8_t{0}, uint8_t{3}}) {
        std::vector<uint8_t> other(body, body + size);
        other[2] = version;
        EXPECT_EQ(net::verifyFrame(other.data(), other.size(), nullptr),
                  net::FrameVerdict::VersionMismatch);
        other.resize(other.size() - net::kFrameCrcBytes);
        EXPECT_EQ(net::verifyFrame(other.data(), other.size(), nullptr),
                  net::FrameVerdict::VersionMismatch);
    }

    // Runts.
    EXPECT_EQ(net::verifyFrame(body, 0, nullptr),
              net::FrameVerdict::TooShort);
    EXPECT_EQ(net::verifyFrame(body, 2, nullptr),
              net::FrameVerdict::TooShort);
    EXPECT_EQ(net::verifyFrame(body, net::kReplyHeaderBytes, nullptr),
              net::FrameVerdict::TooShort);

    // The rejection a version-mismatched peer is sent is an ordinary
    // v2 error reply: current version byte, trailing CRC, and the
    // usual header/message parsers read it.
    std::vector<uint8_t> rejection;
    net::appendErrorReply(rejection, MsgType::Open, 0,
                          WireStatus::VersionMismatch, "speak v2");
    const uint8_t *reply = rejection.data() + net::kLenBytes;
    const size_t reply_size = verifiedBodySize(rejection);
    EXPECT_EQ(reply[2], net::kProtocolVersion);
    const StatusOr<ReplyHeader> header =
        net::parseReplyHeader(reply, reply_size);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->status, WireStatus::VersionMismatch);
    const StatusOr<std::string> message = net::parseErrorMessage(
        reply + net::kReplyHeaderBytes,
        reply_size - net::kReplyHeaderBytes);
    ASSERT_TRUE(message.ok());
    EXPECT_EQ(*message, "speak v2");
}

TEST(NetProtocol, RetryableStatusClassification)
{
    // Retryable: the server shed or the transport hiccuped — the
    // same request can succeed on a retry / another connection.
    EXPECT_TRUE(net::wireStatusRetryable(WireStatus::Overloaded));
    EXPECT_TRUE(net::wireStatusRetryable(WireStatus::ShuttingDown));
    EXPECT_TRUE(net::wireStatusRetryable(WireStatus::IoError));
    EXPECT_TRUE(net::wireStatusRetryable(WireStatus::Exhausted));

    // Terminal: retrying re-reads the same bad bytes or repeats the
    // same bad request.
    EXPECT_FALSE(net::wireStatusRetryable(WireStatus::Ok));
    EXPECT_FALSE(net::wireStatusRetryable(WireStatus::Corrupt));
    EXPECT_FALSE(net::wireStatusRetryable(WireStatus::Truncated));
    EXPECT_FALSE(net::wireStatusRetryable(WireStatus::BadRequest));
    EXPECT_FALSE(net::wireStatusRetryable(WireStatus::OutOfRange));
    EXPECT_FALSE(
        net::wireStatusRetryable(WireStatus::UnknownArchive));
    EXPECT_FALSE(net::wireStatusRetryable(WireStatus::Expired));
    EXPECT_FALSE(net::wireStatusRetryable(WireStatus::Cancelled));
    EXPECT_FALSE(
        net::wireStatusRetryable(WireStatus::VersionMismatch));
    EXPECT_FALSE(
        net::wireStatusRetryable(WireStatus::ProtocolError));
}

// ---------------------------------------------------------------------
// MultiArchiveService
// ---------------------------------------------------------------------

TEST(NetMultiArchive, ByteIdenticalAcrossArchives)
{
    const std::string dir = perTestScratchPath("corpus");
    const std::vector<CorpusArchive> corpus = makeCorpus(dir, 3);

    {
        MultiArchiveOptions options;
        options.globalCacheBudgetBytes = 8 << 20;
        options.ownedPoolThreads = 2;
        MultiArchiveService service(dir, options);

        for (const CorpusArchive &entry : corpus) {
            const StatusOr<ArchiveMeta> meta = service.open(entry.name);
            ASSERT_TRUE(meta.ok()) << meta.status().toString();
            EXPECT_EQ(meta->readCount, entry.expected.size());
            EXPECT_EQ(meta->chunkCount, entry.chunks);

            // Whole archive, then unaligned spans, then one chunk.
            MultiArchiveService::SyncOutcome all =
                service.readRangeSync(meta->id, 0,
                                      meta->readCount);
            ASSERT_EQ(all.admission, Admission::Admitted);
            ASSERT_TRUE(all.result.ok())
                << all.result.error.toString();
            expectSameReads(all.result.reads, entry.expected);

            MultiArchiveService::SyncOutcome span =
                service.readRangeSync(meta->id, 63, 130);
            ASSERT_EQ(span.admission, Admission::Admitted);
            ASSERT_TRUE(span.result.ok());
            expectSameReads(
                span.result.reads,
                std::vector<Read>(entry.expected.begin() + 63,
                                  entry.expected.begin() + 193));

            MultiArchiveService::SyncOutcome chunk =
                service.readChunkSync(meta->id, 1);
            ASSERT_EQ(chunk.admission, Admission::Admitted);
            ASSERT_TRUE(chunk.result.ok());
            expectSameReads(
                chunk.result.reads,
                std::vector<Read>(entry.expected.begin() + 64,
                                  entry.expected.begin() + 128));

            const StatusOr<ArchiveMeta> described =
                service.describe(meta->id);
            ASSERT_TRUE(described.ok());
            EXPECT_EQ(described->readCount, meta->readCount);
        }

        const MultiArchiveStats stats = service.stats();
        EXPECT_EQ(stats.opens, corpus.size());
        EXPECT_EQ(stats.reopens, 0u);
        EXPECT_EQ(stats.knownArchives, corpus.size());
        EXPECT_GT(stats.readsServed, 0u);
        EXPECT_GT(stats.cacheBytesReserved, 0u);

        // Out-of-range spans and chunks are rejected up front.
        Status reject;
        EXPECT_EQ(service.readRangeSync(0, 0,
                                        corpus[0].expected.size() + 1)
                      .admission,
                  Admission::BadRange);
        EXPECT_EQ(service.readChunkSync(0, corpus[0].chunks).admission,
                  Admission::BadRange);
        EXPECT_EQ(service
                      .readRange(99, 0, 1, RequestOptions(),
                                 [](RangeResult) { FAIL(); }, &reject)
                      ,
                  Admission::UnknownArchive);
        EXPECT_FALSE(reject.ok());
    }
    removeCorpus(dir, corpus);
}

TEST(NetMultiArchive, HostileNamesAndMissingFilesAreRecoverable)
{
    const std::string dir = perTestScratchPath("corpus");
    const std::vector<CorpusArchive> corpus = makeCorpus(dir, 1);
    {
        MultiArchiveOptions options;
        options.ownedPoolThreads = 1;
        MultiArchiveService service(dir, options);

        EXPECT_FALSE(service.open("").ok());
        EXPECT_FALSE(service.open("../etc/passwd").ok());
        EXPECT_FALSE(service.open("a/../../b.sage").ok());
        EXPECT_FALSE(service.open("/abs/path.sage").ok());
        EXPECT_FALSE(service.open(std::string("x", 1) + '\0').ok());
        EXPECT_FALSE(service.open("missing.sage").ok());
        EXPECT_FALSE(service.describe(12).ok());
        EXPECT_FALSE(service.closeArchive(12).ok());

        // Failed opens leave no registry residue (a hostile OPEN
        // flood cannot grow memory), and the service still works.
        EXPECT_EQ(service.stats().knownArchives, 0u);
        const StatusOr<ArchiveMeta> meta = service.open(corpus[0].name);
        ASSERT_TRUE(meta.ok()) << meta.status().toString();
        EXPECT_EQ(service.stats().knownArchives, 1u);
        EXPECT_TRUE(
            service.readRangeSync(meta->id, 0, 1).result.ok());
    }
    removeCorpus(dir, corpus);
}

/** Satellite: eviction past the LRU cap releases the partition's
 *  cache bytes and a later read transparently reopens. */
TEST(NetMultiArchive, EvictionPastCapReopensTransparently)
{
    const std::string dir = perTestScratchPath("corpus");
    const std::vector<CorpusArchive> corpus = makeCorpus(dir, 3);
    {
        MultiArchiveOptions options;
        options.globalCacheBudgetBytes = 8 << 20;
        options.maxOpenArchives = 2;
        options.ownedPoolThreads = 2;
        MultiArchiveService service(dir, options);
        EXPECT_EQ(service.partitionBytes(), (8ull << 20) / 2);

        const StatusOr<ArchiveMeta> a = service.open(corpus[0].name);
        const StatusOr<ArchiveMeta> b = service.open(corpus[1].name);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_TRUE(service.readRangeSync(a->id, 0, 64)
                        .result.ok());
        ASSERT_TRUE(service.readRangeSync(b->id, 0, 64)
                        .result.ok());
        // Touch b so a is the LRU victim, then open c past the cap.
        // (The touch may decode another chunk of b, so snapshot the
        // warm byte count after it — between here and the eviction no
        // new decode runs.)
        ASSERT_TRUE(service.readRangeSync(b->id, 64, 1)
                        .result.ok());
        const uint64_t warm = service.stats().cacheBytesReserved;
        EXPECT_GT(warm, 0u);
        const StatusOr<ArchiveMeta> c = service.open(corpus[2].name);
        ASSERT_TRUE(c.ok()) << c.status().toString();

        MultiArchiveStats stats = service.stats();
        EXPECT_EQ(stats.evictions, 1u);
        EXPECT_EQ(stats.openArchives, 2u);
        EXPECT_EQ(stats.knownArchives, 3u);
        EXPECT_EQ(stats.opens, 3u);
        EXPECT_EQ(stats.reopens, 0u);
        // a's partition released its decoded bytes; c is still cold.
        EXPECT_LT(stats.cacheBytesReserved, warm);

        // Reading the evicted archive reopens it under the same id,
        // byte-identical, and evicts the new victim (b).
        MultiArchiveService::SyncOutcome again =
            service.readRangeSync(a->id, 0,
                                  corpus[0].expected.size());
        ASSERT_EQ(again.admission, Admission::Admitted);
        ASSERT_TRUE(again.result.ok())
            << again.result.error.toString();
        expectSameReads(again.result.reads, corpus[0].expected);

        stats = service.stats();
        EXPECT_EQ(stats.reopens, 1u);
        EXPECT_EQ(stats.evictions, 2u);
        EXPECT_EQ(stats.openArchives, 2u);

        // Same name maps to the same stable id.
        const StatusOr<ArchiveMeta> a2 = service.open(corpus[0].name);
        ASSERT_TRUE(a2.ok());
        EXPECT_EQ(a2->id, a->id);
    }
    removeCorpus(dir, corpus);
}

/** Satellite: the admission probe is a relaxed atomic read and sheds
 *  deterministically at the high-water mark. */
TEST(NetMultiArchive, AdmissionControlShedsAtHighWater)
{
    const std::string dir = perTestScratchPath("corpus");
    const std::vector<CorpusArchive> corpus = makeCorpus(dir, 1);
    {
        ThreadPool pool(1);
        MultiArchiveOptions options;
        options.pool = &pool;
        options.admissionHighWater = 1;
        MultiArchiveService service(dir, options);

        const StatusOr<ArchiveMeta> meta = service.open(corpus[0].name);
        ASSERT_TRUE(meta.ok()) << meta.status().toString();

        // Block the only worker so admitted requests stay queued.
        std::promise<void> release;
        std::shared_future<void> released =
            release.get_future().share();
        pool.submit([released] { released.wait(); });

        std::promise<RangeResult> first_done;
        ASSERT_EQ(service.readRange(
                      meta->id, 0, 64, RequestOptions(),
                      [&](RangeResult result) {
                          first_done.set_value(std::move(result));
                      }),
                  Admission::Admitted);
        EXPECT_GE(service.queueDepth(), 1u);

        // Queue depth >= high water: the next request is shed before
        // enqueue, its callback never runs.
        Status reject;
        ASSERT_EQ(service.readRange(meta->id, 0, 64,
                                    RequestOptions(),
                                    [](RangeResult) { FAIL(); },
                                    &reject),
                  Admission::Overloaded);
        EXPECT_EQ(reject.code(), StatusCode::Exhausted);

        release.set_value();
        const ReadResult result = first_done.get_future().get().copyReads();
        ASSERT_TRUE(result.ok()) << result.error.toString();
        expectSameReads(result.reads,
                        std::vector<Read>(corpus[0].expected.begin(),
                                          corpus[0].expected.begin() +
                                              64));

        const MultiArchiveStats stats = service.stats();
        EXPECT_EQ(stats.admitted, 1u);
        EXPECT_EQ(stats.overloaded, 1u);
        EXPECT_EQ(stats.queueDepth, 0u);
    }
    removeCorpus(dir, corpus);
}

/** Satellite: server-side fault injection (sage_cli serve
 *  --fault-rate) — opens survive (the container parse is disarmed),
 *  reads surface recoverable Error results, the file is undamaged. */
TEST(NetMultiArchive, FaultInjectionErrorsAreRecoverable)
{
    const std::string dir = perTestScratchPath("corpus");
    const std::vector<CorpusArchive> corpus = makeCorpus(dir, 1);
    {
        MultiArchiveOptions options;
        options.ownedPoolThreads = 1;
        options.faultRate = 1.0;  // Every armed read faults.
        options.faultSeed = 7;
        options.decodeRetries = 1;
        MultiArchiveService service(dir, options);

        const StatusOr<ArchiveMeta> meta = service.open(corpus[0].name);
        ASSERT_TRUE(meta.ok()) << meta.status().toString();

        MultiArchiveService::SyncOutcome outcome =
            service.readRangeSync(meta->id, 0, 64);
        ASSERT_EQ(outcome.admission, Admission::Admitted);
        EXPECT_EQ(outcome.result.status, RequestStatus::Error);
        EXPECT_FALSE(outcome.result.error.ok());
        EXPECT_TRUE(outcome.result.reads.empty());
        EXPECT_GE(service.stats().errored, 1u);
    }
    {
        // The same files read back clean without injection.
        MultiArchiveOptions options;
        options.ownedPoolThreads = 1;
        MultiArchiveService service(dir, options);
        const StatusOr<ArchiveMeta> meta = service.open(corpus[0].name);
        ASSERT_TRUE(meta.ok());
        MultiArchiveService::SyncOutcome outcome =
            service.readRangeSync(meta->id, 0,
                                  corpus[0].expected.size());
        ASSERT_TRUE(outcome.result.ok());
        expectSameReads(outcome.result.reads, corpus[0].expected);
    }
    removeCorpus(dir, corpus);
}

// ---------------------------------------------------------------------
// Server over loopback sockets
// ---------------------------------------------------------------------

class NetServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = perTestScratchPath("corpus");
        corpus_ = makeCorpus(dir_, 3);
    }

    void
    TearDown() override
    {
        removeCorpus(dir_, corpus_);
    }

    std::string dir_;
    std::vector<CorpusArchive> corpus_;
};

TEST_F(NetServerTest, MultiConnectionByteIdentity)
{
    MultiArchiveOptions options;
    options.globalCacheBudgetBytes = 8 << 20;
    options.ownedPoolThreads = 2;
    MultiArchiveService service(dir_, options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());
    ASSERT_NE(server.port(), 0);

    // One connection per archive, all walking concurrently in small
    // batches; every byte must match the sequential reader's truth.
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (size_t i = 0; i < corpus_.size(); i++) {
        threads.emplace_back([&, i] {
            StatusOr<std::unique_ptr<Client>> client =
                Client::connect("127.0.0.1", server.port());
            if (!client.ok()) {
                failures++;
                return;
            }
            const StatusOr<OpenReply> open =
                (*client)->open(corpus_[i].name);
            if (!open.ok() ||
                open->readCount != corpus_[i].expected.size()) {
                failures++;
                return;
            }
            std::vector<Read> got;
            for (uint64_t first = 0; first < open->readCount;) {
                const uint64_t batch =
                    std::min<uint64_t>(100, open->readCount - first);
                const StatusOr<net::ReadReply> reply =
                    (*client)->readRange(open->archive, first, batch);
                if (!reply.ok() || !reply->ok()) {
                    failures++;
                    return;
                }
                got.insert(got.end(), reply->reads.begin(),
                           reply->reads.end());
                first += batch;
            }
            expectSameReads(got, corpus_[i].expected);

            // Chunk-addressed read of chunk 1.
            const StatusOr<net::ReadReply> chunk =
                (*client)->readChunk(open->archive, 1);
            if (!chunk.ok() || !chunk->ok()) {
                failures++;
                return;
            }
            expectSameReads(
                chunk->reads,
                std::vector<Read>(corpus_[i].expected.begin() + 64,
                                  corpus_[i].expected.begin() + 128));
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);

    // Server-wide STAT reflects the work.
    StatusOr<std::unique_ptr<Client>> client =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    const StatusOr<WireServerStats> stats = (*client)->statServer();
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->knownArchives, corpus_.size());
    EXPECT_GT(stats->readsServed, 0u);
    EXPECT_EQ(stats->overloaded, 0u);

    const net::ServerNetStats net_stats = server.netStats();
    EXPECT_EQ(net_stats.accepted, corpus_.size() + 1);
    EXPECT_EQ(net_stats.protocolErrors, 0u);
    EXPECT_GT(net_stats.repliesOut, 0u);

    server.stop();
    server.stop();  // Idempotent.
    EXPECT_FALSE(server.running());
}

TEST_F(NetServerTest, ErrorRepliesLeaveConnectionUsable)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 2;
    MultiArchiveService service(dir_, service_options);
    ServerOptions server_options;
    server_options.maxReadsPerRequest = 100;
    Server server(service, server_options);
    ASSERT_TRUE(server.start().ok());

    StatusOr<std::unique_ptr<Client>> client =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();

    // Unknown archive name: error reply, connection stays up.
    EXPECT_FALSE((*client)->open("missing.sage").ok());

    const StatusOr<OpenReply> open = (*client)->open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    // Count above the server's per-request ceiling: BadRequest.
    StatusOr<net::ReadReply> reply =
        (*client)->readRange(open->archive, 0, 101);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->status, WireStatus::BadRequest);

    // Span past the end: OutOfRange, in-band.
    reply = (*client)->readRange(open->archive,
                                 corpus_[0].expected.size(), 1);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, WireStatus::OutOfRange);

    // Unknown archive id.
    reply = (*client)->readRange(42, 0, 1);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, WireStatus::UnknownArchive);

    // The connection survived every error and still serves data.
    reply = (*client)->readRange(open->archive, 0, 100);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ok()) << reply->message;
    expectSameReads(reply->reads,
                    std::vector<Read>(corpus_[0].expected.begin(),
                                      corpus_[0].expected.begin() +
                                          100));

    // Explicit CLOSE drops the server's open; a later read reopens.
    EXPECT_TRUE((*client)->closeArchive(open->archive).ok());
    reply = (*client)->readRange(open->archive, 0, 1);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply->ok());
    const StatusOr<WireServerStats> stats = (*client)->statServer();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->reopens, 1u);
}

TEST_F(NetServerTest, UnencodableReplyIsTerminalOutOfRange)
{
    // Neither FASTQ ingest nor the header stream bounds a header, but
    // the reply's u16 header length does. A read past it must come
    // back as an in-band, terminal OutOfRange that names the limit —
    // not a truncated frame the client would take for wire damage and
    // reconnect over until its budget ran out.
    SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    ds.readSet.reads[5].header = "@" + std::string(69999, 'h');
    SageConfig config;
    config.chunkReads = 64;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const std::string name = "long_header.sage";
    const std::string path = dir_ + "/" + name;
    {
        FileSink sink(path);
        sink.writeBytes(archive.bytes);
    }
    std::vector<Read> expected;
    {
        SageReader reader(path);
        for (size_t c = 0; c < reader.chunkCount(); c++) {
            const std::vector<Read> reads = reader.readChunk(c);
            expected.insert(expected.end(), reads.begin(), reads.end());
        }
    }
    size_t long_at = expected.size();
    for (size_t i = 0; i < expected.size(); i++) {
        if (expected[i].header.size() == 70000)
            long_at = i;
    }
    ASSERT_LT(long_at, expected.size());
    ASSERT_GE(expected.size(), 20u);

    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 2;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    ClientOptions options;
    options.maxAttempts = 8;
    options.seed = 4;
    StatusOr<std::unique_ptr<Client>> connected =
        Client::connect("127.0.0.1", server.port(), options);
    ASSERT_TRUE(connected.ok()) << connected.status().toString();
    Client &client = **connected;
    const StatusOr<OpenReply> open = client.open(name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    StatusOr<net::ReadReply> reply =
        client.readRange(open->archive, long_at, 1);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->status, WireStatus::OutOfRange);
    EXPECT_NE(reply->message.find("65535"), std::string::npos)
        << reply->message;

    // The same connection goes on serving ranges without that read.
    const uint64_t first = long_at >= 10 ? 0 : long_at + 1;
    reply = client.readRange(open->archive, first, 10);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    ASSERT_TRUE(reply->ok()) << reply->message;
    expectSameReads(reply->reads,
                    std::vector<Read>(expected.begin() + first,
                                      expected.begin() + first + 10));

    EXPECT_EQ(client.stats().connects, 1u);
    EXPECT_EQ(client.stats().retries, 0u);
    EXPECT_EQ(client.stats().transportRetries, 0u);
    EXPECT_EQ(server.netStats().protocolErrors, 0u);

    server.stop();
    std::remove(path.c_str());
}

TEST_F(NetServerTest, OverloadProducesOverloadedRepliesNotDrops)
{
    ThreadPool pool(1);
    MultiArchiveOptions service_options;
    service_options.pool = &pool;
    service_options.admissionHighWater = 1;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    StatusOr<std::unique_ptr<Client>> stuck =
        Client::connect("127.0.0.1", server.port());
    StatusOr<std::unique_ptr<Client>> shed =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(stuck.ok() && shed.ok());
    const StatusOr<OpenReply> open = (*stuck)->open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    // Block the only worker, then park one admitted request in the
    // queue from a second thread (the blocking client waits for it).
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([released] { released.wait(); });

    std::thread waiter([&] {
        const StatusOr<net::ReadReply> reply =
            (*stuck)->readRange(open->archive, 0, 64);
        EXPECT_TRUE(reply.ok() && reply->ok());
    });
    const auto give_up = std::chrono::steady_clock::now() +
        std::chrono::seconds(10);
    while (service.queueDepth() < 1 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(service.queueDepth(), 1u);

    // The second connection's read is shed with an explicit
    // Overloaded reply — not a dropped connection, not a stall.
    const StatusOr<net::ReadReply> reply =
        (*shed)->readRange(open->archive, 0, 64);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->status, WireStatus::Overloaded);

    release.set_value();
    waiter.join();

    // Both connections remain usable after the shed.
    const StatusOr<WireServerStats> stats = (*shed)->statServer();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->overloaded, 1u);
    EXPECT_EQ(stats->admitted, 1u);
}

TEST_F(NetServerTest, DeadlineExpiresInQueue)
{
    ThreadPool pool(1);
    MultiArchiveOptions service_options;
    service_options.pool = &pool;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    StatusOr<std::unique_ptr<Client>> client =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    const StatusOr<OpenReply> open = (*client)->open(corpus_[0].name);
    ASSERT_TRUE(open.ok());

    // Hold the worker past the request's 1 ms deadline; the dequeue
    // check abandons it with an Expired reply.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([released] { released.wait(); });
    std::thread unblock([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        release.set_value();
    });
    const StatusOr<net::ReadReply> reply =
        (*client)->readRange(open->archive, 0, 64,
                             RequestPriority::Normal,
                             /*deadline_ms=*/1);
    unblock.join();
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->status, WireStatus::Expired);

    // The expired request cost nothing and the connection still works.
    const StatusOr<net::ReadReply> again =
        (*client)->readRange(open->archive, 0, 64);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->ok());
}

/** Satellite: a corrupt archive errors its own connection's replies
 *  and leaves every other connection's data path untouched. */
TEST_F(NetServerTest, CorruptArchiveIsolatedToItsConnection)
{
    // Truncate archive 1's file mid-container before any open.
    const std::string victim = dir_ + "/" + corpus_[1].name;
    struct stat st;
    ASSERT_EQ(::stat(victim.c_str(), &st), 0);
    ASSERT_EQ(::truncate(victim.c_str(), st.st_size / 2), 0);

    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 2;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    StatusOr<std::unique_ptr<Client>> healthy =
        Client::connect("127.0.0.1", server.port());
    StatusOr<std::unique_ptr<Client>> broken =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(healthy.ok() && broken.ok());

    // The corrupt archive fails its OPEN with a decode-side status;
    // the connection that asked survives.
    const StatusOr<OpenReply> bad = (*broken)->open(corpus_[1].name);
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE((*broken)->statServer().ok());

    // The other connection reads its archive byte-identically.
    const StatusOr<OpenReply> good = (*healthy)->open(corpus_[0].name);
    ASSERT_TRUE(good.ok()) << good.status().toString();
    const StatusOr<net::ReadReply> reply =
        (*healthy)->readRange(good->archive, 0, good->readCount);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ok()) << reply->message;
    expectSameReads(reply->reads, corpus_[0].expected);
}

TEST_F(NetServerTest, HostileLengthPrefixGetsProtocolErrorThenClose)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 1;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    // Raw socket: claim a 4 GiB frame. The server must answer with a
    // ProtocolError reply and close — never allocate the claim.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    const uint8_t hostile[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::send(fd, hostile, sizeof hostile, 0),
              static_cast<ssize_t>(sizeof hostile));

    // Read until EOF; the bytes before it must parse as a
    // ProtocolError reply.
    std::vector<uint8_t> got;
    uint8_t buf[512];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        got.insert(got.end(), buf, buf + n);
    }
    ::close(fd);
    ASSERT_GT(got.size(), net::kLenBytes + net::kReplyHeaderBytes);
    const StatusOr<ReplyHeader> header = net::parseReplyHeader(
        got.data() + net::kLenBytes, got.size() - net::kLenBytes);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->status, WireStatus::ProtocolError);
    EXPECT_GE(server.netStats().protocolErrors, 1u);

    // The server shrugged it off: a well-formed client still works.
    StatusOr<std::unique_ptr<Client>> client =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE((*client)->statServer().ok());
}

// ---------------------------------------------------------------------
// Resilience: wire integrity, hygiene, drain, retrying client, chaos
// ---------------------------------------------------------------------

/** Raw blocking TCP connect to 127.0.0.1:@p port (-1 on failure),
 *  with a 10 s receive timeout so a buggy server cannot hang tests. */
int
rawConnect(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    timeval patience = {};
    patience.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                 sizeof(patience));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** recv() until EOF/error, returning everything received. */
std::vector<uint8_t>
recvAll(int fd)
{
    std::vector<uint8_t> got;
    uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        got.insert(got.end(), buf, buf + n);
    }
    return got;
}

TEST_F(NetServerTest, OldProtocolClientGetsCleanVersionMismatch)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 1;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    // An OPEN from a peer of another protocol version: version byte
    // 0, no trailing CRC, length prefix shortened to match.
    std::vector<uint8_t> frame;
    net::appendOpenRequest(frame, 99, corpus_[0].name,
                           RequestPriority::Normal, 0);
    frame.resize(frame.size() - net::kFrameCrcBytes);
    frame[net::kLenBytes + 2] = 0;  // Version byte.
    const uint32_t len =
        static_cast<uint32_t>(frame.size() - net::kLenBytes);
    std::memcpy(frame.data(), &len, sizeof len);

    const int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));

    // The reply is one ordinary v2 error frame (current version byte,
    // valid CRC) carrying VersionMismatch — not garbage, not a silent
    // close — and then the server closes the connection.
    const std::vector<uint8_t> got = recvAll(fd);
    ::close(fd);
    ASSERT_GT(got.size(), net::kLenBytes + net::kReplyHeaderBytes);
    uint32_t reply_len = 0;
    std::memcpy(&reply_len, got.data(), sizeof reply_len);
    EXPECT_EQ(static_cast<size_t>(reply_len) + net::kLenBytes,
              got.size());
    const uint8_t *reply = got.data() + net::kLenBytes;
    const size_t reply_size = verifiedBodySize(got);
    EXPECT_EQ(reply[2], net::kProtocolVersion);
    const StatusOr<ReplyHeader> header =
        net::parseReplyHeader(reply, reply_size);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->status, WireStatus::VersionMismatch);
    const StatusOr<std::string> message = net::parseErrorMessage(
        reply + net::kReplyHeaderBytes,
        reply_size - net::kReplyHeaderBytes);
    ASSERT_TRUE(message.ok());
    EXPECT_NE(message->find("version"), std::string::npos);

    const net::ServerNetStats stats = server.netStats();
    EXPECT_EQ(stats.versionMismatches, 1u);
    EXPECT_GE(stats.protocolErrors, 1u);

    // A v2 client on the same server is untouched.
    StatusOr<std::unique_ptr<Client>> v2 =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(v2.ok());
    EXPECT_TRUE((*v2)->open(corpus_[0].name).ok());
}

TEST_F(NetServerTest, IdleAndSlowLorisConnectionsAreClosed)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 1;
    MultiArchiveService service(dir_, service_options);
    ServerOptions server_options;
    server_options.idleTimeoutSeconds = 0.2;
    server_options.headerReadTimeoutSeconds = 0.2;
    Server server(service, server_options);
    ASSERT_TRUE(server.start().ok());

    // One connection that never says anything, one that drips two
    // bytes of a length prefix and stalls (slow loris).
    const int idle = rawConnect(server.port());
    const int loris = rawConnect(server.port());
    ASSERT_GE(idle, 0);
    ASSERT_GE(loris, 0);
    const uint8_t drip[2] = {0x10, 0x00};
    ASSERT_EQ(::send(loris, drip, sizeof drip, 0), 2);

    // Both must be closed by the server (EOF, not a test timeout;
    // rawConnect arms a 10 s SO_RCVTIMEO backstop).
    EXPECT_TRUE(recvAll(idle).empty());
    EXPECT_TRUE(recvAll(loris).empty());
    ::close(idle);
    ::close(loris);
    EXPECT_EQ(server.netStats().timedOutConnections, 2u);

    // A working client with live traffic is not idle-closed.
    StatusOr<std::unique_ptr<Client>> client =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE((*client)->statServer().ok());
}

TEST_F(NetServerTest, ConnectionCapShedsWithOverloadedReply)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 1;
    MultiArchiveService service(dir_, service_options);
    ServerOptions server_options;
    server_options.maxConnections = 1;
    Server server(service, server_options);
    ASSERT_TRUE(server.start().ok());

    // Occupy the single slot (the STAT round trip guarantees the
    // server registered the connection before we try the second).
    StatusOr<std::unique_ptr<Client>> occupant =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(occupant.ok());
    ASSERT_TRUE((*occupant)->statServer().ok());

    // The connection past the cap is told why, then closed — never
    // left to stall in the accept queue.
    const int shed = rawConnect(server.port());
    ASSERT_GE(shed, 0);
    const std::vector<uint8_t> got = recvAll(shed);
    ::close(shed);
    ASSERT_GT(got.size(), net::kLenBytes);
    size_t body = 0;
    ASSERT_EQ(net::verifyFrame(got.data() + net::kLenBytes,
                               got.size() - net::kLenBytes, &body),
              net::FrameVerdict::Ok);
    const StatusOr<ReplyHeader> header =
        net::parseReplyHeader(got.data() + net::kLenBytes, body);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->status, WireStatus::Overloaded);
    EXPECT_EQ(server.netStats().shedConnections, 1u);

    // The occupant is unaffected.
    EXPECT_TRUE((*occupant)->statServer().ok());
}

/** recv exactly one length-prefixed frame from @p fd (the prefix is
 *  stripped); empty on EOF/error. */
std::vector<uint8_t>
recvFrame(int fd)
{
    uint8_t prefix[net::kLenBytes];
    size_t have = 0;
    while (have < sizeof prefix) {
        const ssize_t n =
            ::recv(fd, prefix + have, sizeof prefix - have, 0);
        if (n <= 0)
            return {};
        have += static_cast<size_t>(n);
    }
    uint32_t len = 0;
    std::memcpy(&len, prefix, sizeof len);
    std::vector<uint8_t> frame(len);
    have = 0;
    while (have < frame.size()) {
        const ssize_t n =
            ::recv(fd, frame.data() + have, frame.size() - have, 0);
        if (n <= 0)
            return {};
        have += static_cast<size_t>(n);
    }
    return frame;
}

TEST_F(NetServerTest, GracefulDrainFlushesInFlightAndRejectsNew)
{
    ThreadPool pool(1);
    MultiArchiveOptions service_options;
    service_options.pool = &pool;
    MultiArchiveService service(dir_, service_options);
    ServerOptions server_options;
    server_options.drainDeadlineSeconds = 30.0;  // Never forced here.
    Server server(service, server_options);
    ASSERT_TRUE(server.start().ok());

    StatusOr<std::unique_ptr<Client>> inflight =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(inflight.ok());
    const StatusOr<OpenReply> open =
        (*inflight)->open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    // Park two admitted requests: the only worker is blocked, so
    // both reads sit in the service queue when the drain begins.
    // The second rides a raw socket so the same connection can
    // pipeline another request mid-drain (a drain retires idle
    // connections immediately — only one owed a reply stays up to
    // receive the in-band rejection).
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([released] { released.wait(); });
    std::thread reader([&] {
        const StatusOr<net::ReadReply> reply =
            (*inflight)->readRange(open->archive, 0, 64);
        ASSERT_TRUE(reply.ok()) << reply.status().toString();
        ASSERT_TRUE(reply->ok()) << reply->message;
        expectSameReads(
            reply->reads,
            std::vector<Read>(corpus_[0].expected.begin(),
                              corpus_[0].expected.begin() + 64));
    });
    const int pipelined = rawConnect(server.port());
    ASSERT_GE(pipelined, 0);
    {
        std::vector<uint8_t> request;
        net::appendReadRangeRequest(request, 1, open->archive, 0, 1,
                                    RequestPriority::Normal, 0);
        ASSERT_EQ(::send(pipelined, request.data(), request.size(), 0),
                  static_cast<ssize_t>(request.size()));
    }
    const auto give_up = std::chrono::steady_clock::now() +
        std::chrono::seconds(10);
    while (service.queueDepth() < 2 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(service.queueDepth(), 2u);

    server.beginDrain();
    EXPECT_TRUE(server.draining());

    // The listener closes: new connections are refused (poll until
    // the event loop has acted on the flag).
    bool refused = false;
    while (!refused &&
           std::chrono::steady_clock::now() < give_up) {
        const int probe = rawConnect(server.port());
        if (probe < 0) {
            refused = true;
        } else {
            ::close(probe);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
    EXPECT_TRUE(refused);

    // New work on a connection that is still owed a reply is told the
    // server is going away — in-band, retry-elsewhere semantics.
    {
        std::vector<uint8_t> request;
        net::appendReadRangeRequest(request, 2, open->archive, 0, 1,
                                    RequestPriority::Normal, 0);
        ASSERT_EQ(::send(pipelined, request.data(), request.size(), 0),
                  static_cast<ssize_t>(request.size()));
    }
    {
        const std::vector<uint8_t> frame = recvFrame(pipelined);
        ASSERT_FALSE(frame.empty());
        size_t body = 0;
        ASSERT_EQ(net::verifyFrame(frame.data(), frame.size(), &body),
                  net::FrameVerdict::Ok);
        const StatusOr<ReplyHeader> header =
            net::parseReplyHeader(frame.data(), body);
        ASSERT_TRUE(header.ok()) << header.status().toString();
        EXPECT_EQ(header->status, WireStatus::ShuttingDown);
        EXPECT_EQ(header->requestId, 2u);
    }

    // Unblock the worker: both parked replies must still be
    // delivered — byte-identical — before the server exits.
    release.set_value();
    reader.join();
    {
        const std::vector<uint8_t> frame = recvFrame(pipelined);
        ASSERT_FALSE(frame.empty());
        size_t body = 0;
        ASSERT_EQ(net::verifyFrame(frame.data(), frame.size(), &body),
                  net::FrameVerdict::Ok);
        const StatusOr<ReplyHeader> header =
            net::parseReplyHeader(frame.data(), body);
        ASSERT_TRUE(header.ok()) << header.status().toString();
        EXPECT_EQ(header->status, WireStatus::Ok);
        EXPECT_EQ(header->requestId, 1u);
    }
    // ... and once nothing more is owed, the connection retires.
    EXPECT_TRUE(recvFrame(pipelined).empty());
    ::close(pipelined);
    EXPECT_TRUE(server.drainWait());
    EXPECT_FALSE(server.running());
    EXPECT_GE(server.netStats().drainRejects, 1u);
}

TEST_F(NetServerTest, DrainDeadlineCancelsParkedRead)
{
    ThreadPool pool(1);
    MultiArchiveOptions service_options;
    service_options.pool = &pool;
    MultiArchiveService service(dir_, service_options);
    ServerOptions server_options;
    server_options.drainDeadlineSeconds = 0.2;
    Server server(service, server_options);
    ASSERT_TRUE(server.start().ok());

    StatusOr<std::unique_ptr<Client>> client =
        Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    const StatusOr<OpenReply> open = (*client)->open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    // Park one read behind the only worker, which stays blocked until
    // well after the deadline.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([released] { released.wait(); });
    std::thread reader([&] {
        // The server goes away without answering: a transport error.
        EXPECT_FALSE((*client)->readRange(open->archive, 0, 64).ok());
    });
    const auto give_up = std::chrono::steady_clock::now() +
        std::chrono::seconds(10);
    while (service.queueDepth() < 1 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(service.queueDepth(), 1u);

    server.beginDrain();
    std::thread unblock([&] {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        release.set_value();
    });
    // The deadline forces the loop out; stop() then waits for the
    // parked read, which the drain's CancelToken turned Cancelled.
    EXPECT_FALSE(server.drainWait());
    unblock.join();
    reader.join();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(service.stats().cancelled, 1u);
}

/** The reply frame @p fd reads next, verified, with its header;
 *  the body size (CRC excluded) goes to @p body. */
StatusOr<ReplyHeader>
recvReply(int fd, std::vector<uint8_t> &frame, size_t &body)
{
    frame = recvFrame(fd);
    if (frame.empty())
        return Status::ioError("no reply frame");
    if (net::verifyFrame(frame.data(), frame.size(), &body) !=
        net::FrameVerdict::Ok)
        return Status::corrupt("reply frame fails verification");
    return net::parseReplyHeader(frame.data(), body);
}

TEST_F(NetServerTest, HalfClosedPeerGetsItsReplies)
{
    // A client may send its requests and then shut down its sending
    // side. The server reads what came with the EOF, answers it, and
    // closes once nothing is owed: here a STAT answered inline, and a
    // READ_RANGE that a pool worker answers after the EOF is read.
    ThreadPool pool(1);
    MultiArchiveOptions service_options;
    service_options.pool = &pool;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());
    std::vector<uint8_t> request, frame;
    size_t body = 0;
    char byte = 0;

    const int stat_fd = rawConnect(server.port());
    ASSERT_GE(stat_fd, 0);
    net::appendStatRequest(request, 7, net::kStatServer);
    ASSERT_EQ(::send(stat_fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ASSERT_EQ(::shutdown(stat_fd, SHUT_WR), 0);
    StatusOr<ReplyHeader> header = recvReply(stat_fd, frame, body);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->type, MsgType::Stat);
    EXPECT_EQ(header->status, WireStatus::Ok);
    EXPECT_EQ(header->requestId, 7u);
    EXPECT_TRUE(net::parseStatReplyPayload(
                    frame.data() + net::kReplyHeaderBytes,
                    body - net::kReplyHeaderBytes)
                    .ok());
    EXPECT_EQ(::recv(stat_fd, &byte, 1, 0), 0);  // EOF, not a reset.
    ::close(stat_fd);

    // OPEN while the socket is full duplex, then a read parked behind
    // the only worker, then the half-close.
    const int read_fd = rawConnect(server.port());
    ASSERT_GE(read_fd, 0);
    request.clear();
    net::appendOpenRequest(request, 1, corpus_[0].name,
                           RequestPriority::Normal, 0);
    ASSERT_EQ(::send(read_fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    header = recvReply(read_fd, frame, body);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    ASSERT_EQ(header->status, WireStatus::Ok);
    const StatusOr<OpenReply> open = net::parseOpenReplyPayload(
        frame.data() + net::kReplyHeaderBytes,
        body - net::kReplyHeaderBytes);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([released] { released.wait(); });
    request.clear();
    net::appendReadRangeRequest(request, 2, open->archive, 0, 64,
                                RequestPriority::Normal, 0);
    ASSERT_EQ(::send(read_fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ASSERT_EQ(::shutdown(read_fd, SHUT_WR), 0);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.queueDepth() < 1 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(service.queueDepth(), 1u);
    // Give the event loop time to read the EOF before the reply exists.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();

    header = recvReply(read_fd, frame, body);
    ASSERT_TRUE(header.ok()) << header.status().toString();
    EXPECT_EQ(header->type, MsgType::ReadRange);
    EXPECT_EQ(header->status, WireStatus::Ok);
    EXPECT_EQ(header->requestId, 2u);
    const StatusOr<std::vector<Read>> reads = net::parseReadReplyPayload(
        frame.data() + net::kReplyHeaderBytes,
        body - net::kReplyHeaderBytes);
    ASSERT_TRUE(reads.ok()) << reads.status().toString();
    expectSameReads(*reads,
                    std::vector<Read>(corpus_[0].expected.begin(),
                                      corpus_[0].expected.begin() + 64));
    EXPECT_EQ(::recv(read_fd, &byte, 1, 0), 0);
    ::close(read_fd);
    server.stop();
}

// ---------------------------------------------------------------------
// The connection state machine, without a socket
// ---------------------------------------------------------------------

/** Socketless tests share NetServerTest's corpus. */
class NetConnection : public NetServerTest
{};

/** Write out the oldest queued reply, as the server's loop does. */
std::vector<uint8_t>
takeReply(net::Connection &conn)
{
    std::vector<uint8_t> frame(conn.txData(),
                               conn.txData() + conn.txSize());
    conn.consume(frame.size(), 0);
    return frame;
}

TEST_F(NetConnection, BackpressurePausesParsingThenResumesInOrder)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 1;
    MultiArchiveService service(dir_, service_options);

    // STAT replies have one size; the mark holds three and a half.
    std::vector<uint8_t> stat_reply;
    net::appendStatReply(stat_reply, 1, WireServerStats{});
    std::vector<uint8_t> stat_request;
    net::appendStatRequest(stat_request, 1, net::kStatServer);
    ServerOptions options;
    options.txHighWaterBytes = stat_reply.size() * 7 / 2;
    options.maxRequestFrameBytes = 1024;
    net::ConnectionContext context(service, options, [] {});
    net::Connection conn(context, 2, 0);

    // Twenty pipelined STATs arrive while nothing is written: the
    // fourth reply crosses the mark and parsing stops behind it.
    uint64_t sent = 0;
    std::vector<uint8_t> burst;
    while (sent < 20)
        net::appendStatRequest(burst, ++sent, net::kStatServer);
    conn.receive(burst.data(), burst.size(), 0);
    ASSERT_TRUE(conn.paused());
    EXPECT_EQ(context.counters.txPauses.load(), 1u);
    EXPECT_EQ(conn.buffered(), 16 * stat_request.size());

    // The loop receives while the connection wants input: that stops
    // once one max-size frame is buffered, and nothing more parses.
    while (conn.wantsInput()) {
        std::vector<uint8_t> more;
        net::appendStatRequest(more, ++sent, net::kStatServer);
        conn.receive(more.data(), more.size(), 0);
    }
    EXPECT_GE(conn.buffered(), options.maxRequestFrameBytes + net::kLenBytes);
    EXPECT_LT(conn.buffered(), options.maxRequestFrameBytes +
                                   net::kLenBytes + stat_request.size());
    EXPECT_EQ(context.counters.txPauses.load(), 1u);

    // Writing two replies leaves the backlog above half the mark; the
    // third brings it below, and the buffered frames parse again.
    std::vector<uint64_t> ids;
    const auto take = [&] {
        const std::vector<uint8_t> frame = takeReply(conn);
        const StatusOr<ReplyHeader> header = net::parseReplyHeader(
            frame.data() + net::kLenBytes, verifiedBodySize(frame));
        ASSERT_TRUE(header.ok()) << header.status().toString();
        EXPECT_EQ(header->status, WireStatus::Ok);
        ids.push_back(header->requestId);
    };
    const size_t stalled = conn.buffered();
    take();
    take();
    EXPECT_TRUE(conn.paused());
    EXPECT_EQ(conn.buffered(), stalled);
    take();
    EXPECT_LT(conn.buffered(), stalled);

    // Every request is answered once, in the order it arrived.
    while (conn.txSize() != 0)
        take();
    EXPECT_EQ(conn.buffered(), 0u);
    EXPECT_FALSE(conn.paused());
    ASSERT_EQ(ids.size(), sent);
    for (uint64_t i = 0; i < sent; i++)
        EXPECT_EQ(ids[i], i + 1);
    EXPECT_GT(context.counters.txPauses.load(), 1u);
    EXPECT_TRUE(conn.owesNothing());
}

/** Client tests share NetServerTest's corpus of three archives. */
class NetClient : public NetServerTest
{};

TEST_F(NetClient, IoTimeoutSurfacesAsRetryableIoError)
{
    // A listener whose backlog completes TCP handshakes but never
    // accepts or replies: the client's blocking recv must time out.
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 4), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(
                  lfd, reinterpret_cast<sockaddr *>(&addr), &len),
              0);
    const uint16_t port = ntohs(addr.sin_port);

    ClientOptions options;
    options.ioTimeoutSeconds = 0.5;
    StatusOr<std::unique_ptr<Client>> client =
        Client::connect("127.0.0.1", port, options);
    ASSERT_TRUE(client.ok()) << client.status().toString();

    const auto start = std::chrono::steady_clock::now();
    const StatusOr<WireServerStats> reply = (*client)->statServer();
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::IoError);
    EXPECT_NE(reply.status().message().find("timed out"),
              std::string::npos)
        << reply.status().toString();
    EXPECT_GE(elapsed, 0.3);
    EXPECT_LT(elapsed, 5.0);

    // The timeout desynced the stream: the connection is marked
    // broken and later calls fail fast instead of blocking again.
    EXPECT_TRUE((*client)->broken());
    const auto again = std::chrono::steady_clock::now();
    EXPECT_FALSE((*client)->statServer().ok());
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - again)
                  .count(),
              0.3);
    ::close(lfd);
}

TEST_F(NetClient, RetryBudgetBoundedByRequestDeadline)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 1;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    ClientOptions options;
    options.maxAttempts = 1u << 20;  // Only the deadline stops it.
    options.seed = 5;
    StatusOr<std::unique_ptr<Client>> connected =
        Client::connect("127.0.0.1", server.port(), options);
    ASSERT_TRUE(connected.ok()) << connected.status().toString();
    Client &client = **connected;
    const StatusOr<OpenReply> open = client.open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    // With the server gone, reconnects to its port are refused fast,
    // so the retry loop is pure backoff.
    server.stop();
    const auto start = std::chrono::steady_clock::now();
    const StatusOr<net::ReadReply> reply = client.readRange(
        open->archive, 0, 1, RequestPriority::Normal,
        /*deadline_ms=*/400);
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_FALSE(reply.ok());
    // The loop used its budget (it did not give up after one try)
    // and stopped once the deadline was spent, sleeps included.
    EXPECT_GE(elapsed, 0.3);
    EXPECT_LT(elapsed, 5.0);
    EXPECT_GT(client.stats().retries, 0u);
    EXPECT_GT(client.stats().backoffSeconds, 0.0);
    EXPECT_LE(client.stats().backoffSeconds, 0.45);
    EXPECT_TRUE(client.broken());
}

/** Walk the whole archive through @p client in small batches,
 *  asserting byte identity against @p expected. */
void
walkArchive(Client &client, uint32_t archive,
            const std::vector<Read> &expected)
{
    std::vector<Read> got;
    for (uint64_t first = 0; first < expected.size();) {
        const uint64_t batch =
            std::min<uint64_t>(64, expected.size() - first);
        const StatusOr<net::ReadReply> reply =
            client.readRange(archive, first, batch);
        ASSERT_TRUE(reply.ok()) << reply.status().toString();
        ASSERT_TRUE(reply->ok()) << reply->message;
        got.insert(got.end(), reply->reads.begin(),
                   reply->reads.end());
        first += batch;
    }
    expectSameReads(got, expected);
}

TEST_F(NetServerTest, RetryingClientSurvivesResetsByteIdentical)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 2;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    ChaosConfig chaos;
    chaos.seed = 11;
    chaos.resetRate = 0.03;
    ChaosProxy proxy("127.0.0.1", server.port(), chaos);
    ASSERT_TRUE(proxy.start().ok());

    ClientOptions options;
    options.ioTimeoutSeconds = 5.0;
    options.maxAttempts = 64;
    options.seed = 3;
    StatusOr<std::unique_ptr<Client>> connected =
        Client::connect("127.0.0.1", proxy.port(), options);
    ASSERT_TRUE(connected.ok()) << connected.status().toString();
    Client &client = **connected;
    const StatusOr<OpenReply> open = client.open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    // Walk until the proxy has actually fired at least one reset
    // (decisions are per forwarded buffer, so a couple of passes is
    // plenty at 3%), every pass byte-identical.
    for (int pass = 0; pass < 10; pass++) {
        walkArchive(client, open->archive, corpus_[0].expected);
        if (proxy.stats().resets > 0 &&
            client.stats().reconnects > 0)
            break;
    }
    EXPECT_GT(proxy.stats().resets, 0u);
    EXPECT_GT(client.stats().reconnects, 0u);
    EXPECT_GT(client.stats().transportRetries, 0u);

    proxy.stop();
    server.stop();
}

TEST_F(NetServerTest, CorruptedFramesNeverYieldWrongBytes)
{
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 2;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    // Aggressive bit-flipping plus splits (so flips land mid-frame
    // on re-assembled boundaries too). Every read either arrives
    // byte-identical or is retried — wrong bytes are the one
    // forbidden outcome.
    ChaosConfig chaos;
    chaos.seed = 13;
    chaos.corruptRate = 0.08;
    chaos.splitRate = 0.25;
    ChaosProxy proxy("127.0.0.1", server.port(), chaos);
    ASSERT_TRUE(proxy.start().ok());

    ClientOptions options;
    options.ioTimeoutSeconds = 5.0;
    options.maxAttempts = 64;
    options.seed = 9;
    StatusOr<std::unique_ptr<Client>> connected =
        Client::connect("127.0.0.1", proxy.port(), options);
    ASSERT_TRUE(connected.ok()) << connected.status().toString();
    Client &client = **connected;
    const StatusOr<OpenReply> open = client.open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    for (int pass = 0; pass < 10; pass++) {
        walkArchive(client, open->archive, corpus_[0].expected);
        if (proxy.stats().corrupted > 0)
            break;
    }
    EXPECT_GT(proxy.stats().corrupted, 0u);
    // Every flip was caught by a CRC somewhere: client-side retries
    // and/or server-side rejects, but never silent damage.
    EXPECT_GT(client.stats().retries +
                  server.netStats().crcMismatches,
              0u);

    proxy.stop();
    server.stop();
}

TEST_F(NetClient, ReconnectRevalidatesEveryHeldArchive)
{
    // MultiArchiveService numbers archives from 0 in first-open order,
    // so a replacement server on the same port can give a held id to
    // another archive. Every held id must be confirmed by name on the
    // new connection before it is read, the id 0 included.
    MultiArchiveOptions service_options;
    service_options.ownedPoolThreads = 1;
    auto service =
        std::make_unique<MultiArchiveService>(dir_, service_options);
    auto server = std::make_unique<Server>(*service);
    ASSERT_TRUE(server->start().ok());
    ServerOptions same_port;
    same_port.port = server->port();

    ClientOptions options;
    options.maxAttempts = 8;
    StatusOr<std::unique_ptr<Client>> connected =
        Client::connect("127.0.0.1", same_port.port, options);
    ASSERT_TRUE(connected.ok()) << connected.status().toString();
    Client &client = **connected;
    const StatusOr<OpenReply> rs0 = client.open(corpus_[0].name);
    const StatusOr<OpenReply> rs1 = client.open(corpus_[1].name);
    ASSERT_TRUE(rs0.ok() && rs1.ok());
    ASSERT_EQ(rs0->archive, 0u);
    ASSERT_EQ(rs1->archive, 1u);

    // Replace the server, its archives opened in @p order first.
    auto restart = [&](std::vector<size_t> order) {
        server.reset();
        service =
            std::make_unique<MultiArchiveService>(dir_, service_options);
        for (size_t i : order)
            ASSERT_TRUE(service->open(corpus_[i].name).ok());
        server = std::make_unique<Server>(*service, same_port);
        ASSERT_TRUE(server->start().ok());
    };

    // Swapped ids: both reads fail Corrupt, never with the other
    // archive's reads.
    restart({1, 0});
    for (uint32_t id : {rs0->archive, rs1->archive}) {
        const StatusOr<net::ReadReply> reply =
            client.readRange(id, 0, 10);
        ASSERT_FALSE(reply.ok()) << "held id " << id << " was read blind";
        EXPECT_EQ(reply.status().code(), StatusCode::Corrupt)
            << reply.status().toString();
    }
    EXPECT_EQ(client.stats().reconnects, 1u);

    // A restart that keeps the ids goes on serving byte-identical
    // reads.
    restart({0, 1});
    walkArchive(client, rs0->archive, corpus_[0].expected);
    walkArchive(client, rs1->archive, corpus_[1].expected);
    EXPECT_EQ(client.stats().reconnects, 2u);
}

TEST_F(NetClient, FlippedVersionByteIsRetried)
{
    // A fake server answering one OPEN per connection. The first
    // reply has bit 5 of its version byte flipped (2 -> 34), as
    // ChaosProxy's corruption does, so its CRC no longer verifies;
    // the second is clean; the third is a well-formed frame of
    // protocol version 3, CRC included.
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 4), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(
                  lfd, reinterpret_cast<sockaddr *>(&addr), &len),
              0);
    const uint16_t port = ntohs(addr.sin_port);
    std::thread fake([lfd] {
        for (int conn = 0; conn < 3; conn++) {
            const int fd = ::accept(lfd, nullptr, nullptr);
            if (fd < 0)
                return;
            const std::vector<uint8_t> frame = recvFrame(fd);
            size_t body = 0;
            if (net::verifyFrame(frame.data(), frame.size(), &body) !=
                net::FrameVerdict::Ok) {
                ::close(fd);
                return;
            }
            const StatusOr<RequestFrame> request =
                net::parseRequestFrame(frame.data(), body);
            OpenReply open;
            open.archive = 7;
            std::vector<uint8_t> reply;
            net::appendOpenReply(reply, request.ok() ? request->requestId : 0,
                                 MsgType::Open, open);
            uint8_t *version = &reply[net::kLenBytes + 2];
            if (conn == 0)
                *version ^= 0x20;
            if (conn == 2) {
                *version = 3;
                const size_t crc_at = reply.size() - net::kFrameCrcBytes;
                const uint32_t crc =
                    Crc32::of(reply.data() + net::kLenBytes,
                              crc_at - net::kLenBytes);
                for (size_t i = 0; i < net::kFrameCrcBytes; i++)
                    reply[crc_at + i] = static_cast<uint8_t>(crc >> (8 * i));
            }
            ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
            ::close(fd);
        }
    });

    // Each check runs in a lambda, so a failed ASSERT returns from it
    // and the fake is still joined below.
    ClientOptions options;
    options.maxAttempts = 8;
    [&] {
        // The damaged reply is wire damage: retried after one
        // reconnect, then served.
        StatusOr<std::unique_ptr<Client>> client =
            Client::connect("127.0.0.1", port, options);
        ASSERT_TRUE(client.ok()) << client.status().toString();
        const StatusOr<OpenReply> open = (*client)->open("any.sage");
        ASSERT_TRUE(open.ok()) << open.status().toString();
        EXPECT_EQ(open->archive, 7u);
        EXPECT_EQ((*client)->stats().reconnects, 1u);
        EXPECT_EQ((*client)->stats().transportRetries, 1u);
    }();
    [&] {
        // A server that really speaks another version: terminal.
        StatusOr<std::unique_ptr<Client>> client =
            Client::connect("127.0.0.1", port, options);
        ASSERT_TRUE(client.ok()) << client.status().toString();
        const StatusOr<OpenReply> open = (*client)->open("any.sage");
        ASSERT_FALSE(open.ok());
        EXPECT_EQ(open.status().code(), StatusCode::Corrupt);
        EXPECT_NE(open.status().message().find("protocol version 3"),
                  std::string::npos)
            << open.status().toString();
        EXPECT_EQ((*client)->stats().retries, 0u);
    }();
    ::shutdown(lfd, SHUT_RDWR);  // Wakes the fake's accept if it waits.
    fake.join();
    ::close(lfd);
}

TEST_F(NetClient, RetriesOverloadedUntilAdmitted)
{
    ThreadPool pool(1);
    MultiArchiveOptions service_options;
    service_options.pool = &pool;
    service_options.admissionHighWater = 1;
    MultiArchiveService service(dir_, service_options);
    Server server(service);
    ASSERT_TRUE(server.start().ok());

    ClientOptions options;
    options.maxAttempts = 64;
    options.seed = 6;
    StatusOr<std::unique_ptr<Client>> stuck =
        Client::connect("127.0.0.1", server.port());
    StatusOr<std::unique_ptr<Client>> retrying =
        Client::connect("127.0.0.1", server.port(), options);
    ASSERT_TRUE(stuck.ok() && retrying.ok());
    const StatusOr<OpenReply> open = (*stuck)->open(corpus_[0].name);
    ASSERT_TRUE(open.ok()) << open.status().toString();

    // Block the only worker and park one admitted read: the queue
    // sits at the high-water mark, so the next read is shed.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([released] { released.wait(); });
    std::thread parked([&] {
        const StatusOr<net::ReadReply> reply =
            (*stuck)->readRange(open->archive, 0, 64);
        EXPECT_TRUE(reply.ok() && reply->ok());
    });
    const auto give_up = std::chrono::steady_clock::now() +
        std::chrono::seconds(10);
    while (service.queueDepth() < 1 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(service.queueDepth(), 1u);

    // The retrying read is shed, backs off and asks again; once the
    // server has shed it, free the worker so a later attempt is
    // admitted.
    std::future<StatusOr<net::ReadReply>> admitted =
        std::async(std::launch::async, [&] {
            return (*retrying)->readRange(open->archive, 0, 64);
        });
    while (service.stats().overloaded < 1 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(service.stats().overloaded, 1u);
    release.set_value();
    parked.join();

    const StatusOr<net::ReadReply> reply = admitted.get();
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    ASSERT_TRUE(reply->ok()) << reply->message;
    expectSameReads(reply->reads,
                    std::vector<Read>(corpus_[0].expected.begin(),
                                      corpus_[0].expected.begin() + 64));
    EXPECT_GE((*retrying)->stats().overloadedRetries, 1u);
    // Overloaded retries stay on the same connection.
    EXPECT_EQ((*retrying)->stats().reconnects, 0u);
}

} // namespace
} // namespace sage
