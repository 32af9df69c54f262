/**
 * @file
 * Wire protocol of the SAGe network front end.
 *
 * Framing is length-prefixed and little-endian throughout: every
 * message is a u32 byte count followed by that many bytes of header
 * plus payload, so a connection state machine only ever needs "do I
 * have 4 bytes; do I have length bytes" to make progress. Requests
 * carry a request id (echoed verbatim in the reply), a priority class
 * (service/qos.hh's RequestPriority) and an optional deadline in
 * milliseconds; replies carry the id and a WireStatus — the
 * util/status.hh StatusCode taxonomy extended with request-level
 * (Expired/Cancelled) and admission-level (Overloaded, BadRequest,
 * UnknownArchive, ProtocolError) outcomes.
 *
 * Protocol version 2 (this build) makes every frame self-checking:
 * byte 2 of the fixed header carries kProtocolVersion and the body
 * ends with a u32 CRC-32 (util/crc32.hh, the container's polynomial)
 * over everything between the length prefix and the CRC itself. Both
 * ends call verifyFrame() before parsing; a flipped bit on the wire
 * surfaces as a CrcMismatch verdict (ProtocolError + connection
 * close), never as decoded garbage. A frame with any other version
 * byte is a VersionMismatch verdict, which the server answers with an
 * ordinary error reply (WireStatus::VersionMismatch) before closing
 * the connection.
 *
 * Request frame (after the u32 length):
 *
 *   u8  type        MsgType
 *   u8  priority    RequestPriority (0 Interactive, 1 Normal, 2 Background)
 *   u8  version     kProtocolVersion
 *   u8  reserved    must be 0
 *   u64 requestId   opaque, echoed in the reply
 *   u32 deadlineMs  0 = no deadline, else relative to arrival
 *   ... payload     per type, see the append*Request encoders
 *   u32 frameCrc    CRC-32 of header + payload
 *
 * Reply frame (after the u32 length):
 *
 *   u8  type        request's MsgType with kReplyFlag set
 *   u8  status      WireStatus
 *   u8  version     kProtocolVersion
 *   u8  reserved    0
 *   u64 requestId   echoed
 *   ... payload     OPEN: archive id + counts; READ_*: packed reads;
 *                   STAT: WireServerStats; errors: u16-length message
 *   u32 frameCrc    CRC-32 of header + payload
 *
 * Read payloads pack each read as u16 headerLen, u32 basesLen,
 * u32 qualsLen followed by the three byte strings — enough for the
 * blocking client to rebuild genomics/read.hh Read objects without
 * touching FASTQ text.
 */

#ifndef SAGE_NET_PROTOCOL_HH
#define SAGE_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/read.hh"
#include "service/qos.hh"
#include "util/status.hh"

namespace sage {
namespace net {

/** Bytes of the length prefix itself. */
constexpr size_t kLenBytes = 4;

/** Wire protocol version carried in byte 2 of every frame header. */
constexpr uint8_t kProtocolVersion = 2;

/** Fixed request/reply header bytes after the length prefix. */
constexpr size_t kRequestHeaderBytes = 16;
constexpr size_t kReplyHeaderBytes = 12;

/** Trailing CRC-32 appended to every v2 frame body. */
constexpr size_t kFrameCrcBytes = 4;

/** Encoder-side bounds; the server additionally enforces
 *  ServerOptions::maxRequestFrameBytes on whole frames. */
constexpr size_t kMaxNameBytes = 4096;
constexpr size_t kMaxErrorMessageBytes = 4096;

/** STAT target meaning "the whole server", not one archive. */
constexpr uint32_t kStatServer = 0xFFFFFFFFu;

enum class MsgType : uint8_t {
    Open = 1,
    ReadRange = 2,
    ReadChunk = 3,
    Stat = 4,
    Close = 5,
};

/** Set on the type byte of every reply. */
constexpr uint8_t kReplyFlag = 0x80;

/**
 * Reply status byte. Values below 32 mirror StatusCode one-to-one so
 * a decode failure crosses the wire losslessly; 32+ are request
 * outcomes with no StatusCode analogue.
 */
enum class WireStatus : uint8_t {
    Ok = 0,
    // StatusCode mirror (data/IO failures from the decode path).
    IoError = 1,
    Truncated = 2,
    Corrupt = 3,
    OutOfRange = 4,
    Exhausted = 5,
    // QoS outcomes (service/qos.hh RequestStatus).
    Expired = 32,
    Cancelled = 33,
    // Admission / protocol outcomes.
    Overloaded = 64,      ///< Shed by admission control; retry later.
    BadRequest = 65,      ///< Frame parsed but the arguments are bad.
    UnknownArchive = 66,  ///< No such archive name/id on this server.
    ProtocolError = 67,   ///< Malformed frame; connection closes.
    ShuttingDown = 68,    ///< Server is draining; retry elsewhere.
    VersionMismatch = 69, ///< Peer speaks another protocol version.
};

const char *wireStatusName(WireStatus status);

/** Retryable-vs-terminal classification for resilient callers.
 *
 *  Retryable (another attempt can succeed): Overloaded (admission
 *  shed), ShuttingDown (this server is draining; a fresh connection —
 *  in production, another replica — can serve it), IoError and
 *  Exhausted (transient decode-side resource failures the server
 *  itself retries). Everything else is terminal: the data really is
 *  Corrupt/Truncated, the request really is malformed
 *  (BadRequest/OutOfRange/UnknownArchive/ProtocolError/
 *  VersionMismatch), or the caller's own deadline/cancel fired
 *  (Expired/Cancelled). */
bool wireStatusRetryable(WireStatus status);

/** StatusCode → WireStatus (decode failures cross losslessly). */
WireStatus wireStatusFromStatus(const Status &status);

/** RequestStatus (+ its Error detail) → WireStatus. */
WireStatus wireStatusFromRequest(RequestStatus status,
                                 const Status &error);

/** WireStatus → local Status, for clients surfacing a reply as a
 *  StatusOr failure (Ok maps to Ok; QoS/admission statuses map to
 *  Exhausted with the wire-status name in the message). */
Status statusFromWire(WireStatus status, const std::string &message);

/** A parsed request frame (fields beyond the ones the type uses are
 *  left at their defaults). */
struct RequestFrame
{
    MsgType type = MsgType::Open;
    RequestPriority priority = RequestPriority::Normal;
    uint64_t requestId = 0;
    uint32_t deadlineMs = 0;

    std::string name;      ///< OPEN
    uint32_t archive = 0;  ///< READ_*/STAT/CLOSE
    uint64_t first = 0;    ///< READ_RANGE
    uint64_t count = 0;    ///< READ_RANGE
    uint64_t chunk = 0;    ///< READ_CHUNK
};

/** A parsed reply header (payload follows at kReplyHeaderBytes). */
struct ReplyHeader
{
    MsgType type = MsgType::Open;  ///< Request type, flag stripped.
    WireStatus status = WireStatus::Ok;
    uint64_t requestId = 0;
};

/** OPEN's success payload (also reused by per-archive STAT). */
struct OpenReply
{
    uint32_t archive = 0;
    uint64_t readCount = 0;
    uint64_t chunkCount = 0;
};

/** Server-wide STAT payload (a wire-stable subset of the richer
 *  in-process MultiArchiveStats). */
struct WireServerStats
{
    uint32_t openArchives = 0;
    uint32_t knownArchives = 0;
    uint64_t opens = 0;
    uint64_t reopens = 0;
    uint64_t evictions = 0;
    uint64_t admitted = 0;
    uint64_t overloaded = 0;
    uint64_t readsServed = 0;
    uint64_t bytesServed = 0;
    uint64_t cacheBytesReserved = 0;
    uint64_t cacheBudgetBytes = 0;
    uint64_t queueDepth = 0;
};

// ---- encoding: each append* emits one complete frame ----------------

void appendOpenRequest(std::vector<uint8_t> &out, uint64_t request_id,
                       const std::string &name,
                       RequestPriority priority, uint32_t deadline_ms);

void appendReadRangeRequest(std::vector<uint8_t> &out,
                            uint64_t request_id, uint32_t archive,
                            uint64_t first, uint64_t count,
                            RequestPriority priority,
                            uint32_t deadline_ms);

void appendReadChunkRequest(std::vector<uint8_t> &out,
                            uint64_t request_id, uint32_t archive,
                            uint64_t chunk, RequestPriority priority,
                            uint32_t deadline_ms);

void appendStatRequest(std::vector<uint8_t> &out, uint64_t request_id,
                       uint32_t archive);

void appendCloseRequest(std::vector<uint8_t> &out, uint64_t request_id,
                        uint32_t archive);

void appendErrorReply(std::vector<uint8_t> &out, MsgType request_type,
                      uint64_t request_id, WireStatus status,
                      const std::string &message);

void appendOpenReply(std::vector<uint8_t> &out, uint64_t request_id,
                     MsgType request_type, const OpenReply &reply);

/** A contiguous run of reads for the reply encoder to serialize, by
 *  reference: reads [first, first + size) of *columns (C++17 has no
 *  std::span). The server points these at the decoded chunks the
 *  service handed it, so a reply is encoded from the chunks' columns
 *  without copying reads out first. */
struct ReadSpan
{
    const ReadColumns *columns = nullptr;
    size_t first = 0;  ///< Index of the span's first read in *columns.
    size_t size = 0;
};

/** One READ_* reply carrying the reads of @p spans in order, as a
 *  single read list (the split into spans is invisible on the wire).
 *  OutOfRange, with @p out unchanged, when a read's header exceeds
 *  the u16 length field (65 535 bytes) or the frame would exceed the
 *  u32 length prefix; the server answers that in band. Callers that
 *  know their reads fit may ignore the result. */
Status appendReadReply(std::vector<uint8_t> &out, MsgType request_type,
                       uint64_t request_id, const ReadSpan *spans,
                       size_t span_count);

/** The same reply over one owned vector of reads (one encoder
 *  serves both overloads, so their frames are byte-identical). */
Status appendReadReply(std::vector<uint8_t> &out, MsgType request_type,
                       uint64_t request_id,
                       const std::vector<Read> &reads);

void appendStatReply(std::vector<uint8_t> &out, uint64_t request_id,
                     const WireServerStats &stats);

void appendCloseReply(std::vector<uint8_t> &out, uint64_t request_id);

// ---- parsing: @p frame/@p payload exclude the u32 length prefix ----

/** Outcome of verifyFrame(): integrity of a whole received frame. */
enum class FrameVerdict : uint8_t {
    Ok = 0,           ///< Version and CRC check out; parse the body.
    TooShort = 1,     ///< Too small to even carry version + CRC.
    VersionMismatch = 2,  ///< Peer wrote a different version byte.
    CrcMismatch = 3,  ///< Bits flipped between the endpoints.
};

const char *frameVerdictName(FrameVerdict verdict);

/** Check a received frame's version byte and trailing CRC-32 before
 *  parsing. On Ok, @p body_size is set to @p size minus the CRC — the
 *  byte count to hand to parseRequestFrame()/parseReplyHeader().
 *  Version is checked before the CRC, so a peer speaking another
 *  version (whose frames need not carry this CRC) is reported as
 *  VersionMismatch, not corruption. */
FrameVerdict verifyFrame(const uint8_t *frame, size_t size,
                         size_t *body_size);

/** Corrupt/Truncated on malformed frames (never throws/aborts on
 *  attacker-controlled bytes). */
StatusOr<RequestFrame> parseRequestFrame(const uint8_t *frame,
                                         size_t size);

StatusOr<ReplyHeader> parseReplyHeader(const uint8_t *frame,
                                       size_t size);

StatusOr<OpenReply> parseOpenReplyPayload(const uint8_t *payload,
                                          size_t size);

StatusOr<std::vector<Read>>
parseReadReplyPayload(const uint8_t *payload, size_t size);

StatusOr<WireServerStats>
parseStatReplyPayload(const uint8_t *payload, size_t size);

/** Error replies carry u16 msgLen + message. */
StatusOr<std::string> parseErrorMessage(const uint8_t *payload,
                                        size_t size);

} // namespace net
} // namespace sage

#endif // SAGE_NET_PROTOCOL_HH
