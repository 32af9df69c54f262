#include "net/protocol.hh"

#include <cstring>
#include <string_view>

#include "util/crc32.hh"

namespace sage {
namespace net {

namespace {

/** u16 headerLen + u32 basesLen + u32 qualsLen ahead of each read. */
constexpr size_t kReadDescriptorBytes = 10;

// ---- little-endian primitives ---------------------------------------

void
putU8(std::vector<uint8_t> &out, uint8_t v)
{
    out.push_back(v);
}

void
putU16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<uint8_t>(v >> shift));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<uint8_t>(v >> shift));
}

void
putBytes(std::vector<uint8_t> &out, const void *data, size_t size)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    out.insert(out.end(), bytes, bytes + size);
}

/** Store the low @p bytes bytes of @p v little-endian at @p p;
 *  returns the position after them. */
uint8_t *
storeLe(uint8_t *p, uint64_t v, size_t bytes)
{
    for (size_t i = 0; i < bytes; i++)
        *p++ = static_cast<uint8_t>(v >> (8 * i));
    return p;
}

uint8_t *
storeBytes(uint8_t *p, std::string_view bytes)
{
    std::memcpy(p, bytes.data(), bytes.size());
    return p + bytes.size();
}

/** Bounds-checked little-endian cursor over an untrusted frame. */
class Cursor
{
  public:
    Cursor(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    size_t remaining() const { return size_ - offset_; }

    bool
    u8(uint8_t &v)
    {
        if (remaining() < 1)
            return false;
        v = data_[offset_++];
        return true;
    }

    bool
    u16(uint16_t &v)
    {
        if (remaining() < 2)
            return false;
        v = static_cast<uint16_t>(
            data_[offset_] |
            static_cast<uint16_t>(data_[offset_ + 1]) << 8);
        offset_ += 2;
        return true;
    }

    bool
    u32(uint32_t &v)
    {
        if (remaining() < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(data_[offset_ + i]) << (8 * i);
        offset_ += 4;
        return true;
    }

    bool
    u64(uint64_t &v)
    {
        if (remaining() < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; i++)
            v |= static_cast<uint64_t>(data_[offset_ + i]) << (8 * i);
        offset_ += 8;
        return true;
    }

    bool
    str(std::string &v, size_t size)
    {
        if (remaining() < size)
            return false;
        v.assign(reinterpret_cast<const char *>(data_ + offset_),
                 size);
        offset_ += size;
        return true;
    }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t offset_ = 0;
};

/** Reserve the length prefix; backpatch once the frame is complete. */
size_t
beginFrame(std::vector<uint8_t> &out)
{
    const size_t at = out.size();
    putU32(out, 0);
    return at;
}

/** Append the frame CRC over the body built since beginFrame(), then
 *  backpatch the length prefix (which counts the CRC too). */
void
endFrame(std::vector<uint8_t> &out, size_t at)
{
    const size_t body = at + kLenBytes;
    putU32(out, Crc32::of(out.data() + body, out.size() - body));
    const uint32_t len = static_cast<uint32_t>(out.size() - body);
    out[at + 0] = static_cast<uint8_t>(len);
    out[at + 1] = static_cast<uint8_t>(len >> 8);
    out[at + 2] = static_cast<uint8_t>(len >> 16);
    out[at + 3] = static_cast<uint8_t>(len >> 24);
}

void
putRequestHeader(std::vector<uint8_t> &out, MsgType type,
                 RequestPriority priority, uint64_t request_id,
                 uint32_t deadline_ms)
{
    putU8(out, static_cast<uint8_t>(type));
    putU8(out, static_cast<uint8_t>(priority));
    putU8(out, kProtocolVersion);
    putU8(out, 0);
    putU64(out, request_id);
    putU32(out, deadline_ms);
}

void
putReplyHeader(std::vector<uint8_t> &out, MsgType request_type,
               WireStatus status, uint64_t request_id)
{
    putU8(out, static_cast<uint8_t>(request_type) | kReplyFlag);
    putU8(out, static_cast<uint8_t>(status));
    putU8(out, kProtocolVersion);
    putU8(out, 0);
    putU64(out, request_id);
}

Status
malformed(const char *what)
{
    return Status::truncated("malformed frame: ", what);
}

} // namespace

const char *
wireStatusName(WireStatus status)
{
    switch (status) {
    case WireStatus::Ok: return "Ok";
    case WireStatus::IoError: return "IoError";
    case WireStatus::Truncated: return "Truncated";
    case WireStatus::Corrupt: return "Corrupt";
    case WireStatus::OutOfRange: return "OutOfRange";
    case WireStatus::Exhausted: return "Exhausted";
    case WireStatus::Expired: return "Expired";
    case WireStatus::Cancelled: return "Cancelled";
    case WireStatus::Overloaded: return "Overloaded";
    case WireStatus::BadRequest: return "BadRequest";
    case WireStatus::UnknownArchive: return "UnknownArchive";
    case WireStatus::ProtocolError: return "ProtocolError";
    case WireStatus::ShuttingDown: return "ShuttingDown";
    case WireStatus::VersionMismatch: return "VersionMismatch";
    }
    return "Unknown";
}

bool
wireStatusRetryable(WireStatus status)
{
    switch (status) {
    case WireStatus::IoError:
    case WireStatus::Exhausted:
    case WireStatus::Overloaded:
    case WireStatus::ShuttingDown:
        return true;
    default:
        return false;
    }
}

WireStatus
wireStatusFromStatus(const Status &status)
{
    switch (status.code()) {
    case StatusCode::Ok: return WireStatus::Ok;
    case StatusCode::IoError: return WireStatus::IoError;
    case StatusCode::Truncated: return WireStatus::Truncated;
    case StatusCode::Corrupt: return WireStatus::Corrupt;
    case StatusCode::OutOfRange: return WireStatus::OutOfRange;
    case StatusCode::Exhausted: return WireStatus::Exhausted;
    }
    return WireStatus::IoError;
}

WireStatus
wireStatusFromRequest(RequestStatus status, const Status &error)
{
    switch (status) {
    case RequestStatus::Ok: return WireStatus::Ok;
    case RequestStatus::Expired: return WireStatus::Expired;
    case RequestStatus::Cancelled: return WireStatus::Cancelled;
    case RequestStatus::Error: return wireStatusFromStatus(error);
    }
    return WireStatus::IoError;
}

Status
statusFromWire(WireStatus status, const std::string &message)
{
    switch (status) {
    case WireStatus::Ok:
        return Status();
    case WireStatus::IoError:
        return Status::ioError(message);
    case WireStatus::Truncated:
        return Status::truncated(message);
    case WireStatus::Corrupt:
        return Status::corrupt(message);
    case WireStatus::OutOfRange:
    case WireStatus::UnknownArchive:
    case WireStatus::BadRequest:
        return Status::outOfRange(wireStatusName(status), ": ",
                                  message);
    case WireStatus::VersionMismatch:
        return Status::corrupt(wireStatusName(status), ": ", message);
    default:
        return Status::exhausted(wireStatusName(status), ": ",
                                 message);
    }
}

// ---- request encoders -----------------------------------------------

void
appendOpenRequest(std::vector<uint8_t> &out, uint64_t request_id,
                  const std::string &name, RequestPriority priority,
                  uint32_t deadline_ms)
{
    const size_t at = beginFrame(out);
    putRequestHeader(out, MsgType::Open, priority, request_id,
                     deadline_ms);
    const size_t len = std::min(name.size(), kMaxNameBytes);
    putU16(out, static_cast<uint16_t>(len));
    putBytes(out, name.data(), len);
    endFrame(out, at);
}

void
appendReadRangeRequest(std::vector<uint8_t> &out, uint64_t request_id,
                       uint32_t archive, uint64_t first,
                       uint64_t count, RequestPriority priority,
                       uint32_t deadline_ms)
{
    const size_t at = beginFrame(out);
    putRequestHeader(out, MsgType::ReadRange, priority, request_id,
                     deadline_ms);
    putU32(out, archive);
    putU64(out, first);
    putU64(out, count);
    endFrame(out, at);
}

void
appendReadChunkRequest(std::vector<uint8_t> &out, uint64_t request_id,
                       uint32_t archive, uint64_t chunk,
                       RequestPriority priority, uint32_t deadline_ms)
{
    const size_t at = beginFrame(out);
    putRequestHeader(out, MsgType::ReadChunk, priority, request_id,
                     deadline_ms);
    putU32(out, archive);
    putU64(out, chunk);
    endFrame(out, at);
}

void
appendStatRequest(std::vector<uint8_t> &out, uint64_t request_id,
                  uint32_t archive)
{
    const size_t at = beginFrame(out);
    putRequestHeader(out, MsgType::Stat, RequestPriority::Normal,
                     request_id, 0);
    putU32(out, archive);
    endFrame(out, at);
}

void
appendCloseRequest(std::vector<uint8_t> &out, uint64_t request_id,
                   uint32_t archive)
{
    const size_t at = beginFrame(out);
    putRequestHeader(out, MsgType::Close, RequestPriority::Normal,
                     request_id, 0);
    putU32(out, archive);
    endFrame(out, at);
}

// ---- reply encoders -------------------------------------------------

void
appendErrorReply(std::vector<uint8_t> &out, MsgType request_type,
                 uint64_t request_id, WireStatus status,
                 const std::string &message)
{
    const size_t at = beginFrame(out);
    putReplyHeader(out, request_type, status, request_id);
    const size_t len = std::min(message.size(), kMaxErrorMessageBytes);
    putU16(out, static_cast<uint16_t>(len));
    putBytes(out, message.data(), len);
    endFrame(out, at);
}

void
appendOpenReply(std::vector<uint8_t> &out, uint64_t request_id,
                MsgType request_type, const OpenReply &reply)
{
    const size_t at = beginFrame(out);
    putReplyHeader(out, request_type, WireStatus::Ok, request_id);
    putU32(out, reply.archive);
    putU64(out, reply.readCount);
    putU64(out, reply.chunkCount);
    endFrame(out, at);
}

namespace {

/**
 * The READ_* reply encoder behind both appendReadReply overloads.
 * @p for_each_read(fn) calls fn(ReadView) on every read of the reply,
 * in order; it runs twice, once to size the frame and once to write
 * it.
 */
template <typename ForEachRead>
Status
encodeReadReply(std::vector<uint8_t> &out, MsgType request_type,
                uint64_t request_id, const ForEachRead &for_each_read)
{
    // Size the frame before writing a byte of it: refuse what the u16
    // header lengths and the u32 frame length cannot carry, and
    // allocate what they can exactly once. The frame length counts the
    // reply header, the u32 read count, the reads and the CRC.
    uint64_t frame = kReplyHeaderBytes + 4 + kFrameCrcBytes;
    uint64_t count = 0;
    Status refused;
    for_each_read([&](const ReadView &read) {
        if (!refused.ok())
            return;
        if (read.header.size() > UINT16_MAX) {
            refused = Status::outOfRange(
                "read ", count, " of the reply has a ",
                read.header.size(),
                "-byte header; a reply header holds at most ", UINT16_MAX,
                " bytes");
            return;
        }
        frame += kReadDescriptorBytes + read.header.size() +
                 read.bases.size() + read.quals.size();
        count++;
    });
    if (!refused.ok())
        return refused;
    if (frame > UINT32_MAX)
        return Status::outOfRange("a reply of ", count,
                                  " reads needs a ", frame,
                                  "-byte frame; a frame holds at most ",
                                  UINT32_MAX, " bytes");
    out.reserve(out.size() + kLenBytes + frame);

    const size_t at = beginFrame(out);
    putReplyHeader(out, request_type, WireStatus::Ok, request_id);
    putU32(out, static_cast<uint32_t>(count));
    // The reads are the bulk of the frame: grow it by their exact size
    // once and copy each field in with one memcpy.
    const size_t reads_at = out.size();
    out.resize(at + kLenBytes + frame - kFrameCrcBytes);
    uint8_t *p = out.data() + reads_at;
    for_each_read([&](const ReadView &read) {
        p = storeLe(p, read.header.size(), 2);
        p = storeLe(p, read.bases.size(), 4);
        p = storeLe(p, read.quals.size(), 4);
        p = storeBytes(p, read.header);
        p = storeBytes(p, read.bases);
        p = storeBytes(p, read.quals);
    });
    endFrame(out, at);
    return Status();
}

} // namespace

Status
appendReadReply(std::vector<uint8_t> &out, MsgType request_type,
                uint64_t request_id, const ReadSpan *spans,
                size_t span_count)
{
    return encodeReadReply(
        out, request_type, request_id, [&](const auto &emit) {
            for (size_t s = 0; s < span_count; s++) {
                const ReadSpan &span = spans[s];
                for (size_t i = 0; i < span.size; i++)
                    emit((*span.columns)[span.first + i]);
            }
        });
}

Status
appendReadReply(std::vector<uint8_t> &out, MsgType request_type,
                uint64_t request_id, const std::vector<Read> &reads)
{
    return encodeReadReply(out, request_type, request_id,
                           [&](const auto &emit) {
                               for (const Read &read : reads)
                                   emit(ReadView(read));
                           });
}

void
appendStatReply(std::vector<uint8_t> &out, uint64_t request_id,
                const WireServerStats &stats)
{
    const size_t at = beginFrame(out);
    putReplyHeader(out, MsgType::Stat, WireStatus::Ok, request_id);
    putU32(out, stats.openArchives);
    putU32(out, stats.knownArchives);
    putU64(out, stats.opens);
    putU64(out, stats.reopens);
    putU64(out, stats.evictions);
    putU64(out, stats.admitted);
    putU64(out, stats.overloaded);
    putU64(out, stats.readsServed);
    putU64(out, stats.bytesServed);
    putU64(out, stats.cacheBytesReserved);
    putU64(out, stats.cacheBudgetBytes);
    putU64(out, stats.queueDepth);
    endFrame(out, at);
}

void
appendCloseReply(std::vector<uint8_t> &out, uint64_t request_id)
{
    const size_t at = beginFrame(out);
    putReplyHeader(out, MsgType::Close, WireStatus::Ok, request_id);
    endFrame(out, at);
}

// ---- parsers --------------------------------------------------------

const char *
frameVerdictName(FrameVerdict verdict)
{
    switch (verdict) {
    case FrameVerdict::Ok: return "Ok";
    case FrameVerdict::TooShort: return "TooShort";
    case FrameVerdict::VersionMismatch: return "VersionMismatch";
    case FrameVerdict::CrcMismatch: return "CrcMismatch";
    }
    return "Unknown";
}

FrameVerdict
verifyFrame(const uint8_t *frame, size_t size, size_t *body_size)
{
    // The version byte sits at offset 2 in both header layouts.
    if (size < 3)
        return FrameVerdict::TooShort;
    if (frame[2] != kProtocolVersion)
        return FrameVerdict::VersionMismatch;
    if (size < kReplyHeaderBytes + kFrameCrcBytes)
        return FrameVerdict::TooShort;
    const size_t body = size - kFrameCrcBytes;
    uint32_t stored = 0;
    for (int i = 0; i < 4; i++)
        stored |= static_cast<uint32_t>(frame[body + i]) << (8 * i);
    if (Crc32::of(frame, body) != stored)
        return FrameVerdict::CrcMismatch;
    if (body_size != nullptr)
        *body_size = body;
    return FrameVerdict::Ok;
}

StatusOr<RequestFrame>
parseRequestFrame(const uint8_t *frame, size_t size)
{
    Cursor cur(frame, size);
    RequestFrame out;
    uint8_t type = 0, priority = 0;
    uint16_t reserved = 0;
    if (!cur.u8(type) || !cur.u8(priority) || !cur.u16(reserved) ||
        !cur.u64(out.requestId) || !cur.u32(out.deadlineMs))
        return malformed("request header short");
    if (type < static_cast<uint8_t>(MsgType::Open) ||
        type > static_cast<uint8_t>(MsgType::Close))
        return Status::corrupt("malformed frame: unknown request type ",
                               unsigned(type));
    if (priority >= kRequestPriorityCount) {
        return Status::corrupt("malformed frame: bad priority ",
                               unsigned(priority));
    }
    out.type = static_cast<MsgType>(type);
    out.priority = static_cast<RequestPriority>(priority);

    switch (out.type) {
    case MsgType::Open: {
        uint16_t name_len = 0;
        if (!cur.u16(name_len))
            return malformed("OPEN payload short");
        if (name_len > kMaxNameBytes)
            return Status::corrupt("malformed frame: name too long");
        if (!cur.str(out.name, name_len))
            return malformed("OPEN name short");
        break;
    }
    case MsgType::ReadRange:
        if (!cur.u32(out.archive) || !cur.u64(out.first) ||
            !cur.u64(out.count))
            return malformed("READ_RANGE payload short");
        break;
    case MsgType::ReadChunk:
        if (!cur.u32(out.archive) || !cur.u64(out.chunk))
            return malformed("READ_CHUNK payload short");
        break;
    case MsgType::Stat:
    case MsgType::Close:
        if (!cur.u32(out.archive))
            return malformed("payload short");
        break;
    }
    if (cur.remaining() != 0)
        return Status::corrupt("malformed frame: ", cur.remaining(),
                               " trailing bytes");
    return out;
}

StatusOr<ReplyHeader>
parseReplyHeader(const uint8_t *frame, size_t size)
{
    Cursor cur(frame, size);
    ReplyHeader out;
    uint8_t type = 0, status = 0;
    uint16_t reserved = 0;
    if (!cur.u8(type) || !cur.u8(status) || !cur.u16(reserved) ||
        !cur.u64(out.requestId))
        return malformed("reply header short");
    if (!(type & kReplyFlag))
        return Status::corrupt(
            "malformed frame: reply flag missing on type ",
            unsigned(type));
    type = static_cast<uint8_t>(type & ~kReplyFlag);
    if (type < static_cast<uint8_t>(MsgType::Open) ||
        type > static_cast<uint8_t>(MsgType::Close))
        return Status::corrupt("malformed frame: unknown reply type ",
                               unsigned(type));
    out.type = static_cast<MsgType>(type);
    out.status = static_cast<WireStatus>(status);
    return out;
}

StatusOr<OpenReply>
parseOpenReplyPayload(const uint8_t *payload, size_t size)
{
    Cursor cur(payload, size);
    OpenReply out;
    if (!cur.u32(out.archive) || !cur.u64(out.readCount) ||
        !cur.u64(out.chunkCount))
        return malformed("OPEN reply short");
    return out;
}

StatusOr<std::vector<Read>>
parseReadReplyPayload(const uint8_t *payload, size_t size)
{
    Cursor cur(payload, size);
    uint32_t count = 0;
    if (!cur.u32(count))
        return malformed("READ reply short");
    // A count can promise at most the remaining bytes (each read costs
    // at least its descriptor); reject before reserving.
    if (count > cur.remaining() / kReadDescriptorBytes + 1)
        return Status::corrupt(
            "malformed frame: read count ", count,
            " exceeds payload capacity");
    std::vector<Read> reads;
    reads.reserve(count);
    for (uint32_t i = 0; i < count; i++) {
        uint16_t header_len = 0;
        uint32_t bases_len = 0, quals_len = 0;
        if (!cur.u16(header_len) || !cur.u32(bases_len) ||
            !cur.u32(quals_len))
            return malformed("read descriptor short");
        Read read;
        if (!cur.str(read.header, header_len) ||
            !cur.str(read.bases, bases_len) ||
            !cur.str(read.quals, quals_len))
            return malformed("read body short");
        reads.push_back(std::move(read));
    }
    if (cur.remaining() != 0)
        return Status::corrupt("malformed frame: ", cur.remaining(),
                               " trailing bytes");
    return reads;
}

StatusOr<WireServerStats>
parseStatReplyPayload(const uint8_t *payload, size_t size)
{
    Cursor cur(payload, size);
    WireServerStats out;
    if (!cur.u32(out.openArchives) || !cur.u32(out.knownArchives) ||
        !cur.u64(out.opens) || !cur.u64(out.reopens) ||
        !cur.u64(out.evictions) || !cur.u64(out.admitted) ||
        !cur.u64(out.overloaded) || !cur.u64(out.readsServed) ||
        !cur.u64(out.bytesServed) ||
        !cur.u64(out.cacheBytesReserved) ||
        !cur.u64(out.cacheBudgetBytes) || !cur.u64(out.queueDepth))
        return malformed("STAT reply short");
    return out;
}

StatusOr<std::string>
parseErrorMessage(const uint8_t *payload, size_t size)
{
    Cursor cur(payload, size);
    uint16_t len = 0;
    if (!cur.u16(len))
        return malformed("error reply short");
    std::string message;
    if (!cur.str(message, len))
        return malformed("error message short");
    return message;
}

} // namespace net
} // namespace sage
