#include "net/connection.hh"

namespace sage {
namespace net {

namespace {

/** Compact the rx buffer once this much dead prefix accumulates. */
constexpr size_t kRxCompactBytes = 256 * 1024;

uint32_t
loadLe32(const uint8_t *bytes)
{
    return static_cast<uint32_t>(bytes[0]) |
           static_cast<uint32_t>(bytes[1]) << 8 |
           static_cast<uint32_t>(bytes[2]) << 16 |
           static_cast<uint32_t>(bytes[3]) << 24;
}

uint64_t
secondsToMs(double seconds)
{
    return seconds <= 0.0 ? 0
                          : static_cast<uint64_t>(seconds * 1000.0);
}

OpenReply
openReply(const ArchiveMeta &meta)
{
    OpenReply reply;
    reply.archive = meta.id;
    reply.readCount = meta.readCount;
    reply.chunkCount = meta.chunkCount;
    return reply;
}

void
bump(std::atomic<uint64_t> &counter, uint64_t by = 1)
{
    counter.fetch_add(by, std::memory_order_relaxed);
}

} // namespace

ServerNetStats
NetCounters::snapshot() const
{
    const auto get = [](const std::atomic<uint64_t> &counter) {
        return counter.load(std::memory_order_relaxed);
    };
    ServerNetStats out;
    out.accepted = get(accepted);
    out.closed = get(closed);
    out.activeConnections = out.accepted - out.closed;
    out.framesIn = get(framesIn);
    out.repliesOut = get(repliesOut);
    out.protocolErrors = get(protocolErrors);
    out.bytesIn = get(bytesIn);
    out.bytesOut = get(bytesOut);
    out.txPauses = get(txPauses);
    out.timedOutConnections = get(timedOutConnections);
    out.shedConnections = get(shedConnections);
    out.crcMismatches = get(crcMismatches);
    out.versionMismatches = get(versionMismatches);
    out.drainRejects = get(drainRejects);
    return out;
}

void
CompletionQueue::post(uint64_t conn_id, std::vector<uint8_t> &&frame)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ready_.push_back(Completion{conn_id, std::move(frame)});
    }
    wake_();
    // Last touch: once the count reaches zero the owner may tear down
    // what wake_ uses.
    settle();
}

Connection::Connection(ConnectionContext &context, uint64_t id,
                       uint64_t now_ms)
    : context_(context), id_(id), lastRxMs_(now_ms)
{}

void
Connection::receive(const uint8_t *data, size_t size, uint64_t now_ms)
{
    rx_.insert(rx_.end(), data, data + size);
    lastRxMs_ = now_ms;
    bump(context_.counters.bytesIn, size);
    parse(now_ms);
}

void
Connection::complete(std::vector<uint8_t> &&frame)
{
    if (inFlight_ > 0)
        inFlight_--;
    queue(std::move(frame));
}

void
Connection::consume(size_t n, uint64_t now_ms)
{
    bump(context_.counters.bytesOut, n);
    txOff_ += n;
    txBytes_ -= n;
    if (txOff_ == tx_.front().size()) {
        tx_.pop_front();
        txOff_ = 0;
    }
    if (paused_ && txBytes_ <= context_.options.txHighWaterBytes / 2) {
        paused_ = false;
        parse(now_ms);
    }
}

bool
Connection::wantsInput() const
{
    return !paused_ ||
           buffered() < context_.options.maxRequestFrameBytes + kLenBytes;
}

bool
Connection::expired(uint64_t now_ms) const
{
    const uint64_t idle_ms =
        secondsToMs(context_.options.idleTimeoutSeconds);
    const uint64_t header_ms =
        secondsToMs(context_.options.headerReadTimeoutSeconds);
    if (partialFrame_)
        return header_ms != 0 && !paused_ &&
               now_ms - frameStartMs_ >= header_ms;
    return idle_ms != 0 && owesNothing() && now_ms - lastRxMs_ >= idle_ms;
}

void
Connection::parse(uint64_t now_ms)
{
    bool incomplete = false;
    while (!paused_ && !closing_) {
        const size_t avail = buffered();
        if (avail < kLenBytes) {
            incomplete = avail != 0;
            break;
        }
        const uint32_t len = loadLe32(rx_.data() + rxOff_);
        if (len < kRequestHeaderBytes ||
            len > context_.options.maxRequestFrameBytes) {
            refuse(WireStatus::ProtocolError, "bad frame length");
            break;
        }
        if (avail < kLenBytes + len) {
            incomplete = true;
            break;
        }
        handleFrame(rx_.data() + rxOff_ + kLenBytes, len);
        rxOff_ += kLenBytes + len;
    }
    // Slow-loris bookkeeping: time the life of an incomplete frame.
    // Paused connections are excluded — their bytes sit unparsed by
    // our own backpressure choice, not the peer's dripping.
    if (!paused_ && !closing_) {
        if (!incomplete) {
            partialFrame_ = false;
        } else if (!partialFrame_) {
            partialFrame_ = true;
            frameStartMs_ = now_ms;
        }
    }
    if (rxOff_ == rx_.size()) {
        rx_.clear();
        rxOff_ = 0;
    } else if (rxOff_ >= kRxCompactBytes) {
        rx_.erase(rx_.begin(),
                  rx_.begin() + static_cast<ptrdiff_t>(rxOff_));
        rxOff_ = 0;
    }
}

void
Connection::refuse(WireStatus status, const std::string &message)
{
    bump(context_.counters.protocolErrors);
    std::vector<uint8_t> reply;
    appendErrorReply(reply, MsgType::Open, 0, status, message);
    closing_ = true;
    queue(std::move(reply));
}

void
Connection::handleFrame(const uint8_t *frame, size_t size)
{
    NetCounters &counters = context_.counters;
    bump(counters.framesIn);
    size_t body_size = size;
    switch (verifyFrame(frame, size, &body_size)) {
    case FrameVerdict::Ok:
        break;
    case FrameVerdict::VersionMismatch:
        bump(counters.versionMismatches);
        refuse(WireStatus::VersionMismatch,
               "server speaks protocol version " +
                   std::to_string(unsigned(kProtocolVersion)) +
                   ", client sent version " +
                   std::to_string(unsigned(frame[2])));
        return;
    case FrameVerdict::TooShort:
    case FrameVerdict::CrcMismatch:
        bump(counters.crcMismatches);
        refuse(WireStatus::ProtocolError,
               "frame failed its CRC-32 integrity check");
        return;
    }
    auto parsed = parseRequestFrame(frame, body_size);
    if (!parsed.ok()) {
        refuse(WireStatus::ProtocolError, parsed.status().toString());
        return;
    }
    const RequestFrame &request = parsed.value();
    MultiArchiveService &service = context_.service;
    std::vector<uint8_t> reply;
    if (context_.draining) {
        // The listener is gone; connections live only to collect
        // in-flight replies. New work is told to go elsewhere.
        bump(counters.drainRejects);
        appendErrorReply(reply, request.type, request.requestId,
                         WireStatus::ShuttingDown, "server is draining");
        queue(std::move(reply));
        return;
    }
    switch (request.type) {
    case MsgType::Open: {
        auto meta = service.open(request.name);
        if (meta.ok()) {
            appendOpenReply(reply, request.requestId, MsgType::Open,
                            openReply(*meta));
        } else {
            // Bad bytes keep their code across the wire; everything
            // else (missing file, hostile name) is simply an archive
            // this server does not have.
            WireStatus status = wireStatusFromStatus(meta.status());
            if (status != WireStatus::Corrupt &&
                status != WireStatus::Truncated)
                status = WireStatus::UnknownArchive;
            appendErrorReply(reply, MsgType::Open, request.requestId,
                             status, meta.status().toString());
        }
        break;
    }
    case MsgType::Stat: {
        if (request.archive == kStatServer) {
            const MultiArchiveStats stats = service.stats();
            WireServerStats wire;
            wire.openArchives = stats.openArchives;
            wire.knownArchives = stats.knownArchives;
            wire.opens = stats.opens;
            wire.reopens = stats.reopens;
            wire.evictions = stats.evictions;
            wire.admitted = stats.admitted;
            wire.overloaded = stats.overloaded;
            wire.readsServed = stats.readsServed;
            wire.bytesServed = stats.bytesServed;
            wire.cacheBytesReserved = stats.cacheBytesReserved;
            wire.cacheBudgetBytes = stats.cacheBudgetBytes;
            wire.queueDepth = stats.queueDepth;
            appendStatReply(reply, request.requestId, wire);
            break;
        }
        auto meta = service.describe(request.archive);
        if (meta.ok())
            appendOpenReply(reply, request.requestId, MsgType::Stat,
                            openReply(*meta));
        else
            appendErrorReply(reply, MsgType::Stat, request.requestId,
                             WireStatus::UnknownArchive,
                             meta.status().toString());
        break;
    }
    case MsgType::Close: {
        Status status = service.closeArchive(request.archive);
        if (status.ok())
            appendCloseReply(reply, request.requestId);
        else
            appendErrorReply(reply, MsgType::Close, request.requestId,
                             WireStatus::UnknownArchive,
                             status.toString());
        break;
    }
    case MsgType::ReadRange:
    case MsgType::ReadChunk:
        startRead(request);
        return;
    }
    queue(std::move(reply));
}

void
Connection::startRead(const RequestFrame &request)
{
    std::vector<uint8_t> reply;
    if (request.type == MsgType::ReadRange &&
        request.count > context_.options.maxReadsPerRequest) {
        appendErrorReply(reply, request.type, request.requestId,
                         WireStatus::BadRequest,
                         "count exceeds the per-request limit");
        queue(std::move(reply));
        return;
    }

    RequestOptions qos;
    qos.priority = request.priority;
    if (request.deadlineMs != 0)
        qos.deadline =
            RequestOptions::deadlineIn(request.deadlineMs / 1000.0);
    // Every admitted request can be abandoned wholesale when a drain
    // deadline fires — queued work must not hold shutdown hostage.
    qos.cancel = context_.drainCancel.token();

    CompletionQueue &completions = context_.completions;
    completions.expect();
    auto complete = [&completions, conn_id = id_,
                     request_id = request.requestId,
                     type = request.type](RangeResult result) {
        std::vector<uint8_t> frame;
        if (result.status == RequestStatus::Ok) {
            // Encode straight from the cached chunks the runs pin; the
            // pins drop when this completion returns.
            std::vector<ReadSpan> spans;
            spans.reserve(result.runs.size());
            for (const ReadRun &run : result.runs)
                spans.push_back(
                    ReadSpan{&run.chunk->reads, run.offset, run.size()});
            const Status encoded = appendReadReply(
                frame, type, request_id, spans.data(), spans.size());
            if (!encoded.ok())
                appendErrorReply(frame, type, request_id,
                                 WireStatus::OutOfRange,
                                 encoded.toString());
        } else {
            const std::string detail =
                result.error.ok() ? requestStatusName(result.status)
                                  : result.error.toString();
            appendErrorReply(
                frame, type, request_id,
                wireStatusFromRequest(result.status, result.error),
                detail);
        }
        completions.post(conn_id, std::move(frame));
    };

    Status reject;
    const Admission admission =
        request.type == MsgType::ReadRange
            ? context_.service.readRange(request.archive, request.first,
                                         request.count, qos,
                                         std::move(complete), &reject)
            : context_.service.readChunk(request.archive, request.chunk,
                                         qos, std::move(complete),
                                         &reject);
    if (admission == Admission::Admitted) {
        inFlight_++;
        return;
    }

    // The callback will never run.
    completions.settle();
    WireStatus status = WireStatus::BadRequest;
    switch (admission) {
    case Admission::Overloaded:
        status = WireStatus::Overloaded;
        break;
    case Admission::UnknownArchive:
        status = WireStatus::UnknownArchive;
        break;
    case Admission::BadRange:
        status = WireStatus::OutOfRange;
        break;
    case Admission::Admitted:
        break;
    }
    appendErrorReply(reply, request.type, request.requestId, status,
                     reject.toString());
    queue(std::move(reply));
}

void
Connection::queue(std::vector<uint8_t> &&frame)
{
    bump(context_.counters.repliesOut);
    txBytes_ += frame.size();
    tx_.push_back(std::move(frame));
    if (!paused_ && txBytes_ > context_.options.txHighWaterBytes) {
        paused_ = true;
        bump(context_.counters.txPauses);
    }
}

} // namespace net
} // namespace sage
