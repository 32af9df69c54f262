#include "net/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/crc32.hh"

namespace sage {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/** Reply frames larger than this are a protocol error. Sized for
 *  maxReadsPerRequest worth of payload. */
constexpr uint32_t kMaxReplyFrameBytes = 256u << 20;

/** First backoff; later sleeps draw uniformly from
 *  [base, 3 * previous] (decorrelated jitter), capped at the max. */
constexpr double kBaseBackoffSeconds = 0.002;
constexpr double kMaxBackoffSeconds = 0.250;

std::string
errnoText()
{
    return std::strerror(errno);
}

void
setIoTimeout(int fd, double seconds)
{
    if (seconds <= 0.0)
        return;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - std::floor(seconds)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/** connect(2) that survives EINTR: once interrupted, the connect
 *  keeps going asynchronously, so poll for writability and read the
 *  final outcome from SO_ERROR instead of calling connect() again
 *  (which would return EALREADY). Returns 0 or -1 with errno set. */
int
connectRetryIntr(int fd, const sockaddr *addr, socklen_t len)
{
    if (::connect(fd, addr, len) == 0)
        return 0;
    if (errno != EINTR)
        return -1;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    for (;;) {
        const int rc = ::poll(&pfd, 1, -1);
        if (rc > 0)
            break;
        if (rc < 0 && errno == EINTR)
            continue;
        return -1;
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) < 0)
        return -1;
    if (soerr != 0) {
        errno = soerr;
        return -1;
    }
    return 0;
}

/** Resolve @p host and connect a TCP socket to it. */
StatusOr<int>
dial(const std::string &host, uint16_t port, double io_timeout_seconds)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *found = nullptr;
    const int rc = ::getaddrinfo(host.c_str(),
                                 std::to_string(port).c_str(), &hints,
                                 &found);
    if (rc != 0)
        return Status::ioError("resolve ", host, ": ",
                               ::gai_strerror(rc));

    int fd = -1;
    std::string last_error = "no addresses";
    for (addrinfo *ai = found; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0) {
            last_error = errnoText();
            continue;
        }
        if (connectRetryIntr(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        last_error = errnoText();
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(found);
    if (fd < 0)
        return Status::ioError("connect ", host, ":", port, ": ",
                               last_error);

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    setIoTimeout(fd, io_timeout_seconds);
    return fd;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
appendRequest(std::vector<uint8_t> &out, const RequestFrame &request)
{
    switch (request.type) {
    case MsgType::Open:
        appendOpenRequest(out, request.requestId, request.name,
                          request.priority, request.deadlineMs);
        break;
    case MsgType::ReadRange:
        appendReadRangeRequest(out, request.requestId, request.archive,
                               request.first, request.count,
                               request.priority, request.deadlineMs);
        break;
    case MsgType::ReadChunk:
        appendReadChunkRequest(out, request.requestId, request.archive,
                               request.chunk, request.priority,
                               request.deadlineMs);
        break;
    case MsgType::Stat:
        appendStatRequest(out, request.requestId, request.archive);
        break;
    case MsgType::Close:
        appendCloseRequest(out, request.requestId, request.archive);
        break;
    }
}

/** True when the trailing CRC-32 of @p frame covers the rest of it. */
bool
crcVerifies(const uint8_t *frame, size_t size)
{
    if (size < kFrameCrcBytes)
        return false;
    const size_t body = size - kFrameCrcBytes;
    uint32_t stored = 0;
    for (size_t i = 0; i < kFrameCrcBytes; i++)
        stored |= static_cast<uint32_t>(frame[body + i]) << (8 * i);
    return Crc32::of(frame, body) == stored;
}

/** A server-reported failure of OPEN/STAT/CLOSE as a local Status. */
Status
inBandError(WireStatus status, const uint8_t *payload, size_t size)
{
    auto message = parseErrorMessage(payload, size);
    return statusFromWire(status, message.ok() ? message.value()
                                               : "unparseable error");
}

} // namespace

StatusOr<std::unique_ptr<Client>>
Client::connect(const std::string &host, uint16_t port,
                ClientOptions options)
{
    auto fd = dial(host, port, options.ioTimeoutSeconds);
    if (!fd.ok())
        return fd.status();
    return std::unique_ptr<Client>(
        new Client(fd.value(), host, port, options));
}

Client::Client(int fd, std::string host, uint16_t port,
               ClientOptions options)
    : fd_(fd), host_(std::move(host)), port_(port), options_(options)
{
    stats_.connects = 1;
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Status
Client::transportError(Status status)
{
    broken_ = true;
    return status;
}

Status
Client::sendAll()
{
    size_t sent = 0;
    while (sent < tx_.size()) {
        const ssize_t n = ::send(fd_, tx_.data() + sent,
                                 tx_.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return transportError(Status::ioError(
                "send: timed out after ", options_.ioTimeoutSeconds,
                "s"));
        return transportError(Status::ioError("send: ", errnoText()));
    }
    return Status();
}

StatusOr<size_t>
Client::recvFrame()
{
    uint8_t prefix[kLenBytes];
    size_t have = 0;
    while (have < kLenBytes) {
        const ssize_t n =
            ::recv(fd_, prefix + have, kLenBytes - have, 0);
        if (n > 0) {
            have += static_cast<size_t>(n);
            continue;
        }
        if (n == 0)
            return transportError(
                Status::ioError("connection closed by server"));
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return transportError(Status::ioError(
                "recv: timed out after ", options_.ioTimeoutSeconds,
                "s waiting for a reply"));
        return transportError(Status::ioError("recv: ", errnoText()));
    }
    const uint32_t len = static_cast<uint32_t>(prefix[0]) |
                         static_cast<uint32_t>(prefix[1]) << 8 |
                         static_cast<uint32_t>(prefix[2]) << 16 |
                         static_cast<uint32_t>(prefix[3]) << 24;
    // A bad length means framing is lost (most likely wire damage):
    // a transport failure, not trusted data saying "corrupt".
    if (len < kReplyHeaderBytes || len > kMaxReplyFrameBytes)
        return transportError(
            Status::ioError("bad reply frame length ", len));
    if (rx_.size() < len)
        rx_.resize(len);
    have = 0;
    while (have < len) {
        const ssize_t n =
            ::recv(fd_, rx_.data() + have, len - have, 0);
        if (n > 0) {
            have += static_cast<size_t>(n);
            continue;
        }
        if (n == 0)
            return transportError(Status::ioError(
                "connection closed mid-frame (", have, " of ", len,
                " bytes)"));
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return transportError(Status::ioError(
                "recv: timed out after ", options_.ioTimeoutSeconds,
                "s mid-frame (", have, " of ", len, " bytes)"));
        return transportError(Status::ioError("recv: ", errnoText()));
    }
    return static_cast<size_t>(len);
}

StatusOr<Client::Payload>
Client::exchange(RequestFrame &request, ReplyHeader &header)
{
    request.requestId = nextRequestId_++;
    tx_.clear();
    appendRequest(tx_, request);
    Status sent = sendAll();
    if (!sent.ok())
        return sent;
    auto frame = recvFrame();
    if (!frame.ok())
        return frame.status();
    size_t body_size = 0;
    switch (verifyFrame(rx_.data(), frame.value(), &body_size)) {
    case FrameVerdict::Ok:
        break;
    case FrameVerdict::VersionMismatch:
        // The CRC covers the version byte. A frame that verifies was
        // written by a server speaking another revision, which no
        // reconnect can help; one that does not is wire damage.
        if (crcVerifies(rx_.data(), frame.value())) {
            broken_ = true;
            return Status::corrupt(
                "server speaks protocol version ", unsigned(rx_[2]),
                ", this client speaks ", unsigned(kProtocolVersion));
        }
        return transportError(Status::ioError(
            "reply frame with version byte ", unsigned(rx_[2]),
            " failed its CRC: bits flipped on the wire"));
    case FrameVerdict::TooShort:
    case FrameVerdict::CrcMismatch:
        return transportError(Status::ioError(
            "reply frame failed integrity check (CRC mismatch): "
            "bits flipped on the wire"));
    }
    auto parsed = parseReplyHeader(rx_.data(), body_size);
    if (!parsed.ok())
        return transportError(parsed.status());
    header = parsed.value();
    // One outstanding request per connection: replies cannot reorder.
    if (header.requestId != request.requestId)
        return transportError(Status::ioError(
            "reply id ", header.requestId, " does not match request ",
            request.requestId, " (stream desynced)"));
    return Payload{rx_.data() + kReplyHeaderBytes,
                   body_size - kReplyHeaderBytes};
}

StatusOr<Client::Payload>
Client::attempt(RequestFrame &request, ReplyHeader &header)
{
    if (broken_) {
        if (options_.maxAttempts <= 1)
            return Status::ioError(
                "connection broken by an earlier transport failure");
        if (fd_ >= 0)
            ::close(fd_);
        auto fd = dial(host_, port_, options_.ioTimeoutSeconds);
        fd_ = fd.ok() ? fd.value() : -1;
        if (!fd.ok())
            return fd.status();
        broken_ = false;
        stats_.connects++;
        stats_.reconnects++;
    }
    if (request.type == MsgType::Open || request.type == MsgType::Stat)
        return exchange(request, header);
    // The first use of a held id on a new connection confirms it by
    // name: a replacement server on the same port may have numbered
    // its archives in another order.
    auto held = held_.find(request.archive);
    if (held != held_.end() &&
        held->second.confirmedOn != stats_.connects) {
        RequestFrame reopen;
        reopen.type = MsgType::Open;
        reopen.name = held->second.name;
        auto payload = exchange(reopen, header);
        if (!payload.ok() || header.status != WireStatus::Ok)
            return payload;
        auto opened =
            parseOpenReplyPayload(payload->data, payload->size);
        if (!opened.ok())
            return opened.status();
        if (opened->archive != request.archive)
            return Status::corrupt(
                "archive \"", held->second.name,
                "\" changed id across a reconnect (", request.archive,
                " -> ", opened->archive,
                "); refusing to read from a different server");
        held->second.confirmedOn = stats_.connects;
    }
    return exchange(request, header);
}

double
Client::backoff(double remaining_seconds)
{
    const uint64_t bits = splitmix64(
        options_.seed ^ (0xd1342543de82ef95ull * ++rngCounter_));
    const double uniform =
        static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
    // Decorrelated jitter: sleep ~ U[base, 3 * previous], capped.
    const double hi = std::max(
        kBaseBackoffSeconds,
        3.0 * (prevSleepSeconds_ > 0.0 ? prevSleepSeconds_
                                       : kBaseBackoffSeconds));
    const double sleep = std::min(
        {kBaseBackoffSeconds + (hi - kBaseBackoffSeconds) * uniform,
         kMaxBackoffSeconds, remaining_seconds});
    prevSleepSeconds_ = sleep;
    stats_.backoffSeconds += sleep;
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep));
    return sleep;
}

StatusOr<Client::Payload>
Client::call(RequestFrame &request, ReplyHeader &header)
{
    // Only a retrying call with a deadline reads the clock.
    const uint32_t deadline_ms = request.deadlineMs;
    const bool timed = options_.maxAttempts > 1 && deadline_ms != 0;
    const Clock::time_point start =
        timed ? Clock::now() : Clock::time_point();
    for (unsigned tries = 1;; tries++) {
        StatusOr<Payload> outcome = attempt(request, header);
        // Every transport failure is an IoError; any other outer
        // failure (a CRC-valid foreign protocol version, a held id
        // that changed) is terminal. The server closes a connection
        // after a ProtocolError reply: our frame was damaged in transit.
        const bool transport =
            outcome.ok() ? header.status == WireStatus::ProtocolError
                         : outcome.status().code() == StatusCode::IoError;
        if (!transport &&
            (!outcome.ok() || !wireStatusRetryable(header.status)))
            return outcome;  // Ok, or terminal.

        double remaining = std::numeric_limits<double>::infinity();
        if (timed)
            remaining = deadline_ms / 1000.0 -
                        std::chrono::duration<double>(Clock::now() -
                                                      start)
                            .count();
        if (tries >= options_.maxAttempts || remaining <= 0.0) {
            if (outcome.ok() || tries == 1)
                return outcome;
            return Status::ioError(
                "retries exhausted; last transport error: ",
                outcome.status().toString());
        }
        stats_.retries++;
        (transport ? stats_.transportRetries
                   : stats_.overloadedRetries)++;
        // After a ProtocolError, and from a draining server that takes
        // no new work, retry on a new connection (in production,
        // perhaps another replica behind the same address).
        if (outcome.ok() && (header.status == WireStatus::ProtocolError ||
                             header.status == WireStatus::ShuttingDown))
            broken_ = true;
        const double slept = backoff(remaining);
        if (timed)
            request.deadlineMs = static_cast<uint32_t>(
                std::max(1.0, (remaining - slept) * 1000.0));
    }
}

StatusOr<ReadReply>
Client::readReply(RequestFrame &request)
{
    ReplyHeader header;
    auto payload = call(request, header);
    if (!payload.ok())
        return payload.status();
    ReadReply reply;
    reply.status = header.status;
    if (header.status != WireStatus::Ok) {
        auto message = parseErrorMessage(payload->data, payload->size);
        if (message.ok())
            reply.message = std::move(message.value());
        return reply;
    }
    auto reads = parseReadReplyPayload(payload->data, payload->size);
    if (!reads.ok())
        return reads.status();
    reply.reads = std::move(reads.value());
    return reply;
}

StatusOr<OpenReply>
Client::open(const std::string &name)
{
    RequestFrame request;
    request.type = MsgType::Open;
    request.name = name;
    ReplyHeader header;
    auto payload = call(request, header);
    if (!payload.ok())
        return payload.status();
    if (header.status != WireStatus::Ok)
        return inBandError(header.status, payload->data, payload->size);
    auto reply = parseOpenReplyPayload(payload->data, payload->size);
    if (!reply.ok())
        return reply.status();
    held_[reply->archive] = Held{name, stats_.connects};
    return reply.value();
}

StatusOr<ReadReply>
Client::readRange(uint32_t archive, uint64_t first, uint64_t count,
                  RequestPriority priority, uint32_t deadline_ms)
{
    RequestFrame request;
    request.type = MsgType::ReadRange;
    request.priority = priority;
    request.deadlineMs = deadline_ms;
    request.archive = archive;
    request.first = first;
    request.count = count;
    return readReply(request);
}

StatusOr<ReadReply>
Client::readChunk(uint32_t archive, uint64_t chunk,
                  RequestPriority priority, uint32_t deadline_ms)
{
    RequestFrame request;
    request.type = MsgType::ReadChunk;
    request.priority = priority;
    request.deadlineMs = deadline_ms;
    request.archive = archive;
    request.chunk = chunk;
    return readReply(request);
}

StatusOr<WireServerStats>
Client::statServer()
{
    RequestFrame request;
    request.type = MsgType::Stat;
    request.archive = kStatServer;
    ReplyHeader header;
    auto payload = call(request, header);
    if (!payload.ok())
        return payload.status();
    if (header.status != WireStatus::Ok)
        return inBandError(header.status, payload->data, payload->size);
    return parseStatReplyPayload(payload->data, payload->size);
}

Status
Client::closeArchive(uint32_t archive)
{
    RequestFrame request;
    request.type = MsgType::Close;
    request.archive = archive;
    ReplyHeader header;
    auto payload = call(request, header);
    held_.erase(archive);
    if (!payload.ok())
        return payload.status();
    if (header.status != WireStatus::Ok)
        return inBandError(header.status, payload->data, payload->size);
    return Status();
}

} // namespace net
} // namespace sage
