#include "net/client.hh"

#include <cerrno>
#include <cmath>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace sage {
namespace net {

namespace {

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

} // namespace

StatusOr<std::unique_ptr<Client>>
Client::connect(const std::string &host, uint16_t port,
                ClientOptions options)
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
    setIoTimeout(fd, options.ioTimeoutSeconds);
    return std::unique_ptr<Client>(new Client(fd, options));
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
Client::sendAll(const std::vector<uint8_t> &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
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
    if (len < kReplyHeaderBytes || len > options_.maxReplyFrameBytes)
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
Client::transact(const std::vector<uint8_t> &request,
                 uint64_t request_id, ReplyHeader &header)
{
    if (broken_)
        return Status::ioError(
            "connection broken by an earlier transport failure");
    Status sent = sendAll(request);
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
        // The server speaks another protocol revision — terminal, a
        // reconnect cannot help.
        broken_ = true;
        return Status::corrupt(
            "server speaks protocol version ", unsigned(rx_[2]),
            ", this client speaks ", unsigned(kProtocolVersion));
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
    if (header.requestId != request_id)
        return transportError(Status::ioError(
            "reply id ", header.requestId,
            " does not match request ", request_id,
            " (stream desynced)"));
    return Payload{rx_.data() + kReplyHeaderBytes,
                   body_size - kReplyHeaderBytes};
}

StatusOr<OpenReply>
Client::open(const std::string &name)
{
    const uint64_t id = nextRequestId_++;
    std::vector<uint8_t> request;
    appendOpenRequest(request, id, name, RequestPriority::Normal, 0);
    ReplyHeader header;
    auto payload = transact(request, id, header);
    if (!payload.ok())
        return payload.status();
    if (header.status != WireStatus::Ok) {
        auto message = parseErrorMessage(payload->data, payload->size);
        return statusFromWire(header.status,
                              message.ok() ? message.value()
                                           : "unparseable error");
    }
    auto reply = parseOpenReplyPayload(payload->data, payload->size);
    if (!reply.ok())
        return reply.status();
    return reply.value();
}

StatusOr<ReadReply>
Client::readRange(uint32_t archive, uint64_t first, uint64_t count,
                  RequestPriority priority, uint32_t deadline_ms)
{
    const uint64_t id = nextRequestId_++;
    std::vector<uint8_t> request;
    appendReadRangeRequest(request, id, archive, first, count,
                           priority, deadline_ms);
    ReplyHeader header;
    auto payload = transact(request, id, header);
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

StatusOr<ReadReply>
Client::readChunk(uint32_t archive, uint64_t chunk,
                  RequestPriority priority, uint32_t deadline_ms)
{
    const uint64_t id = nextRequestId_++;
    std::vector<uint8_t> request;
    appendReadChunkRequest(request, id, archive, chunk, priority,
                           deadline_ms);
    ReplyHeader header;
    auto payload = transact(request, id, header);
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

StatusOr<WireServerStats>
Client::statServer()
{
    const uint64_t id = nextRequestId_++;
    std::vector<uint8_t> request;
    appendStatRequest(request, id, kStatServer);
    ReplyHeader header;
    auto payload = transact(request, id, header);
    if (!payload.ok())
        return payload.status();
    if (header.status != WireStatus::Ok) {
        auto message = parseErrorMessage(payload->data, payload->size);
        return statusFromWire(header.status,
                              message.ok() ? message.value()
                                           : "unparseable error");
    }
    return parseStatReplyPayload(payload->data, payload->size);
}

Status
Client::closeArchive(uint32_t archive)
{
    const uint64_t id = nextRequestId_++;
    std::vector<uint8_t> request;
    appendCloseRequest(request, id, archive);
    ReplyHeader header;
    auto payload = transact(request, id, header);
    if (!payload.ok())
        return payload.status();
    if (header.status != WireStatus::Ok) {
        auto message = parseErrorMessage(payload->data, payload->size);
        return statusFromWire(header.status,
                              message.ok() ? message.value()
                                           : "unparseable error");
    }
    return Status();
}

} // namespace net
} // namespace sage
