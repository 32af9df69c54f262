/**
 * @file
 * Thin blocking client for the SAGe network protocol.
 *
 * One TCP connection, one outstanding request at a time: every call
 * writes a frame, blocks for the reply, and returns it decoded.
 * Transport failures (connect/send/recv/timeout, malformed reply
 * bytes, a frame-CRC mismatch) surface as the outer Status of a
 * StatusOr; application failures the server reported (Overloaded,
 * UnknownArchive, an expired deadline, a corrupt chunk) arrive
 * in-band as ReadReply::status so callers can distinguish "retry
 * later" from "this connection is broken". Any transport failure
 * marks the connection broken() — the byte stream may be desynced,
 * so every later call fails fast and the caller should reconnect
 * (ResilientClient in resilient_client.hh does exactly that).
 * Not thread-safe — one Client per thread, any number of Clients
 * per server.
 */

#ifndef SAGE_NET_CLIENT_HH
#define SAGE_NET_CLIENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hh"

namespace sage {
namespace net {

struct ClientOptions
{
    /** Blocking send/recv timeout; 0 disables (wait forever). */
    double ioTimeoutSeconds = 30.0;

    /** Reply frames larger than this are a protocol error. Sized for
     *  maxReadsPerRequest worth of payload. */
    uint32_t maxReplyFrameBytes = 256u << 20;
};

/** A decoded READ_RANGE/READ_CHUNK reply. */
struct ReadReply
{
    WireStatus status = WireStatus::Ok;
    std::string message;      ///< Error detail when status != Ok.
    std::vector<Read> reads;  ///< Filled when status == Ok.

    bool ok() const { return status == WireStatus::Ok; }
};

class Client
{
  public:
    /** Resolve + connect (IoError with detail on failure). */
    static StatusOr<std::unique_ptr<Client>>
    connect(const std::string &host, uint16_t port,
            ClientOptions options = {});

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** OPEN @p name; the returned id addresses later reads. */
    StatusOr<OpenReply> open(const std::string &name);

    /** READ_RANGE [first, first+count). Outer Status = transport
     *  failure only; server-side outcomes land in ReadReply::status. */
    StatusOr<ReadReply>
    readRange(uint32_t archive, uint64_t first, uint64_t count,
              RequestPriority priority = RequestPriority::Normal,
              uint32_t deadline_ms = 0);

    /** READ_CHUNK (whole chunk in stored order). */
    StatusOr<ReadReply>
    readChunk(uint32_t archive, uint64_t chunk,
              RequestPriority priority = RequestPriority::Normal,
              uint32_t deadline_ms = 0);

    /** Server-wide STAT. */
    StatusOr<WireServerStats> statServer();

    /** CLOSE an archive id (drops the server's cached open). */
    Status closeArchive(uint32_t archive);

    /** True once any transport failure desynced the byte stream; the
     *  connection is useless and the caller should reconnect. */
    bool broken() const { return broken_; }

  private:
    Client(int fd, ClientOptions options)
        : fd_(fd), options_(options)
    {}

    /** Record + return a transport failure (marks broken()). */
    Status transportError(Status status);

    /** A verified reply's payload (the bytes after the reply header):
     *  a view into rx_, valid until the next request. */
    struct Payload
    {
        const uint8_t *data = nullptr;
        size_t size = 0;
    };

    Status sendAll(const std::vector<uint8_t> &bytes);
    /** One whole reply frame, length prefix stripped, into the front
     *  of rx_; returns its size. */
    StatusOr<size_t> recvFrame();
    /** send + recv + integrity check + header decode, with the
     *  request-id echo check. */
    StatusOr<Payload> transact(const std::vector<uint8_t> &request,
                               uint64_t request_id,
                               ReplyHeader &header);

    int fd_ = -1;
    ClientOptions options_;
    uint64_t nextRequestId_ = 1;
    bool broken_ = false;
    /** Receive buffer reused across replies: it grows to the largest
     *  frame seen and is never zero-filled again. */
    std::vector<uint8_t> rx_;
};

} // namespace net
} // namespace sage

#endif // SAGE_NET_CLIENT_HH
