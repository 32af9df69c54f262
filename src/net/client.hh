/**
 * @file
 * Blocking client for the SAGe network protocol.
 *
 * One TCP connection, one outstanding request at a time: every call
 * writes a frame, blocks for the reply, and returns it decoded.
 * Transport failures (connect/send/recv/timeout, malformed reply
 * bytes, a frame-CRC mismatch) surface as the outer Status of a
 * StatusOr; application failures the server reported (Overloaded,
 * UnknownArchive, an expired deadline, a corrupt chunk) arrive
 * in-band as ReadReply::status so callers can distinguish "retry
 * later" from "this connection is broken".
 *
 * ClientOptions::maxAttempts is the retry budget of every call. At 1
 * (the default) a call is one attempt: a transport failure marks the
 * connection broken(), and every later call fails fast. Above 1, each
 * call runs one retry loop over the verified reply header: transport
 * damage (reset, timeout, a frame failing its CRC, an in-band
 * ProtocolError) and a ShuttingDown reply move to a new connection,
 * Overloaded backs off on the same one (wireStatusRetryable), and
 * anything else is the call's outcome. On each new connection, every
 * held archive id is re-OPENed by name on its first use; a name that
 * resolves to another id fails the call as Corrupt (that is another
 * server). Attempts are spaced by decorrelated jitter seeded per
 * client, so a chaos run replays identically. A call's deadline_ms
 * bounds the whole loop, sleeps included, and each attempt carries
 * the budget still remaining as its wire deadline; one attempt can
 * still wait ioTimeoutSeconds on a stalled peer.
 *
 * Not thread-safe — one Client per thread, any number of Clients per
 * server.
 */

#ifndef SAGE_NET_CLIENT_HH
#define SAGE_NET_CLIENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hh"

namespace sage {
namespace net {

struct ClientOptions
{
    /** Blocking send/recv timeout; 0 disables (wait forever). */
    double ioTimeoutSeconds = 30.0;

    /** Attempts per call, the first included; 1 never retries. */
    unsigned maxAttempts = 1;

    /** Seed of the deterministic backoff jitter sequence. */
    uint64_t seed = 1;
};

/** What retrying cost: exposed so harnesses (serve-stress) can report
 *  reconnects/retries/backoff per client. */
struct ClientStats
{
    uint64_t connects = 0;    ///< Successful connects, first included.
    uint64_t reconnects = 0;  ///< Connects after the first.
    uint64_t retries = 0;          ///< Re-issued calls, any cause.
    uint64_t transportRetries = 0; ///< ... after reset/timeout/CRC.
    uint64_t overloadedRetries = 0;  ///< ... after in-band sheds.
    double backoffSeconds = 0.0;   ///< Total time slept.
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
    /** Resolve + connect, once (IoError with detail on failure). */
    static StatusOr<std::unique_ptr<Client>>
    connect(const std::string &host, uint16_t port,
            ClientOptions options = {});

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** OPEN @p name; the returned id addresses later reads and is
     *  held (re-validated after reconnects) until closeArchive. */
    StatusOr<OpenReply> open(const std::string &name);

    /** READ_RANGE [first, first+count). Outer Status = transport
     *  failure only; server-side outcomes land in ReadReply::status
     *  (with retries, the last one once the budget is spent). */
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

    /** CLOSE an archive id (drops the server's cached open) and stop
     *  holding it. */
    Status closeArchive(uint32_t archive);

    /** True once a transport failure desynced the byte stream. With
     *  maxAttempts 1 the connection stays useless; otherwise the next
     *  call reconnects. */
    bool broken() const { return broken_; }

    const ClientStats &stats() const { return stats_; }

  private:
    Client(int fd, std::string host, uint16_t port,
           ClientOptions options);

    /** A verified reply's payload (the bytes after the reply header):
     *  a view into rx_, valid until the next request. */
    struct Payload
    {
        const uint8_t *data = nullptr;
        size_t size = 0;
    };

    /** An archive id the caller holds: its name, and the connect
     *  (stats_.connects) on which the id was last confirmed. */
    struct Held
    {
        std::string name;
        uint64_t confirmedOn = 0;
    };

    /** @p request under the retry budget: the one retry loop. Returns
     *  the last verified reply (header in @p header) or the failure
     *  that ended the call. */
    StatusOr<Payload> call(RequestFrame &request, ReplyHeader &header);
    /** One attempt: reconnect if broken, re-validate the addressed
     *  archive on a new connection, then exchange @p request. */
    StatusOr<Payload> attempt(RequestFrame &request,
                              ReplyHeader &header);
    /** Encode with a fresh request id, send, receive one frame, check
     *  its integrity, decode its header and the id echo. */
    StatusOr<Payload> exchange(RequestFrame &request,
                               ReplyHeader &header);
    StatusOr<ReadReply> readReply(RequestFrame &request);

    /** Record + return a transport failure (marks broken()). */
    Status transportError(Status status);
    Status sendAll();
    /** One whole reply frame, length prefix stripped, into the front
     *  of rx_; returns its size. */
    StatusOr<size_t> recvFrame();
    /** Decorrelated-jitter sleep of at most @p remaining_seconds;
     *  returns the time slept. */
    double backoff(double remaining_seconds);

    int fd_ = -1;
    std::string host_;
    uint16_t port_ = 0;
    ClientOptions options_;
    uint64_t nextRequestId_ = 1;
    bool broken_ = false;
    /** Request and receive buffers reused across calls: each grows to
     *  the largest frame seen and is never zero-filled again. */
    std::vector<uint8_t> tx_;
    std::vector<uint8_t> rx_;
    std::unordered_map<uint32_t, Held> held_;
    ClientStats stats_;
    double prevSleepSeconds_ = 0.0;
    uint64_t rngCounter_ = 0;
};

} // namespace net
} // namespace sage

#endif // SAGE_NET_CLIENT_HH
