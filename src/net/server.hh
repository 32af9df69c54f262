/**
 * @file
 * Non-blocking epoll front end over a MultiArchiveService.
 *
 * The protocol is net/connection.hh: per socket, a Connection that
 * parses and answers frames, submits reads to the service and applies
 * byte-counted backpressure without a system call. The Server is the
 * loop around it. One event thread owns the listener
 * (net/listener.hh) and every socket, registered edge-triggered: it
 * drains readable sockets into their connections, writes replies after
 * every call into a connection (the rest on EPOLLOUT), stops recv()ing
 * a paused connection holding a full frame, and hands worker-encoded
 * read replies from the completion queue (woken by an eventfd) to
 * their connections. Admission sheds arrive as Overloaded replies, and
 * accepts past maxConnections get an Overloaded reply and a close,
 * never an accept-stall.
 *
 * Hygiene is a sweep over the connections at most once per 100 ms
 * tick: it closes connections idle past idleTimeoutSeconds and those
 * dripping a frame for longer than headerReadTimeoutSeconds (slow
 * loris), and enforces the drain deadline.
 *
 * Graceful drain: beginDrain() (any thread; SIGTERM-safe via an
 * atomic flag) stops accepting, answers new requests with
 * WireStatus::ShuttingDown, and flushes every in-flight reply; the
 * loop exits when the last connection retires or when
 * drainDeadlineSeconds passes, whichever is first. At the deadline
 * the server cancels still-queued service work through a CancelToken
 * attached to every admitted request, so a deep backlog cannot hold
 * shutdown hostage. drainWait() blocks for that outcome and then
 * stop()s.
 *
 * Lifetime: stop() (or the destructor) wakes and joins the event
 * thread, then waits for in-flight worker completions before closing
 * descriptors. The Server must be destroyed before its
 * MultiArchiveService.
 */

#ifndef SAGE_NET_SERVER_HH
#define SAGE_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/listener.hh"
#include "net/multi_archive.hh"
#include "net/protocol.hh"
#include "service/qos.hh"

namespace sage {
namespace net {

struct ConnectionContext;

struct ServerOptions
{
    std::string bindAddress = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; see Server::port().
    int backlog = 128;
    unsigned maxConnections = 1024;

    /** Frames larger than this are a protocol error (requests are
     *  tiny; this bounds a hostile length prefix). */
    uint32_t maxRequestFrameBytes = 64 * 1024;

    /** READ_RANGE count ceiling (one reply frame must hold it). */
    uint64_t maxReadsPerRequest = 1u << 20;

    /** Per-connection queued-transmit cap before request parsing
     *  pauses; resumes below half of it. */
    uint64_t txHighWaterBytes = 8ull << 20;

    /** Close a connection that has received nothing and is owed
     *  nothing (no queued reply, no in-flight request, no partial
     *  frame) for this long. 0 disables. */
    double idleTimeoutSeconds = 300.0;

    /** Close a connection whose current frame has been arriving for
     *  this long without completing (slow-loris drip). 0 disables. */
    double headerReadTimeoutSeconds = 10.0;

    /** beginDrain(): how long in-flight work may take to flush before
     *  the server cancels the remainder and exits anyway. */
    double drainDeadlineSeconds = 5.0;
};

/** Socket-level counters (service-level ones live in
 *  MultiArchiveStats). */
struct ServerNetStats
{
    uint64_t accepted = 0;
    uint64_t closed = 0;
    uint64_t activeConnections = 0;
    uint64_t framesIn = 0;
    uint64_t repliesOut = 0;
    uint64_t protocolErrors = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    uint64_t txPauses = 0;  ///< Backpressure engagements.
    uint64_t timedOutConnections = 0;  ///< Idle/header-timeout closes.
    uint64_t shedConnections = 0;  ///< Closed at the connection cap.
    uint64_t crcMismatches = 0;    ///< Frames failing the CRC check.
    uint64_t versionMismatches = 0;  ///< Frames from non-v2 peers.
    uint64_t drainRejects = 0;     ///< ShuttingDown replies sent.
};

class Server
{
  public:
    /** @p service must outlive the server. */
    explicit Server(MultiArchiveService &service,
                    ServerOptions options = {});

    /** stop()s if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + spawn the event thread. IoError (with errno
     *  text) on failure; safe to destroy afterwards either way. */
    Status start();

    /** Idempotent; joins the event thread and drains completions. */
    void stop();

    /** Start a graceful drain: stop accepting, answer new requests
     *  with ShuttingDown, flush in-flight replies, exit the loop
     *  within options.drainDeadlineSeconds. Callable from any thread
     *  and from a signal-handler-adjacent context (it only touches
     *  atomics and the wake eventfd). Idempotent. */
    void beginDrain();

    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** Block until the drain finishes (or the deadline forces it),
     *  then stop(). Returns true when every connection retired with
     *  all replies flushed before the deadline. */
    bool drainWait();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /** Bound port (the ephemeral one when options.port was 0). */
    uint16_t port() const { return listener_.port(); }

    ServerNetStats netStats() const;

  private:
    /** One accepted socket and the connection behind it. */
    struct Socket;
    using SocketMap =
        std::unordered_map<uint64_t, std::unique_ptr<Socket>>;

    void eventLoop();
    void acceptAll();
    void onReadable(Socket &socket);
    /** Write queued replies as far as the socket takes them, then act
     *  on what the connection wants next. */
    void flush(Socket &socket);
    /** Hand posted read replies to their connections. */
    void deliverCompletions();
    /** Idle and slow-loris closes, and the drain deadline. */
    void sweep(uint64_t now_ms);
    /** Deregister, close and erase; returns the next entry. */
    SocketMap::iterator destroyConn(SocketMap::iterator it);
    /** First drain pass: close the listener, retire idle conns. */
    void drainStart();

    Listener listener_;
    /** Options, counters, completion queue and drain state shared
     *  with the connections. */
    std::unique_ptr<ConnectionContext> context_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    // Drain machinery. draining_ is the cross-thread request flag;
    // context_->draining is the loop thread's acknowledgement.
    std::atomic<bool> draining_{false};
    uint64_t drainDeadlineMs_ = 0;
    std::atomic<bool> drainedCleanly_{false};
    std::mutex loopExitMutex_;
    std::condition_variable loopExitCv_;
    bool loopExited_ = false;

    // Loop-thread-only state.
    uint64_t lastSweepMs_ = 0;
    /** recv() target; onReadable hands what arrived to the conn. */
    std::vector<uint8_t> rxScratch_;
    SocketMap conns_;
    uint64_t nextConnId_ = kFirstConnTag;
};

} // namespace net
} // namespace sage

#endif // SAGE_NET_SERVER_HH
