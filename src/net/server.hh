/**
 * @file
 * Non-blocking epoll front end over a MultiArchiveService.
 *
 * One event thread owns a listener plus per-connection state
 * machines, all registered edge-triggered: readable connections are
 * drained to EAGAIN into a per-connection receive buffer, complete
 * frames are parsed (net/protocol.hh) and dispatched, and replies are
 * written straight away with the remainder queued and flushed on
 * EPOLLOUT. Cheap requests (OPEN/STAT/CLOSE) are answered inline on
 * the event thread; READ_RANGE/READ_CHUNK go through the service's
 * admission control and complete on worker threads, which encode the
 * reply straight from the runs of cached decoded chunks the service
 * hands them (no read is copied out first) and pass the frame back to
 * the loop through a completion queue plus eventfd wake — the event
 * thread alone touches sockets.
 *
 * Backpressure is byte-counted per connection: once the queued
 * transmit backlog crosses txHighWaterBytes the connection's request
 * parsing pauses (a slow reader cannot balloon the process) and its
 * receive buffer is capped; both resume when the backlog drains below
 * half the mark. Admission-control sheds arrive as Overloaded error
 * replies, not dropped connections, so a flooding client sees every
 * outcome explicitly.
 *
 * Connection hygiene runs off a timer wheel (timer_wheel.hh) ticked
 * by a bounded epoll_wait: a connection idle past idleTimeoutSeconds
 * (nothing received, nothing owed to it) is closed, and a partial
 * frame older than headerReadTimeoutSeconds — the slow-loris drip —
 * closes the connection too. Accepts past maxConnections are shed
 * with a best-effort Overloaded reply and an immediate close, never a
 * silent accept-stall. Every received frame is integrity-checked
 * (version byte + CRC-32, net/protocol.hh) before parsing: wire
 * damage is a ProtocolError + close, and a frame of another protocol
 * version is a VersionMismatch error + close.
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
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/multi_archive.hh"
#include "net/protocol.hh"
#include "net/timer_wheel.hh"
#include "service/qos.hh"

namespace sage {
namespace net {

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
    uint16_t port() const { return port_; }

    ServerNetStats netStats() const;

  private:
    struct Conn
    {
        uint64_t id = 0;
        int fd = -1;
        std::vector<uint8_t> rx;  ///< Raw inbound bytes.
        size_t rxOff = 0;         ///< Parse cursor into rx.
        std::deque<std::vector<uint8_t>> tx;
        size_t txOff = 0;         ///< Sent bytes of tx.front().
        uint64_t txBytes = 0;     ///< Queued, unsent reply bytes.
        uint32_t inFlight = 0;    ///< Admitted reads awaiting replies.
        bool paused = false;      ///< Backpressure: stop parsing.
        bool rxStalled = false;   ///< Stopped recv()ing while paused.
        bool closeAfterFlush = false;
        bool dead = false;
        uint64_t lastRxMs = 0;    ///< Loop clock of last inbound byte.
        bool partialFrame = false;  ///< An incomplete frame pends.
        uint64_t frameStartMs = 0;  ///< When that frame began.
    };

    /** A worker-serialized reply bound for a connection. */
    struct Completion
    {
        uint64_t connId = 0;
        std::vector<uint8_t> frame;
    };

    void eventLoop();
    void acceptAll();
    void wakeLoop();
    void drainWakeFd();
    void flushCompletions();
    void onReadable(Conn &conn);
    void processRx(Conn &conn);
    /** One parsed frame (bytes exclude the length prefix). */
    void handleFrame(Conn &conn, const uint8_t *frame, size_t size);
    void handleRead(Conn &conn, const RequestFrame &request);
    /** Queue @p frame and flush as far as the socket allows. */
    void queueReply(Conn &conn, std::vector<uint8_t> &&frame);
    void flushTx(Conn &conn);
    void closeConn(Conn &conn);
    /** Post a worker-built reply to the loop (any thread). */
    void pushCompletion(uint64_t conn_id,
                        std::vector<uint8_t> &&frame);

    /** Milliseconds on the loop's monotonic clock. */
    uint64_t loopNowMs() const;
    /** When the next hygiene check for @p conn is due; schedules it. */
    void scheduleConnCheck(Conn &conn);
    /** Run due timer-wheel entries: connection hygiene + the drain
     *  deadline. */
    void runTimers();
    /** Epoll-deregister, close and erase a dead connection. */
    void destroyConn(uint64_t conn_id);
    /** First drain pass: close the listener, retire idle conns. */
    void drainStart();
    /** During drain: retire @p conn once nothing is owed to it. */
    void maybeRetireDraining(Conn &conn);
    /** True when every connection retired and no work is pending. */
    bool drainComplete();

    MultiArchiveService &service_;
    ServerOptions options_;
    uint16_t port_ = 0;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    // Drain machinery. draining_ is the cross-thread request flag;
    // everything else is loop-thread state except the exit latch.
    std::atomic<bool> draining_{false};
    bool drainStarted_ = false;    ///< Loop thread acknowledged it.
    uint64_t drainDeadlineMs_ = 0;
    CancelSource drainCancel_;     ///< Fired at the drain deadline.
    std::atomic<bool> drainedCleanly_{false};
    std::mutex loopExitMutex_;
    std::condition_variable loopExitCv_;
    bool loopExited_ = false;

    // Loop-thread-only hygiene clock + timer wheel.
    std::chrono::steady_clock::time_point loopEpoch_;
    TimerWheel wheel_;
    std::vector<uint64_t> dueTimers_;  ///< Scratch for runTimers().

    /** Loop-thread recv() target; onReadable appends what arrived. */
    std::vector<uint8_t> rxScratch_;

    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    uint64_t nextConnId_ = 2;  ///< 0/1 tag the listener/wake fds.

    std::mutex completionMutex_;
    std::vector<Completion> completions_;

    /** Worker callbacks still running (dtor barrier). */
    std::atomic<uint64_t> pendingCallbacks_{0};
    std::mutex callbackMutex_;
    std::condition_variable callbackCv_;

    // Counters are atomics: the loop thread writes, netStats() reads
    // from anywhere.
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> closed_{0};
    std::atomic<uint64_t> framesIn_{0};
    std::atomic<uint64_t> repliesOut_{0};
    std::atomic<uint64_t> protocolErrors_{0};
    std::atomic<uint64_t> bytesIn_{0};
    std::atomic<uint64_t> bytesOut_{0};
    std::atomic<uint64_t> txPauses_{0};
    std::atomic<uint64_t> timedOutConnections_{0};
    std::atomic<uint64_t> shedConnections_{0};
    std::atomic<uint64_t> crcMismatches_{0};
    std::atomic<uint64_t> versionMismatches_{0};
    std::atomic<uint64_t> drainRejects_{0};
};

} // namespace net
} // namespace sage

#endif // SAGE_NET_SERVER_HH
