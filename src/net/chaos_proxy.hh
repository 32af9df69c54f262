/**
 * @file
 * Deterministic fault-injecting TCP proxy for resilience tests.
 *
 * ChaosProxy sits between a client and a Server, forwarding bytes in
 * both directions while injecting the transport failures the
 * resilience layer must survive: hard connection resets (SO_LINGER-0
 * closes, so peers see ECONNRESET rather than a clean EOF), byte
 * corruption (one flipped bit per afflicted buffer — exactly what the
 * frame CRC exists to catch), stalls (a buffer held for stallMs,
 * exercising client I/O timeouts and the server's header-read
 * timeout), and splits (a buffer forwarded in two separately flushed
 * pieces, forcing partial-frame reads at the peer).
 *
 * Every decision comes from a splitmix64 sequence seeded by
 * ChaosConfig::seed — the FaultInjectionSource convention — so a
 * failing chaos run replays byte-identically. Rates are per forwarded
 * buffer, evaluated in the fixed order reset, corrupt, stall, split
 * (at most one fires per buffer). One event thread owns every socket,
 * behind the listener, epoll instance and wake eventfd that Server
 * uses too (net/listener.hh); stats() is readable from any thread.
 */

#ifndef SAGE_NET_CHAOS_PROXY_HH
#define SAGE_NET_CHAOS_PROXY_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/listener.hh"
#include "util/status.hh"

namespace sage {
namespace net {

struct ChaosConfig
{
    /** Seed of the deterministic decision sequence. */
    uint64_t seed = 1;

    /** Probability per forwarded buffer, evaluated in this order;
     *  the first that fires wins. All default to "no chaos". */
    double resetRate = 0.0;    ///< Force-close both sides (RST).
    double corruptRate = 0.0;  ///< Flip one bit of the buffer.
    double stallRate = 0.0;    ///< Hold the buffer for stallMs.
    double splitRate = 0.0;    ///< Forward in two separate flushes.

    /** How long a stalled buffer is held. */
    uint32_t stallMs = 200;
};

struct ChaosProxyStats
{
    uint64_t connections = 0;  ///< Client connections accepted.
    uint64_t buffers = 0;      ///< Buffers forwarded (both ways).
    uint64_t bytes = 0;        ///< Payload bytes forwarded.
    uint64_t resets = 0;
    uint64_t corrupted = 0;
    uint64_t stalls = 0;
    uint64_t splits = 0;
};

class ChaosProxy
{
  public:
    /** Proxy 127.0.0.1:port() -> @p upstream_host:@p upstream_port. */
    ChaosProxy(std::string upstream_host, uint16_t upstream_port,
               ChaosConfig config = {});

    /** stop()s if still running. */
    ~ChaosProxy();

    ChaosProxy(const ChaosProxy &) = delete;
    ChaosProxy &operator=(const ChaosProxy &) = delete;

    /** Bind an ephemeral listener + spawn the event thread. */
    Status start();

    /** Idempotent; joins the event thread and closes every socket. */
    void stop();

    /** Bound listen port (valid after start()). */
    uint16_t port() const { return listener_.port(); }

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    ChaosProxyStats stats() const;

  private:
    /** A buffer queued toward one side, possibly held until
     *  releaseMs on the proxy's monotonic clock. */
    struct Buffer
    {
        std::vector<uint8_t> bytes;
        size_t off = 0;
        uint64_t releaseMs = 0;  ///< 0 = ready immediately.
    };

    /** One direction of a proxied connection. */
    struct Pipe
    {
        int srcFd = -1;
        int dstFd = -1;
        std::deque<Buffer> queue;
        bool srcClosed = false;  ///< EOF seen; propagate when empty.
        bool shutdownSent = false;
    };

    struct Conn
    {
        uint64_t id = 0;
        int clientFd = -1;
        int upstreamFd = -1;
        Pipe clientToUpstream;
        Pipe upstreamToClient;
        bool dead = false;
    };

    void eventLoop();
    void acceptAll();
    /** Read from pipe.src, run the chaos decision, queue toward
     *  pipe.dst. Returns false when the connection must die. */
    bool pump(Conn &conn, Pipe &pipe);
    /** Flush ready buffers of @p pipe; propagate EOF when drained. */
    bool flush(Conn &conn, Pipe &pipe);
    void destroyConn(Conn &conn, bool hard_reset);
    double nextUniform();

    std::string upstreamHost_;
    uint16_t upstreamPort_;
    ChaosConfig config_;

    Listener listener_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    uint64_t nextConnId_ = kFirstConnTag;
    uint64_t rngCounter_ = 0;

    std::atomic<uint64_t> connections_{0};
    std::atomic<uint64_t> buffers_{0};
    std::atomic<uint64_t> bytes_{0};
    std::atomic<uint64_t> resets_{0};
    std::atomic<uint64_t> corrupted_{0};
    std::atomic<uint64_t> stalls_{0};
    std::atomic<uint64_t> splits_{0};
};

} // namespace net
} // namespace sage

#endif // SAGE_NET_CHAOS_PROXY_HH
