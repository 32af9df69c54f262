/**
 * @file
 * The protocol half of net::Server: one connection's state machine,
 * bytes in and reply frames out, with no system call and no clock, so
 * the epoll loop (net/server.cc), the tests and the fuzz driver
 * (fuzz/fuzz_server.cc) drive it alike.
 *
 * receive() cuts frames, integrity-checks and parses them
 * (net/protocol.hh) and answers OPEN/STAT/CLOSE at once. Reads go
 * through the service's admission control; a worker encodes the reply
 * from the cached chunks and posts it to the CompletionQueue, and the
 * driver hands it back through complete(). Replies wait, in order,
 * until the driver writes them (txData()/consume()). Past
 * txHighWaterBytes of unwritten replies parsing pauses, and consume()
 * resumes it at half the mark. A frame with a bad length, version,
 * CRC or request gets one error reply, then the connection parses
 * nothing more and is finished() once the reply is written.
 */

#ifndef SAGE_NET_CONNECTION_HH
#define SAGE_NET_CONNECTION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/server.hh"

namespace sage {
namespace net {

/** ServerNetStats as atomics: the event thread writes them and
 *  snapshot() reads them from any thread. */
struct NetCounters
{
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> closed{0};
    std::atomic<uint64_t> framesIn{0};
    std::atomic<uint64_t> repliesOut{0};
    std::atomic<uint64_t> protocolErrors{0};
    std::atomic<uint64_t> bytesIn{0};
    std::atomic<uint64_t> bytesOut{0};
    std::atomic<uint64_t> txPauses{0};
    std::atomic<uint64_t> timedOutConnections{0};
    std::atomic<uint64_t> shedConnections{0};
    std::atomic<uint64_t> crcMismatches{0};
    std::atomic<uint64_t> versionMismatches{0};
    std::atomic<uint64_t> drainRejects{0};

    ServerNetStats snapshot() const;
};

/** A worker-built reply bound for connection connId. */
struct Completion
{
    uint64_t connId = 0;
    std::vector<uint8_t> frame;
};

/**
 * Worker-built replies on their way to the thread that drives the
 * connections. A read is expect()ed before it is submitted; its worker
 * post()s exactly one frame, or the connection settle()s at once when
 * the service refuses it. After wait() no worker touches the queue.
 */
class CompletionQueue
{
  public:
    /** @p wake runs on the posting thread after each post(). */
    explicit CompletionQueue(std::function<void()> wake)
        : wake_(std::move(wake))
    {}

    void expect()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        expected_++;
    }

    /** One expected post() came, or never will. */
    void settle()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--expected_ == 0)
            settled_.notify_all();
    }

    void post(uint64_t conn_id, std::vector<uint8_t> &&frame);

    /** Everything posted so far, oldest first. */
    std::vector<Completion> take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::exchange(ready_, {});
    }

    /** Block until every expected post() has happened. */
    void wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        settled_.wait(lock, [&] { return expected_ == 0; });
    }

    /** Nothing expected and nothing left to take(). */
    bool idle()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return expected_ == 0 && ready_.empty();
    }

  private:
    std::function<void()> wake_;
    std::mutex mutex_;
    std::condition_variable settled_;
    uint64_t expected_ = 0;
    std::vector<Completion> ready_;
};

/** What the connections of one server share; only the counters and
 *  the completion queue are touched off the driving thread. */
struct ConnectionContext
{
    /** @p service must outlive the context; @p wake as in
     *  CompletionQueue. */
    ConnectionContext(MultiArchiveService &service, ServerOptions options,
                      std::function<void()> wake)
        : service(service), options(std::move(options)),
          completions(std::move(wake))
    {}

    MultiArchiveService &service;
    const ServerOptions options;
    NetCounters counters;
    CompletionQueue completions;
    CancelSource drainCancel;  ///< Fired at the drain deadline.
    bool draining = false;     ///< Answer requests with ShuttingDown.
};

class Connection
{
  public:
    /** @p id tags its completions; @p now_ms is on the driver's
     *  clock, as in every call below. */
    Connection(ConnectionContext &context, uint64_t id, uint64_t now_ms);

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void receive(const uint8_t *data, size_t size, uint64_t now_ms);

    /** Queue a posted reply to one of this connection's reads. */
    void complete(std::vector<uint8_t> &&frame);

    /** The unwritten rest of the oldest reply (txSize() 0: none). */
    const uint8_t *txData() const { return tx_.front().data() + txOff_; }
    size_t txSize() const
    {
        return tx_.empty() ? 0 : tx_.front().size() - txOff_;
    }

    /** @p n bytes of txData() were written. */
    void consume(size_t n, uint64_t now_ms);

    /** Received bytes not yet parsed. */
    size_t buffered() const { return rx_.size() - rxOff_; }
    bool paused() const { return paused_; }
    /** False while paused with a max-size frame buffered. */
    bool wantsInput() const;
    /** The reply to a bad frame is written: close. */
    bool finished() const { return closing_ && tx_.empty(); }
    /** No reply queued and no read in flight. */
    bool owesNothing() const { return tx_.empty() && inFlight_ == 0; }
    /** Idle past idleTimeoutSeconds, or a frame arriving for longer
     *  than headerReadTimeoutSeconds while not paused (slow loris). */
    bool expired(uint64_t now_ms) const;

  private:
    void parse(uint64_t now_ms);
    /** One frame, length prefix excluded. */
    void handleFrame(const uint8_t *frame, size_t size);
    void startRead(const RequestFrame &request);
    /** Reply to a bad frame, then parse nothing more. */
    void refuse(WireStatus status, const std::string &message);
    void queue(std::vector<uint8_t> &&frame);

    ConnectionContext &context_;
    const uint64_t id_;
    std::vector<uint8_t> rx_;  ///< Raw inbound bytes.
    size_t rxOff_ = 0;         ///< Parse cursor into rx_.
    std::deque<std::vector<uint8_t>> tx_;
    size_t txOff_ = 0;         ///< Written bytes of tx_.front().
    uint64_t txBytes_ = 0;     ///< Queued, unwritten reply bytes.
    uint32_t inFlight_ = 0;    ///< Admitted reads awaiting replies.
    bool paused_ = false;
    bool closing_ = false;
    uint64_t lastRxMs_ = 0;      ///< Last inbound byte.
    bool partialFrame_ = false;  ///< An incomplete frame pends...
    uint64_t frameStartMs_ = 0;  ///< ...since then.
};

} // namespace net
} // namespace sage

#endif // SAGE_NET_CONNECTION_HH
