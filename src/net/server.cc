#include "net/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <iterator>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "net/connection.hh"
#include "util/logging.hh"

namespace sage {
namespace net {

namespace {

/** recv() granularity. */
constexpr size_t kRecvChunkBytes = 64 * 1024;

/** Sweep period, and the epoll_wait timeout while anything could
 *  time out. */
constexpr uint64_t kTickMs = 100;

} // namespace

struct Server::Socket
{
    Socket(int fd, ConnectionContext &context, uint64_t id,
           uint64_t now_ms)
        : fd(fd), conn(context, id, now_ms)
    {}

    int fd;
    bool rxStalled = false;  ///< Stopped recv()ing while paused.
    /** The peer shut its sending side: its requests are all read, and
     *  the socket closes once they are answered. */
    bool peerClosed = false;
    bool dead = false;
    Connection conn;
};

Server::Server(MultiArchiveService &service, ServerOptions options)
    : context_(std::make_unique<ConnectionContext>(
          service, std::move(options), [this] { listener_.wake(); })),
      rxScratch_(kRecvChunkBytes)
{}

Server::~Server()
{
    stop();
}

Status
Server::start()
{
    sage_assert(!running_.load(), "start() on a running server");
    const ServerOptions &options = context_->options;
    Status status = listener_.open(options.bindAddress, options.port,
                                   options.backlog);
    if (!status.ok())
        return status;

    lastSweepMs_ = 0;
    draining_.store(false, std::memory_order_release);
    context_->draining = false;
    drainDeadlineMs_ = 0;
    context_->drainCancel = CancelSource();
    drainedCleanly_.store(false, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(loopExitMutex_);
        loopExited_ = false;
    }

    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { eventLoop(); });
    return Status();
}

void
Server::beginDrain()
{
    if (!running_.load(std::memory_order_acquire))
        return;
    draining_.store(true, std::memory_order_release);
    listener_.wake();
}

bool
Server::drainWait()
{
    if (!running_.load(std::memory_order_acquire))
        return true;
    // The loop enforces drainDeadlineSeconds itself; the grace here
    // only covers scheduling hiccups around the forced exit.
    const auto give_up =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                context_->options.drainDeadlineSeconds + 2.0));
    {
        std::unique_lock<std::mutex> lock(loopExitMutex_);
        loopExitCv_.wait_until(lock, give_up,
                               [&] { return loopExited_; });
    }
    const bool clean = drainedCleanly_.load(std::memory_order_acquire);
    stop();
    return clean;
}

void
Server::stop()
{
    if (running_.load(std::memory_order_acquire)) {
        stopping_.store(true, std::memory_order_release);
        listener_.wake();
        if (thread_.joinable())
            thread_.join();
        // Admitted requests may still be serializing replies on
        // worker threads; their post() touches the completion queue
        // and the wake eventfd, so both must survive until it settles.
        context_->completions.wait();
        running_.store(false, std::memory_order_release);
    }
    for (auto &entry : conns_)
        ::close(entry.second->fd);
    conns_.clear();
    listener_.close();
}

ServerNetStats
Server::netStats() const
{
    return context_->counters.snapshot();
}

void
Server::eventLoop()
{
    std::vector<epoll_event> events(64);
    while (!stopping_.load(std::memory_order_acquire)) {
        if (draining_.load(std::memory_order_acquire) &&
            !context_->draining)
            drainStart();
        // Drained: every connection retired and no reply is pending.
        if (context_->draining && conns_.empty() &&
            context_->completions.idle()) {
            drainedCleanly_.store(true, std::memory_order_release);
            break;
        }
        // Sleep forever only while nothing can time out.
        const int timeout = (conns_.empty() && !context_->draining)
                                ? -1
                                : static_cast<int>(kTickMs);
        const int ready = listener_.wait(
            events.data(), static_cast<int>(events.size()), timeout);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < ready; i++) {
            if (stopping_.load(std::memory_order_acquire))
                break;
            const uint64_t tag = events[i].data.u64;
            if (tag == kListenerTag) {
                acceptAll();
                continue;
            }
            if (tag == kWakeTag) {
                listener_.drainWake();
                deliverCompletions();
                continue;
            }
            auto it = conns_.find(tag);
            if (it == conns_.end())
                continue;
            Socket &socket = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR))
                socket.dead = true;
            if (!socket.dead && (events[i].events & EPOLLOUT))
                flush(socket);
            // A half-close (EPOLLRDHUP) may come with the peer's last
            // requests: read them, and onReadable finds the EOF.
            if (!socket.dead &&
                (events[i].events & (EPOLLIN | EPOLLRDHUP)))
                onReadable(socket);
            if (socket.dead)
                destroyConn(it);
        }
        const uint64_t now = listener_.nowMs();
        if (now - lastSweepMs_ >= kTickMs) {
            lastSweepMs_ = now;
            sweep(now);
        }
    }
    {
        std::lock_guard<std::mutex> lock(loopExitMutex_);
        loopExited_ = true;
    }
    loopExitCv_.notify_all();
}

void
Server::sweep(uint64_t now_ms)
{
    if (context_->draining && now_ms >= drainDeadlineMs_) {
        // Deadline breached: abandon still-queued service work so the
        // worker pool frees up immediately, and force the loop out.
        // drainedCleanly_ stays false.
        context_->drainCancel.cancel();
        stopping_.store(true, std::memory_order_release);
        return;
    }
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->second->conn.expired(now_ms)) {
            context_->counters.timedOutConnections.fetch_add(
                1, std::memory_order_relaxed);
            it = destroyConn(it);
        } else {
            ++it;
        }
    }
}

Server::SocketMap::iterator
Server::destroyConn(SocketMap::iterator it)
{
    listener_.unwatch(it->second->fd);
    ::close(it->second->fd);
    context_->counters.closed.fetch_add(1, std::memory_order_relaxed);
    return conns_.erase(it);
}

void
Server::drainStart()
{
    context_->draining = true;
    // Stop accepting: release the port immediately so a replacement
    // process can bind while we flush.
    listener_.closeListener();
    drainDeadlineMs_ =
        listener_.nowMs() +
        static_cast<uint64_t>(
            std::max(0.0, context_->options.drainDeadlineSeconds) *
            1000.0);
    // Connections owed nothing retire straight away.
    for (auto it = conns_.begin(); it != conns_.end();)
        it = it->second->conn.owesNothing() ? destroyConn(it)
                                            : std::next(it);
}

void
Server::acceptAll()
{
    NetCounters &counters = context_->counters;
    int fd;
    // -1: drained (EAGAIN), or a failure (EMFILE, an aborted
    // handshake) best handled by returning to the loop.
    while ((fd = listener_.accept()) >= 0) {
        if (conns_.size() >= context_->options.maxConnections) {
            // Shed explicitly: a fresh socket's send buffer always
            // has room for one tiny error frame, so the peer learns
            // why instead of watching an accept-stall time out.
            std::vector<uint8_t> reply;
            appendErrorReply(reply, MsgType::Open, 0,
                             WireStatus::Overloaded,
                             "connection limit reached; retry later");
            // Count before the close: an observer who saw our EOF
            // must already find the shed in netStats().
            counters.shedConnections.fetch_add(
                1, std::memory_order_relaxed);
            (void)!::send(fd, reply.data(), reply.size(),
                          MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        const uint64_t id = nextConnId_++;
        if (!listener_.watch(fd,
                             EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
                             id)) {
            ::close(fd);
            continue;
        }
        counters.accepted.fetch_add(1, std::memory_order_relaxed);
        conns_.emplace(id, std::make_unique<Socket>(fd, *context_, id,
                                                    listener_.nowMs()));
    }
}

void
Server::onReadable(Socket &socket)
{
    while (!socket.dead && !socket.peerClosed) {
        // A paused connection keeps at most one max-size frame
        // buffered; further inbound bytes wait in the socket (and,
        // transitively, in the peer's send queue) until the transmit
        // backlog drains.
        if (!socket.conn.wantsInput()) {
            socket.rxStalled = true;
            return;
        }
        const ssize_t got = ::recv(socket.fd, rxScratch_.data(),
                                   rxScratch_.size(), 0);
        if (got > 0) {
            socket.conn.receive(rxScratch_.data(),
                                static_cast<size_t>(got), listener_.nowMs());
            flush(socket);
            continue;
        }
        if (got == 0) {
            // EOF: the peer sends nothing more but may still read.
            // Answer what it sent, then close (flush() checks too).
            socket.peerClosed = true;
            if (socket.conn.owesNothing())
                socket.dead = true;
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        socket.dead = true;  // A socket error.
    }
}

void
Server::deliverCompletions()
{
    for (Completion &completion : context_->completions.take()) {
        auto it = conns_.find(completion.connId);
        if (it == conns_.end())
            continue;
        Socket &socket = *it->second;
        socket.conn.complete(std::move(completion.frame));
        flush(socket);
        if (socket.dead)
            destroyConn(it);
    }
}

void
Server::flush(Socket &socket)
{
    Connection &conn = socket.conn;
    // Edge-triggered EPOLLOUT only fires on a not-writable → writable
    // transition, so every call into the connection is followed by a
    // write attempt, and the event is relied on only after EAGAIN.
    // consume() may resume parsing and queue more replies.
    while (conn.txSize() != 0) {
        const ssize_t sent = ::send(socket.fd, conn.txData(),
                                    conn.txSize(), MSG_NOSIGNAL);
        if (sent > 0) {
            conn.consume(static_cast<size_t>(sent), listener_.nowMs());
            continue;
        }
        if (sent < 0 && errno == EINTR)
            continue;
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        socket.dead = true;
        return;
    }
    // Resume recv() if backpressure stalled it: edge-triggered
    // readiness will not re-announce bytes already waiting.
    if (socket.rxStalled && conn.wantsInput()) {
        socket.rxStalled = false;
        onReadable(socket);
    }
    if (conn.finished() ||
        ((context_->draining || socket.peerClosed) && conn.owesNothing()))
        socket.dead = true;
}

} // namespace net
} // namespace sage
