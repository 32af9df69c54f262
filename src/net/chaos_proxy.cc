#include "net/chaos_proxy.hh"

#include <algorithm>
#include <cerrno>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.hh"

namespace sage {
namespace net {

namespace {

/** Event-loop tick while connections exist: stalled buffers are
 *  re-checked at this granularity. */
constexpr int kTickMs = 10;

constexpr size_t kRecvChunkBytes = 64 * 1024;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Close @p fd so the peer sees ECONNRESET, not a clean FIN. */
void
resetClose(int fd)
{
    if (fd < 0)
        return;
    struct linger hard = {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
}

} // namespace

ChaosProxy::ChaosProxy(std::string upstream_host,
                       uint16_t upstream_port, ChaosConfig config)
    : upstreamHost_(std::move(upstream_host)),
      upstreamPort_(upstream_port), config_(config)
{}

ChaosProxy::~ChaosProxy()
{
    stop();
}

double
ChaosProxy::nextUniform()
{
    const uint64_t bits = splitmix64(
        config_.seed ^ (0xd1342543de82ef95ull * ++rngCounter_));
    return static_cast<double>(bits >> 11) *
           (1.0 / 9007199254740992.0);  // 2^-53
}

Status
ChaosProxy::start()
{
    sage_assert(!running_.load(), "start() on a running proxy");
    Status status = listener_.open("127.0.0.1", 0, 64);
    if (!status.ok())
        return status;
    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { eventLoop(); });
    return Status();
}

void
ChaosProxy::stop()
{
    if (running_.load(std::memory_order_acquire)) {
        stopping_.store(true, std::memory_order_release);
        listener_.wake();
        thread_.join();
        running_.store(false, std::memory_order_release);
    } else if (thread_.joinable()) {
        thread_.join();
    }
    for (auto &entry : conns_) {
        if (entry.second->clientFd >= 0)
            ::close(entry.second->clientFd);
        if (entry.second->upstreamFd >= 0)
            ::close(entry.second->upstreamFd);
    }
    conns_.clear();
    listener_.close();
}

ChaosProxyStats
ChaosProxy::stats() const
{
    ChaosProxyStats out;
    out.connections = connections_.load(std::memory_order_relaxed);
    out.buffers = buffers_.load(std::memory_order_relaxed);
    out.bytes = bytes_.load(std::memory_order_relaxed);
    out.resets = resets_.load(std::memory_order_relaxed);
    out.corrupted = corrupted_.load(std::memory_order_relaxed);
    out.stalls = stalls_.load(std::memory_order_relaxed);
    out.splits = splits_.load(std::memory_order_relaxed);
    return out;
}

void
ChaosProxy::acceptAll()
{
    int client;
    while ((client = listener_.accept()) >= 0) {
        // Connect upstream. The socket is non-blocking, so the
        // connect completes in the background; epoll reports the
        // outcome as EPOLLOUT (success) or EPOLLERR/EPOLLHUP.
        const int upstream =
            ::socket(AF_INET,
                     SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (upstream < 0) {
            ::close(client);
            continue;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(upstreamPort_);
        if (::inet_pton(AF_INET, upstreamHost_.c_str(),
                        &addr.sin_addr) != 1) {
            ::close(client);
            ::close(upstream);
            continue;
        }
        if (::connect(upstream, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0 &&
            errno != EINPROGRESS && errno != EINTR) {
            ::close(client);
            ::close(upstream);
            continue;
        }

        const int one = 1;
        ::setsockopt(upstream, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));

        auto conn = std::make_unique<Conn>();
        conn->id = nextConnId_++;
        conn->clientFd = client;
        conn->upstreamFd = upstream;
        conn->clientToUpstream.srcFd = client;
        conn->clientToUpstream.dstFd = upstream;
        conn->upstreamToClient.srcFd = upstream;
        conn->upstreamToClient.dstFd = client;

        const uint32_t events = EPOLLIN | EPOLLOUT | EPOLLET;
        if (!listener_.watch(client, events, conn->id) ||
            !listener_.watch(upstream, events, conn->id)) {
            listener_.unwatch(client);
            ::close(client);
            ::close(upstream);
            continue;
        }
        connections_.fetch_add(1, std::memory_order_relaxed);
        conns_.emplace(conn->id, std::move(conn));
    }
}

bool
ChaosProxy::pump(Conn &conn, Pipe &pipe)
{
    if (pipe.srcClosed)
        return true;
    while (true) {
        uint8_t chunk[kRecvChunkBytes];
        const ssize_t got =
            ::recv(pipe.srcFd, chunk, sizeof(chunk), 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;  // Must drain to EAGAIN (edge-triggered).
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;  // Reset or similar: kill the connection.
        }
        if (got == 0) {
            pipe.srcClosed = true;
            break;
        }

        buffers_.fetch_add(1, std::memory_order_relaxed);
        bytes_.fetch_add(static_cast<uint64_t>(got),
                         std::memory_order_relaxed);

        Buffer buffer;
        buffer.bytes.assign(chunk, chunk + got);

        // One chaos decision per buffer, fixed evaluation order so a
        // seed replays identically regardless of which rates are on.
        const double roll = nextUniform();
        double threshold = config_.resetRate;
        if (roll < threshold) {
            resets_.fetch_add(1, std::memory_order_relaxed);
            destroyConn(conn, /*hard_reset=*/true);
            return false;
        }
        threshold += config_.corruptRate;
        if (roll < threshold) {
            corrupted_.fetch_add(1, std::memory_order_relaxed);
            const size_t victim = static_cast<size_t>(
                nextUniform() * static_cast<double>(
                                    buffer.bytes.size()));
            buffer.bytes[std::min(victim,
                                  buffer.bytes.size() - 1)] ^= 0x20;
            pipe.queue.push_back(std::move(buffer));
            continue;
        }
        threshold += config_.stallRate;
        if (roll < threshold) {
            stalls_.fetch_add(1, std::memory_order_relaxed);
            buffer.releaseMs = listener_.nowMs() + config_.stallMs;
            pipe.queue.push_back(std::move(buffer));
            continue;
        }
        threshold += config_.splitRate;
        if (roll < threshold && buffer.bytes.size() >= 2) {
            splits_.fetch_add(1, std::memory_order_relaxed);
            const size_t cut = 1 + static_cast<size_t>(
                nextUniform() * static_cast<double>(
                                    buffer.bytes.size() - 1));
            Buffer tail;
            tail.bytes.assign(buffer.bytes.begin() + cut,
                              buffer.bytes.end());
            // Held one tick so the first piece hits the wire alone,
            // forcing a genuine partial read at the peer.
            tail.releaseMs = listener_.nowMs() + kTickMs;
            buffer.bytes.resize(cut);
            pipe.queue.push_back(std::move(buffer));
            pipe.queue.push_back(std::move(tail));
            continue;
        }
        pipe.queue.push_back(std::move(buffer));
    }
    return true;
}

bool
ChaosProxy::flush(Conn &conn, Pipe &pipe)
{
    (void)conn;
    const uint64_t now = listener_.nowMs();
    while (!pipe.queue.empty()) {
        Buffer &front = pipe.queue.front();
        if (front.releaseMs > now)
            break;  // Stalled; the tick will come back to it.
        while (front.off < front.bytes.size()) {
            const ssize_t sent = ::send(
                pipe.dstFd, front.bytes.data() + front.off,
                front.bytes.size() - front.off, MSG_NOSIGNAL);
            if (sent < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return true;  // EPOLLOUT resumes us.
                return false;
            }
            front.off += static_cast<size_t>(sent);
        }
        pipe.queue.pop_front();
    }
    if (pipe.srcClosed && pipe.queue.empty() && !pipe.shutdownSent) {
        ::shutdown(pipe.dstFd, SHUT_WR);
        pipe.shutdownSent = true;
    }
    return true;
}

void
ChaosProxy::destroyConn(Conn &conn, bool hard_reset)
{
    if (conn.dead)
        return;
    conn.dead = true;
    listener_.unwatch(conn.clientFd);
    listener_.unwatch(conn.upstreamFd);
    if (hard_reset) {
        resetClose(conn.clientFd);
        resetClose(conn.upstreamFd);
    } else {
        ::close(conn.clientFd);
        ::close(conn.upstreamFd);
    }
    conn.clientFd = -1;
    conn.upstreamFd = -1;
}

void
ChaosProxy::eventLoop()
{
    std::vector<epoll_event> events(64);
    while (!stopping_.load(std::memory_order_acquire)) {
        // Tick while buffers may be waiting on a stall release;
        // block indefinitely when fully idle.
        bool pending = false;
        for (const auto &entry : conns_) {
            if (!entry.second->clientToUpstream.queue.empty() ||
                !entry.second->upstreamToClient.queue.empty()) {
                pending = true;
                break;
            }
        }
        const int timeout = pending ? kTickMs : -1;
        const int ready = listener_.wait(
            events.data(), static_cast<int>(events.size()), timeout);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }

        for (int i = 0; i < ready; i++) {
            const uint64_t tag = events[i].data.u64;
            if (tag == kListenerTag) {
                acceptAll();
                continue;
            }
            if (tag == kWakeTag) {
                listener_.drainWake();
                continue;
            }
            auto it = conns_.find(tag);
            if (it == conns_.end())
                continue;
            Conn &conn = *it->second;
            if (conn.dead)
                continue;
            if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
                (events[i].events & EPOLLIN) == 0) {
                destroyConn(conn, /*hard_reset=*/false);
                continue;
            }
            const bool alive =
                pump(conn, conn.clientToUpstream) &&
                pump(conn, conn.upstreamToClient) &&
                flush(conn, conn.clientToUpstream) &&
                flush(conn, conn.upstreamToClient);
            if (!alive) {
                destroyConn(conn, /*hard_reset=*/false);
                continue;
            }
            if (conn.clientToUpstream.shutdownSent &&
                conn.upstreamToClient.shutdownSent)
                destroyConn(conn, /*hard_reset=*/false);
        }

        // Release stalled buffers that came due.
        for (auto &entry : conns_) {
            Conn &conn = *entry.second;
            if (conn.dead)
                continue;
            const bool alive =
                flush(conn, conn.clientToUpstream) &&
                flush(conn, conn.upstreamToClient);
            if (!alive) {
                destroyConn(conn, /*hard_reset=*/false);
                continue;
            }
            if (conn.clientToUpstream.shutdownSent &&
                conn.upstreamToClient.shutdownSent)
                destroyConn(conn, /*hard_reset=*/false);
        }

        // Reap without invalidating the iteration above.
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (it->second->dead)
                it = conns_.erase(it);
            else
                ++it;
        }
    }
}

} // namespace net
} // namespace sage
