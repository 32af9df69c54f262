#include "net/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.hh"

namespace sage {
namespace net {

namespace {

/** epoll user-data tags of the two non-connection descriptors. */
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

/** Timer-wheel id of the drain deadline (no Conn ever has id 0). */
constexpr uint64_t kDrainTimerTag = 0;

/** recv() granularity. */
constexpr size_t kRecvChunkBytes = 64 * 1024;

/** Compact the rx buffer once this much dead prefix accumulates. */
constexpr size_t kRxCompactBytes = 256 * 1024;

std::string
errnoText()
{
    return std::strerror(errno);
}

uint32_t
loadLe32(const uint8_t *bytes)
{
    return static_cast<uint32_t>(bytes[0]) |
           static_cast<uint32_t>(bytes[1]) << 8 |
           static_cast<uint32_t>(bytes[2]) << 16 |
           static_cast<uint32_t>(bytes[3]) << 24;
}

uint64_t
secondsToMs(double seconds)
{
    return seconds <= 0.0 ? 0
                          : static_cast<uint64_t>(seconds * 1000.0);
}

} // namespace

Server::Server(MultiArchiveService &service, ServerOptions options)
    : service_(service), options_(std::move(options)),
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

    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listenFd_ < 0)
        return Status::ioError("socket: ", errnoText());

    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        stop();
        return Status::ioError("bad bind address ",
                               options_.bindAddress);
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        Status status = Status::ioError(
            "bind ", options_.bindAddress, ":", options_.port, ": ",
            errnoText());
        stop();
        return status;
    }
    if (::listen(listenFd_, options_.backlog) != 0) {
        Status status = Status::ioError("listen: ", errnoText());
        stop();
        return status;
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0) {
        Status status = Status::ioError("getsockname: ", errnoText());
        stop();
        return status;
    }
    port_ = ntohs(addr.sin_port);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epollFd_ < 0 || wakeFd_ < 0) {
        Status status =
            Status::ioError("epoll/eventfd: ", errnoText());
        stop();
        return status;
    }

    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = kListenerTag;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) != 0) {
        Status status = Status::ioError("epoll_ctl: ", errnoText());
        stop();
        return status;
    }
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0) {
        Status status = Status::ioError("epoll_ctl: ", errnoText());
        stop();
        return status;
    }

    loopEpoch_ = std::chrono::steady_clock::now();
    wheel_ = TimerWheel();
    dueTimers_.clear();
    draining_.store(false, std::memory_order_release);
    drainStarted_ = false;
    drainDeadlineMs_ = 0;
    drainCancel_ = CancelSource();
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

uint64_t
Server::loopNowMs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - loopEpoch_)
            .count());
}

void
Server::beginDrain()
{
    if (!running_.load(std::memory_order_acquire))
        return;
    draining_.store(true, std::memory_order_release);
    wakeLoop();
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
                options_.drainDeadlineSeconds + 2.0));
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
        wakeLoop();
        if (thread_.joinable())
            thread_.join();
        // Admitted requests may still be serializing replies on
        // worker threads; their pushCompletion touches the completion
        // queue and wakeFd_, so both must survive until the count
        // drains.
        std::unique_lock<std::mutex> lock(callbackMutex_);
        callbackCv_.wait(lock, [&] {
            return pendingCallbacks_.load(
                       std::memory_order_acquire) == 0;
        });
        running_.store(false, std::memory_order_release);
    }
    for (auto &conn : conns_)
        ::close(conn.second->fd);
    conns_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    listenFd_ = epollFd_ = wakeFd_ = -1;
}

ServerNetStats
Server::netStats() const
{
    ServerNetStats out;
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.closed = closed_.load(std::memory_order_relaxed);
    out.activeConnections = out.accepted - out.closed;
    out.framesIn = framesIn_.load(std::memory_order_relaxed);
    out.repliesOut = repliesOut_.load(std::memory_order_relaxed);
    out.protocolErrors =
        protocolErrors_.load(std::memory_order_relaxed);
    out.bytesIn = bytesIn_.load(std::memory_order_relaxed);
    out.bytesOut = bytesOut_.load(std::memory_order_relaxed);
    out.txPauses = txPauses_.load(std::memory_order_relaxed);
    out.timedOutConnections =
        timedOutConnections_.load(std::memory_order_relaxed);
    out.shedConnections =
        shedConnections_.load(std::memory_order_relaxed);
    out.crcMismatches = crcMismatches_.load(std::memory_order_relaxed);
    out.versionMismatches =
        versionMismatches_.load(std::memory_order_relaxed);
    out.drainRejects = drainRejects_.load(std::memory_order_relaxed);
    return out;
}

void
Server::wakeLoop()
{
    const uint64_t one = 1;
    // A full eventfd counter (EAGAIN) already guarantees a pending
    // wake; any other failure means teardown is racing us.
    (void)!::write(wakeFd_, &one, sizeof(one));
}

void
Server::drainWakeFd()
{
    uint64_t value = 0;
    while (::read(wakeFd_, &value, sizeof(value)) > 0) {
    }
}

void
Server::eventLoop()
{
    std::vector<epoll_event> events(64);
    while (!stopping_.load(std::memory_order_acquire)) {
        if (draining_.load(std::memory_order_acquire) &&
            !drainStarted_)
            drainStart();
        if (drainStarted_ && drainComplete()) {
            drainedCleanly_.store(true, std::memory_order_release);
            break;
        }
        // Sleep forever only while there is nothing to time out; any
        // connection (or an armed drain deadline) bounds the wait to
        // one wheel tick.
        const int timeout = (conns_.empty() && !drainStarted_)
                                ? -1
                                : static_cast<int>(wheel_.tickMs());
        const int ready = ::epoll_wait(epollFd_, events.data(),
                                       static_cast<int>(events.size()),
                                       timeout);
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
                drainWakeFd();
                flushCompletions();
                continue;
            }
            auto it = conns_.find(tag);
            if (it == conns_.end())
                continue;
            Conn &conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP))
                closeConn(conn);
            if (!conn.dead && (events[i].events & EPOLLOUT))
                flushTx(conn);
            if (!conn.dead && (events[i].events & EPOLLIN))
                onReadable(conn);
            if (conn.dead)
                destroyConn(tag);
        }
        runTimers();
    }
    {
        std::lock_guard<std::mutex> lock(loopExitMutex_);
        loopExited_ = true;
    }
    loopExitCv_.notify_all();
}

void
Server::runTimers()
{
    const uint64_t now = loopNowMs();
    dueTimers_.clear();
    wheel_.advanceTo(now, dueTimers_);
    const uint64_t idle_ms = secondsToMs(options_.idleTimeoutSeconds);
    const uint64_t header_ms =
        secondsToMs(options_.headerReadTimeoutSeconds);
    for (const uint64_t id : dueTimers_) {
        if (id == kDrainTimerTag) {
            if (drainStarted_ && now >= drainDeadlineMs_) {
                // Deadline breached: abandon still-queued service
                // work so the worker pool frees up immediately, and
                // force the loop out. drainedCleanly_ stays false.
                drainCancel_.cancel();
                stopping_.store(true, std::memory_order_release);
            }
            continue;
        }
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Conn &conn = *it->second;
        bool timed_out = false;
        if (header_ms != 0 && conn.partialFrame && !conn.paused &&
            now - conn.frameStartMs >= header_ms)
            timed_out = true;  // Slow-loris drip.
        else if (idle_ms != 0 && !conn.partialFrame &&
                 conn.tx.empty() && conn.inFlight == 0 &&
                 now - conn.lastRxMs >= idle_ms)
            timed_out = true;  // Nothing received, nothing owed.
        if (timed_out) {
            timedOutConnections_.fetch_add(1,
                                           std::memory_order_relaxed);
            destroyConn(id);
        } else {
            scheduleConnCheck(conn);
        }
    }
}

void
Server::scheduleConnCheck(Conn &conn)
{
    const uint64_t now = loopNowMs();
    const uint64_t idle_ms = secondsToMs(options_.idleTimeoutSeconds);
    const uint64_t header_ms =
        secondsToMs(options_.headerReadTimeoutSeconds);
    uint64_t delay = UINT64_MAX;
    if (header_ms != 0 && conn.partialFrame) {
        const uint64_t due = conn.frameStartMs + header_ms;
        delay = std::min(delay, due > now ? due - now : 0);
    }
    if (idle_ms != 0) {
        // A busy connection (queued tx, in-flight reads) cannot be
        // idle-closed; check again a full period later.
        const bool busy = !conn.tx.empty() || conn.inFlight != 0;
        const uint64_t due =
            (busy ? now : conn.lastRxMs) + idle_ms;
        delay = std::min(delay, due > now ? due - now : 0);
    }
    if (delay != UINT64_MAX)
        wheel_.schedule(conn.id, delay);
}

void
Server::destroyConn(uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    conns_.erase(it);
    closed_.fetch_add(1, std::memory_order_relaxed);
}

void
Server::drainStart()
{
    drainStarted_ = true;
    // Stop accepting: release the port immediately so a replacement
    // process can bind while we flush.
    if (listenFd_ >= 0) {
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
        ::close(listenFd_);
        listenFd_ = -1;
    }
    const uint64_t deadline_ms =
        secondsToMs(options_.drainDeadlineSeconds);
    drainDeadlineMs_ = loopNowMs() + deadline_ms;
    wheel_.schedule(kDrainTimerTag, deadline_ms);
    // Connections owed nothing retire straight away.
    std::vector<uint64_t> idle;
    for (const auto &entry : conns_) {
        const Conn &conn = *entry.second;
        if (conn.tx.empty() && conn.inFlight == 0)
            idle.push_back(entry.first);
    }
    for (const uint64_t id : idle)
        destroyConn(id);
}

void
Server::maybeRetireDraining(Conn &conn)
{
    if (drainStarted_ && !conn.dead && conn.tx.empty() &&
        conn.inFlight == 0)
        conn.dead = true;
}

bool
Server::drainComplete()
{
    if (!conns_.empty())
        return false;
    if (pendingCallbacks_.load(std::memory_order_acquire) != 0)
        return false;
    std::lock_guard<std::mutex> lock(completionMutex_);
    return completions_.empty();
}

void
Server::acceptAll()
{
    while (true) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // EAGAIN: drained. Anything else (EMFILE, aborted
            // handshake) is also best handled by returning to the
            // loop.
            return;
        }
        if (conns_.size() >= options_.maxConnections) {
            // Shed explicitly: a fresh socket's send buffer always
            // has room for one tiny error frame, so the peer learns
            // why instead of watching an accept-stall time out.
            std::vector<uint8_t> reply;
            appendErrorReply(reply, MsgType::Open, 0,
                             WireStatus::Overloaded,
                             "connection limit reached; retry later");
            // Count before the close: an observer who saw our EOF
            // must already find the shed in netStats().
            shedConnections_.fetch_add(1, std::memory_order_relaxed);
            (void)!::send(fd, reply.data(), reply.size(),
                          MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Conn>();
        conn->id = nextConnId_++;
        conn->fd = fd;
        conn->lastRxMs = loopNowMs();
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        Conn &ref = *conn;
        conns_.emplace(ref.id, std::move(conn));
        scheduleConnCheck(ref);
    }
}

void
Server::closeConn(Conn &conn)
{
    conn.dead = true;
}

void
Server::onReadable(Conn &conn)
{
    while (!conn.dead) {
        // A paused connection keeps at most one max-size frame
        // buffered; further inbound bytes wait in the socket (and,
        // transitively, in the peer's send queue) until the transmit
        // backlog drains.
        if (conn.paused &&
            conn.rx.size() - conn.rxOff >=
                options_.maxRequestFrameBytes + kLenBytes) {
            conn.rxStalled = true;
            return;
        }
        // Receive into the loop's scratch buffer and append only what
        // arrived: growing rx by a whole chunk would zero-fill 64 KiB
        // per recv, including the final one that returns EAGAIN.
        const ssize_t got = ::recv(conn.fd, rxScratch_.data(),
                                   rxScratch_.size(), 0);
        if (got > 0) {
            conn.rx.insert(conn.rx.end(), rxScratch_.data(),
                           rxScratch_.data() + got);
            conn.lastRxMs = loopNowMs();
            bytesIn_.fetch_add(static_cast<uint64_t>(got),
                               std::memory_order_relaxed);
            processRx(conn);
            continue;
        }
        if (got == 0) {
            closeConn(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        if (errno == EINTR)
            continue;
        closeConn(conn);
        return;
    }
}

void
Server::processRx(Conn &conn)
{
    bool incomplete = false;
    while (!conn.dead && !conn.paused && !conn.closeAfterFlush) {
        const size_t avail = conn.rx.size() - conn.rxOff;
        if (avail < kLenBytes) {
            incomplete = avail != 0;
            break;
        }
        const uint32_t len = loadLe32(conn.rx.data() + conn.rxOff);
        if (len < kRequestHeaderBytes ||
            len > options_.maxRequestFrameBytes) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            std::vector<uint8_t> reply;
            appendErrorReply(reply, MsgType::Open, 0,
                             WireStatus::ProtocolError,
                             "bad frame length");
            // Set before queueReply: its flush is what notices a
            // drained closeAfterFlush connection and retires it.
            conn.closeAfterFlush = true;
            queueReply(conn, std::move(reply));
            break;
        }
        if (avail < kLenBytes + len) {
            incomplete = true;
            break;
        }
        handleFrame(conn, conn.rx.data() + conn.rxOff + kLenBytes,
                    len);
        conn.rxOff += kLenBytes + len;
    }
    // Slow-loris bookkeeping: time the life of an incomplete frame.
    // Paused connections are excluded — their bytes sit unparsed by
    // our own backpressure choice, not the peer's dripping.
    if (!conn.dead && !conn.paused && !conn.closeAfterFlush) {
        if (!incomplete) {
            conn.partialFrame = false;
        } else if (!conn.partialFrame) {
            conn.partialFrame = true;
            conn.frameStartMs = loopNowMs();
            const uint64_t header_ms =
                secondsToMs(options_.headerReadTimeoutSeconds);
            if (header_ms != 0)
                wheel_.schedule(conn.id, header_ms);
        }
    }
    if (conn.rxOff == conn.rx.size()) {
        conn.rx.clear();
        conn.rxOff = 0;
    } else if (conn.rxOff >= kRxCompactBytes) {
        conn.rx.erase(conn.rx.begin(),
                      conn.rx.begin() +
                          static_cast<ptrdiff_t>(conn.rxOff));
        conn.rxOff = 0;
    }
}

void
Server::handleFrame(Conn &conn, const uint8_t *frame, size_t size)
{
    framesIn_.fetch_add(1, std::memory_order_relaxed);
    size_t body_size = size;
    switch (verifyFrame(frame, size, &body_size)) {
    case FrameVerdict::Ok:
        break;
    case FrameVerdict::VersionMismatch: {
        versionMismatches_.fetch_add(1, std::memory_order_relaxed);
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        std::vector<uint8_t> reply;
        appendErrorReply(reply, MsgType::Open, 0,
                         WireStatus::VersionMismatch,
                         "server speaks protocol version " +
                             std::to_string(unsigned(kProtocolVersion)) +
                             ", client sent version " +
                             std::to_string(unsigned(frame[2])));
        conn.closeAfterFlush = true;
        queueReply(conn, std::move(reply));
        return;
    }
    case FrameVerdict::TooShort:
    case FrameVerdict::CrcMismatch: {
        crcMismatches_.fetch_add(1, std::memory_order_relaxed);
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        std::vector<uint8_t> reply;
        appendErrorReply(reply, MsgType::Open, 0,
                         WireStatus::ProtocolError,
                         "frame failed its CRC-32 integrity check");
        conn.closeAfterFlush = true;
        queueReply(conn, std::move(reply));
        return;
    }
    }
    auto parsed = parseRequestFrame(frame, body_size);
    if (!parsed.ok()) {
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        std::vector<uint8_t> reply;
        appendErrorReply(reply, MsgType::Open, 0,
                         WireStatus::ProtocolError,
                         parsed.status().toString());
        conn.closeAfterFlush = true;
        queueReply(conn, std::move(reply));
        return;
    }
    const RequestFrame &request = parsed.value();
    if (drainStarted_) {
        // The listener is gone; connections live only to collect
        // in-flight replies. New work is told to go elsewhere.
        drainRejects_.fetch_add(1, std::memory_order_relaxed);
        std::vector<uint8_t> reply;
        appendErrorReply(reply, request.type, request.requestId,
                         WireStatus::ShuttingDown,
                         "server is draining");
        queueReply(conn, std::move(reply));
        return;
    }
    std::vector<uint8_t> reply;
    switch (request.type) {
    case MsgType::Open: {
        auto meta = service_.open(request.name);
        if (meta.ok()) {
            OpenReply ok;
            ok.archive = meta->id;
            ok.readCount = meta->readCount;
            ok.chunkCount = meta->chunkCount;
            appendOpenReply(reply, request.requestId, MsgType::Open,
                            ok);
        } else {
            // Bad bytes keep their code across the wire; everything
            // else (missing file, hostile name) is simply an archive
            // this server does not have.
            WireStatus status =
                wireStatusFromStatus(meta.status());
            if (status != WireStatus::Corrupt &&
                status != WireStatus::Truncated)
                status = WireStatus::UnknownArchive;
            appendErrorReply(reply, MsgType::Open, request.requestId,
                             status, meta.status().toString());
        }
        break;
    }
    case MsgType::Stat: {
        if (request.archive == kStatServer) {
            const MultiArchiveStats stats = service_.stats();
            WireServerStats wire;
            wire.openArchives = stats.openArchives;
            wire.knownArchives = stats.knownArchives;
            wire.opens = stats.opens;
            wire.reopens = stats.reopens;
            wire.evictions = stats.evictions;
            wire.admitted = stats.admitted;
            wire.overloaded = stats.overloaded;
            wire.readsServed = stats.readsServed;
            wire.bytesServed = stats.bytesServed;
            wire.cacheBytesReserved = stats.cacheBytesReserved;
            wire.cacheBudgetBytes = stats.cacheBudgetBytes;
            wire.queueDepth = stats.queueDepth;
            appendStatReply(reply, request.requestId, wire);
        } else {
            auto meta = service_.describe(request.archive);
            if (meta.ok()) {
                OpenReply ok;
                ok.archive = meta->id;
                ok.readCount = meta->readCount;
                ok.chunkCount = meta->chunkCount;
                appendOpenReply(reply, request.requestId,
                                MsgType::Stat, ok);
            } else {
                appendErrorReply(reply, MsgType::Stat,
                                 request.requestId,
                                 WireStatus::UnknownArchive,
                                 meta.status().toString());
            }
        }
        break;
    }
    case MsgType::Close: {
        Status status = service_.closeArchive(request.archive);
        if (status.ok())
            appendCloseReply(reply, request.requestId);
        else
            appendErrorReply(reply, MsgType::Close, request.requestId,
                             WireStatus::UnknownArchive,
                             status.toString());
        break;
    }
    case MsgType::ReadRange:
    case MsgType::ReadChunk:
        handleRead(conn, request);
        return;
    }
    queueReply(conn, std::move(reply));
}

void
Server::handleRead(Conn &conn, const RequestFrame &request)
{
    if (request.type == MsgType::ReadRange &&
        request.count > options_.maxReadsPerRequest) {
        std::vector<uint8_t> reply;
        appendErrorReply(reply, request.type, request.requestId,
                         WireStatus::BadRequest,
                         "count exceeds the per-request limit");
        queueReply(conn, std::move(reply));
        return;
    }

    RequestOptions qos;
    qos.priority = request.priority;
    if (request.deadlineMs != 0)
        qos.deadline =
            RequestOptions::deadlineIn(request.deadlineMs / 1000.0);
    // Every admitted request can be abandoned wholesale when a drain
    // deadline fires — queued work must not hold shutdown hostage.
    qos.cancel = drainCancel_.token();

    pendingCallbacks_.fetch_add(1, std::memory_order_acq_rel);
    auto complete = [this, conn_id = conn.id,
                     request_id = request.requestId,
                     type = request.type](RangeResult result) {
        std::vector<uint8_t> frame;
        if (result.status == RequestStatus::Ok) {
            // Encode straight from the cached chunks the runs pin; the
            // pins drop when this completion returns.
            std::vector<ReadSpan> spans;
            spans.reserve(result.runs.size());
            for (const ReadRun &run : result.runs)
                spans.push_back(ReadSpan{run.begin(), run.size()});
            const Status encoded = appendReadReply(
                frame, type, request_id, spans.data(), spans.size());
            if (!encoded.ok())
                appendErrorReply(frame, type, request_id,
                                 WireStatus::OutOfRange,
                                 encoded.toString());
        } else {
            const std::string detail =
                result.error.ok() ? requestStatusName(result.status)
                                  : result.error.toString();
            appendErrorReply(
                frame, type, request_id,
                wireStatusFromRequest(result.status, result.error),
                detail);
        }
        pushCompletion(conn_id, std::move(frame));
    };

    Status reject;
    const Admission admission =
        request.type == MsgType::ReadRange
            ? service_.readRange(request.archive, request.first,
                                 request.count, qos,
                                 std::move(complete), &reject)
            : service_.readChunk(request.archive, request.chunk, qos,
                                 std::move(complete), &reject);
    if (admission == Admission::Admitted) {
        conn.inFlight++;
        return;
    }

    // The callback will never run; balance its barrier count.
    pendingCallbacks_.fetch_sub(1, std::memory_order_acq_rel);
    WireStatus status = WireStatus::BadRequest;
    switch (admission) {
    case Admission::Overloaded:
        status = WireStatus::Overloaded;
        break;
    case Admission::UnknownArchive:
        status = WireStatus::UnknownArchive;
        break;
    case Admission::BadRange:
        status = WireStatus::OutOfRange;
        break;
    case Admission::Admitted:
        break;
    }
    std::vector<uint8_t> reply;
    appendErrorReply(reply, request.type, request.requestId, status,
                     reject.toString());
    queueReply(conn, std::move(reply));
}

void
Server::pushCompletion(uint64_t conn_id, std::vector<uint8_t> &&frame)
{
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        completions_.push_back(Completion{conn_id, std::move(frame)});
    }
    wakeLoop();
    // Last touch of server state: once this count reaches zero the
    // destructor may proceed to close descriptors.
    std::lock_guard<std::mutex> lock(callbackMutex_);
    if (pendingCallbacks_.fetch_sub(1, std::memory_order_acq_rel) ==
        1)
        callbackCv_.notify_all();
}

void
Server::flushCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        batch.swap(completions_);
    }
    for (Completion &completion : batch) {
        auto it = conns_.find(completion.connId);
        if (it == conns_.end())
            continue;
        Conn &conn = *it->second;
        if (conn.inFlight > 0)
            conn.inFlight--;
        if (conn.dead)
            continue;
        queueReply(conn, std::move(completion.frame));
        if (conn.dead)
            destroyConn(completion.connId);
    }
}

void
Server::queueReply(Conn &conn, std::vector<uint8_t> &&frame)
{
    repliesOut_.fetch_add(1, std::memory_order_relaxed);
    conn.txBytes += frame.size();
    conn.tx.push_back(std::move(frame));
    // Edge-triggered EPOLLOUT only fires on a not-writable →
    // writable transition, so always attempt the write here and rely
    // on the event only after a genuine EAGAIN.
    flushTx(conn);
    if (!conn.dead && !conn.paused &&
        conn.txBytes > options_.txHighWaterBytes) {
        conn.paused = true;
        txPauses_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Server::flushTx(Conn &conn)
{
    while (!conn.tx.empty()) {
        const std::vector<uint8_t> &front = conn.tx.front();
        const ssize_t sent =
            ::send(conn.fd, front.data() + conn.txOff,
                   front.size() - conn.txOff, MSG_NOSIGNAL);
        if (sent > 0) {
            bytesOut_.fetch_add(static_cast<uint64_t>(sent),
                                std::memory_order_relaxed);
            conn.txOff += static_cast<size_t>(sent);
            conn.txBytes -= static_cast<uint64_t>(sent);
            if (conn.txOff == front.size()) {
                conn.tx.pop_front();
                conn.txOff = 0;
            }
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (sent < 0 && errno == EINTR)
            continue;
        closeConn(conn);
        return;
    }
    if (conn.paused &&
        conn.txBytes <= options_.txHighWaterBytes / 2) {
        conn.paused = false;
        // Frames that arrived while paused are still buffered; parse
        // them now, then resume recv() if backpressure stalled it
        // (edge-triggered readiness will not re-announce old bytes).
        processRx(conn);
        if (!conn.dead && conn.rxStalled) {
            conn.rxStalled = false;
            onReadable(conn);
        }
    }
    if (!conn.dead && conn.closeAfterFlush && conn.tx.empty())
        conn.dead = true;
    maybeRetireDraining(conn);
}

} // namespace net
} // namespace sage
