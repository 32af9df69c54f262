#include "net/listener.hh"

#include <cerrno>
#include <cstring>
#include <initializer_list>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sage {
namespace net {

Listener::~Listener()
{
    close();
}

Status
Listener::open(const std::string &address, uint16_t port, int backlog)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1)
        return Status::ioError("bad bind address ", address);
    // Build the Status before close() can overwrite errno.
    const auto fail = [this](const auto &...what) {
        Status status = Status::ioError(what..., ": ", std::strerror(errno));
        close();
        return status;
    };

    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return fail("socket");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind ", address, ":", port);
    if (::listen(listenFd_, backlog) != 0)
        return fail("listen");
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        return fail("epoll_create1");
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd_ < 0)
        return fail("eventfd");
    if (!watch(listenFd_, EPOLLIN | EPOLLET, kListenerTag) ||
        !watch(wakeFd_, EPOLLIN | EPOLLET, kWakeTag))
        return fail("epoll_ctl");
    epoch_ = std::chrono::steady_clock::now();
    return Status();
}

void
Listener::close()
{
    for (int *fd : {&listenFd_, &epollFd_, &wakeFd_}) {
        if (*fd >= 0)
            ::close(*fd);
        *fd = -1;
    }
}

void
Listener::closeListener()
{
    if (listenFd_ < 0)
        return;
    unwatch(listenFd_);
    ::close(listenFd_);
    listenFd_ = -1;
}

int
Listener::accept()
{
    while (true) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd >= 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            return fd;
        }
        if (errno != EINTR)
            return -1;
    }
}

bool
Listener::watch(int fd, uint32_t events, uint64_t tag)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    return ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void
Listener::unwatch(int fd)
{
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
}

int
Listener::wait(epoll_event *events, int max_events, int timeout_ms)
{
    return ::epoll_wait(epollFd_, events, max_events, timeout_ms);
}

uint64_t
Listener::nowMs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
Listener::wake()
{
    const uint64_t one = 1;
    // A full eventfd counter (EAGAIN) already guarantees a pending
    // wake; any other failure means teardown is racing us.
    (void)!::write(wakeFd_, &one, sizeof(one));
}

void
Listener::drainWake()
{
    uint64_t value = 0;
    while (::read(wakeFd_, &value, sizeof(value)) > 0) {
    }
}

} // namespace net
} // namespace sage
