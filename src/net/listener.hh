/**
 * @file
 * What Server's and ChaosProxy's event loops start from: a
 * non-blocking TCP listener and a wake eventfd, registered
 * edge-triggered on one epoll instance under kListenerTag and
 * kWakeTag. Connections are tagged from kFirstConnTag up.
 */

#ifndef SAGE_NET_LISTENER_HH
#define SAGE_NET_LISTENER_HH

#include <sys/epoll.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.hh"

namespace sage {
namespace net {

constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnTag = 2;

class Listener
{
  public:
    Listener() = default;

    /** close()s. */
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind @p address:@p port (0 = ephemeral), listen, and create the
     *  epoll instance and the eventfd. IoError (with errno text) on
     *  failure, with everything closed again. */
    Status open(const std::string &address, uint16_t port, int backlog);

    /** Close every descriptor still open. Idempotent. */
    void close();

    /** Stop accepting and release the port. */
    void closeListener();

    /** One pending connection (non-blocking, close-on-exec,
     *  TCP_NODELAY), retrying EINTR; -1 once none is pending or on any
     *  other failure. */
    int accept();

    /** Register @p fd for @p events under @p tag. */
    bool watch(int fd, uint32_t events, uint64_t tag);
    void unwatch(int fd);
    /** epoll_wait; @p timeout_ms -1 waits forever. */
    int wait(epoll_event *events, int max_events, int timeout_ms);
    /** Make wait() return (any thread). */
    void wake();
    /** Consume pending wakes (loop thread). */
    void drainWake();

    /** Bound port (the ephemeral one for port 0); kept by close(). */
    uint16_t port() const { return port_; }

    /** Milliseconds since open() on the monotonic clock. */
    uint64_t nowMs() const;

  private:
    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    uint16_t port_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

} // namespace net
} // namespace sage

#endif // SAGE_NET_LISTENER_HH
