/**
 * @file
 * QoS vocabulary of the archive service layer (service/service.hh):
 * request priorities, per-request deadlines, cooperative cancellation
 * tokens, and the status a request completes with.
 *
 * A RequestOptions travels with every scheduled request and is checked
 * at the two points where abandoning is cheap: when the request starts
 * (dequeued by the scheduler after it may have sat behind a deep
 * backlog, or begun on a blocking caller) and before each chunk decode
 * (the expensive step). An expired or
 * cancelled request completes with a distinct RequestStatus instead of
 * burning a worker on an answer nobody is waiting for — that is what
 * lets an interactive client bail out from behind a 64-client batch
 * backlog instead of inflating its own tail latency.
 */

#ifndef SAGE_SERVICE_QOS_HH
#define SAGE_SERVICE_QOS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace sage {

/** Scheduling class of a service request. */
enum class RequestPriority : uint8_t {
    Interactive = 0,  ///< Latency-sensitive foreground reads.
    Normal = 1,       ///< Default for client requests.
    Background = 2,   ///< Cache warms / session readahead.
};

constexpr unsigned kRequestPriorityCount = 3;

/** Printable name of a priority class. */
inline const char *
requestPriorityName(RequestPriority priority)
{
    switch (priority) {
    case RequestPriority::Interactive: return "interactive";
    case RequestPriority::Normal: return "normal";
    case RequestPriority::Background: return "background";
    }
    return "?";
}

/** How a scheduled request completed. */
enum class RequestStatus : uint8_t {
    Ok = 0,         ///< Served in full.
    Expired = 1,    ///< Deadline passed before the work was done.
    Cancelled = 2,  ///< The request's CancelToken fired.
    /** A chunk this request needed failed to decode (I/O error or
     *  corrupt data). Scoped to this request: other clients and other
     *  chunks are unaffected, and unlike Expired/Cancelled the
     *  condition is not sticky — retrying the same request may
     *  succeed (e.g. after a transient I/O fault). */
    Error = 3,
};

/** Printable name of a completion status. */
inline const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Expired: return "expired";
    case RequestStatus::Cancelled: return "cancelled";
    case RequestStatus::Error: return "error";
    }
    return "?";
}

class CancelSource;

/**
 * Observer half of a cancellation pair. Default-constructed tokens are
 * never cancelled (the common no-cancellation case costs one null
 * check). Copies share the source's flag; checking is a relaxed-ish
 * atomic load, safe from any thread.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** True when this token is wired to a CancelSource at all. */
    bool connected() const { return flag_ != nullptr; }

    /** True once the source fired. */
    bool
    cancelled() const
    {
        return flag_ && flag_->load(std::memory_order_acquire);
    }

  private:
    friend class CancelSource;
    explicit CancelToken(
        std::shared_ptr<const std::atomic<bool>> flag)
        : flag_(std::move(flag))
    {}

    std::shared_ptr<const std::atomic<bool>> flag_;
};

/**
 * Owner half of a cancellation pair: hand token() to any number of
 * requests, call cancel() once to abandon them all. Cancellation is
 * cooperative and sticky — there is no un-cancel.
 */
class CancelSource
{
  public:
    CancelSource()
        : flag_(std::make_shared<std::atomic<bool>>(false))
    {}

    void cancel() { flag_->store(true, std::memory_order_release); }

    bool
    cancelled() const
    {
        return flag_->load(std::memory_order_acquire);
    }

    CancelToken token() const { return CancelToken(flag_); }

  private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/**
 * Per-request QoS: priority class, absolute deadline, cancellation
 * token. The default is the pre-QoS behavior — Normal priority, no
 * deadline, no cancellation — so plain calls pay nothing.
 */
struct RequestOptions
{
    using Clock = std::chrono::steady_clock;

    RequestPriority priority = RequestPriority::Normal;

    /** Absolute deadline; Clock::time_point::max() = none. Checked
     *  when the request starts and before each chunk decode, not
     *  mid-decode. */
    Clock::time_point deadline = Clock::time_point::max();

    CancelToken cancel;

    bool
    hasDeadline() const
    {
        return deadline != Clock::time_point::max();
    }

    /** True when any abandon condition could ever trigger — lets the
     *  hot path skip clock reads entirely for plain requests. */
    bool
    abandonable() const
    {
        return hasDeadline() || cancel.connected();
    }

    /**
     * Evaluate the request's fate right now. Cancellation wins over
     * expiry when both hold (the caller explicitly walked away).
     */
    RequestStatus
    checkNow() const
    {
        if (cancel.cancelled())
            return RequestStatus::Cancelled;
        if (hasDeadline() && Clock::now() >= deadline)
            return RequestStatus::Expired;
        return RequestStatus::Ok;
    }

    /** An absolute deadline @p seconds from now. */
    static Clock::time_point
    deadlineIn(double seconds)
    {
        return Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds));
    }
};

} // namespace sage

#endif // SAGE_SERVICE_QOS_HH
