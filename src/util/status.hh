/**
 * @file
 * Recoverable error model: Status, StatusOr<T>, and StatusError.
 *
 * The fatal/panic convention in util/logging.hh is right for
 * programmer errors and unrecoverable CLI misuse, but a serving
 * process (service/service.hh) must degrade per-request, never
 * per-process: a flaky disk or a corrupt archive may fail one chunk
 * decode while every other client keeps streaming. Status carries
 * that failure up the stack as a value.
 *
 * Conventions (see docs/robustness.md):
 *  - Layers that touch untrusted bytes or real I/O expose one `try*`
 *    entry point returning Status/StatusOr, and no fatal twin.
 *  - Deep decode internals (BitReader, varints, rANS tables) throw
 *    StatusError on malformed data; public try* boundaries catch it
 *    and return the carried Status.
 *  - Callers that cannot go on without the result (the CLI, the
 *    examples and benches, SageReader's value-returning calls)
 *    unwrap through orExit(), which prints the Status and exits 1.
 */

#ifndef SAGE_UTIL_STATUS_HH
#define SAGE_UTIL_STATUS_HH

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "util/logging.hh"

namespace sage {

/** Failure categories a recoverable operation can report. */
enum class StatusCode : uint8_t
{
    Ok = 0,
    IoError = 1,     ///< The storage layer failed (errno-style).
    Truncated = 2,   ///< Input ended before a structure was complete.
    Corrupt = 3,     ///< Input bytes violate the format's invariants.
    OutOfRange = 4,  ///< A caller-supplied offset/index is out of bounds.
    Exhausted = 5,   ///< A bounded retry/resource budget ran out.
};

/** Short stable name for a StatusCode ("ok", "io-error", ...). */
inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "ok";
      case StatusCode::IoError: return "io-error";
      case StatusCode::Truncated: return "truncated";
      case StatusCode::Corrupt: return "corrupt";
      case StatusCode::OutOfRange: return "out-of-range";
      case StatusCode::Exhausted: return "exhausted";
    }
    return "unknown";
}

/** A failure category plus a human-readable message; Ok by default. */
class Status
{
  public:
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    template <typename... Args>
    static Status
    ioError(Args &&...args)
    {
        return Status(StatusCode::IoError,
                      detail::concatMessage(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    truncated(Args &&...args)
    {
        return Status(StatusCode::Truncated,
                      detail::concatMessage(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    corrupt(Args &&...args)
    {
        return Status(StatusCode::Corrupt,
                      detail::concatMessage(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    outOfRange(Args &&...args)
    {
        return Status(StatusCode::OutOfRange,
                      detail::concatMessage(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    exhausted(Args &&...args)
    {
        return Status(StatusCode::Exhausted,
                      detail::concatMessage(std::forward<Args>(args)...));
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "ok" or "<code-name>: <message>". */
    std::string
    toString() const
    {
        if (ok())
            return "ok";
        return std::string(statusCodeName(code_)) + ": " + message_;
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * Exception carrying a Status out of deep decode internals (bit
 * readers, varint parsers, rANS table loads) that have no Status
 * return channel of their own. Public try* boundaries catch it and
 * return the Status.
 */
class StatusError : public std::exception
{
  public:
    explicit StatusError(Status status) : status_(std::move(status)) {}

    const Status &status() const { return status_; }
    const char *what() const noexcept override
    {
        return status_.message().c_str();
    }

  private:
    Status status_;
};

/**
 * A Status or a value: `ok()` implies `value()` is present. The
 * error-path analogue of returning T directly.
 */
template <typename T>
class StatusOr
{
  public:
    /* Implicit conversions keep call sites terse:
     *   return Status::corrupt(...);   return std::move(result); */
    StatusOr(Status status) : status_(std::move(status))
    {
        sage_assert(!status_.ok(),
                    "StatusOr constructed from Ok status without a value");
    }

    StatusOr(T value) : value_(std::move(value)) {}

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    T &value()
    {
        sage_assert(ok(), "value() on failed StatusOr: ",
                    status_.toString());
        return *value_;
    }

    const T &value() const
    {
        sage_assert(ok(), "value() on failed StatusOr: ",
                    status_.toString());
        return *value_;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

/**
 * The fatal boundary: print @p status ("fatal: <code>: <message>") and
 * exit 1 unless it is Ok. For callers with no way to report a failure
 * on (a CLI command, a batch tool, a value-returning session call);
 * anything that must survive bad bytes keeps the Status.
 */
inline void
orExit(const Status &status)
{
    if (status.ok())
        return;
    std::fprintf(stderr, "fatal: %s\n", status.toString().c_str());
    std::fflush(stderr);
    std::exit(1);
}

/** orExit() for a StatusOr: its value, or exit 1 printing its Status. */
template <typename T>
T
orExit(StatusOr<T> result)
{
    orExit(result.status());
    return std::move(result.value());
}

} // namespace sage

/**
 * Throw StatusError when a data-dependent condition fails. For decode
 * internals validating untrusted bytes — the recoverable sibling of
 * sage_assert (which stays reserved for genuine invariants).
 */
#define sage_check_data(cond, code, ...)                                    \
    do {                                                                    \
        if (!(cond)) {                                                      \
            throw ::sage::StatusError(::sage::Status(                       \
                ::sage::StatusCode::code,                                   \
                ::sage::detail::concatMessage(__VA_ARGS__)));               \
        }                                                                   \
    } while (0)

#endif // SAGE_UTIL_STATUS_HH
