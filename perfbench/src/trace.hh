/**
 * @file
 * In-memory span recorder for the benchmark.
 *
 * A span is one timed call into a library layer: name, start, end, the
 * span that caused it (parent) and the request it belongs to. Spans are
 * recorded from the benchmark's own code, around public library calls;
 * nothing inside the library is instrumented. Each thread appends to
 * its own buffer, so recording takes no shared lock on the hot path.
 * The buffers are merged, linked and written out when the run ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since the process's first call. */
double nowSeconds();

/** One recorded span. Times are nowSeconds() values. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = root (or not yet linked).
    uint64_t request = 0;  ///< 0 = outside any request.
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    /** Free-form key the linker matches on (archive << 32 | chunk for
     *  fetches and chunk-addressed requests; ~0 when unused). */
    uint64_t tag = ~0ull;
};

/** Per-name totals over a span set. */
struct SpanTotals
{
    uint64_t count = 0;
    double total = 0.0;  ///< Summed durations.
    double self = 0.0;   ///< Durations minus the parts children cover.
};

/** Process-wide span recorder (off unless enabled). */
class Tracer
{
  public:
    static void setEnabled(bool on);
    static bool enabled();

    /** Request id stamped on spans this thread opens from now on. */
    static void setRequest(uint64_t request);

    /** Append a finished span from this thread (no-op when disabled).
     *  Parent defaults to the innermost open ScopedSpan on this thread. */
    static void record(const char *name, double start, double end,
                       uint64_t tag = ~0ull);

    /** Every recorded span, all threads merged, sorted by start. */
    static std::vector<Span> collect();

    /** Drop every recorded span (buffers stay registered). */
    static void clear();

  private:
    friend class ScopedSpan;
    static uint64_t nextId();
};

/** RAII span: opens at construction, records at destruction. Nested
 *  ScopedSpans on one thread become parent and child. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, uint64_t tag = ~0ull);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_ = false;
    Span span_;
    uint64_t outer_ = 0;  ///< Enclosing span on this thread.
};

/**
 * Attach parentless spans named @p child to the span named @p parent
 * that carries the same tag and whose interval contains the child's
 * start. Fetches run on service worker threads, so their parent
 * request can only be found this way, after the run.
 */
void linkByTag(std::vector<Span> &spans, const char *child,
               const char *parent);

/** Total and self time per span name. Self time is a span's duration
 *  minus the union of its children's intervals. */
std::map<std::string, SpanTotals> spanTotals(const std::vector<Span> &spans);

/** Write @p spans as one JSON object per line. Returns false on I/O
 *  failure. */
bool writeSpans(const std::vector<Span> &spans, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
