#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::atomic<bool> gEnabled{false};
std::atomic<uint64_t> gNextId{1};

/** One thread's spans. The mutex is uncontended except while
 *  collect() or clear() walks the buffers. */
struct Buffer
{
    std::mutex mutex;
    std::vector<Span> spans;
};

std::mutex gRegistryMutex;
std::vector<std::shared_ptr<Buffer>> gRegistry;

thread_local Buffer *tBuffer = nullptr;
thread_local uint64_t tCurrent = 0;  ///< Innermost open span.
thread_local uint64_t tRequest = 0;

Buffer &
threadBuffer()
{
    if (!tBuffer) {
        auto buffer = std::make_shared<Buffer>();
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        gRegistry.push_back(buffer);
        tBuffer = buffer.get();
    }
    return *tBuffer;
}

void
append(const Span &span)
{
    Buffer &buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.spans.push_back(span);
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void
Tracer::setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
Tracer::enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
Tracer::setRequest(uint64_t request)
{
    tRequest = request;
}

uint64_t
Tracer::nextId()
{
    return gNextId.fetch_add(1, std::memory_order_relaxed);
}

void
Tracer::record(const char *name, double start, double end, uint64_t tag)
{
    if (!enabled())
        return;
    Span span;
    span.id = nextId();
    span.parent = tCurrent;
    span.request = tRequest;
    span.name = name;
    span.start = start;
    span.end = end;
    span.tag = tag;
    append(span);
}

std::vector<Span>
Tracer::collect()
{
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (const auto &buffer : gRegistry) {
        std::lock_guard<std::mutex> inner(buffer->mutex);
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.start < b.start;
    });
    return all;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (const auto &buffer : gRegistry) {
        std::lock_guard<std::mutex> inner(buffer->mutex);
        buffer->spans.clear();
    }
}

ScopedSpan::ScopedSpan(const char *name, uint64_t tag)
{
    if (!Tracer::enabled())
        return;
    active_ = true;
    span_.id = Tracer::nextId();
    span_.parent = tCurrent;
    span_.request = tRequest;
    span_.name = name;
    span_.tag = tag;
    outer_ = tCurrent;
    tCurrent = span_.id;
    span_.start = nowSeconds();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.end = nowSeconds();
    tCurrent = outer_;
    append(span_);
}

void
linkByTag(std::vector<Span> &spans, const char *child, const char *parent)
{
    const std::string child_name(child), parent_name(parent);
    std::unordered_map<uint64_t, std::vector<const Span *>> parents;
    for (const Span &span : spans) {
        if (parent_name == span.name)
            parents[span.tag].push_back(&span);
    }
    for (Span &span : spans) {
        if (span.parent != 0 || child_name != span.name)
            continue;
        auto found = parents.find(span.tag);
        if (found == parents.end())
            continue;
        for (const Span *candidate : found->second) {
            if (candidate->start <= span.start &&
                span.start <= candidate->end) {
                span.parent = candidate->id;
                span.request = candidate->request;
                break;
            }
        }
    }
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<Span> &spans)
{
    // Children's intervals per parent id, merged to a union so that
    // overlapping children (parallel fetches) are not subtracted twice.
    std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &span : spans) {
        if (span.parent != 0)
            children[span.parent].emplace_back(span.start, span.end);
    }
    std::map<std::string, SpanTotals> totals;
    for (const Span &span : spans) {
        const double duration = span.end - span.start;
        double covered = 0.0;
        auto found = children.find(span.id);
        if (found != children.end()) {
            auto &intervals = found->second;
            std::sort(intervals.begin(), intervals.end());
            double run_start = 0.0, run_end = -1.0;
            for (const auto &[start_raw, end_raw] : intervals) {
                const double start = std::max(start_raw, span.start);
                const double end = std::min(end_raw, span.end);
                if (end <= start)
                    continue;
                if (start > run_end) {
                    if (run_end > run_start)
                        covered += run_end - run_start;
                    run_start = start;
                    run_end = end;
                } else {
                    run_end = std::max(run_end, end);
                }
            }
            if (run_end > run_start)
                covered += run_end - run_start;
        }
        SpanTotals &entry = totals[span.name];
        entry.count += 1;
        entry.total += duration;
        entry.self += std::max(0.0, duration - covered);
    }
    return totals;
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.precision(9);
    for (const Span &span : spans) {
        out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << ",\"name\":\""
            << span.name << "\",\"start\":" << span.start
            << ",\"end\":" << span.end;
        if (span.tag != ~0ull)
            out << ",\"tag\":" << span.tag;
        out << "}\n";
    }
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
