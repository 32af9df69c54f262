#include "service/service.hh"

#include <algorithm>
#include <exception>
#include <future>
#include <utility>

#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"

namespace sage {

namespace {

/** Payload bytes (bases + quality) runs deliver to a client, read off
 *  each run's first and last end entries rather than its reads. */
uint64_t
payloadBytes(const std::vector<ReadRun> &runs)
{
    uint64_t bytes = 0;
    for (const ReadRun &run : runs) {
        if (run.count == 0)
            continue;
        const std::vector<ReadColumns::Ends> &ends = run.chunk->reads.ends;
        const ReadColumns::Ends start =
            run.offset == 0 ? ReadColumns::Ends{} : ends[run.offset - 1];
        const ReadColumns::Ends &end = ends[run.offset + run.count - 1];
        bytes += (end.bases - start.bases) + (end.quals - start.quals);
    }
    return bytes;
}

} // namespace

// ---------------------------------------------------------------------
// RangeResult
// ---------------------------------------------------------------------

uint64_t
RangeResult::readCount() const
{
    uint64_t reads = 0;
    for (const ReadRun &run : runs)
        reads += run.size();
    return reads;
}

ReadResult
RangeResult::copyReads() const
{
    ReadResult out;
    out.status = status;
    out.error = error;
    out.reads.reserve(static_cast<size_t>(readCount()));
    for (const ReadRun &run : runs) {
        for (const ReadView read : run)
            out.reads.push_back(read.toRead());
    }
    return out;
}

// ---------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------

SageArchiveService::SageArchiveService(const ByteSource &source,
                                       ServiceOptions options)
    : decoder_(orExit(SageDecoder::tryOpen(source, options.dnaOnly))),
      options_(options),
      pool_(options.pool),
      cache_(options.cacheBudgetBytes, options.cacheShards)
{
    init();
}

SageArchiveService::SageArchiveService(const std::string &path,
                                       ServiceOptions options)
    : file_(std::make_unique<FileSource>(path)),
      decoder_(orExit(SageDecoder::tryOpen(*file_, options.dnaOnly))),
      options_(options),
      pool_(options.pool),
      cache_(options.cacheBudgetBytes, options.cacheShards)
{
    init();
}

SageArchiveService::SageArchiveService(
    std::unique_ptr<SageDecoder> decoder,
    std::unique_ptr<ByteSource> owned_source, ServiceOptions options)
    : file_(std::move(owned_source)),
      decoder_(std::move(decoder)),
      options_(options),
      pool_(options.pool),
      cache_(options.cacheBudgetBytes, options.cacheShards)
{
    sage_assert(decoder_ != nullptr,
                "service constructed without a decoder");
    init();
}

void
SageArchiveService::init()
{
    if (!pool_) {
        ownedPool_ =
            std::make_unique<ThreadPool>(options_.ownedPoolThreads);
        pool_ = ownedPool_.get();
    }
    chunkFirstRead_.reserve(decoder_->chunkCount());
    for (size_t c = 0; c < decoder_->chunkCount(); c++)
        chunkFirstRead_.push_back(decoder_->chunkFirstRead(c));
}

SageArchiveService::~SageArchiveService()
{
    // Drain: every enqueued request holds a reference to this service,
    // so teardown must wait until the last one has left runOne().
    std::unique_lock<std::mutex> lock(schedMutex_);
    schedIdle_.wait(lock,
                    [&] { return queued_ == 0 && executing_ == 0; });
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

RangeResult
SageArchiveService::runRequest(const RequestOptions &options,
                               const Stopwatch &clock, const Serve &serve)
{
    // Start-time QoS check: a request that sat out its deadline behind
    // a backlog (or was cancelled while queued) completes immediately
    // with its status — no decode, no assembly.
    RangeResult result;
    result.status = options.checkNow();
    if (result.status == RequestStatus::Ok) {
        // A throwing request (std::bad_alloc while assembling reads)
        // must not unwind past finishRequest(): the destructor's drain
        // would wait on it forever. Request failure is fatal.
        try {
            result = serve(options);
        } catch (const std::exception &error) {
            sage_fatal("service request failed with exception: ",
                       error.what());
        }
    }
    recordRequest(options.priority, clock.seconds(), result);
    return result;
}

void
SageArchiveService::schedule(RequestOptions options, Serve serve,
                             std::function<void(RangeResult)> done)
{
    const Stopwatch clock;  // Latency includes the queue wait.
    const RequestPriority priority = options.priority;
    std::function<void()> work = [this, clock,
                                  options = std::move(options),
                                  serve = std::move(serve),
                                  done = std::move(done)] {
        done(runRequest(options, clock, serve));
    };
    {
        std::lock_guard<std::mutex> lock(schedMutex_);
        queues_[static_cast<size_t>(priority)].push_back(
            std::move(work));
        // queued_/maxQueueDepth_ are written only under schedMutex_;
        // the atomics exist for queueDepth()'s lock-free readers, so
        // relaxed ordering suffices on this side too.
        const uint64_t depth =
            queued_.load(std::memory_order_relaxed) + 1;
        queued_.store(depth, std::memory_order_relaxed);
        if (depth > maxQueueDepth_.load(std::memory_order_relaxed))
            maxQueueDepth_.store(depth, std::memory_order_relaxed);
    }
    // The pool task is a generic "run the best queued request"
    // trampoline: the pool drains FIFO, but each trampoline re-picks
    // the highest-priority request at execution time, so Interactive
    // requests overtake queued Background work while equal priorities
    // keep arrival order.
    pool_->submit([this] { runOne(); });
}

void
SageArchiveService::runOne()
{
    std::function<void()> work;
    {
        std::lock_guard<std::mutex> lock(schedMutex_);
        for (auto &queue : queues_) {
            if (!queue.empty()) {
                work = std::move(queue.front());
                queue.pop_front();
                break;
            }
        }
        sage_assert(work != nullptr,
                    "scheduler trampoline found no queued request");
        queued_.store(queued_.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
        executing_++;
    }
    // The request body already turns a throwing serve into a fatal
    // error; this covers the callback, which must not unwind out of
    // the pool task either.
    try {
        work();
    } catch (const std::exception &error) {
        sage_fatal("service request callback failed with exception: ",
                   error.what());
    }
    finishRequest(false);
}

RangeResult
SageArchiveService::serveBlocking(const RequestOptions &options,
                                  Serve serve)
{
    if (startOnCaller(options.priority)) {
        const Stopwatch clock;
        RangeResult result = runRequest(options, clock, serve);
        finishRequest(true);
        return result;
    }
    auto promise = std::make_shared<std::promise<RangeResult>>();
    std::future<RangeResult> future = promise->get_future();
    schedule(options, std::move(serve), [promise](RangeResult result) {
        promise->set_value(std::move(result));
    });
    return future.get();
}

bool
SageArchiveService::startOnCaller(RequestPriority priority)
{
    std::lock_guard<std::mutex> lock(schedMutex_);
    // Never overtake a request the scheduler would run first (FIFO
    // within a priority, higher first), and never run more of this
    // service's requests on callers at once than the pool has workers
    // (which keep draining the queue beside them).
    if (onCallers_ >= pool_->threadCount())
        return false;
    for (size_t p = 0; p <= static_cast<size_t>(priority); p++) {
        if (!queues_[p].empty())
            return false;
    }
    onCallers_++;
    executing_++;
    return true;
}

void
SageArchiveService::finishRequest(bool on_caller)
{
    // Notify under the lock: once the destructor's drain wakes and
    // takes the mutex, the finished request no longer touches service
    // state.
    std::lock_guard<std::mutex> lock(schedMutex_);
    executing_--;
    if (on_caller)
        onCallers_--;
    if (queued_ == 0 && executing_ == 0)
        schedIdle_.notify_all();
}

// ---------------------------------------------------------------------
// Chunk plumbing
// ---------------------------------------------------------------------

size_t
SageArchiveService::chunkForRead(uint64_t read_index) const
{
    sage_assert(read_index < readCount(), "read index ", read_index,
                " out of range (", readCount(), " reads)");
    const auto it = std::upper_bound(chunkFirstRead_.begin(),
                                     chunkFirstRead_.end(), read_index);
    return static_cast<size_t>(it - chunkFirstRead_.begin()) - 1;
}

StatusOr<DecodedChunkPtr>
SageArchiveService::decodeChunkWithRetry(size_t chunk)
{
    for (unsigned attempt = 0;; attempt++) {
        // Fresh columns per attempt: a failed one leaves them partly
        // written.
        auto decoded = std::make_shared<DecodedChunk>();
        const Status status =
            decoder_->tryDecodeChunkShared(chunk, decoded->reads);
        if (status.ok()) {
            decoded->firstRead = decoder_->chunkFirstRead(chunk);
            decoded->bytes = decoded->reads.capacityBytes();
            return DecodedChunkPtr(std::move(decoded));
        }
        // Only plain I/O errors are worth retrying: a flaky device
        // may serve the same bytes fine a moment later. Corrupt or
        // truncated data is deterministic, and Exhausted means the
        // source already burned its own retry budget.
        if (status.code() == StatusCode::IoError &&
            attempt < options_.decodeRetries) {
            std::lock_guard<std::mutex> lock(statsMutex_);
            retries_++;
            continue;
        }
        recordChunkError(status);
        return status;
    }
}

void
SageArchiveService::recordChunkError(const Status &status)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    switch (status.code()) {
      case StatusCode::IoError:
      case StatusCode::Exhausted:
        ioErrors_++;
        break;
      default:
        corruptChunks_++;
        break;
    }
}

DecodedChunkPtr
SageArchiveService::fetchChunk(size_t chunk,
                               const RequestOptions &options,
                               RangeResult &outcome)
{
    DecodedChunkPtr data = cache_.getOrDecode(
        chunk,
        [this](size_t index) { return decodeChunkWithRetry(index); },
        options.abandonable() ? &options : nullptr, &outcome.error);
    if (data)
        return data;
    if (!outcome.error.ok()) {
        // The chunk failed to decode (I/O fault or corrupt bytes).
        // Only this request degrades: the cache kept no poisoned entry
        // and other chunks are untouched.
        outcome.status = RequestStatus::Error;
    } else {
        // Abandoned while coalesced-waiting on another request's
        // decode; the status check is sticky, so re-reading it names
        // the reason.
        outcome.status = options.checkNow();
        sage_assert(outcome.status != RequestStatus::Ok,
                    "null chunk from a live request");
    }
    return nullptr;
}

RangeResult
SageArchiveService::assembleRange(uint64_t first_read, uint64_t count,
                                  const RequestOptions &options)
{
    RangeResult result;
    const bool abandonable = options.abandonable();
    uint64_t pos = first_read;
    const uint64_t end = first_read + count;
    while (pos < end) {
        // The pre-decode QoS check: a chunk fetch is the expensive
        // step, so an expired/cancelled request abandons here rather
        // than decoding data nobody will consume. Runs already
        // collected are dropped — the contract is all-or-status.
        if (abandonable) {
            result.status = options.checkNow();
            if (result.status != RequestStatus::Ok) {
                result.runs.clear();
                return result;
            }
        }
        DecodedChunkPtr chunk =
            fetchChunk(chunkForRead(pos), options, result);
        if (!chunk) {
            result.runs.clear();
            return result;
        }
        const uint64_t chunk_end =
            chunk->firstRead + chunk->reads.size();
        const uint64_t take = std::min(end, chunk_end) - pos;
        const size_t offset =
            static_cast<size_t>(pos - chunk->firstRead);
        result.runs.push_back(
            ReadRun{std::move(chunk), offset, static_cast<size_t>(take)});
        pos += take;
    }
    return result;
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

void
SageArchiveService::recordRequest(RequestPriority priority,
                                  double seconds,
                                  const RangeResult &served)
{
    readsServed_.fetch_add(served.readCount(),
                           std::memory_order_relaxed);
    bytesServed_.fetch_add(payloadBytes(served.runs),
                           std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(statsMutex_);
    requests_++;
    requestsByPriority_[static_cast<size_t>(priority)]++;
    if (served.status == RequestStatus::Expired)
        expired_++;
    else if (served.status == RequestStatus::Cancelled)
        cancelled_++;
    else if (served.status == RequestStatus::Error)
        errored_++;
    latency_.record(seconds);
    latencyByPriority_[static_cast<size_t>(priority)].record(seconds);
}

void
SageArchiveService::checkSpan(uint64_t first_read, uint64_t count) const
{
    sage_assert(first_read <= readCount() &&
                count <= readCount() - first_read,
                "read range [", first_read, ", ", first_read + count,
                ") exceeds the archive's ", readCount(), " reads");
}

void
SageArchiveService::submit(uint64_t first_read, uint64_t count,
                           const RequestOptions &options,
                           std::function<void(RangeResult)> done)
{
    checkSpan(first_read, count);
    schedule(
        options,
        [this, first_read, count](const RequestOptions &live) {
            return assembleRange(first_read, count, live);
        },
        std::move(done));
}

ReadResult
SageArchiveService::readRange(uint64_t first_read, uint64_t count,
                              const RequestOptions &options)
{
    checkSpan(first_read, count);
    return serveBlocking(options,
                         [this, first_read,
                          count](const RequestOptions &live) {
                             return assembleRange(first_read, count,
                                                  live);
                         })
        .copyReads();
}

void
SageArchiveService::warmChunk(size_t chunk)
{
    if (chunk >= chunkCount() || cache_.contains(chunk))
        return;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        readaheadWarms_++;
    }
    RequestOptions options;
    options.priority = RequestPriority::Background;
    // A failed warm is already classified by the decode path; the
    // request record just notes it did not complete Ok.
    schedule(
        std::move(options),
        [this, chunk](const RequestOptions &live) {
            RangeResult outcome;
            fetchChunk(chunk, live, outcome);
            return outcome;
        },
        [](RangeResult) {});
}

ServiceStats
SageArchiveService::stats() const
{
    ServiceStats out;
    out.readsServed = readsServed_.load(std::memory_order_relaxed);
    out.bytesServed = bytesServed_.load(std::memory_order_relaxed);
    {
        // One atomic snapshot across both counter domains: holding
        // the scheduler and stats locks *together* means no request
        // can complete (statsMutex_) or be enqueued/dequeued
        // (schedMutex_) between the reads below, so cross-domain
        // invariants (requests == sum by priority, expired+cancelled
        // <= requests, queueDepth <= maxQueueDepth) hold in every
        // snapshot. Taking the locks one after the other — the
        // pre-QoS behavior — let a request slip between the two
        // acquisitions and skew the pair.
        std::scoped_lock lock(statsMutex_, schedMutex_);
        out.requests = requests_;
        out.requestsByPriority = requestsByPriority_;
        out.expired = expired_;
        out.cancelled = cancelled_;
        out.errored = errored_;
        out.ioErrors = ioErrors_;
        out.corruptChunks = corruptChunks_;
        out.retries = retries_;
        out.readaheadWarms = readaheadWarms_;
        out.latencySamples = latency_.count();
        out.meanLatencySeconds = latency_.meanSeconds();
        out.p50LatencySeconds = latency_.quantileSeconds(0.50);
        out.p99LatencySeconds = latency_.quantileSeconds(0.99);
        out.maxLatencySeconds = latency_.maxSeconds();
        for (size_t p = 0; p < kRequestPriorityCount; p++)
            out.latencyByPriority[p] = latencyByPriority_[p].summary();
        out.queueDepth = queued_;
        out.executing = executing_;
        out.maxQueueDepth = maxQueueDepth_;
    }
    out.cache = cache_.stats();
    return out;
}

// ---------------------------------------------------------------------
// ServiceSession
// ---------------------------------------------------------------------

uint64_t
ServiceSession::remaining() const
{
    return service_->readCount() - position_;
}

void
ServiceSession::seek(uint64_t read_index)
{
    sage_assert(read_index <= service_->readCount(),
                "seek past end of archive");
    position_ = read_index;
    chunk_.reset();
}

bool
ServiceSession::ensureChunk()
{
    if (chunk_ && position_ >= chunk_->firstRead &&
        position_ < chunk_->firstRead + chunk_->reads.size()) {
        return true;
    }
    // Abandonment is sticky; a chunk-decode Error is not — a later
    // call retries the fetch (the fault may have been transient, and
    // the cache kept no poisoned entry).
    if (status_ == RequestStatus::Expired ||
        status_ == RequestStatus::Cancelled) {
        return false;
    }
    // A chunk fetch is a blocking request like readRange: it runs on
    // this thread when the scheduler has nothing of its priority or
    // higher queued, and is queued otherwise, so a flood of
    // Background warms cannot starve it. The session's token/deadline
    // covers every fetch it issues. The fetched chunk travels beside
    // the RangeResult; serveBlocking() returns only once the request
    // has completed, so the local outlives every write to it.
    const size_t index = service_->chunkForRead(position_);
    DecodedChunkPtr fetched;
    const RangeResult outcome = service_->serveBlocking(
        options_, [service = service_, index,
                   &fetched](const RequestOptions &live) {
            RangeResult outcome;
            fetched = service->fetchChunk(index, live, outcome);
            // Speculate the client's next sequential chunk into the
            // cache as queued Background work — the serving-layer
            // analogue of the reader's prefetch-next-chunk mode, but
            // per client and deduplicated by the cache's single-flight
            // machinery. Pointless without a retaining cache (the
            // warm's decode would be evicted on insert and re-done when
            // the session arrives), so a zero budget disables it.
            if (fetched && service->options_.sessionReadahead &&
                service->cache_.budgetBytes() > 0) {
                service->warmChunk(index + 1);
            }
            return outcome;
        });
    status_ = outcome.status;
    chunk_ = std::move(fetched);
    return chunk_ != nullptr;
}

Read
ServiceSession::next()
{
    sage_assert(hasNext(), "session exhausted");
    sage_assert(ensureChunk(), "session ",
                requestStatusName(status_),
                " - poll lastStatus() or use read()");
    Read read =
        chunk_->reads[static_cast<size_t>(position_ - chunk_->firstRead)]
            .toRead();
    position_++;
    service_->readsServed_.fetch_add(1, std::memory_order_relaxed);
    service_->bytesServed_.fetch_add(
        read.bases.size() + read.quals.size(),
        std::memory_order_relaxed);
    return read;
}

std::vector<Read>
ServiceSession::read(uint64_t count)
{
    count = std::min(count, remaining());
    std::vector<Read> out;
    out.reserve(static_cast<size_t>(count));
    uint64_t taken_bytes = 0;
    while (count > 0) {
        if (!ensureChunk())
            break;  // Cancelled/expired: deliver what is assembled.
        const uint64_t chunk_end =
            chunk_->firstRead + chunk_->reads.size();
        const uint64_t take = std::min(count, chunk_end - position_);
        for (uint64_t i = 0; i < take; i++) {
            const ReadView read = chunk_->reads[static_cast<size_t>(
                position_ - chunk_->firstRead + i)];
            taken_bytes += read.bases.size() + read.quals.size();
            out.push_back(read.toRead());
        }
        position_ += take;
        count -= take;
    }
    service_->readsServed_.fetch_add(out.size(),
                                     std::memory_order_relaxed);
    service_->bytesServed_.fetch_add(taken_bytes,
                                     std::memory_order_relaxed);
    return out;
}

} // namespace sage
