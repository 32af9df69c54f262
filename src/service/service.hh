/**
 * @file
 * SageArchiveService: a concurrent, multi-client serving layer over
 * one open SAGe archive.
 *
 * The paper's thesis is that decode stops being the bottleneck once
 * it is cheap and overlapped with I/O (§5.2); this layer addresses
 * the next bottleneck at scale — many consumers of the *same*
 * archive each re-reading and re-decoding the same chunks. The
 * service owns an open archive (any ByteSource: file, memory, or a
 * striped device array) and serves N clients through:
 *
 *   - a sharded, byte-budgeted, scan-resistant cache of decoded
 *     chunks (service/chunk_cache.hh: SIEVE-style admission with a
 *     ghost set) with single-flight decode, so a hot chunk is
 *     decompressed once no matter how many clients want it and a
 *     64-client sequential sweep cannot flush it;
 *   - a request scheduler that drains requests onto a shared
 *     util/thread_pool in FIFO-within-priority order (an Interactive
 *     request overtakes queued Background warms, requests of equal
 *     priority run in arrival order);
 *   - per-request QoS (service/qos.hh): RequestOptions carry a
 *     deadline and a CancelToken, checked when the request starts
 *     (dequeued, or begun on its caller) and before each chunk
 *     decode, so an interactive request abandons the queue instead
 *     of waiting out a deep batch backlog; expired/cancelled requests
 *     complete with a distinct RequestStatus and are counted in
 *     ServiceStats;
 *   - per-client ServiceSession handles that track sequential
 *     position, letting the service speculate each client's next
 *     chunk into the cache (the serving-layer analogue of
 *     SageReaderOptions::prefetchPool);
 *   - ServiceStats: request/byte counters, cache hit rate, queue
 *     depth, and request latency both overall and per priority class
 *     (util/histogram.hh's LatencyHistogram), snapshotted
 *     consistently against scheduler mutation.
 *
 * There is one request primitive, submit(first, count, options, done):
 * a stored-order span of reads (chunk boundaries are crossed
 * transparently; a whole chunk is chunkFirstRead(c),
 * chunkReadCount(c)) whose outcome is handed to @p done on a pool
 * worker as a RangeResult — ReadRuns over the cached chunks, which
 * pin those chunks while held and yield ReadViews into their columns;
 * no read is copied. The blocking calls, readRange() and a session's
 * chunk fetch, run the same request body: on the calling thread when
 * no request of equal or higher priority is queued and fewer than
 * pool().threadCount() of this service's requests already run on
 * their callers, otherwise queued and waited for like a submit().
 * readRange() then copies the runs into owned reads on its caller.
 * The pool's workers keep draining the queue meanwhile, so a service
 * runs up to twice pool().threadCount() requests at once.
 * See docs/service.md for the chunk representation, the cache and
 * scheduling model, and sizing guidance.
 */

#ifndef SAGE_SERVICE_SERVICE_HH
#define SAGE_SERVICE_SERVICE_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/decoder.hh"
#include "io/file_stream.hh"
#include "service/chunk_cache.hh"
#include "service/qos.hh"
#include "util/histogram.hh"
#include "util/timing.hh"

namespace sage {

class ThreadPool;

/** Service construction knobs. */
struct ServiceOptions
{
    /** Decoded-chunk cache budget. The decoded working set is roughly
     *  the FASTQ size of the cached span (docs/service.md has sizing
     *  guidance); 0 disables retention (every request decodes). */
    uint64_t cacheBudgetBytes = 256ull << 20;

    /** Cache shards (lock striping; power of two recommended). */
    unsigned cacheShards = 8;

    /** Skip host-side header/quality streams, like
     *  SageReaderOptions::dnaOnly (accelerator-feeding deployments). */
    bool dnaOnly = false;

    /** Worker pool the scheduler drains onto (must outlive the
     *  service). When null the service owns a pool of
     *  @ref ownedPoolThreads workers. It bounds only the queued
     *  path: each service sharing it also runs up to threadCount()
     *  blocking requests on their callers. */
    ThreadPool *pool = nullptr;

    /** Owned-pool size when @ref pool is null (0 = hardware
     *  concurrency). */
    unsigned ownedPoolThreads = 0;

    /** Speculate each session's next chunk into the cache as a
     *  Background request when its sequential walk crosses a chunk
     *  boundary. */
    bool sessionReadahead = true;

    /** Re-attempts of a chunk decode that failed with a *transient*
     *  I/O error (StatusCode::IoError) before the failure is delivered
     *  to the request. Corrupt/truncated data never retries — bad
     *  bytes stay bad. 0 makes every fault surface immediately
     *  (deterministic counter tests want this). */
    unsigned decodeRetries = 2;
};

/** What a blocking request (readRange) completed with: owned reads. */
struct ReadResult
{
    RequestStatus status = RequestStatus::Ok;
    /** Empty unless status == Ok (an abandoned or errored request
     *  delivers no partial data — the reads it did assemble are
     *  dropped). */
    std::vector<Read> reads;
    /** Why status == Error, when it is (the failing chunk's decode
     *  Status: IoError, Corrupt, ...); Ok otherwise. */
    Status error;

    bool ok() const { return status == RequestStatus::Ok; }
};

/**
 * Reads [offset, offset + count) of one decoded chunk, by reference:
 * it yields ReadViews into the chunk's columns. The chunk pointer pins
 * the chunk: an eviction only drops the cache's reference, so a held
 * run and the views it yields stay valid (and its memory stays
 * allocated, outside the cache budget) until the run is released.
 */
struct ReadRun
{
    DecodedChunkPtr chunk;
    size_t offset = 0;  ///< Index of the run's first read in chunk->reads.
    size_t count = 0;

    ReadColumns::Iterator
    begin() const
    {
        return ReadColumns::Iterator(&chunk->reads, offset);
    }

    ReadColumns::Iterator
    end() const
    {
        return ReadColumns::Iterator(&chunk->reads, offset + count);
    }

    size_t size() const { return count; }
};

/** What submit() completed with: the span as runs over cached chunks,
 *  in stored order (one run per covering chunk). */
struct RangeResult
{
    RequestStatus status = RequestStatus::Ok;
    /** Empty unless status == Ok (all-or-status, as for ReadResult). */
    std::vector<ReadRun> runs;
    /** Why status == Error, when it is; Ok otherwise. */
    Status error;

    bool ok() const { return status == RequestStatus::Ok; }

    /** Reads across every run. */
    uint64_t readCount() const;

    /** The owned form: status, error and every run's reads built
     *  from their views. */
    ReadResult copyReads() const;
};

/** Snapshot of the service's counters (see stats()). */
struct ServiceStats
{
    /** Completed requests (every status), total and per priority. */
    uint64_t requests = 0;
    std::array<uint64_t, kRequestPriorityCount> requestsByPriority{};

    /** Requests that completed Expired / Cancelled / Error (subsets
     *  of @ref requests; the remainder completed Ok). */
    uint64_t expired = 0;
    uint64_t cancelled = 0;
    uint64_t errored = 0;

    /** Chunk decodes that ultimately failed with an I/O-side fault
     *  (IoError after retries, or an exhausted retry budget). Counted
     *  once per failed decode, not per affected request — coalesced
     *  waiters share their leader's count, so these reconcile with
     *  fault-injection counters. */
    uint64_t ioErrors = 0;

    /** Chunk decodes rejected for bad bytes (Corrupt / Truncated /
     *  OutOfRange). Same once-per-decode accounting as ioErrors. */
    uint64_t corruptChunks = 0;

    /** Transient-fault decode re-attempts (each successful retry is
     *  a request that degraded gracefully instead of erroring). */
    uint64_t retries = 0;

    uint64_t readsServed = 0;  ///< Reads delivered to clients.
    uint64_t bytesServed = 0;  ///< Payload bytes (bases + quality).

    /** Requests queued / executing right now, and the queue's
     *  high-water mark. */
    uint64_t queueDepth = 0;
    uint64_t executing = 0;
    uint64_t maxQueueDepth = 0;

    /** Background cache warms issued by session readahead. */
    uint64_t readaheadWarms = 0;

    /** Cache counters (hit rate, evictions, ghost hits, resident). */
    ChunkCacheStats cache;

    /** Request latency, enqueue to completion, across every priority
     *  class (kept for compatibility — the per-priority summaries
     *  below are the ones to alert on: this mix dilutes an
     *  interactive p99 with background warms that by design soak at
     *  the queue tail). */
    uint64_t latencySamples = 0;
    double meanLatencySeconds = 0.0;
    double p50LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
    double maxLatencySeconds = 0.0;

    /** Latency split by priority class (index by RequestPriority). */
    std::array<LatencySummary, kRequestPriorityCount>
        latencyByPriority{};
};

class SageArchiveService;

/**
 * Per-client handle: a sequential cursor over the archive served
 * through the shared cache. Cheap to create (no decode until the
 * first read); must not outlive its service. Not thread-safe — one
 * session per client thread, any number of sessions per service.
 *
 * A session opened with RequestOptions carrying a CancelToken (or
 * deadline) stops fetching once it fires: read() returns the reads
 * assembled so far (possibly none) and lastStatus() reports why. The
 * cancel check is chunk-grained — reads already resident are still
 * returned.
 *
 * A chunk that fails to decode (I/O fault, corrupt bytes) surfaces as
 * lastStatus() == RequestStatus::Error with the cursor parked before
 * the bad chunk. Unlike cancellation/expiry the condition is not
 * sticky: the next read()/next() retries the fetch.
 */
class ServiceSession
{
  public:
    /** Stored-order index of the next read this session returns. */
    uint64_t position() const { return position_; }

    /** Reads left until the archive is exhausted. */
    uint64_t remaining() const;

    bool hasNext() const { return remaining() > 0; }

    /** Next read in stored order (copies out of the shared decoded
     *  chunk; chunk-grained fetches + readahead behind the scenes).
     *  Fatal on a cancelled/expired session — poll lastStatus() or
     *  use read() when the session carries a token. */
    Read next();

    /** Next @p count reads in stored order (clamped to remaining;
     *  stops short when the session's token/deadline fires). */
    std::vector<Read> read(uint64_t count);

    /** Jump the cursor (a non-sequential client). */
    void seek(uint64_t read_index);

    /** Ok until the session's deadline/cancellation fired. */
    RequestStatus lastStatus() const { return status_; }

  private:
    friend class SageArchiveService;
    ServiceSession(SageArchiveService &service, RequestOptions options)
        : service_(&service), options_(std::move(options))
    {}

    /** Ensure chunk_ covers position_ (fetch + readahead on miss).
     *  Returns false when the fetch was abandoned (status_ set). */
    bool ensureChunk();

    SageArchiveService *service_;
    RequestOptions options_;
    RequestStatus status_ = RequestStatus::Ok;
    uint64_t position_ = 0;
    DecodedChunkPtr chunk_;  ///< Shared decoded chunk under the cursor.
};

/** Concurrent multi-client server over one open archive. */
class SageArchiveService
{
  public:
    /** Serve @p source (must outlive the service). A bad archive
     *  exits 1 with its Status printed (SageDecoder::tryOpen +
     *  orExit). */
    explicit SageArchiveService(const ByteSource &source,
                                ServiceOptions options = {});

    /** Serve a file (owned FileSource; exits like the source
     *  constructor, naming the path). */
    explicit SageArchiveService(const std::string &path,
                                ServiceOptions options = {});

    /** Serve a pre-opened decoder (and optionally the source it reads
     *  from). This is the recoverable-open path: callers that must not
     *  die on a bad archive — the network front end in particular —
     *  open via SageDecoder::tryOpen() and hand the result here.
     *  ServiceOptions::dnaOnly is ignored (decided at tryOpen time). */
    SageArchiveService(std::unique_ptr<SageDecoder> decoder,
                       std::unique_ptr<ByteSource> owned_source,
                       ServiceOptions options = {});

    /** Drains outstanding requests before tearing down. */
    ~SageArchiveService();

    SageArchiveService(const SageArchiveService &) = delete;
    SageArchiveService &operator=(const SageArchiveService &) = delete;

    // ---- structure ---------------------------------------------------

    const ArchiveInfo &info() const { return decoder_->info(); }
    size_t chunkCount() const { return decoder_->chunkCount(); }
    uint64_t readCount() const { return info().params.numReads; }

    /** Stored-order index of chunk @p chunk's first read. */
    uint64_t
    chunkFirstRead(size_t chunk) const
    {
        return decoder_->chunkFirstRead(chunk);
    }

    /** Number of reads stored in chunk @p chunk. */
    uint64_t
    chunkReadCount(size_t chunk) const
    {
        return decoder_->chunkReadCount(chunk);
    }

    // ---- requests ----------------------------------------------------

    /**
     * The request primitive: reads [@p first_read, @p first_read +
     * @p count) in stored order, assembled from the covering chunks
     * through the cache (a whole chunk is chunkFirstRead(c),
     * chunkReadCount(c)). The request is queued at
     * @p options.priority; its deadline and CancelToken are checked
     * when the scheduler dequeues it and again before each chunk
     * decode, so an abandoned request completes Expired/Cancelled with
     * no reads instead of occupying a worker behind a deep backlog.
     *
     * @p done runs exactly once, on a pool worker (never the calling
     * thread, unlike readRange()'s request), with the outcome: the
     * span as ReadRuns over the cached chunks, nothing copied. The
     * runs pin their chunks for as long as the result is held
     * (outside the cache budget), so a consumer that serializes them
     * — the network server's reply encoder — should release them once
     * done. @p done must not block on another
     * request to this service (it would occupy the worker it is
     * waiting for). Fatal on an out-of-range span.
     *
     * Request latency (stats()) stops when the runs are ready, before
     * @p done runs.
     */
    void submit(uint64_t first_read, uint64_t count,
                const RequestOptions &options,
                std::function<void(RangeResult)> done);

    /**
     * The span submit() would serve, as owned reads
     * (RangeResult::copyReads, on the calling thread). The request
     * runs on the calling thread when no request of equal or higher
     * priority is queued and fewer than pool().threadCount() of this
     * service's requests run on their callers already; otherwise it
     * is queued at @p options.priority and the caller blocks until a
     * pool worker has served it. Either way it is QoS-checked, timed
     * and counted like a submit(). Must not be called from a submit()
     * callback: queued, it would wait for the worker it occupies.
     */
    ReadResult readRange(uint64_t first_read, uint64_t count,
                         const RequestOptions &options = {});

    // ---- sessions / cache control ------------------------------------

    /** Open a sequential per-client cursor; @p options (priority,
     *  deadline, CancelToken) apply to every chunk fetch the session
     *  issues. */
    ServiceSession
    openSession(const RequestOptions &options = {})
    {
        return ServiceSession(*this, options);
    }

    /**
     * Fire-and-forget cache warm of @p chunk at Background priority
     * (no-op when resident or out of range). Single-flight makes
     * duplicate warms free.
     */
    void warmChunk(size_t chunk);

    /** True when @p chunk is resident in the cache right now (no stats
     *  impact; an introspection helper like ChunkCache::contains). */
    bool chunkResident(size_t chunk) const
    {
        return cache_.contains(chunk);
    }

    /** Counter snapshot, consistent against concurrent scheduler and
     *  request-completion mutation (both domains are locked for the
     *  read, so e.g. requests == sum(requestsByPriority) always
     *  holds). */
    ServiceStats stats() const;

    /** The worker pool requests execute on. */
    ThreadPool &pool() { return *pool_; }

    /**
     * Requests enqueued but not yet started, as a single relaxed
     * atomic load. The admission-control hot path (net/ front end)
     * polls this per incoming request, so it must not contend with the
     * scheduler or stats locks the way a full stats() snapshot does.
     * The value is exact under schedMutex_ and momentarily stale
     * without it — fine for a high-water-mark comparison.
     */
    uint64_t
    queueDepth() const
    {
        return queued_.load(std::memory_order_relaxed);
    }

  private:
    friend class ServiceSession;

    /** Shared constructor tail (pool setup, chunk prefix table). */
    void init();

    /** Chunk containing stored-order read @p read_index. */
    size_t chunkForRead(uint64_t read_index) const;

    /** Cache-mediated decoded chunk (single-flight on cold misses).
     *  On nullptr, @p outcome says why: Error with the decode's Status
     *  (for the decoding leader and every coalesced waiter alike), or
     *  Expired/Cancelled when abandonable @p options fired during a
     *  coalesced wait. */
    DecodedChunkPtr fetchChunk(size_t chunk,
                               const RequestOptions &options,
                               RangeResult &outcome);

    /** Decode @p chunk into columns (the decoder's columnar
     *  tryDecodeChunkShared), charged at their capacity, with the
     *  transient-retry policy applied: IoError re-attempts up to
     *  ServiceOptions::decodeRetries times (counted in
     *  stats().retries); a terminal failure is classified into
     *  ioErrors/corruptChunks exactly once. */
    StatusOr<DecodedChunkPtr> decodeChunkWithRetry(size_t chunk);

    /** Classify a terminal chunk-decode failure into the counters. */
    void recordChunkError(const Status &status);

    /** Fatal unless [first, first+count) lies inside the archive. */
    void checkSpan(uint64_t first_read, uint64_t count) const;

    /** Collect [first, first+count) as runs over cached chunks (no
     *  read is copied), re-checking @p options before each chunk
     *  decode. */
    RangeResult assembleRange(uint64_t first_read, uint64_t count,
                              const RequestOptions &options);

    /** What a request does once it runs: the outcome it completes
     *  with, given its (still live) options. */
    using Serve = std::function<RangeResult(const RequestOptions &)>;

    /**
     * The request body, on whichever thread runs the request: complete
     * it with its QoS status if it expired or was cancelled before it
     * started (or else run @p serve), then record it with its latency
     * since @p clock started.
     */
    RangeResult runRequest(const RequestOptions &options,
                           const Stopwatch &clock, const Serve &serve);

    /**
     * The queued path behind submit(), readahead warms and blocking
     * calls that may not run on their caller: time the request from
     * enqueue, queue it at @p options.priority, and on a pool worker
     * run the request body, then hand the outcome to @p done.
     */
    void schedule(RequestOptions options, Serve serve,
                  std::function<void(RangeResult)> done);

    /** Pop and run the oldest request of the best priority. */
    void runOne();

    /**
     * The blocking calls' path: run the request body on the calling
     * thread when startOnCaller() allows it, else schedule() it and
     * wait for its outcome.
     */
    RangeResult serveBlocking(const RequestOptions &options, Serve serve);

    /** Claim a caller-run slot for a request of @p priority: true (and
     *  counted executing) when no request of equal or higher priority
     *  is queued and fewer than pool().threadCount() of this
     *  service's requests run on callers. The pool's workers are not
     *  counted: they run queued requests beside the callers. */
    bool startOnCaller(RequestPriority priority);

    /** A running request has finished (@p on_caller: it held a
     *  caller-run slot); wakes the destructor's drain when idle. */
    void finishRequest(bool on_caller);

    /** Record a completed request's latency, status and the payload
     *  its runs deliver. */
    void recordRequest(RequestPriority priority, double seconds,
                       const RangeResult &served);

    /** Owned for the path and pre-opened-decoder ctors. */
    std::unique_ptr<ByteSource> file_;
    std::unique_ptr<SageDecoder> decoder_;
    ServiceOptions options_;
    std::unique_ptr<ThreadPool> ownedPool_;
    ThreadPool *pool_;
    ChunkCache cache_;

    /** Prefix read-start of every chunk (chunkForRead binary search). */
    std::vector<uint64_t> chunkFirstRead_;

    // Scheduler state: one deque per priority, drained best-first.
    mutable std::mutex schedMutex_;
    std::condition_variable schedIdle_;
    std::array<std::deque<std::function<void()>>, kRequestPriorityCount>
        queues_;
    /** Requests enqueued, not yet started. Mutated only under
     *  schedMutex_; atomic so queueDepth() can read it lock-free. */
    std::atomic<uint64_t> queued_{0};
    uint64_t executing_ = 0;    ///< Requests currently running.
    uint64_t onCallers_ = 0;    ///< Of those, run on their callers.
    std::atomic<uint64_t> maxQueueDepth_{0};

    // Counter state (separate lock: hot request completions must not
    // contend with scheduling; stats() alone takes both locks at once
    // so its snapshot is consistent across the two domains). The
    // served tallies are atomics, not mutex-guarded: sessions bump
    // them per delivered read — the hottest path in the service — and
    // must not serialize every client on one lock.
    mutable std::mutex statsMutex_;
    uint64_t requests_ = 0;
    std::array<uint64_t, kRequestPriorityCount> requestsByPriority_{};
    uint64_t expired_ = 0;
    uint64_t cancelled_ = 0;
    uint64_t errored_ = 0;
    uint64_t ioErrors_ = 0;
    uint64_t corruptChunks_ = 0;
    uint64_t retries_ = 0;
    std::atomic<uint64_t> readsServed_{0};
    std::atomic<uint64_t> bytesServed_{0};
    uint64_t readaheadWarms_ = 0;
    LatencyHistogram latency_;
    std::array<LatencyHistogram, kRequestPriorityCount>
        latencyByPriority_{};
};

} // namespace sage

#endif // SAGE_SERVICE_SERVICE_HH
