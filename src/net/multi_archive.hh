/**
 * @file
 * MultiArchiveService: N SAGe archives behind one byte budget.
 *
 * The single-archive SageArchiveService (service/service.hh) solves
 * many-clients-one-archive; a repository server faces
 * many-clients-many-archives, where the open-archive set itself must
 * be managed. This layer owns a directory of `.sage` archives and
 * fronts them with:
 *
 *   - an open-archive LRU: at most maxOpenArchives archives are open
 *     (decoder + cache partition) at once; opening one more lazily
 *     closes the coldest. "Lazily" is structural — the registry drops
 *     its reference, but requests already admitted against the
 *     evicted archive hold shared ownership and drain normally; the
 *     decoder and its cache partition are destroyed when the last
 *     in-flight request completes. A later request against an evicted
 *     archive transparently reopens it (counted in stats().reopens)
 *     with the same archive id.
 *   - cache partitioning: the global decoded-chunk budget is split
 *     evenly across the open-archive slots, so an eviction returns
 *     its partition's bytes to the budget and a reopen reclaims them;
 *   - recoverable opens: a bad name, missing file, or corrupt archive
 *     produces a Status (and, upstream, an error reply), never a
 *     crash — this is the layer remote clients' OPEN frames land on;
 *   - admission control: when the summed scheduler queue depth across
 *     open archives reaches admissionHighWater, new read requests are
 *     shed as Admission::Overloaded before they are enqueued (the
 *     caller turns that into an Overloaded reply; the client retries
 *     with backoff). The depth probe is a relaxed atomic read per
 *     archive (SageArchiveService::queueDepth()), not a stats()
 *     snapshot, so admission costs no lock on the hot path.
 *
 * Thread safety: every public method is safe to call concurrently.
 * The registry lock covers name→id lookup, LRU bookkeeping and
 * open/evict; request execution happens outside it on the shared
 * worker pool.
 */

#ifndef SAGE_NET_MULTI_ARCHIVE_HH
#define SAGE_NET_MULTI_ARCHIVE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/service.hh"

namespace sage {

class FaultInjectionSource;

/** Multi-archive construction knobs. */
struct MultiArchiveOptions
{
    /** Decoded-chunk budget shared by every open archive; each of the
     *  maxOpenArchives slots gets an equal partition. */
    uint64_t globalCacheBudgetBytes = 256ull << 20;

    /** Open-archive LRU capacity (decoders + cache partitions held
     *  live at once). Minimum 1. */
    unsigned maxOpenArchives = 8;

    /** Cache shards per archive partition. */
    unsigned cacheShards = 8;

    /** Shed new read requests once the summed queue depth across open
     *  archives reaches this; 0 disables admission control. */
    uint64_t admissionHighWater = 0;

    /** Shared worker pool (must outlive the service); when null the
     *  service owns one of ownedPoolThreads workers. */
    ThreadPool *pool = nullptr;
    unsigned ownedPoolThreads = 0;

    /** Forwarded to each per-archive ServiceOptions. */
    unsigned decodeRetries = 2;

    /** Server-side fault injection on archive reads (sage_cli serve
     *  --fault-rate/--fault-seed): every opened archive's FileSource
     *  is wrapped in a FaultInjectionSource injecting I/O errors at
     *  this per-read probability. 0 disables. */
    double faultRate = 0.0;
    uint64_t faultSeed = 1;
};

/** What the registry decided about a read request. */
enum class Admission : uint8_t {
    Admitted,        ///< Enqueued; the callback will run exactly once.
    Overloaded,      ///< Shed by the high-water mark; retry later.
    UnknownArchive,  ///< No such archive id, or its (re)open failed.
    BadRange,        ///< Span/chunk outside the archive.
};

/** OPEN's view of an archive. */
struct ArchiveMeta
{
    uint32_t id = 0;
    uint64_t readCount = 0;
    uint64_t chunkCount = 0;
};

/** Registry-level counters plus sums over live archives. */
struct MultiArchiveStats
{
    uint64_t opens = 0;      ///< First-time archive opens.
    uint64_t reopens = 0;    ///< Transparent reopens after eviction.
    uint64_t evictions = 0;  ///< LRU closes (capacity pressure).
    uint64_t closes = 0;     ///< Explicit client closes.
    uint64_t admitted = 0;
    uint64_t overloaded = 0;

    uint32_t openArchives = 0;
    uint32_t knownArchives = 0;  ///< Names ever opened (id space).

    /** Sum of open partitions' resident cache bytes, their combined
     *  budget, and the per-slot partition size. */
    uint64_t cacheBytesReserved = 0;
    uint64_t cacheBudgetBytes = 0;
    uint64_t partitionBytes = 0;

    /** Summed scheduler queue depth across open archives. */
    uint64_t queueDepth = 0;

    /** Request/byte tallies summed over open archives plus the
     *  accumulated totals of every closed one. */
    uint64_t requests = 0;
    uint64_t readsServed = 0;
    uint64_t bytesServed = 0;
    uint64_t expired = 0;
    uint64_t cancelled = 0;
    uint64_t errored = 0;
};

/** A directory of archives served under one budget (see file docs). */
class MultiArchiveService
{
  public:
    /** Serve `<root>/<name>` for every OPEN name. Never fatal: the
     *  directory itself is probed lazily, per open. */
    explicit MultiArchiveService(std::string root,
                                 MultiArchiveOptions options = {});

    /** Drains in-flight requests (and their completion callbacks)
     *  before tearing down. */
    ~MultiArchiveService();

    MultiArchiveService(const MultiArchiveService &) = delete;
    MultiArchiveService &operator=(const MultiArchiveService &) =
        delete;

    /** Open (or re-touch) archive @p name. Ids are stable across
     *  eviction and reopen. */
    StatusOr<ArchiveMeta> open(const std::string &name);

    /** Metadata of an already-opened id. */
    StatusOr<ArchiveMeta> describe(uint32_t archive) const;

    /** Drop the registry's reference (in-flight requests drain; the
     *  id stays valid and a later request reopens). */
    Status closeArchive(uint32_t archive);

    /**
     * Admit-or-shed a range read. On Admitted, @p done runs exactly
     * once on a worker thread with the outcome, passed through from
     * SageArchiveService::submit as runs over the archive's cached
     * chunks (they stay valid after the archive is evicted or closed);
     * on any other verdict @p done is never called and @p reject (when
     * non-null) holds the reason. @p done must not block on
     * synchronous requests to this service (it holds a pool worker).
     */
    Admission readRange(uint32_t archive, uint64_t first,
                        uint64_t count, const RequestOptions &options,
                        std::function<void(RangeResult)> done,
                        Status *reject = nullptr);

    /** Chunk flavor (translated to the chunk's read span). */
    Admission readChunk(uint32_t archive, uint64_t chunk,
                        const RequestOptions &options,
                        std::function<void(RangeResult)> done,
                        Status *reject = nullptr);

    /** Blocking conveniences for tests and in-process callers: the
     *  runs are copied into owned reads on the calling thread. */
    struct SyncOutcome
    {
        Admission admission = Admission::Admitted;
        Status reject;       ///< Why not Admitted.
        ReadResult result;   ///< Valid when Admitted.
    };
    SyncOutcome readRangeSync(uint32_t archive, uint64_t first,
                              uint64_t count,
                              const RequestOptions &options = {});
    SyncOutcome readChunkSync(uint32_t archive, uint64_t chunk,
                              const RequestOptions &options = {});

    /** Summed scheduler queue depth across open archives (relaxed
     *  reads under the registry lock). */
    uint64_t queueDepth() const;

    MultiArchiveStats stats() const;

    ThreadPool &pool() { return *pool_; }
    const std::string &root() const { return root_; }
    uint64_t partitionBytes() const { return partitionBytes_; }

  private:
    /** One open archive: the service plus the byte stack under it.
     *  shared_ptr-held so eviction is lazy (see file docs). Members
     *  destroy bottom-up: service (drains its queue) before the fault
     *  wrapper before the file. */
    struct OpenArchive
    {
        std::unique_ptr<FileSource> file;
        std::unique_ptr<FaultInjectionSource> fault;
        std::unique_ptr<SageArchiveService> service;
    };

    /** Registry entry; lives forever once a name is seen (ids are
     *  dense indices into entries_). */
    struct Entry
    {
        std::string name;
        std::string path;
        uint32_t id = 0;
        bool everOpened = false;
        uint64_t readCount = 0;
        uint64_t chunkCount = 0;
        uint64_t lastUse = 0;  ///< LRU tick of the last touch.
        std::shared_ptr<OpenArchive> open;  ///< Null when closed.
    };

    /** Reject path traversal and other hostile names. */
    static Status validateName(const std::string &name);

    Entry *entryForLocked(uint32_t archive);
    const Entry *entryForLocked(uint32_t archive) const;

    /** Ensure @p entry is open, evicting past the LRU cap first.
     *  Evicted archives are *moved* into @p evicted so the caller
     *  releases them outside the registry lock (their teardown can
     *  drain a request queue). */
    StatusOr<std::shared_ptr<OpenArchive>>
    ensureOpenLocked(Entry &entry,
                     std::vector<std::shared_ptr<OpenArchive>> &evicted);

    /** Fold @p entry's service counters into the retired totals and
     *  drop the registry reference (into @p evicted). */
    void retireLocked(Entry &entry,
                      std::vector<std::shared_ptr<OpenArchive>> &evicted);

    uint64_t queueDepthLocked() const;

    /** Admitted-request completion bookkeeping (dtor drain). */
    void finishRequest();

    /** Shared admit/enqueue tail of readRange/readChunk. */
    Admission admitRange(uint32_t archive, uint64_t first,
                         uint64_t count, const RequestOptions &options,
                         std::function<void(RangeResult)> done,
                         Status *reject, bool chunk_addressed,
                         uint64_t chunk);

    MultiArchiveOptions options_;
    std::string root_;
    uint64_t partitionBytes_ = 0;
    std::unique_ptr<ThreadPool> ownedPool_;
    ThreadPool *pool_ = nullptr;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Entry>> entries_;
    std::unordered_map<std::string, uint32_t> byName_;
    uint64_t useTick_ = 0;
    unsigned openCount_ = 0;

    // Registry counters (under mutex_).
    uint64_t opens_ = 0;
    uint64_t reopens_ = 0;
    uint64_t evictions_ = 0;
    uint64_t closes_ = 0;
    uint64_t admitted_ = 0;
    uint64_t overloaded_ = 0;

    // Accumulated totals of closed archives (under mutex_).
    uint64_t retiredRequests_ = 0;
    uint64_t retiredReads_ = 0;
    uint64_t retiredBytes_ = 0;
    uint64_t retiredExpired_ = 0;
    uint64_t retiredCancelled_ = 0;
    uint64_t retiredErrored_ = 0;

    // In-flight admitted requests; the destructor waits for zero so a
    // completion callback never touches a dead service.
    std::atomic<uint64_t> inflight_{0};
    mutable std::mutex drainMutex_;
    std::condition_variable drainCv_;
};

} // namespace sage

#endif // SAGE_NET_MULTI_ARCHIVE_HH
