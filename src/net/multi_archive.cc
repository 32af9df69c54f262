#include "net/multi_archive.hh"

#include <algorithm>
#include <future>
#include <utility>

#include "io/fault_injection.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace sage {

MultiArchiveService::MultiArchiveService(std::string root,
                                         MultiArchiveOptions options)
    : options_(options), root_(std::move(root))
{
    options_.maxOpenArchives = std::max(1u, options_.maxOpenArchives);
    partitionBytes_ =
        options_.globalCacheBudgetBytes / options_.maxOpenArchives;
    if (options_.pool) {
        pool_ = options_.pool;
    } else {
        ownedPool_ =
            std::make_unique<ThreadPool>(options_.ownedPoolThreads);
        pool_ = ownedPool_.get();
    }
    while (!root_.empty() && root_.back() == '/')
        root_.pop_back();
}

MultiArchiveService::~MultiArchiveService()
{
    std::vector<std::shared_ptr<OpenArchive>> evicted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &entry : entries_) {
            if (entry->open)
                retireLocked(*entry, evicted);
        }
    }
    // Destroy outside the lock. An archive with queued requests is
    // kept alive by their completion closures (shared ownership), so
    // this never blocks; idle archives tear down immediately.
    evicted.clear();
    // Wait for every admitted request's callback to finish before the
    // members (pool included) go away.
    std::unique_lock<std::mutex> lock(drainMutex_);
    drainCv_.wait(lock, [&] {
        return inflight_.load(std::memory_order_acquire) == 0;
    });
}

Status
MultiArchiveService::validateName(const std::string &name)
{
    if (name.empty() || name.size() > 4096)
        return Status::outOfRange("bad archive name length ",
                                  name.size());
    if (name.front() == '/')
        return Status::outOfRange("archive name must be relative: ",
                                  name);
    if (name.find('\0') != std::string::npos)
        return Status::outOfRange("archive name contains NUL");
    // Reject any dot-dot path component (plain "..", "../x", "x/..",
    // "a/../b").
    for (size_t at = 0; at < name.size();) {
        size_t end = name.find('/', at);
        if (end == std::string::npos)
            end = name.size();
        if (end - at == 2 && name[at] == '.' && name[at + 1] == '.')
            return Status::outOfRange(
                "archive name escapes the root: ", name);
        at = end + 1;
    }
    return Status();
}

MultiArchiveService::Entry *
MultiArchiveService::entryForLocked(uint32_t archive)
{
    if (archive >= entries_.size())
        return nullptr;
    return entries_[archive].get();
}

const MultiArchiveService::Entry *
MultiArchiveService::entryForLocked(uint32_t archive) const
{
    if (archive >= entries_.size())
        return nullptr;
    return entries_[archive].get();
}

void
MultiArchiveService::retireLocked(
    Entry &entry, std::vector<std::shared_ptr<OpenArchive>> &evicted)
{
    sage_assert(entry.open != nullptr, "retiring a closed archive");
    // Fold the archive's lifetime totals into the retired
    // accumulators so stats() stays monotonic across evictions.
    const ServiceStats stats = entry.open->service->stats();
    retiredRequests_ += stats.requests;
    retiredReads_ += stats.readsServed;
    retiredBytes_ += stats.bytesServed;
    retiredExpired_ += stats.expired;
    retiredCancelled_ += stats.cancelled;
    retiredErrored_ += stats.errored;
    evicted.push_back(std::move(entry.open));
    entry.open = nullptr;
    sage_assert(openCount_ > 0, "open-archive count underflow");
    openCount_--;
}

StatusOr<std::shared_ptr<MultiArchiveService::OpenArchive>>
MultiArchiveService::ensureOpenLocked(
    Entry &entry, std::vector<std::shared_ptr<OpenArchive>> &evicted)
{
    entry.lastUse = ++useTick_;
    if (entry.open)
        return entry.open;

    // Make room first so the new partition fits under the budget.
    while (openCount_ >= options_.maxOpenArchives) {
        Entry *coldest = nullptr;
        for (auto &candidate : entries_) {
            if (!candidate->open)
                continue;
            if (!coldest || candidate->lastUse < coldest->lastUse)
                coldest = candidate.get();
        }
        sage_assert(coldest != nullptr,
                    "open count positive but no open entry");
        retireLocked(*coldest, evicted);
        evictions_++;
    }

    auto file = FileSource::tryOpen(entry.path);
    if (!file.ok())
        return file.status();

    auto open = std::make_shared<OpenArchive>();
    open->file = std::move(file.value());
    const ByteSource *source = open->file.get();
    if (options_.faultRate > 0.0) {
        FaultConfig config;
        config.seed = options_.faultSeed + entry.id;
        config.ioErrorRate = options_.faultRate;
        open->fault = std::make_unique<FaultInjectionSource>(
            *open->file, config);
        // Disarmed while the container directory is parsed — setup
        // I/O must not trip the schedule (same idiom as serve-stress).
        open->fault->setArmed(false);
        source = open->fault.get();
    }

    auto decoder = SageDecoder::tryOpen(*source);
    if (!decoder.ok())
        return decoder.status();

    ServiceOptions service_options;
    service_options.cacheBudgetBytes = partitionBytes_;
    service_options.cacheShards = options_.cacheShards;
    service_options.pool = pool_;
    // No sessions exist server-side, and readahead warms capture a
    // raw service pointer — keep the per-archive service free of
    // self-referencing background work so lazy close stays safe.
    service_options.sessionReadahead = false;
    service_options.decodeRetries = options_.decodeRetries;
    open->service = std::make_unique<SageArchiveService>(
        std::move(decoder.value()), nullptr, service_options);
    if (open->fault)
        open->fault->setArmed(true);

    entry.readCount = open->service->readCount();
    entry.chunkCount = open->service->chunkCount();
    (entry.everOpened ? reopens_ : opens_)++;
    entry.everOpened = true;
    entry.open = std::move(open);
    openCount_++;
    return entry.open;
}

StatusOr<ArchiveMeta>
MultiArchiveService::open(const std::string &name)
{
    Status valid = validateName(name);
    if (!valid.ok())
        return valid;

    std::vector<std::shared_ptr<OpenArchive>> evicted;
    StatusOr<ArchiveMeta> result = Status::outOfRange("unreachable");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        uint32_t id;
        bool fresh = false;
        auto known = byName_.find(name);
        if (known != byName_.end()) {
            id = known->second;
        } else {
            id = static_cast<uint32_t>(entries_.size());
            auto entry = std::make_unique<Entry>();
            entry->name = name;
            entry->path = root_ + "/" + name;
            entry->id = id;
            entries_.push_back(std::move(entry));
            byName_.emplace(name, id);
            fresh = true;
        }
        Entry &entry = *entries_[id];
        auto opened = ensureOpenLocked(entry, evicted);
        if (!opened.ok()) {
            result = opened.status();
            // A name that never opened must not leak a registry
            // entry per hostile OPEN; fresh entries are always the
            // last index, so the id space stays dense.
            if (fresh) {
                byName_.erase(name);
                entries_.pop_back();
            }
        } else {
            ArchiveMeta meta;
            meta.id = entry.id;
            meta.readCount = entry.readCount;
            meta.chunkCount = entry.chunkCount;
            result = meta;
        }
    }
    // Evicted archives tear down here, outside the registry lock.
    return result;
}

StatusOr<ArchiveMeta>
MultiArchiveService::describe(uint32_t archive) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry *entry = entryForLocked(archive);
    if (!entry || !entry->everOpened)
        return Status::outOfRange("unknown archive id ", archive);
    ArchiveMeta meta;
    meta.id = entry->id;
    meta.readCount = entry->readCount;
    meta.chunkCount = entry->chunkCount;
    return meta;
}

Status
MultiArchiveService::closeArchive(uint32_t archive)
{
    std::vector<std::shared_ptr<OpenArchive>> evicted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry *entry = entryForLocked(archive);
        if (!entry || !entry->everOpened)
            return Status::outOfRange("unknown archive id ", archive);
        if (entry->open) {
            retireLocked(*entry, evicted);
            closes_++;
        }
    }
    return Status();
}

uint64_t
MultiArchiveService::queueDepthLocked() const
{
    uint64_t depth = 0;
    for (const auto &entry : entries_) {
        if (entry->open)
            depth += entry->open->service->queueDepth();
    }
    return depth;
}

uint64_t
MultiArchiveService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queueDepthLocked();
}

void
MultiArchiveService::finishRequest()
{
    std::lock_guard<std::mutex> lock(drainMutex_);
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        drainCv_.notify_all();
}

Admission
MultiArchiveService::admitRange(uint32_t archive, uint64_t first,
                                uint64_t count,
                                const RequestOptions &options,
                                std::function<void(RangeResult)> done,
                                Status *reject, bool chunk_addressed,
                                uint64_t chunk)
{
    Status local;
    Status &why = reject ? *reject : local;

    std::shared_ptr<OpenArchive> open;
    std::vector<std::shared_ptr<OpenArchive>> evicted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry *entry = entryForLocked(archive);
        if (!entry) {
            why = Status::outOfRange("unknown archive id ", archive);
            return Admission::UnknownArchive;
        }
        if (options_.admissionHighWater != 0 &&
            queueDepthLocked() >= options_.admissionHighWater) {
            overloaded_++;
            why = Status::exhausted(
                "queue depth at the admission high-water mark (",
                options_.admissionHighWater, ")");
            return Admission::Overloaded;
        }
        auto opened = ensureOpenLocked(*entry, evicted);
        if (!opened.ok()) {
            why = opened.status();
            return Admission::UnknownArchive;
        }
        open = opened.value();
        if (chunk_addressed) {
            if (chunk >= entry->chunkCount) {
                why = Status::outOfRange("chunk ", chunk,
                                         " out of range (archive has ",
                                         entry->chunkCount, ")");
                return Admission::BadRange;
            }
            first = open->service->chunkFirstRead(chunk);
            count = open->service->chunkReadCount(chunk);
        } else if (first > entry->readCount ||
                   count > entry->readCount - first) {
            why = Status::outOfRange(
                "span [", first, ", ", first + count,
                ") out of range (archive has ", entry->readCount,
                " reads)");
            return Admission::BadRange;
        }
        admitted_++;
    }
    evicted.clear();

    inflight_.fetch_add(1, std::memory_order_acq_rel);
    // The closure's shared_ptr keeps the archive (service, cache,
    // file) alive across eviction until this request completes.
    open->service->submit(
        first, count, options,
        [this, open, done = std::move(done)](RangeResult result) {
            done(std::move(result));
            finishRequest();
        });
    return Admission::Admitted;
}

Admission
MultiArchiveService::readRange(uint32_t archive, uint64_t first,
                               uint64_t count,
                               const RequestOptions &options,
                               std::function<void(RangeResult)> done,
                               Status *reject)
{
    return admitRange(archive, first, count, options, std::move(done),
                      reject, /*chunk_addressed=*/false, 0);
}

Admission
MultiArchiveService::readChunk(uint32_t archive, uint64_t chunk,
                               const RequestOptions &options,
                               std::function<void(RangeResult)> done,
                               Status *reject)
{
    return admitRange(archive, 0, 0, options, std::move(done), reject,
                      /*chunk_addressed=*/true, chunk);
}

MultiArchiveService::SyncOutcome
MultiArchiveService::readRangeSync(uint32_t archive, uint64_t first,
                                   uint64_t count,
                                   const RequestOptions &options)
{
    SyncOutcome outcome;
    std::promise<RangeResult> promise;
    auto future = promise.get_future();
    outcome.admission = readRange(
        archive, first, count, options,
        [&promise](RangeResult result) {
            promise.set_value(std::move(result));
        },
        &outcome.reject);
    if (outcome.admission == Admission::Admitted)
        outcome.result = future.get().copyReads();
    return outcome;
}

MultiArchiveService::SyncOutcome
MultiArchiveService::readChunkSync(uint32_t archive, uint64_t chunk,
                                   const RequestOptions &options)
{
    SyncOutcome outcome;
    std::promise<RangeResult> promise;
    auto future = promise.get_future();
    outcome.admission = readChunk(
        archive, chunk, options,
        [&promise](RangeResult result) {
            promise.set_value(std::move(result));
        },
        &outcome.reject);
    if (outcome.admission == Admission::Admitted)
        outcome.result = future.get().copyReads();
    return outcome;
}

MultiArchiveStats
MultiArchiveService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MultiArchiveStats out;
    out.opens = opens_;
    out.reopens = reopens_;
    out.evictions = evictions_;
    out.closes = closes_;
    out.admitted = admitted_;
    out.overloaded = overloaded_;
    out.openArchives = openCount_;
    out.knownArchives = static_cast<uint32_t>(entries_.size());
    out.partitionBytes = partitionBytes_;
    out.cacheBudgetBytes =
        partitionBytes_ * uint64_t(options_.maxOpenArchives);
    out.requests = retiredRequests_;
    out.readsServed = retiredReads_;
    out.bytesServed = retiredBytes_;
    out.expired = retiredExpired_;
    out.cancelled = retiredCancelled_;
    out.errored = retiredErrored_;
    for (const auto &entry : entries_) {
        if (!entry->open)
            continue;
        const ServiceStats stats = entry->open->service->stats();
        out.cacheBytesReserved += stats.cache.residentBytes;
        out.queueDepth += stats.queueDepth;
        out.requests += stats.requests;
        out.readsServed += stats.readsServed;
        out.bytesServed += stats.bytesServed;
        out.expired += stats.expired;
        out.cancelled += stats.cancelled;
        out.errored += stats.errored;
    }
    return out;
}

} // namespace sage
