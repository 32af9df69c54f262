/**
 * @file
 * Tests for the concurrent archive service layer (service/service.hh):
 * ChunkCache LRU/eviction/single-flight semantics, the request
 * scheduler's priority ordering, the submit()/readRange() request
 * primitive, per-client sessions with readahead, and the acceptance
 * stress test —
 * many clients over a FileSource-backed archive with a tiny cache
 * budget must produce byte-identical reads vs one sequential
 * SageReader. Runs under the ASan/UBSan and TSan presets in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"

namespace sage {
namespace {

/** Scratch path unique to the running test: ctest runs every test as
 *  its own parallel process, so fixture files must not collide. */
std::string
perTestScratchPath(const std::string &suffix)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "sage_service_" +
        std::string(info->test_suite_name()) + "_" + info->name() +
        "_" + suffix;
}

/** Element-wise equality including headers. */
void
expectSameReads(const std::vector<Read> &a, const std::vector<Read> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        ASSERT_EQ(a[i].bases, b[i].bases) << "read " << i;
        ASSERT_EQ(a[i].quals, b[i].quals) << "read " << i;
        ASSERT_EQ(a[i].header, b[i].header) << "read " << i;
    }
}

/** Chunk @p chunk's reads, addressed as the chunk's read span. */
ReadResult
readChunk(SageArchiveService &service, size_t chunk,
          const RequestOptions &options = {})
{
    return service.readRange(service.chunkFirstRead(chunk),
                             service.chunkReadCount(chunk), options);
}

/** A future over submit(), the way a caller that wants one wraps the
 *  primitive. The runs it yields pin their chunks until dropped. */
std::future<RangeResult>
submitAsync(SageArchiveService &service, uint64_t first, uint64_t count,
            const RequestOptions &options = {})
{
    auto promise = std::make_shared<std::promise<RangeResult>>();
    std::future<RangeResult> future = promise->get_future();
    service.submit(first, count, options, [promise](RangeResult result) {
        promise->set_value(std::move(result));
    });
    return future;
}

/** A decoded chunk of @p reads reads with @p bytes_each bases each,
 *  charged its columns' capacity as the service charges its own. */
DecodedChunkPtr
makeChunk(size_t chunk, uint64_t first_read, size_t reads,
          size_t bytes_each)
{
    auto data = std::make_shared<DecodedChunk>();
    data->firstRead = first_read;
    for (size_t r = 0; r < reads; r++) {
        data->reads.bases.append(bytes_each, "ACGT"[(chunk + r) % 4]);
        data->reads.endRead();
    }
    data->bytes = data->reads.capacityBytes();
    return data;
}

/** How long a check waits for something that should happen: long
 *  enough for a sanitizer build, short enough that a call that never
 *  completes fails the test instead of hanging it. */
constexpr auto kBound = std::chrono::seconds(10);

/** How long a check waits to see that something does not happen. */
constexpr auto kGrace = std::chrono::milliseconds(200);

template <typename T>
bool
readyWithin(const std::future<T> &future,
            std::chrono::milliseconds wait = kBound)
{
    return future.wait_for(wait) == std::future_status::ready;
}

/** True once @p service has @p depth requests queued, within kBound. */
bool
queueReaches(const SageArchiveService &service, uint64_t depth)
{
    const auto deadline = std::chrono::steady_clock::now() + kBound;
    while (service.queueDepth() < depth) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** Runs a callable when it goes out of scope. */
struct OnExit
{
    std::function<void()> run;
    ~OnExit() { run(); }
};

/**
 * Occupies a service's pool workers: each hold() is a submit() whose
 * callback blocks until release(). The destructor releases too, so a
 * failed check cannot leave the service's drain waiting on a worker.
 */
class WorkerHold
{
  public:
    explicit WorkerHold(SageArchiveService &service) : service_(service) {}
    ~WorkerHold() { release(); }

    /** Occupy one more worker; false when none started the holding
     *  request within kBound. */
    bool
    hold()
    {
        auto started = std::make_shared<std::promise<void>>();
        std::future<void> running = started->get_future();
        service_.submit(0, 0, RequestOptions{},
                        [started, gate = gate_](RangeResult) {
                            started->set_value();
                            gate.wait();
                        });
        return readyWithin(running);
    }

    void
    release()
    {
        if (!released_) {
            released_ = true;
            open_.set_value();
        }
    }

  private:
    SageArchiveService &service_;
    std::promise<void> open_;
    std::shared_future<void> gate_ = open_.get_future().share();
    bool released_ = false;
};

/** A memory source whose reads park while it is armed, so a test can
 *  hold requests inside their chunk decodes. */
class ParkingSource final : public ByteSource
{
  public:
    explicit ParkingSource(const std::vector<uint8_t> &bytes)
        : inner_(bytes)
    {}

    void
    arm()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        armed_ = true;
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        armed_ = false;
        changed_.notify_all();
    }

    /** True once @p readers reads are parked, within kBound. */
    bool
    waitParked(size_t readers) const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return changed_.wait_for(lock, kBound,
                                 [&] { return parked_ >= readers; });
    }

    uint64_t size() const override { return inner_.size(); }

    void
    readAt(uint64_t offset, void *dst, size_t size) const override
    {
        park();
        inner_.readAt(offset, dst, size);
    }

    Status
    tryReadAt(uint64_t offset, void *dst, size_t size) const override
    {
        park();
        return inner_.tryReadAt(offset, dst, size);
    }

    std::string describe() const override { return "<parking>"; }

  private:
    void
    park() const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!armed_)
            return;
        parked_++;
        changed_.notify_all();
        changed_.wait(lock, [&] { return !armed_; });
        parked_--;
    }

    MemorySource inner_;
    mutable std::mutex mutex_;
    mutable std::condition_variable changed_;
    bool armed_ = false;
    mutable size_t parked_ = 0;
};

/** The counters every quiescent service must satisfy. */
void
expectIdleAndCounted(const SageArchiveService &service)
{
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.executing, 0u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.requests, stats.latencySamples);
    uint64_t by_priority = 0;
    for (const LatencySummary &summary : stats.latencyByPriority)
        by_priority += summary.samples;
    EXPECT_EQ(by_priority, stats.requests);
}

// ---------------------------------------------------------------------
// ChunkCache
// ---------------------------------------------------------------------

TEST(ChunkCache, HitAvoidsSecondDecode)
{
    ChunkCache cache(1 << 20, 2);
    std::atomic<int> decodes{0};
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        decodes++;
        return makeChunk(chunk, 0, 4, 64);
    };
    const DecodedChunkPtr first = cache.getOrDecode(7, decode);
    const DecodedChunkPtr again = cache.getOrDecode(7, decode);
    EXPECT_EQ(decodes.load(), 1);
    EXPECT_EQ(first.get(), again.get());
    const ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.residentChunks, 1u);
    EXPECT_GT(stats.residentBytes, 0u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
    EXPECT_TRUE(cache.contains(7));
    EXPECT_FALSE(cache.contains(8));
}

TEST(ChunkCache, EvictsUnvisitedBeforeReReferencedWithinBudget)
{
    // One shard so the eviction order is global; each chunk ~1 KB,
    // budget fits two. The re-referenced chunk (visited bit set) is
    // spared by the SIEVE hand; the single-touch one is the victim.
    const uint64_t chunk_bytes = makeChunk(0, 0, 4, 256)->bytes;
    ChunkCache cache(2 * chunk_bytes + chunk_bytes / 2, 1);
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        return makeChunk(chunk, 0, 4, 256);
    };
    cache.getOrDecode(0, decode);
    cache.getOrDecode(1, decode);
    cache.getOrDecode(0, decode);  // Re-reference 0: 1 is the victim.
    cache.getOrDecode(2, decode);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    const ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.residentBytes, cache.budgetBytes());
}

TEST(ChunkCache, HotChunkSurvivesFullSequentialSweep)
{
    // Scan resistance, the reason this cache is not an LRU: a chunk
    // that was re-referenced must stay resident while a sequential
    // sweep several times the cache's size streams past. Under LRU
    // every scanned chunk would displace it within one budget's worth
    // of inserts.
    const uint64_t chunk_bytes = makeChunk(0, 0, 4, 256)->bytes;
    ChunkCache cache(2 * chunk_bytes + chunk_bytes / 2, 1);
    std::atomic<int> hot_decodes{0};
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        if (chunk == 1000)
            hot_decodes++;
        return makeChunk(chunk, 0, 4, 256);
    };
    cache.getOrDecode(1000, decode);
    cache.getOrDecode(1000, decode);  // Earn residency (visited).
    for (size_t c = 0; c < 64; c++)
        cache.getOrDecode(c, decode);  // Full single-touch sweep.
    EXPECT_TRUE(cache.contains(1000));
    cache.getOrDecode(1000, decode);
    EXPECT_EQ(hot_decodes.load(), 1);  // Never re-decoded.
    const ChunkCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);  // The sweep really churned.
    EXPECT_LE(stats.residentBytes, cache.budgetBytes());
}

TEST(ChunkCache, GhostHitReadmitsEvictedChunkAsProtected)
{
    // A chunk evicted as scan fodder but then wanted again proves
    // re-reference through the ghost set: its re-decode is admitted
    // pre-visited, so the next sweep spares it.
    const uint64_t chunk_bytes = makeChunk(0, 0, 4, 256)->bytes;
    ChunkCache cache(2 * chunk_bytes + chunk_bytes / 2, 1);
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        return makeChunk(chunk, 0, 4, 256);
    };
    cache.getOrDecode(7, decode);
    for (size_t c = 100; c < 104; c++)
        cache.getOrDecode(c, decode);  // Sweep 7 out (ghosted).
    ASSERT_FALSE(cache.contains(7));
    cache.getOrDecode(7, decode);  // Ghost hit: re-admitted protected.
    EXPECT_TRUE(cache.contains(7));
    const uint64_t ghost_hits = cache.stats().ghostHits;
    EXPECT_GE(ghost_hits, 1u);
    // Protected means it now survives another sweep.
    for (size_t c = 200; c < 204; c++)
        cache.getOrDecode(c, decode);
    EXPECT_TRUE(cache.contains(7));
    EXPECT_GT(cache.stats().ghostChunks, 0u);
}

TEST(ChunkCache, OversizedEntryServedNotRetained)
{
    // An entry bigger than its shard's whole budget can never be
    // resident; it is served to the caller without evicting the
    // entire shard for nothing.
    const uint64_t chunk_bytes = makeChunk(0, 0, 4, 256)->bytes;
    ChunkCache cache(chunk_bytes / 2, 1);
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        return makeChunk(chunk, 0, 4, 256);
    };
    const DecodedChunkPtr data = cache.getOrDecode(0, decode);
    ASSERT_NE(data, nullptr);
    EXPECT_FALSE(cache.contains(0));
    const ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.oversizedRejects, 1u);
    EXPECT_EQ(stats.inserts, 0u);
    EXPECT_EQ(stats.residentBytes, 0u);
}

TEST(ChunkCache, CancelledFollowerAbandonsWaitLeaderStillPopulates)
{
    // The single-flight cancellation contract: a follower whose
    // request is cancelled while parked on the leader's decode walks
    // away with nullptr; the leader is unaffected and its result
    // still lands in the cache for everyone else.
    ChunkCache cache(1 << 20, 1);
    std::promise<void> decode_entered;
    std::promise<void> release_decode;
    std::thread leader([&] {
        const DecodedChunkPtr data =
            cache.getOrDecode(0, [&](size_t chunk) {
                decode_entered.set_value();
                release_decode.get_future().wait();
                return makeChunk(chunk, 0, 2, 32);
            });
        EXPECT_NE(data, nullptr);
    });
    decode_entered.get_future().wait();

    CancelSource source;
    RequestOptions options;
    options.cancel = source.token();
    std::promise<DecodedChunkPtr> follower_result;
    std::thread follower([&] {
        follower_result.set_value(cache.getOrDecode(
            0, [](size_t) -> DecodedChunkPtr {
                ADD_FAILURE() << "follower must join, not decode";
                return nullptr;
            },
            &options));
    });
    // Let the follower park on the flight, then cancel it.
    while (cache.stats().coalescedWaits == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    source.cancel();
    EXPECT_EQ(follower_result.get_future().get(), nullptr);
    follower.join();
    EXPECT_EQ(cache.stats().abandonedWaits, 1u);

    // The leader completes and populates regardless.
    release_decode.set_value();
    leader.join();
    EXPECT_TRUE(cache.contains(0));
    std::atomic<int> decodes{0};
    cache.getOrDecode(0, [&](size_t chunk) {
        decodes++;
        return makeChunk(chunk, 0, 2, 32);
    });
    EXPECT_EQ(decodes.load(), 0);  // Served from the leader's insert.
}

TEST(ChunkCache, ExpiredFollowerAbandonsWait)
{
    ChunkCache cache(1 << 20, 1);
    std::promise<void> decode_entered;
    std::promise<void> release_decode;
    std::thread leader([&] {
        cache.getOrDecode(0, [&](size_t chunk) {
            decode_entered.set_value();
            release_decode.get_future().wait();
            return makeChunk(chunk, 0, 2, 32);
        });
    });
    decode_entered.get_future().wait();

    RequestOptions options;
    options.deadline = RequestOptions::deadlineIn(0.01);
    const DecodedChunkPtr data = cache.getOrDecode(
        0, [](size_t) -> DecodedChunkPtr { return nullptr; },
        &options);
    EXPECT_EQ(data, nullptr);  // Gave up after ~10 ms, not forever.
    EXPECT_EQ(cache.stats().abandonedWaits, 1u);
    release_decode.set_value();
    leader.join();
}

// ---------------------------------------------------------------------
// CancelToken / RequestOptions
// ---------------------------------------------------------------------

TEST(CancelTokenTest, DefaultTokenNeverCancels)
{
    const CancelToken token;
    EXPECT_FALSE(token.connected());
    EXPECT_FALSE(token.cancelled());
    const RequestOptions options;
    EXPECT_FALSE(options.abandonable());
    EXPECT_EQ(options.checkNow(), RequestStatus::Ok);
}

TEST(CancelTokenTest, CopiesShareTheSourceFlag)
{
    CancelSource source;
    const CancelToken token = source.token();
    const CancelToken copy = token;
    EXPECT_TRUE(copy.connected());
    EXPECT_FALSE(copy.cancelled());
    source.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(copy.cancelled());
    EXPECT_TRUE(source.cancelled());
}

TEST(CancelTokenTest, CancellationBeatsExpiryInCheckNow)
{
    CancelSource source;
    source.cancel();
    RequestOptions options;
    options.cancel = source.token();
    options.deadline = RequestOptions::deadlineIn(-1.0);  // Past.
    EXPECT_TRUE(options.abandonable());
    EXPECT_EQ(options.checkNow(), RequestStatus::Cancelled);
}

TEST(CancelTokenTest, DeadlineExpires)
{
    RequestOptions options;
    EXPECT_FALSE(options.hasDeadline());
    options.deadline = RequestOptions::deadlineIn(3600.0);
    EXPECT_TRUE(options.hasDeadline());
    EXPECT_EQ(options.checkNow(), RequestStatus::Ok);
    options.deadline = RequestOptions::deadlineIn(-0.001);
    EXPECT_EQ(options.checkNow(), RequestStatus::Expired);
}

TEST(ChunkCache, ZeroBudgetServesWithoutRetaining)
{
    ChunkCache cache(0, 4);
    std::atomic<int> decodes{0};
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        decodes++;
        return makeChunk(chunk, 0, 2, 32);
    };
    const DecodedChunkPtr data = cache.getOrDecode(3, decode);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->reads.size(), 2u);
    EXPECT_FALSE(cache.contains(3));
    cache.getOrDecode(3, decode);
    EXPECT_EQ(decodes.load(), 2);  // Nothing was retained.
    EXPECT_EQ(cache.stats().residentBytes, 0u);
}

TEST(ChunkCache, ClearDropsResidents)
{
    ChunkCache cache(1 << 20, 2);
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        return makeChunk(chunk, 0, 2, 32);
    };
    cache.getOrDecode(0, decode);
    cache.getOrDecode(1, decode);
    EXPECT_EQ(cache.stats().residentChunks, 2u);
    cache.clear();
    EXPECT_EQ(cache.stats().residentChunks, 0u);
    EXPECT_EQ(cache.stats().residentBytes, 0u);
    EXPECT_FALSE(cache.contains(0));
}

TEST(ChunkCache, ClearDuringInFlightDecodeServesButDoesNotRetain)
{
    ChunkCache cache(1 << 20, 1);
    std::promise<void> decode_entered;
    std::promise<void> release_decode;
    std::thread leader([&] {
        const DecodedChunkPtr data =
            cache.getOrDecode(0, [&](size_t chunk) {
                decode_entered.set_value();
                release_decode.get_future().wait();
                return makeChunk(chunk, 0, 2, 32);
            });
        EXPECT_NE(data, nullptr);
    });
    decode_entered.get_future().wait();
    cache.clear();  // Invalidates the in-flight decode's publish.
    release_decode.set_value();
    leader.join();
    // The waiting caller got its chunk, but the memory the clear()
    // released was not silently re-populated behind its back.
    EXPECT_FALSE(cache.contains(0));
    EXPECT_EQ(cache.stats().residentBytes, 0u);
}

TEST(ChunkCache, SingleFlightDecodesOnceUnderContention)
{
    ChunkCache cache(1 << 20, 1);
    std::atomic<int> decodes{0};
    const ChunkCache::DecodeFn decode = [&](size_t chunk) {
        decodes++;
        // Hold the flight open long enough for followers to join.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return makeChunk(chunk, 0, 4, 64);
    };
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<DecodedChunkPtr> results(kThreads);
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            results[static_cast<size_t>(t)] =
                cache.getOrDecode(5, decode);
        });
    }
    for (auto &thread : threads)
        thread.join();
    // However the threads interleave, exactly one decode ran and every
    // caller observed the same chunk (leader, coalesced follower, or
    // post-insert hit).
    EXPECT_EQ(decodes.load(), 1);
    for (const auto &result : results)
        EXPECT_EQ(result.get(), results[0].get());
    const ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits + stats.coalescedWaits,
              static_cast<uint64_t>(kThreads - 1));
    EXPECT_GT(stats.hitRate(), 0.0);
}

// ---------------------------------------------------------------------
// Service fixture
// ---------------------------------------------------------------------

class ServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
        SageConfig config;
        config.chunkReads = 64;  // Many small chunks.
        config.preserveOrder = false;
        archive_ = sageCompress(ds.readSet, ds.reference, config);
        path_ = perTestScratchPath("archive.sage");
        {
            FileSink sink(path_);
            sink.writeBytes(archive_.bytes);
        }

        // Stored-order ground truth from a plain sequential reader.
        SageReader reader(path_);
        chunks_ = reader.chunkCount();
        for (size_t c = 0; c < chunks_; c++) {
            const std::vector<Read> reads = reader.readChunk(c);
            expected_.insert(expected_.end(), reads.begin(),
                             reads.end());
        }
        ASSERT_GT(chunks_, 4u);
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    SageArchive archive_;
    std::string path_;
    size_t chunks_ = 0;
    std::vector<Read> expected_;  ///< All reads in stored order.
};

TEST_F(ServiceTest, ReadRangeMatchesSequentialReader)
{
    SageArchiveService service(path_);
    EXPECT_EQ(service.chunkCount(), chunks_);
    EXPECT_EQ(service.readCount(), expected_.size());

    // Whole archive in one request.
    expectSameReads(service.readRange(0, service.readCount()).reads,
                    expected_);

    // Unaligned spans crossing chunk boundaries.
    for (uint64_t first : {0ull, 1ull, 63ull, 64ull, 65ull, 130ull}) {
        for (uint64_t count : {0ull, 1ull, 64ull, 129ull}) {
            if (first + count > expected_.size())
                continue;
            const std::vector<Read> got =
                service.readRange(first, count).reads;
            const std::vector<Read> want(
                expected_.begin() + static_cast<ptrdiff_t>(first),
                expected_.begin() +
                    static_cast<ptrdiff_t>(first + count));
            expectSameReads(got, want);
        }
    }
    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.requests, 0u);
    EXPECT_GT(stats.cache.hitRate(), 0.0);
    EXPECT_GT(stats.latencySamples, 0u);
    EXPECT_GE(stats.p99LatencySeconds, stats.p50LatencySeconds);
}

TEST_F(ServiceTest, ReadChunkMatchesReaderChunks)
{
    // Memory-backed source works identically to the file path.
    MemorySource source(archive_.bytes);
    SageArchiveService service(source);
    uint64_t first = 0;
    for (size_t c = 0; c < chunks_; c++) {
        const std::vector<Read> got = readChunk(service, c).reads;
        const std::vector<Read> want(
            expected_.begin() + static_cast<ptrdiff_t>(first),
            expected_.begin() +
                static_cast<ptrdiff_t>(first + got.size()));
        expectSameReads(got, want);
        first += got.size();
    }
    EXPECT_EQ(first, expected_.size());
}

TEST_F(ServiceTest, AsyncAndCallbackFlavorsMatchSync)
{
    SageArchiveService service(path_);
    auto future_a = submitAsync(service, 0, 100);
    auto future_b = submitAsync(service, service.chunkFirstRead(1),
                                service.chunkReadCount(1));
    expectSameReads(future_a.get().copyReads().reads,
                    {expected_.begin(), expected_.begin() + 100});
    const std::vector<Read> chunk1 = readChunk(service, 1).reads;
    expectSameReads(future_b.get().copyReads().reads, chunk1);

    std::promise<std::vector<Read>> done;
    service.submit(5, 70, RequestOptions{}, [&](RangeResult result) {
        done.set_value(result.copyReads().reads);
    });
    expectSameReads(done.get_future().get(),
                    {expected_.begin() + 5, expected_.begin() + 75});
}

TEST_F(ServiceTest, SubmitCompletesOnceOnAPoolWorker)
{
    // The network server's completion queue relies on this contract:
    // done runs exactly once, on a pool worker and never the
    // submitting thread, whatever status the request completes with,
    // and the request is counted once. (The Error status is covered
    // in test_fault.cc, which has the fault-injection harness.)
    ThreadPool pool(1);
    std::thread::id worker;
    pool.submit([&worker] { worker = std::this_thread::get_id(); });
    pool.wait();
    ServiceOptions service_options;
    service_options.pool = &pool;
    SageArchiveService service(path_, service_options);

    CancelSource source;
    source.cancel();
    RequestOptions expired, cancelled;
    expired.deadline = RequestOptions::deadlineIn(-1.0);
    cancelled.cancel = source.token();
    const std::vector<std::pair<RequestOptions, RequestStatus>> cases = {
        {RequestOptions{}, RequestStatus::Ok},
        {expired, RequestStatus::Expired},
        {cancelled, RequestStatus::Cancelled},
    };
    for (const auto &request : cases) {
        const RequestStatus want = request.second;
        std::atomic<int> calls{0};
        std::promise<std::thread::id> ran_on;
        service.submit(0, 100, request.first, [&](RangeResult result) {
            EXPECT_EQ(result.status, want);
            EXPECT_EQ(result.readCount(),
                      want == RequestStatus::Ok ? 100u : 0u);
            calls++;
            ran_on.set_value(std::this_thread::get_id());
        });
        EXPECT_EQ(ran_on.get_future().get(), worker);
        EXPECT_NE(worker, std::this_thread::get_id());
        pool.wait();  // A second call would have landed by now.
        EXPECT_EQ(calls.load(), 1) << requestStatusName(want);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.latencySamples, 3u);
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.errored, 0u);
    EXPECT_EQ(stats.readsServed, 100u);
}

TEST_F(ServiceTest, SessionWalksArchiveInStoredOrder)
{
    SageArchiveService service(path_);
    ServiceSession session = service.openSession();
    EXPECT_EQ(session.remaining(), expected_.size());
    std::vector<Read> walked;
    while (session.hasNext())
        walked.push_back(session.next());
    expectSameReads(walked, expected_);
    EXPECT_EQ(session.remaining(), 0u);

    // On a single-core pool every trampoline prefers the client's
    // Normal-priority fetches, so the Background warms may all still
    // be queued here — drain them before reading the counters.
    service.pool().wait();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.readsServed, expected_.size());
    // A sequential walk triggers next-chunk readahead warms, and the
    // drained warms find their chunks resident (or decode them for the
    // session to hit), so the lookup mix can't be all misses.
    EXPECT_GT(stats.readaheadWarms, 0u);
    EXPECT_GT(stats.cache.hitRate(), 0.0);
    EXPECT_EQ(stats.queueDepth, 0u);
}

TEST_F(ServiceTest, SessionBulkReadAndSeek)
{
    SageArchiveService service(path_);
    ServiceSession session = service.openSession();
    const std::vector<Read> bulk = session.read(150);
    expectSameReads(bulk, {expected_.begin(), expected_.begin() + 150});
    EXPECT_EQ(session.position(), 150u);

    session.seek(10);
    const std::vector<Read> after_seek = session.read(5);
    expectSameReads(after_seek,
                    {expected_.begin() + 10, expected_.begin() + 15});

    // Clamped read at the end of the archive.
    session.seek(expected_.size() - 3);
    EXPECT_EQ(session.read(100).size(), 3u);
    EXPECT_FALSE(session.hasNext());
}

TEST_F(ServiceTest, DnaOnlyServiceSkipsQuality)
{
    ServiceOptions options;
    options.dnaOnly = true;
    SageArchiveService service(path_, options);
    const std::vector<Read> got = service.readRange(0, 64).reads;
    for (size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].bases, expected_[i].bases) << "read " << i;
        EXPECT_TRUE(got[i].quals.empty()) << "read " << i;
    }
}

TEST_F(ServiceTest, SharedExternalPoolAndWarm)
{
    ThreadPool pool(2);
    ServiceOptions options;
    options.pool = &pool;
    SageArchiveService service(path_, options);
    EXPECT_EQ(&service.pool(), &pool);

    service.warmChunk(2);
    service.warmChunk(2);              // Duplicate warm is coalesced.
    service.warmChunk(chunks_ + 100);  // Out of range: no-op.
    pool.wait();
    const ServiceStats stats = service.stats();
    EXPECT_GE(stats.requestsByPriority[static_cast<size_t>(
                  RequestPriority::Background)],
              1u);
    // The warmed chunk now hits without a decode.
    const ChunkCacheStats before = service.stats().cache;
    readChunk(service, 2);
    const ChunkCacheStats after = service.stats().cache;
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GT(after.hits, before.hits);
}

TEST_F(ServiceTest, HeldRunsPinTheirChunksAcrossEviction)
{
    // submit() hands back runs over the cached chunks instead of
    // copies. Hold a result spanning chunks 1 and 2 on a one-chunk
    // budget, evict both, and the runs must still read what a
    // sequential reader does (under ASan, a run that failed to pin its
    // chunk reads freed memory here).
    ServiceOptions options;
    options.cacheShards = 1;
    options.cacheBudgetBytes = 0;
    for (size_t at = 0; at < expected_.size(); at += 64) {  // 64/chunk.
        const size_t end = std::min(expected_.size(), at + 64);
        options.cacheBudgetBytes = std::max(
            options.cacheBudgetBytes,
            DecodedChunk::residentBytes(
                {expected_.begin() + at, expected_.begin() + end}));
    }
    SageArchiveService service(path_, options);

    const uint64_t first = service.chunkFirstRead(1) + 10;
    const uint64_t count = service.chunkReadCount(1);  // Ends in chunk 2.
    const ServiceStats before = service.stats();
    const RangeResult held = submitAsync(service, first, count).get();
    const ServiceStats after = service.stats();
    ASSERT_TRUE(held.ok());
    ASSERT_EQ(held.runs.size(), 2u);
    EXPECT_EQ(held.readCount(), count);

    for (size_t c = 3; c < chunks_ && (service.chunkResident(1) ||
                                       service.chunkResident(2));
         c++) {
        ASSERT_TRUE(readChunk(service, c).ok());
    }
    EXPECT_FALSE(service.chunkResident(1));
    EXPECT_FALSE(service.chunkResident(2));
    EXPECT_GT(service.stats().cache.evictions, after.cache.evictions);

    // Every view a held run yields still reads its chunk's columns.
    std::vector<Read> pinned;
    for (const ReadRun &run : held.runs) {
        for (const ReadView read : run)
            pinned.push_back(read.toRead());
    }
    const std::vector<Read> want(expected_.begin() + first,
                                 expected_.begin() + first + count);
    expectSameReads(pinned, want);

    // The runs are counted as the same reads and payload bytes as the
    // copying readRange() of the span.
    uint64_t payload = 0;
    for (const Read &read : want)
        payload += read.bases.size() + read.quals.size();
    const ServiceStats copy_before = service.stats();
    expectSameReads(service.readRange(first, count).reads, want);
    const ServiceStats copy_after = service.stats();
    EXPECT_EQ(after.readsServed - before.readsServed, count);
    EXPECT_EQ(after.bytesServed - before.bytesServed, payload);
    EXPECT_EQ(copy_after.readsServed - copy_before.readsServed, count);
    EXPECT_EQ(copy_after.bytesServed - copy_before.bytesServed, payload);
}

TEST_F(ServiceTest, ServedBytesCountOnlyTheSpan)
{
    // Payload is counted from each run's end offsets: spans that start
    // and end inside chunks must count exactly their own reads' bases
    // and quality, through both the blocking and the async path.
    SageArchiveService service(path_);
    const std::vector<std::pair<uint64_t, uint64_t>> spans = {
        {10, 20}, {0, 5}, {70, 50}, {30, 150}, {64, 64}, {63, 2}};
    for (const auto &[first, count] : spans) {
        uint64_t payload = 0;
        for (uint64_t i = first; i < first + count; i++)
            payload += expected_[i].bases.size() + expected_[i].quals.size();
        const ServiceStats before = service.stats();
        ASSERT_TRUE(service.readRange(first, count).ok());
        const ServiceStats middle = service.stats();
        ASSERT_TRUE(submitAsync(service, first, count).get().ok());
        const ServiceStats after = service.stats();
        EXPECT_EQ(middle.readsServed - before.readsServed, count);
        EXPECT_EQ(middle.bytesServed - before.bytesServed, payload)
            << "span " << first << "+" << count;
        EXPECT_EQ(after.readsServed - middle.readsServed, count);
        EXPECT_EQ(after.bytesServed - middle.bytesServed, payload)
            << "span " << first << "+" << count;
    }
}

TEST_F(ServiceTest, DestructorDrainsOutstandingRequests)
{
    std::future<RangeResult> abandoned;
    {
        SageArchiveService service(path_);
        abandoned = submitAsync(service, 0, expected_.size());
        // Service destroyed with the request possibly still queued.
    }
    // The drain guarantees the request completed before teardown, and
    // its runs outlive the service that served them.
    expectSameReads(abandoned.get().copyReads().reads, expected_);
}

TEST_F(ServiceTest, TinyCacheBudgetStillServesCorrectly)
{
    ServiceOptions options;
    options.cacheBudgetBytes = 1;  // Effectively uncacheable entries.
    options.cacheShards = 2;
    SageArchiveService service(path_, options);
    expectSameReads(service.readRange(0, service.readCount()).reads,
                    expected_);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.residentBytes, 0u);
    EXPECT_GT(stats.cache.evictions + stats.cache.misses, 0u);
}

// ---------------------------------------------------------------------
// Blocking calls on their callers: readRange and a session's chunk
// fetch run on the calling thread unless a request of equal or higher
// priority is queued or pool().threadCount() already run on callers.
// ---------------------------------------------------------------------

TEST_F(ServiceTest, BlockingCallsRunOnTheCallerWhileTheWorkerIsHeld)
{
    ThreadPool pool(1);
    ServiceOptions options;
    options.pool = &pool;
    SageArchiveService service(path_, options);
    WorkerHold hold(service);
    ASSERT_TRUE(hold.hold());

    // One at a time: a one-worker pool allows one caller-run request.
    std::future<ReadResult> range;
    std::future<std::vector<Read>> walk;
    OnExit cleanup{[&] { hold.release(); }};
    range = std::async(std::launch::async,
                       [&] { return service.readRange(70, 100); });
    ASSERT_TRUE(readyWithin(range));
    const ReadResult got = range.get();
    ASSERT_TRUE(got.ok());
    expectSameReads(got.reads,
                    {expected_.begin() + 70, expected_.begin() + 170});

    // The session crosses chunks while its readahead warms sit queued
    // behind the held worker: a fetch never waits for its own warm.
    walk = std::async(std::launch::async, [&] {
        ServiceSession session = service.openSession();
        return session.read(200);
    });
    ASSERT_TRUE(readyWithin(walk));
    expectSameReads(walk.get(),
                    {expected_.begin(), expected_.begin() + 200});
    EXPECT_GE(service.queueDepth(), 1u);

    hold.release();
    pool.wait();
    expectIdleAndCounted(service);
    EXPECT_EQ(service.stats().readsServed, 300u);
}

TEST_F(ServiceTest, BlockingCallQueuesBehindAnEqualPriorityRequest)
{
    ThreadPool pool(1);
    ServiceOptions options;
    options.pool = &pool;
    SageArchiveService service(path_, options);
    WorkerHold hold(service);
    ASSERT_TRUE(hold.hold());

    std::atomic<int> order{0}, queued_done{-1}, blocking_done{-1};
    service.submit(0, 64, RequestOptions{},
                   [&](RangeResult) { queued_done = order++; });
    auto blocking = std::async(std::launch::async, [&] {
        ReadResult result = service.readRange(64, 64);
        blocking_done = order++;
        return result;
    });
    OnExit cleanup{[&] { hold.release(); }};

    // Running it on the caller would overtake the queued request.
    EXPECT_TRUE(queueReaches(service, 2));
    EXPECT_FALSE(readyWithin(blocking, kGrace));
    EXPECT_EQ(service.queueDepth(), 2u);
    hold.release();
    ASSERT_TRUE(readyWithin(blocking));
    const ReadResult got = blocking.get();
    ASSERT_TRUE(got.ok());
    expectSameReads(got.reads,
                    {expected_.begin() + 64, expected_.begin() + 128});
    EXPECT_EQ(queued_done.load(), 0);
    EXPECT_EQ(blocking_done.load(), 1);
    pool.wait();
    expectIdleAndCounted(service);
}

TEST_F(ServiceTest, CallerRunsAreBoundedByThePoolSize)
{
    // Two workers, both held: two blocking calls may decode on their
    // callers (parked here inside their chunk reads), and a third
    // queues like a submit() until a worker is free.
    ParkingSource source(archive_.bytes);
    ThreadPool pool(2);
    ServiceOptions options;
    options.pool = &pool;
    SageArchiveService service(source, options);
    WorkerHold hold(service);
    ASSERT_TRUE(hold.hold());
    ASSERT_TRUE(hold.hold());

    source.arm();
    std::vector<std::future<ReadResult>> parked;
    for (size_t c = 0; c < 2; c++) {
        parked.push_back(std::async(std::launch::async, [&, c] {
            return readChunk(service, c);
        }));
    }
    std::future<ReadResult> third;
    OnExit cleanup{[&] {
        source.release();
        hold.release();
    }};
    ASSERT_TRUE(source.waitParked(2));
    EXPECT_EQ(service.stats().executing, 4u);  // Two holds, two callers.

    third = std::async(std::launch::async,
                       [&] { return readChunk(service, 2); });
    EXPECT_TRUE(queueReaches(service, 1));
    EXPECT_FALSE(readyWithin(third, kGrace));
    EXPECT_EQ(service.queueDepth(), 1u);

    source.release();
    for (size_t c = 0; c < 2; c++) {
        ASSERT_TRUE(readyWithin(parked[c]));
        const ReadResult got = parked[c].get();
        ASSERT_TRUE(got.ok());
        expectSameReads(got.reads, {expected_.begin() + 64 * c,
                                    expected_.begin() + 64 * (c + 1)});
    }
    EXPECT_FALSE(readyWithin(third, kGrace));  // Still queued.
    hold.release();
    ASSERT_TRUE(readyWithin(third));
    const ReadResult got = third.get();
    ASSERT_TRUE(got.ok());
    expectSameReads(got.reads,
                    {expected_.begin() + 128, expected_.begin() + 192});
    pool.wait();
    expectIdleAndCounted(service);
}

// ---------------------------------------------------------------------
// Acceptance stress test: many concurrent clients, mixed hot/cold
// access, tiny cache budget, FileSource-backed archive.
// ---------------------------------------------------------------------

TEST_F(ServiceTest, StressManyClientsByteIdenticalToSequentialReader)
{
    ServiceOptions options;
    // A budget of ~4 decoded chunks: hot chunks stay resident, the
    // sequential walks constantly evict — both paths exercised.
    options.cacheBudgetBytes =
        4 * DecodedChunk::residentBytes(
                {expected_.begin(), expected_.begin() + 64});
    options.cacheShards = 4;
    options.ownedPoolThreads = 8;
    SageArchiveService service(path_, options);

    constexpr size_t kClients = 20;  // >= 16 per acceptance criteria.
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClients; t++) {
        clients.emplace_back([&, t] {
            const auto check = [&](const std::vector<Read> &got,
                                   uint64_t first) {
                for (size_t i = 0; i < got.size(); i++) {
                    const Read &want =
                        expected_[static_cast<size_t>(first) + i];
                    if (got[i].bases != want.bases ||
                        got[i].quals != want.quals ||
                        got[i].header != want.header) {
                        failures++;
                        return;
                    }
                }
            };
            if (t % 4 == 0) {
                // Hot client: hammers the first two chunks.
                for (int it = 0; it < 20; it++)
                    check(service.readRange(0, 128).reads, 0);
            } else if (t % 4 == 1) {
                // Session client: full sequential walk.
                ServiceSession session = service.openSession();
                std::vector<Read> walked;
                while (session.hasNext())
                    walked.push_back(session.next());
                check(walked, 0);
            } else if (t % 4 == 2) {
                // Strided cold client: chunk-grained random access.
                for (size_t c = t % chunks_, n = 0; n < chunks_;
                     n++, c = (c + 3) % chunks_) {
                    // chunkReads=64, so chunk c starts at read 64*c.
                    check(readChunk(service, c).reads,
                          64 * static_cast<uint64_t>(c));
                }
            } else {
                // Async client: overlapping span futures.
                std::vector<std::pair<uint64_t, std::future<RangeResult>>>
                    pending;
                for (uint64_t first = t; first + 97 < expected_.size();
                     first += 101) {
                    pending.emplace_back(
                        first, submitAsync(service, first, 97));
                }
                for (auto &[first, future] : pending)
                    check(future.get().copyReads().reads, first);
            }
        });
    }
    for (auto &client : clients)
        client.join();

    EXPECT_EQ(failures.load(), 0);
    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.cache.hitRate(), 0.0);    // Acceptance criterion.
    EXPECT_GT(stats.cache.evictions, 0u);     // Tiny budget really evicted.
    EXPECT_GT(stats.requests, kClients);
    EXPECT_GT(stats.readsServed, 0u);
    EXPECT_GT(stats.bytesServed, 0u);
    EXPECT_LE(stats.cache.residentBytes, options.cacheBudgetBytes);
    EXPECT_GT(stats.latencySamples, 0u);
    EXPECT_GE(stats.maxQueueDepth, 1u);
}

// ---------------------------------------------------------------------
// Service QoS: deadlines, cancellation, per-priority latency, and the
// consistent stats snapshot. Runs under the TSan preset in CI.
// ---------------------------------------------------------------------

using ServiceQosTest = ServiceTest;

TEST_F(ServiceQosTest, AlreadyExpiredDeadlineCompletesWithoutDecode)
{
    SageArchiveService service(path_);
    const uint64_t misses_before = service.stats().cache.misses;

    RequestOptions options;
    options.priority = RequestPriority::Interactive;
    options.deadline = RequestOptions::deadlineIn(-1.0);  // Past.
    const ReadResult result = service.readRange(0, 128, options);
    EXPECT_EQ(result.status, RequestStatus::Expired);
    EXPECT_TRUE(result.reads.empty());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, misses_before);  // No decode ran.
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.cancelled, 0u);
    EXPECT_EQ(stats.requests, 1u);  // Still counted as completed.
    EXPECT_EQ(stats.requestsByPriority[static_cast<size_t>(
                  RequestPriority::Interactive)],
              1u);
}

TEST_F(ServiceQosTest, PreCancelledRequestCompletesWithoutDecode)
{
    SageArchiveService service(path_);
    CancelSource source;
    source.cancel();
    RequestOptions options;
    options.cancel = source.token();
    const ReadResult result = readChunk(service, 0, options);
    EXPECT_EQ(result.status, RequestStatus::Cancelled);
    EXPECT_TRUE(result.reads.empty());
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, 0u);
    EXPECT_EQ(stats.cancelled, 1u);
}

TEST_F(ServiceQosTest, QosRequestWithoutPressureServesNormally)
{
    SageArchiveService service(path_);
    RequestOptions options;
    options.priority = RequestPriority::Interactive;
    options.deadline = RequestOptions::deadlineIn(600.0);
    CancelSource source;
    options.cancel = source.token();
    const ReadResult result = service.readRange(5, 130, options);
    ASSERT_EQ(result.status, RequestStatus::Ok);
    expectSameReads(result.reads,
                    {expected_.begin() + 5, expected_.begin() + 135});
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.expired, 0u);
    EXPECT_EQ(stats.cancelled, 0u);
    const LatencySummary &interactive =
        stats.latencyByPriority[static_cast<size_t>(
            RequestPriority::Interactive)];
    EXPECT_EQ(interactive.samples, 1u);
    EXPECT_GE(interactive.p99Seconds, 0.0);
}

TEST_F(ServiceQosTest, CancellationRacingCompletionNeverWedges)
{
    // Cancel concurrently with request execution, at every phase the
    // timing dice land on: queued (caught at dequeue), mid-assembly
    // (caught before a chunk decode), or already completed (Ok). The
    // request must always complete with a coherent status and the
    // counters must add up.
    SageArchiveService service(path_);
    constexpr int kRounds = 40;
    uint64_t ok_count = 0, cancelled_count = 0;
    for (int round = 0; round < kRounds; round++) {
        CancelSource source;
        RequestOptions options;
        options.cancel = source.token();
        auto future = submitAsync(service, 0, expected_.size(), options);
        std::thread canceller([&] {
            if (round % 4 != 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50 * (round % 7)));
            }
            source.cancel();
        });
        const RangeResult result = future.get();
        canceller.join();
        if (result.status == RequestStatus::Ok) {
            ok_count++;
            expectSameReads(result.copyReads().reads, expected_);
        } else {
            EXPECT_EQ(result.status, RequestStatus::Cancelled);
            EXPECT_TRUE(result.runs.empty());
            cancelled_count++;
        }
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cancelled, cancelled_count);
    EXPECT_EQ(ok_count + cancelled_count,
              static_cast<uint64_t>(kRounds));
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(kRounds));
}

TEST_F(ServiceQosTest, SessionCancellationStopsFetching)
{
    SageArchiveService service(path_);
    CancelSource source;
    RequestOptions options;
    options.cancel = source.token();
    ServiceSession session = service.openSession(options);

    // First chunk fetched fine; reads within it keep flowing even
    // after cancel (chunk-grained checks), but the next chunk fetch
    // stops the session.
    const std::vector<Read> first = session.read(10);
    ASSERT_EQ(first.size(), 10u);
    EXPECT_EQ(session.lastStatus(), RequestStatus::Ok);
    source.cancel();
    const std::vector<Read> rest = session.read(expected_.size());
    EXPECT_LT(rest.size(), expected_.size() - 10);  // Stopped short.
    EXPECT_EQ(session.lastStatus(), RequestStatus::Cancelled);
    // A cancelled session stays stopped.
    EXPECT_TRUE(session.read(64).empty());
    EXPECT_EQ(session.lastStatus(), RequestStatus::Cancelled);
    EXPECT_GT(service.stats().cancelled, 0u);
}

TEST_F(ServiceQosTest, ExpiredSessionReportsExpiry)
{
    SageArchiveService service(path_);
    RequestOptions options;
    options.deadline = RequestOptions::deadlineIn(-1.0);
    ServiceSession session = service.openSession(options);
    EXPECT_TRUE(session.read(64).empty());
    EXPECT_EQ(session.lastStatus(), RequestStatus::Expired);
}

TEST_F(ServiceQosTest, InteractiveOvertakesBacklogViaDeadline)
{
    // One worker, a pile of Normal full-archive requests, then an
    // interactive request with a deadline: whatever the queue does,
    // the interactive caller gets an answer (served or expired) in
    // bounded time instead of soaking behind the backlog.
    ServiceOptions service_options;
    service_options.ownedPoolThreads = 1;
    service_options.cacheBudgetBytes = 0;  // Every request decodes.
    SageArchiveService service(path_, service_options);
    std::vector<std::future<RangeResult>> backlog;
    for (int i = 0; i < 16; i++)
        backlog.push_back(submitAsync(service, 0, expected_.size()));
    RequestOptions options;
    options.priority = RequestPriority::Interactive;
    options.deadline = RequestOptions::deadlineIn(0.050);
    const Stopwatch clock;
    const ReadResult result = service.readRange(0, 64, options);
    const double waited = clock.seconds();
    if (result.status == RequestStatus::Ok) {
        expectSameReads(result.reads,
                        {expected_.begin(), expected_.begin() + 64});
    } else {
        EXPECT_EQ(result.status, RequestStatus::Expired);
        EXPECT_TRUE(result.reads.empty());
    }
    // Generous bound: the point is "not the whole backlog" — 16 full
    // walks take far longer than this on one worker.
    EXPECT_LT(waited, 5.0);
    for (auto &future : backlog)
        EXPECT_EQ(future.get().readCount(), expected_.size());
}

TEST_F(ServiceQosTest, InteractiveBlockingCallOvertakesAQueuedBacklog)
{
    // With only Normal and Background requests queued, an Interactive
    // readRange has nothing to wait behind: it runs on its caller.
    ThreadPool pool(1);
    ServiceOptions service_options;
    service_options.pool = &pool;
    SageArchiveService service(path_, service_options);
    WorkerHold hold(service);
    ASSERT_TRUE(hold.hold());

    std::vector<std::future<RangeResult>> backlog;
    for (int i = 0; i < 3; i++)
        backlog.push_back(submitAsync(service, 0, expected_.size()));
    service.warmChunk(4);
    RequestOptions options;
    options.priority = RequestPriority::Interactive;
    auto interactive = std::async(std::launch::async, [&] {
        return service.readRange(130, 64, options);
    });
    OnExit cleanup{[&] { hold.release(); }};

    ASSERT_TRUE(readyWithin(interactive));
    const ReadResult got = interactive.get();
    ASSERT_TRUE(got.ok());
    expectSameReads(got.reads,
                    {expected_.begin() + 130, expected_.begin() + 194});
    EXPECT_EQ(service.queueDepth(), 4u);  // The backlog still waits.

    hold.release();
    for (auto &future : backlog)
        EXPECT_EQ(future.get().readCount(), expected_.size());
    pool.wait();
    expectIdleAndCounted(service);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.latencyByPriority[static_cast<size_t>(
                  RequestPriority::Interactive)]
                  .samples,
              1u);
    EXPECT_EQ(stats.requestsByPriority[static_cast<size_t>(
                  RequestPriority::Background)],
              1u);
}

TEST_F(ServiceQosTest, StatsSnapshotIsConsistentUnderLoad)
{
    // The satellite bugfix: snapshots must be internally consistent
    // while the scheduler and request completions mutate concurrently
    // — requests == sum(by priority) == latency samples,
    // expired + cancelled <= requests, queueDepth <= maxQueueDepth,
    // monotone non-decreasing counters. Runs under TSan in CI.
    ServiceOptions service_options;
    service_options.ownedPoolThreads = 4;
    SageArchiveService service(path_, service_options);

    std::atomic<bool> stop{false};
    std::atomic<int> violations{0};
    std::thread poller([&] {
        uint64_t last_requests = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const ServiceStats stats = service.stats();
            uint64_t by_priority = 0;
            for (uint64_t n : stats.requestsByPriority)
                by_priority += n;
            uint64_t by_latency = 0;
            for (const LatencySummary &summary :
                 stats.latencyByPriority)
                by_latency += summary.samples;
            if (by_priority != stats.requests ||
                by_latency != stats.requests ||
                stats.latencySamples != stats.requests ||
                stats.expired + stats.cancelled > stats.requests ||
                stats.queueDepth > stats.maxQueueDepth ||
                stats.requests < last_requests) {
                violations++;
            }
            last_requests = stats.requests;
        }
    });

    std::vector<std::thread> clients;
    for (int t = 0; t < 6; t++) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < 15; i++) {
                if (t % 3 == 0) {
                    CancelSource source;
                    RequestOptions options;
                    options.priority = RequestPriority::Interactive;
                    options.cancel = source.token();
                    auto future = submitAsync(
                        service, 0, expected_.size(), options);
                    if (i % 2 == 0)
                        source.cancel();
                    future.get();
                } else if (t % 3 == 1) {
                    RequestOptions options;
                    options.deadline =
                        RequestOptions::deadlineIn(i % 2 == 0
                                                       ? 0.0005
                                                       : 600.0);
                    service.readRange(0, 200, options);
                } else {
                    readChunk(service, i % 5);
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    service.pool().wait();  // Drain readahead warms too.
    stop.store(true, std::memory_order_release);
    poller.join();

    EXPECT_EQ(violations.load(), 0);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.executing, 0u);
    EXPECT_GT(stats.requests, 0u);
}

} // namespace
} // namespace sage
