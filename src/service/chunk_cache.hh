/**
 * @file
 * Decoded-chunk cache for the archive service layer
 * (service/service.hh): a sharded, byte-budgeted cache over immutable
 * decoded chunks with scan-resistant (SIEVE-style) admission, a ghost
 * set that lets genuinely re-referenced chunks earn protected
 * residency, and single-flight decode so N clients hitting the same
 * cold chunk trigger exactly one decompression.
 *
 * Decoded chunks are shared as shared_ptr<const DecodedChunk>: an
 * eviction never invalidates a chunk a client is still reading — the
 * cache merely drops its reference, and the memory goes away when the
 * last reader does. That is what lets the cache run with a tiny
 * budget under heavy concurrency (the stress tests do exactly this)
 * without copying read data per client. A chunk holds its reads as
 * columns, so dropping one frees four buffers, whatever its read
 * count, and each entry is charged the columns' capacity.
 *
 * Why not LRU: when every client performs a sequential walk, pure LRU
 * degenerates — each single-touch streaming chunk evicts something on
 * insert, so a genuinely hot chunk is flushed by traffic that will
 * never come back (BENCH_service.json's 4 MiB x 64-client row
 * documented exactly this). SIEVE keeps a visited bit per entry and
 * evicts at a hand that sweeps from the oldest entry toward the
 * newest: one-touch scan traffic is evicted almost immediately, while
 * an entry that was re-referenced since the hand last passed survives
 * the sweep. The ghost set (recently evicted keys, no payload) closes
 * the loop: a miss on a ghosted key means the chunk *was* wanted again
 * after eviction, so its re-decode is admitted pre-visited — it
 * re-enters as a protected resident rather than scan fodder.
 */

#ifndef SAGE_SERVICE_CHUNK_CACHE_HH
#define SAGE_SERVICE_CHUNK_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "genomics/read.hh"
#include "service/qos.hh"
#include "util/status.hh"

namespace sage {

/** One decoded, immutable archive chunk: its stored-order reads as
 *  columns (genomics/read.hh), one arena per field. */
struct DecodedChunk
{
    ReadColumns reads;
    uint64_t firstRead = 0;  ///< Stored-order index of reads[0].
    /** What the entry costs the cache budget: the columns' capacity,
     *  reads.capacityBytes(), the heap bytes they really hold. */
    uint64_t bytes = 0;

    /** The footprint @p reads take as owned Reads (string payloads
     *  plus each Read object): an estimate for sizing a budget from
     *  decoded Read vectors. A cached chunk of the same reads is
     *  charged its columns' capacity, which is smaller. */
    static uint64_t residentBytes(const std::vector<Read> &reads);
};

using DecodedChunkPtr = std::shared_ptr<const DecodedChunk>;

/** Aggregated cache counters (snapshot; see ChunkCache::stats). */
struct ChunkCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;       ///< Each miss is one decode.
    uint64_t evictions = 0;
    uint64_t inserts = 0;      ///< Admissions into the resident set.
    /** Requests that joined another request's in-flight decode
     *  instead of starting their own (single-flight coalescing). */
    uint64_t coalescedWaits = 0;
    /** Coalesced waiters that abandoned the wait (their request was
     *  cancelled or expired); the leader still populates the cache. */
    uint64_t abandonedWaits = 0;
    /** Misses whose key was in the ghost set: the chunk was evicted
     *  recently and wanted again, so it was re-admitted protected
     *  (pre-visited — it survives the next hand sweep). */
    uint64_t ghostHits = 0;
    /** Decodes served but not retained because the entry alone
     *  exceeds its shard's byte budget. */
    uint64_t oversizedRejects = 0;
    /** Decodes that failed (I/O error / corrupt chunk). Nothing was
     *  cached; the failure was delivered to the leader and every
     *  coalesced waiter, and the next request retries the decode. */
    uint64_t decodeErrors = 0;
    uint64_t residentBytes = 0;
    uint64_t residentChunks = 0;
    uint64_t ghostChunks = 0;  ///< Keys currently in the ghost set.

    double
    hitRate() const
    {
        const uint64_t lookups = hits + misses + coalescedWaits;
        return lookups == 0
            ? 0.0
            : static_cast<double>(hits + coalescedWaits) /
                static_cast<double>(lookups);
    }
};

/**
 * Sharded, scan-resistant cache of decoded chunks.
 *
 * The byte budget is split evenly across shards; chunk index modulo
 * shard count picks the shard, so a sequential client walk spreads
 * across every shard lock. All methods are thread-safe. The decode
 * callback passed to getOrDecode runs outside any shard lock, and so
 * does the freeing of chunks an insert evicts or clear() drops.
 */
class ChunkCache
{
  public:
    /** @p budget_bytes total decoded-byte budget (0 disables caching:
     *  every lookup decodes, nothing is retained); @p shards is
     *  clamped to at least 1; @p ghost_keys_per_shard bounds the
     *  ghost set (keys only, a few bytes each). */
    explicit ChunkCache(uint64_t budget_bytes, unsigned shards = 8,
                        unsigned ghost_keys_per_shard = 128);

    ChunkCache(const ChunkCache &) = delete;
    ChunkCache &operator=(const ChunkCache &) = delete;

    /** Decode callback: a chunk pointer on success, a non-Ok Status on
     *  failure (lambdas returning a bare DecodedChunkPtr convert). */
    using DecodeFn =
        std::function<StatusOr<DecodedChunkPtr>(size_t chunk)>;

    /**
     * Return chunk @p chunk, decoding at most once across all
     * concurrent callers: a hit returns the cached pointer (and marks
     * the entry visited — it will survive the next eviction sweep);
     * the first misser runs @p decode (unlocked) while later
     * requesters for the same chunk block on its completion; the
     * result is admitted and the shard evicted down to budget (SIEVE
     * order). An entry larger than its shard's budget is served but
     * not retained.
     *
     * When @p qos is non-null, a caller *waiting on another request's
     * decode* re-checks it while parked and returns nullptr if the
     * request is cancelled or expired — the leader is unaffected and
     * still populates the cache for everyone else. A caller that
     * becomes the leader always completes its decode (followers may
     * be parked on it).
     *
     * A failed decode — @p decode returned a Status or threw
     * StatusError — never poisons the cache: nothing is inserted, the
     * flight is torn down so the next request retries, and nullptr is
     * returned with the failure copied into @p error (for the leader
     * *and* every coalesced waiter; an abandoned wait leaves @p error
     * Ok). Decode exceptions other than StatusError remain fatal —
     * they indicate bugs, not bad data.
     */
    DecodedChunkPtr getOrDecode(size_t chunk, const DecodeFn &decode,
                                const RequestOptions *qos = nullptr,
                                Status *error = nullptr);

    /** True when @p chunk is resident right now (no stats impact, no
     *  visited-bit touch — a test/introspection helper). */
    bool contains(size_t chunk) const;

    /** Drop every resident entry and the ghost set (in-flight decodes
     *  are unaffected and still publish to their waiters, but are not
     *  retained). */
    void clear();

    /** Aggregate counters across shards. */
    ChunkCacheStats stats() const;

    uint64_t budgetBytes() const { return budget_; }

  private:
    /** An in-flight decode other callers can join. */
    struct Flight
    {
        std::mutex mutex;
        std::condition_variable done;
        DecodedChunkPtr result;  ///< Set exactly once, then notified.
        /** Non-Ok (with result null) when the decode failed; waiters
         *  surface it instead of hanging or faulting. */
        Status status;
        bool ready = false;
        /** Shard generation at takeoff: a clear() in between bumps
         *  the shard's counter, and the stale flight's result is then
         *  served to its waiters but not retained. */
        uint64_t generation = 0;
    };

    struct Entry
    {
        size_t chunk = 0;
        DecodedChunkPtr data;
        /** Re-referenced since insertion / since the hand last swept
         *  past. A visited entry survives one eviction sweep. */
        bool visited = false;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        /** Front = most recently inserted. Entries never move; only
         *  the visited bit and the hand change on a hit/sweep. */
        std::list<Entry> entries;
        std::unordered_map<size_t, std::list<Entry>::iterator> map;
        /** SIEVE eviction hand: next eviction candidate, sweeping
         *  from the oldest entry toward the newest; entries.end()
         *  means "reset to the oldest". */
        std::list<Entry>::iterator hand;
        /** Ghost set: keys of recently evicted chunks, FIFO-bounded.
         *  Front = most recently ghosted. */
        std::list<size_t> ghosts;
        std::unordered_map<size_t, std::list<size_t>::iterator>
            ghostMap;
        std::unordered_map<size_t, std::shared_ptr<Flight>> flights;
        uint64_t residentBytes = 0;
        uint64_t generation = 0;  ///< Bumped by clear().

        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t inserts = 0;
        uint64_t coalescedWaits = 0;
        uint64_t abandonedWaits = 0;
        uint64_t ghostHits = 0;
        uint64_t oversizedRejects = 0;
        uint64_t decodeErrors = 0;

        Shard() : hand(entries.end()) {}
    };

    Shard &shardFor(size_t chunk);
    const Shard &shardFor(size_t chunk) const;

    /** Admit under the shard lock (ghost lookup decides the visited
     *  bit), then evict to budget with the SIEVE hand. */
    void insertAndTrim(Shard &shard, size_t chunk,
                       const DecodedChunkPtr &data,
                       std::vector<DecodedChunkPtr> &evicted);

    /** Evict at the hand until the shard fits its budget, moving each
     *  victim's data into @p evicted so the caller frees it after
     *  releasing the shard lock. */
    void evictToBudget(Shard &shard,
                       std::vector<DecodedChunkPtr> &evicted);

    /** Record an evicted key in the bounded ghost set. */
    void ghostKey(Shard &shard, size_t chunk);

    uint64_t budget_;
    uint64_t shardBudget_;
    unsigned ghostCapacity_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace sage

#endif // SAGE_SERVICE_CHUNK_CACHE_HH
