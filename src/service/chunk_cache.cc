#include "service/chunk_cache.hh"

#include <algorithm>
#include <chrono>
#include <exception>

#include "util/logging.hh"

namespace sage {

uint64_t
DecodedChunk::residentBytes(const std::vector<Read> &reads)
{
    // String payloads plus the Read object itself; small-string
    // storage is approximated by the payload size, which is close
    // enough for budget enforcement.
    uint64_t bytes = 0;
    for (const Read &read : reads) {
        bytes += read.bases.size() + read.quals.size() +
            read.header.size() + sizeof(Read);
    }
    return bytes;
}

ChunkCache::ChunkCache(uint64_t budget_bytes, unsigned shards,
                       unsigned ghost_keys_per_shard)
    : budget_(budget_bytes), ghostCapacity_(ghost_keys_per_shard)
{
    const unsigned n = std::max(1u, shards);
    shardBudget_ = budget_bytes / n;
    shards_.reserve(n);
    for (unsigned s = 0; s < n; s++)
        shards_.push_back(std::make_unique<Shard>());
}

ChunkCache::Shard &
ChunkCache::shardFor(size_t chunk)
{
    return *shards_[chunk % shards_.size()];
}

const ChunkCache::Shard &
ChunkCache::shardFor(size_t chunk) const
{
    return *shards_[chunk % shards_.size()];
}

void
ChunkCache::ghostKey(Shard &shard, size_t chunk)
{
    if (ghostCapacity_ == 0)
        return;
    if (shard.ghostMap.find(chunk) != shard.ghostMap.end())
        return;  // Already remembered (evicted twice in a window).
    shard.ghosts.push_front(chunk);
    shard.ghostMap.emplace(chunk, shard.ghosts.begin());
    while (shard.ghosts.size() > ghostCapacity_) {
        shard.ghostMap.erase(shard.ghosts.back());
        shard.ghosts.pop_back();
    }
}

void
ChunkCache::evictToBudget(Shard &shard,
                          std::vector<DecodedChunkPtr> &evicted)
{
    // SIEVE sweep: the hand walks from the oldest entry toward the
    // newest; a visited entry is spared once (bit cleared, hand moves
    // on), an unvisited one is evicted and its key ghosted. The loop
    // terminates: every iteration either clears a visited bit (finite
    // supply) or removes an entry.
    while (shard.residentBytes > shardBudget_ &&
           !shard.entries.empty()) {
        if (shard.hand == shard.entries.end())
            shard.hand = std::prev(shard.entries.end());  // Oldest.
        if (shard.hand->visited) {
            shard.hand->visited = false;
            // Toward the newest; wrap to the oldest off the front.
            if (shard.hand == shard.entries.begin())
                shard.hand = shard.entries.end();
            else
                --shard.hand;
            continue;
        }
        const auto victim = shard.hand;
        if (shard.hand == shard.entries.begin())
            shard.hand = shard.entries.end();
        else
            --shard.hand;
        shard.residentBytes -= victim->data->bytes;
        shard.map.erase(victim->chunk);
        ghostKey(shard, victim->chunk);
        evicted.push_back(std::move(victim->data));
        shard.entries.erase(victim);
        shard.evictions++;
    }
}

void
ChunkCache::insertAndTrim(Shard &shard, size_t chunk,
                          const DecodedChunkPtr &data,
                          std::vector<DecodedChunkPtr> &evicted)
{
    sage_assert(shard.map.find(chunk) == shard.map.end(),
                "double insert of chunk ", chunk);
    // Admission: an entry that alone exceeds the shard budget can
    // never be resident — serve it to the caller (who holds a
    // reference) without evicting the entire shard for nothing.
    if (data->bytes > shardBudget_) {
        shard.oversizedRejects++;
        return;
    }
    // Ghost lookup: a re-decode of a recently evicted chunk proves
    // re-reference — admit it pre-visited so the next hand sweep
    // spares it (it earned residency; scan traffic did not).
    bool visited = false;
    const auto ghost = shard.ghostMap.find(chunk);
    if (ghost != shard.ghostMap.end()) {
        shard.ghosts.erase(ghost->second);
        shard.ghostMap.erase(ghost);
        shard.ghostHits++;
        visited = true;
    }
    shard.entries.push_front(Entry{chunk, data, visited});
    shard.map.emplace(chunk, shard.entries.begin());
    shard.residentBytes += data->bytes;
    shard.inserts++;
    evictToBudget(shard, evicted);
}

DecodedChunkPtr
ChunkCache::getOrDecode(size_t chunk, const DecodeFn &decode,
                        const RequestOptions *qos, Status *error)
{
    Shard &shard = shardFor(chunk);
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto hit = shard.map.find(chunk);
        if (hit != shard.map.end()) {
            shard.hits++;
            // Mark re-referenced: the entry survives the next sweep.
            hit->second->visited = true;
            return hit->second->data;
        }
        auto inflight = shard.flights.find(chunk);
        if (inflight != shard.flights.end()) {
            shard.coalescedWaits++;
            flight = inflight->second;
        } else {
            shard.misses++;
            flight = std::make_shared<Flight>();
            flight->generation = shard.generation;
            shard.flights.emplace(chunk, flight);
            leader = true;
        }
    }

    if (!leader) {
        // Join the in-flight decode. The leader publishes exactly
        // once. A QoS-bearing follower re-checks its fate while
        // parked: a cancelled/expired request walks away with nullptr
        // instead of waiting out a decode it no longer wants — the
        // leader and the other waiters are unaffected.
        std::unique_lock<std::mutex> lock(flight->mutex);
        if (qos && qos->abandonable()) {
            while (!flight->done.wait_for(
                       lock, std::chrono::milliseconds(1),
                       [&] { return flight->ready; })) {
                if (qos->checkNow() != RequestStatus::Ok) {
                    lock.unlock();
                    std::lock_guard<std::mutex> shard_lock(
                        shard.mutex);
                    shard.abandonedWaits++;
                    return nullptr;
                }
            }
        } else {
            flight->done.wait(lock, [&] { return flight->ready; });
        }
        // The leader's decode may have failed; propagate its Status so
        // every coalesced waiter degrades to an errored request rather
        // than dereferencing a null chunk.
        if (!flight->result && error && !flight->status.ok())
            *error = flight->status;
        return flight->result;
    }

    // Leader: decode outside every lock (this is the expensive part —
    // a full chunk fetch + decompression), then publish and cache. A
    // decode that throws must not unwind past the flight: waiters
    // parked on it — and every future requester joining it — would
    // hang forever. Data-dependent failures (a Status return, or a
    // StatusError escaping the decoder) publish the failure to every
    // waiter and tear the flight down so the next request retries; any
    // other exception is a bug and stays fatal. The leader never
    // abandons mid-decode: followers may already be parked on its
    // flight.
    DecodedChunkPtr data;
    Status failure;
    // Chunks this insert evicts. When the cache held their last
    // reference, dropping one frees its columns, so that happens only
    // after the shard lock is released and the flight is published:
    // neither hits on this shard nor this chunk's waiters wait on it.
    std::vector<DecodedChunkPtr> evicted;
    try {
        StatusOr<DecodedChunkPtr> decoded = decode(chunk);
        if (decoded.ok()) {
            data = std::move(decoded.value());
            sage_assert(data != nullptr, "chunk decode returned null");
        } else {
            failure = decoded.status();
        }
    } catch (const StatusError &err) {
        failure = err.status();
    } catch (const std::exception &err) {
        sage_fatal("decode of chunk ", chunk,
                   " failed with exception: ", err.what());
    }
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.flights.erase(chunk);
        if (!failure.ok()) {
            // Never cache a failure: the flight is gone, so the next
            // requester for this chunk starts a fresh decode.
            shard.decodeErrors++;
        } else if (flight->generation == shard.generation) {
            // A clear() while this decode was in flight bumped the
            // generation; honoring it means serving the waiters but
            // not re-populating the cache the caller just released.
            insertAndTrim(shard, chunk, data, evicted);
        }
    }
    {
        std::lock_guard<std::mutex> lock(flight->mutex);
        flight->result = data;
        flight->status = failure;
        flight->ready = true;
    }
    flight->done.notify_all();
    evicted.clear();
    if (!failure.ok() && error)
        *error = failure;
    return data;
}

bool
ChunkCache::contains(size_t chunk) const
{
    const Shard &shard = shardFor(chunk);
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.map.find(chunk) != shard.map.end();
}

void
ChunkCache::clear()
{
    for (auto &shard : shards_) {
        // Entries move out under the lock and are destroyed after it,
        // as in getOrDecode: freeing decoded chunks must not stall the
        // shard.
        std::list<Entry> dropped;
        {
            std::lock_guard<std::mutex> lock(shard->mutex);
            dropped.swap(shard->entries);
            shard->map.clear();
            shard->hand = shard->entries.end();
            shard->ghosts.clear();
            shard->ghostMap.clear();
            shard->residentBytes = 0;
            shard->generation++;  // Invalidate in-flight publishes.
        }
    }
}

ChunkCacheStats
ChunkCache::stats() const
{
    ChunkCacheStats total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.hits += shard->hits;
        total.misses += shard->misses;
        total.evictions += shard->evictions;
        total.inserts += shard->inserts;
        total.coalescedWaits += shard->coalescedWaits;
        total.abandonedWaits += shard->abandonedWaits;
        total.ghostHits += shard->ghostHits;
        total.oversizedRejects += shard->oversizedRejects;
        total.decodeErrors += shard->decodeErrors;
        total.residentBytes += shard->residentBytes;
        total.residentChunks += shard->entries.size();
        total.ghostChunks += shard->ghosts.size();
    }
    return total;
}

} // namespace sage
