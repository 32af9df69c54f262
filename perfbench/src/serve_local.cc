/**
 * @file
 * serve_local: archive -> reads in process. Client threads call
 * SageArchiveService directly, one whole chunk per request, with chunk
 * ids drawn from a seeded Zipf skew over both archives. The decoded
 * working set is four times the cache budget and the skew is set so
 * that at least half of the requests miss and pay fetch + decode;
 * there is no protocol, CRC or socket work.
 */

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/decoder.hh"
#include "net/multi_archive.hh"
#include "service/service.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** Decoded working set over cache budget. */
constexpr uint64_t kWorkingSetOverBudget = 4;

/**
 * Share of requests that an ideal cache (one holding the hottest chunks
 * the budget allows) would serve. The Zipf exponent is solved from it,
 * so that at least half of the requests miss and pay fetch + decode.
 * With 34 chunks and a quarter of them cached, s comes out at about
 * 0.66, inside the 0.64-0.83 range Breslau et al. measured for web
 * request popularity ("Web Caching and Zipf-like Distributions:
 * Evidence and Implications", INFOCOM 1999).
 */
constexpr double kIdealHitRatio = 0.5;

uint64_t
tagOf(size_t archive, size_t chunk)
{
    return (static_cast<uint64_t>(archive) << 32) | chunk;
}

/** One set-up's live objects. Services are declared after the pool
 *  they run on, so they are destroyed first. */
struct Served
{
    std::unique_ptr<sage::ThreadPool> pool;
    std::vector<std::unique_ptr<sage::SageArchiveService>> services;
    double openSeconds = 0.0;

    /** Tear down services before the pool they drain onto. */
    void
    reset()
    {
        services.clear();
        pool.reset();
        openSeconds = 0.0;
    }
};

/** One segment: what the clients saw, plus the layer counters. */
struct Phase
{
    LoopResult loop;
    std::vector<sage::ServiceStats> before, after;
    IoSnapshot fetch;
    double openSeconds = 0.0;  ///< The segment's set-up opens.
};

/** Service counters over @p phases, summed across archives. */
void
addServiceCounters(const std::vector<Phase> &phases, LayerSet &layers)
{
    uint64_t hits = 0, misses = 0, coalesced = 0, evictions = 0, ghost = 0;
    uint64_t errored = 0, retries = 0, depth = 0;
    for (const Phase &phase : phases) {
        for (size_t a = 0; a < phase.after.size(); ++a) {
            const sage::ServiceStats &b = phase.before[a], &e = phase.after[a];
            hits += e.cache.hits - b.cache.hits;
            misses += e.cache.misses - b.cache.misses;
            coalesced += e.cache.coalescedWaits - b.cache.coalescedWaits;
            evictions += e.cache.evictions - b.cache.evictions;
            ghost += e.cache.ghostHits - b.cache.ghostHits;
            errored += e.errored - b.errored;
            retries += e.retries - b.retries;
            depth = std::max(depth, e.maxQueueDepth);
        }
        retries += phase.loop.retries;
        layers.openS += phase.openSeconds;
        layers.fetchS += phase.fetch.seconds;
        layers.fetchBytes += static_cast<double>(phase.fetch.bytes);
        layers.fetchCalls += static_cast<double>(phase.fetch.calls);
        layers.requestS += phase.loop.busySeconds;
    }
    const uint64_t lookups = hits + misses + coalesced;
    layers.hitRatio = lookups ? static_cast<double>(hits + coalesced) /
            static_cast<double>(lookups)
                              : 0.0;
    layers.evictions = static_cast<double>(evictions);
    layers.coalescedWaits = static_cast<double>(coalesced);
    layers.ghostHits = static_cast<double>(ghost);
    layers.queueDepthMax = static_cast<double>(depth);
    layers.errored = static_cast<double>(errored);
    layers.retries = static_cast<double>(retries);
}

/** Decode split of the traced misses (read off the fetch spans) and a
 *  wire replay of the first traced requests, scaled to @p requests. */
bool
replayLayers(const Options &options, const ServeCorpus &corpus,
             std::vector<Span> &spans,
             const std::vector<RangeRequest> &sample, uint64_t requests,
             LayerSet &layers, std::string &error)
{
    linkByTag(spans, "io.fetch", "service.request");
    std::vector<ChunkRef> misses;
    for (const Span &span : spans) {
        if (std::string("io.fetch") == span.name && span.tag != ~0ull)
            misses.emplace_back(static_cast<size_t>(span.tag >> 32),
                                static_cast<uint32_t>(span.tag));
    }
    if (!misses.empty()) {
        const size_t replayed = std::min(misses.size(), kReplaySample);
        const std::vector<ChunkRef> sample(misses.begin(),
                                           misses.begin() + replayed);
        layers.addDecode(replayDecode(corpus.archives, sample),
                         static_cast<double>(misses.size()) /
                             static_cast<double>(replayed));
    }

    sage::MultiArchiveOptions service_options;
    service_options.globalCacheBudgetBytes = 4 * corpus.decodedBytes;
    service_options.maxOpenArchives =
        static_cast<unsigned>(corpus.archives.size());
    service_options.cacheShards = 1;
    service_options.ownedPoolThreads = options.threads;
    sage::MultiArchiveService service(corpus.dir, service_options);
    std::vector<uint32_t> ids;
    for (const ArchiveTruth &truth : corpus.archives) {
        auto meta = service.open(truth.name);
        if (!meta.ok()) {
            error = "replay open failed: " + meta.status().toString();
            return false;
        }
        ids.push_back(meta.value().id);
        for (size_t c = 0; c < truth.chunks(); ++c)
            service.readChunkSync(ids.back(), c);
    }
    const ServePathSplit split =
        replayServePath(service, ids, corpus.archives, sample);
    if (split.failed != 0) {
        error = "replayed replies did not match the archives";
        return false;
    }
    layers.addServePath(split, static_cast<double>(requests) /
                            static_cast<double>(split.requests));
    return true;
}

class ServeLocal
{
  public:
    ServeLocal(const Options &options, ServeCorpus &corpus)
        : options_(options), corpus_(corpus)
    {
        for (size_t a = 0; a < corpus_.archives.size(); ++a) {
            budgets_.push_back(corpus_.archives[a].decodedBytes /
                               kWorkingSetOverBudget);
            for (size_t c = 0; c < corpus_.archives[a].chunks(); ++c)
                popular_.emplace_back(a, static_cast<uint32_t>(c));
        }
        // Which chunk is hot is seeded too, not always chunk 0.
        std::mt19937_64 rng(options_.seed * 0x9E3779B97F4A7C15ull + 7);
        std::shuffle(popular_.begin(), popular_.end(), rng);
        cached_ = popular_.size() / kWorkingSetOverBudget;
        zipfS_ = Zipf::exponentFor(popular_.size(), cached_, kIdealHitRatio);
    }

    std::string
    describe() const
    {
        uint64_t budget = 0;
        for (uint64_t b : budgets_)
            budget += b;
        std::ostringstream out;
        out << corpus_.describe(budget) << "requests  whole_chunk zipf_s="
            << zipfS_ << " cached_chunks=" << cached_
            << " ideal_hit_ratio="
            << Zipf(popular_.size(), zipfS_).share(cached_) << "\n";
        return out.str();
    }

    /** Open every archive on a fresh pool, time each open to its first
     *  served chunk, then warm the hottest chunks the budget holds. */
    bool
    setUp(Served &served, std::vector<double> &first_reads,
          std::string &error)
    {
        served.pool = std::make_unique<sage::ThreadPool>(options_.clients);
        for (size_t a = 0; a < corpus_.archives.size(); ++a) {
            const ArchiveTruth &truth = corpus_.archives[a];
            auto source = std::make_unique<TimingSource>(
                std::make_unique<sage::FileSource>(truth.path), fetchIo_,
                static_cast<uint32_t>(a));
            source->setChunkMap(truth.chunkByOffset);
            const double start = nowSeconds();
            auto decoder = sage::SageDecoder::tryOpen(*source);
            served.openSeconds += nowSeconds() - start;
            if (!decoder.ok()) {
                error = truth.name + ": " + decoder.status().toString();
                return false;
            }
            sage::ServiceOptions service_options;
            service_options.cacheBudgetBytes = budgets_[a];
            service_options.cacheShards = 1;
            service_options.pool = served.pool.get();
            service_options.sessionReadahead = false;
            served.services.push_back(
                std::make_unique<sage::SageArchiveService>(
                    std::move(decoder.value()), std::move(source),
                    service_options));
            if (!request(served, a, 0).ok) {
                error = truth.name + ": first chunk failed";
                return false;
            }
            first_reads.push_back((nowSeconds() - start) * 1e3);
        }
        for (size_t rank = 0; rank < cached_; ++rank)
            request(served, popular_[rank].first, popular_[rank].second);
        return true;
    }

    Phase
    run(Served &served, bool traced, double seconds, uint64_t salt)
    {
        Phase phase;
        for (const auto &service : served.services)
            phase.before.push_back(service->stats());
        const IoSnapshot fetch_before = IoSnapshot::of(fetchIo_);
        const Zipf zipf(popular_.size(), zipfS_);
        Tracer::setEnabled(traced);
        phase.loop = closedLoop(
            options_, seconds, salt, kReplaySample,
            [&](unsigned, std::mt19937_64 &rng) {
                const ChunkRef ref = popular_[zipf(rng)];
                return request(served, ref.first, ref.second);
            });
        Tracer::setEnabled(false);
        for (const auto &service : served.services)
            phase.after.push_back(service->stats());
        phase.fetch = IoSnapshot::of(fetchIo_) - fetch_before;
        phase.openSeconds = served.openSeconds;
        return phase;
    }

    bool
    addLayers(Served &, const std::vector<Phase> &traced,
              std::vector<Span> &spans,
              const std::vector<RangeRequest> &sample, uint64_t requests,
              LayerSet &layers, std::string &error)
    {
        addServiceCounters(traced, layers);
        return replayLayers(options_, corpus_, spans, sample, requests,
                            layers, error);
    }

  private:
    /** One chunk-aligned readRange, re-sent on a non-Ok status,
     *  checked against the set-up digests. */
    Attempt
    request(Served &served, size_t archive, uint32_t chunk)
    {
        const ArchiveTruth &truth = corpus_.archives[archive];
        Attempt attempt;
        attempt.range = {archive, truth.chunkFirst[chunk],
                         truth.chunkFirst[chunk + 1] - truth.chunkFirst[chunk]};
        const RangeRequest &range = attempt.range;
        sage::ReadResult result;
        const double start = nowSeconds();
        {
            ScopedSpan span("service.request", tagOf(archive, chunk));
            result = served.services[archive]->readRange(
                range.first, range.count, sage::RequestOptions{});
            while (!result.ok() && attempt.retries + 1 < kAttempts) {
                ++attempt.retries;
                result = served.services[archive]->readRange(
                    range.first, range.count, sage::RequestOptions{});
            }
        }
        attempt.seconds = nowSeconds() - start;
        attempt.ok = result.ok() && result.reads.size() == range.count &&
            truth.matches(range.first, result.reads);
        attempt.bytes = payloadBytes(result.reads);
        return attempt;
    }

    const Options &options_;
    ServeCorpus &corpus_;
    std::vector<uint64_t> budgets_;
    std::vector<ChunkRef> popular_;  ///< Zipf rank -> chunk.
    size_t cached_ = 0;              ///< Hottest chunks the budget holds.
    double zipfS_ = 0.0;
    IoCounters fetchIo_;
};

} // namespace

Outcome
runServeLocal(const Options &options)
{
    return runServe<ServeLocal, Served, Phase>(options);
}

} // namespace perfbench
