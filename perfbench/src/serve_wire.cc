/**
 * @file
 * serve_wire: archive -> reads over the wire. A loopback net::Server
 * over MultiArchiveService, reached through one net::Client per client
 * thread; each request is a READ_RANGE of 1024 reads at a uniform
 * offset. The cache holds the whole decoded corpus and is warmed in
 * set-up, so reply encoding, CRC, socket and client parsing dominate.
 */

#include <algorithm>
#include <memory>
#include <thread>

#include "net/client.hh"
#include "net/multi_archive.hh"
#include "net/server.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr uint64_t kBatchReads = 1024;

/** One set-up's live objects, torn down clients -> server -> service. */
struct Wire
{
    std::unique_ptr<sage::MultiArchiveService> service;
    std::unique_ptr<sage::net::Server> server;
    std::vector<std::unique_ptr<sage::net::Client>> clients;
    std::vector<uint32_t> ids;

    void
    reset()
    {
        clients.clear();
        if (server)
            server->stop();
        server.reset();
        service.reset();
        ids.clear();
    }
};

/** One segment: what the clients saw, plus the server's counters. */
struct Phase
{
    LoopResult loop;
    sage::net::ServerNetStats netBefore, netAfter;
    sage::MultiArchiveStats serviceBefore, serviceAfter;
};

class ServeWire
{
  public:
    ServeWire(const Options &options, const ServeCorpus &corpus)
        : options_(options), corpus_(corpus)
    {
    }

    std::string
    describe() const
    {
        return corpus_.describe(budget()) + "requests  read_range reads=" +
            std::to_string(kBatchReads) + " offsets=uniform\n";
    }

    /** Start service and server, connect the clients, time OPEN to the
     *  first batch of each archive, then warm every chunk. */
    bool
    setUp(Wire &wire, std::vector<double> &first_reads, std::string &error)
    {
        sage::MultiArchiveOptions service_options;
        service_options.globalCacheBudgetBytes = budget();
        service_options.maxOpenArchives =
            static_cast<unsigned>(corpus_.archives.size());
        service_options.cacheShards = 1;
        service_options.ownedPoolThreads = options_.clients;
        wire.service = std::make_unique<sage::MultiArchiveService>(
            corpus_.dir, service_options);
        wire.server = std::make_unique<sage::net::Server>(*wire.service);
        sage::Status started = wire.server->start();
        if (!started.ok()) {
            error = "server start failed: " + started.toString();
            return false;
        }
        for (unsigned t = 0; t < options_.clients; ++t) {
            auto client =
                sage::net::Client::connect("127.0.0.1", wire.server->port());
            if (!client.ok()) {
                error = "connect failed: " + client.status().toString();
                return false;
            }
            wire.clients.push_back(std::move(client.value()));
        }
        for (size_t a = 0; a < corpus_.archives.size(); ++a) {
            const double start = nowSeconds();
            auto opened = wire.clients[0]->open(corpus_.archives[a].name);
            if (!opened.ok()) {
                error = "OPEN failed: " + opened.status().toString();
                return false;
            }
            wire.ids.push_back(opened.value().archive);
            if (!request(wire, 0, {a, 0, kBatchReads}).ok) {
                error = corpus_.archives[a].name + ": first batch failed";
                return false;
            }
            first_reads.push_back((nowSeconds() - start) * 1e3);
        }
        for (unsigned t = 1; t < options_.clients; ++t) {
            for (size_t a = 0; a < corpus_.archives.size(); ++a) {
                auto opened = wire.clients[t]->open(corpus_.archives[a].name);
                if (!opened.ok() || opened.value().archive != wire.ids[a]) {
                    error = "OPEN on a second connection failed";
                    return false;
                }
            }
        }
        for (size_t a = 0; a < corpus_.archives.size(); ++a) {
            for (size_t c = 0; c < corpus_.archives[a].chunks(); ++c)
                wire.service->readChunkSync(wire.ids[a], c);
        }
        return true;
    }

    Phase
    run(Wire &wire, bool traced, double seconds, uint64_t salt)
    {
        Phase phase;
        phase.netBefore = wire.server->netStats();
        phase.serviceBefore = wire.service->stats();
        std::uniform_int_distribution<size_t> pick(0,
                                                   corpus_.archives.size() - 1);
        Tracer::setEnabled(traced);
        phase.loop = closedLoop(
            options_, seconds, salt, kReplaySample,
            [&](unsigned t, std::mt19937_64 &rng) {
                const size_t a = pick(rng);
                std::uniform_int_distribution<uint64_t> offset(
                    0, corpus_.archives[a].reads - kBatchReads);
                return request(wire, t, {a, offset(rng), kBatchReads});
            });
        Tracer::setEnabled(false);
        phase.netAfter = wire.server->netStats();
        phase.serviceAfter = wire.service->stats();
        return phase;
    }

    /** Decode, open and fetch from a replay of the set-up warm; server
     *  counters from the traced phases; the serve path from a replay of
     *  recorded requests on the last (traced) segment's service. */
    bool
    addLayers(Wire &wire, const std::vector<Phase> &traced,
              std::vector<Span> &, const std::vector<RangeRequest> &sample,
              uint64_t requests, LayerSet &layers, std::string &error)
    {
        std::vector<ChunkRef> chunks;
        for (size_t a = 0; a < corpus_.archives.size(); ++a) {
            for (size_t c = 0; c < corpus_.archives[a].chunks(); ++c)
                chunks.emplace_back(a, static_cast<uint32_t>(c));
        }
        const DecodeSplit decode = replayDecode(corpus_.archives, chunks);
        layers.addDecode(decode, 1.0);
        layers.openS = decode.openSeconds;
        layers.fetchS = decode.fetch.seconds;
        layers.fetchBytes = static_cast<double>(decode.fetch.bytes);
        layers.fetchCalls = static_cast<double>(decode.fetch.calls);

        layers.errored = layers.retries = 0;
        layers.framesIn = layers.bytesOut = layers.txPauses =
            layers.crcMismatches = 0;
        for (const Phase &phase : traced) {
            const sage::net::ServerNetStats &b = phase.netBefore,
                                            &e = phase.netAfter;
            layers.framesIn += static_cast<double>(e.framesIn - b.framesIn);
            layers.bytesOut += static_cast<double>(e.bytesOut - b.bytesOut);
            layers.txPauses += static_cast<double>(e.txPauses - b.txPauses);
            layers.crcMismatches +=
                static_cast<double>(e.crcMismatches - b.crcMismatches);
            layers.errored += static_cast<double>(
                phase.serviceAfter.errored - phase.serviceBefore.errored);
            layers.retries += static_cast<double>(phase.loop.retries);
        }
        const ServePathSplit split =
            replayServePath(*wire.service, wire.ids, corpus_.archives, sample);
        if (split.failed != 0) {
            error = "replayed replies did not match the archives";
            return false;
        }
        layers.addServePath(split, static_cast<double>(requests) /
                                static_cast<double>(split.requests));
        // On a warm cache a request is its assembly.
        layers.requestS = layers.assembleS;
        return true;
    }

  private:
    /** Global cache budget: each archive's partition is twice the
     *  largest decoded archive, so the whole corpus stays resident. */
    uint64_t
    budget() const
    {
        uint64_t largest = 0;
        for (const ArchiveTruth &truth : corpus_.archives)
            largest = std::max(largest, truth.decodedBytes);
        return 2 * largest * corpus_.archives.size();
    }

    /** One READ_RANGE on client @p t, retried while the server answers
     *  with a retryable status, checked against the set-up digests. */
    Attempt
    request(Wire &wire, unsigned t, const RangeRequest &range)
    {
        Attempt attempt;
        attempt.range = range;
        const double start = nowSeconds();
        auto got = [&] {
            ScopedSpan span("net.request");
            auto reply = wire.clients[t]->readRange(
                wire.ids[range.archive], range.first, range.count);
            while (reply.ok() && !reply.value().ok() &&
                   sage::net::wireStatusRetryable(reply.value().status) &&
                   attempt.retries + 1 < kAttempts) {
                ++attempt.retries;
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                reply = wire.clients[t]->readRange(
                    wire.ids[range.archive], range.first, range.count);
            }
            return reply;
        }();
        attempt.seconds = nowSeconds() - start;
        if (!got.ok() || !got.value().ok())
            return attempt;
        const std::vector<sage::Read> &reads = got.value().reads;
        attempt.bytes = payloadBytes(reads);
        attempt.ok = reads.size() == range.count &&
            corpus_.archives[range.archive].matches(range.first, reads);
        return attempt;
    }

    const Options &options_;
    const ServeCorpus &corpus_;
};

} // namespace

Outcome
runServeWire(const Options &options)
{
    // The last segment is traced, so its server is still up for the
    // serve-path replay in addLayers.
    return runServe<ServeWire, Wire, Phase>(options);
}

} // namespace perfbench
