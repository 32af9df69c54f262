/**
 * @file
 * Concurrent clients over one shared archive: the SageArchiveService
 * tour (service/service.hh). One service owns the open archive and a
 * byte-budgeted decoded-chunk cache; any number of clients read
 * through it — sequential sessions, random ranges, async callbacks —
 * and a hot chunk is decoded once no matter how many of them ask.
 *
 *   sage::SageArchiveService    -> shared server over one archive
 *   service.openSession()       -> per-client sequential cursor
 *   service.submit(a, n, o, f)  -> the request primitive: span
 *                                  [a, a+n), f(RangeResult) on a
 *                                  worker, runs over cached chunks
 *   service.readRange(a, n, o)  -> the same request, blocking: run
 *                                  on the caller when nothing of its
 *                                  priority or higher is queued, then
 *                                  copied into owned reads
 *   RequestOptions              -> priority, deadline, cancel token
 *                                  (qos.hh)
 *   service.stats()             -> hit rate, latency, queue counters
 */

#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/sage.hh"
#include "simgen/synthesize.hh"

int
main()
{
    using namespace sage;

    // 1. Make an archive to serve (real deployments point the service
    //    at an existing .sage file or device array).
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    SageConfig config;
    config.chunkReads = 128;  // Small chunks: visible cache traffic.
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    const std::string path = "/tmp/sage_concurrent_clients.sage";
    {
        FileSink sink(path);
        sink.writeBytes(archive.bytes);
    }

    // 2. Open it once, behind a service. The cache budget bounds the
    //    decoded working set; requests are scheduled onto a shared
    //    worker pool with FIFO-within-priority ordering.
    ServiceOptions options;
    options.cacheBudgetBytes = 8ull << 20;
    SageArchiveService service(path, options);
    std::printf("serving %llu reads in %zu chunks\n",
                static_cast<unsigned long long>(service.readCount()),
                service.chunkCount());

    // 3. Point clients at it concurrently. Each kind of consumer in
    //    its own thread; they share decoded chunks through the cache.
    std::vector<std::thread> clients;

    // A sequential scanner (e.g. a mapper feeding itself).
    clients.emplace_back([&] {
        ServiceSession session = service.openSession();
        uint64_t bases = 0;
        while (session.hasNext())
            bases += session.next().bases.size();
        std::printf("  scanner: walked %llu bases\n",
                    static_cast<unsigned long long>(bases));
    });

    // A range reader (e.g. a region query) at Interactive priority.
    clients.emplace_back([&] {
        RequestOptions interactive;
        interactive.priority = RequestPriority::Interactive;
        const ReadResult span = service.readRange(100, 200, interactive);
        std::printf("  range client: reads [100, 300) -> %zu reads\n",
                    span.reads.size());
    });

    // An async consumer overlapping two requests. submit() returns at
    // once and hands the outcome to a callback on a pool worker; a
    // caller that wants a future wraps it in its own promise. A whole
    // chunk is requested as its read span.
    clients.emplace_back([&] {
        const auto async = [&](uint64_t first, uint64_t count) {
            auto promise = std::make_shared<std::promise<RangeResult>>();
            std::future<RangeResult> future = promise->get_future();
            service.submit(first, count, RequestOptions{},
                           [promise](RangeResult result) {
                               promise->set_value(std::move(result));
                           });
            return future;
        };
        const size_t last = service.chunkCount() - 1;
        auto a = async(0, 256);
        auto b = async(service.chunkFirstRead(last),
                       service.chunkReadCount(last));
        // The outcome is runs over the shared decoded chunks. A run
        // yields ReadViews into the chunk's columns, read in place
        // while the result is held (copyReads() makes owned reads).
        uint64_t bases = 0;
        const RangeResult head = a.get();
        for (const ReadRun &run : head.runs) {
            for (const ReadView read : run)
                bases += read.bases.size();
        }
        std::printf("  async client: %llu reads (%llu bases) + %llu "
                    "reads\n",
                    static_cast<unsigned long long>(head.readCount()),
                    static_cast<unsigned long long>(bases),
                    static_cast<unsigned long long>(b.get().readCount()));
    });

    // A latency-sensitive client: deadline + cancel token. Every
    // request completes with ReadResult{status, reads} — check ok()
    // before touching the data; an Expired/Cancelled request delivers
    // none.
    clients.emplace_back([&] {
        CancelSource source;  // cancel() from any thread to abort.
        RequestOptions qos;
        qos.priority = RequestPriority::Interactive;
        qos.deadline = RequestOptions::deadlineIn(0.100);
        qos.cancel = source.token();
        const ReadResult result = service.readRange(0, 200, qos);
        std::printf("  qos client: %s, %zu reads\n",
                    requestStatusName(result.status),
                    result.reads.size());
    });

    for (auto &client : clients)
        client.join();

    // 4. The service kept score.
    const ServiceStats stats = service.stats();
    std::printf("stats: %llu requests (%llu expired, %llu cancelled), "
                "%.0f%% cache hit rate, %llu decodes, "
                "interactive p99 %.2f ms\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.expired),
                static_cast<unsigned long long>(stats.cancelled),
                100.0 * stats.cache.hitRate(),
                static_cast<unsigned long long>(stats.cache.misses),
                stats.latencyByPriority[static_cast<size_t>(
                    RequestPriority::Interactive)].p99Seconds * 1e3);
    std::remove(path.c_str());
    return 0;
}
