/**
 * @file
 * sage_cli: a command-line front end over the library — the shape of
 * tool a downstream genomics user would actually invoke.
 *
 *   sage_cli compress     <in.fastq> <reference.txt> <out.sage> [--drop-quality] [--keep-order]
 *   sage_cli decompress   <in.sage> <out.fastq> [--threads N]
 *   sage_cli range        <in.sage> <out.fastq> <first-chunk> <count> [--threads N]
 *   sage_cli inspect      <in.sage>
 *   sage_cli verify       <in.sage>
 *   sage_cli serve-stress <in.sage|@synth> [--clients N] [--cache-mb M] [--threads N] [--passes P]
 *                         [--deadline-ms D] [--cancel-every K]
 *                         [--fault-rate R] [--fault-seed S]
 *                         [--connect host:port]   (drive a live server instead)
 *   sage_cli serve        <dir> [--port P] [--budget-mb M] [--max-open N]
 *                         [--high-water H] [--threads N]
 *                         [--fault-rate R] [--fault-seed S]
 *                         [--drain-seconds D]
 *   sage_cli net-get      <host:port> <archive-name> <out.fastq>
 *   sage_cli chaos-proxy  <upstream-host:port> [--seed S] [--reset-rate R]
 *                         [--corrupt-rate R] [--stall-rate R]
 *                         [--stall-ms N] [--split-rate R]
 *   sage_cli demo         <workdir>    (generates inputs, runs all of the above)
 *
 * `serve` and `chaos-proxy` print a machine-parseable "PORT <n>" line
 * on stdout once listening (the ephemeral port when --port is 0), and
 * both drain gracefully on SIGTERM/SIGINT. net-get retries resets,
 * damaged frames and Overloaded sheds (up to 64 attempts per call)
 * and exits 75 (EX_TEMPFAIL) when its last answer was the server
 * draining, so wrappers can retry.
 *
 * The reference file is plain text of A/C/G/T (one consensus sequence).
 * Built on the streaming session API (io/session.hh): compression
 * streams the archive to disk through a FileSink; decompression,
 * range extraction and inspection open the archive through a
 * FileSource, so `inspect` and `range` never load the whole file.
 */

#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sage.hh"
#include "genomics/fastq.hh"
#include "io/fault_injection.hh"
#include "simgen/synthesize.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"

namespace {

using namespace sage;

/** Load a consensus/reference file, dropping all whitespace. I/O
 *  failures exit 1 naming the offending path. */
std::string
readReferenceFile(const std::string &path)
{
    const FileSource source(path);
    std::vector<uint8_t> text;
    orExit(source.tryRead(0, static_cast<size_t>(source.size()), text));
    std::string clean;
    clean.reserve(text.size());
    for (uint8_t c : text) {
        if (!std::isspace(static_cast<int>(c)))
            clean.push_back(static_cast<char>(c));
    }
    return clean;
}

/** Parse all of @p text as a number in [0, @p max] into @p out; false,
 *  with @p out untouched, on anything else (empty, a sign, spaces,
 *  trailing bytes, overflow). */
template <typename T>
bool
parseNumber(const char *text, T max, T &out)
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc() || stop != end || text[0] == '-' ||
        !(value <= max))
        return false;
    out = value;
    return true;
}

/** One valued flag of a subcommand: an unsigned in [0, max], a rate in
 *  [0, 1], or a string. */
struct Flag
{
    const char *name;
    unsigned *count = nullptr;
    int max = 0;
    double *rate = nullptr;
    std::string *text = nullptr;
};

Flag
uintFlag(const char *name, unsigned &out, int max)
{
    return {name, &out, max, nullptr, nullptr};
}

Flag
rateFlag(const char *name, double &out)
{
    return {name, nullptr, 0, &out, nullptr};
}

Flag
stringFlag(const char *name, std::string &out)
{
    return {name, nullptr, 0, nullptr, &out};
}

/**
 * Parse argv[from..) as "--flag value" pairs against @p flags. An
 * unknown option (or a flag without its value) fails at once; a value
 * out of range is reported and parsing goes on, failing at the end.
 */
bool
parseFlags(int argc, char **argv, int from,
           std::initializer_list<Flag> flags)
{
    bool bad_value = false;
    for (int i = from; i < argc; i++) {
        const Flag *flag = nullptr;
        for (const Flag &candidate : flags) {
            if (std::strcmp(argv[i], candidate.name) == 0 && i + 1 < argc) {
                flag = &candidate;
                break;
            }
        }
        if (!flag) {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return false;
        }
        const char *value = argv[++i];
        if (flag->count) {
            if (!parseNumber(value, static_cast<unsigned>(flag->max),
                             *flag->count)) {
                std::fprintf(stderr, "%s must be an integer in [0, %d]\n",
                             flag->name, flag->max);
                bad_value = true;
            }
        } else if (flag->rate) {
            if (!parseNumber(value, 1.0, *flag->rate)) {
                std::fprintf(stderr, "%s must be in [0, 1]\n",
                             flag->name);
                bad_value = true;
            }
        } else {
            *flag->text = value;
        }
    }
    return !bad_value;
}

int
cmdCompress(int argc, char **argv)
{
    if (argc < 5) {
        std::fprintf(stderr, "usage: sage_cli compress <in.fastq> "
                             "<reference.txt> <out.sage> "
                             "[--drop-quality] [--keep-order]\n");
        return 1;
    }
    SageConfig config;
    for (int i = 5; i < argc; i++) {
        if (std::strcmp(argv[i], "--drop-quality") == 0)
            config.keepQuality = false;
        else if (std::strcmp(argv[i], "--keep-order") == 0)
            config.preserveOrder = true;
    }
    ReadSet rs = readFastqFile(argv[2]);
    const std::string reference = readReferenceFile(argv[3]);
    const uint64_t fastq_bytes = rs.fastqBytes();
    const uint64_t dna_bytes = rs.dnaBytes();
    const uint64_t quality_bytes = rs.qualityBytes();

    SageWriter writer(argv[4], config);
    writer.add(std::move(rs)); // No second resident copy of the reads.
    const SageWriteStats stats = writer.finish(reference);
    std::printf("%s: %llu B -> %llu B (%.2fx); DNA %.2fx, quality %s\n",
                argv[4],
                static_cast<unsigned long long>(fastq_bytes),
                static_cast<unsigned long long>(stats.archiveBytes),
                static_cast<double>(fastq_bytes)
                    / static_cast<double>(stats.archiveBytes),
                static_cast<double>(dna_bytes) / stats.dnaBytes,
                stats.qualityBytes == 0
                    ? "dropped"
                    : TextTable::num(
                          static_cast<double>(quality_bytes)
                          / stats.qualityBytes).c_str());
    return 0;
}

int
cmdDecompress(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: sage_cli decompress <in.sage> <out.fastq> "
                     "[--threads N]\n");
        return 1;
    }
    unsigned threads = 0;  // 0 = hardware concurrency.
    if (!parseFlags(argc, argv, 4, {uintFlag("--threads", threads, 1024)}))
        return 1;
    ThreadPool pool(threads);
    SageReader reader(argv[2]);
    const ReadSet rs = reader.decodeAll(&pool);
    writeFastqFile(rs, argv[3]);
    std::printf("%s: %zu reads restored (%zu chunks, %zu threads)\n",
                argv[3], rs.reads.size(), reader.chunkCount(),
                pool.threadCount());
    return 0;
}

int
cmdRange(int argc, char **argv)
{
    if (argc < 6) {
        std::fprintf(stderr,
                     "usage: sage_cli range <in.sage> <out.fastq> "
                     "<first-chunk> <count> [--threads N]\n");
        return 1;
    }
    unsigned threads = 0;  // 0 = hardware concurrency.
    if (!parseFlags(argc, argv, 6, {uintFlag("--threads", threads, 1024)}))
        return 1;
    const size_t any = std::numeric_limits<size_t>::max();
    size_t first = 0, count = 0;
    if (!parseNumber(argv[4], any, first) ||
        !parseNumber(argv[5], any, count)) {
        std::fprintf(stderr, "<first-chunk> and <count> must be "
                             "non-negative integers\n");
        return 1;
    }

    SageReader reader(argv[2]);
    if (first > reader.chunkCount() ||
        count > reader.chunkCount() - first) {
        std::fprintf(stderr, "chunk range [%zu, %zu) exceeds the "
                             "archive's %zu chunks\n",
                     first, first + count, reader.chunkCount());
        return 1;
    }
    ThreadPool pool(threads);
    const ReadSet rs = reader.decodeRange(first, count, &pool);
    writeFastqFile(rs, argv[3]);
    std::printf("%s: %zu reads from chunks [%zu, %zu) of %zu "
                "(stored order)\n",
                argv[3], rs.reads.size(), first, first + count,
                reader.chunkCount());
    return 0;
}

int
cmdInspect(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: sage_cli inspect <in.sage>\n");
        return 1;
    }
    SageReaderOptions options;
    options.dnaOnly = true; // Header-only open: no payload decode.
    SageReader reader(argv[2], options);
    const ArchiveInfo &info = reader.info();
    std::printf("SAGe archive %s\n", argv[2]);
    std::printf("  reads:            %llu\n",
                static_cast<unsigned long long>(info.params.numReads));
    std::printf("  chunks:           %zu\n", reader.chunkCount());
    std::printf("  consensus length: %llu\n",
                static_cast<unsigned long long>(
                    info.params.consensusLength));
    std::printf("  quality stream:   %s\n",
                info.params.hasQuality ? "yes" : "no");
    std::printf("  order preserved:  %s\n",
                info.params.preservedOrder ? "yes" : "no");
    std::printf("  modal read len:   %llu%s\n",
                static_cast<unsigned long long>(
                    info.params.modalReadLength),
                info.params.constantReadLength ? " (constant)" : "");
    std::printf("  optimizations:    reorder=%d tuned=%d segments=%u "
                "infer-types=%d corner-trick=%d\n",
                info.params.reorderReads, info.params.tuneArrays,
                info.params.maxSegments, info.params.inferTypes,
                info.params.cornerTrick);
    std::printf("  matching-pos widths (bits):");
    for (uint8_t width : info.params.matchPos.widthByRank)
        std::printf(" %u", width);
    std::printf("\n  mismatch-pos widths (bits):");
    for (uint8_t width : info.params.mismatchPos.widthByRank)
        std::printf(" %u", width);
    std::printf("\n  streams:\n");
    for (const auto &[name, size] : info.streamSizes) {
        std::printf("    %-10s %10llu B\n", name.c_str(),
                    static_cast<unsigned long long>(size));
    }
    return 0;
}

/**
 * End-to-end integrity check (verifyArchive): the archive CRC against
 * its trailer, a full open with host streams, and a decode of every
 * chunk — what a decompress will read. A failure (bit rot, truncation,
 * torn write, a stream that passes its CRC but does not decode) is an
 * ordinary non-zero exit with the Status printed — never an abort — so
 * scripts can gate on `sage_cli verify`.
 */
int
cmdVerify(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: sage_cli verify <in.sage>\n");
        return 1;
    }
    const FileSource source(argv[2]);
    const Status status = verifyArchive(source);
    if (!status.ok()) {
        std::fprintf(stderr, "%s: FAILED (%s): %s\n", argv[2],
                     statusCodeName(status.code()),
                     status.message().c_str());
        return 1;
    }
    std::printf("%s: OK (checksum verified, every chunk decodes)\n",
                argv[2]);
    return 0;
}

/** Split "host:port"; false (with a message) on a malformed spec. */
bool
parseHostPort(const std::string &spec, std::string &host,
              uint16_t &port)
{
    const size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size()) {
        std::fprintf(stderr, "bad host:port spec: %s\n", spec.c_str());
        return false;
    }
    uint16_t value = 0;
    if (!parseNumber(spec.c_str() + colon + 1, uint16_t{65535}, value) ||
        value == 0) {
        std::fprintf(stderr, "bad port in: %s\n", spec.c_str());
        return false;
    }
    host = spec.substr(0, colon);
    port = value;
    return true;
}

/**
 * serve-stress --connect: the same fleet walk, but through the
 * socket path against a live `sage_cli serve` — every walker on a
 * retrying net::Client (maxAttempts 64), so connection resets,
 * stalls and corrupted frames from a chaos proxy in the path are
 * absorbed by reconnect + retry instead of failing the walk. A read
 * the retry loop still cannot deliver is a *lost read* and
 * fails the run (non-zero exit): under chaos the contract is "slower,
 * never wrong, never silently short". Per-client resilience costs
 * (reconnects, retries, backoff time) are reported at the end.
 */
int
serveStressConnect(const std::string &connect,
                   const std::string &archive_name, unsigned clients,
                   unsigned passes, unsigned deadline_ms,
                   unsigned cancel_every, double fault_rate)
{
    std::string host;
    uint16_t port = 0;
    if (!parseHostPort(connect, host, port))
        return 1;
    if (archive_name == "@synth") {
        std::fprintf(stderr,
                     "--connect serves named archives; @synth is "
                     "in-process only\n");
        return 1;
    }
    if (cancel_every || fault_rate > 0.0)
        std::fprintf(stderr,
                     "note: --cancel-every/--fault-rate are "
                     "in-process flags; the server side owns faults "
                     "(serve --fault-rate)\n");

    std::printf("driving %s:%u, archive '%s': %u clients x %u "
                "passes%s\n",
                host.c_str(), port, archive_name.c_str(), clients,
                std::max(1u, passes),
                deadline_ms ? ", per-request deadline" : "");

    std::atomic<uint64_t> total_bytes{0}, total_reads{0};
    std::atomic<uint64_t> overloaded{0}, expired{0}, errors{0};
    std::atomic<uint64_t> lost_reads{0}, failures{0};
    std::vector<net::ClientStats> costs(clients);
    Stopwatch clock;
    std::vector<std::thread> fleet;
    for (unsigned c = 0; c < clients; c++) {
        fleet.emplace_back([&, c] {
            net::ClientOptions options;
            options.seed = 0x5a6e0000u + c;
            options.maxAttempts = 64;
            // A corrupted length prefix can leave a recv waiting for
            // bytes that never come; keep that bounded so the retry
            // loop (not the socket) owns recovery time.
            options.ioTimeoutSeconds = 5.0;
            auto connected = net::Client::connect(host, port, options);
            if (!connected.ok()) {
                std::fprintf(stderr, "client %u connect: %s\n", c,
                             connected.status().toString().c_str());
                failures.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            net::Client &client = *connected.value();
            auto opened = client.open(archive_name);
            if (!opened.ok()) {
                std::fprintf(stderr, "client %u open: %s\n", c,
                             opened.status().toString().c_str());
                failures.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            const uint64_t expect = opened->readCount;
            for (unsigned pass = 0; pass < std::max(1u, passes);
                 pass++) {
                uint64_t delivered = 0, at = 0;
                bool abandoned = false;
                while (at < expect) {
                    const uint64_t batch =
                        std::min<uint64_t>(1024, expect - at);
                    auto reply = client.readRange(
                        opened->archive, at, batch,
                        RequestPriority::Normal, deadline_ms);
                    if (!reply.ok()) {
                        std::fprintf(
                            stderr, "client %u read: %s\n", c,
                            reply.status().toString().c_str());
                        failures.fetch_add(1,
                                           std::memory_order_relaxed);
                        return;
                    }
                    if (reply->status == net::WireStatus::Expired ||
                        reply->status == net::WireStatus::Cancelled) {
                        expired.fetch_add(1,
                                          std::memory_order_relaxed);
                        abandoned = true;
                        break;
                    }
                    if (reply->status ==
                        net::WireStatus::Overloaded) {
                        // Retry budget exhausted while shed; the
                        // walk is short but the outcome was honest.
                        overloaded.fetch_add(
                            1, std::memory_order_relaxed);
                        abandoned = true;
                        break;
                    }
                    if (!reply->ok()) {
                        errors.fetch_add(1, std::memory_order_relaxed);
                        abandoned = true;
                        break;
                    }
                    for (const Read &read : reply->reads)
                        total_bytes.fetch_add(
                            read.bases.size() + read.quals.size(),
                            std::memory_order_relaxed);
                    total_reads.fetch_add(reply->reads.size(),
                                          std::memory_order_relaxed);
                    delivered += reply->reads.size();
                    at += batch;
                }
                // Deadline walks may legitimately stop short; a
                // plain walk must deliver everything it asked for.
                if (!deadline_ms && !abandoned && delivered != expect)
                    lost_reads.fetch_add(expect - delivered,
                                         std::memory_order_relaxed);
            }
            costs[c] = client.stats();
        });
    }
    for (auto &client : fleet)
        client.join();
    const double seconds = clock.seconds();
    const uint64_t bytes = total_bytes.load();
    std::printf("served %.1f MB (%llu reads) over the socket in "
                "%.3fs (%.1f MB/s aggregate)\n",
                static_cast<double>(bytes) / 1e6,
                static_cast<unsigned long long>(total_reads.load()),
                seconds,
                seconds > 0.0
                    ? static_cast<double>(bytes) / 1e6 / seconds
                    : 0.0);
    std::printf("  overloaded %llu, expired %llu, errors %llu\n",
                static_cast<unsigned long long>(overloaded.load()),
                static_cast<unsigned long long>(expired.load()),
                static_cast<unsigned long long>(errors.load()));
    net::ClientStats sum;
    for (const net::ClientStats &cost : costs) {
        sum.connects += cost.connects;
        sum.reconnects += cost.reconnects;
        sum.retries += cost.retries;
        sum.transportRetries += cost.transportRetries;
        sum.overloadedRetries += cost.overloadedRetries;
        sum.backoffSeconds += cost.backoffSeconds;
    }
    std::printf("  resilience:  %llu reconnects, %llu retries "
                "(%llu transport, %llu in-band), %.3fs backoff "
                "across %u clients\n",
                static_cast<unsigned long long>(sum.reconnects),
                static_cast<unsigned long long>(sum.retries),
                static_cast<unsigned long long>(sum.transportRetries),
                static_cast<unsigned long long>(
                    sum.overloadedRetries),
                sum.backoffSeconds, clients);
    if (failures.load() != 0 || lost_reads.load() != 0) {
        std::fprintf(stderr,
                     "FAILED: %llu client failures, %llu lost "
                     "reads\n",
                     static_cast<unsigned long long>(failures.load()),
                     static_cast<unsigned long long>(
                         lost_reads.load()));
        return 1;
    }
    return 0;
}

/**
 * Drive a SageArchiveService with a fleet of concurrent session
 * clients (service/service.hh) and report the aggregate serving
 * throughput plus the service's own counters — a smoke/perf harness
 * for shared-archive deployments. `--deadline-ms` puts a deadline on
 * every client session; `--cancel-every K` gives every Kth client a
 * cancel token that a churn thread fires mid-walk (the nightly
 * cancellation-churn stress in .github/workflows/bench.yml). The
 * special input `@synth` synthesizes and serves a throwaway archive,
 * so CI needs no checked-in test data.
 */
int
cmdServeStress(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: sage_cli serve-stress <in.sage|@synth> "
                     "[--clients N] [--cache-mb M] [--threads N] "
                     "[--passes P] [--deadline-ms D] "
                     "[--cancel-every K] "
                     "[--fault-rate R] [--fault-seed S] "
                     "[--connect host:port]\n");
        return 1;
    }
    unsigned clients = 16, cache_mb = 256, threads = 0, passes = 1;
    unsigned deadline_ms = 0, cancel_every = 0, fault_seed = 1;
    double fault_rate = 0.0;
    std::string connect;
    if (!parseFlags(argc, argv, 3,
                    {uintFlag("--clients", clients, 4096),
                     uintFlag("--cache-mb", cache_mb, 1 << 20),
                     uintFlag("--threads", threads, 1024),
                     uintFlag("--passes", passes, 1 << 20),
                     uintFlag("--deadline-ms", deadline_ms, 1 << 20),
                     uintFlag("--cancel-every", cancel_every, 1 << 20),
                     uintFlag("--fault-seed", fault_seed, 1 << 30),
                     rateFlag("--fault-rate", fault_rate),
                     stringFlag("--connect", connect)}))
        return 1;
    if (clients == 0) {
        std::fprintf(stderr, "--clients must be at least 1\n");
        return 1;
    }
    if (!connect.empty())
        return serveStressConnect(connect, argv[2], clients, passes,
                                  deadline_ms, cancel_every,
                                  fault_rate);

    std::string archive_path = argv[2];
    bool synthesized = false;
    if (archive_path == "@synth") {
        DatasetSpec spec = makeRs2Spec();
        spec.name = "serve-stress";
        spec.genome.referenceLength = 1 << 19;
        spec.depth = 12.0;
        std::fprintf(stderr, "synthesizing throwaway archive ...\n");
        const SimulatedDataset ds = synthesizeDataset(spec);
        SageConfig config;
        config.chunkReads = 4096;  // ~10 chunks: real cache traffic.
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config);
        archive_path = "serve_stress_synth.sage.tmp";
        FileSink sink(archive_path);
        sink.writeBytes(archive.bytes);
        synthesized = true;
    }

    ServiceOptions options;
    options.cacheBudgetBytes = static_cast<uint64_t>(cache_mb) << 20;
    options.ownedPoolThreads = threads;

    // Chaos mode: interpose a deterministic fault injector between the
    // service and the file so every decode's reads can fail or flip a
    // bit. The service must degrade (per-request Error), never abort.
    std::unique_ptr<FileSource> file;
    std::unique_ptr<FaultInjectionSource> faulty;
    std::unique_ptr<SageArchiveService> owned;
    if (fault_rate > 0.0) {
        file = std::make_unique<FileSource>(archive_path);
        FaultConfig fault_config;
        fault_config.seed = fault_seed;
        fault_config.ioErrorRate = fault_rate;
        fault_config.bitFlipRate = fault_rate;
        faulty = std::make_unique<FaultInjectionSource>(*file,
                                                        fault_config);
        // Open cleanly (the container parse uses try-reads too), then
        // arm the schedule for the workload.
        faulty->setArmed(false);
        owned = std::make_unique<SageArchiveService>(*faulty, options);
        faulty->setArmed(true);
    } else {
        owned = std::make_unique<SageArchiveService>(archive_path,
                                                     options);
    }
    SageArchiveService &service = *owned;
    std::printf("serving %s: %llu reads in %zu chunks, cache budget "
                "%u MiB, %zu workers\n",
                archive_path.c_str(),
                static_cast<unsigned long long>(service.readCount()),
                service.chunkCount(), cache_mb,
                service.pool().threadCount());
    if (deadline_ms)
        std::printf("  per-session deadline: %u ms\n", deadline_ms);
    if (cancel_every)
        std::printf("  cancellation churn: every %uth client\n",
                    cancel_every);
    if (fault_rate > 0.0)
        std::printf("  fault injection: io-error %.3f%% + bit-flip "
                    "%.3f%% per read, seed %u\n",
                    fault_rate * 100.0, fault_rate * 100.0,
                    fault_seed);

    double total_seconds = 0.0;
    uint64_t total_bytes = 0;
    std::atomic<uint64_t> error_retries{0};  // Client-visible Errors.
    std::atomic<uint64_t> incomplete_walks{0};
    for (unsigned pass = 0; pass < std::max(1u, passes); pass++) {
        const uint64_t bytes_before = service.stats().bytesServed;
        Stopwatch clock;
        // Every Kth client carries a cancel token; the churn thread
        // fires them with a small stagger so cancellation races every
        // phase of a walk (queued, decoding, between chunks).
        std::vector<std::shared_ptr<CancelSource>> victims;
        std::vector<std::thread> fleet;
        for (unsigned c = 0; c < clients; c++) {
            RequestOptions session_options;
            if (deadline_ms) {
                session_options.deadline = RequestOptions::deadlineIn(
                    static_cast<double>(deadline_ms) / 1e3);
            }
            if (cancel_every && (c + 1) % cancel_every == 0) {
                victims.push_back(std::make_shared<CancelSource>());
                session_options.cancel = victims.back()->token();
            }
            fleet.emplace_back([&service, session_options,
                                &error_retries, &incomplete_walks] {
                ServiceSession session =
                    service.openSession(session_options);
                const uint64_t expect = service.readCount();
                uint64_t delivered = 0;
                uint64_t retries_left = 100000;
                while (session.hasNext()) {
                    const size_t got = session.read(1024).size();
                    delivered += got;
                    if (got != 0 ||
                        session.lastStatus() == RequestStatus::Ok)
                        continue;
                    // Error is not sticky: the cursor is parked before
                    // the failed chunk and the next read retries it.
                    if (session.lastStatus() == RequestStatus::Error &&
                        retries_left-- > 0) {
                        error_retries.fetch_add(
                            1, std::memory_order_relaxed);
                        continue;
                    }
                    break;  // Expired or cancelled: walk is over.
                }
                // A fault-free or fully retried walk must deliver
                // every read exactly once, in order.
                if (!session_options.cancel.connected() &&
                    !session_options.hasDeadline() &&
                    delivered != expect)
                    incomplete_walks.fetch_add(
                        1, std::memory_order_relaxed);
            });
        }
        std::thread churn;
        if (!victims.empty()) {
            churn = std::thread([&victims] {
                for (auto &victim : victims) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                    victim->cancel();
                }
            });
        }
        for (auto &client : fleet)
            client.join();
        if (churn.joinable())
            churn.join();
        const double seconds = clock.seconds();
        const uint64_t bytes =
            service.stats().bytesServed - bytes_before;
        total_seconds += seconds;
        total_bytes += bytes;
        std::printf("pass %u: %u clients x full walk in %.3fs "
                    "(%.1f MB/s aggregate)\n",
                    pass + 1, clients, seconds,
                    seconds > 0.0
                        ? static_cast<double>(bytes) / 1e6 / seconds
                        : 0.0);
    }

    const ServiceStats stats = service.stats();
    std::printf("served %.1f MB in %.3fs (%.1f MB/s aggregate)\n",
                static_cast<double>(total_bytes) / 1e6, total_seconds,
                total_seconds > 0.0 ? static_cast<double>(total_bytes)
                        / 1e6 / total_seconds
                                    : 0.0);
    std::printf("  requests:        %llu (interactive %llu / normal "
                "%llu / background %llu)\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(
                    stats.requestsByPriority[0]),
                static_cast<unsigned long long>(
                    stats.requestsByPriority[1]),
                static_cast<unsigned long long>(
                    stats.requestsByPriority[2]));
    std::printf("  cache:           %.1f%% hit rate, %llu decodes, "
                "%llu evictions, %.1f MB resident\n",
                100.0 * stats.cache.hitRate(),
                static_cast<unsigned long long>(stats.cache.misses),
                static_cast<unsigned long long>(stats.cache.evictions),
                static_cast<double>(stats.cache.residentBytes) / 1e6);
    std::printf("  request latency: p50 %.2fms, p99 %.2fms, max "
                "%.2fms (%llu samples)\n",
                stats.p50LatencySeconds * 1e3,
                stats.p99LatencySeconds * 1e3,
                stats.maxLatencySeconds * 1e3,
                static_cast<unsigned long long>(stats.latencySamples));
    for (size_t p = 0; p < kRequestPriorityCount; p++) {
        const LatencySummary &lat = stats.latencyByPriority[p];
        if (lat.samples == 0)
            continue;
        std::printf("    %-12s   p50 %.2fms, p99 %.2fms "
                    "(%llu samples)\n",
                    requestPriorityName(
                        static_cast<RequestPriority>(p)),
                    lat.p50Seconds * 1e3, lat.p99Seconds * 1e3,
                    static_cast<unsigned long long>(lat.samples));
    }
    std::printf("  qos outcomes:    %llu expired, %llu cancelled, "
                "%llu abandoned waits\n",
                static_cast<unsigned long long>(stats.expired),
                static_cast<unsigned long long>(stats.cancelled),
                static_cast<unsigned long long>(
                    stats.cache.abandonedWaits));
    std::printf("  queue depth:     max %llu, readahead warms %llu\n",
                static_cast<unsigned long long>(stats.maxQueueDepth),
                static_cast<unsigned long long>(stats.readaheadWarms));
    std::printf("  degradation:     %llu errored requests, %llu io "
                "errors, %llu corrupt chunks, %llu decode retries\n",
                static_cast<unsigned long long>(stats.errored),
                static_cast<unsigned long long>(stats.ioErrors),
                static_cast<unsigned long long>(stats.corruptChunks),
                static_cast<unsigned long long>(stats.retries));
    if (faulty) {
        const FaultCounters injected = faulty->counters();
        std::printf("fault injection: %llu try-reads saw %llu io "
                    "errors + %llu bit flips injected\n",
                    static_cast<unsigned long long>(
                        injected.operations),
                    static_cast<unsigned long long>(injected.ioErrors),
                    static_cast<unsigned long long>(injected.bitFlips));
        std::printf("  observed: %llu client-visible errors (all "
                    "retried), %llu failed decodes "
                    "(%llu io / %llu corrupt), %llu absorbed by "
                    "retry\n",
                    static_cast<unsigned long long>(
                        error_retries.load()),
                    static_cast<unsigned long long>(
                        stats.ioErrors + stats.corruptChunks),
                    static_cast<unsigned long long>(stats.ioErrors),
                    static_cast<unsigned long long>(
                        stats.corruptChunks),
                    static_cast<unsigned long long>(stats.retries));
        const uint64_t incomplete = incomplete_walks.load();
        if (incomplete != 0) {
            std::fprintf(stderr,
                         "FAILED: %llu walks delivered the wrong "
                         "read count\n",
                         static_cast<unsigned long long>(incomplete));
            if (synthesized)
                std::remove(archive_path.c_str());
            return 1;
        }
        std::printf("  all %u clients x %u passes delivered every "
                    "read despite faults; zero aborts\n",
                    clients, std::max(1u, passes));
    }
    if (synthesized)
        std::remove(archive_path.c_str());
    return 0;
}

volatile std::sig_atomic_t g_serveStop = 0;

void
onServeSignal(int)
{
    g_serveStop = 1;
}

/**
 * Serve a directory of archives over TCP (net/server.hh): OPEN names
 * resolve to `<dir>/<name>`, a multi-archive LRU keeps at most
 * --max-open decoders live under a --budget-mb decoded-chunk budget,
 * and --high-water sheds reads as Overloaded once the summed queue
 * depth crosses it. --fault-rate/--fault-seed wrap every archive
 * open in a FaultInjectionSource (server-side chaos: remote clients
 * see Error replies, never a dead server). SIGINT/SIGTERM start a
 * graceful drain (Server::beginDrain): the listener closes, new
 * requests get ShuttingDown, in-flight replies flush, and the
 * process exits 0 within --drain-seconds. Once listening, a
 * machine-parseable "PORT <n>" line goes to stdout so wrappers can
 * use --port 0 (ephemeral) instead of racing for a fixed port.
 */
int
cmdServe(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: sage_cli serve <dir> [--port P] "
                     "[--budget-mb M] [--max-open N] "
                     "[--high-water H] [--threads N] "
                     "[--fault-rate R] [--fault-seed S] "
                     "[--drain-seconds D]\n");
        return 1;
    }
    unsigned port = 0, budget_mb = 256, max_open = 8, high_water = 0;
    unsigned threads = 0, fault_seed = 1, drain_seconds = 5;
    double fault_rate = 0.0;
    if (!parseFlags(argc, argv, 3,
                    {uintFlag("--port", port, 65535),
                     uintFlag("--budget-mb", budget_mb, 1 << 20),
                     uintFlag("--max-open", max_open, 4096),
                     uintFlag("--high-water", high_water, 1 << 20),
                     uintFlag("--threads", threads, 1024),
                     uintFlag("--fault-seed", fault_seed, 1 << 30),
                     uintFlag("--drain-seconds", drain_seconds, 3600),
                     rateFlag("--fault-rate", fault_rate)}))
        return 1;

    MultiArchiveOptions service_options;
    service_options.globalCacheBudgetBytes =
        static_cast<uint64_t>(budget_mb) << 20;
    service_options.maxOpenArchives = max_open;
    service_options.admissionHighWater = high_water;
    service_options.ownedPoolThreads = threads;
    service_options.faultRate = fault_rate;
    service_options.faultSeed = fault_seed;
    MultiArchiveService service(argv[2], service_options);

    net::ServerOptions server_options;
    server_options.port = static_cast<uint16_t>(port);
    server_options.drainDeadlineSeconds =
        static_cast<double>(drain_seconds);
    net::Server server(service, server_options);
    const Status started = server.start();
    if (!started.ok()) {
        std::fprintf(stderr, "serve: %s\n",
                     started.toString().c_str());
        return 1;
    }
    std::signal(SIGINT, onServeSignal);
    std::signal(SIGTERM, onServeSignal);
    std::printf("listening on %s:%u, serving %s (budget %u MiB / %u "
                "open archives%s%s)\n",
                server_options.bindAddress.c_str(), server.port(),
                argv[2], budget_mb, std::max(1u, max_open),
                high_water ? ", admission high-water set" : "",
                fault_rate > 0.0 ? ", fault injection armed" : "");
    std::printf("PORT %u\n", server.port());
    std::fflush(stdout);
    while (!g_serveStop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("draining (deadline %us) ...\n", drain_seconds);
    std::fflush(stdout);
    server.beginDrain();
    const bool drained_cleanly = server.drainWait();
    std::printf("drain %s\n",
                drained_cleanly ? "complete" : "deadline forced");

    const MultiArchiveStats stats = service.stats();
    const net::ServerNetStats socket_stats = server.netStats();
    std::printf("  connections: %llu accepted, %llu frames in, %llu "
                "replies out, %llu protocol errors\n",
                static_cast<unsigned long long>(
                    socket_stats.accepted),
                static_cast<unsigned long long>(
                    socket_stats.framesIn),
                static_cast<unsigned long long>(
                    socket_stats.repliesOut),
                static_cast<unsigned long long>(
                    socket_stats.protocolErrors));
    std::printf("  hygiene:     %llu timed out, %llu shed at cap, "
                "%llu CRC + %llu version rejects, %llu drain "
                "rejects\n",
                static_cast<unsigned long long>(
                    socket_stats.timedOutConnections),
                static_cast<unsigned long long>(
                    socket_stats.shedConnections),
                static_cast<unsigned long long>(
                    socket_stats.crcMismatches),
                static_cast<unsigned long long>(
                    socket_stats.versionMismatches),
                static_cast<unsigned long long>(
                    socket_stats.drainRejects));
    std::printf("  archives:    %u known, %llu opens + %llu reopens, "
                "%llu evictions\n",
                stats.knownArchives,
                static_cast<unsigned long long>(stats.opens),
                static_cast<unsigned long long>(stats.reopens),
                static_cast<unsigned long long>(stats.evictions));
    std::printf("  requests:    %llu admitted, %llu overloaded, "
                "%llu reads / %.1f MB served\n",
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.overloaded),
                static_cast<unsigned long long>(stats.readsServed),
                static_cast<double>(stats.bytesServed) / 1e6);
    return 0;
}

/** Fetch one archive over the socket into a FASTQ file, each call
 *  retried by the client (maxAttempts 64, as serve-stress). */
int
cmdNetGet(int argc, char **argv)
{
    if (argc < 5) {
        std::fprintf(stderr,
                     "usage: sage_cli net-get <host:port> "
                     "<archive-name> <out.fastq>\n");
        return 1;
    }
    std::string host;
    uint16_t port = 0;
    if (!parseHostPort(argv[2], host, port))
        return 1;

    net::ClientOptions options;
    options.maxAttempts = 64;
    auto connected = net::Client::connect(host, port, options);
    if (!connected.ok()) {
        std::fprintf(stderr, "net-get: %s\n",
                     connected.status().toString().c_str());
        return 1;
    }
    net::Client &client = *connected.value();
    auto opened = client.open(argv[3]);
    if (!opened.ok()) {
        std::fprintf(stderr, "net-get open: %s\n",
                     opened.status().toString().c_str());
        return 1;
    }

    ReadSet rs;
    rs.name = argv[3];
    rs.reads.reserve(opened->readCount);
    uint64_t at = 0;
    while (at < opened->readCount) {
        const uint64_t batch =
            std::min<uint64_t>(4096, opened->readCount - at);
        auto reply = client.readRange(opened->archive, at, batch);
        if (!reply.ok()) {
            std::fprintf(stderr, "net-get read: %s\n",
                         reply.status().toString().c_str());
            return 1;
        }
        if (reply->status == net::WireStatus::ShuttingDown) {
            // EX_TEMPFAIL: the server is draining; a wrapper should
            // retry against a live replica rather than treat this as
            // data loss.
            std::fprintf(stderr,
                         "net-get: server is draining; retry "
                         "elsewhere\n");
            return 75;
        }
        if (!reply->ok()) {
            std::fprintf(stderr, "net-get read [%llu, +%llu): %s: "
                         "%s\n",
                         static_cast<unsigned long long>(at),
                         static_cast<unsigned long long>(batch),
                         net::wireStatusName(reply->status),
                         reply->message.c_str());
            return 1;
        }
        for (Read &read : reply->reads)
            rs.reads.push_back(std::move(read));
        at += batch;
    }
    writeFastqFile(rs, argv[4]);
    std::printf("fetched %zu reads from %s:%u/%s into %s\n",
                rs.reads.size(), host.c_str(), port, argv[3],
                argv[4]);
    return 0;
}

/**
 * Stand up a ChaosProxy (net/chaos_proxy.hh) in front of an upstream
 * server and keep it running until SIGINT/SIGTERM — the fault
 * injection side of a resilience smoke: point serve-stress --connect
 * at the printed PORT and every byte flows through deterministic
 * resets/corruption/stalls/splits. Seeded like serve --fault-seed, so
 * a failing run replays.
 */
int
cmdChaosProxy(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: sage_cli chaos-proxy "
                     "<upstream-host:port> [--seed S] "
                     "[--reset-rate R] [--corrupt-rate R] "
                     "[--stall-rate R] [--stall-ms N] "
                     "[--split-rate R]\n");
        return 1;
    }
    std::string host;
    uint16_t port = 0;
    if (!parseHostPort(argv[2], host, port))
        return 1;

    net::ChaosConfig config;
    unsigned seed = 1, stall_ms = 200;
    if (!parseFlags(argc, argv, 3,
                    {uintFlag("--seed", seed, 1 << 30),
                     uintFlag("--stall-ms", stall_ms, 60000),
                     rateFlag("--reset-rate", config.resetRate),
                     rateFlag("--corrupt-rate", config.corruptRate),
                     rateFlag("--stall-rate", config.stallRate),
                     rateFlag("--split-rate", config.splitRate)}))
        return 1;
    config.seed = seed;
    config.stallMs = stall_ms;

    net::ChaosProxy proxy(host, port, config);
    const Status started = proxy.start();
    if (!started.ok()) {
        std::fprintf(stderr, "chaos-proxy: %s\n",
                     started.toString().c_str());
        return 1;
    }
    std::printf("proxying 127.0.0.1:%u -> %s:%u (reset %.3f, "
                "corrupt %.3f, stall %.3f/%ums, split %.3f, "
                "seed %u)\n",
                proxy.port(), host.c_str(), port, config.resetRate,
                config.corruptRate, config.stallRate, config.stallMs,
                config.splitRate, seed);
    std::printf("PORT %u\n", proxy.port());
    std::fflush(stdout);

    std::signal(SIGINT, onServeSignal);
    std::signal(SIGTERM, onServeSignal);
    while (!g_serveStop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    proxy.stop();
    const net::ChaosProxyStats stats = proxy.stats();
    std::printf("chaos: %llu connections, %llu buffers / %.1f MB "
                "forwarded; %llu resets, %llu corrupted, %llu "
                "stalls, %llu splits\n",
                static_cast<unsigned long long>(stats.connections),
                static_cast<unsigned long long>(stats.buffers),
                static_cast<double>(stats.bytes) / 1e6,
                static_cast<unsigned long long>(stats.resets),
                static_cast<unsigned long long>(stats.corrupted),
                static_cast<unsigned long long>(stats.stalls),
                static_cast<unsigned long long>(stats.splits));
    return 0;
}

int
cmdDemo(int argc, char **argv)
{
    const std::string dir = argc > 2 ? argv[2] : "/tmp";
    const std::string fastq = dir + "/cli_demo.fastq";
    const std::string ref = dir + "/cli_demo.ref.txt";
    const std::string archive = dir + "/cli_demo.sage";
    const std::string restored = dir + "/cli_demo.out.fastq";
    const std::string ranged = dir + "/cli_demo.range.fastq";

    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    writeFastqFile(ds.readSet, fastq);
    {
        std::ofstream out(ref);
        out << ds.reference;
    }
    std::printf("generated %s and %s\n", fastq.c_str(), ref.c_str());

    // Each step runs as its subcommand would; the first failure ends
    // the demo with that step's exit code.
    const auto run = [](int (*cmd)(int, char **),
                        std::vector<std::string> args) {
        args.insert(args.begin(), "sage_cli");
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        return cmd(static_cast<int>(argv.size()), argv.data());
    };
    int code = run(cmdCompress, {"compress", fastq, ref, archive});
    if (code == 0)
        code = run(cmdInspect, {"inspect", archive});
    if (code == 0)
        code = run(cmdVerify, {"verify", archive});
    if (code == 0)
        code = run(cmdRange, {"range", archive, ranged, "0", "1"});
    if (code == 0)
        code = run(cmdServeStress,
                   {"serve-stress", archive, "--clients", "4"});
    if (code == 0)
        code = run(cmdDecompress, {"decompress", archive, restored});
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: sage_cli "
                     "<compress|decompress|range|inspect|verify|"
                     "serve-stress|serve|net-get|chaos-proxy|demo> "
                     "...\n");
        return 1;
    }
    if (std::strcmp(argv[1], "compress") == 0)
        return cmdCompress(argc, argv);
    if (std::strcmp(argv[1], "decompress") == 0)
        return cmdDecompress(argc, argv);
    if (std::strcmp(argv[1], "range") == 0)
        return cmdRange(argc, argv);
    if (std::strcmp(argv[1], "inspect") == 0)
        return cmdInspect(argc, argv);
    if (std::strcmp(argv[1], "verify") == 0)
        return cmdVerify(argc, argv);
    if (std::strcmp(argv[1], "serve-stress") == 0)
        return cmdServeStress(argc, argv);
    if (std::strcmp(argv[1], "serve") == 0)
        return cmdServe(argc, argv);
    if (std::strcmp(argv[1], "net-get") == 0)
        return cmdNetGet(argc, argv);
    if (std::strcmp(argv[1], "chaos-proxy") == 0)
        return cmdChaosProxy(argc, argv);
    if (std::strcmp(argv[1], "demo") == 0)
        return cmdDemo(argc, argv);
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    return 1;
}
