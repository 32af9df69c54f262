#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <thread>

#include "util/thread_pool.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

double
percentDelta(double from, double to)
{
    return from > 0.0 ? 100.0 * (to - from) / from : 0.0;
}

/** Requests per mb_s / p50 window. */
constexpr size_t kWindowRequests = 1100;
constexpr size_t kMaxWindows = 10;

/** Requests per p99 group: enough for kMinBeyondP99 beyond its p99. */
constexpr size_t kP99GroupRequests = 100 * kMinBeyondP99 + 100;

struct Completion
{
    double at = 0.0;  ///< Completion time.
    double latency = 0.0;
    uint64_t bytes = 0;
};

struct ClientTally
{
    std::vector<Completion> done;
    std::vector<RangeRequest> sample;
    uint64_t failed = 0, retries = 0;
};

} // namespace

Metrics
EndToEnd::metrics() const
{
    Metrics m;
    m.add("setup_s", setupSeconds, "s");
    m.add("mb_s", mbPerSecond, "MB/s");
    m.add("p50_ms", latency.p50 * 1e3, "ms");
    m.add("ratio", ratio, "x");
    m.add("first_read_ms", firstReadMs, "ms");
    m.add("rss_mb", rssMb, "MiB");
    return m;
}

void
LayerSet::addIngest(const std::vector<IngestResult> &ops,
                    const std::vector<IngestResult> &archives,
                    const IoSnapshot &write)
{
    for (const IngestResult &op : ops) {
        parseS += op.parseSeconds;
        parseBytes += static_cast<double>(op.fastqBytes);
        mapS += op.accounting.mapSeconds;
        // The encode span minus the mapping it contains (tune included).
        encodeS += op.encodeSeconds - op.accounting.mapSeconds;
        tuneS += op.accounting.tuneSeconds;
    }
    for (const IngestResult &archive : archives) {
        dnaBytes += static_cast<double>(archive.accounting.dnaBytes);
        qualityBytes += static_cast<double>(archive.accounting.qualityBytes);
        metaBytes += static_cast<double>(archive.accounting.metaBytes);
    }
    writeS += write.seconds;
    writeBytes += static_cast<double>(write.bytes);
    writeCalls += static_cast<double>(write.calls);
}

void
LayerSet::addDecode(const DecodeSplit &split, double scale)
{
    decodeS += split.fullSeconds * scale;
    decodeDnaS += split.dnaSeconds * scale;
    decodeHostS += split.hostSeconds() * scale;
}

void
LayerSet::addServePath(const ServePathSplit &split, double scale)
{
    assembleS += split.assembleSeconds * scale;
    netEncodeS += split.encodeSeconds * scale;
    replyBytes += static_cast<double>(split.replyBytes) * scale;
    crcS += split.crcSeconds * scale;
    netParseS += split.parseSeconds * scale;
    socketS += split.socketSeconds * scale;
}

void
LayerSet::setOverhead(const EndToEnd &untraced, const EndToEnd &traced)
{
    overheadMbPct = -percentDelta(untraced.mbPerSecond, traced.mbPerSecond);
    overheadP50Pct = percentDelta(untraced.latency.p50, traced.latency.p50);
}

Metrics
LayerSet::metrics() const
{
    Metrics m;
    m.add("genomics.parse_s", parseS, "s");
    m.add("genomics.parse_bytes", parseBytes, "B");
    m.add("consensus.map_s", mapS, "s");
    m.add("core.encode_s", encodeS, "s");
    m.add("core.tune_s", tuneS, "s");
    m.add("core.dna_bytes", dnaBytes, "B");
    m.add("core.quality_bytes", qualityBytes, "B");
    m.add("core.meta_bytes", metaBytes, "B");
    m.add("io.write_s", writeS, "s");
    m.add("io.write_bytes", writeBytes, "B");
    m.add("io.write_calls", writeCalls, "count");
    m.add("core.open_s", openS, "s");
    m.add("io.fetch_s", fetchS, "s");
    m.add("io.fetch_bytes", fetchBytes, "B");
    m.add("io.fetch_calls", fetchCalls, "count");
    m.add("core.decode_s", decodeS, "s");
    m.add("core.decode_dna_s", decodeDnaS, "s");
    m.add("core.decode_host_s", decodeHostS, "s");
    m.add("service.request_s", requestS, "s");
    m.add("service.hit_ratio", hitRatio, "ratio");
    m.add("service.evictions", evictions, "count");
    m.add("service.coalesced_waits", coalescedWaits, "count");
    m.add("service.ghost_hits", ghostHits, "count");
    m.add("service.queue_depth_max", queueDepthMax, "count");
    m.add("service.errored", errored, "count");
    m.add("service.retries", retries, "count");
    m.add("service.assemble_s", assembleS, "s");
    m.add("net.encode_s", netEncodeS, "s");
    m.add("net.reply_bytes", replyBytes, "B");
    m.add("util.crc_s", crcS, "s");
    m.add("net.parse_s", netParseS, "s");
    m.add("net.socket_s", socketS, "s");
    m.add("net.frames_in", framesIn, "count");
    m.add("net.bytes_out", bytesOut, "B");
    m.add("net.tx_pauses", txPauses, "count");
    m.add("net.crc_mismatches", crcMismatches, "count");
    m.add("trace.overhead_mb_s", overheadMbPct, "%");
    m.add("trace.overhead_p50", overheadP50Pct, "%");
    return m;
}

double
ServeCorpus::ratio() const
{
    return archiveBytes ? static_cast<double>(fastqBytes) /
            static_cast<double>(archiveBytes)
                        : 0.0;
}

std::string
ServeCorpus::describe(uint64_t cache_budget) const
{
    std::ostringstream out;
    uint64_t reads = 0, chunks = 0;
    for (const ArchiveTruth &archive : archives) {
        reads += archive.reads;
        chunks += archive.chunks();
    }
    out << "input  archives=" << archives.size() << " reads=" << reads
        << " chunks=" << chunks << " fastq_bytes=" << fastqBytes
        << " archive_bytes=" << archiveBytes
        << " decoded_bytes=" << decodedBytes
        << " cache_budget_bytes=" << cache_budget << " working_set_x_budget="
        << (cache_budget ? static_cast<double>(decodedBytes) /
                     static_cast<double>(cache_budget)
                         : 0.0)
        << " gen_s=" << genSeconds << "\n";
    return out.str();
}

bool
buildServeCorpus(const Options &options, ServeCorpus &corpus,
                 std::string &error)
{
    const double start = nowSeconds();
    corpus.dir = options.workdir + "/corpus";
    std::filesystem::create_directories(corpus.dir);

    sage::SimulatedDataset dataset = makeDataset(options.seed, kDatasetReads);
    const std::string reference = std::move(dataset.reference);
    std::vector<sage::Read> &reads = dataset.readSet.reads;
    // Whole chunks only: every request of serve_local then moves the
    // same number of reads, whichever chunk the seed makes hot.
    const size_t half = reads.size() / 2 / kChunkReads * kChunkReads;

    sage::ThreadPool pool(options.threads);
    IoCounters write_io;
    for (size_t part = 0; part < 2; ++part) {
        sage::ReadSet slice;
        slice.name = dataset.readSet.name;
        slice.technology = dataset.readSet.technology;
        const auto first = reads.begin() + part * half;
        const auto last = first + half;
        slice.reads.assign(std::make_move_iterator(first),
                           std::make_move_iterator(last));
        MultisetDigest digest;
        digest.addAll(slice.reads);

        const std::string stem = corpus.dir + "/part" + std::to_string(part);
        writeFastq(slice, stem + ".fastq");
        slice = sage::ReadSet{};
        corpus.ingests.push_back(ingestFile(stem + ".fastq", reference,
                                            stem + ".sage", pool, write_io));
        std::filesystem::remove(stem + ".fastq");

        ArchiveTruth truth;
        if (!buildTruth("part" + std::to_string(part) + ".sage",
                        stem + ".sage", digest, truth, error))
            return false;
        corpus.fastqBytes += corpus.ingests.back().fastqBytes;
        corpus.archiveBytes += truth.archiveBytes;
        corpus.decodedBytes += truth.decodedBytes;
        corpus.archives.push_back(std::move(truth));
    }
    corpus.writeIo = IoSnapshot::of(write_io);
    corpus.genSeconds = nowSeconds() - start;
    return true;
}

Zipf::Zipf(size_t n, double s)
{
    double total = 0.0;
    for (size_t rank = 1; rank <= n; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank), s);
        cdf_.push_back(total);
    }
    for (double &value : cdf_)
        value /= total;
}

size_t
Zipf::operator()(std::mt19937_64 &rng) const
{
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto found = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(found - cdf_.begin(), cdf_.size() - 1);
}

double
Zipf::share(size_t top) const
{
    return top ? cdf_[std::min(top, cdf_.size()) - 1] : 0.0;
}

double
Zipf::exponentFor(size_t n, size_t top, double share)
{
    // share(top) rises with s: 0 gives top / n, large s gives ~1.
    double lo = 0.0, hi = 4.0;
    for (int i = 0; i < 50; ++i) {
        const double s = 0.5 * (lo + hi);
        (Zipf(n, s).share(top) < share ? lo : hi) = s;
    }
    return 0.5 * (lo + hi);
}

std::string
traceSummary(const std::vector<Span> &spans, const std::string &path)
{
    std::ostringstream out;
    out << "trace  spans=" << spans.size() << " file=" << path
        << (writeSpans(spans, path) ? "" : " (write failed)") << "\n";
    for (const auto &[name, totals] : spanTotals(spans)) {
        out << "trace  " << name << " count=" << totals.count
            << " total_s=" << totals.total << " self_s=" << totals.self
            << "\n";
    }
    return out.str();
}

LoopResult
closedLoop(const Options &options, double seconds, uint64_t salt,
           size_t sample_size,
           const std::function<Attempt(unsigned, std::mt19937_64 &)> &send)
{
    const double start = nowSeconds();
    const double deadline = start + seconds;
    std::vector<ClientTally> tallies(options.clients);
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < options.clients; ++t) {
        clients.emplace_back([&, t] {
            ClientTally &tally = tallies[t];
            std::mt19937_64 rng(options.seed * 1000003 + salt * 101 + t);
            uint64_t n = 0;
            while (before(deadline)) {
                Tracer::setRequest((uint64_t{t} + 1) << 40 | ++n);
                const Attempt attempt = send(t, rng);
                tally.done.push_back(
                    {nowSeconds(), attempt.seconds, attempt.bytes});
                tally.retries += attempt.retries;
                if (!attempt.ok)
                    ++tally.failed;
                if (tally.sample.size() < sample_size)
                    tally.sample.push_back(attempt.range);
            }
            Tracer::setRequest(0);
        });
    }
    for (std::thread &client : clients)
        client.join();
    const double wall = nowSeconds() - start;

    LoopResult result;
    result.rssMb = liveResidentMb();
    std::vector<Completion> all;
    for (const ClientTally &tally : tallies) {
        all.insert(all.end(), tally.done.begin(), tally.done.end());
        result.failed += tally.failed;
        result.retries += tally.retries;
    }
    // Round-robin over clients so the sample mixes them.
    for (size_t i = 0; result.sample.size() < sample_size; ++i) {
        bool any = false;
        for (const ClientTally &tally : tallies) {
            if (i < tally.sample.size() && result.sample.size() < sample_size) {
                result.sample.push_back(tally.sample[i]);
                any = true;
            }
        }
        if (!any)
            break;
    }
    result.attempted = all.size();

    const size_t windows = std::clamp<size_t>(all.size() / kWindowRequests, 1,
                                              kMaxWindows);
    const double width = wall / static_cast<double>(windows);
    std::vector<std::vector<double>> latencies(windows);
    std::vector<uint64_t> bytes(windows, 0);
    for (const Completion &done : all) {
        const size_t w = std::min(
            windows - 1, static_cast<size_t>((done.at - start) / width));
        latencies[w].push_back(done.latency);
        bytes[w] += done.bytes;
        result.busySeconds += done.latency;
        result.latencies.push_back(done.latency);
    }
    result.fewestInWindow = ~0ull;
    for (size_t w = 0; w < windows; ++w) {
        const LatencyStats stats = LatencyStats::of(std::move(latencies[w]));
        result.windowMb.push_back(static_cast<double>(bytes[w]) / width / 1e6);
        result.windowP50.push_back(stats.p50);
        result.fewestInWindow = std::min(result.fewestInWindow, stats.samples);
    }
    return result;
}

EndToEnd
mergeSegments(const std::vector<LoopResult> &segments, std::string &note)
{
    EndToEnd e2e;
    std::vector<double> mbs, p50s, rss;
    uint64_t fewest = ~0ull;
    // Whole segments, merged with their successors until each group
    // holds kP99GroupRequests; a short tail joins the last group.
    std::vector<std::vector<double>> groups(1);
    for (const LoopResult &segment : segments) {
        e2e.attempted += segment.attempted;
        e2e.failed += segment.failed;
        mbs.insert(mbs.end(), segment.windowMb.begin(), segment.windowMb.end());
        p50s.insert(p50s.end(), segment.windowP50.begin(),
                    segment.windowP50.end());
        if (groups.back().size() >= kP99GroupRequests)
            groups.emplace_back();
        groups.back().insert(groups.back().end(), segment.latencies.begin(),
                             segment.latencies.end());
        rss.push_back(segment.rssMb);
        fewest = std::min(fewest, segment.fewestInWindow);
    }
    if (groups.size() > 1 && groups.back().size() < kP99GroupRequests) {
        std::vector<double> &previous = groups[groups.size() - 2];
        previous.insert(previous.end(), groups.back().begin(),
                        groups.back().end());
        groups.pop_back();
    }
    std::vector<double> p99s;
    uint64_t fewest_beyond = ~0ull;
    for (std::vector<double> &group : groups) {
        const LatencyStats stats = LatencyStats::of(std::move(group));
        p99s.push_back(stats.p99);
        fewest_beyond = std::min(fewest_beyond, stats.beyondP99);
    }
    e2e.mbPerSecond = median(mbs);
    e2e.latency.samples = e2e.attempted;
    e2e.latency.p50 = median(p50s);
    e2e.latency.p99 = median(p99s);
    e2e.latency.beyondP99 = fewest_beyond;
    e2e.rssMb = median(rss);
    std::ostringstream out;
    out << "latency  samples=" << e2e.attempted << " segments="
        << segments.size() << " windows=" << mbs.size()
        << " fewest_in_window=" << fewest
        << " p99_groups=" << p99s.size()
        << " fewest_beyond_p99_in_group=" << e2e.latency.beyondP99 << "\n";
    note += out.str();
    return e2e;
}

double
liveResidentMb()
{
    malloc_trim(0);
    return residentMb();
}

uint64_t
payloadBytes(const std::vector<sage::Read> &reads)
{
    uint64_t bytes = 0;
    for (const sage::Read &read : reads)
        bytes += read.bases.size() + read.quals.size();
    return bytes;
}

} // namespace perfbench
