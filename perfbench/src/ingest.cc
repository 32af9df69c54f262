/**
 * @file
 * ingest: FASTQ -> archive. One operation parses an RS2-like FASTQ
 * file, encodes it on an nproc-thread pool and writes the archive
 * through a FileSink; the archive is then round-tripped through
 * SageReader and its read multiset compared with the input's.
 */

#include <malloc.h>

#include <filesystem>
#include <memory>
#include <sstream>

#include "genomics/fastq.hh"
#include "io/session.hh"
#include "net/multi_archive.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct Inputs
{
    std::string dir, fastq, archive, reference;
    MultisetDigest expected;
    uint64_t fastqBytes = 0;
    uint64_t reads = 0;
};

/** Operations of one kind (traced or untraced) across segments. */
struct Tally
{
    std::vector<IngestResult> ops;
    std::vector<double> latencies, firstReads, rss;
    uint64_t failed = 0;
    double openSeconds = 0.0;
    IoCounters write, fetch;

    EndToEnd
    endToEnd(const Inputs &in) const
    {
        EndToEnd e2e;
        e2e.attempted = ops.size();
        e2e.failed = failed;
        // One measurement, reported twice: mb_s and p50_ms both come
        // from the median operation time.
        e2e.mbPerSecond =
            static_cast<double>(in.fastqBytes) / median(latencies) / 1e6;
        e2e.latency = LatencyStats::of(latencies);
        e2e.ratio = static_cast<double>(in.fastqBytes) /
            static_cast<double>(ops.back().archiveBytes);
        e2e.firstReadMs = median(firstReads);
        e2e.rssMb = median(rss);
        return e2e;
    }
};

/** Round-trip the archive: open (timed to the first decoded chunk),
 *  decode every chunk, compare the multiset with the input. */
bool
roundTrip(const Inputs &in, sage::ThreadPool &pool, IoCounters &fetch_io,
          double &first_read_ms, double &open_seconds)
{
    TimingSource source(std::make_unique<sage::FileSource>(in.archive),
                        fetch_io);
    const double start = nowSeconds();
    std::unique_ptr<sage::SageReader> reader;
    {
        ScopedSpan span("core.open");
        reader = std::make_unique<sage::SageReader>(source);
    }
    open_seconds += nowSeconds() - start;
    MultisetDigest got;
    {
        ScopedSpan span("core.decode");
        got.addAll(reader->readChunk(0));
    }
    first_read_ms = (nowSeconds() - start) * 1e3;
    {
        ScopedSpan span("core.decode");
        got.addAll(
            reader->decodeRange(1, reader->chunkCount() - 1, &pool).reads);
    }
    return got == in.expected;
}

/** One operation: ingest, then round-trip the archive. */
void
runOperation(const Inputs &in, sage::ThreadPool &pool, bool traced,
             Tally &tally)
{
    Tracer::setEnabled(traced);
    Tracer::setRequest(tally.ops.size() + 1);
    IngestResult op;
    {
        ScopedSpan span("ingest.op");
        op = ingestFile(in.fastq, in.reference, in.archive, pool, tally.write);
    }
    tally.latencies.push_back(op.seconds);
    tally.ops.push_back(op);
    double first_ms = 0.0;
    if (!roundTrip(in, pool, tally.fetch, first_ms, tally.openSeconds))
        ++tally.failed;
    tally.firstReads.push_back(first_ms);
    Tracer::setEnabled(false);
    Tracer::setRequest(0);
    tally.rss.push_back(liveResidentMb());
}

/** The serve-path layers of the freshly written archive: decode split
 *  and an in-process serve + wire replay of seeded 1024-read ranges. */
bool
sweepServePath(const Options &options, const Inputs &in, size_t ops,
               LayerSet &layers, std::string &error)
{
    ArchiveTruth truth;
    if (!buildTruth("archive.sage", in.archive, in.expected, truth, error))
        return false;
    const std::vector<ArchiveTruth> archives{truth};

    std::vector<ChunkRef> chunks;
    for (size_t chunk = 0; chunk < truth.chunks(); ++chunk)
        chunks.emplace_back(0, static_cast<uint32_t>(chunk));
    // Every operation's round trip decodes every chunk once.
    layers.addDecode(replayDecode(archives, chunks),
                     static_cast<double>(ops));

    sage::MultiArchiveOptions service_options;
    service_options.globalCacheBudgetBytes = 2 * truth.decodedBytes;
    service_options.maxOpenArchives = 1;
    service_options.cacheShards = 1;
    service_options.ownedPoolThreads = options.threads;
    sage::MultiArchiveService service(in.dir, service_options);
    auto meta = service.open(truth.name);
    if (!meta.ok()) {
        error = "sweep open failed: " + meta.status().toString();
        return false;
    }
    for (size_t chunk = 0; chunk < truth.chunks(); ++chunk)
        service.readChunkSync(meta.value().id, chunk);

    std::mt19937_64 rng(options.seed ^ 0x1e57ull);
    std::uniform_int_distribution<uint64_t> offset(0, truth.reads - 1024);
    std::vector<RangeRequest> sample(kReplaySample);
    for (RangeRequest &request : sample)
        request = {0, offset(rng), 1024};
    const ServePathSplit split =
        replayServePath(service, {meta.value().id}, archives, sample);
    if (split.failed != 0) {
        error = "sweep replies did not match the archive";
        return false;
    }
    layers.addServePath(split, 1.0);
    // On a warm cache a request is its assembly.
    layers.requestS = layers.assembleS;
    layers.errored = static_cast<double>(service.stats().errored);
    return true;
}

} // namespace

Outcome
runIngest(const Options &options)
{
    Outcome out;
    Inputs in;
    in.dir = options.workdir + "/ingest";
    in.fastq = in.dir + "/input.fastq";
    in.archive = in.dir + "/archive.sage";
    std::filesystem::create_directories(in.dir);

    const double gen_start = nowSeconds();
    std::string fastq_text;
    {
        sage::SimulatedDataset dataset =
            makeDataset(options.seed, kDatasetReads);
        in.expected.addAll(dataset.readSet.reads);
        in.reads = dataset.readSet.readCount();
        in.reference = std::move(dataset.reference);
        fastq_text = sage::toFastq(dataset.readSet);
    }
    in.fastqBytes = fastq_text.size();
    malloc_trim(0);
    const double gen_seconds = nowSeconds() - gen_start;

    // An operation takes seconds, so here every operation is a segment:
    // its own set-up (write the FASTQ input, start the pool), then the
    // operation. Operations run until another one would overrun.
    std::vector<double> setups;
    std::unique_ptr<sage::ThreadPool> pool;
    Tally plain, traced;
    Tracer::clear();
    const double deadline = nowSeconds() + options.seconds;
    double last = 0.0;
    for (int i = 0; i < 2 || before(deadline - last); ++i) {
        const double start = nowSeconds();
        pool.reset();
        pool = std::make_unique<sage::ThreadPool>(options.threads);
        {
            sage::FileSink sink(in.fastq);
            sink.write(fastq_text.data(), fastq_text.size());
            sink.close();
        }
        setups.push_back(nowSeconds() - start);
        const bool trace = tracedSegment(options, i);
        runOperation(in, *pool, trace, trace ? traced : plain);
        last = nowSeconds() - start;
    }
    out.endToEnd = plain.endToEnd(in);
    out.endToEnd.setupSeconds = median(setups);
    if (options.trace) {
        const EndToEnd traced_e2e = traced.endToEnd(in);
        out.layers.setOverhead(out.endToEnd, traced_e2e);
        out.endToEnd.attempted += traced_e2e.attempted;
        out.endToEnd.failed += traced_e2e.failed;
    }

    std::ostringstream info;
    info << "input  reads=" << in.reads << " fastq_bytes=" << in.fastqBytes
         << " archive_bytes=" << plain.ops.back().archiveBytes
         << " chunk_reads=" << kChunkReads << " gen_s=" << gen_seconds
         << "\n"
         << "latency  samples=" << plain.latencies.size()
         << " (operations; p99_ms is the slowest)\n";

    if (options.trace) {
        LayerSet &layers = out.layers;
        const IoSnapshot write = IoSnapshot::of(traced.write);
        const IoSnapshot fetch = IoSnapshot::of(traced.fetch);
        layers.addIngest(traced.ops, {traced.ops.back()}, write);
        layers.openS = traced.openSeconds;
        layers.fetchS = fetch.seconds;
        layers.fetchBytes = static_cast<double>(fetch.bytes);
        layers.fetchCalls = static_cast<double>(fetch.calls);
        if (!sweepServePath(options, in, traced.ops.size(), layers,
                            out.error))
            return out;
        info << traceSummary(Tracer::collect(),
                             options.workdir + "/trace-ingest-" +
                                 std::to_string(options.seed) + ".jsonl");
    }
    out.info = info.str();
    std::filesystem::remove_all(in.dir);
    out.ok = true;
    return out;
}

} // namespace perfbench
