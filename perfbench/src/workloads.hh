/**
 * @file
 * The three workloads and what they share: options, the end-to-end and
 * per-layer metric sets, and the two-archive corpus the serve
 * workloads read. README.md in this directory maps every metric to
 * the layer it times and the end-to-end metric it should move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "corpus.hh"
#include "layers.hh"
#include "report.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;  ///< Working space inside the checkout.
    /** Encode pool size: min(nproc, 4). */
    unsigned threads = 4;
    /** Client threads and service pool size on the serve workloads:
     *  half the encode pool, so that a core lost to another tenant of
     *  the host stalls neither a client nor a worker. */
    unsigned clients = 2;
};

/**
 * A run is this many segments, each a fresh set-up followed by an
 * equal share of the timed phase. Spreading set-ups and measurement
 * across the run keeps a slow spell of the host from landing on every
 * set-up sample at once. In a traced run, odd segments are traced and
 * even ones are not, so tracing overhead compares like with like.
 */
constexpr int kSegments = 6;

/** True when segment @p i of a run with @p options is traced. */
inline bool
tracedSegment(const Options &options, int i)
{
    return options.trace && i % 2 == 1;
}

/** Reads in the seeded dataset every workload draws from. */
constexpr uint64_t kDatasetReads = 140000;

/** Requests a traced run replays through single layers. */
constexpr size_t kReplaySample = 64;

/** Sends per request before a non-Ok reply counts as failed. */
constexpr unsigned kAttempts = 3;

/** End-to-end numbers of one timed phase. */
struct EndToEnd
{
    double setupSeconds = 0.0;
    double mbPerSecond = 0.0;
    LatencyStats latency;
    double ratio = 0.0;
    double firstReadMs = 0.0;
    double rssMb = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    Metrics metrics() const;
};

/**
 * Per-layer numbers of one traced phase. Times are busy seconds summed
 * over the phase; -1 marks a counter the workload cannot observe
 * through the library's public API.
 */
struct LayerSet
{
    double parseS = 0, parseBytes = 0, mapS = 0, encodeS = 0, tuneS = 0;
    double dnaBytes = 0, qualityBytes = 0, metaBytes = 0;
    double writeS = 0, writeBytes = 0, writeCalls = 0;
    double openS = 0, fetchS = 0, fetchBytes = 0, fetchCalls = 0;
    double decodeS = 0, decodeDnaS = 0, decodeHostS = 0;
    double requestS = 0, hitRatio = -1, evictions = -1, coalescedWaits = -1;
    double ghostHits = -1, queueDepthMax = -1, errored = 0, retries = 0;
    double assembleS = 0, netEncodeS = 0, replyBytes = 0, crcS = 0;
    double netParseS = 0, socketS = 0;
    double framesIn = -1, bytesOut = -1, txPauses = -1, crcMismatches = -1;
    double overheadMbPct = 0, overheadP50Pct = 0;

    /** Ingest layers from @p ops; byte classes from @p archives. */
    void addIngest(const std::vector<IngestResult> &ops,
                   const std::vector<IngestResult> &archives,
                   const IoSnapshot &write);

    /** Decode layers from a replay, scaled by @p scale. */
    void addDecode(const DecodeSplit &split, double scale);

    /** Serve-path layers from a replay, scaled by @p scale. */
    void addServePath(const ServePathSplit &split, double scale);

    /** Tracing overhead: traced phase against untraced phase. */
    void setOverhead(const EndToEnd &untraced, const EndToEnd &traced);

    Metrics metrics() const;
};

/** What a workload hands back to main. */
struct Outcome
{
    bool ok = false;  ///< False: the run could not complete (error set).
    std::string error;
    EndToEnd endToEnd;
    LayerSet layers;
    /** Human-readable lines: seed, input sizes, span totals. */
    std::string info;
};

Outcome runIngest(const Options &options);
Outcome runServeLocal(const Options &options);
Outcome runServeWire(const Options &options);

/** The serve workloads' inputs: two archives cut from one dataset. */
struct ServeCorpus
{
    std::string dir;
    std::vector<ArchiveTruth> archives;
    std::vector<IngestResult> ingests;  ///< One per archive.
    IoSnapshot writeIo;
    double genSeconds = 0.0;
    uint64_t fastqBytes = 0;
    uint64_t archiveBytes = 0;
    uint64_t decodedBytes = 0;

    double ratio() const;
    std::string describe(uint64_t cache_budget) const;
};

/** Generate, ingest and verify the serve corpus for @p options.seed. */
bool buildServeCorpus(const Options &options, ServeCorpus &corpus,
                      std::string &error);

/** Zipf(s) sampler over [0, n). */
class Zipf
{
  public:
    Zipf(size_t n, double s);
    size_t operator()(std::mt19937_64 &rng) const;

    /** Share of draws that land on the @p top most popular items. */
    double share(size_t top) const;

    /** The exponent s at which the @p top most popular of @p n items
     *  draw @p share of the requests. */
    static double exponentFor(size_t n, size_t top, double share);

  private:
    std::vector<double> cdf_;
};

/** Wall-clock deadline helper for closed-loop phases. */
inline bool
before(double deadline)
{
    return nowSeconds() < deadline;
}

/** One request as its client issued it and saw it complete. */
struct Attempt
{
    RangeRequest range;
    bool ok = false;       ///< Ok reply whose reads matched the truth.
    uint64_t retries = 0;  ///< Re-sends after a non-Ok reply.
    uint64_t bytes = 0;    ///< Bases + quality bytes delivered.
    /** Time inside the library calls, re-sends included; the reply
     *  check that follows is client think time, not latency. */
    double seconds = 0.0;
};

/** One closed-loop segment as the clients saw it. */
struct LoopResult
{
    uint64_t attempted = 0, failed = 0, retries = 0;
    double busySeconds = 0.0;  ///< Summed request latencies.
    double rssMb = 0.0;        ///< Live resident set at the end.
    /** Per window: delivered MB/s and p50 latency (seconds). */
    std::vector<double> windowMb, windowP50;
    uint64_t fewestInWindow = 0;
    /** Every request's latency (seconds), for p99. */
    std::vector<double> latencies;
    /** The first requests issued, replayed for the per-layer split. */
    std::vector<RangeRequest> sample;
};

/**
 * Run options.clients closed-loop clients for @p seconds; client t
 * calls @p send(t, rng) back to back, where rng is seeded from the
 * workload seed, @p salt and t. The segment is cut into windows of at
 * least ~1100 requests for mb_s and p50.
 */
LoopResult closedLoop(const Options &options, double seconds, uint64_t salt,
                      size_t sample_size,
                      const std::function<Attempt(unsigned, std::mt19937_64 &)>
                          &send);

/** Samples each p99 group must have beyond its p99, or the run fails. */
constexpr uint64_t kMinBeyondP99 = 10;

/**
 * End-to-end numbers of @p segments: mb_s and p50 are medians over
 * every window of every segment; p99 is the median over groups of whole
 * consecutive segments, each group large enough for kMinBeyondP99
 * samples beyond its p99 (one segment a group unless the host is slow);
 * rss_mb is the median end-of-segment resident set. A slow spell of the
 * host that hits one segment thus moves none of them much. Appends the
 * sample counts to @p note.
 */
EndToEnd mergeSegments(const std::vector<LoopResult> &segments,
                       std::string &note);

/** mergeSegments over the closed loops of @p phases. */
template <typename Phase>
EndToEnd
mergePhases(const std::vector<Phase> &phases, std::string &note)
{
    std::vector<LoopResult> loops;
    for (const Phase &phase : phases)
        loops.push_back(phase.loop);
    return mergeSegments(loops, note);
}

/** The first kReplaySample requests of @p phases; adds the number
 *  they issued in all to @p requests. */
template <typename Phase>
std::vector<RangeRequest>
replaySample(const std::vector<Phase> &phases, uint64_t &requests)
{
    std::vector<RangeRequest> sample;
    for (const Phase &phase : phases) {
        requests += phase.loop.attempted;
        sample.insert(sample.end(), phase.loop.sample.begin(),
                      phase.loop.sample.end());
    }
    sample.resize(std::min(sample.size(), kReplaySample));
    return sample;
}

/** Resident set after handing free heap pages back to the OS, so the
 *  figure tracks live memory rather than allocator slack. */
double liveResidentMb();

/** Write the phase's spans to @p path and summarise them per name. */
std::string traceSummary(const std::vector<Span> &spans,
                         const std::string &path);

/** Total bases + quality bytes of @p reads (the served payload). */
uint64_t payloadBytes(const std::vector<sage::Read> &reads);

/**
 * The run both serve workloads share: build the corpus, then kSegments
 * segments, each a fresh set-up and a closed loop, then the end-to-end
 * merge and, on a traced run, the layers. Bench supplies the rest:
 *
 *   Bench(const Options &, ServeCorpus &);
 *   std::string describe() const;   // input sizes and request shape
 *   bool setUp(State &, std::vector<double> &first_read_ms, std::string &error);
 *   Phase run(State &, bool traced, double seconds, uint64_t salt);
 *   bool addLayers(State &, const std::vector<Phase> &traced,
 *                  std::vector<Span> &spans,
 *                  const std::vector<RangeRequest> &sample,
 *                  uint64_t requests, LayerSet &, std::string &error);
 *
 * State holds one set-up's live objects and has reset(); Phase holds
 * one segment's LoopResult as `loop`.
 */
template <typename Bench, typename State, typename Phase>
Outcome
runServe(const Options &options)
{
    Outcome out;
    ServeCorpus corpus;
    if (!buildServeCorpus(options, corpus, out.error))
        return out;
    malloc_trim(0);
    Bench bench(options, corpus);

    std::vector<double> setups, first_reads;
    std::vector<Phase> plain, traced;
    State state;
    Tracer::clear();
    for (int i = 0; i < kSegments; ++i) {
        state.reset();
        const double start = nowSeconds();
        if (!bench.setUp(state, first_reads, out.error))
            return out;
        setups.push_back(nowSeconds() - start);
        const bool trace = tracedSegment(options, i);
        (trace ? traced : plain)
            .push_back(bench.run(state, trace, options.seconds / kSegments,
                                 static_cast<uint64_t>(i)));
    }

    std::string note;
    out.endToEnd = mergePhases(plain, note);
    out.endToEnd.setupSeconds = median(setups);
    out.endToEnd.firstReadMs = median(first_reads);
    out.endToEnd.ratio = corpus.ratio();
    if (out.endToEnd.latency.beyondP99 < kMinBeyondP99) {
        out.error = "too few requests for p99: a group has " +
            std::to_string(out.endToEnd.latency.beyondP99) +
            " beyond it, want " + std::to_string(kMinBeyondP99) +
            "; raise --seconds";
        return out;
    }

    std::ostringstream info;
    info << bench.describe();
    if (options.trace) {
        const EndToEnd traced_e2e = mergePhases(traced, note);
        out.layers.setOverhead(out.endToEnd, traced_e2e);
        out.endToEnd.attempted += traced_e2e.attempted;
        out.endToEnd.failed += traced_e2e.failed;

        out.layers.addIngest(corpus.ingests, corpus.ingests, corpus.writeIo);
        uint64_t requests = 0;
        const std::vector<RangeRequest> sample =
            replaySample(traced, requests);
        std::vector<Span> spans = Tracer::collect();
        if (!bench.addLayers(state, traced, spans, sample, requests,
                             out.layers, out.error))
            return out;
        info << traceSummary(spans, options.workdir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".jsonl");
    }
    info << note;
    out.info = info.str();
    state.reset();
    std::filesystem::remove_all(corpus.dir);
    out.ok = true;
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
