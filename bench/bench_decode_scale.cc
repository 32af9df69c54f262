/**
 * @file
 * Decode-scaling benchmark for the v2 chunked container: SAGe software
 * decode throughput (DNA-only, the accelerator-feeding path) at 1/2/4/8
 * threads, plus a chunk-size sweep at a fixed thread count.
 *
 * This is the software analogue of the paper's parallel Scan Units
 * (§5.2): every chunk is an independently decodable slice, so decode
 * throughput should scale with cores until memory bandwidth saturates.
 *
 * Writes a machine-readable JSON report (default BENCH_decode.json,
 * override with argv[1]) so CI can archive baselines and later perf
 * PRs can diff against them.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.hh"
#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"

using namespace sage;

namespace {

/** Median wall-clock of @p reps runs of @p fn. */
double
timeMedian(unsigned reps, const std::function<void()> &fn)
{
    std::vector<double> times;
    for (unsigned r = 0; r < std::max(1u, reps); r++) {
        Stopwatch clock;
        fn();
        times.push_back(clock.seconds());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

struct ScalePoint
{
    unsigned threads = 0;
    uint32_t chunkReads = 0;
    size_t chunks = 0;
    double seconds = 0.0;
    double mbPerSec = 0.0;
};

ScalePoint
measureDecode(const std::vector<uint8_t> &archive, uint64_t total_bases,
              unsigned threads, unsigned reps)
{
    ThreadPool pool(threads);
    ScalePoint point;
    point.threads = threads;
    // Resident archives are CRC-checked before decode, as sageDecompress
    // does, so every point includes the checksum walk.
    const MemorySource source(archive);
    SageReaderOptions options;
    options.dnaOnly = true;
    options.verifyChecksum = true;
    point.chunks = SageReader(source, options).chunkCount();
    point.seconds = timeMedian(reps, [&] {
        SageReader reader(source, options);
        const ReadSet out = reader.decodeAll(&pool);
        (void)out;
    });
    point.mbPerSec = point.seconds > 0.0
        ? static_cast<double>(total_bases) / 1e6 / point.seconds
        : 0.0;
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_decode.json";

    bench::printHeader(
        "Decode scaling: chunk-parallel SAGe software decode",
        "per-Scan-Unit slices (paper Fig. 9/§5.2) realized in software "
        "as independently decodable chunks");

    // A short-read set big enough that decode dominates setup:
    // ~125k reads of 150 bp (depth 18 over a 1 MiB reference).
    DatasetSpec spec = makeRs2Spec();
    spec.name = "decode-scale";
    spec.genome.referenceLength = 1 << 20;
    spec.depth = 18.0;
    std::fprintf(stderr, "[bench] synthesizing %s ...\n",
                 spec.name.c_str());
    const SimulatedDataset ds = synthesizeDataset(spec);
    const uint64_t reads = ds.readSet.reads.size();
    const uint64_t bases = ds.readSet.totalBases();
    std::printf("read set: %llu reads, %llu bases\n",
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(bases));

    const unsigned hw_threads = std::thread::hardware_concurrency();
    const unsigned reps = 3;

    // ---- Thread sweep at a fixed chunk size --------------------------
    SageConfig config;
    config.keepQuality = true;
    config.chunkReads = 4096; // ~32 chunks: enough grains for 8 threads.
    std::fprintf(stderr, "[bench] compressing (chunkReads=%u) ...\n",
                 config.chunkReads);
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);

    std::vector<ScalePoint> thread_sweep;
    TextTable threads_table;
    threads_table.setHeader({"threads", "chunks", "seconds", "MB/s",
                             "speedup"});
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const ScalePoint point =
            measureDecode(archive.bytes, bases, threads, reps);
        thread_sweep.push_back(point);
        const double speedup =
            thread_sweep.front().seconds / point.seconds;
        threads_table.addRow({std::to_string(point.threads),
                              std::to_string(point.chunks),
                              TextTable::num(point.seconds, 3),
                              TextTable::num(point.mbPerSec, 1),
                              TextTable::timesFactor(speedup)});
    }
    std::printf("\nthread sweep (chunkReads=%u):\n", config.chunkReads);
    threads_table.print();
    if (hw_threads < 4) {
        std::printf("note: this host exposes %u hardware thread(s); "
                    "speedups above 1 thread are not observable here.\n",
                    hw_threads);
    }

    // ---- Chunk-size sweep at a fixed thread count --------------------
    const unsigned sweep_threads = std::min(4u, std::max(1u, hw_threads));
    std::vector<ScalePoint> chunk_sweep;
    TextTable chunks_table;
    chunks_table.setHeader({"chunkReads", "chunks", "archiveMB",
                            "seconds", "MB/s"});
    for (uint32_t chunk_reads : {1024u, 4096u, 16384u, 65536u}) {
        SageConfig sweep_config;
        sweep_config.chunkReads = chunk_reads;
        std::fprintf(stderr,
                     "[bench] compressing (chunkReads=%u) ...\n",
                     chunk_reads);
        const SageArchive swept =
            sageCompress(ds.readSet, ds.reference, sweep_config);
        ScalePoint point =
            measureDecode(swept.bytes, bases, sweep_threads, reps);
        point.chunkReads = chunk_reads;
        chunk_sweep.push_back(point);
        chunks_table.addRow(
            {std::to_string(chunk_reads), std::to_string(point.chunks),
             TextTable::num(static_cast<double>(swept.bytes.size())
                            / 1e6, 2),
             TextTable::num(point.seconds, 3),
             TextTable::num(point.mbPerSec, 1)});
    }
    std::printf("\nchunk-size sweep (%u threads):\n", sweep_threads);
    chunks_table.print();

    // ---- JSON report -------------------------------------------------
    const double speedup4 =
        thread_sweep[0].seconds / thread_sweep[2].seconds;
    FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"decode_scale\",\n");
    std::fprintf(json, "  \"host\": %s,\n",
                 bench::hostMetaJson().c_str());
    std::fprintf(json, "  \"reads\": %llu,\n",
                 static_cast<unsigned long long>(reads));
    std::fprintf(json, "  \"bases\": %llu,\n",
                 static_cast<unsigned long long>(bases));
    std::fprintf(json, "  \"hardwareConcurrency\": %u,\n", hw_threads);
    std::fprintf(json, "  \"chunkReads\": %u,\n", config.chunkReads);
    std::fprintf(json, "  \"speedupAt4Threads\": %.3f,\n", speedup4);
    std::fprintf(json, "  \"threadSweep\": [\n");
    for (size_t i = 0; i < thread_sweep.size(); i++) {
        const ScalePoint &p = thread_sweep[i];
        std::fprintf(json,
                     "    {\"threads\": %u, \"chunks\": %zu, "
                     "\"seconds\": %.6f, \"mbPerSec\": %.2f}%s\n",
                     p.threads, p.chunks, p.seconds, p.mbPerSec,
                     i + 1 < thread_sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"chunkSweep\": [\n");
    for (size_t i = 0; i < chunk_sweep.size(); i++) {
        const ScalePoint &p = chunk_sweep[i];
        std::fprintf(json,
                     "    {\"chunkReads\": %u, \"chunks\": %zu, "
                     "\"threads\": %u, \"seconds\": %.6f, "
                     "\"mbPerSec\": %.2f}%s\n",
                     p.chunkReads, p.chunks, p.threads, p.seconds,
                     p.mbPerSec,
                     i + 1 < chunk_sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote %s (4-thread speedup: %.2fx on %u-core host)\n",
                json_path.c_str(), speedup4, hw_threads);
    return 0;
}
