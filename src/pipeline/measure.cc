#include "pipeline/measure.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "accel/genstore.hh"
#include "compress/gpzip.hh"
#include "compress/quality.hh"
#include "compress/springlike.hh"
#include "core/sage.hh"
#include "genomics/fastq.hh"
#include "io/session.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"

namespace sage {

namespace {

/** Median of repeated timings of @p fn. */
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

} // namespace

MeasuredArtifacts
measureWorkload(const SimulatedDataset &ds, const MeasureConfig &config)
{
    MeasuredArtifacts art;
    ThreadPool pool(config.threads);

    const ReadSet &rs = ds.readSet;
    art.work.name = rs.name;
    art.work.fastqBytes = rs.fastqBytes();
    art.work.totalReads = rs.readCount();
    art.work.totalBases = rs.totalBases();
    art.dnaBytesUncompressed = rs.dnaBytes();
    art.qualBytesUncompressed = rs.qualityBytes();

    // ---- pigz stand-in -------------------------------------------------
    // Whole-FASTQ compression (how gzip is used in practice), plus
    // DNA/quality-only runs for the Table 2 per-stream ratios.
    const std::string fastq = toFastq(rs);
    std::vector<uint8_t> pigz_archive;
    art.pigzCompressSeconds = timeMedian(1, [&] {
        pigz_archive = gpzip::compress(fastq, {}, &pool);
    });
    art.work.pigzBytes = pigz_archive.size();
    {
        std::string dna, qual;
        for (const auto &read : rs.reads) {
            dna += read.bases;
            dna.push_back('\n');
            qual += read.quals;
            qual.push_back('\n');
        }
        art.pigzDnaBytes = gpzip::compress(dna, {}, &pool).size();
        art.pigzQualBytes = gpzip::compress(qual, {}, &pool).size();
    }
    // pigz decompression is effectively serial (the gzip stream is
    // sequential), hence no pool here.
    art.work.pigzDecompSeconds = timeMedian(config.repetitions, [&] {
        auto out = orExit(gpzip::tryDecompress(pigz_archive));
        (void)out;
    });

    // ---- SpringLike ----------------------------------------------------
    springlike::Config spring_config;
    spring_config.keepQuality = config.keepQuality;
    springlike::CompressResult spring;
    art.springCompressSeconds = timeMedian(1, [&] {
        spring = springlike::compress(rs, ds.reference, spring_config,
                                      &pool);
    });
    art.springMapSeconds = spring.mapSeconds;
    art.work.springBytes = spring.archive.size();
    art.springDnaBytes = spring.dnaBytes;
    art.springQualBytes = spring.qualityBytes;
    {
        // Measured single-threaded; the pipeline model applies the
        // host-parallelism factor to parallel-capable decompressors
        // (Spring-class tools and SAGeSW) uniformly — pigz's decode is
        // inherently serial and gets no factor (see SystemConfig).
        springlike::DecompressResult out;
        art.work.springDecompSeconds =
            timeMedian(config.repetitions, [&] {
                out = springlike::decompress(spring.archive, nullptr);
            });
        art.work.springBackendSeconds = out.backendSeconds;
        art.springWorkingSetBytes = out.workingSetBytes;
    }

    // ---- SAGe ------------------------------------------------------------
    SageConfig sage_config;
    sage_config.keepQuality = config.keepQuality;
    SageArchive sage;
    art.sageCompressSeconds = timeMedian(1, [&] {
        sage = sageCompress(rs, ds.reference, sage_config, &pool);
    });
    art.sageMapSeconds = sage.mapSeconds;
    art.sageTuneSeconds = sage.tuneSeconds;
    art.work.sageBytes = sage.bytes.size();
    art.sageDnaBytes = sage.dnaBytes;
    art.sageQualBytes = sage.qualityBytes;
    const MemorySource sage_source(sage.bytes);
    {
        const std::unique_ptr<SageDecoder> info_probe = orExit(
            SageDecoder::tryOpen(sage_source, /*dna_only=*/false,
                                 /*verify_checksum=*/true));
        art.work.sageDnaStreamBytes = info_probe->info().dnaStreamBytes();
        art.sageWorkingSetBytes = info_probe->workingSetBytes();
        // Per-chunk fetch costs let the pipeline model overlap chunk
        // I/O with decode (chunk-weighted batches, pipeline.cc).
        if (info_probe->chunkCount() > 1)
            art.work.sageChunkBytes = info_probe->chunkCompressedBytes();
    }
    // DNA-only decode: the mapping pipeline never touches quality
    // scores (paper §5.1.5); they stay compressed and are fetched
    // lazily per block during later variant calling. Measured twice
    // with the same decodeAll() shape (so the two numbers compare
    // like with like): sequentially (the portable baseline the
    // pipeline model scales by its host-parallelism factor) and
    // chunk-parallel across the pool (real multi-core decode, which
    // caps the model's projection). Both check the container CRC
    // first, like any decode of a resident archive.
    SageReaderOptions resident;
    resident.dnaOnly = true;
    resident.verifyChecksum = true;
    art.work.sageSwDecompSeconds = timeMedian(config.repetitions, [&] {
        SageReader reader(sage_source, resident);
        const ReadSet out = reader.decodeAll();
        (void)out;
    });
    art.work.sageSwParDecompSeconds =
        timeMedian(config.repetitions, [&] {
            SageReader reader(sage_source, resident);
            const ReadSet out = reader.decodeAll(&pool);
            (void)out;
        });
    art.work.sageSwDecodeThreads =
        static_cast<double>(pool.threadCount());

    // File-backed decode, prefetch off vs on: same sequential decode,
    // but chunk slices now come off a real file. With prefetch, chunk
    // i+1's pread and decode run on the prefetch thread while the
    // caller takes chunk i (SageReader prefetch mode), so the on/off
    // delta is the work the overlap hides; the pipeline model uses the
    // overlapped time as a measured cap.
    {
        // PID-keyed temp name: concurrent measurement passes in one
        // directory (two bench harnesses racing a cold cache) must not
        // time each other's half-written archives.
        const std::string path = "sage_measure_" + rs.name + "." +
            std::to_string(static_cast<long>(::getpid())) + ".sage.tmp";
        {
            FileSink sink(path);
            sink.writeBytes(sage.bytes);
        }
        SageReaderOptions opt;
        opt.dnaOnly = true;
        art.work.sageSwFileDecompSeconds =
            timeMedian(config.repetitions, [&] {
                SageReader reader(path, opt);
                const ReadSet out = reader.decodeAll();
                (void)out;
            });
        // Shared fetch pool: thread startup stays outside the timing,
        // as it would in any long-lived ingest process.
        ThreadPool prefetch_pool(1);
        opt.prefetchPool = &prefetch_pool;
        art.work.sageSwFilePrefetchSeconds =
            timeMedian(config.repetitions, [&] {
                SageReader reader(path, opt);
                const ReadSet out = reader.decodeAll();
                (void)out;
            });

        // Multi-client serving: N concurrent consumers over one
        // SageArchiveService on the same file. The decoded-chunk
        // cache means hot chunks decompress once for the whole fleet,
        // so the wall clock is what any one shared-archive consumer
        // waits for its full read stream (SystemConfig::
        // sharedConsumers uses it as a measured prep cap).
        {
            const unsigned clients = 4;
            art.work.sageSwServeSeconds =
                timeMedian(config.repetitions, [&] {
                    ServiceOptions service_options;
                    service_options.dnaOnly = true;
                    SageArchiveService service(path, service_options);
                    std::vector<std::thread> fleet;
                    for (unsigned c = 0; c < clients; c++) {
                        fleet.emplace_back([&service] {
                            ServiceSession session =
                                service.openSession();
                            while (session.hasNext())
                                session.read(1024);
                        });
                    }
                    for (auto &client : fleet)
                        client.join();
                });
            art.work.sageSwServeClients =
                static_cast<double>(clients);
        }
        std::remove(path.c_str());
    }

    // ---- ISF filter fraction (functional GenStore) -----------------------
    {
        InStorageFilter isf(ds.reference);
        const IsfResult result = isf.filter(rs);
        art.work.isfFilterFraction = result.filterFraction();
    }
    return art;
}

MeasuredArtifacts
measurePreset(const DatasetSpec &spec, const MeasureConfig &config)
{
    const SimulatedDataset ds = synthesizeDataset(spec);
    return measureWorkload(ds, config);
}

} // namespace sage
