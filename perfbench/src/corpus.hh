/**
 * @file
 * Seeded inputs and the reference answers the workloads check against.
 *
 * Every workload draws its reads from one RS2-like synthetic dataset
 * (simgen): short, deep, clean human-like reads, the paper's
 * best-compressing read set. The seed argument is the dataset's seed,
 * so the same seed always yields the same reads, FASTQ and archives.
 */

#ifndef PERFBENCH_CORPUS_HH
#define PERFBENCH_CORPUS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/format.hh"
#include "genomics/read.hh"
#include "simgen/synthesize.hh"
#include "timed_io.hh"

namespace sage {
class ThreadPool;
}

namespace perfbench {

/** Reads per chunk in every archive the benchmark writes. */
constexpr uint32_t kChunkReads = 4096;

/** RS2-like dataset of about @p reads reads drawn with @p seed. */
sage::SimulatedDataset makeDataset(uint64_t seed, uint64_t reads);

/** Content hash of one read (header, bases and quality). */
uint64_t hashRead(const sage::Read &read);

/** Order-independent digest of a read multiset: archives store reads
 *  in matching-position order, not input order. */
struct MultisetDigest
{
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t mix = 0;

    void add(uint64_t read_hash);
    void addAll(const std::vector<sage::Read> &reads);
    bool operator==(const MultisetDigest &other) const;
};

/** What one FASTQ -> archive ingest did. */
struct IngestResult
{
    uint64_t fastqBytes = 0;
    uint64_t archiveBytes = 0;
    double seconds = 0.0;  ///< Whole operation, parse to close.
    double parseSeconds = 0.0;
    double encodeSeconds = 0.0;  ///< sageEncodeToBundle span.
    /** sageEncodeToBundle's own accounting (map/tune split, stream
     *  byte classes). */
    sage::SageArchive accounting;
};

/**
 * The ingest path, driven through public entry points only:
 * readFastqFile, sageEncodeToBundle on @p pool, StreamBundle::writeTo
 * into a FileSink wrapped in a TimingSink counting into @p write_io.
 */
IngestResult ingestFile(const std::string &fastq_path,
                        const std::string &reference,
                        const std::string &archive_path,
                        sage::ThreadPool &pool, IoCounters &write_io);

/** Reference answers for one archive, built once at set-up. */
struct ArchiveTruth
{
    std::string name;  ///< File name inside the corpus directory.
    std::string path;
    uint64_t reads = 0;
    uint64_t archiveBytes = 0;
    /** Decoded size of every chunk, as the service's cache counts it. */
    uint64_t decodedBytes = 0;
    std::vector<uint64_t> chunkFirst;  ///< Chunk start reads, + end.
    std::vector<uint64_t> readHash;    ///< Per read, stored order.
    /** Lowest extent offset of each chunk's fetch -> chunk id. */
    std::unordered_map<uint64_t, uint32_t> chunkByOffset;

    size_t chunks() const { return chunkFirst.size() - 1; }

    /** True when @p reads equal stored reads [first, first + size). */
    bool matches(uint64_t first, const std::vector<sage::Read> &reads) const;
};

/**
 * Decode every chunk of @p path and record its truth. Fails (returns
 * false with @p error set) unless the decoded multiset equals
 * @p expected, the digest of the reads that were ingested.
 */
bool buildTruth(const std::string &name, const std::string &path,
                const MultisetDigest &expected, ArchiveTruth &truth,
                std::string &error);

/** Write @p reads as FASTQ to @p path. */
void writeFastq(const sage::ReadSet &reads, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_HH
