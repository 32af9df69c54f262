#include "corpus.hh"

#include <cstring>

#include "compress/streams.hh"
#include "core/decoder.hh"
#include "core/encoder.hh"
#include "genomics/fastq.hh"
#include "io/file_stream.hh"
#include "service/chunk_cache.hh"
#include "simgen/profiles.hh"
#include "trace.hh"

namespace perfbench {

namespace {

constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;

uint64_t
mixBytes(uint64_t h, const std::string &text)
{
    const char *p = text.data();
    size_t n = text.size();
    while (n >= 8) {
        uint64_t word;
        std::memcpy(&word, p, 8);
        h = (h ^ word) * kMul;
        h ^= h >> 29;
        p += 8;
        n -= 8;
    }
    uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ tail ^ (static_cast<uint64_t>(text.size()) << 40)) * kMul;
    return h ^ (h >> 32);
}

uint64_t
splitmix(uint64_t x)
{
    x += kMul;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

sage::SimulatedDataset
makeDataset(uint64_t seed, uint64_t reads)
{
    sage::DatasetSpec spec = sage::makeRs2Spec();
    spec.name = "RS2";
    spec.seed = seed;
    // RS2's depth over a reference sized for ~reads reads: the paper's
    // read set, scaled so one ingest takes a few seconds.
    spec.genome.referenceLength = static_cast<uint64_t>(
        static_cast<double>(reads) * spec.sequencer.readLength / spec.depth);
    return sage::synthesizeDataset(spec);
}

uint64_t
hashRead(const sage::Read &read)
{
    uint64_t h = mixBytes(0x5a6e, read.header);
    h = mixBytes(h, read.bases);
    return mixBytes(h, read.quals);
}

void
MultisetDigest::add(uint64_t read_hash)
{
    count += 1;
    sum += splitmix(read_hash);
    mix ^= read_hash;
}

void
MultisetDigest::addAll(const std::vector<sage::Read> &reads)
{
    for (const sage::Read &read : reads)
        add(hashRead(read));
}

bool
MultisetDigest::operator==(const MultisetDigest &other) const
{
    return count == other.count && sum == other.sum && mix == other.mix;
}

IngestResult
ingestFile(const std::string &fastq_path, const std::string &reference,
           const std::string &archive_path, sage::ThreadPool &pool,
           IoCounters &write_io)
{
    IngestResult result;
    const double start = nowSeconds();

    sage::ReadSet reads;
    {
        ScopedSpan span("genomics.parse");
        reads = sage::readFastqFile(fastq_path);
    }
    const double parsed = nowSeconds();
    result.fastqBytes = reads.fastqBytes();

    sage::SageConfig config;
    config.chunkReads = kChunkReads;
    sage::StreamBundle bundle;
    {
        ScopedSpan span("core.encode");
        result.accounting =
            sage::sageEncodeToBundle(reads, reference, config, &pool, bundle);
    }
    const double encoded = nowSeconds();
    reads = sage::ReadSet{};

    {
        ScopedSpan span("core.write");
        sage::FileSink file(archive_path);
        TimingSink sink(file, write_io);
        result.archiveBytes = bundle.writeTo(sink);
        sink.flush();
        file.close();
    }
    const double written = nowSeconds();

    result.parseSeconds = parsed - start;
    result.encodeSeconds = encoded - parsed;
    result.seconds = written - start;
    return result;
}

bool
ArchiveTruth::matches(uint64_t first,
                      const std::vector<sage::Read> &got) const
{
    if (first + got.size() > readHash.size())
        return false;
    for (size_t i = 0; i < got.size(); ++i) {
        if (hashRead(got[i]) != readHash[first + i])
            return false;
    }
    return true;
}

bool
buildTruth(const std::string &name, const std::string &path,
           const MultisetDigest &expected, ArchiveTruth &truth,
           std::string &error)
{
    truth = ArchiveTruth{};
    truth.name = name;
    truth.path = path;

    IoCounters io;
    TimingSource source(std::make_unique<sage::FileSource>(path), io);
    truth.archiveBytes = source.size();
    auto opened = sage::SageDecoder::tryOpen(source);
    if (!opened.ok()) {
        error = name + ": open failed: " + opened.status().toString();
        return false;
    }
    sage::SageDecoder &decoder = *opened.value();
    truth.reads = decoder.info().params.numReads;

    MultisetDigest digest;
    for (size_t chunk = 0; chunk < decoder.chunkCount(); ++chunk) {
        truth.chunkFirst.push_back(decoder.chunkFirstRead(chunk));
        auto reads = decoder.tryDecodeChunkShared(chunk);
        if (!reads.ok()) {
            error = name + ": chunk " + std::to_string(chunk) +
                " failed: " + reads.status().toString();
            return false;
        }
        truth.chunkByOffset[source.lastBatchOffset()] =
            static_cast<uint32_t>(chunk);
        truth.decodedBytes += sage::DecodedChunk::residentBytes(reads.value());
        for (const sage::Read &read : reads.value()) {
            const uint64_t h = hashRead(read);
            truth.readHash.push_back(h);
            digest.add(h);
        }
    }
    truth.chunkFirst.push_back(truth.reads);
    if (!(digest == expected) || truth.readHash.size() != truth.reads) {
        error = name + ": decoded reads differ from the ingested reads";
        return false;
    }
    return true;
}

void
writeFastq(const sage::ReadSet &reads, const std::string &path)
{
    const std::string text = sage::toFastq(reads);
    sage::FileSink sink(path);
    sink.write(text.data(), text.size());
    sink.close();
}

} // namespace perfbench
