/**
 * @file
 * Quickstart: compress a read set with SAGe, decompress it, verify
 * losslessness, and print the ratios — the five-minute tour of the
 * public API.
 *
 *   sage::synthesizeDataset  -> a reproducible synthetic read set
 *   sage::sageCompress       -> SAGe archive (arrays + guide arrays)
 *   sage::sageDecompress     -> reads back, bit-exact
 */

#include <cstdio>
#include <set>

#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/table.hh"

int
main()
{
    using namespace sage;

    // 1. Get a read set. Real users would call readFastqFile(path);
    //    here we synthesize a small Illumina-like sample plus the
    //    reference it was sequenced from.
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    std::printf("read set: %zu reads, %llu bases, %llu B as FASTQ\n",
                ds.readSet.reads.size(),
                static_cast<unsigned long long>(ds.readSet.totalBases()),
                static_cast<unsigned long long>(ds.readSet.fastqBytes()));

    // 2. Compress. The consensus (here: the reference) is stored inside
    //    the archive, so the output is self-contained.
    SageConfig config;            // All paper optimizations (O4).
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, config);
    std::printf("SAGe archive: %zu B  (DNA streams %llu B, quality "
                "%llu B)\n",
                archive.bytes.size(),
                static_cast<unsigned long long>(archive.dnaBytes),
                static_cast<unsigned long long>(archive.qualityBytes));
    std::printf("DNA compression ratio: %.1fx   quality: %.1fx\n",
                static_cast<double>(ds.readSet.dnaBytes())
                    / archive.dnaBytes,
                static_cast<double>(ds.readSet.qualityBytes())
                    / archive.qualityBytes);

    // 3. Decompress and verify losslessness (reads come back in
    //    matching-position order; use preserveOrder for byte-identical
    //    FASTQ).
    const ReadSet back = sageDecompress(archive.bytes);
    std::multiset<std::string> before, after;
    for (const auto &read : ds.readSet.reads)
        before.insert(read.bases + "\n" + read.quals);
    for (const auto &read : back.reads)
        after.insert(read.bases + "\n" + read.quals);
    if (before != after) {
        std::printf("ERROR: round trip was not lossless!\n");
        return 1;
    }
    std::printf("round trip: lossless (%zu reads verified)\n",
                back.reads.size());

    // 4. Streaming access: analysis systems consume reads one at a
    //    time in the accelerator-friendly 2-bit format (SAGe_Read).
    const MemorySource source(archive.bytes);
    SageReaderOptions options;
    options.dnaOnly = true;
    options.verifyChecksum = true;
    SageReader reader(source, options);
    size_t packed_bytes = 0;
    const auto packed = reader.decodeAllPacked(OutputFormat::TwoBit);
    for (const auto &read : packed)
        packed_bytes += read.size();
    std::printf("2-bit formatted output: %zu B across %zu reads\n",
                packed_bytes, packed.size());
    return 0;
}
