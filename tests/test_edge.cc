/**
 * @file
 * Cross-cutting edge-case and design-choice tests:
 *  - prefix-code LUT fast path vs the slow path for >10-bit codes,
 *  - top-N matching positions ablation (paper footnote 7: N = 3),
 *  - host-parallelism calibration semantics in the pipeline model,
 *  - SAGe device multi-file behaviour and output-format fidelity,
 *  - tuned-codec width boundaries.
 */

#include <gtest/gtest.h>

#include "compress/gpzip.hh"
#include "core/sage.hh"
#include "genomics/fastq.hh"
#include "pipeline/pipeline.hh"
#include "accel/mappers.hh"
#include "simgen/synthesize.hh"
#include "ssd/sage_device.hh"
#include "util/prefix_code.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

// ---------------------------------------------------------------------
// Prefix code: long codes exercise the slow path behind the LUT
// ---------------------------------------------------------------------

TEST(PrefixCodeEdge, LongCodesDecodeThroughSlowPath)
{
    // Exponential frequencies force code lengths past the 10-bit LUT.
    std::vector<uint64_t> freqs(18);
    uint64_t f = 1;
    for (size_t s = 0; s < freqs.size(); s++) {
        freqs[s] = f;
        f = f < (uint64_t(1) << 40) ? f * 2 : f;
    }
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    unsigned max_len = 0;
    for (uint8_t len : code.lengths())
        max_len = std::max<unsigned>(max_len, len);
    ASSERT_GT(max_len, 10u) << "test needs codes longer than the LUT";

    BitWriter bw;
    std::vector<unsigned> symbols;
    Rng rng(71);
    for (int i = 0; i < 20000; i++) {
        const unsigned s =
            static_cast<unsigned>(rng.nextBelow(freqs.size()));
        symbols.push_back(s);
        code.encode(bw, s);
    }
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (unsigned s : symbols)
        ASSERT_EQ(code.decode(br), s);
}

TEST(PrefixCodeEdge, DecodeAtStreamTailWithPeekPadding)
{
    // A single short code at the very end: peekBits pads with zeros
    // beyond EOF and the decode must still resolve correctly.
    std::vector<uint64_t> freqs = {3, 1};
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    BitWriter bw;
    code.encode(bw, 1);
    const auto bytes = bw.take();
    BitReader br(bytes);
    EXPECT_EQ(code.decode(br), 1u);
}

// ---------------------------------------------------------------------
// Top-N matching positions (paper §5.1.2, footnote 7)
// ---------------------------------------------------------------------

TEST(TopNAblation, ChimeraHeavySetsPreferMultipleSegments)
{
    DatasetSpec spec = makeTinySpec(true);
    spec.sequencer.chimeraProb = 0.5;
    spec.depth = 3.0;
    const SimulatedDataset ds = synthesizeDataset(spec);
    ThreadPool pool;

    std::vector<uint64_t> dna_bytes;
    for (unsigned n : {1u, 3u}) {
        SageConfig config;
        config.maxSegments = n;
        const SageArchive archive =
            sageCompress(ds.readSet, ds.reference, config, &pool);
        dna_bytes.push_back(archive.dnaBytes);
        // Losslessness must hold at every N.
        const ReadSet back = sageDecompress(archive.bytes);
        ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    }
    // N=3 (the paper's choice) must beat single-position encoding on
    // chimera-heavy data.
    EXPECT_LT(dna_bytes[1], dna_bytes[0]);
}

// ---------------------------------------------------------------------
// Pipeline calibration semantics
// ---------------------------------------------------------------------

WorkloadMeasurement
calibWorkload()
{
    WorkloadMeasurement work;
    work.name = "calib";
    work.fastqBytes = 100 << 20;
    work.totalReads = 500000;
    work.totalBases = 75'000'000;
    work.pigzBytes = 20 << 20;
    work.springBytes = 6 << 20;
    work.sageBytes = 7 << 20;
    work.sageDnaStreamBytes = 3 << 20;
    work.pigzDecompSeconds = 1.0;
    work.springDecompSeconds = 1.0;
    work.springBackendSeconds = 0.4;
    work.sageSwDecompSeconds = 0.4;
    return work;
}

TEST(PipelineCalibration, ParallelSpeedupAppliesToSpringNotPigz)
{
    const WorkloadMeasurement work = calibWorkload();
    SystemConfig slow;
    slow.mapper = gemAccelerator();
    slow.hostParallelSpeedup = 1.0;
    SystemConfig fast = slow;
    fast.hostParallelSpeedup = 8.0;

    // Spring prep scales with the factor...
    const double spr_slow =
        dataPrepSeconds(work, PrepConfig::NSpr, slow);
    const double spr_fast =
        dataPrepSeconds(work, PrepConfig::NSpr, fast);
    EXPECT_GT(spr_slow, spr_fast * 2);
    // ...pigz (serial gzip decode) does not.
    const double pigz_slow =
        dataPrepSeconds(work, PrepConfig::Pigz, slow);
    const double pigz_fast =
        dataPrepSeconds(work, PrepConfig::Pigz, fast);
    EXPECT_NEAR(pigz_slow, pigz_fast, pigz_slow * 0.01);
}

TEST(PipelineCalibration, BatchCountBarelyChangesMakespan)
{
    // Pipelining result: more batches shrink fill/drain, never change
    // the steady-state bottleneck.
    const WorkloadMeasurement work = calibWorkload();
    SystemConfig a;
    a.mapper = gemAccelerator();
    a.batches = 8;
    SystemConfig b = a;
    b.batches = 128;
    const double t_a =
        evaluateEndToEnd(work, PrepConfig::NSpr, a).seconds;
    const double t_b =
        evaluateEndToEnd(work, PrepConfig::NSpr, b).seconds;
    EXPECT_LT(std::abs(t_a - t_b) / t_a, 0.25);
    EXPECT_GE(t_a, t_b); // Fewer batches => more fill/drain exposure.
}

// ---------------------------------------------------------------------
// SAGe device: multiple files and format fidelity
// ---------------------------------------------------------------------

TEST(SageDeviceEdge, MultipleArchivesCoexist)
{
    const SimulatedDataset a = synthesizeDataset(makeTinySpec(false));
    DatasetSpec spec_b = makeTinySpec(false);
    spec_b.seed = 777;
    const SimulatedDataset b = synthesizeDataset(spec_b);

    SageDevice device;
    device.sageWrite("a", sageCompress(a.readSet, a.reference));
    device.sageWrite("b", sageCompress(b.readSet, b.reference));
    device.write("notes.txt", std::vector<uint8_t>{1, 2, 3});

    EXPECT_EQ(device.sageRead("a", OutputFormat::Ascii)
                  .packedReads.size(),
              a.readSet.reads.size());
    EXPECT_EQ(device.sageRead("b", OutputFormat::Ascii)
                  .packedReads.size(),
              b.readSet.reads.size());
    EXPECT_TRUE(device.ftl().genomicLayoutAligned());
    device.remove("a");
    EXPECT_EQ(device.sageRead("b", OutputFormat::Ascii)
                  .packedReads.size(),
              b.readSet.reads.size());
}

TEST(SageDeviceEdge, AsciiOutputMatchesDecodedReads)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const SageArchive archive = sageCompress(ds.readSet, ds.reference);
    SageDevice device;
    device.sageWrite("rs", archive);
    const auto result = device.sageRead("rs", OutputFormat::Ascii);

    const MemorySource source(archive.bytes);
    SageReaderOptions dna_only;
    dna_only.dnaOnly = true;
    SageReader reader(source, dna_only);
    size_t i = 0;
    while (reader.hasNext()) {
        const Read read = reader.next();
        const std::string ascii(result.packedReads[i].begin(),
                                result.packedReads[i].end());
        ASSERT_EQ(ascii, read.bases) << "read " << i;
        i++;
    }
}

// ---------------------------------------------------------------------
// Tuned codec width boundaries
// ---------------------------------------------------------------------

TEST(TunedCodecEdge, FiftySevenBitValuesRoundTrip)
{
    std::vector<uint64_t> values = {0, 1, (uint64_t(1) << 56),
                                    (uint64_t(1) << 57) - 1};
    const AssociationTable table = TunedFieldCodec::tuneFor(values);
    TunedArrayEncoder enc(table);
    for (uint64_t v : values)
        enc.append(v);
    const auto array = enc.takeArray();
    const auto guide = enc.takeGuide();
    TunedArrayDecoder dec(table, BitReader(array), BitReader(guide));
    for (uint64_t v : values)
        EXPECT_EQ(dec.next(), v);
}

TEST(TunedCodecEdge, CostBitsMatchesActualEncoding)
{
    Rng rng(88);
    std::vector<uint64_t> values;
    for (int i = 0; i < 5000; i++)
        values.push_back(rng.nextGeometric(0.2));
    const AssociationTable table = TunedFieldCodec::tuneFor(values);
    const TunedFieldCodec codec(table);

    uint64_t predicted = 0;
    for (uint64_t v : values)
        predicted += codec.costBits(v);
    TunedArrayEncoder enc(table);
    for (uint64_t v : values)
        enc.append(v);
    EXPECT_EQ(enc.arrayBits() + enc.guideBits(), predicted);
}

// ---------------------------------------------------------------------
// FASTQ robustness
// ---------------------------------------------------------------------

TEST(FastqEdge, RejectsMalformedRecords)
{
    EXPECT_EXIT({ ReadSet rs = fromFastq("not-a-record\nACGT\n+\n!!\n");
                  (void)rs; },
                ::testing::ExitedWithCode(1), ".*");
    EXPECT_EXIT({ ReadSet rs = fromFastq("@r\nACGT\n"); (void)rs; },
                ::testing::ExitedWithCode(1), ".*");
    EXPECT_EXIT({ ReadSet rs = fromFastq("@r\nACGT\n+\n!!!\n");
                  (void)rs; },
                ::testing::ExitedWithCode(1), ".*");
}

TEST(FastqEdge, ToleratesMissingTrailingNewline)
{
    const ReadSet rs = fromFastq("@r\nACGT\n+\nIIII");
    ASSERT_EQ(rs.reads.size(), 1u);
    EXPECT_EQ(rs.reads[0].quals, "IIII");
}

TEST(FastqEdge, CrlfLineEndingsAreFraming)
{
    // The '\r' of CRLF input is line framing, not data: it must not
    // reach the stored bases/quals nor trip the base-character guard.
    const ReadSet rs =
        fromFastq("@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTTNN\r\n+\r\n"
                  "JJJJ\r\n");
    ASSERT_EQ(rs.reads.size(), 2u);
    EXPECT_EQ(rs.reads[0].header, "r1");
    EXPECT_EQ(rs.reads[0].bases, "ACGT");
    EXPECT_EQ(rs.reads[0].quals, "IIII");
    EXPECT_EQ(rs.reads[1].bases, "TTNN");
}

TEST(FastqEdge, BinaryGarbageInBasesDies)
{
    EXPECT_EXIT({ fromFastq("@r\nAC\x01G\n+\nIIII\n"); },
                ::testing::ExitedWithCode(1), "invalid base character");
}

} // namespace
} // namespace sage
