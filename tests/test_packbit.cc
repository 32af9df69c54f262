/**
 * @file
 * Tests for the packbit lightweight baseline (DNABIT-class tool,
 * paper §3.2 footnote 5) plus seed-sweep property tests over the whole
 * SAGe pipeline: losslessness must hold for arbitrary seeds, depths
 * and technologies, not just the fixed test specs.
 */

#include <gtest/gtest.h>

#include "compress/packbit.hh"
#include "compress/springlike.hh"
#include "core/sage.hh"
#include "simgen/synthesize.hh"
#include "util/thread_pool.hh"

namespace sage {
namespace {

// ---------------------------------------------------------------------
// packbit
// ---------------------------------------------------------------------

TEST(Packbit, RoundTripShort)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto archive = packbit::compress(ds.readSet);
    const ReadSet back = packbit::decompress(archive);
    ASSERT_EQ(back.reads.size(), ds.readSet.reads.size());
    for (size_t i = 0; i < back.reads.size(); i++) {
        EXPECT_EQ(back.reads[i].bases, ds.readSet.reads[i].bases);
        EXPECT_EQ(back.reads[i].quals, ds.readSet.reads[i].quals);
        EXPECT_EQ(back.reads[i].header, ds.readSet.reads[i].header);
    }
}

TEST(Packbit, RoundTripWithNAndRuns)
{
    ReadSet rs;
    Read read;
    read.header = "r";
    read.bases = "AAAAAAAACGTNNNNACGTACGTTTTTTTTTTTTTTTTTTTTTTG";
    read.quals = std::string(read.bases.size(), 'I');
    rs.reads.push_back(read);
    const auto archive = packbit::compress(rs);
    const ReadSet back = packbit::decompress(archive);
    EXPECT_EQ(back.reads[0].bases, read.bases);
}

TEST(Packbit, DnaNearTwoBitFloor)
{
    // The design point: lightweight but stuck near 2 bits/base.
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    const auto archive = packbit::compress(ds.readSet);
    const uint64_t dna = packbit::dnaBytes(archive);
    const double bits_per_base = 8.0 * static_cast<double>(dna)
        / static_cast<double>(ds.readSet.totalBases());
    EXPECT_GT(bits_per_base, 1.5);
    EXPECT_LT(bits_per_base, 3.2);
}

TEST(Packbit, MuchWorseRatioThanConsensusTools)
{
    // Paper §3.2: this tool class compresses ~5x worse than
    // consensus-based genomic compressors on DNA.
    DatasetSpec spec = makeTinySpec(false);
    spec.depth = 8.0;
    const SimulatedDataset ds = synthesizeDataset(spec);
    ThreadPool pool;
    const auto pb = packbit::compress(ds.readSet);
    const SageArchive sage = sageCompress(ds.readSet, ds.reference, {},
                                          &pool);
    EXPECT_GT(packbit::dnaBytes(pb), sage.dnaBytes * 3);
}

TEST(Packbit, CorruptionDetected)
{
    const SimulatedDataset ds = synthesizeDataset(makeTinySpec(false));
    auto archive = packbit::compress(ds.readSet);
    archive[archive.size() / 3] ^= 0x10;
    EXPECT_DEATH({ ReadSet rs = packbit::decompress(archive); (void)rs; },
                 ".*");
}

// ---------------------------------------------------------------------
// Seed-sweep property tests (the losslessness invariant)
// ---------------------------------------------------------------------

// GoogleTest prints a parameter it cannot format as its raw bytes, and
// CTest discovery turns that dump into the test name. Every byte is
// therefore a field: padding after a bool would put uninitialised memory
// into the names, so they would change from one discovery to the next.
struct SweepParam
{
    uint64_t seed;
    uint64_t longRead; // 0 or 1
    double depth;
};
static_assert(sizeof(SweepParam) == 2 * sizeof(uint64_t) + sizeof(double),
              "SweepParam must have no padding bytes");

class LosslessSweep : public ::testing::TestWithParam<SweepParam>
{};

TEST_P(LosslessSweep, SageRoundTripIsLossless)
{
    const SweepParam param = GetParam();
    DatasetSpec spec = makeTinySpec(param.longRead != 0);
    spec.seed = param.seed;
    spec.depth = param.depth;
    spec.genome.referenceLength = 1 << 15;
    const SimulatedDataset ds = synthesizeDataset(spec);

    ThreadPool pool;
    const SageArchive archive =
        sageCompress(ds.readSet, ds.reference, {}, &pool);
    const ReadSet back = sageDecompress(archive.bytes);

    std::multiset<std::pair<std::string, std::string>> want, got;
    for (const auto &read : ds.readSet.reads)
        want.emplace(read.bases, read.quals);
    for (const auto &read : back.reads)
        got.emplace(read.bases, read.quals);
    EXPECT_EQ(want, got) << "seed=" << param.seed
                         << " long=" << param.longRead
                         << " depth=" << param.depth;
}

TEST_P(LosslessSweep, SpringLikeRoundTripIsLossless)
{
    const SweepParam param = GetParam();
    DatasetSpec spec = makeTinySpec(param.longRead != 0);
    spec.seed = param.seed ^ 0x9999;
    spec.depth = param.depth;
    spec.genome.referenceLength = 1 << 15;
    const SimulatedDataset ds = synthesizeDataset(spec);

    ThreadPool pool;
    const auto result =
        springlike::compress(ds.readSet, ds.reference, {}, &pool);
    const auto back = springlike::decompress(result.archive, &pool);

    std::multiset<std::string> want, got;
    for (const auto &read : ds.readSet.reads)
        want.insert(read.bases);
    for (const auto &read : back.readSet.reads)
        got.insert(read.bases);
    EXPECT_EQ(want, got);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LosslessSweep,
    ::testing::Values(SweepParam{1, false, 2.0},
                      SweepParam{2, false, 6.0},
                      SweepParam{3, false, 1.0},
                      SweepParam{4, true, 2.0},
                      SweepParam{5, true, 4.0},
                      SweepParam{6, true, 1.0},
                      SweepParam{7, false, 4.0},
                      SweepParam{8, true, 3.0}));

} // namespace
} // namespace sage
