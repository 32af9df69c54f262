/**
 * @file
 * Unit tests for the util substrate: bit I/O, prefix codes, histograms,
 * CRC, varints, RNG distributions, tables and the thread pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>

#include "util/bitio.hh"
#include "util/cpu.hh"
#include "util/crc32.hh"
#include "util/histogram.hh"
#include "util/prefix_code.hh"
#include "util/rng.hh"
#include "util/status.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/varint.hh"

namespace sage {
namespace {

TEST(BitIo, SingleBitsRoundTrip)
{
    BitWriter bw;
    const std::vector<bool> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
    for (bool b : bits)
        bw.writeBit(b);
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (bool b : bits)
        EXPECT_EQ(br.readBit(), b);
}

TEST(BitIo, MixedWidthFieldsRoundTrip)
{
    BitWriter bw;
    Rng rng(7);
    std::vector<std::pair<uint64_t, unsigned>> fields;
    for (int i = 0; i < 10000; i++) {
        const unsigned width = 1 + rng.nextBelow(57);
        const uint64_t value = rng.next() & ((uint64_t(1) << width) - 1);
        fields.emplace_back(value, width);
        bw.writeBits(value, width);
    }
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (const auto &[value, width] : fields)
        ASSERT_EQ(br.readBits(width), value);
}

TEST(BitIo, UnaryCodes)
{
    BitWriter bw;
    for (unsigned n = 0; n < 20; n++)
        bw.writeUnary(n);
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (unsigned n = 0; n < 20; n++)
        EXPECT_EQ(br.readUnary(), n);
}

TEST(BitIo, BitCountTracksWrites)
{
    BitWriter bw;
    bw.writeBits(5, 3);
    EXPECT_EQ(bw.bitCount(), 3u);
    bw.writeBits(1, 11);
    EXPECT_EQ(bw.bitCount(), 14u);
}

TEST(BitIo, ZeroWidthFieldIsNoop)
{
    BitWriter bw;
    bw.writeBits(0xff, 0);
    EXPECT_EQ(bw.bitCount(), 0u);
}

TEST(BitIo, AlignByte)
{
    BitWriter bw;
    bw.writeBit(true);
    bw.alignByte();
    EXPECT_EQ(bw.bitCount(), 8u);
    bw.writeBits(0xab, 8);
    const auto bytes = bw.take();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[1], 0xab);
}

TEST(PrefixCode, RoundTripSkewed)
{
    std::vector<uint64_t> freqs = {1000, 500, 100, 50, 10, 5, 1, 1};
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    BitWriter bw;
    std::vector<unsigned> symbols;
    Rng rng(3);
    for (int i = 0; i < 5000; i++) {
        const unsigned s = rng.nextWeighted(
            std::vector<double>(freqs.begin(), freqs.end()));
        symbols.push_back(s);
        code.encode(bw, s);
    }
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (unsigned s : symbols)
        ASSERT_EQ(code.decode(br), s);
}

TEST(PrefixCode, FrequentSymbolsGetShorterCodes)
{
    std::vector<uint64_t> freqs = {1000, 10, 10, 10};
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    EXPECT_LE(code.lengths()[0], code.lengths()[1]);
    EXPECT_LE(code.lengths()[0], code.lengths()[3]);
}

TEST(PrefixCode, SingleSymbolAlphabet)
{
    std::vector<uint64_t> freqs = {42};
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    BitWriter bw;
    code.encode(bw, 0);
    code.encode(bw, 0);
    const auto bytes = bw.take();
    BitReader br(bytes);
    EXPECT_EQ(code.decode(br), 0u);
    EXPECT_EQ(code.decode(br), 0u);
}

TEST(PrefixCode, LengthsRebuildIdentically)
{
    std::vector<uint64_t> freqs(64);
    Rng rng(11);
    for (auto &f : freqs)
        f = rng.nextBelow(10000) + 1;
    const PrefixCode original = PrefixCode::fromFrequencies(freqs);
    const PrefixCode rebuilt = PrefixCode::fromLengths(original.lengths());

    BitWriter bw;
    for (unsigned s = 0; s < 64; s++)
        original.encode(bw, s);
    const auto bytes = bw.take();
    BitReader br(bytes);
    for (unsigned s = 0; s < 64; s++)
        ASSERT_EQ(rebuilt.decode(br), s);
}

TEST(PrefixCode, KraftInequalityHolds)
{
    std::vector<uint64_t> freqs(300);
    Rng rng(5);
    for (auto &f : freqs)
        f = 1 + rng.nextBelow(1u << 20);
    const PrefixCode code = PrefixCode::fromFrequencies(freqs);
    double kraft = 0;
    for (uint8_t len : code.lengths()) {
        ASSERT_LE(len, 15);
        if (len > 0)
            kraft += std::pow(2.0, -double(len));
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(Crc32, KnownVector)
{
    // CRC-32 of "123456789" is the classic check value 0xCBF43926.
    const std::string s = "123456789";
    EXPECT_EQ(Crc32::of(reinterpret_cast<const uint8_t *>(s.data()),
                        s.size()),
              0xcbf43926u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> data(1000);
    Rng rng(13);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    Crc32 crc;
    crc.update(data.data(), 400);
    crc.update(data.data() + 400, 600);
    EXPECT_EQ(crc.value(), Crc32::of(data));
}

/** One byte of the textbook CRC-32: 8 shift/xor steps on the raw
 *  (pre-inverted) register. */
uint32_t
crcBitwiseStep(uint32_t c, uint8_t byte)
{
    c ^= byte;
    for (int k = 0; k < 8; k++)
        c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
    return c;
}

uint32_t
crcBitwise(const uint8_t *data, size_t size)
{
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < size; i++)
        c = crcBitwiseStep(c, data[i]);
    return ~c;
}

std::vector<uint8_t>
randomBytes(size_t size, uint64_t seed)
{
    std::vector<uint8_t> data(size);
    Rng rng(seed);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    return data;
}

TEST(Crc32, TiersMatchBitwiseAtEveryLengthAndOffset)
{
    // Lengths 0-1100 at offsets 0-15 cover below the 64-byte SIMD
    // threshold, exactly 64, every 16-byte remainder and misaligned
    // loads, for the slicing-by-8 tier and the dispatched one alike.
    constexpr size_t kMaxLen = 1100;
    const std::vector<uint8_t> data = randomBytes(kMaxLen + 16, 21);
    for (size_t offset = 0; offset < 16; offset++) {
        const uint8_t *base = data.data() + offset;
        uint32_t reference = 0xffffffffu;
        for (size_t len = 0; len <= kMaxLen; len++) {
            ASSERT_EQ(crc32::slice8(0, base, len), ~reference)
                << "offset " << offset << " length " << len;
            ASSERT_EQ(Crc32::of(base, len), ~reference)
                << "offset " << offset << " length " << len;
            reference = crcBitwiseStep(reference, base[len]);
        }
    }
}

TEST(Crc32, SplitUpdatesMatchOneShot)
{
    const std::vector<uint8_t> small = randomBytes(300, 22);
    const uint32_t small_crc = crcBitwise(small.data(), small.size());
    for (size_t split = 0; split <= small.size(); split++) {
        Crc32 crc;
        crc.update(small.data(), split);
        crc.update(small.data() + split, small.size() - split);
        ASSERT_EQ(crc.value(), small_crc) << "split " << split;
        const uint32_t head = crc32::slice8(0, small.data(), split);
        ASSERT_EQ(crc32::slice8(head, small.data() + split,
                                small.size() - split),
                  small_crc)
            << "split " << split;
    }

    // A 1 MiB buffer cut at seeded random points into pieces that
    // straddle the SIMD threshold and the 16-byte block boundaries.
    const std::vector<uint8_t> big = randomBytes(1 << 20, 23);
    const uint32_t big_crc = crcBitwise(big.data(), big.size());
    ASSERT_EQ(Crc32::of(big), big_crc);
    Rng rng(24);
    for (int trial = 0; trial < 8; trial++) {
        Crc32 crc;
        uint32_t chained = 0;
        for (size_t at = 0; at < big.size();) {
            const size_t piece = std::min<size_t>(
                big.size() - at, rng.nextBelow(trial % 2 ? 200 : 70000));
            crc.update(big.data() + at, piece);
            chained = crc32::slice8(chained, big.data() + at, piece);
            at += piece;
        }
        EXPECT_EQ(crc.value(), big_crc) << "trial " << trial;
        EXPECT_EQ(chained, big_crc) << "trial " << trial;
    }
}

TEST(Crc32, ZeroLengthUpdatesAreNoOps)
{
    const std::vector<uint8_t> data = randomBytes(200, 25);
    EXPECT_EQ(Crc32::of(nullptr, 0), 0u);
    EXPECT_EQ(crc32::slice8(0, nullptr, 0), 0u);
    EXPECT_EQ(crc32::slice8(0x12345678u, data.data(), 0), 0x12345678u);

    Crc32 crc;
    crc.update(nullptr, 0);
    crc.update(data.data(), 100);
    crc.update(data.data() + 100, 0);
    crc.update(data.data() + 100, 100);
    crc.update(data.data() + 200, 0);
    EXPECT_EQ(crc.value(), crcBitwise(data.data(), data.size()));
}

TEST(Crc32, TierHonoursForcedScalar)
{
    const std::string tier = crc32::activeTierName();
    EXPECT_TRUE(tier == "pclmul" || tier == "slice8") << tier;
    if (simdForcedScalar()) {
        EXPECT_EQ(tier, "slice8");
    }
    EXPECT_EQ(tier == "pclmul", detectedCarrylessMultiply());
}

TEST(Varint, RoundTripEdges)
{
    std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                    UINT32_MAX, UINT64_MAX};
    std::vector<uint8_t> buf;
    for (uint64_t v : values)
        putVarint(buf, v);
    size_t pos = 0;
    for (uint64_t v : values)
        EXPECT_EQ(getVarint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
}

TEST(Varint, ZigzagRoundTrip)
{
    for (int64_t v : {int64_t(0), int64_t(-1), int64_t(1),
                      int64_t(-1000000), int64_t(1000000),
                      INT64_MIN, INT64_MAX}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
    // Small magnitudes map to small codes.
    EXPECT_LT(zigzagEncode(-3), 8u);
}

TEST(Rng, Deterministic)
{
    Rng a(99), b(99);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds)
{
    Rng rng(1);
    for (int i = 0; i < 10000; i++) {
        const uint64_t v = rng.nextBelow(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, GeometricMeanApprox)
{
    Rng rng(2);
    const double p = 0.25;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(rng.nextGeometric(p));
    const double mean = sum / n;
    // E[X] = (1-p)/p = 3.
    EXPECT_NEAR(mean, 3.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(4);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++) {
        const double x = rng.nextNormal(5.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, WeightedPrefersHeavyBuckets)
{
    Rng rng(6);
    std::vector<double> w = {0.9, 0.05, 0.05};
    int heavy = 0;
    for (int i = 0; i < 10000; i++)
        heavy += rng.nextWeighted(w) == 0;
    EXPECT_GT(heavy, 8500);
}

TEST(Histogram, BasicCountsAndQuantiles)
{
    Histogram h;
    h.add(1, 50);
    h.add(2, 30);
    h.add(8, 20);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
    EXPECT_EQ(h.quantileKey(0.5), 1u);
    EXPECT_EQ(h.quantileKey(0.81), 8u);
    EXPECT_EQ(h.cumulative(2), 80u);
    EXPECT_NEAR(h.mean(), (50 * 1 + 30 * 2 + 20 * 8) / 100.0, 1e-9);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(5), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
}

TEST(LatencyHistogram, QuantilesWithinBucketError)
{
    LatencyHistogram h;
    // 90 fast samples at ~1 ms, 10 slow at ~100 ms.
    for (int i = 0; i < 90; i++)
        h.record(0.001);
    for (int i = 0; i < 10; i++)
        h.record(0.100);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.meanSeconds(), (90 * 0.001 + 10 * 0.100) / 100.0,
                1e-9);
    EXPECT_DOUBLE_EQ(h.maxSeconds(), 0.100);
    // Log-spaced buckets: quantiles land at a bucket upper edge, never
    // more than ~25% above the true value, never below it.
    EXPECT_GE(h.quantileSeconds(0.50), 0.001);
    EXPECT_LE(h.quantileSeconds(0.50), 0.00130);
    EXPECT_GE(h.quantileSeconds(0.99), 0.100);
    EXPECT_LE(h.quantileSeconds(0.99), 0.130);
    EXPECT_LE(h.quantileSeconds(0.50), h.quantileSeconds(0.99));
}

TEST(LatencyHistogram, EmptyZeroAndExtremeSamplesAreSafe)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.quantileSeconds(0.99), 0.0);
    EXPECT_DOUBLE_EQ(h.meanSeconds(), 0.0);

    h.record(0.0);
    h.record(-1.0);         // Clamped to zero.
    h.record(1e-9);         // Sub-microsecond.
    h.record(500.0);        // Beyond the top octave: overflow bucket.
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.maxSeconds(), 500.0);
    // Overflow-bucket quantiles report the exact max (the bucket has
    // no upper edge), preserving the never-underreport guarantee.
    EXPECT_DOUBLE_EQ(h.quantileSeconds(1.0), 500.0);
}

TEST(LatencyHistogram, MergeAccumulates)
{
    LatencyHistogram a, b;
    for (int i = 0; i < 50; i++)
        a.record(0.002);
    for (int i = 0; i < 50; i++)
        b.record(0.050);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.maxSeconds(), 0.050);
    EXPECT_GE(a.quantileSeconds(0.99), 0.050);
    EXPECT_NEAR(a.meanSeconds(), (50 * 0.002 + 50 * 0.050) / 100.0,
                1e-9);
}

TEST(ThreadPool, ParallelForCoversAll)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsOnTheCaller)
{
    ThreadPool pool(4);
    bool caught = false;
    try {
        pool.parallelFor(10000, [](size_t i) {
            if (i == 4321)
                throw StatusError(Status::corrupt("bad item ", i));
        });
    } catch (const StatusError &error) {
        caught = true;
        EXPECT_EQ(error.status().code(), StatusCode::Corrupt);
        EXPECT_NE(error.status().message().find("4321"), std::string::npos);
    }
    EXPECT_TRUE(caught);

    // The pool is still usable: the next loop covers every index once.
    std::vector<std::atomic<int>> hits(10000);
    pool.parallelFor(hits.size(), [&](size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, AlongsideRunsOnTheCallerAndRethrows)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(200);
    std::thread::id ran_on;
    pool.parallelFor(
        hits.size(), [&](size_t i) { hits[i]++; },
        [&] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);

    // An alongside failure reaches the caller like a loop failure.
    bool caught = false;
    try {
        pool.parallelFor(
            100, [](size_t) {},
            [] { throw StatusError(Status::corrupt("alongside")); });
    } catch (const StatusError &error) {
        caught = true;
        EXPECT_EQ(error.status().code(), StatusCode::Corrupt);
    }
    EXPECT_TRUE(caught);
}

TEST(ThreadPool, WaitDrainsAllTasks)
{
    ThreadPool pool(8);
    std::atomic<int> counter{0};
    for (int i = 0; i < 500; i++)
        pool.submit([&] { counter++; });
    pool.wait();
    EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, WaitFromOwnWorkerPanics)
{
    // wait() waits for every task on the pool, the caller's own
    // included: from a worker it would never return.
    EXPECT_DEATH(
        {
            ThreadPool pool(2);
            pool.parallelFor(2, [&](size_t) {
                pool.parallelFor(1, [](size_t) {});
            });
        },
        "pool's own workers");
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    const std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::timesFactor(2.5, 1), "2.5x");
    EXPECT_EQ(TextTable::percent(0.123, 1), "12.3%");
}

} // namespace
} // namespace sage
