/**
 * @file
 * Unit tests for the genomics substrate: alphabet codecs, FASTQ
 * serialization and k-mer/minimizer extraction.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "genomics/alphabet.hh"
#include "genomics/fastq.hh"
#include "genomics/kmer.hh"
#include "genomics/read.hh"
#include "util/rng.hh"

namespace sage {
namespace {

TEST(Alphabet, CodeRoundTrip)
{
    for (char c : {'A', 'C', 'G', 'T', 'N'})
        EXPECT_EQ(codeToBase(baseToCode(c)), c);
    EXPECT_EQ(baseToCode('a'), baseToCode('A'));
    EXPECT_EQ(baseToCode('x'), baseToCode('N'));
}

TEST(Alphabet, ReverseComplement)
{
    EXPECT_EQ(reverseComplement("ACGT"), "ACGT");
    EXPECT_EQ(reverseComplement("AACG"), "CGTT");
    EXPECT_EQ(reverseComplement("N"), "N");
    // Involution.
    const std::string s = "ACGTTGCANNACG";
    EXPECT_EQ(reverseComplement(reverseComplement(s)), s);
}

TEST(Alphabet, PackUnpackTwoBit)
{
    const std::string seq = "ACGTACGTGGTTCCAA";
    const auto packed = packSequence(seq, OutputFormat::TwoBit);
    EXPECT_EQ(packed.size(), (seq.size() * 2 + 7) / 8);
    EXPECT_EQ(unpackSequence(packed, seq.size(), OutputFormat::TwoBit),
              seq);
}

TEST(Alphabet, PackUnpackThreeBitWithN)
{
    const std::string seq = "ACGNNTACGN";
    const auto packed = packSequence(seq, OutputFormat::ThreeBit);
    EXPECT_EQ(unpackSequence(packed, seq.size(), OutputFormat::ThreeBit),
              seq);
}

TEST(Alphabet, AsciiPassThrough)
{
    const std::string seq = "ACGTN";
    const auto packed = packSequence(seq, OutputFormat::Ascii);
    EXPECT_EQ(unpackSequence(packed, seq.size(), OutputFormat::Ascii),
              seq);
}

TEST(Alphabet, IsAcgtOnly)
{
    EXPECT_TRUE(isAcgtOnly("ACGTACGT"));
    EXPECT_FALSE(isAcgtOnly("ACGNT"));
    EXPECT_TRUE(isAcgtOnly(""));
}

TEST(ReadSet, ByteAccounting)
{
    ReadSet rs;
    Read r;
    r.header = "r1";
    r.bases = "ACGT";
    r.quals = "IIII";
    rs.reads.push_back(r);
    // '@r1\n' + 'ACGT\n' + '+\n' + 'IIII\n' = 4 + 5 + 2 + 5.
    EXPECT_EQ(rs.fastqBytes(), 16u);
    EXPECT_EQ(rs.dnaBytes(), 5u);
    EXPECT_EQ(rs.qualityBytes(), 5u);
    EXPECT_TRUE(rs.hasQualityScores());
}

TEST(Fastq, RoundTrip)
{
    ReadSet rs;
    for (int i = 0; i < 10; i++) {
        Read r;
        r.header = "read." + std::to_string(i);
        r.bases = "ACGTACGTNN";
        r.quals = "IIIIIIIIII";
        rs.reads.push_back(r);
    }
    const ReadSet back = fromFastq(toFastq(rs), "x");
    ASSERT_EQ(back.reads.size(), rs.reads.size());
    for (size_t i = 0; i < rs.reads.size(); i++) {
        EXPECT_EQ(back.reads[i].header, rs.reads[i].header);
        EXPECT_EQ(back.reads[i].bases, rs.reads[i].bases);
        EXPECT_EQ(back.reads[i].quals, rs.reads[i].quals);
    }
}

TEST(Fastq, FileRoundTrip)
{
    ReadSet rs;
    Read r;
    r.header = "f";
    r.bases = "ACGT";
    r.quals = "!!!!";
    rs.reads.push_back(r);
    const std::string path = "/tmp/sage_test_roundtrip.fastq";
    writeFastqFile(rs, path);
    const ReadSet back = readFastqFile(path);
    ASSERT_EQ(back.reads.size(), 1u);
    EXPECT_EQ(back.reads[0].bases, "ACGT");
}

TEST(Kmer, ExtractSkipsN)
{
    const auto hits = extractKmers("ACGTNACGTA", 4);
    // Windows containing the N at index 4 are skipped.
    for (const auto &hit : hits) {
        EXPECT_TRUE(hit.pos + 4 <= 4 || hit.pos >= 5);
    }
    EXPECT_FALSE(hits.empty());
}

TEST(Kmer, PackedValueMatchesManual)
{
    const auto hits = extractKmers("ACGT", 4);
    ASSERT_EQ(hits.size(), 1u);
    // A=0 C=1 G=2 T=3 -> 0b00011011.
    EXPECT_EQ(hits[0].kmer, 0b00011011u);
}

TEST(Kmer, MinimizersAreSubsetOfKmers)
{
    std::string seq;
    Rng rng(17);
    for (int i = 0; i < 2000; i++)
        seq.push_back(codeToBase(static_cast<uint8_t>(rng.nextBelow(4))));
    const auto all = extractKmers(seq, 15);
    const auto mins = extractMinimizers(seq, 15, 5);
    EXPECT_LT(mins.size(), all.size());
    EXPECT_GT(mins.size(), all.size() / 10);
    // Every minimizer must be a real k-mer at its position.
    std::set<std::pair<uint32_t, uint64_t>> kmers;
    for (const auto &hit : all)
        kmers.emplace(hit.pos, hit.kmer);
    for (const auto &m : mins)
        EXPECT_EQ(kmers.count({m.pos, m.kmer}), 1u) << "pos " << m.pos;
}

/**
 * Reference (w, k) minimizers, one window at a time: the window is by
 * position (pos + w > the current k-mer's pos), emission starts at the
 * w-th valid k-mer, the newer k-mer wins a hash tie, and a position is
 * not emitted twice in a row (fronts only move forward, so that is
 * once overall).
 */
std::vector<KmerHit>
bruteForceMinimizers(std::string_view seq, unsigned k, unsigned w)
{
    const std::vector<KmerHit> all = extractKmers(seq, k);
    if (w <= 1)
        return all;
    std::vector<KmerHit> out;
    for (size_t i = 0; i < all.size(); i++) {
        if (i + 1 < w)
            continue;
        const KmerHit *best = nullptr;
        for (size_t j = 0; j <= i; j++) {
            if (all[j].pos + w <= all[i].pos)
                continue;
            if (best == nullptr ||
                hashKmer(all[j].kmer) <= hashKmer(best->kmer))
                best = &all[j];
        }
        if (out.empty() || out.back().pos != best->pos)
            out.push_back(*best);
    }
    return out;
}

/**
 * A sequence for the minimizer tests' trial @p trial at k-mer length
 * @p k: every fourth is shorter than k; the rest carry runs of N
 * (upper or lower case) and tandem repeats, whose equal k-mers tie on
 * hash, between ACGT stretches.
 */
std::string
minimizerTrialSequence(Rng &rng, unsigned k, int trial)
{
    const size_t len = trial % 4 == 0 ? rng.nextBelow(k)
                                      : 1 + rng.nextBelow(300);
    std::string seq;
    while (seq.size() < len) {
        if (rng.nextBool(0.02)) {
            const char n = rng.nextBool(0.5) ? 'N' : 'n';
            seq.append(1 + rng.nextBelow(k + 3), n);
        } else if (rng.nextBool(0.01)) {
            std::string repeat_unit;
            for (uint64_t u = 1 + rng.nextBelow(3); u > 0; u--)
                repeat_unit.push_back(
                    codeToBase(static_cast<uint8_t>(rng.nextBelow(4))));
            for (uint64_t r = k + rng.nextBelow(2 * k); r > 0; r--)
                seq += repeat_unit;
        } else {
            seq.push_back(
                codeToBase(static_cast<uint8_t>(rng.nextBelow(4))));
        }
    }
    seq.resize(len);
    return seq;
}

TEST(Kmer, MinimizersMatchBruteForceWindowMinimum)
{
    Rng rng(19);
    for (unsigned k : {11u, 15u, 31u}) {
        for (unsigned w : {1u, 2u, 5u, 8u}) {
            for (int trial = 0; trial < 40; trial++) {
                const std::string seq = minimizerTrialSequence(rng, k, trial);
                const auto expected = bruteForceMinimizers(seq, k, w);
                const auto got = extractMinimizers(seq, k, w);
                ASSERT_EQ(got.size(), expected.size())
                    << "k=" << k << " w=" << w << " seq=" << seq;
                for (size_t i = 0; i < got.size(); i++) {
                    EXPECT_EQ(got[i].pos, expected[i].pos);
                    EXPECT_EQ(got[i].kmer, expected[i].kmer);
                    if (i > 0) {
                        EXPECT_LT(got[i - 1].pos, got[i].pos);
                    }
                }
            }
        }
    }
}

void
expectSameHits(const std::vector<KmerHit> &got,
               const std::vector<KmerHit> &expected)
{
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i].pos, expected[i].pos);
        EXPECT_EQ(got[i].kmer, expected[i].kmer);
    }
}

TEST(Kmer, BothStrandsMatchReverseComplement)
{
    // Reused output vectors also check that each call overwrites them.
    std::vector<KmerHit> fwd, rev;
    Rng rng(19);
    for (unsigned k : {11u, 15u, 31u}) {
        for (unsigned w : {1u, 2u, 5u, 8u}) {
            for (int trial = 0; trial < 40; trial++) {
                const std::string seq = minimizerTrialSequence(rng, k, trial);
                SCOPED_TRACE("k=" + std::to_string(k) + " w=" +
                             std::to_string(w) + " seq=" + seq);
                extractStrandMinimizers(seq, k, w, fwd, rev);
                expectSameHits(fwd, extractMinimizers(seq, k, w));
                expectSameHits(rev, extractMinimizers(
                                        reverseComplement(seq), k, w));
            }
        }
    }
}

TEST(Kmer, WideWindowsMatchBruteForce)
{
    // With w > k a window can reach back across a run of N, so the
    // minimum may leave it while older k-mers from before the run are
    // still in the ring. Both scans must match the reference there too.
    std::vector<KmerHit> fwd, rev;
    Rng rng(23);
    for (unsigned k : {5u, 11u}) {
        for (unsigned w : {12u, 33u}) {
            for (int trial = 0; trial < 40; trial++) {
                const std::string seq = minimizerTrialSequence(rng, k, trial);
                SCOPED_TRACE("k=" + std::to_string(k) + " w=" +
                             std::to_string(w) + " seq=" + seq);
                const auto expected = bruteForceMinimizers(seq, k, w);
                expectSameHits(extractMinimizers(seq, k, w), expected);
                extractStrandMinimizers(seq, k, w, fwd, rev);
                expectSameHits(fwd, expected);
                expectSameHits(rev, bruteForceMinimizers(
                                        reverseComplement(seq), k, w));
            }
        }
    }
}

TEST(Kmer, MinimizersDeterministic)
{
    std::string seq;
    Rng rng(18);
    for (int i = 0; i < 500; i++)
        seq.push_back(codeToBase(static_cast<uint8_t>(rng.nextBelow(4))));
    const auto a = extractMinimizers(seq, 11, 7);
    const auto b = extractMinimizers(seq, 11, 7);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].kmer, b[i].kmer);
        EXPECT_EQ(a[i].pos, b[i].pos);
    }
}

TEST(Kmer, CanonicalIsStrandInvariant)
{
    const std::string fwd = "ACGGTAGCATG";
    const std::string rev = reverseComplement(fwd);
    const auto hf = extractKmers(fwd, 11);
    const auto hr = extractKmers(rev, 11);
    ASSERT_EQ(hf.size(), 1u);
    ASSERT_EQ(hr.size(), 1u);
    EXPECT_EQ(canonicalKmer(hf[0].kmer, 11),
              canonicalKmer(hr[0].kmer, 11));
}

} // namespace
} // namespace sage
