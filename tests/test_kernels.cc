/**
 * @file
 * Property tests for the runtime-dispatched sequence kernels
 * (genomics/kernels.hh): the dispatched SIMD paths, the scalar LUT
 * baselines and the historical per-bit BitReader/BitWriter
 * implementations must agree byte for byte across every length from 0
 * to 257, unaligned buffer offsets, N/escape bases and all three
 * OutputFormats. The suite runs twice in CI — natively and under
 * SAGE_FORCE_SCALAR=1 — so both dispatch paths stay green.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "genomics/alphabet.hh"
#include "genomics/kernels.hh"
#include "util/bitio.hh"
#include "util/cpu.hh"
#include "util/rng.hh"

namespace sage {
namespace {

// ---------------------------------------------------------------------
// Historical per-bit reference implementations (the exact code the
// kernels replaced): the ground truth for byte-identity.
// ---------------------------------------------------------------------

std::vector<uint8_t>
perBitPack(std::string_view seq, unsigned width)
{
    BitWriter bw;
    for (char c : seq)
        bw.writeBits(baseToCode(c), width);
    return bw.take();
}

std::string
perBitUnpack(const std::vector<uint8_t> &packed, size_t num_bases,
             unsigned width)
{
    BitReader br(packed.data(), packed.size());
    std::string out;
    out.reserve(num_bases);
    for (size_t i = 0; i < num_bases; i++)
        out.push_back(codeToBase(static_cast<uint8_t>(br.readBits(width))));
    return out;
}

std::string
perCharReverseComplement(std::string_view seq)
{
    std::string out(seq.size(), 'N');
    for (size_t i = 0; i < seq.size(); i++)
        out[i] = complementBase(seq[seq.size() - 1 - i]);
    return out;
}

std::string
randomSeq(Rng &rng, size_t len, bool with_n)
{
    static const char acgt[] = "ACGT";
    static const char acgtn[] = "ACGTN";
    std::string s;
    s.reserve(len);
    for (size_t i = 0; i < len; i++)
        s.push_back(with_n ? acgtn[rng.nextBelow(5)]
                           : acgt[rng.nextBelow(4)]);
    return s;
}

TEST(KernelDispatch, ActiveLevelIsConsistent)
{
    // Under SAGE_FORCE_SCALAR the dispatch must be scalar; otherwise it
    // can be anything the hardware supports.
    if (simdForcedScalar()) {
        EXPECT_EQ(kernels::activeLevel(), SimdLevel::Scalar);
    }
    EXPECT_LE(static_cast<int>(kernels::activeLevel()),
              static_cast<int>(hardwareSimdLevel()));
    EXPECT_STREQ(kernels::activeLevelName(),
                 simdLevelName(kernels::activeLevel()));
}

TEST(Kernel2Bit, MatchesPerBitReferenceAcrossLengths)
{
    Rng rng(1);
    for (size_t len = 0; len <= 257; len++) {
        const std::string seq = randomSeq(rng, len, /*with_n=*/false);

        const std::vector<uint8_t> expect = perBitPack(seq, 2);
        std::vector<uint8_t> packed((len + 3) / 4);
        kernels::pack2bit(seq.data(), len, packed.data());
        ASSERT_EQ(packed, expect) << "len " << len;

        std::vector<uint8_t> scalar_packed((len + 3) / 4);
        kernels::scalar::pack2bit(seq.data(), len,
                                  scalar_packed.data());
        ASSERT_EQ(scalar_packed, expect) << "len " << len;

        std::string out(len, '\0');
        kernels::unpack2bit(packed.data(), packed.size(), len,
                            out.data());
        ASSERT_EQ(out, seq) << "len " << len;
        ASSERT_EQ(perBitUnpack(packed, len, 2), seq);

        std::string scalar_out(len, '\0');
        kernels::scalar::unpack2bit(packed.data(), packed.size(), len,
                                    scalar_out.data());
        ASSERT_EQ(scalar_out, seq) << "len " << len;
    }
}

TEST(Kernel3Bit, MatchesPerBitReferenceAcrossLengths)
{
    Rng rng(2);
    for (size_t len = 0; len <= 257; len++) {
        const std::string seq = randomSeq(rng, len, /*with_n=*/true);

        const std::vector<uint8_t> expect = perBitPack(seq, 3);
        std::vector<uint8_t> packed((3 * len + 7) / 8);
        kernels::pack3bit(seq.data(), len, packed.data());
        ASSERT_EQ(packed, expect) << "len " << len;

        std::string out(len, '\0');
        ASSERT_TRUE(kernels::unpack3bit(packed.data(), packed.size(), len,
                                        out.data()));
        ASSERT_EQ(out, seq) << "len " << len;
        ASSERT_EQ(perBitUnpack(packed, len, 3), seq);

        std::string scalar_out(len, '\0');
        ASSERT_TRUE(kernels::scalar::unpack3bit(
            packed.data(), packed.size(), len, scalar_out.data()));
        ASSERT_EQ(scalar_out, seq) << "len " << len;
    }
}

TEST(Kernel3Bit, FlagsABadCodeAtEveryPosition)
{
    // Codes 5-7 are no base. Wherever one sits (SIMD body or scalar
    // tail), every tier reports it and still fills the output.
    Rng rng(11);
    for (size_t len = 1; len <= 257; len++) {
        const std::string seq = randomSeq(rng, len, /*with_n=*/true);
        std::vector<uint8_t> packed((3 * len + 7) / 8);
        kernels::pack3bit(seq.data(), len, packed.data());
        for (size_t k = 0; k < len; k++) {
            std::vector<uint8_t> bad = packed;
            for (unsigned b = 0; b < 3; b++) {
                const size_t bit = 3 * k + b;
                const uint8_t mask = static_cast<uint8_t>(1u << (bit & 7));
                if ((5u >> b) & 1u)
                    bad[bit >> 3] |= mask;
                else
                    bad[bit >> 3] &= static_cast<uint8_t>(~mask);
            }
            std::string out(len, '\0');
            ASSERT_FALSE(kernels::unpack3bit(bad.data(), bad.size(), len,
                                             out.data()))
                << "len " << len << " code " << k;
            ASSERT_EQ(out[k], 'N') << "len " << len << " code " << k;
            ASSERT_FALSE(kernels::scalar::unpack3bit(bad.data(), bad.size(),
                                                     len, out.data()))
                << "len " << len << " code " << k;
        }
    }
}

TEST(Kernel2Bit, UnalignedBuffersDecodeIdentically)
{
    Rng rng(3);
    const std::string seq = randomSeq(rng, 193, /*with_n=*/false);
    std::vector<uint8_t> packed((seq.size() + 3) / 4);
    kernels::pack2bit(seq.data(), seq.size(), packed.data());

    for (size_t misalign = 0; misalign < 16; misalign++) {
        // Sequence at an arbitrary offset inside a larger buffer.
        std::string shifted(misalign, 'x');
        shifted += seq;
        std::vector<uint8_t> out(packed.size());
        kernels::pack2bit(shifted.data() + misalign, seq.size(),
                          out.data());
        ASSERT_EQ(out, packed) << "misalign " << misalign;

        // Packed bytes at an arbitrary offset likewise.
        std::vector<uint8_t> shifted_packed(misalign, 0xEE);
        shifted_packed.insert(shifted_packed.end(), packed.begin(),
                              packed.end());
        std::string bases(seq.size(), '\0');
        kernels::unpack2bit(shifted_packed.data() + misalign,
                            packed.size(), seq.size(), bases.data());
        ASSERT_EQ(bases, seq) << "misalign " << misalign;
    }
}

TEST(Kernel3Bit, UnalignedBuffersDecodeIdentically)
{
    // The shuffle-based 3-bit unpack loads 16 bytes per 6 consumed, so
    // both unaligned sources and near-end-of-buffer streams exercise
    // its bounds handling.
    Rng rng(7);
    const std::string seq = randomSeq(rng, 251, /*with_n=*/true);
    std::vector<uint8_t> packed((3 * seq.size() + 7) / 8);
    kernels::pack3bit(seq.data(), seq.size(), packed.data());

    for (size_t misalign = 0; misalign < 16; misalign++) {
        std::vector<uint8_t> shifted(misalign, 0xEE);
        shifted.insert(shifted.end(), packed.begin(), packed.end());
        std::string bases(seq.size(), '\0');
        kernels::unpack3bit(shifted.data() + misalign, packed.size(),
                            seq.size(), bases.data());
        ASSERT_EQ(bases, seq) << "misalign " << misalign;
    }

    // Exactly-sized stream (no slack after the last group): the SIMD
    // main loop must hand the tail to the scalar kernel instead of
    // loading past the end.
    for (size_t len : {8u, 16u, 24u, 40u, 48u, 250u, 251u}) {
        std::string sub = seq.substr(0, len);
        std::vector<uint8_t> tight((3 * len + 7) / 8);
        kernels::pack3bit(sub.data(), len, tight.data());
        std::string out(len, '\0');
        kernels::unpack3bit(tight.data(), tight.size(), len,
                            out.data());
        ASSERT_EQ(out, sub) << "len " << len;
    }
}

TEST(KernelRevComp, MatchesPerCharReferenceAcrossLengths)
{
    Rng rng(4);
    for (size_t len = 0; len <= 257; len++) {
        const std::string seq = randomSeq(rng, len, /*with_n=*/true);
        const std::string expect = perCharReverseComplement(seq);

        std::string out(len, '\0');
        kernels::reverseComplement(seq.data(), len, out.data());
        ASSERT_EQ(out, expect) << "len " << len;

        std::string scalar_out(len, '\0');
        kernels::scalar::reverseComplement(seq.data(), len,
                                           scalar_out.data());
        ASSERT_EQ(scalar_out, expect) << "len " << len;

        // Public wrappers agree, and in-place equals out-of-place.
        ASSERT_EQ(reverseComplement(seq), expect);
        std::string in_place = seq;
        reverseComplementInPlace(in_place);
        ASSERT_EQ(in_place, expect);
    }
}

TEST(KernelRevComp, ArbitraryBytesComplementToN)
{
    // complementBase semantics: anything that is not ACGT (either
    // case) complements to 'N' — including lowercase folds, spaces,
    // NULs, bytes with the high bit set, and 'Q' (whose low nibble
    // collides with 'A' — the folded-source check must reject it).
    Rng rng(5);
    for (size_t len : {0u, 1u, 15u, 16u, 17u, 64u, 255u, 257u}) {
        std::string seq(len, '\0');
        for (auto &c : seq)
            c = static_cast<char>(rng.nextBelow(256));
        const std::string expect = perCharReverseComplement(seq);
        std::string out(len, '\0');
        kernels::reverseComplement(seq.data(), len, out.data());
        ASSERT_EQ(out, expect) << "len " << len;
    }
    std::string tricky = "aAcCgGtTnNQq Ee\x01\x7f";
    tricky.push_back(static_cast<char>(0xFF));
    tricky.push_back('\0'); // Embedded NUL must complement to N too.
    tricky += "ACGT";
    const std::string expect = perCharReverseComplement(tricky);
    std::string out(tricky.size(), '\0');
    kernels::reverseComplement(tricky.data(), tricky.size(),
                               out.data());
    EXPECT_EQ(out, expect);
    EXPECT_EQ(reverseComplement(reverseComplement("ACGTN")), "ACGTN");
}

TEST(KernelAcgtOnly, MatchesScalarOnEveryPosition)
{
    // An N at every single position of a SIMD-block-sized buffer: the
    // vector path must spot it in the middle of a block, at block
    // boundaries and in the scalar tail.
    for (size_t len : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 64u, 100u}) {
        const std::string clean(len, 'A');
        EXPECT_TRUE(kernels::isAcgtOnly(clean.data(), len));
        EXPECT_TRUE(isAcgtOnly(clean));
        for (size_t pos = 0; pos < len; pos++) {
            std::string dirty = clean;
            dirty[pos] = 'N';
            EXPECT_FALSE(kernels::isAcgtOnly(dirty.data(), len))
                << "len " << len << " pos " << pos;
            EXPECT_FALSE(kernels::scalar::isAcgtOnly(dirty.data(), len));
        }
    }
    EXPECT_TRUE(isAcgtOnly("acgtACGT"));
    EXPECT_FALSE(isAcgtOnly("ACGU"));
    EXPECT_FALSE(isAcgtOnly("ACG T"));
    EXPECT_TRUE(isAcgtOnly(""));
}

TEST(KernelCodes, BulkConversionsRoundTrip)
{
    const std::string bases = "ACGTNacgtnXYZ";
    std::vector<uint8_t> codes(bases.size());
    kernels::basesToCodes(bases.data(), bases.size(), codes.data());
    for (size_t i = 0; i < bases.size(); i++)
        EXPECT_EQ(codes[i], baseToCode(bases[i])) << "i " << i;

    std::string back(bases.size(), '\0');
    kernels::codesToBases(codes.data(), codes.size(), back.data());
    for (size_t i = 0; i < bases.size(); i++)
        EXPECT_EQ(back[i], codeToBase(codes[i])) << "i " << i;
}

TEST(KernelCodes, FindInvalidBaseAcceptsSequenceCharacters)
{
    const std::string ok = "ACGTNRYSWKMBDHVacgtn.-*";
    EXPECT_EQ(kernels::findInvalidBase(ok.data(), ok.size()),
              ok.size());
    const std::string bad = std::string("ACGT") + '\x07' + "ACGT";
    EXPECT_EQ(kernels::findInvalidBase(bad.data(), bad.size()), 4u);
    EXPECT_EQ(kernels::findInvalidBase(nullptr, 0), 0u);
}

TEST(KernelDeath, TwoBitPackRejectsNonAcgt)
{
    const std::string seq(33, 'N');
    std::vector<uint8_t> out((seq.size() + 3) / 4);
    EXPECT_DEATH(kernels::pack2bit(seq.data(), seq.size(), out.data()),
                 "ACGT-only");
    EXPECT_DEATH(packSequence("ACGTN", OutputFormat::TwoBit),
                 "ACGT-only");
}

TEST(KernelFormats, PackSequenceRoundTripsAllFormats)
{
    Rng rng(6);
    for (size_t len = 0; len <= 257; len += 7) {
        for (OutputFormat fmt : {OutputFormat::Ascii,
                                 OutputFormat::TwoBit,
                                 OutputFormat::ThreeBit}) {
            const bool with_n = fmt != OutputFormat::TwoBit;
            const std::string seq = randomSeq(rng, len, with_n);
            const auto packed = packSequence(seq, fmt);
            const size_t expect_bytes = fmt == OutputFormat::Ascii
                ? len
                : fmt == OutputFormat::TwoBit ? (len + 3) / 4
                                              : (3 * len + 7) / 8;
            ASSERT_EQ(packed.size(), expect_bytes);
            ASSERT_EQ(unpackSequence(packed, len, fmt), seq)
                << "len " << len;
        }
    }
}

} // namespace
} // namespace sage
