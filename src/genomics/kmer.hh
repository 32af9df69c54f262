/**
 * @file
 * K-mer utilities: rolling 2-bit k-mer extraction and hashing, plus
 * canonical k-mers (min of forward/reverse-complement) and minimizer
 * selection, one strand or both strands in one pass. These back the
 * consensus mapper's index and the GenStore-like in-storage
 * exact-match filter.
 */

#ifndef SAGE_GENOMICS_KMER_HH
#define SAGE_GENOMICS_KMER_HH

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "genomics/alphabet.hh"

namespace sage {

/** 64-bit integer mixer (splitmix-style) for k-mer hashing. */
inline uint64_t
hashKmer(uint64_t kmer)
{
    uint64_t z = kmer + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** A k-mer occurrence within a sequence. */
struct KmerHit
{
    uint64_t kmer;   ///< 2-bit packed k-mer value.
    uint32_t pos;    ///< Start offset in the source sequence.
};

/**
 * Enumerate all valid (N-free) k-mers of @p seq.
 * Windows containing N are skipped, mirroring standard seeding practice.
 */
std::vector<KmerHit> extractKmers(std::string_view seq, unsigned k);

/**
 * Select (w, k) minimizers: for each window of w consecutive k-mers keep
 * the one with the smallest hash. Returns deduplicated, position-sorted
 * hits. Minimizers keep the index small while preserving the ability to
 * find seed matches — the standard technique in read mappers.
 */
std::vector<KmerHit> extractMinimizers(std::string_view seq, unsigned k,
                                       unsigned w);

/**
 * Minimizers of both strands from one rolling pass over @p seq: @p fwd
 * receives extractMinimizers(seq, k, w) and @p rev
 * extractMinimizers(reverseComplement(seq), k, w), with positions on
 * the reverse complement. No reverse-complement string is built. Both
 * vectors are overwritten; a caller that reuses them across sequences
 * allocates only while they grow.
 */
void extractStrandMinimizers(std::string_view seq, unsigned k, unsigned w,
                             std::vector<KmerHit> &fwd,
                             std::vector<KmerHit> &rev);

/** Canonical k-mer: lexicographic min of k-mer and reverse complement. */
uint64_t canonicalKmer(uint64_t kmer, unsigned k);

} // namespace sage

#endif // SAGE_GENOMICS_KMER_HH
