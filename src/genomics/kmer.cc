#include "genomics/kmer.hh"

#include <algorithm>

namespace sage {

namespace {

/** Call @p fn(kmer, pos) for every valid (N-free) k-mer of @p seq, in
 *  position order. */
template <typename Fn>
void
forEachKmer(std::string_view seq, unsigned k, Fn &&fn)
{
    if (seq.size() < k || k == 0 || k > 31)
        return;
    const uint64_t mask = (uint64_t(1) << (2 * k)) - 1;
    uint64_t kmer = 0;
    unsigned valid = 0; // Number of consecutive non-N bases accumulated.
    for (size_t i = 0; i < seq.size(); i++) {
        const uint8_t code = baseToCode(seq[i]);
        if (code >= 4) {
            valid = 0;
            kmer = 0;
            continue;
        }
        kmer = ((kmer << 2) | code) & mask;
        if (++valid >= k)
            fn(kmer, static_cast<uint32_t>(i + 1 - k));
    }
}

} // namespace

std::vector<KmerHit>
extractKmers(std::string_view seq, unsigned k)
{
    std::vector<KmerHit> hits;
    forEachKmer(seq, k, [&](uint64_t kmer, uint32_t pos) {
        hits.push_back({kmer, pos});
    });
    return hits;
}

std::vector<KmerHit>
extractMinimizers(std::string_view seq, unsigned k, unsigned w)
{
    if (w <= 1)
        return extractKmers(seq, k);
    std::vector<KmerHit> out;
    if (seq.size() < k)
        return out;
    out.reserve(2 * (seq.size() - k + 1) / (w + 1) + 1);

    // Sliding-window minimum as a monotonic queue on a fixed ring: hashes
    // strictly increase from head to tail, so a newer k-mer displaces an
    // older one of equal hash. The window is by position (pos + w > the
    // current position); it holds at most w entries, plus the newest one
    // between its push and the eviction.
    struct Entry
    {
        uint64_t hash;
        uint64_t kmer;
        uint32_t pos;
    };
    std::vector<Entry> ring(w + 1);
    const size_t cap = ring.size();
    size_t head = 0, tail = 0, live = 0; // tail: one past the newest.
    uint64_t seen = 0;                   // Valid k-mers so far.
    uint32_t last_emitted_pos = UINT32_MAX;
    forEachKmer(seq, k, [&](uint64_t kmer, uint32_t pos) {
        const uint64_t h = hashKmer(kmer);
        while (live > 0) {
            const size_t back = tail == 0 ? cap - 1 : tail - 1;
            if (ring[back].hash < h)
                break;
            tail = back;
            live--;
        }
        ring[tail] = {h, kmer, pos};
        tail = tail + 1 == cap ? 0 : tail + 1;
        live++;
        while (ring[head].pos + w <= pos) {
            head = head + 1 == cap ? 0 : head + 1;
            live--;
        }
        // Emission starts at the w-th valid k-mer; each position once.
        if (++seen >= w && ring[head].pos != last_emitted_pos) {
            out.push_back({ring[head].kmer, ring[head].pos});
            last_emitted_pos = ring[head].pos;
        }
    });
    return out;
}

uint64_t
canonicalKmer(uint64_t kmer, unsigned k)
{
    // Reverse complement in 2-bit space: complement is XOR 3, then
    // reverse base order.
    uint64_t rc = 0;
    uint64_t x = kmer;
    for (unsigned i = 0; i < k; i++) {
        rc = (rc << 2) | ((x & 3) ^ 3);
        x >>= 2;
    }
    return std::min(kmer, rc);
}

} // namespace sage
