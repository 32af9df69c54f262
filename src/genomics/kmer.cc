#include "genomics/kmer.hh"

#include <algorithm>

namespace sage {

namespace {

/** A valid k-mer and its hash, as window selection consumes it. */
struct HashedKmer
{
    uint64_t hash;
    uint64_t kmer;
    uint32_t pos;
};

/**
 * Call @p fn(kmer, rc, pos) for every valid (N-free) k-mer of @p seq,
 * in position order. @p rc is the code of the same window on the
 * reverse complement: the forward code shifts each base in at the
 * bottom, and rc shifts its complement in at the top, so it reads the
 * window's bases backwards, complemented. Callers that ignore @p rc
 * let the compiler drop it.
 */
template <typename Fn>
void
forEachKmer(std::string_view seq, unsigned k, Fn &&fn)
{
    if (seq.size() < k || k == 0 || k > 31)
        return;
    const uint64_t mask = (uint64_t(1) << (2 * k)) - 1;
    const unsigned top = 2 * (k - 1);
    uint64_t kmer = 0, rc = 0;
    unsigned valid = 0; // Number of consecutive non-N bases accumulated.
    for (size_t i = 0; i < seq.size(); i++) {
        const uint8_t code = baseToCode(seq[i]);
        if (code >= 4) {
            valid = 0;
            kmer = rc = 0;
            continue;
        }
        kmer = ((kmer << 2) | code) & mask;
        rc = (rc >> 2) | (uint64_t(3 - code) << top);
        if (++valid >= k)
            fn(kmer, rc, static_cast<uint32_t>(i + 1 - k));
    }
}

/**
 * (w, k) window selection, the one routine behind extractMinimizers and
 * extractStrandMinimizers. Valid k-mers are pushed in ascending position
 * order; each window minimum is appended to the output once.
 *
 * The window is by position (pos + w > the current position), emission
 * starts at the w-th valid k-mer, and the newer k-mer wins a hash tie.
 * A ring holds the last w valid k-mers (older ones are out of every
 * later window) and the current minimum is tracked: a new k-mer that
 * ties or beats it takes over, and only when the minimum leaves the
 * window is the ring rescanned, newest first. With w <= 1 every k-mer
 * is its own window.
 */
class WindowMinimum
{
  public:
    /** @p ring must hold w entries and outlive the selection. */
    WindowMinimum(unsigned w, HashedKmer *ring, std::vector<KmerHit> &out)
        : w_(w), ring_(ring), out_(out)
    {
    }

    void
    push(const HashedKmer &next)
    {
        if (w_ <= 1) {
            out_.push_back({next.kmer, next.pos});
            return;
        }
        // Judge against the minimum before its slot can be overwritten:
        // the slot taken is the oldest k-mer's, which is out of window.
        const bool first = seen_++ == 0;
        const bool wins = first || next.hash <= ring_[best_].hash;
        const bool expired = !first && ring_[best_].pos + w_ <= next.pos;
        const size_t slot = next_;
        next_ = next_ + 1 == w_ ? 0 : next_ + 1;
        ring_[slot] = next;
        if (wins) {
            best_ = slot;
        } else if (expired) {
            best_ = slot;
            size_t at = slot;
            for (uint64_t older = std::min<uint64_t>(seen_, w_) - 1;
                 older > 0; older--) {
                at = at == 0 ? w_ - 1 : at - 1;
                if (ring_[at].pos + w_ <= next.pos)
                    break;
                if (ring_[at].hash < ring_[best_].hash)
                    best_ = at;
            }
        }
        if (seen_ >= w_ && ring_[best_].pos != lastEmitted_) {
            out_.push_back({ring_[best_].kmer, ring_[best_].pos});
            lastEmitted_ = ring_[best_].pos;
        }
    }

  private:
    const unsigned w_;
    HashedKmer *ring_;
    std::vector<KmerHit> &out_;
    size_t next_ = 0;  // Slot of the next push.
    size_t best_ = 0;  // Slot of the current minimum.
    uint64_t seen_ = 0; // Valid k-mers so far.
    uint32_t lastEmitted_ = UINT32_MAX;
};

} // namespace

std::vector<KmerHit>
extractKmers(std::string_view seq, unsigned k)
{
    std::vector<KmerHit> hits;
    forEachKmer(seq, k, [&](uint64_t kmer, uint64_t, uint32_t pos) {
        hits.push_back({kmer, pos});
    });
    return hits;
}

std::vector<KmerHit>
extractMinimizers(std::string_view seq, unsigned k, unsigned w)
{
    std::vector<KmerHit> out;
    if (seq.size() < k)
        return out;
    out.reserve(w <= 1 ? seq.size() - k + 1
                       : 2 * (seq.size() - k + 1) / (w + 1) + 1);
    std::vector<HashedKmer> ring(w);
    WindowMinimum window(w, ring.data(), out);
    forEachKmer(seq, k, [&](uint64_t kmer, uint64_t, uint32_t pos) {
        window.push({hashKmer(kmer), kmer, pos});
    });
    return out;
}

void
extractStrandMinimizers(std::string_view seq, unsigned k, unsigned w,
                        std::vector<KmerHit> &fwd, std::vector<KmerHit> &rev)
{
    fwd.clear();
    rev.clear();
    if (seq.size() < k)
        return;

    // The window at forward offset q is the reverse strand's k-mer at
    // offset windows - 1 - q, so the reverse strand's k-mers come out
    // of the pass last-first. They are staged and fed to its window in
    // ascending position. Thread-local, so a mapping worker allocates
    // only while the buffers grow.
    thread_local std::vector<HashedKmer> staged, ring;
    const size_t windows = seq.size() - k + 1;
    staged.resize(windows);
    ring.resize(w);
    size_t staged_from = windows; // Staged: [staged_from, windows).
    WindowMinimum forward(w, ring.data(), fwd);
    forEachKmer(seq, k, [&](uint64_t kmer, uint64_t rc, uint32_t pos) {
        forward.push({hashKmer(kmer), kmer, pos});
        staged[--staged_from] = {hashKmer(rc), rc,
                                 static_cast<uint32_t>(windows - 1 - pos)};
    });

    WindowMinimum reverse(w, ring.data(), rev);
    for (size_t s = staged_from; s < windows; s++)
        reverse.push(staged[s]);
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
