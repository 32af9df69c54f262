#include "consensus/mapper.hh"

#include <algorithm>
#include <cmath>

#include "genomics/alphabet.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace sage {

namespace {

/** The read span from the first of @p seeds to the end of the last: no
 *  chain over them scores more (a chain's score is its anchors' span). */
uint32_t
seedSpan(const std::vector<KmerHit> &seeds, unsigned k)
{
    return seeds.empty() ? 0 : seeds.back().pos - seeds.front().pos + k;
}

} // namespace

/** One seed match: a read offset and a consensus offset. */
struct ConsensusMapper::Anchor
{
    uint32_t read;
    uint32_t cons;
};

/** One kept chain: co-linear seed matches on a shared diagonal band,
 *  stored as a read-sorted run of its strand's anchor array. */
struct ConsensusMapper::Chain
{
    uint32_t first = 0;  ///< Index of the first anchor.
    uint32_t count = 0;  ///< Number of anchors.
    uint32_t score = 0;  ///< Read span covered (proxy for quality).
};

/** One strand's kept chains, best first, over one array that holds
 *  each chain's anchors contiguously. */
struct ConsensusMapper::StrandChains
{
    std::vector<Anchor> anchors;
    std::vector<Chain> chains;

    uint32_t
    bestScore() const
    {
        return chains.empty() ? 0 : chains.front().score;
    }
    const Anchor *begin(const Chain &c) const { return &anchors[c.first]; }
    const Anchor *end(const Chain &c) const { return begin(c) + c.count; }
    uint32_t readStart(const Chain &c) const { return begin(c)->read; }
    uint32_t readEnd(const Chain &c) const { return (end(c) - 1)->read; }
};

/**
 * Working memory of mapSequence. One lives per thread and is reused
 * across reads, so a mapping worker allocates only while its buffers
 * grow.
 */
struct ConsensusMapper::Scratch
{
    /** The last anchor of one chain, as the chaining search sees it. */
    struct Tip
    {
        int64_t diag;   ///< cons - read of the chain's last anchor.
        uint32_t read;  ///< Read offset of the chain's last anchor.
        uint32_t cons;  ///< Consensus offset of the chain's last anchor.
        uint32_t chain; ///< Creation index; the earlier chain wins ties.
    };

    /** One chain being grown, by creation index. */
    struct Grown
    {
        uint32_t start; ///< Read offset of the first anchor.
        uint32_t last;  ///< Read offset of the last anchor.
        uint32_t size;  ///< Number of anchors.
        uint32_t slot;  ///< Next output index; kDropped if not kept.
    };
    static constexpr uint32_t kDropped = UINT32_MAX;

    std::vector<KmerHit> fwdSeeds, revSeeds;
    std::vector<SeedHits> hits;
    std::vector<Anchor> anchors;  ///< One strand's, (read, cons)-sorted.
    std::vector<uint32_t> owner;  ///< Chain of each anchor.
    std::vector<Tip> tips;        ///< Every chain's tip, by diagonal.
    std::vector<Grown> grown;
    StrandChains fwd, rev;
};

ConsensusMapper::ConsensusMapper(std::string_view consensus,
                                 MapperConfig config, ThreadPool *pool)
    : consensus_(consensus), config_(config),
      index_(consensus, config.index, pool)
{
}

void
ConsensusMapper::buildChains(const std::vector<KmerHit> &seeds,
                             Scratch &scratch, StrandChains &out) const
{
    using Tip = Scratch::Tip;

    // Anchors arrive sorted: seeds ascend by read offset, each offset
    // once, and each seed's consensus positions ascend.
    index_.lookupAll(seeds, scratch.hits);
    std::vector<Anchor> &anchors = scratch.anchors;
    anchors.clear();
    for (size_t i = 0; i < seeds.size(); i++) {
        for (uint32_t cpos : scratch.hits[i])
            anchors.push_back({seeds[i].pos, cpos});
    }

    // Greedy chaining: attach each anchor to the compatible chain with
    // the smallest read gap, the one created first on a tie; otherwise
    // start a new chain. A chain is compatible when the anchor advances
    // past its last anchor in both coordinates and their diagonals
    // differ by at most chainSlack(gap). The gap is at most the read
    // offset and chainSlack never shrinks as the gap grows, so every
    // compatible chain's last diagonal lies within chainSlack(read
    // offset) of the anchor's. Tips stay sorted by last diagonal and
    // only that window is searched.
    std::vector<Tip> &tips = scratch.tips;
    std::vector<Scratch::Grown> &grown = scratch.grown;
    tips.clear();
    grown.clear();
    scratch.owner.resize(anchors.size());
    const auto below = [](const Tip &tip, int64_t diag)
    { return tip.diag < diag; };
    for (size_t a = 0; a < anchors.size(); a++) {
        const uint32_t rpos = anchors[a].read, cpos = anchors[a].cons;
        const int64_t diag = static_cast<int64_t>(cpos)
                             - static_cast<int64_t>(rpos);
        const int64_t reach = config_.chainSlack(rpos);
        Tip *best = nullptr;
        uint32_t best_gap = 0;
        for (auto it = std::lower_bound(tips.begin(), tips.end(),
                                        diag - reach, below);
             it != tips.end() && it->diag <= diag + reach; ++it) {
            if (rpos <= it->read || cpos <= it->cons)
                continue; // Must advance in both coordinates.
            const uint32_t gap = rpos - it->read;
            if (std::llabs(diag - it->diag) >
                static_cast<int64_t>(config_.chainSlack(gap))) {
                continue;
            }
            if (best == nullptr || gap < best_gap ||
                (gap == best_gap && it->chain < best->chain)) {
                best = &*it;
                best_gap = gap;
            }
        }
        if (best != nullptr) {
            const Tip moved{diag, rpos, cpos, best->chain};
            Scratch::Grown &chain = grown[moved.chain];
            chain.last = rpos;
            chain.size++;
            scratch.owner[a] = moved.chain;
            // Re-sort the moved tip into place.
            size_t at = static_cast<size_t>(best - tips.data());
            for (; at > 0 && tips[at - 1].diag > diag; at--)
                tips[at] = tips[at - 1];
            for (; at + 1 < tips.size() && tips[at + 1].diag < diag; at++)
                tips[at] = tips[at + 1];
            tips[at] = moved;
        } else {
            const uint32_t id = static_cast<uint32_t>(grown.size());
            grown.push_back({rpos, rpos, 1, 0});
            scratch.owner[a] = id;
            tips.insert(std::lower_bound(tips.begin(), tips.end(), diag,
                                         below),
                        Tip{diag, rpos, cpos, id});
        }
    }

    // Keep chains of minChainAnchors or more, in creation order, then
    // lay each one's anchors out as one run.
    const unsigned k = config_.index.k;
    out.chains.clear();
    uint32_t kept_anchors = 0;
    for (Scratch::Grown &chain : grown) {
        if (chain.size < config_.minChainAnchors) {
            chain.slot = Scratch::kDropped;
            continue;
        }
        chain.slot = kept_anchors;
        out.chains.push_back({kept_anchors, chain.size,
                              chain.last - chain.start + k});
        kept_anchors += chain.size;
    }
    out.anchors.resize(kept_anchors);
    for (size_t a = 0; a < anchors.size(); a++) {
        uint32_t &slot = grown[scratch.owner[a]].slot;
        if (slot != Scratch::kDropped)
            out.anchors[slot++] = anchors[a];
    }
    std::sort(out.chains.begin(), out.chains.end(),
              [](const Chain &a, const Chain &b)
              { return a.score > b.score; });
}

bool
ConsensusMapper::alignDiagonal(std::string_view bases, const Anchor *first,
                               const Anchor *last, uint32_t read_start,
                               uint32_t read_end, int64_t diag,
                               std::vector<EditOp> &ops) const
{
    // Exact: what bandedAlign's equal-string check gives every piece.
    const std::string_view read = bases.substr(read_start,
                                               read_end - read_start);
    if (read == consensus_.substr(static_cast<size_t>(read_start + diag),
                                  read.size()) &&
        read.find('N') == std::string_view::npos &&
        read.find('n') == std::string_view::npos) {
        return true;
    }

    // A piece runs from read_start or an anchor to the next anchor or
    // read_end, with equal lengths. One with a single mismatching base
    // has one cost-1 alignment, the substitution, since any indel needs
    // a second indel to keep the lengths equal: the DP returns it. A
    // piece with two is left to the DP.
    const Anchor *next = first;
    while (next != last && next->read <= read_start)
        ++next;
    bool piece_has_sub = false;
    for (uint32_t r = read_start; r < read_end; r++) {
        if (next != last && next->read == r) {
            ++next;
            piece_has_sub = false;
        }
        if (basesMatch(bases[r], consensus_[static_cast<size_t>(r + diag)]))
            continue;
        if (piece_has_sub)
            return false;
        piece_has_sub = true;
        EditOp op;
        op.readPos = r - read_start;
        op.type = EditType::Sub;
        op.length = 1;
        op.bases = std::string(1, bases[r]);
        ops.push_back(std::move(op));
    }
    return true;
}

bool
ConsensusMapper::alignChain(std::string_view bases, const Anchor *first,
                            const Anchor *last, uint32_t read_start,
                            uint32_t read_end, AlignedSegment &out) const
{
    // Keep only anchors inside the assigned read interval. A chain's
    // anchors ascend in read offset, so they are one run.
    while (first != last && first->read < read_start)
        ++first;
    const Anchor *inside_end = first;
    while (inside_end != last && inside_end->read < read_end)
        ++inside_end;
    if (first == inside_end)
        return false;

    // Project the segment's consensus start from the first anchor.
    const int64_t first_diag = static_cast<int64_t>(first->cons)
                               - static_cast<int64_t>(first->read);
    const int64_t projected = static_cast<int64_t>(read_start) + first_diag;
    const int64_t cons_size = static_cast<int64_t>(consensus_.size());
    const int64_t cons_start = std::clamp<int64_t>(projected, 0,
                                                   cons_size - 1);

    out.consensusPos = static_cast<uint64_t>(cons_start);
    out.readStart = read_start;
    out.readLength = read_end - read_start;
    out.ops.clear();

    // Every anchor on the first one's diagonal, and the whole window
    // inside the consensus: each piece below has equal lengths, and the
    // common cases need no DP.
    if (cons_start == projected && projected + out.readLength <= cons_size &&
        std::all_of(first, inside_end, [&](const Anchor &a) {
            return static_cast<int64_t>(a.cons)
                   - static_cast<int64_t>(a.read) == first_diag;
        }) &&
        alignDiagonal(bases, first, inside_end, read_start, read_end,
                      first_diag, out.ops)) {
        return true;
    }
    out.ops.clear(); // A failed alignDiagonal leaves part of a script.

    // Piecewise alignment between anchor waypoints. Waypoints tile the
    // consensus contiguously, so the concatenated edit scripts form one
    // valid segment script (see reconstructSegment).
    auto align_piece = [&](uint32_t r_begin, uint32_t r_end,
                           int64_t c_begin, int64_t c_end) {
        if (r_begin == r_end && c_begin == c_end)
            return true;
        std::string_view query = bases.substr(r_begin, r_end - r_begin);
        std::string_view target = consensus_.substr(
            static_cast<size_t>(c_begin),
            static_cast<size_t>(c_end - c_begin));

        const int64_t diff = static_cast<int64_t>(target.size())
                             - static_cast<int64_t>(query.size());
        uint32_t band = config_.basePad
            + static_cast<uint32_t>(std::llabs(diff));
        std::optional<AlignResult> aligned;
        while (true) {
            aligned = bandedAlign(target, query, band);
            if (aligned || band >= config_.maxBand)
                break;
            band = std::min(config_.maxBand, band * 2);
        }
        if (!aligned)
            return false;

        const uint32_t offset = r_begin - read_start;
        for (auto &op : aligned->ops) {
            op.readPos += offset;
            out.ops.push_back(std::move(op));
        }
        return true;
    };

    uint32_t cur_r = read_start;
    int64_t cur_c = cons_start;
    for (const Anchor *a = first; a != inside_end; ++a) {
        if (a->read <= cur_r || static_cast<int64_t>(a->cons) <= cur_c)
            continue; // Skip anchors that do not advance.
        if (!align_piece(cur_r, a->read, cur_c, a->cons))
            return false;
        cur_r = a->read;
        cur_c = static_cast<int64_t>(a->cons);
    }
    // Tail piece: project an equal-length consensus window.
    const int64_t want = static_cast<int64_t>(read_end) - cur_r;
    const int64_t c_end = std::min<int64_t>(
        cur_c + want, static_cast<int64_t>(consensus_.size()));
    return align_piece(cur_r, read_end, cur_c, c_end);
}

ReadMapping
ConsensusMapper::mapSequence(std::string_view bases) const
{
    ReadMapping mapping;
    const unsigned k = config_.index.k;
    if (bases.size() < k)
        return mapping;

    // Seed both strands from one minimizer pass and keep the better
    // chain set; the reverse strand's bases are built only if it wins.
    thread_local Scratch scratch;
    extractStrandMinimizers(bases, k, config_.index.w, scratch.fwdSeeds,
                            scratch.revSeeds);

    // No chain scores more than its strand's seed span. Chain the strand
    // with the larger span first, and skip the other when it cannot win:
    // the reverse strand wins only by scoring strictly higher.
    const uint32_t fwd_bound = seedSpan(scratch.fwdSeeds, k);
    const uint32_t rev_bound = seedSpan(scratch.revSeeds, k);
    if (fwd_bound >= rev_bound) {
        buildChains(scratch.fwdSeeds, scratch, scratch.fwd);
        if (scratch.fwd.bestScore() >= rev_bound)
            scratch.rev.chains.clear();
        else
            buildChains(scratch.revSeeds, scratch, scratch.rev);
    } else {
        buildChains(scratch.revSeeds, scratch, scratch.rev);
        if (scratch.rev.bestScore() > fwd_bound)
            scratch.fwd.chains.clear();
        else
            buildChains(scratch.fwdSeeds, scratch, scratch.fwd);
    }
    const bool use_rev = scratch.rev.bestScore() > scratch.fwd.bestScore();
    const StrandChains &strand = use_rev ? scratch.rev : scratch.fwd;
    if (strand.chains.empty())
        return mapping;
    const std::string rc = use_rev ? reverseComplement(bases)
                                   : std::string();
    const std::string_view oriented = use_rev ? std::string_view(rc)
                                              : bases;

    // Select up to maxSegments chains with limited read overlap
    // (chimeric reads map in pieces; paper §5.1.2, N = 3).
    struct Pick { uint32_t start, end; const Chain *chain; };
    std::vector<Pick> picks;
    for (const Chain &chain : strand.chains) {
        if (picks.size() >= config_.maxSegments)
            break;
        const uint32_t start = strand.readStart(chain);
        const uint32_t end = strand.readEnd(chain) + k;
        bool overlaps = false;
        for (const auto &pick : picks) {
            const uint32_t lo = std::max(start, pick.start);
            const uint32_t hi = std::min(end, pick.end);
            if (hi > lo && (hi - lo) * 2 > (end - start))
                overlaps = true;
        }
        if (!overlaps)
            picks.push_back({start, end, &chain});
    }
    std::sort(picks.begin(), picks.end(),
              [](const Pick &a, const Pick &b)
              { return a.start < b.start; });

    // Partition the full read across the picked chains at midpoints.
    std::vector<uint32_t> bounds;
    bounds.push_back(0);
    for (size_t i = 0; i + 1 < picks.size(); i++) {
        uint32_t mid = (picks[i].end + picks[i + 1].start) / 2;
        mid = std::clamp<uint32_t>(mid, bounds.back() + 1,
                                   static_cast<uint32_t>(bases.size()) - 1);
        bounds.push_back(mid);
    }
    bounds.push_back(static_cast<uint32_t>(bases.size()));

    mapping.reverse = use_rev;
    uint64_t edits = 0;
    for (size_t i = 0; i < picks.size(); i++) {
        AlignedSegment seg;
        const Chain &chain = *picks[i].chain;
        if (!alignChain(oriented, strand.begin(chain), strand.end(chain),
                        bounds[i], bounds[i + 1], seg)) {
            return ReadMapping{}; // Escape path handles this read.
        }
        for (const auto &op : seg.ops)
            edits += op.length;
        mapping.segments.push_back(std::move(seg));
    }

    if (static_cast<double>(edits) >
        config_.maxEditFraction * static_cast<double>(bases.size())) {
        return ReadMapping{};
    }
    mapping.mapped = true;
    return mapping;
}

std::vector<ReadMapping>
ConsensusMapper::mapAll(const ReadSet &rs, ThreadPool *pool) const
{
    std::vector<ReadMapping> mappings(rs.reads.size());
    auto work = [&](size_t i) {
        mappings[i] = mapSequence(rs.reads[i].bases);
    };
    if (pool != nullptr) {
        pool->parallelFor(rs.reads.size(), work);
    } else {
        for (size_t i = 0; i < rs.reads.size(); i++)
            work(i);
    }
    return mappings;
}

MappingStats
ConsensusMapper::summarize(const std::vector<ReadMapping> &maps,
                           const ReadSet &rs)
{
    MappingStats stats;
    stats.totalReads = maps.size();
    for (size_t i = 0; i < maps.size(); i++) {
        const auto &mapping = maps[i];
        if (!mapping.mapped)
            continue;
        stats.mappedReads++;
        if (mapping.reverse)
            stats.reverseReads++;
        if (mapping.segments.size() > 1)
            stats.chimericReads++;
        for (const auto &seg : mapping.segments)
            stats.totalEdits += seg.ops.size();
        stats.totalAlignedBases += rs.reads[i].bases.size();
    }
    return stats;
}

} // namespace sage
