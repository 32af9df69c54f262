#include "core/tuned_array.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"
#include "util/varint.hh"

namespace sage {

void
AssociationTable::serialize(std::vector<uint8_t> &out) const
{
    putVarint(out, widthByRank.size());
    for (uint8_t width : widthByRank)
        out.push_back(width);
}

AssociationTable
AssociationTable::deserialize(const std::vector<uint8_t> &data,
                              size_t &pos)
{
    AssociationTable table;
    const uint64_t n = getVarint(data, pos);
    sage_check_data(n >= 1 && n <= 16, Corrupt,
                    "bad association table size ", n);
    for (uint64_t i = 0; i < n; i++) {
        sage_check_data(pos < data.size(), Truncated,
                        "association table truncated");
        const uint8_t width = data[pos++];
        // Widths beyond 57 would trip BitReader's hard field limit.
        sage_check_data(width <= 57, Corrupt,
                        "association table width ", unsigned(width),
                        " out of range");
        table.widthByRank.push_back(width);
    }
    return table;
}

namespace {

/**
 * Cost of one boundary assignment: every value whose bits-needed falls
 * in (boundary[k-1], boundary[k]] is stored with boundary[k] bits plus
 * its class's guide code. Guide codes are unary by frequency rank.
 */
uint64_t
assignmentCost(const std::vector<unsigned> &bounds,
               const std::vector<uint64_t> &prefix_counts)
{
    const size_t d = bounds.size();
    // Count per class.
    std::vector<uint64_t> class_count(d);
    unsigned lo = 0;
    for (size_t k = 0; k < d; k++) {
        class_count[k] = prefix_counts[bounds[k]]
            - prefix_counts[lo];
        lo = bounds[k];
    }
    // Guide cost: sort class indices by count descending; rank r costs
    // r+1 bits per element (prefix codes 0, 10, 110, ...).
    std::vector<size_t> by_freq(d);
    std::iota(by_freq.begin(), by_freq.end(), 0);
    std::sort(by_freq.begin(), by_freq.end(),
              [&](size_t a, size_t b)
              { return class_count[a] > class_count[b]; });
    uint64_t cost = 0;
    for (size_t r = 0; r < d; r++) {
        const size_t k = by_freq[r];
        cost += class_count[k]
            * (static_cast<uint64_t>(bounds[k]) + r + 1);
    }
    return cost;
}

/** Enumerate all (d-1)-subsets of boundaries below max_bits. */
void
enumerateBounds(unsigned max_bits, unsigned d,
                const std::vector<uint64_t> &prefix_counts,
                uint64_t &best_cost, std::vector<unsigned> &best_bounds)
{
    std::vector<unsigned> bounds(d);
    bounds[d - 1] = max_bits; // Last class must cover the largest value.

    // Iterative combination enumeration of d-1 interior boundaries from
    // {1, ..., max_bits-1}.
    if (d == 1) {
        const uint64_t cost = assignmentCost(bounds, prefix_counts);
        if (cost < best_cost) {
            best_cost = cost;
            best_bounds = bounds;
        }
        return;
    }
    std::vector<unsigned> idx(d - 1);
    std::iota(idx.begin(), idx.end(), 1u);
    for (;;) {
        for (unsigned i = 0; i < d - 1; i++)
            bounds[i] = idx[i];
        const uint64_t cost = assignmentCost(bounds, prefix_counts);
        if (cost < best_cost) {
            best_cost = cost;
            best_bounds = bounds;
        }
        // Advance combination.
        int i = static_cast<int>(d) - 2;
        while (i >= 0 &&
               idx[i] == max_bits - (d - 1) + static_cast<unsigned>(i)) {
            i--;
        }
        if (i < 0)
            break;
        idx[i]++;
        for (unsigned j = i + 1; j < d - 1; j++)
            idx[j] = idx[j - 1] + 1;
    }
}

/** n choose k with saturation. */
uint64_t
choose(uint64_t n, uint64_t k)
{
    if (k > n)
        return 0;
    uint64_t r = 1;
    for (uint64_t i = 0; i < k; i++) {
        r = r * (n - i) / (i + 1);
        if (r > (uint64_t(1) << 62))
            return uint64_t(1) << 62;
    }
    return r;
}

} // namespace

AssociationTable
tuneBitCounts(const Histogram &hist, const TunerConfig &config)
{
    // Determine the largest bits-needed with nonzero count.
    unsigned max_bits = 1;
    for (unsigned b = 1; b < hist.size(); b++) {
        if (hist.count(b) > 0)
            max_bits = b;
    }
    sage_assert(max_bits <= 57, "values too wide for tuned arrays");

    // Prefix counts over bits-needed 1..max_bits.
    std::vector<uint64_t> prefix_counts(max_bits + 1, 0);
    for (unsigned b = 1; b <= max_bits; b++)
        prefix_counts[b] = prefix_counts[b - 1] + hist.count(b);

    uint64_t best_cost = UINT64_MAX;
    std::vector<unsigned> best_bounds{max_bits};
    uint64_t last_cost = UINT64_MAX;

    const unsigned d_limit =
        std::min<unsigned>(config.maxClasses, max_bits);
    for (unsigned d = 1; d <= d_limit; d++) {
        if (choose(max_bits - 1, d - 1) > config.maxCombinations) {
            // Guard: enumeration too large; keep the best found so far.
            break;
        }
        enumerateBounds(max_bits, d, prefix_counts, best_cost,
                        best_bounds);
        // Algorithm 1 line 10: stop once the gain falls below epsilon.
        if (last_cost != UINT64_MAX &&
            static_cast<double>(last_cost - best_cost)
                < config.epsilon * static_cast<double>(best_cost)) {
            break;
        }
        last_cost = best_cost;
    }

    // Build the table ranked by class frequency (common class first).
    const size_t d = best_bounds.size();
    std::vector<uint64_t> class_count(d);
    unsigned lo = 0;
    for (size_t k = 0; k < d; k++) {
        class_count[k] = prefix_counts[best_bounds[k]]
            - prefix_counts[lo];
        lo = best_bounds[k];
    }
    std::vector<size_t> by_freq(d);
    std::iota(by_freq.begin(), by_freq.end(), 0);
    std::sort(by_freq.begin(), by_freq.end(),
              [&](size_t a, size_t b)
              { return class_count[a] > class_count[b]; });

    AssociationTable table;
    for (size_t r = 0; r < d; r++)
        table.widthByRank.push_back(
            static_cast<uint8_t>(best_bounds[by_freq[r]]));
    return table;
}

TunedFieldCodec::TunedFieldCodec(AssociationTable table)
    : table_(std::move(table))
{
    sage_assert(!table_.widthByRank.empty(), "empty association table");
    // For each possible bits-needed, pick the cheapest rank that fits
    // (width + guide cost).
    unsigned max_width = 0;
    for (uint8_t width : table_.widthByRank)
        max_width = std::max<unsigned>(max_width, width);
    rankForBits_.assign(max_width + 1, 0xff);
    for (unsigned bits = 1; bits <= max_width; bits++) {
        unsigned best_rank = 0xff;
        uint64_t best_cost = UINT64_MAX;
        for (size_t r = 0; r < table_.widthByRank.size(); r++) {
            if (table_.widthByRank[r] >= bits) {
                const uint64_t cost = table_.widthByRank[r] + r + 1;
                if (cost < best_cost) {
                    best_cost = cost;
                    best_rank = static_cast<unsigned>(r);
                }
            }
        }
        sage_assert(best_rank != 0xff, "no class fits width ", bits);
        rankForBits_[bits] = static_cast<uint8_t>(best_rank);
    }
}

void
TunedFieldCodec::encode(BitWriter &array, BitWriter &guide,
                        uint64_t value) const
{
    const unsigned bits = valueBits(value);
    sage_assert(bits < rankForBits_.size() && rankForBits_[bits] != 0xff,
                "value ", value, " exceeds tuned widths");
    const unsigned rank = rankForBits_[bits];
    guide.writeUnary(rank);
    array.writeBits(value, table_.widthByRank[rank]);
}

uint64_t
TunedFieldCodec::decode(BitReader &array, BitReader &guide) const
{
    const unsigned rank = guide.readUnary();
    sage_check_data(rank < table_.widthByRank.size(), Corrupt,
                    "guide rank ", rank, " out of range (corrupt stream)");
    return array.readBits(table_.widthByRank[rank]);
}

unsigned
TunedFieldCodec::costBits(uint64_t value) const
{
    const unsigned bits = valueBits(value);
    sage_assert(bits < rankForBits_.size() && rankForBits_[bits] != 0xff,
                "value exceeds tuned widths");
    const unsigned rank = rankForBits_[bits];
    return table_.widthByRank[rank] + rank + 1;
}

AssociationTable
TunedFieldCodec::tuneFor(const std::vector<uint64_t> &values,
                         const TunerConfig &config)
{
    Histogram hist;
    for (uint64_t v : values)
        hist.add(valueBits(v));
    return tuneForBits(std::move(hist), config);
}

AssociationTable
TunedFieldCodec::tuneForBits(Histogram bits, const TunerConfig &config)
{
    if (bits.total() == 0)
        bits.add(1); // Degenerate: one 1-bit class.
    return tuneBitCounts(bits, config);
}

} // namespace sage
