#include "consensus/align.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/logging.hh"

namespace sage {

namespace {

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max() / 2;

/** Traceback move codes. */
enum Move : uint8_t { kNone = 0, kDiag = 1, kUp = 2, kLeft = 3 };

struct BandShape
{
    int64_t diff;     // target length - query length
    int64_t band;

    int64_t
    lo(int64_t i, int64_t n) const
    {
        return std::clamp<int64_t>(i + std::min<int64_t>(0, diff) - band,
                                   0, n);
    }

    int64_t
    hi(int64_t i, int64_t n) const
    {
        return std::clamp<int64_t>(i + std::max<int64_t>(0, diff) + band,
                                   0, n);
    }
};

/** bandedAlign's DP rows and move matrix. */
struct AlignScratch
{
    std::vector<uint32_t> prevRow;
    std::vector<uint32_t> curRow;
    std::vector<uint8_t> moves;
};

/** Merge single-base traceback ops into block ops (Ins/Del runs). */
std::vector<EditOp>
mergeOps(std::vector<EditOp> ops)
{
    std::vector<EditOp> merged;
    for (auto &op : ops) {
        if (!merged.empty()) {
            EditOp &prev = merged.back();
            if (op.type == EditType::Ins && prev.type == EditType::Ins &&
                prev.readPos + prev.length == op.readPos) {
                prev.length += op.length;
                prev.bases += op.bases;
                continue;
            }
            if (op.type == EditType::Del && prev.type == EditType::Del &&
                prev.readPos == op.readPos) {
                prev.length += op.length;
                continue;
            }
        }
        merged.push_back(std::move(op));
    }
    return merged;
}

} // namespace

std::optional<AlignResult>
bandedAlign(std::string_view target, std::string_view query, uint32_t band)
{
    // Every base matches (equal strings, no N): the DP below prefers the
    // diagonal on ties, so it would return distance 0 and an empty
    // script. Most mapper pieces between exact seed anchors are this.
    if (query.size() == target.size() &&
        std::equal(query.begin(), query.end(), target.begin(), basesMatch))
        return AlignResult{};

    const int64_t m = static_cast<int64_t>(query.size());
    const int64_t n = static_cast<int64_t>(target.size());
    const BandShape shape{n - m, static_cast<int64_t>(band)};

    // Validate the band can reach the terminal corner at all.
    if (std::llabs(shape.diff) > static_cast<int64_t>(band) + n + m)
        return std::nullopt;

    // Rolling DP rows plus a full move matrix for traceback, in this
    // thread's scratch: the mapper calls this from every pool worker,
    // and the buffers keep their capacity from call to call.
    const int64_t width = 2 * static_cast<int64_t>(band)
                          + std::llabs(shape.diff) + 1;
    thread_local AlignScratch scratch;
    std::vector<uint32_t> &prev_row = scratch.prevRow;
    std::vector<uint32_t> &cur_row = scratch.curRow;
    std::vector<uint8_t> &moves = scratch.moves;
    prev_row.assign(static_cast<size_t>(width + 2), kInf);
    cur_row.assign(static_cast<size_t>(width + 2), kInf);
    moves.assign(static_cast<size_t>((m + 1) * width), kNone);

    auto move_at = [&](int64_t i, int64_t j) -> uint8_t & {
        const int64_t off = j - shape.lo(i, n);
        return moves[static_cast<size_t>(i * width + off)];
    };

    // Row 0: deleting leading target bases.
    {
        const int64_t lo0 = shape.lo(0, n), hi0 = shape.hi(0, n);
        for (int64_t j = lo0; j <= hi0; j++) {
            prev_row[j - lo0] = static_cast<uint32_t>(j);
            if (j > 0)
                move_at(0, j) = kLeft;
        }
    }

    for (int64_t i = 1; i <= m; i++) {
        const int64_t lo = shape.lo(i, n), hi = shape.hi(i, n);
        const int64_t plo = shape.lo(i - 1, n), phi = shape.hi(i - 1, n);
        std::fill(cur_row.begin(), cur_row.end(), kInf);
        for (int64_t j = lo; j <= hi; j++) {
            uint32_t best = kInf;
            uint8_t mv = kNone;
            // Diagonal (match/substitution).
            if (j > 0 && j - 1 >= plo && j - 1 <= phi) {
                const uint32_t d = prev_row[j - 1 - plo]
                    + (basesMatch(query[i - 1], target[j - 1]) ? 0 : 1);
                if (d < best) { best = d; mv = kDiag; }
            }
            // Up (insertion in query).
            if (j >= plo && j <= phi) {
                const uint32_t d = prev_row[j - plo] + 1;
                if (d < best) { best = d; mv = kUp; }
            }
            // Left (deletion of target base).
            if (j > lo) {
                const uint32_t d = cur_row[j - 1 - lo] + 1;
                if (d < best) { best = d; mv = kLeft; }
            }
            cur_row[j - lo] = best;
            if (mv != kNone)
                move_at(i, j) = mv;
        }
        std::swap(prev_row, cur_row);
    }

    const int64_t lo_m = shape.lo(m, n), hi_m = shape.hi(m, n);
    if (n < lo_m || n > hi_m || prev_row[n - lo_m] >= kInf)
        return std::nullopt;

    AlignResult result;
    result.editDistance = prev_row[n - lo_m];

    // Traceback, emitting single-base ops in reverse alignment order.
    std::vector<EditOp> ops;
    int64_t i = m, j = n;
    while (i > 0 || j > 0) {
        const uint8_t mv = move_at(i, j);
        if (mv == kDiag) {
            if (!basesMatch(query[i - 1], target[j - 1])) {
                EditOp op;
                op.readPos = static_cast<uint32_t>(i - 1);
                op.type = EditType::Sub;
                op.length = 1;
                op.bases = std::string(1, query[i - 1]);
                ops.push_back(std::move(op));
            }
            i--; j--;
        } else if (mv == kUp) {
            EditOp op;
            op.readPos = static_cast<uint32_t>(i - 1);
            op.type = EditType::Ins;
            op.length = 1;
            op.bases = std::string(1, query[i - 1]);
            ops.push_back(std::move(op));
            i--;
        } else if (mv == kLeft) {
            EditOp op;
            op.readPos = static_cast<uint32_t>(i);
            op.type = EditType::Del;
            op.length = 1;
            ops.push_back(std::move(op));
            j--;
        } else {
            sage_panic("banded alignment traceback escaped the band");
        }
    }
    std::reverse(ops.begin(), ops.end());
    result.ops = mergeOps(std::move(ops));
    return result;
}

std::optional<uint32_t>
bandedDistance(std::string_view target, std::string_view query,
               uint32_t band)
{
    // Distance-only variant: same recurrence, no move matrix.
    const int64_t m = static_cast<int64_t>(query.size());
    const int64_t n = static_cast<int64_t>(target.size());
    const BandShape shape{n - m, static_cast<int64_t>(band)};
    const int64_t width = 2 * static_cast<int64_t>(band)
                          + std::llabs(shape.diff) + 1;
    std::vector<uint32_t> prev_row(width + 2, kInf);
    std::vector<uint32_t> cur_row(width + 2, kInf);

    {
        const int64_t lo0 = shape.lo(0, n), hi0 = shape.hi(0, n);
        for (int64_t j = lo0; j <= hi0; j++)
            prev_row[j - lo0] = static_cast<uint32_t>(j);
    }
    for (int64_t i = 1; i <= m; i++) {
        const int64_t lo = shape.lo(i, n), hi = shape.hi(i, n);
        const int64_t plo = shape.lo(i - 1, n), phi = shape.hi(i - 1, n);
        std::fill(cur_row.begin(), cur_row.end(), kInf);
        for (int64_t j = lo; j <= hi; j++) {
            uint32_t best = kInf;
            if (j > 0 && j - 1 >= plo && j - 1 <= phi) {
                best = std::min(best, prev_row[j - 1 - plo]
                    + (basesMatch(query[i - 1], target[j - 1]) ? 0u : 1u));
            }
            if (j >= plo && j <= phi)
                best = std::min(best, prev_row[j - plo] + 1);
            if (j > lo)
                best = std::min(best, cur_row[j - 1 - lo] + 1);
            cur_row[j - lo] = best;
        }
        std::swap(prev_row, cur_row);
    }
    const int64_t lo_m = shape.lo(m, n), hi_m = shape.hi(m, n);
    if (n < lo_m || n > hi_m || prev_row[n - lo_m] >= kInf)
        return std::nullopt;
    return prev_row[n - lo_m];
}

} // namespace sage
