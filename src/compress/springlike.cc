#include "compress/springlike.hh"

#include <algorithm>

#include "compress/prep.hh"
#include "compress/streams.hh"
#include "genomics/alphabet.hh"
#include "util/bitio.hh"
#include "util/logging.hh"
#include "util/timing.hh"
#include "util/varint.hh"

namespace sage {
namespace springlike {

namespace {

/** Per-read record flags. */
constexpr uint8_t kFlagEscaped = 1;
constexpr uint8_t kFlagReverse = 2;

} // namespace

CompressResult
compress(const ReadSet &rs, std::string_view consensus,
         const Config &config, ThreadPool *pool)
{
    CompressResult result;

    Stopwatch map_clock;
    const PreppedReads prep =
        prepareReads(rs, consensus, config.mapper, pool);
    result.mapSeconds = map_clock.seconds();

    Stopwatch encode_clock;

    // Raw (pre-backend) typed streams.
    std::vector<uint8_t> flags, readlen, matchpos, segs, mcount, mpos,
        mtype_bits, mlen, escape, headers, order;
    BitWriter mtype_writer, mbases_writer;

    uint64_t prev_primary = 0;
    for (uint32_t src : prep.order) {
        const Read &read = rs.reads[src];
        const ReadClass &cls = prep.classes[src];

        uint8_t flag = 0;
        if (cls.escape != EscapeReason::None)
            flag |= kFlagEscaped;
        if (cls.escape == EscapeReason::None && cls.mapping.reverse)
            flag |= kFlagReverse;
        flags.push_back(flag);
        putVarint(readlen, read.bases.size());

        if (cls.escape != EscapeReason::None) {
            // Escape payload: 3-bit packed raw bases (handles N).
            const auto packed =
                packSequence(read.bases, OutputFormat::ThreeBit);
            putVarint(escape, packed.size());
            escape.insert(escape.end(), packed.begin(), packed.end());
            continue;
        }

        // (Edits were extracted on the oriented read during prep; the
        // encode pass replays cls.mapping and never needs the oriented
        // bases themselves.)
        const uint64_t primary = cls.mapping.primaryPosition();
        putVarint(matchpos, primary - prev_primary); // Sorted: monotone.
        prev_primary = primary;

        putVarint(segs, cls.mapping.segments.size() - 1);
        uint64_t ops_total = 0;
        for (size_t s = 0; s < cls.mapping.segments.size(); s++) {
            const AlignedSegment &seg = cls.mapping.segments[s];
            if (s > 0) {
                putVarint(segs, zigzagEncode(
                    static_cast<int64_t>(seg.consensusPos)
                    - static_cast<int64_t>(primary)));
                putVarint(segs, seg.readLength);
            }
            ops_total += seg.ops.size();
        }
        putVarint(mcount, ops_total);

        for (const AlignedSegment &seg : cls.mapping.segments) {
            uint32_t prev_pos = 0;
            for (const EditOp &op : seg.ops) {
                putVarint(mpos, op.readPos - prev_pos);
                prev_pos = op.readPos;
                mtype_writer.writeBits(
                    static_cast<uint64_t>(op.type), 2);
                if (op.type != EditType::Sub)
                    putVarint(mlen, op.length);
                for (char c : op.bases) {
                    const uint8_t code = baseToCode(c);
                    sage_assert(code < 4, "N base escaped classification");
                    mbases_writer.writeBits(code, 2);
                }
            }
            // Segment boundary marker keeps per-segment op runs
            // self-delimiting: emit an op-count per segment instead.
        }
        // Per-segment op counts (after total) for reconstruction.
        for (const AlignedSegment &seg : cls.mapping.segments)
            putVarint(mcount, seg.ops.size());
    }

    for (uint32_t src : prep.order) {
        const std::string &h = rs.reads[src].header;
        headers.insert(headers.end(), h.begin(), h.end());
        headers.push_back('\n');
    }
    if (config.preserveOrder) {
        for (uint32_t src : prep.order)
            putVarint(order, src);
    }

    // Consensus: 2-bit packed (N-free by construction of our refs).
    std::vector<uint8_t> cons_packed;
    putVarint(cons_packed, consensus.size());
    {
        // Consensus may legally contain N; use 3-bit when needed.
        const bool acgt = isAcgtOnly(consensus);
        cons_packed.push_back(acgt ? 2 : 3);
        auto packed = packSequence(
            consensus, acgt ? OutputFormat::TwoBit
                            : OutputFormat::ThreeBit);
        cons_packed.insert(cons_packed.end(), packed.begin(),
                           packed.end());
    }

    // Backend general-purpose compression over every stream — the
    // expensive stage SAGe eliminates.
    StreamBundle bundle;
    auto pack = [&](const char *name, const std::vector<uint8_t> &raw) {
        bundle.stream(name) = gpzip::compress(raw.data(), raw.size(),
                                              config.backend, pool);
    };
    pack("consensus", cons_packed);
    pack("flags", flags);
    pack("readlen", readlen);
    pack("matchpos", matchpos);
    pack("segs", segs);
    pack("mcount", mcount);
    pack("mpos", mpos);
    {
        auto bits = mtype_writer.take();
        pack("mtype", bits);
        auto bases = mbases_writer.take();
        pack("mbases", bases);
    }
    pack("mlen", mlen);
    pack("escape", escape);
    pack("headers", headers);
    if (config.preserveOrder)
        pack("order", order);

    if (config.keepQuality && rs.hasQualityScores()) {
        std::vector<std::string_view> quals;
        quals.reserve(prep.order.size());
        for (uint32_t src : prep.order) {
            // Reverse-complemented reads keep their quality ordering
            // aligned with the *stored* orientation for simplicity;
            // orientation is undone on decode for bases only, so store
            // quality in original orientation.
            quals.emplace_back(rs.reads[src].quals);
        }
        bundle.stream("quality") = packQuality(
            compressQuality(std::move(quals), config.quality, pool));
    }

    result.archive = bundle.serialize();
    result.streamSizes = bundle.sizes();
    result.encodeSeconds = encode_clock.seconds();
    for (const auto &[name, size] : result.streamSizes) {
        // Headers/order are metadata, not DNA — Table 2 reports DNA and
        // quality ratios separately.
        if (name == "quality")
            result.qualityBytes += size;
        else if (name != "headers" && name != "order")
            result.dnaBytes += size;
    }
    return result;
}

DecompressResult
decompress(const std::vector<uint8_t> &archive, ThreadPool *pool)
{
    DecompressResult result;
    StreamBundle bundle = StreamBundle::deserialize(archive);

    auto unpack = [&](const char *name) {
        Stopwatch backend_clock;
        auto out = orExit(gpzip::tryDecompress(bundle.stream(name), pool));
        result.backendSeconds += backend_clock.seconds();
        return out;
    };
    Stopwatch total_clock;

    const auto cons_packed = unpack("consensus");
    std::string consensus;
    {
        size_t pos = 0;
        const uint64_t length = getVarint(cons_packed, pos);
        const uint8_t width = cons_packed[pos++];
        std::vector<uint8_t> body(cons_packed.begin() + pos,
                                  cons_packed.end());
        consensus = unpackSequence(
            body, length,
            width == 2 ? OutputFormat::TwoBit : OutputFormat::ThreeBit);
    }

    const auto flags = unpack("flags");
    const auto readlen = unpack("readlen");
    const auto matchpos = unpack("matchpos");
    const auto segs = unpack("segs");
    const auto mcount = unpack("mcount");
    const auto mpos = unpack("mpos");
    const auto mtype = unpack("mtype");
    const auto mbases = unpack("mbases");
    const auto mlen = unpack("mlen");
    const auto escape = unpack("escape");
    const auto headers = unpack("headers");

    std::vector<std::string> quals;
    if (bundle.has("quality"))
        quals = decompressQuality(unpackQuality(bundle.stream("quality")));

    result.workingSetBytes = consensus.size() + bundle.totalBytes()
        + flags.size() + readlen.size() + matchpos.size() + segs.size()
        + mcount.size() + mpos.size() + mtype.size() + mbases.size()
        + mlen.size() + escape.size() + headers.size();

    // Stream cursors.
    size_t p_readlen = 0, p_matchpos = 0, p_segs = 0, p_mcount = 0,
           p_mpos = 0, p_mlen = 0, p_escape = 0;
    BitReader type_reader(mtype);
    BitReader base_reader(mbases);
    size_t header_pos = 0;
    auto next_header = [&]() {
        size_t end = header_pos;
        while (end < headers.size() && headers[end] != '\n')
            end++;
        std::string h(headers.begin() + header_pos, headers.begin() + end);
        header_pos = end + 1;
        return h;
    };

    ReadSet rs;
    uint64_t prev_primary = 0;
    const size_t num_reads = flags.size();
    rs.reads.reserve(num_reads);

    for (size_t r = 0; r < num_reads; r++) {
        Read read;
        read.header = next_header();
        const uint8_t flag = flags[r];
        const uint64_t length = getVarint(readlen, p_readlen);

        if (flag & kFlagEscaped) {
            const uint64_t packed_size = getVarint(escape, p_escape);
            std::vector<uint8_t> packed(
                escape.begin() + p_escape,
                escape.begin() + p_escape + packed_size);
            p_escape += packed_size;
            read.bases = unpackSequence(packed, length,
                                        OutputFormat::ThreeBit);
        } else {
            const uint64_t primary =
                prev_primary + getVarint(matchpos, p_matchpos);
            prev_primary = primary;

            ReadMapping mapping;
            mapping.mapped = true;
            mapping.reverse = (flag & kFlagReverse) != 0;

            const uint64_t extra_segs = getVarint(segs, p_segs);
            std::vector<std::pair<uint64_t, uint32_t>> seg_info;
            seg_info.emplace_back(primary, 0); // Length fixed below.
            uint64_t other_len = 0;
            for (uint64_t s = 0; s < extra_segs; s++) {
                const int64_t delta =
                    zigzagDecode(getVarint(segs, p_segs));
                const uint32_t seg_len =
                    static_cast<uint32_t>(getVarint(segs, p_segs));
                seg_info.emplace_back(
                    static_cast<uint64_t>(
                        static_cast<int64_t>(primary) + delta),
                    seg_len);
                other_len += seg_len;
            }
            seg_info[0].second = static_cast<uint32_t>(length - other_len);

            const uint64_t ops_total = getVarint(mcount, p_mcount);
            std::vector<uint64_t> per_seg(seg_info.size());
            uint64_t check = 0;
            for (auto &n : per_seg) {
                n = getVarint(mcount, p_mcount);
                check += n;
            }
            sage_assert(check == ops_total, "op count mismatch");

            uint32_t read_cursor = 0;
            for (size_t s = 0; s < seg_info.size(); s++) {
                AlignedSegment seg;
                seg.consensusPos = seg_info[s].first;
                seg.readStart = read_cursor;
                seg.readLength = seg_info[s].second;
                read_cursor += seg.readLength;
                uint32_t prev_pos = 0;
                for (uint64_t o = 0; o < per_seg[s]; o++) {
                    EditOp op;
                    op.readPos = prev_pos
                        + static_cast<uint32_t>(getVarint(mpos, p_mpos));
                    prev_pos = op.readPos;
                    op.type = static_cast<EditType>(type_reader.readBits(2));
                    op.length = op.type == EditType::Sub
                        ? 1
                        : static_cast<uint32_t>(getVarint(mlen, p_mlen));
                    if (op.type != EditType::Del) {
                        const size_t count =
                            op.type == EditType::Sub ? 1 : op.length;
                        for (size_t b = 0; b < count; b++) {
                            op.bases.push_back(codeToBase(
                                static_cast<uint8_t>(
                                    base_reader.readBits(2))));
                        }
                    }
                    seg.ops.push_back(std::move(op));
                }
                mapping.segments.push_back(std::move(seg));
            }

            std::string oriented = reconstructRead(consensus, mapping);
            if (mapping.reverse)
                reverseComplementInPlace(oriented);
            read.bases = std::move(oriented);
        }

        if (!quals.empty())
            read.quals = quals[r];
        rs.reads.push_back(std::move(read));
    }

    // Optional original-order restoration.
    if (bundle.has("order")) {
        const auto order_raw = unpack("order");
        size_t p_order = 0;
        std::vector<Read> restored(rs.reads.size());
        for (auto &read : rs.reads) {
            const uint64_t src = getVarint(order_raw, p_order);
            sage_assert(src < restored.size(), "bad order index");
            restored[src] = std::move(read);
        }
        rs.reads = std::move(restored);
    }

    result.readSet = std::move(rs);
    result.reconstructSeconds =
        std::max(0.0, total_clock.seconds() - result.backendSeconds);
    return result;
}

} // namespace springlike
} // namespace sage
