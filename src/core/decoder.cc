#include "core/decoder.hh"

#include <algorithm>
#include <memory>
#include <new>
#include <numeric>
#include <stdexcept>

#include "compress/headers.hh"
#include "compress/quality.hh"
#include "core/tuned_array.hh"
#include "util/bitio.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/varint.hh"

namespace sage {

uint64_t
ArchiveInfo::dnaStreamBytes() const
{
    uint64_t total = 0;
    for (const auto &[name, size] : streamSizes) {
        if (name != "quality" && name != "headers" && name != "order")
            total += size;
    }
    return total;
}

/**
 * All stream cursors for one chunk. Chunks are byte-aligned and carry
 * no cross-chunk delta state (format.hh), so a cursor built from the
 * chunk-table offsets decodes its slice with no predecessor knowledge —
 * that independence is what the parallel decode path exploits.
 * tryOpenChunk() fills the spans and then calls initReaders().
 */
struct SageDecoder::ChunkCursor
{
    /** One stream's slice: a view into the source, or an owned fetch. */
    struct Span
    {
        std::vector<uint8_t> owned;
        const uint8_t *data = nullptr;
        size_t size = 0;
    };

    void
    initReaders()
    {
        auto reader = [&](unsigned s) {
            return BitReader(spans[s].data, spans[s].size);
        };
        flags = reader(kChunkFlags);
        mpa = reader(kChunkMpa);
        mpga = reader(kChunkMpga);
        rla = reader(kChunkRla);
        rlga = reader(kChunkRlga);
        sga = reader(kChunkSga);
        sgga = reader(kChunkSgga);
        mca = reader(kChunkMca);
        mcga = reader(kChunkMcga);
        mmpa = reader(kChunkMmpa);
        mmpga = reader(kChunkMmpga);
        mbta = reader(kChunkMbta);
    }

    const Span &escape() const { return spans[kChunkEscape]; }

    std::array<Span, kChunkStreamCount> spans;
    BitReader flags{nullptr, 0}, mpa{nullptr, 0}, mpga{nullptr, 0},
        rla{nullptr, 0}, rlga{nullptr, 0}, sga{nullptr, 0},
        sgga{nullptr, 0}, mca{nullptr, 0}, mcga{nullptr, 0},
        mmpa{nullptr, 0}, mmpga{nullptr, 0}, mbta{nullptr, 0};
    /** Escape payloads are whole 3-bit-packed byte blocks, so a plain
     *  byte cursor (relative to this chunk's slice) replaces a bit
     *  reader here. */
    size_t escapeByte = 0;
    uint64_t prevPrimary = 0;
};

/** One chunk's host fields, as its reads decode in order. */
struct SageDecoder::ChunkHost
{
    /** Total bases of the chunk's reads. */
    uint64_t bases = 0;
    /** Read only when the decoder has a header store. */
    ChunkHeaders headers;
    /** No read has quality when the decoder has no quality store. */
    ChunkQuality quality;
    /** Where the next read's quality characters start. */
    uint64_t qualityAt = 0;
};

StatusOr<std::unique_ptr<SageDecoder>>
SageDecoder::tryOpen(const ByteSource &source, bool dna_only,
                     bool verify_checksum)
{
    if (verify_checksum) {
        Status status = verifyArchiveChecksum(source);
        if (!status.ok())
            return status;
    }
    std::unique_ptr<SageDecoder> decoder(new SageDecoder());
    decoder->source_ = &source;
    Status status = decoder->tryParseContainer(dna_only);
    if (!status.ok())
        return status;
    return StatusOr<std::unique_ptr<SageDecoder>>(std::move(decoder));
}

SageDecoder::~SageDecoder() = default;

SageDecoder::OpenedChunk
SageDecoder::tryOpenChunk(size_t chunk) const
{
    const ChunkSlice &slice = chunks_[chunk];
    auto cur = std::make_unique<ChunkCursor>();
    // Zero-copy views where the source provides them; everything else
    // is gathered in one batched read (FileSource coalesces the slices
    // into preadv calls instead of 13 separate preads).
    std::array<ByteSource::Extent, kChunkStreamCount> fetch;
    size_t fetches = 0;
    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        ChunkCursor::Span &span = cur->spans[s];
        span.size = static_cast<size_t>(slice.sizes[s]);
        if (span.size == 0)
            continue;
        const uint64_t offset = dnaExtents_[s].offset + slice.offsets[s];
        span.data = source_->view(offset, span.size);
        if (!span.data) {
            span.owned.resize(span.size);
            span.data = span.owned.data();
            fetch[fetches++] = {offset, span.owned.data(), span.size};
        }
    }
    if (fetches > 0) {
        Status status = source_->tryReadBatch(fetch.data(), fetches);
        if (!status.ok())
            return status;
    }
    cur->initReaders();
    return OpenedChunk(std::move(cur));
}

Status
SageDecoder::tryParseContainer(bool dna_only)
try {
    StatusOr<StreamDirectory> parsed = StreamDirectory::tryParse(*source_);
    if (!parsed.ok())
        return parsed.status();
    const StreamDirectory &dir = parsed.value();

    std::vector<uint8_t> raw;
    Status status = dir.tryLoad(*source_, "params", raw);
    if (!status.ok())
        return status;
    info_.params = SageParams::deserialize(raw);
    info_.streamSizes = dir.sizes();
    info_.totalCompressedBytes = source_->size();

    const SageParams &params = info_.params;
    status = dir.tryLoad(*source_, "consensus", raw);
    if (!status.ok())
        return status;
    // Validate the packed consensus length against its stream size
    // before unpacking: unpackSequence trusts its arguments, and a
    // corrupt params stream must not send it past the buffer (or into
    // a multi-terabyte allocation).
    const uint64_t cons_len = params.consensusLength;
    sage_check_data(cons_len <= (uint64_t{1} << 42), Corrupt,
                    "consensus length ", cons_len, " out of range");
    const uint64_t cons_need = params.consensusTwoBit
        ? (cons_len + 3) / 4 : (cons_len * 3 + 7) / 8;
    sage_check_data(raw.size() >= cons_need, Truncated,
                    "consensus stream holds ", raw.size(), " bytes; ",
                    cons_len, " bases need ", cons_need);
    consensus_ = unpackSequence(
        raw, cons_len,
        params.consensusTwoBit ? OutputFormat::TwoBit
                               : OutputFormat::ThreeBit);

    for (unsigned s = 0; s < kChunkStreamCount; s++) {
        if (!dir.has(kChunkStreamNames[s]))
            return Status::corrupt("missing stream: ",
                                   kChunkStreamNames[s]);
        dnaExtents_[s] = dir.extent(kChunkStreamNames[s]);
    }

    matchCodec_ = std::make_unique<TunedFieldCodec>(params.matchPos);
    lenCodec_ = std::make_unique<TunedFieldCodec>(params.readLen);
    countCodec_ = std::make_unique<TunedFieldCodec>(params.mismatchCount);
    posCodec_ = std::make_unique<TunedFieldCodec>(params.mismatchPos);
    segposCodec_ = std::make_unique<TunedFieldCodec>(params.segPos);
    seglenCodec_ = std::make_unique<TunedFieldCodec>(params.segLen);

    // Chunk index: v2 archives carry one; a v1 archive is one chunk
    // spanning every stream from offset zero. Slice sizes run to the
    // next chunk's offset (or the stream end for the last chunk), so a
    // cursor fetches exactly its chunk's bytes.
    if (params.version >= kFormatVersionChunked) {
        status = dir.tryLoad(*source_, "chunks", raw);
        if (!status.ok())
            return status;
        const ChunkTable table = ChunkTable::deserialize(raw);
        chunks_.reserve(table.entries.size());
        uint64_t first = 0;
        for (const ChunkTable::Entry &entry : table.entries) {
            ChunkSlice slice;
            slice.readCount = entry.readCount;
            slice.firstRead = first;
            slice.offsets = entry.offsets;
            chunks_.push_back(slice);
            first += entry.readCount;
        }
        sage_check_data(first == params.numReads, Corrupt,
                        "chunk table disagrees with read count");
    } else {
        ChunkSlice slice;
        slice.readCount = params.numReads;
        chunks_.push_back(slice);
    }
    for (size_t c = 0; c < chunks_.size(); c++) {
        for (unsigned s = 0; s < kChunkStreamCount; s++) {
            const uint64_t begin = chunks_[c].offsets[s];
            const uint64_t end = c + 1 < chunks_.size()
                ? chunks_[c + 1].offsets[s] : dnaExtents_[s].size;
            sage_check_data(begin <= end && end <= dnaExtents_[s].size,
                            Corrupt,
                            "chunk table offsets out of order in stream ",
                            kChunkStreamNames[s]);
            chunks_[c].sizes[s] = end - begin;
        }
    }

    // Host-side streams (skipped entirely in DNA-only mode). Only their
    // tables are read here, in time linear in chunks and blocks, not in
    // reads: each header and quality block decodes when a chunk first
    // needs it. A table that disagrees with the read count or the
    // chunks is corrupt: serving it would hand out empty or misaligned
    // fields.
    std::vector<uint64_t> chunk_reads;
    chunk_reads.reserve(chunks_.size());
    for (const ChunkSlice &slice : chunks_)
        chunk_reads.push_back(slice.readCount);
    if (!dna_only) {
        status = dir.tryLoad(*source_, "headers", raw);
        if (!status.ok())
            return status;
        headers_ = std::make_unique<HeaderStore>(
            std::move(raw), params.numReads, chunk_reads);
    }
    // The order stream maps stored read i to its original index. It is
    // a permutation of [0, numReads), or decodeAll would put reads in
    // the wrong places or outside its result.
    if (dir.has("order")) {
        status = dir.tryLoad(*source_, "order", raw);
        if (!status.ok())
            return status;
        const uint64_t reads = params.numReads;
        // Each entry takes at least one byte and fits 32 bits: check
        // before allocating.
        sage_check_data(reads <= raw.size() && reads <= UINT32_MAX,
                        Corrupt, "order stream of ", raw.size(),
                        " bytes cannot hold ", reads, " entries");
        std::vector<bool> seen(static_cast<size_t>(reads));
        order_.reserve(static_cast<size_t>(reads));
        size_t pos = 0;
        while (pos < raw.size()) {
            const uint64_t original = getVarint(raw, pos);
            sage_check_data(original < reads, Corrupt, "order entry ",
                            original, " is out of range for ", reads,
                            " reads");
            sage_check_data(!seen[original], Corrupt, "order entry ",
                            original, " appears twice");
            seen[original] = true;
            order_.push_back(static_cast<uint32_t>(original));
        }
        sage_check_data(order_.size() == reads, Corrupt,
                        "order stream holds ", order_.size(),
                        " entries for ", reads, " reads");
    }
    if (!dna_only && params.hasQuality) {
        sage_check_data(dir.has("quality"), Corrupt,
                        "archive declares quality scores but has no "
                        "quality stream");
        status = dir.tryLoad(*source_, "quality", raw);
        if (!status.ok())
            return status;
        quals_ = std::make_unique<QualityStore>(std::move(raw),
                                                chunk_reads);
    }
    return Status();
} catch (const StatusError &err) {
    return err.status();
} catch (const std::bad_alloc &) {
    return Status::corrupt("archive rejected: parsing exceeded the "
                           "allocation limit");
} catch (const std::length_error &) {
    return Status::corrupt("archive rejected: parsing exceeded the "
                           "allocation limit");
}

uint64_t
SageDecoder::chunkReadCount(size_t chunk) const
{
    sage_assert(chunk < chunks_.size(), "chunk index out of range");
    return chunks_[chunk].readCount;
}

uint64_t
SageDecoder::chunkFirstRead(size_t chunk) const
{
    sage_assert(chunk < chunks_.size(), "chunk index out of range");
    return chunks_[chunk].firstRead;
}

std::vector<uint64_t>
SageDecoder::chunkCompressedBytes() const
{
    std::vector<uint64_t> out;
    out.reserve(chunks_.size());
    for (const ChunkSlice &slice : chunks_) {
        out.push_back(std::accumulate(slice.sizes.begin(),
                                      slice.sizes.end(), uint64_t{0}));
    }
    return out;
}

namespace {

/**
 * What a column arena reserves for its chunk's @p bytes before the
 * first read. At most 256 MiB: the sizes come from the archive (read
 * lengths, quality offsets), and a corrupt one must not become an
 * allocation the per-read loop would never make; a valid chunk larger
 * than that grows past it as it decodes. From kArenaGranule up, the
 * size is rounded up to a multiple of it, so chunks of about the same
 * size ask for the same sizes: the arenas of a chunk the cache drops
 * then fit the next chunk it decodes, instead of the heap growing past
 * them.
 */
uint64_t
arenaReserve(uint64_t bytes)
{
    constexpr uint64_t kMaxArenaReserve = uint64_t{1} << 28;
    constexpr uint64_t kGranule = SageDecoder::kArenaGranule;
    bytes = std::min(bytes, kMaxArenaReserve);
    return bytes < kGranule ? bytes
                            : (bytes + kGranule - 1) / kGranule * kGranule;
}

} // namespace

Read
SageDecoder::decodeOne(ChunkCursor &cur, ChunkHost &host, uint64_t i) const
{
    Read read;
    // The read owns its buffer, so the flip swaps in one of exact size.
    if (decodeBases(cur, read.bases))
        reverseComplementInPlace(read.bases);
    if (headers_)
        read.header.assign(host.headers[i]);
    appendQuality(host, i, read.bases.size(), read.quals);
    return read;
}

void
SageDecoder::appendQuality(ChunkHost &host, uint64_t i, uint64_t length,
                           std::string &out) const
{
    if (!host.quality.has(i))
        return;
    quals_->append(host.qualityAt, length, out);
    host.qualityAt += length;
}

uint64_t
SageDecoder::readLength(BitReader &rla, BitReader &rlga) const
{
    const SageParams &params = info_.params;
    uint64_t length = params.modalReadLength;
    if (!params.constantReadLength) {
        length = static_cast<uint64_t>(
            static_cast<int64_t>(params.modalReadLength) +
            zigzagDecode(lenCodec_->decode(rla, rlga)));
    }
    // A corrupt length delta must not drive multi-gigabyte appends or
    // wrap the packed-size arithmetic of an escape.
    sage_check_data(length <= (uint64_t{1} << 31), Corrupt,
                    "read length ", length, " out of range");
    return length;
}

uint64_t
SageDecoder::checkChunkLengths(const ChunkCursor &cur, size_t chunk,
                               const ChunkQuality &quality) const
{
    // Copies of the length streams: the cursor itself stays put.
    BitReader rla = cur.rla;
    BitReader rlga = cur.rlga;
    const ChunkSlice &slice = chunks_[chunk];
    uint64_t total = 0, with_quality = 0;
    bool whole = true;
    for (uint64_t i = 0; i < slice.readCount; i++) {
        uint64_t length = 0;
        try {
            length = readLength(rla, rlga);
        } catch (const StatusError &) {
            whole = false;  // The decode fails at this read too.
            break;
        }
        if (quality.lengths) {
            const uint64_t stored = quality.lengths[i];
            sage_check_data(stored == 0 || stored == length, Corrupt,
                            "read ", slice.firstRead + i, " has ", stored,
                            " quality characters for ", length, " bases");
        }
        if (quality.has(i))
            with_quality += length;
        total += length;
    }
    // Reads before a failing one must not run past the chunk's
    // characters either.
    sage_check_data(whole ? with_quality == quality.chars
                          : with_quality <= quality.chars,
                    Corrupt, "chunk ", chunk, " has ", quality.chars,
                    " quality characters for ", with_quality,
                    " bases of reads with quality");
    return total;
}

SageDecoder::ChunkHost
SageDecoder::openHost(const ChunkCursor &cur, size_t chunk) const
{
    ChunkHost host;
    if (quals_)
        host.quality = quals_->chunk(chunk);
    host.qualityAt = host.quality.start;
    host.bases = checkChunkLengths(cur, chunk, host.quality);
    if (headers_)
        host.headers = headers_->chunk(chunk);
    return host;
}

bool
SageDecoder::decodeBases(ChunkCursor &cur, std::string &out) const
{
    const SageParams &params = info_.params;
    const size_t start = out.size();

    // ---- Flags --------------------------------------------------------
    const bool reverse = cur.flags.readBit();
    unsigned extra_segments = 0;
    if (params.maxSegments > 1) {
        extra_segments = cur.flags.readUnary();
        sage_check_data(extra_segments < params.maxSegments, Corrupt,
                        "segment count ", extra_segments + 1,
                        " exceeds maxSegments ",
                        unsigned(params.maxSegments));
    }
    bool escaped = false;
    if (!params.cornerTrick)
        escaped = cur.flags.readBit();

    // ---- Read length ----------------------------------------------------
    const uint64_t length = readLength(cur.rla, cur.rlga);

    // Escape payloads are 3-bit packed into whole bytes, so the read
    // copies out of the chunk's escape slice directly instead of 8 bits
    // at a time. An escaped read is stored as read: nothing to flip.
    // The encoder marks an escape before the read's first base; one
    // after bases of an event-free segment would lengthen the read.
    auto take_escape = [&] {
        sage_check_data(out.size() == start, Corrupt,
                        "escape marker after ", out.size() - start,
                        " decoded bases");
        const size_t packed_bytes = (length * 3 + 7) / 8;
        const ChunkCursor::Span &escape = cur.escape();
        sage_check_data(packed_bytes <= escape.size &&
                        cur.escapeByte <= escape.size - packed_bytes,
                        Truncated, "escape stream underrun");
        appendUnpackedSequence(out, escape.data + cur.escapeByte,
                               packed_bytes, length,
                               OutputFormat::ThreeBit);
        cur.escapeByte += packed_bytes;
        return false;
    };

    // ---- Matching position ---------------------------------------------
    const uint64_t match_field = matchCodec_->decode(cur.mpa, cur.mpga);
    const uint64_t primary = params.reorderReads
        ? cur.prevPrimary + match_field : match_field;

    if (!params.cornerTrick && escaped) {
        // Pre-O4 escape: payload only.
        return take_escape();
    }

    // ---- Segment table ---------------------------------------------------
    // maxSegments is one byte of the params (format.cc), and the flags
    // check above keeps the count within it: no read needs more room.
    struct SegInfo { uint64_t consPos; uint64_t readLen; };
    const unsigned seg_count = 1 + extra_segments;
    SegInfo segs[256];
    segs[0].consPos = primary;
    uint64_t other_len = 0;
    for (unsigned s = 1; s <= extra_segments; s++) {
        const int64_t delta =
            zigzagDecode(segposCodec_->decode(cur.sga, cur.sgga));
        segs[s].consPos = static_cast<uint64_t>(
            static_cast<int64_t>(primary) + delta);
        segs[s].readLen = seglenCodec_->decode(cur.sga, cur.sgga);
        other_len += segs[s].readLen;
    }
    sage_check_data(other_len <= length, Corrupt,
                    "segment lengths exceed the read length");
    segs[0].readLen = length - other_len;

    // ---- Events + reconstruction (the RCU walk) --------------------------
    // Room reserved only when short: an exact allocation for a Read's
    // own string, none in a column arena sized for the chunk.
    const uint64_t room = std::min<uint64_t>(length, uint64_t{1} << 20);
    if (out.capacity() - out.size() < room)
        out.reserve(out.size() + static_cast<size_t>(room));
    bool first_event_of_read = true;

    for (unsigned s = 0; s < seg_count; s++) {
        const SegInfo &seg = segs[s];
        const uint64_t count = countCodec_->decode(cur.mca, cur.mcga);
        uint64_t cons_j = seg.consPos;
        uint64_t read_i = 0;   // Position within this segment.
        uint32_t prev_pos = 0;

        for (uint64_t e = 0; e < count; e++) {
            const uint64_t delta = posCodec_->decode(cur.mmpa,
                                                     cur.mmpga);
            const uint64_t event_pos = e == 0 ? delta : prev_pos + delta;
            prev_pos = static_cast<uint32_t>(event_pos);

            // Corner-case disambiguation (paper §5.1.4): a first event
            // at position 0 carries one MBTA bit.
            if (params.cornerTrick && first_event_of_read &&
                event_pos == 0) {
                first_event_of_read = false;
                if (cur.mbta.readBit()) {
                    // Corner case: whole read comes from the escape
                    // stream, 3-bit packed.
                    return take_escape();
                }
            }
            first_event_of_read = false;

            // Copy the consensus run up to the event position.
            if (read_i < event_pos) {
                const uint64_t run = event_pos - read_i;
                sage_check_data(run <= consensus_.size() &&
                                cons_j <= consensus_.size() - run,
                                Corrupt, "decoder ran off consensus");
                out.append(consensus_, static_cast<size_t>(cons_j),
                           static_cast<size_t>(run));
                cons_j += run;
                read_i = event_pos;
            }

            sage_check_data(!consensus_.empty(), Corrupt,
                            "mismatch event against an empty consensus");
            const uint64_t marker_j =
                std::min<uint64_t>(cons_j, consensus_.size() - 1);

            EditType type;
            char sub_base = 0;
            if (params.inferTypes) {
                const uint8_t code =
                    static_cast<uint8_t>(cur.mbta.readBits(2));
                const char base = codeToBase(code);
                if (base != consensus_[marker_j]) {
                    type = EditType::Sub;
                    sub_base = base;
                } else {
                    type = cur.mbta.readBit() ? EditType::Ins
                                              : EditType::Del;
                }
            } else {
                type = static_cast<EditType>(cur.mbta.readBits(2));
                if (type == EditType::Sub) {
                    sub_base = codeToBase(
                        static_cast<uint8_t>(cur.mbta.readBits(2)));
                }
            }

            uint64_t block_len = 1;
            if (type != EditType::Sub && params.tuneArrays) {
                const bool single = cur.mmpga.readBit();
                if (!single) {
                    block_len = 0;
                    uint64_t chunk;
                    do {
                        chunk = cur.mmpa.readBits(8);
                        block_len += chunk;
                    } while (chunk == 255);
                }
            }

            switch (type) {
              case EditType::Sub:
                out.push_back(sub_base);
                read_i++;
                cons_j++;
                break;
              case EditType::Ins:
                // Inserted bases follow in MBTA in both layouts: after
                // the indel marker (inferTypes) or after the explicit
                // type code (pre-O3).
                for (uint64_t b = 0; b < block_len; b++) {
                    out.push_back(codeToBase(
                        static_cast<uint8_t>(cur.mbta.readBits(2))));
                }
                read_i += block_len;
                break;
              case EditType::Del:
                cons_j += block_len;
                break;
            }
        }
        // Copy the segment's tail in one run.
        if (read_i < seg.readLen) {
            const uint64_t run = seg.readLen - read_i;
            sage_check_data(run <= consensus_.size() &&
                            cons_j <= consensus_.size() - run,
                            Corrupt, "decoder ran off consensus at tail");
            out.append(consensus_, static_cast<size_t>(cons_j),
                       static_cast<size_t>(run));
        }
    }

    // Events that run past their segment lengthen the read: a valid
    // archive never has them, and a corrupt one must not yield a read
    // of the wrong length (nor outgrow a column arena sized from the
    // length fields).
    sage_check_data(out.size() - start == length, Corrupt, "read decodes to ",
                    out.size() - start, " bases; its length is ", length);
    cur.prevPrimary = primary;
    return reverse;
}

namespace {

/** The try* boundary of a chunk decode: run @p decode, turning a
 *  StatusError or an allocation failure into a Status. */
template <typename Decode>
Status
chunkStatus(size_t chunk, const Decode &decode)
{
    try {
        decode();
        return Status();
    } catch (const StatusError &err) {
        return err.status();
    } catch (const std::bad_alloc &) {
        return Status::corrupt("chunk ", chunk,
                               " decode exceeded the allocation limit");
    } catch (const std::length_error &) {
        return Status::corrupt("chunk ", chunk,
                               " decode exceeded the allocation limit");
    }
}

/** The Status of a decode call for a chunk past the archive's end. */
Status
chunkOutOfRange(size_t chunk, size_t chunks)
{
    return Status::outOfRange("chunk index ", chunk,
                              " out of range (archive has ", chunks,
                              " chunks)");
}

} // namespace

Status
SageDecoder::tryDecodeChunkShared(size_t chunk, Read *out) const
{
    if (chunk >= chunks_.size())
        return chunkOutOfRange(chunk, chunks_.size());
    // A private cursor: nothing here writes decoder state, which is
    // what makes concurrent calls safe. A failed fetch comes back from
    // the open; decode errors on corrupt bytes surface as StatusError
    // from the bit readers and bounds checks in decodeOne.
    OpenedChunk opened = tryOpenChunk(chunk);
    if (!opened.ok())
        return opened.status();
    ChunkCursor &cur = *opened.value();
    return chunkStatus(chunk, [&] {
        ChunkHost host = openHost(cur, chunk);
        for (uint64_t i = 0; i < chunks_[chunk].readCount; i++)
            out[i] = decodeOne(cur, host, i);
    });
}

Status
SageDecoder::tryDecodeChunkShared(size_t chunk, ReadColumns &out) const
{
    sage_assert(out.empty() && out.headers.empty() && out.bases.empty() &&
                    out.quals.empty(),
                "chunk decoded into columns that hold reads");
    if (chunk >= chunks_.size())
        return chunkOutOfRange(chunk, chunks_.size());
    const ChunkSlice &slice = chunks_[chunk];
    // The end table is sized where the Read overloads size their
    // vector, before the fetch, so a hostile read count fails alike.
    Status status = chunkStatus(chunk, [&] {
        out.ends.reserve(static_cast<size_t>(slice.readCount));
    });
    if (!status.ok())
        return status;
    OpenedChunk opened = tryOpenChunk(chunk);
    if (!opened.ok())
        return opened.status();
    ChunkCursor &cur = *opened.value();
    return chunkStatus(chunk, [&] {
        ChunkHost host = openHost(cur, chunk);
        // Each arena is sized for the whole chunk before the first
        // read: bases from a pass over the length streams, headers from
        // the decoded block's line starts, quality from the chunk's
        // character count.
        out.bases.reserve(arenaReserve(host.bases));
        if (headers_)
            out.headers.reserve(arenaReserve(host.headers.bytes(
                slice.readCount)));
        out.quals.reserve(arenaReserve(host.quality.chars));
        // decodeOne's steps in decodeOne's order, so both loops stop
        // at the same read with the same Status.
        for (uint64_t i = 0; i < slice.readCount; i++) {
            const size_t at = out.bases.size();
            // Flip only this read's tail: the arena keeps its buffer.
            if (decodeBases(cur, out.bases))
                reverseComplementInPlace(out.bases.data() + at,
                                         out.bases.size() - at);
            if (headers_)
                out.headers.append(host.headers[i]);
            appendQuality(host, i, out.bases.size() - at, out.quals);
            out.endRead();
        }
    });
}

StatusOr<std::vector<Read>>
SageDecoder::tryDecodeChunkShared(size_t chunk) const
{
    std::vector<Read> reads;
    Status status;
    if (chunk < chunks_.size()) {
        status = chunkStatus(chunk, [&] {
            reads.resize(static_cast<size_t>(chunks_[chunk].readCount));
        });
    }
    if (status.ok())
        status = tryDecodeChunkShared(chunk, reads.data());
    if (!status.ok())
        return status;
    return StatusOr<std::vector<Read>>(std::move(reads));
}

uint64_t
SageDecoder::workingSetBytes() const
{
    // The software decoder keeps the consensus resident plus one
    // chunk's stream cursors; the paper's hardware needs only registers
    // (Table 3 lists 128 B for SAGe): byte-sized array registers, the
    // 150-bp reconstruction register and two 64-bit double-buffer
    // registers.
    return consensus_.size() + sizeof(ChunkCursor);
}

} // namespace sage
