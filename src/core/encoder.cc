#include "core/encoder.hh"

#include <algorithm>
#include <optional>

#include "compress/headers.hh"
#include "compress/prep.hh"
#include "compress/quality.hh"
#include "compress/streams.hh"
#include "genomics/alphabet.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/timing.hh"
#include "util/varint.hh"

namespace sage {

namespace {

/** Fixed widths used when Algorithm-1 tuning is disabled (pre-O2). */
constexpr unsigned kFixedMatchPosBits = 32;
constexpr unsigned kFixedReadLenBits = 32;
constexpr unsigned kFixedCountBits = 16;
constexpr unsigned kFixedMismatchPosBits = 16;

/** A degenerate association table: one class of @p width bits. */
AssociationTable
fixedTable(unsigned width)
{
    AssociationTable table;
    table.widthByRank.push_back(static_cast<uint8_t>(width));
    return table;
}

/**
 * Pre-O2 representation: expand indel blocks into single-base mismatch
 * events ("raw mismatch information", Fig. 17 NO/O1 bars), replacing
 * the contents of @p out.
 */
void
expandBlocks(const std::vector<EditOp> &ops, std::vector<EditOp> &out)
{
    out.clear();
    for (const auto &op : ops) {
        if (op.type == EditType::Sub || op.length == 1) {
            out.push_back(op);
            continue;
        }
        for (uint32_t i = 0; i < op.length; i++) {
            EditOp single;
            single.type = op.type;
            single.length = 1;
            if (op.type == EditType::Ins) {
                single.readPos = op.readPos + i;
                single.bases = std::string(1, op.bases[i]);
            } else {
                single.readPos = op.readPos;
            }
            out.push_back(std::move(single));
        }
    }
}

/** What Algorithm 1 sees of each array's values: a histogram of their
 *  bit widths (TunedFieldCodec::tuneForBits), not the values. */
struct TuningSamples
{
    Histogram matchDeltas;
    Histogram readLenDeltas;
    Histogram counts;
    Histogram posDeltas;
    Histogram segPosDeltas;
    Histogram segLens;
};

/** Writer set for the SAGe bit arrays. */
struct Arrays
{
    BitWriter flags;
    BitWriter mpa, mpga;
    BitWriter rla, rlga;
    BitWriter sga, sgga;
    BitWriter mca, mcga;
    BitWriter mmpa, mmpga;
    BitWriter mbta;
};

/** Chained 8-bit indel length encoding (paper §5.1.1 layout). */
void
writeIndelLength(BitWriter &mmpa, uint32_t length)
{
    uint32_t remaining = length;
    while (remaining >= 255) {
        mmpa.writeBits(255, 8);
        remaining -= 255;
    }
    mmpa.writeBits(remaining, 8);
}

/** The DNA side of an archive: the 12 bit arrays, the escapes and
 *  the chunk table. */
struct DnaStreams
{
    Arrays arrays;
    std::vector<uint8_t> escape;
    ChunkTable chunks;
    double tuneSeconds = 0.0;
};

/**
 * Write the DNA side of the archive in @p prep's encode order. Pass 1
 * samples the field values and tunes the arrays (Algorithm 1) into
 * @p params; pass 2 emits the arrays and the escapes.
 */
void
writeDnaStreams(const ReadSet &rs, const PreppedReads &prep,
                std::string_view consensus, const SageConfig &config,
                SageParams &params, DnaStreams &out)
{
    // Pre-O2 representation drops indel blocks; pre-O3 drops chimeras
    // (the mapper already produced maxSegments=1 mappings in that case).
    // A tuned script is used as it is; an expanded one lives in one
    // buffer until the next segment's.
    std::vector<EditOp> expanded;
    auto ops_of = [&](const AlignedSegment &seg)
        -> const std::vector<EditOp> & {
        if (config.tuneArrays)
            return seg.ops;
        expandBlocks(seg.ops, expanded);
        return expanded;
    };

    // ---- Pass 1: collect value samples and tune (Algorithm 1) --------
    Stopwatch tune_clock;
    TuningSamples samples;
    Histogram length_hist;
    for (const Read &read : rs.reads)
        length_hist.add(read.bases.size());
    uint64_t modal_len = 0, modal_count = 0;
    for (size_t len = 0; len < length_hist.size(); len++) {
        if (length_hist.count(len) > modal_count) {
            modal_count = length_hist.count(len);
            modal_len = len;
        }
    }

    // Chunk boundaries (container v2) reset the matching-position
    // delta, so the samples must mirror the reset or Algorithm 1 would
    // tune for deltas the encoder never emits.
    const uint64_t chunk_reads = config.chunkReads;

    uint64_t prev_primary = 0;
    uint64_t sample_idx = 0;
    for (uint32_t src : prep.order) {
        if (chunk_reads > 0 && sample_idx % chunk_reads == 0)
            prev_primary = 0;
        sample_idx++;
        const Read &read = rs.reads[src];
        const ReadClass &cls = prep.classes[src];
        samples.readLenDeltas.add(valueBits(zigzagEncode(
            static_cast<int64_t>(read.bases.size())
            - static_cast<int64_t>(modal_len))));

        if (cls.escape != EscapeReason::None) {
            samples.matchDeltas.add(valueBits(0));
            if (config.cornerTrick) {
                samples.counts.add(valueBits(1));
                samples.posDeltas.add(valueBits(0));
            }
            continue;
        }
        const uint64_t primary = cls.mapping.primaryPosition();
        samples.matchDeltas.add(valueBits(
            config.reorderReads ? primary - prev_primary : primary));
        prev_primary = primary;

        for (size_t s = 0; s < cls.mapping.segments.size(); s++) {
            const AlignedSegment &seg = cls.mapping.segments[s];
            if (s > 0) {
                samples.segPosDeltas.add(valueBits(zigzagEncode(
                    static_cast<int64_t>(seg.consensusPos)
                    - static_cast<int64_t>(primary))));
                samples.segLens.add(valueBits(seg.readLength));
            }
            const std::vector<EditOp> &ops = ops_of(seg);
            samples.counts.add(valueBits(ops.size()));
            uint32_t prev_pos = 0;
            for (const EditOp &op : ops) {
                samples.posDeltas.add(valueBits(op.readPos - prev_pos));
                prev_pos = op.readPos;
            }
        }
    }

    params.modalReadLength = modal_len;
    // Fixed-length short-read sets need no per-read length fields.
    params.constantReadLength = !rs.reads.empty();
    for (const Read &read : rs.reads) {
        if (read.bases.size() != modal_len) {
            params.constantReadLength = false;
            break;
        }
    }

    // O1 (§5.1.3) tunes the matching-position and segment arrays; O2
    // (§5.1.1) tunes the mismatch-side arrays. Pre-optimization levels
    // fall back to fixed widths ("raw mismatch information").
    if (config.tuneMatchArrays) {
        params.matchPos =
            TunedFieldCodec::tuneForBits(samples.matchDeltas, config.tuner);
        params.segPos =
            TunedFieldCodec::tuneForBits(samples.segPosDeltas, config.tuner);
        params.segLen =
            TunedFieldCodec::tuneForBits(samples.segLens, config.tuner);
    } else {
        params.matchPos = fixedTable(kFixedMatchPosBits);
        params.segPos = fixedTable(kFixedMatchPosBits);
        params.segLen = fixedTable(kFixedReadLenBits);
    }
    if (config.tuneArrays) {
        params.readLen =
            TunedFieldCodec::tuneForBits(samples.readLenDeltas, config.tuner);
        params.mismatchCount =
            TunedFieldCodec::tuneForBits(samples.counts, config.tuner);
        params.mismatchPos =
            TunedFieldCodec::tuneForBits(samples.posDeltas, config.tuner);
    } else {
        params.readLen = fixedTable(kFixedReadLenBits);
        params.mismatchCount = fixedTable(kFixedCountBits);
        params.mismatchPos = fixedTable(kFixedMismatchPosBits);
    }
    out.tuneSeconds = tune_clock.seconds();

    const TunedFieldCodec match_codec(params.matchPos);
    const TunedFieldCodec len_codec(params.readLen);
    const TunedFieldCodec count_codec(params.mismatchCount);
    const TunedFieldCodec pos_codec(params.mismatchPos);
    const TunedFieldCodec segpos_codec(params.segPos);
    const TunedFieldCodec seglen_codec(params.segLen);

    // ---- Pass 2: emit arrays ------------------------------------------
    Arrays &arrays = out.arrays;
    std::vector<uint8_t> &escape_stream = out.escape;
    ChunkTable &chunk_table = out.chunks;
    prev_primary = 0;

    // Open a chunk: pad every bit array to a byte boundary so the
    // chunk's slice starts at an exact byte offset, record those
    // offsets, and reset the matching-position delta state. The chunk
    // then decodes with zero knowledge of its predecessors.
    auto open_chunk = [&](uint64_t reads_done) {
        ChunkTable::Entry entry;
        entry.readCount = std::min<uint64_t>(
            chunk_reads, prep.order.size() - reads_done);
        BitWriter *const writers[kChunkEscape] = {
            &arrays.flags, &arrays.mpa, &arrays.mpga, &arrays.rla,
            &arrays.rlga, &arrays.sga, &arrays.sgga, &arrays.mca,
            &arrays.mcga, &arrays.mmpa, &arrays.mmpga, &arrays.mbta};
        for (unsigned s = 0; s < kChunkEscape; s++) {
            writers[s]->alignByte();
            entry.offsets[s] = writers[s]->bytes().size();
        }
        entry.offsets[kChunkEscape] = escape_stream.size();
        chunk_table.entries.push_back(entry);
        prev_primary = 0;
    };

    uint64_t emit_idx = 0;
    for (uint32_t src : prep.order) {
        if (chunk_reads > 0 && emit_idx % chunk_reads == 0)
            open_chunk(emit_idx);
        emit_idx++;
        const Read &read = rs.reads[src];
        const ReadClass &cls = prep.classes[src];
        const bool escaped = cls.escape != EscapeReason::None;

        // Flags: reverse bit, segment count (unary), pre-O4 escape bit.
        arrays.flags.writeBit(!escaped && cls.mapping.reverse);
        if (params.maxSegments > 1) {
            arrays.flags.writeUnary(
                escaped ? 0
                        : static_cast<unsigned>(
                              cls.mapping.segments.size() - 1));
        }
        if (!params.cornerTrick)
            arrays.flags.writeBit(escaped);

        // Read length (omitted entirely for fixed-length sets).
        if (!params.constantReadLength) {
            len_codec.encode(arrays.rla, arrays.rlga, zigzagEncode(
                static_cast<int64_t>(read.bases.size())
                - static_cast<int64_t>(modal_len)));
        }

        if (escaped) {
            // Matching-position placeholder keeps the stream aligned.
            match_codec.encode(arrays.mpa, arrays.mpga, 0);
            if (params.cornerTrick) {
                // Corner-case marker: one mismatch at position 0, with
                // the disambiguation bit set (paper §5.1.4).
                count_codec.encode(arrays.mca, arrays.mcga, 1);
                pos_codec.encode(arrays.mmpa, arrays.mmpga, 0);
                arrays.mbta.writeBit(true); // Corner case, not mismatch.
            }
            const auto packed =
                packSequence(read.bases, OutputFormat::ThreeBit);
            escape_stream.insert(escape_stream.end(), packed.begin(),
                                 packed.end());
            continue;
        }

        // (The oriented read is not needed here: every edit op was
        // extracted against the oriented bases during prep, so pass 2
        // only replays cls.mapping — no per-read reverse complement.)
        const uint64_t primary = cls.mapping.primaryPosition();
        match_codec.encode(arrays.mpa, arrays.mpga,
                           config.reorderReads ? primary - prev_primary
                                               : primary);
        prev_primary = primary;

        // Extra segment descriptors.
        for (size_t s = 1; s < cls.mapping.segments.size(); s++) {
            const AlignedSegment &seg = cls.mapping.segments[s];
            segpos_codec.encode(arrays.sga, arrays.sgga, zigzagEncode(
                static_cast<int64_t>(seg.consensusPos)
                - static_cast<int64_t>(primary)));
            seglen_codec.encode(arrays.sga, arrays.sgga, seg.readLength);
        }

        bool first_event_of_read = true;
        for (const AlignedSegment &seg : cls.mapping.segments) {
            const std::vector<EditOp> &ops = ops_of(seg);
            count_codec.encode(arrays.mca, arrays.mcga, ops.size());

            uint32_t prev_pos = 0;
            uint64_t cons_j = seg.consensusPos;
            uint32_t read_i = 0;
            for (const EditOp &op : ops) {
                pos_codec.encode(arrays.mmpa, arrays.mmpga,
                                 op.readPos - prev_pos);
                prev_pos = op.readPos;

                // Advance the consensus walk to the event position so
                // the type-inference marker is well defined.
                cons_j += op.readPos - read_i;
                read_i = op.readPos;

                if (params.cornerTrick && first_event_of_read &&
                    op.readPos == 0) {
                    arrays.mbta.writeBit(false); // Real mismatch at 0.
                }
                first_event_of_read = false;

                const uint64_t marker_j =
                    std::min<uint64_t>(cons_j, consensus.size() - 1);
                if (params.inferTypes) {
                    if (op.type == EditType::Sub) {
                        const uint8_t code = baseToCode(op.bases[0]);
                        sage_assert(code < 4, "N base in mapped read");
                        sage_assert(op.bases[0] != consensus[marker_j],
                                    "substitution equals consensus");
                        arrays.mbta.writeBits(code, 2);
                    } else {
                        // Indel marker: the consensus base itself.
                        arrays.mbta.writeBits(
                            baseToCode(consensus[marker_j]) & 3, 2);
                        arrays.mbta.writeBit(op.type == EditType::Ins);
                    }
                } else {
                    arrays.mbta.writeBits(
                        static_cast<uint64_t>(op.type), 2);
                    if (op.type != EditType::Del) {
                        for (char c : op.bases) {
                            const uint8_t code = baseToCode(c);
                            sage_assert(code < 4, "N base in mapped read");
                            arrays.mbta.writeBits(code, 2);
                        }
                    }
                }

                if (op.type != EditType::Sub) {
                    if (params.tuneArrays) {
                        // Single-base flag in MMPGA; longer lengths as
                        // chained 8-bit fields in MMPA (paper §5.1.1).
                        arrays.mmpga.writeBit(op.length == 1);
                        if (op.length != 1)
                            writeIndelLength(arrays.mmpa, op.length);
                    }
                    if (params.inferTypes &&
                        op.type == EditType::Ins) {
                        for (char c : op.bases)
                            arrays.mbta.writeBits(baseToCode(c) & 3, 2);
                    }
                }

                // Update walk state past the event.
                if (op.type == EditType::Sub) {
                    cons_j++;
                    read_i++;
                } else if (op.type == EditType::Ins) {
                    read_i += op.length;
                } else {
                    cons_j += op.length;
                }
            }
        }
    }
}

} // namespace

SageArchive
sageCompress(const ReadSet &rs, std::string_view consensus,
             const SageConfig &config, ThreadPool *pool)
{
    StreamBundle bundle;
    SageArchive archive =
        sageEncodeToBundle(rs, consensus, config, pool, bundle);
    archive.bytes = bundle.serialize();
    return archive;
}

SageArchive
sageEncodeToBundle(const ReadSet &rs, std::string_view consensus,
                   const SageConfig &config, ThreadPool *pool,
                   StreamBundle &bundle)
{
    SageArchive archive;

    // A read's quality is empty or one character per base, as the FASTQ
    // parser also requires; the decoder refuses a chunk with any other.
    // A header is one line of the header stream, so it holds no '\n'.
    for (size_t i = 0; i < rs.reads.size(); i++) {
        const Read &read = rs.reads[i];
        if (config.keepQuality && !read.quals.empty() &&
            read.quals.size() != read.bases.size())
            sage_fatal("read ", i, " has ", read.quals.size(),
                       " quality characters for ", read.bases.size(),
                       " bases");
        if (read.header.find('\n') != std::string::npos)
            sage_fatal("read ", i, " has a header that holds a newline");
    }

    // ---- Find mismatch information (mapping) -------------------------
    Stopwatch map_clock;
    MapperConfig mapper_config = config.mapper;
    mapper_config.maxSegments = std::max(1u, config.maxSegments);
    PreppedReads prep = prepareReads(rs, consensus, mapper_config, pool);
    archive.mapSeconds = map_clock.seconds();

    if (!config.reorderReads) {
        // Pre-O1: keep original order.
        prep.order.resize(rs.reads.size());
        for (uint32_t i = 0; i < prep.order.size(); i++)
            prep.order[i] = i;
    }

    Stopwatch encode_clock;

    SageParams params;
    params.version = config.chunkReads > 0 ? kFormatVersionChunked
                                           : kFormatVersionLegacy;
    params.numReads = rs.reads.size();
    params.consensusLength = consensus.size();
    params.consensusTwoBit = isAcgtOnly(consensus);
    params.hasQuality = config.keepQuality && rs.hasQualityScores();
    params.preservedOrder = config.preserveOrder;
    params.reorderReads = config.reorderReads;
    params.tuneArrays = config.tuneArrays;
    params.maxSegments = std::max(1u, config.maxSegments);
    params.inferTypes = config.inferTypes;
    params.cornerTrick = config.cornerTrick;
    params.tuneMatchArrays = config.tuneMatchArrays;

    // Every stream below depends only on the encode order, so they are
    // written at once. The pool takes a job list, longest first: the
    // DNA arrays, then one job per quality block. Meanwhile this thread
    // cuts and gpzips the header blocks, then takes jobs too. The gpzip
    // working memory so lands in this thread's heap, which malloc_trim
    // returns to the system; a worker's heap keeps its freed top
    // resident. No job calls back into the pool.
    DnaStreams dna;
    HeaderArchive headers;
    std::optional<QualityEncoder> quality;
    if (params.hasQuality) {
        std::vector<std::string_view> quals;
        quals.reserve(prep.order.size());
        for (uint32_t src : prep.order)
            quals.emplace_back(rs.reads[src].quals);
        // No quality block spans two chunks, so a chunk's first read
        // decodes only its own blocks.
        quality.emplace(std::move(quals), config.quality, pool,
                        config.chunkReads);
    }
    const size_t jobs = 1 + (quality ? quality->blockCount() : 0);
    auto run_job = [&](size_t job) {
        if (job == 0)
            writeDnaStreams(rs, prep, consensus, config, params, dna);
        else
            quality->encodeBlock(job - 1);
    };
    auto write_headers = [&] {
        headers = compressHeaderBlocks(rs, prep.order, config.chunkReads);
    };
    if (pool != nullptr) {
        pool->parallelFor(jobs, run_job, write_headers);
    } else {
        for (size_t job = 0; job < jobs; job++)
            run_job(job);
        write_headers();
    }
    archive.tuneSeconds = dna.tuneSeconds;

    // ---- Assemble container -------------------------------------------
    bundle.stream("params") = params.serialize();
    {
        std::vector<uint8_t> cons;
        auto packed = packSequence(
            consensus, params.consensusTwoBit ? OutputFormat::TwoBit
                                              : OutputFormat::ThreeBit);
        cons.insert(cons.end(), packed.begin(), packed.end());
        bundle.stream("consensus") = std::move(cons);
    }
    bundle.stream("flags") = dna.arrays.flags.take();
    bundle.stream("mpa") = dna.arrays.mpa.take();
    bundle.stream("mpga") = dna.arrays.mpga.take();
    bundle.stream("rla") = dna.arrays.rla.take();
    bundle.stream("rlga") = dna.arrays.rlga.take();
    bundle.stream("sga") = dna.arrays.sga.take();
    bundle.stream("sgga") = dna.arrays.sgga.take();
    bundle.stream("mca") = dna.arrays.mca.take();
    bundle.stream("mcga") = dna.arrays.mcga.take();
    bundle.stream("mmpa") = dna.arrays.mmpa.take();
    bundle.stream("mmpga") = dna.arrays.mmpga.take();
    bundle.stream("mbta") = dna.arrays.mbta.take();
    bundle.stream("escape") = std::move(dna.escape);
    if (config.chunkReads > 0)
        bundle.stream("chunks") = dna.chunks.serialize();

    // Host-side streams: headers (gpzip blocks), order, quality (paper
    // §5.1.5).
    bundle.stream("headers") = packHeaders(headers);
    if (config.preserveOrder) {
        std::vector<uint8_t> order;
        for (uint32_t src : prep.order)
            putVarint(order, src);
        bundle.stream("order") = std::move(order);
    }
    if (quality)
        bundle.stream("quality") = packChunkedQuality(quality->take());

    archive.streamSizes = bundle.sizes();
    archive.encodeSeconds = encode_clock.seconds();
    for (const auto &[name, size] : archive.streamSizes) {
        if (name == "quality")
            archive.qualityBytes += size;
        else if (name == "headers" || name == "order")
            archive.metaBytes += size;
        else
            archive.dnaBytes += size;
    }
    return archive;
}

} // namespace sage
