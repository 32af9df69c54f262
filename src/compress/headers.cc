#include "compress/headers.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "compress/gpzip.hh"
#include "genomics/read.hh"
#include "util/status.hh"
#include "util/varint.hh"

namespace sage {

namespace {

/** First byte of a blocked header stream. A bare gpzip container, the
 *  layout before blocks, starts with its magic's 'G'. */
constexpr uint8_t kBlockedLayout = 0;
constexpr uint8_t kGpzipMagicByte = 'G';

/** starts_ of an empty chunk's ChunkHeaders: no line to index. */
constexpr uint32_t kNoLines[1] = {0};

/** Where one block lies in a header stream, and its line count. */
struct BlockRow
{
    uint64_t lines = 0;
    size_t offset = 0;
    size_t size = 0;
};

/** The block table of header stream @p bytes, for @p reads reads (the
 *  checks of unpackHeaders()). */
std::vector<BlockRow>
parseTable(const std::vector<uint8_t> &bytes, uint64_t reads)
{
    sage_check_data(!bytes.empty(), Truncated, "empty header stream");
    if (bytes[0] == kGpzipMagicByte)
        return {BlockRow{reads, 0, bytes.size()}};
    sage_check_data(bytes[0] == kBlockedLayout, Corrupt,
                    "header stream layout ", unsigned(bytes[0]),
                    " unknown");
    size_t pos = 1;
    // A table row takes at least two bytes: bound the count by the
    // bytes left before anything is allocated for it.
    const uint64_t blocks = getVarint(bytes, pos);
    sage_check_data(blocks <= (bytes.size() - pos) / 2, Truncated,
                    "header block table runs past the stream end");
    std::vector<BlockRow> rows(static_cast<size_t>(blocks));
    uint64_t lines = 0;
    for (BlockRow &row : rows) {
        row.lines = getVarint(bytes, pos);
        sage_check_data(row.lines <= reads - lines, Corrupt,
                        "header blocks hold more lines than the archive's ",
                        reads, " reads");
        lines += row.lines;
        const uint64_t size = getVarint(bytes, pos);
        sage_check_data(size <= bytes.size(), Truncated,
                        "header block runs past the stream end");
        row.size = static_cast<size_t>(size);
    }
    sage_check_data(lines == reads, Corrupt, "header blocks hold ", lines,
                    " lines for ", reads, " reads");
    for (BlockRow &row : rows) {
        sage_check_data(row.size <= bytes.size() - pos, Truncated,
                        "header block runs past the stream end");
        row.offset = pos;
        pos += row.size;
    }
    sage_check_data(pos == bytes.size(), Corrupt, "header stream holds ",
                    bytes.size() - pos, " bytes past its last block");
    return rows;
}

} // namespace

HeaderArchive
compressHeaderBlocks(const ReadSet &rs, const std::vector<uint32_t> &order,
                     uint64_t chunkReads)
{
    HeaderArchive archive;
    std::string text;
    uint64_t lines = 0;
    auto end_block = [&] {
        archive.blockLines.push_back(lines);
        archive.blocks.push_back(gpzip::compress(text));
        text.clear();
        lines = 0;
    };
    for (size_t i = 0; i < order.size(); i++) {
        if (chunkReads > 0 && i % chunkReads == 0 &&
            text.size() >= kHeaderBlockBytes)
            end_block();
        text += rs.reads[order[i]].header;
        text += '\n';
        lines++;
    }
    end_block();
    return archive;
}

std::vector<uint8_t>
packHeaders(const HeaderArchive &archive)
{
    std::vector<uint8_t> out = {kBlockedLayout};
    putVarint(out, archive.blocks.size());
    for (size_t b = 0; b < archive.blocks.size(); b++) {
        putVarint(out, archive.blockLines[b]);
        putVarint(out, archive.blocks[b].size());
    }
    for (const std::vector<uint8_t> &block : archive.blocks)
        out.insert(out.end(), block.begin(), block.end());
    return out;
}

HeaderArchive
unpackHeaders(const std::vector<uint8_t> &bytes, uint64_t reads)
{
    HeaderArchive archive;
    for (const BlockRow &row : parseTable(bytes, reads)) {
        archive.blockLines.push_back(row.lines);
        archive.blocks.emplace_back(bytes.begin() + row.offset,
                                    bytes.begin() + row.offset + row.size);
    }
    return archive;
}

HeaderStore::HeaderStore(std::vector<uint8_t> stream, uint64_t reads,
                         const std::vector<uint64_t> &chunkReads)
    : stream_(std::move(stream))
{
    const std::vector<BlockRow> rows = parseTable(stream_, reads);
    const size_t blocks = rows.size();
    blocks_ = std::make_unique<LazyBlock<Lines>[]>(blocks);
    blockLines_.reserve(blocks);
    for (size_t b = 0; b < blocks; b++) {
        blockLines_.push_back(rows[b].lines);
        blocks_[b].payload = stream_.data() + rows[b].offset;
        blocks_[b].size = rows[b].size;
    }

    // Walk chunks and blocks together: each chunk's reads must lie in
    // the block that holds its first read.
    chunkPlace_.reserve(chunkReads.size());
    size_t b = 0;
    uint64_t block_first = 0;  // Line of block b's first header.
    uint64_t first = 0;        // Line of this chunk's first header.
    for (size_t c = 0; c < chunkReads.size(); c++) {
        const uint64_t chunk_reads = chunkReads[c];
        if (chunk_reads == 0) {
            chunkPlace_.push_back({blocks, 0});
            continue;
        }
        while (b < blocks && first - block_first >= blockLines_[b])
            block_first += blockLines_[b++];
        sage_check_data(b < blocks && chunk_reads <= blockLines_[b] -
                                                        (first - block_first),
                        Corrupt, "chunk ", c,
                        "'s headers do not lie in one header block");
        chunkPlace_.push_back({b, first - block_first});
        first += chunk_reads;
    }
}

ChunkHeaders
HeaderStore::chunk(size_t chunk) const
{
    const Place place = chunkPlace_[chunk];
    if (place.block == blockLines_.size())
        return ChunkHeaders("", kNoLines);
    const uint64_t expect = blockLines_[place.block];
    const Lines &lines =
        blocks_[place.block].get([&](const uint8_t *payload, size_t size) {
            StatusOr<std::vector<uint8_t>> text =
                gpzip::tryDecompress(payload, size);
            if (!text.ok())
                throw StatusError(text.status());
            Lines out;
            out.text = std::move(text.value());
            const size_t bytes = out.text.size();
            sage_check_data(bytes <= UINT32_MAX, Corrupt, "header block of ",
                            bytes, " bytes exceeds 4 GiB");
            // Every line takes at least its newline.
            out.starts.reserve(
                static_cast<size_t>(std::min<uint64_t>(expect, bytes)) + 1);
            out.starts.push_back(0);
            const uint8_t *data = out.text.data();
            for (size_t at = 0; at < bytes;) {
                const void *newline =
                    std::memchr(data + at, '\n', bytes - at);
                sage_check_data(newline != nullptr, Corrupt,
                                "header block ends inside a line");
                at = static_cast<size_t>(
                         static_cast<const uint8_t *>(newline) - data) + 1;
                out.starts.push_back(static_cast<uint32_t>(at));
            }
            sage_check_data(out.starts.size() - 1 == expect, Corrupt,
                            "header block holds ", out.starts.size() - 1,
                            " lines; its table says ", expect);
            return out;
        });
    return ChunkHeaders(reinterpret_cast<const char *>(lines.text.data()),
                        lines.starts.data() + place.line);
}

} // namespace sage
