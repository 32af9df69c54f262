#include "compress/quality.hh"

#include <algorithm>
#include <array>

#include "compress/range_coder.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"
#include "util/varint.hh"

namespace sage {

namespace {

/**
 * Context for the order-2 model: previous symbol (full resolution) and
 * the symbol before it (quantized to 4 levels). Small enough that models
 * adapt quickly even on short blocks. The quantization is an
 * alphabet-sized table, so the per-symbol loop does no division.
 */
class QualityContext
{
  public:
    explicit QualityContext(unsigned alphabet) : alphabet_(alphabet)
    {
        for (unsigned s = 0; s < alphabet; s++)
            level_[s] = static_cast<uint8_t>(std::min(s * 4 / alphabet, 3u));
    }

    /** Number of distinct contexts. */
    unsigned count() const { return alphabet_ * 4; }

    /** Context of the next symbol. */
    unsigned current() const { return prev1_ * 4 + level_[prev2_]; }

    void
    push(unsigned symbol)
    {
        prev2_ = prev1_;
        prev1_ = symbol;
    }

  private:
    unsigned alphabet_;
    std::array<uint8_t, 256> level_{};
    unsigned prev1_ = 0, prev2_ = 0;
};

/** How many reads ahead QualityEncoder prefetches. */
constexpr size_t kPrefetchReads = 8;

/** Quality alphabets index byte values: 1..256 symbols. */
void
checkAlphabet(uint64_t size)
{
    sage_check_data(size >= 1 && size <= 256, Corrupt,
                    "quality alphabet of ", size,
                    " symbols (want 1..256)");
}

/** Range-decode one block of @p chars characters. */
std::string
decodeBlock(const std::string &alphabet,
            const std::vector<uint8_t> &payload, uint64_t chars)
{
    checkAlphabet(alphabet.size());
    const auto symbols = static_cast<unsigned>(alphabet.size());
    QualityContext context(symbols);
    AdaptiveModel models(symbols, context.count());
    RangeDecoder dec(payload.data(), payload.size());
    std::string out;
    out.reserve(chars);
    for (uint64_t i = 0; i < chars; i++) {
        const unsigned sym = models.decode(dec, context.current());
        out.push_back(alphabet[sym]);
        context.push(sym);
    }
    return out;
}

} // namespace

uint64_t
QualityArchive::compressedBytes() const
{
    uint64_t bytes = alphabet.size() + 16;
    for (const auto &block : blocks)
        bytes += block.size() + 8;
    // Read lengths ride along as ~1-2 byte varints in a real container;
    // count 2 bytes each as a faithful estimate.
    bytes += readLengths.size() * 2;
    return bytes;
}

uint64_t
QualityArchive::totalChars() const
{
    uint64_t total = 0;
    for (uint64_t n : blockChars)
        total += n;
    return total;
}

template <typename Fn>
void
QualityEncoder::forEachPiece(size_t b, Fn &&fn) const
{
    uint64_t left = archive_.blockChars[b];
    size_t offset = blockStart_[b].offset;
    for (size_t r = blockStart_[b].read; left > 0; r++, offset = 0) {
        // The strings lie scattered in encode order: fetch a few reads
        // ahead so their cache misses overlap.
        if (r + kPrefetchReads < quals_.size()) {
            const std::string_view ahead = quals_[r + kPrefetchReads];
            for (size_t at = 0; at < ahead.size(); at += 64)
                __builtin_prefetch(ahead.data() + at);
        }
        const std::string_view piece = quals_[r].substr(
            offset, static_cast<size_t>(
                        std::min<uint64_t>(left, quals_[r].size() - offset)));
        fn(piece);
        left -= piece.size();
    }
}

QualityEncoder::QualityEncoder(std::vector<std::string_view> quals,
                               const QualityConfig &config,
                               ThreadPool *pool)
    : quals_(std::move(quals))
{
    sage_assert(config.blockChars > 0, "quality blocks of zero characters");
    uint64_t total = 0;
    archive_.readLengths.reserve(quals_.size());
    for (std::string_view q : quals_) {
        archive_.readLengths.push_back(static_cast<uint32_t>(q.size()));
        total += q.size();
    }

    // Cut the characters into blocks (an empty input still gets one
    // empty block) and find the read each block starts in.
    const uint64_t block_chars = config.blockChars;
    const size_t blocks = total == 0
        ? 1
        : static_cast<size_t>((total + block_chars - 1) / block_chars);
    archive_.blocks.resize(blocks);
    archive_.blockChars.resize(blocks);
    blockStart_.resize(blocks);
    for (size_t b = 0; b < blocks; b++)
        archive_.blockChars[b] =
            std::min<uint64_t>(block_chars, total - b * block_chars);
    uint64_t at = 0, next = 0;
    size_t b = 0;
    for (size_t r = 0; r < quals_.size() && b < blocks; r++) {
        const uint64_t len = quals_[r].size();
        for (; b < blocks && next < at + len; b++, next += block_chars)
            blockStart_[b] = {r, static_cast<size_t>(next - at)};
        at += len;
    }

    // Which characters each block holds, on the pool.
    std::vector<std::array<bool, 256>> present(blocks);
    auto scan_block = [&](size_t blk) {
        std::array<bool, 256> &seen = present[blk];
        seen.fill(false);
        forEachPiece(blk, [&](std::string_view piece) {
            for (char c : piece)
                seen[static_cast<uint8_t>(c)] = true;
        });
    };
    if (pool != nullptr) {
        pool->parallelFor(blocks, scan_block);
    } else {
        for (size_t blk = 0; blk < blocks; blk++)
            scan_block(blk);
    }
    std::array<bool, 256> any{};
    for (const auto &seen : present) {
        for (unsigned c = 0; c < 256; c++)
            any[c] = any[c] || seen[c];
    }
    const auto symbols =
        static_cast<size_t>(std::count(any.begin(), any.end(), true));

    // The alphabet in order of first appearance: scan only the blocks
    // that hold a character not yet seen, and stop at the last one.
    symbolOf_.fill(-1);
    auto first_seen = [&](std::string_view piece) {
        if (archive_.alphabet.size() == symbols)
            return;
        for (char c : piece) {
            const auto u = static_cast<uint8_t>(c);
            if (symbolOf_[u] < 0) {
                symbolOf_[u] = static_cast<int>(archive_.alphabet.size());
                archive_.alphabet.push_back(c);
            }
        }
    };
    for (size_t blk = 0; blk < blocks && archive_.alphabet.size() < symbols;
         blk++) {
        bool adds = false;
        for (unsigned c = 0; c < 256 && !adds; c++)
            adds = present[blk][c] && symbolOf_[c] < 0;
        if (adds)
            forEachPiece(blk, first_seen);
    }
    if (archive_.alphabet.empty())
        archive_.alphabet.push_back('!');
}

void
QualityEncoder::encodeBlock(size_t b)
{
    const auto alphabet = static_cast<unsigned>(archive_.alphabet.size());
    RangeEncoder enc;
    QualityContext context(alphabet);
    AdaptiveModel models(alphabet, context.count());
    forEachPiece(b, [&](std::string_view piece) {
        for (char c : piece) {
            const int sym = symbolOf_[static_cast<uint8_t>(c)];
            sage_assert(sym >= 0, "quality symbol missing from alphabet");
            models.encode(enc, static_cast<unsigned>(sym),
                          context.current());
            context.push(static_cast<unsigned>(sym));
        }
    });
    archive_.blocks[b] = enc.finish();
}

QualityArchive
compressQuality(std::vector<std::string_view> quals,
                const QualityConfig &config, ThreadPool *pool)
{
    QualityEncoder encoder(std::move(quals), config, pool);
    const size_t blocks = encoder.blockCount();
    if (pool != nullptr) {
        pool->parallelFor(blocks, [&](size_t b) { encoder.encodeBlock(b); });
    } else {
        for (size_t b = 0; b < blocks; b++)
            encoder.encodeBlock(b);
    }
    return encoder.take();
}

QualityArchive
compressQuality(const std::vector<std::string> &quals,
                const QualityConfig &config, ThreadPool *pool)
{
    return compressQuality(
        std::vector<std::string_view>(quals.begin(), quals.end()), config,
        pool);
}

std::vector<uint8_t>
packQuality(const QualityArchive &archive)
{
    std::vector<uint8_t> out;
    putVarint(out, archive.alphabet.size());
    out.insert(out.end(), archive.alphabet.begin(), archive.alphabet.end());
    putVarint(out, archive.readLengths.size());
    for (uint32_t len : archive.readLengths)
        putVarint(out, len);
    putVarint(out, archive.blocks.size());
    for (size_t b = 0; b < archive.blocks.size(); b++) {
        putVarint(out, archive.blockChars[b]);
        putVarint(out, archive.blocks[b].size());
        out.insert(out.end(), archive.blocks[b].begin(),
                   archive.blocks[b].end());
    }
    return out;
}

QualityArchive
unpackQuality(const std::vector<uint8_t> &bytes)
{
    QualityArchive qa;
    size_t pos = 0;
    const uint64_t alpha_len = getVarint(bytes, pos);
    checkAlphabet(alpha_len);
    sage_check_data(alpha_len <= bytes.size() - pos, Truncated,
                    "quality alphabet runs past the stream end");
    qa.alphabet.assign(bytes.begin() + pos, bytes.begin() + pos + alpha_len);
    pos += alpha_len;
    // Every varint takes at least one byte, so each count is bounded by
    // the bytes left before anything is allocated for it.
    const uint64_t reads = getVarint(bytes, pos);
    sage_check_data(reads <= bytes.size() - pos, Truncated,
                    "quality read lengths run past the stream end");
    qa.readLengths.reserve(reads);
    for (uint64_t i = 0; i < reads; i++) {
        const uint64_t len = getVarint(bytes, pos);
        sage_check_data(len <= UINT32_MAX, Corrupt, "quality length ", len,
                        " out of range");
        qa.readLengths.push_back(static_cast<uint32_t>(len));
    }
    const uint64_t blocks = getVarint(bytes, pos);
    sage_check_data(blocks <= (bytes.size() - pos) / 2, Truncated,
                    "quality block table runs past the stream end");
    qa.blockChars.reserve(blocks);
    qa.blocks.reserve(blocks);
    for (uint64_t b = 0; b < blocks; b++) {
        qa.blockChars.push_back(getVarint(bytes, pos));
        const uint64_t size = getVarint(bytes, pos);
        sage_check_data(size <= bytes.size() - pos, Truncated,
                        "quality block runs past the stream end");
        qa.blocks.emplace_back(bytes.begin() + pos,
                               bytes.begin() + pos + size);
        pos += size;
    }
    return qa;
}

std::string
decompressQualityBlock(const QualityArchive &archive, size_t block_index)
{
    sage_check_data(block_index < archive.blocks.size(), Corrupt,
                "quality block index out of range");
    return decodeBlock(archive.alphabet, archive.blocks[block_index],
                       archive.blockChars[block_index]);
}

std::vector<std::string>
decompressQuality(const QualityArchive &archive)
{
    std::string flat;
    flat.reserve(archive.totalChars());
    for (size_t b = 0; b < archive.blocks.size(); b++)
        flat += decompressQualityBlock(archive, b);

    std::vector<std::string> out;
    out.reserve(archive.readLengths.size());
    uint64_t off = 0;
    for (uint32_t len : archive.readLengths) {
        out.push_back(flat.substr(off, len));
        off += len;
    }
    sage_check_data(off == flat.size(), Corrupt,
                    "quality archive length mismatch");
    return out;
}

QualityStore::QualityStore(QualityArchive archive)
    : alphabet_(std::move(archive.alphabet)),
      blocks_(std::make_unique<Block[]>(archive.blocks.size()))
{
    readStart_.reserve(archive.readLengths.size() + 1);
    uint64_t chars = 0;
    readStart_.push_back(chars);
    for (uint32_t len : archive.readLengths) {
        sage_check_data(len <= UINT64_MAX - chars, Corrupt,
                        "quality lengths overflow");
        chars += len;
        readStart_.push_back(chars);
    }
    blockStart_.reserve(archive.blocks.size() + 1);
    uint64_t at = 0;
    blockStart_.push_back(at);
    for (size_t b = 0; b < archive.blocks.size(); b++) {
        sage_check_data(archive.blockChars[b] <= chars - at, Corrupt,
                        "quality blocks hold more characters than the "
                        "reads");
        at += archive.blockChars[b];
        blockStart_.push_back(at);
        blocks_[b].payload = std::move(archive.blocks[b]);
    }
    sage_check_data(at == chars, Corrupt,
                    "quality blocks hold fewer characters than the reads");
}

void
QualityStore::appendRead(uint64_t index, std::string &out) const
{
    sage_assert(index < readCount(), "quality read index out of range");
    uint64_t at = readStart_[index];
    const uint64_t end = readStart_[index + 1];
    if (at == end)
        return;
    // The last block that starts at or before the read's first character.
    size_t b = static_cast<size_t>(
        std::upper_bound(blockStart_.begin(), blockStart_.end() - 1, at) -
        blockStart_.begin() - 1);
    // Reserve only when short: one exact allocation for a fresh
    // string, none for a column arena sized up front.
    if (out.capacity() - out.size() < end - at)
        out.reserve(out.size() + (end - at));
    for (; at < end; b++) {
        const uint64_t stop = std::min(end, blockStart_[b + 1]);
        out.append(decoded(b), at - blockStart_[b], stop - at);
        at = stop;
    }
}

const std::string &
QualityStore::decoded(size_t b) const
{
    Block &block = blocks_[b];
    if (!block.ready.load()) {
        std::lock_guard<std::mutex> lock(block.mutex);
        if (!block.ready.load()) {
            // Assigned only once the decode returns: a throw leaves the
            // block empty and not ready, so the next reader retries.
            block.chars = decodeBlock(alphabet_, block.payload,
                                      blockStart_[b + 1] - blockStart_[b]);
            block.ready.store(true);
        }
    }
    return block.chars;
}

} // namespace sage
