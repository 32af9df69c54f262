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

QualityArchive
compressQuality(const std::vector<std::string> &quals,
                const QualityConfig &config, ThreadPool *pool)
{
    QualityArchive archive;

    // Flatten characters; record per-read lengths.
    size_t total = 0;
    for (const auto &q : quals)
        total += q.size();
    std::string flat;
    flat.reserve(total);
    archive.readLengths.reserve(quals.size());
    for (const auto &q : quals) {
        archive.readLengths.push_back(static_cast<uint32_t>(q.size()));
        flat += q;
    }

    // Build the alphabet map in order of first appearance.
    std::array<int, 256> symbol_of;
    symbol_of.fill(-1);
    for (char c : flat) {
        const auto u = static_cast<uint8_t>(c);
        if (symbol_of[u] < 0) {
            symbol_of[u] = static_cast<int>(archive.alphabet.size());
            archive.alphabet.push_back(c);
        }
    }
    if (archive.alphabet.empty())
        archive.alphabet.push_back('!');
    const unsigned alphabet = archive.alphabet.size();

    // Encode independent blocks with fresh model state each (an empty
    // input still gets one empty block).
    const uint64_t block_chars = config.blockChars;
    const size_t blocks = flat.empty()
        ? 1
        : static_cast<size_t>((flat.size() + block_chars - 1) / block_chars);
    archive.blocks.resize(blocks);
    archive.blockChars.resize(blocks);
    auto encode_block = [&](size_t b) {
        const uint64_t off = b * block_chars;
        const uint64_t len =
            std::min<uint64_t>(block_chars, flat.size() - off);
        RangeEncoder enc;
        QualityContext context(alphabet);
        AdaptiveModel models(alphabet, context.count());
        for (uint64_t i = 0; i < len; i++) {
            const int sym =
                symbol_of[static_cast<uint8_t>(flat[off + i])];
            sage_assert(sym >= 0, "quality symbol missing from alphabet");
            models.encode(enc, static_cast<unsigned>(sym),
                          context.current());
            context.push(static_cast<unsigned>(sym));
        }
        archive.blocks[b] = enc.finish();
        archive.blockChars[b] = len;
    };
    if (pool != nullptr) {
        pool->parallelFor(blocks, encode_block);
    } else {
        for (size_t b = 0; b < blocks; b++)
            encode_block(b);
    }
    return archive;
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

std::string
QualityStore::read(uint64_t index) const
{
    sage_assert(index < readCount(), "quality read index out of range");
    uint64_t at = readStart_[index];
    const uint64_t end = readStart_[index + 1];
    if (at == end)
        return {};
    // The last block that starts at or before the read's first character.
    size_t b = static_cast<size_t>(
        std::upper_bound(blockStart_.begin(), blockStart_.end() - 1, at) -
        blockStart_.begin() - 1);
    if (end <= blockStart_[b + 1])
        return decoded(b).substr(at - blockStart_[b], end - at);
    std::string out;
    out.reserve(end - at);
    for (; at < end; b++) {
        const uint64_t stop = std::min(end, blockStart_[b + 1]);
        out.append(decoded(b), at - blockStart_[b], stop - at);
        at = stop;
    }
    return out;
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
