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
 * adapt quickly even on short blocks.
 */
unsigned
contextOf(unsigned prev1, unsigned prev2, unsigned alphabet)
{
    const unsigned q2 = std::min(prev2 * 4 / std::max(1u, alphabet), 3u);
    return prev1 * 4 + q2;
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
        std::vector<AdaptiveModel> models(
            static_cast<size_t>(alphabet) * 4, AdaptiveModel(alphabet));
        unsigned prev1 = 0, prev2 = 0;
        for (uint64_t i = 0; i < len; i++) {
            const int sym =
                symbol_of[static_cast<uint8_t>(flat[off + i])];
            sage_assert(sym >= 0, "quality symbol missing from alphabet");
            models[contextOf(prev1, prev2, alphabet)]
                .encode(enc, static_cast<unsigned>(sym));
            prev2 = prev1;
            prev1 = static_cast<unsigned>(sym);
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

std::string
decompressQualityBlock(const QualityArchive &archive, size_t block_index)
{
    sage_check_data(block_index < archive.blocks.size(), Corrupt,
                "quality block index out of range");
    const unsigned alphabet = archive.alphabet.size();
    const auto &block = archive.blocks[block_index];
    const uint64_t len = archive.blockChars[block_index];

    RangeDecoder dec(block.data(), block.size());
    std::vector<AdaptiveModel> models(
        static_cast<size_t>(alphabet) * 4, AdaptiveModel(alphabet));
    std::string out;
    out.reserve(len);
    unsigned prev1 = 0, prev2 = 0;
    for (uint64_t i = 0; i < len; i++) {
        const unsigned sym =
            models[contextOf(prev1, prev2, alphabet)].decode(dec);
        out.push_back(archive.alphabet[sym]);
        prev2 = prev1;
        prev1 = sym;
    }
    return out;
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

} // namespace sage
