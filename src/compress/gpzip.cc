#include "compress/gpzip.hh"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#include "util/bitio.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/prefix_code.hh"
#include "util/thread_pool.hh"
#include "util/status.hh"
#include "util/varint.hh"

namespace sage {
namespace gpzip {

namespace {

constexpr uint32_t kMagic = 0x315a5047; // "GPZ1" little-endian.
constexpr unsigned kMinMatch = 4;
constexpr unsigned kMaxMatch = 258;
// Max match distance: the distance slot table covers exactly 1..32768.
constexpr size_t kWindowSize = 32768;

// Length slot table (base + extra-bit layout), covering lengths 4..259.
constexpr unsigned kNumLenSlots = 28;
constexpr uint16_t kLenBase[kNumLenSlots] = {
    4, 5, 6, 7, 8, 9, 10, 11,          // extra 0
    12, 14, 16, 18,                     // extra 1
    20, 24, 28, 32,                     // extra 2
    36, 44, 52, 60,                     // extra 3
    68, 84, 100, 116,                   // extra 4
    132, 164, 196, 228,                 // extra 5
};
constexpr uint8_t kLenExtra[kNumLenSlots] = {
    0, 0, 0, 0, 0, 0, 0, 0,
    1, 1, 1, 1,
    2, 2, 2, 2,
    3, 3, 3, 3,
    4, 4, 4, 4,
    5, 5, 5, 5,
};

// Distance slot table, distances 1..65535.
constexpr unsigned kNumDistSlots = 30;
constexpr uint32_t kDistBase[kNumDistSlots] = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193,
    12289, 16385, 24577,
};
constexpr uint8_t kDistExtra[kNumDistSlots] = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
};

/** The longest match the length slots can code (228 + 31). */
constexpr uint64_t kMaxMatchBytes = 259;

constexpr unsigned kEobSymbol = 256;
constexpr unsigned kNumLitLen = 256 + 1 + kNumLenSlots; // 285 symbols.

/** Slot index for a match length (largest base not exceeding len). */
unsigned
lengthSlot(unsigned len)
{
    unsigned s = kNumLenSlots - 1;
    while (s > 0 && kLenBase[s] > len)
        s--;
    return s;
}

/** Slot index for a distance. */
unsigned
distanceSlot(uint32_t dist)
{
    unsigned s = kNumDistSlots - 1;
    while (s > 0 && kDistBase[s] > dist)
        s--;
    return s;
}

/** One LZ token: literal (dist == 0) or match. */
struct Token
{
    uint8_t literal = 0;
    uint16_t length = 0;
    uint32_t distance = 0; // 0 => literal token.
};

/** Hash of the next 4 bytes at p. */
inline uint32_t
hash4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - 17);
}

/** LZ77 parse of one block using hash chains. */
std::vector<Token>
lzParse(const uint8_t *data, size_t size, const Config &config)
{
    std::vector<Token> tokens;
    tokens.reserve(size / 3);

    constexpr size_t kHashSize = size_t(1) << 17;
    std::vector<int32_t> head(kHashSize, -1);
    // Chain links for the last kWindowSize positions only: a search
    // never follows a candidate more than kWindowSize - 1 back, and
    // every position it reaches was inserted less than kWindowSize
    // positions ago, so its ring slot still holds its own link.
    constexpr size_t kRingMask = kWindowSize - 1;
    std::vector<int32_t> prev(kWindowSize, -1);

    auto find_match = [&](size_t pos, unsigned &best_len,
                          uint32_t &best_dist) {
        best_len = 0;
        best_dist = 0;
        if (pos + kMinMatch > size)
            return;
        int32_t cand = head[hash4(data + pos)];
        unsigned chain = config.maxChain;
        const size_t limit = std::min(size - pos, size_t(kMaxMatch));
        while (cand >= 0 && chain-- > 0) {
            const size_t cpos = static_cast<size_t>(cand);
            if (pos - cpos > kWindowSize - 1)
                break;
            // Quick reject on the byte after the current best.
            if (best_len == 0 ||
                (cpos + best_len < size &&
                 data[cpos + best_len] == data[pos + best_len])) {
                size_t len = 0;
                while (len < limit && data[cpos + len] == data[pos + len])
                    len++;
                if (len >= kMinMatch && len > best_len) {
                    best_len = static_cast<unsigned>(len);
                    best_dist = static_cast<uint32_t>(pos - cpos);
                    if (len == limit)
                        break;
                }
            }
            cand = prev[cpos & kRingMask];
        }
    };

    auto insert = [&](size_t pos) {
        if (pos + 4 <= size) {
            const uint32_t h = hash4(data + pos);
            prev[pos & kRingMask] = head[h];
            head[h] = static_cast<int32_t>(pos);
        }
    };

    size_t pos = 0;
    while (pos < size) {
        unsigned len;
        uint32_t dist;
        find_match(pos, len, dist);

        // One-step lazy matching: prefer a longer match at pos+1.
        if (config.lazy && len >= kMinMatch && pos + 1 < size) {
            insert(pos);
            unsigned len2;
            uint32_t dist2;
            find_match(pos + 1, len2, dist2);
            if (len2 > len + 1) {
                tokens.push_back({data[pos], 0, 0});
                pos++;
                len = len2;
                dist = dist2;
            }
        } else if (len >= kMinMatch) {
            insert(pos);
        }

        if (len >= kMinMatch) {
            tokens.push_back({0, static_cast<uint16_t>(len), dist});
            // Insert positions covered by the match (sparsely for speed).
            const size_t end = pos + len;
            for (size_t p = pos + 1; p < end && p + 4 <= size;
                 p += (len > 64 ? 7 : 1)) {
                insert(p);
            }
            pos = end;
        } else {
            insert(pos);
            tokens.push_back({data[pos], 0, 0});
            pos++;
        }
    }
    return tokens;
}

/** Huffman-encode a token stream into a self-contained block. */
std::vector<uint8_t>
encodeBlock(const std::vector<Token> &tokens)
{
    std::vector<uint64_t> lit_freq(kNumLitLen, 0);
    std::vector<uint64_t> dist_freq(kNumDistSlots, 0);
    lit_freq[kEobSymbol] = 1;
    for (const auto &tok : tokens) {
        if (tok.distance == 0) {
            lit_freq[tok.literal]++;
        } else {
            lit_freq[257 + lengthSlot(tok.length)]++;
            dist_freq[distanceSlot(tok.distance)]++;
        }
    }

    const PrefixCode lit_code = PrefixCode::fromFrequencies(lit_freq);
    const PrefixCode dist_code = PrefixCode::fromFrequencies(dist_freq);

    BitWriter bw;
    for (uint8_t len : lit_code.lengths())
        bw.writeBits(len, 4);
    for (uint8_t len : dist_code.lengths())
        bw.writeBits(len, 4);

    for (const auto &tok : tokens) {
        if (tok.distance == 0) {
            lit_code.encode(bw, tok.literal);
        } else {
            const unsigned ls = lengthSlot(tok.length);
            lit_code.encode(bw, 257 + ls);
            bw.writeBits(tok.length - kLenBase[ls], kLenExtra[ls]);
            const unsigned ds = distanceSlot(tok.distance);
            dist_code.encode(bw, ds);
            bw.writeBits(tok.distance - kDistBase[ds], kDistExtra[ds]);
        }
    }
    lit_code.encode(bw, kEobSymbol);
    return bw.take();
}

/** Decode the @p size-byte block at @p block into exactly the
 *  @p expect bytes at @p out: Corrupt as soon as a literal or a match
 *  would pass their end, or when the block ends short of it. */
void
decodeBlock(const uint8_t *block, size_t size, uint8_t *out,
            size_t expect)
{
    BitReader br(block, size);
    std::vector<uint8_t> lit_lens(kNumLitLen), dist_lens(kNumDistSlots);
    for (auto &len : lit_lens)
        len = static_cast<uint8_t>(br.readBits(4));
    for (auto &len : dist_lens)
        len = static_cast<uint8_t>(br.readBits(4));
    const PrefixCode lit_code = PrefixCode::fromLengths(lit_lens);
    const PrefixCode dist_code = PrefixCode::fromLengths(dist_lens);

    size_t pos = 0;
    for (;;) {
        const unsigned sym = lit_code.decode(br);
        if (sym < 256) {
            sage_check_data(pos < expect, Corrupt,
                            "gpzip block decodes past its ", expect,
                            " declared bytes");
            out[pos++] = static_cast<uint8_t>(sym);
            continue;
        }
        if (sym == kEobSymbol)
            break;
        const unsigned ls = sym - 257;
        sage_check_data(ls < kNumLenSlots, Corrupt,
                        "corrupt gpzip length slot");
        const size_t len = kLenBase[ls]
            + static_cast<size_t>(br.readBits(kLenExtra[ls]));
        const unsigned ds = dist_code.decode(br);
        sage_check_data(ds < kNumDistSlots, Corrupt,
                        "corrupt gpzip distance slot");
        const size_t dist = kDistBase[ds]
            + static_cast<size_t>(br.readBits(kDistExtra[ds]));
        sage_check_data(dist <= pos && dist > 0, Corrupt,
                        "gpzip distance out of range");
        sage_check_data(len <= expect - pos, Corrupt,
                        "gpzip block decodes past its ", expect,
                        " declared bytes");
        // Byte by byte: overlapping copies are valid LZ77 (run
        // encoding).
        uint8_t *dst = out + pos;
        for (size_t i = 0; i < len; i++)
            dst[i] = dst[i - dist];
        pos += len;
    }
    sage_check_data(pos == expect, Corrupt,
                    "gpzip block decoded to unexpected size");
}

} // namespace

std::vector<uint8_t>
compress(const uint8_t *data, size_t size, const Config &config,
         ThreadPool *pool)
{
    const size_t block_size = std::max<size_t>(config.blockSize, 1024);
    const size_t num_blocks = size == 0 ? 0
        : (size + block_size - 1) / block_size;

    std::vector<std::vector<uint8_t>> blocks(num_blocks);
    auto do_block = [&](size_t b) {
        const size_t off = b * block_size;
        const size_t len = std::min(block_size, size - off);
        blocks[b] = encodeBlock(lzParse(data + off, len, config));
    };
    if (pool != nullptr && num_blocks > 1)
        pool->parallelFor(num_blocks, do_block);
    else
        for (size_t b = 0; b < num_blocks; b++)
            do_block(b);

    std::vector<uint8_t> archive;
    archive.reserve(size / 3 + 64);
    for (int i = 0; i < 4; i++)
        archive.push_back(static_cast<uint8_t>(kMagic >> (8 * i)));
    putVarint(archive, size);
    putVarint(archive, block_size);
    putVarint(archive, num_blocks);
    for (const auto &block : blocks)
        putVarint(archive, block.size());
    const uint32_t crc = Crc32::of(data, size);
    for (int i = 0; i < 4; i++)
        archive.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    for (const auto &block : blocks)
        archive.insert(archive.end(), block.begin(), block.end());
    return archive;
}

std::vector<uint8_t>
compress(std::string_view text, const Config &config, ThreadPool *pool)
{
    return compress(reinterpret_cast<const uint8_t *>(text.data()),
                    text.size(), config, pool);
}

namespace {

/** Parsed container header. */
struct Header
{
    uint64_t originalSize;
    uint64_t blockSize;
    std::vector<std::pair<size_t, size_t>> blocks; // (offset, size)
    uint32_t crc;
};

/** Decoded size block @p b declares: blockSize, or what is left for
 *  the last block. */
uint64_t
blockBytes(const Header &hdr, size_t b)
{
    return std::min<uint64_t>(hdr.blockSize,
                              hdr.originalSize - b * hdr.blockSize);
}

Header
parseHeader(const uint8_t *archive, size_t size)
{
    size_t pos = 0;
    sage_check_data(size >= 8, Truncated, "gpzip archive too small");
    uint32_t magic = 0;
    for (int i = 0; i < 4; i++)
        magic |= static_cast<uint32_t>(archive[pos++]) << (8 * i);
    if (magic != kMagic)
        sage_check_data(false, Corrupt, "not a gpzip archive (bad magic)");
    Header hdr;
    hdr.originalSize = getVarint(archive, size, pos);
    hdr.blockSize = getVarint(archive, size, pos);
    const uint64_t num_blocks = getVarint(archive, size, pos);
    // Each block size takes at least one byte.
    sage_check_data(num_blocks <= size - pos, Truncated,
                    "gpzip archive truncated");
    std::vector<uint64_t> sizes(num_blocks);
    for (auto &s : sizes)
        s = getVarint(archive, size, pos);
    sage_check_data(pos + 4 <= size, Truncated, "gpzip archive truncated");
    hdr.crc = 0;
    for (int i = 0; i < 4; i++)
        hdr.crc |= static_cast<uint32_t>(archive[pos++]) << (8 * i);
    size_t off = pos;
    for (uint64_t s : sizes) {
        sage_check_data(s <= size - off, Truncated,
                        "gpzip archive truncated");
        hdr.blocks.emplace_back(off, s);
        off += s;
    }
    // The declared size must cut into exactly the blocks present, and
    // no block may declare more than its coded bits can produce (every
    // symbol takes at least one bit and yields at most kMaxMatchBytes),
    // so a damaged header cannot make the decoder allocate without
    // limit.
    if (hdr.blocks.empty()) {
        sage_check_data(hdr.originalSize == 0, Corrupt,
                        "gpzip archive declares ", hdr.originalSize,
                        " bytes in no block");
    } else {
        sage_check_data(hdr.blockSize != 0 && hdr.originalSize != 0 &&
                            (hdr.originalSize - 1) / hdr.blockSize ==
                                hdr.blocks.size() - 1,
                        Corrupt, "gpzip archive declares ",
                        hdr.originalSize, " bytes in ",
                        hdr.blocks.size(), " blocks of ", hdr.blockSize);
    }
    for (size_t b = 0; b < hdr.blocks.size(); b++) {
        sage_check_data(blockBytes(hdr, b) <=
                            hdr.blocks[b].second * 8 * kMaxMatchBytes,
                        Corrupt, "gpzip block ", b, " declares ",
                        blockBytes(hdr, b), " bytes from ",
                        hdr.blocks[b].second, " coded bytes");
    }
    return hdr;
}

} // namespace

namespace {

/** Shared decode core; reports malformed input via StatusError. */
std::vector<uint8_t>
decompressOrThrow(const uint8_t *archive, size_t size, ThreadPool *pool)
{
    const Header hdr = parseHeader(archive, size);
    // Every block decodes straight into its own span of the output.
    std::vector<uint8_t> out(hdr.originalSize);
    auto do_block = [&](size_t b) {
        const auto &[off, len] = hdr.blocks[b];
        decodeBlock(archive + off, len, out.data() + b * hdr.blockSize,
                    blockBytes(hdr, b));
    };
    if (pool != nullptr && hdr.blocks.size() > 1)
        pool->parallelFor(hdr.blocks.size(), do_block);
    else
        for (size_t b = 0; b < hdr.blocks.size(); b++)
            do_block(b);

    if (Crc32::of(out) != hdr.crc)
        sage_check_data(false, Corrupt,
                        "gpzip CRC mismatch (corrupt archive)");
    return out;
}

} // namespace

StatusOr<std::vector<uint8_t>>
tryDecompress(const std::vector<uint8_t> &archive, ThreadPool *pool)
{
    return tryDecompress(archive.data(), archive.size(), pool);
}

StatusOr<std::vector<uint8_t>>
tryDecompress(const uint8_t *archive, size_t size, ThreadPool *pool)
{
    try {
        return StatusOr<std::vector<uint8_t>>(
            decompressOrThrow(archive, size, pool));
    } catch (const StatusError &err) {
        return err.status();
    } catch (const std::bad_alloc &) {
        return Status::corrupt(
            "gpzip decode exceeded the allocation limit");
    } catch (const std::length_error &) {
        return Status::corrupt(
            "gpzip decode exceeded the allocation limit");
    }
}

} // namespace gpzip
} // namespace sage
