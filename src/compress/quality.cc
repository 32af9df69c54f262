#include "compress/quality.hh"

#include <algorithm>
#include <array>
#include <cstring>

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

    /** Context of a symbol that follows @p prev1, which follows
     *  @p prev2. */
    unsigned
    of(unsigned prev1, unsigned prev2) const
    {
        return prev1 * 4 + level_[prev2];
    }

    /** Context of the next symbol. */
    unsigned current() const { return of(prev1_, prev2_); }

    void
    push(unsigned symbol)
    {
        prev2_ = prev1_;
        prev1_ = symbol;
    }

    /** Back to the state a block (or a lane) starts in. */
    void reset() { prev1_ = prev2_ = 0; }

  private:
    unsigned alphabet_;
    std::array<uint8_t, 256> level_{};
    unsigned prev1_ = 0, prev2_ = 0;
};

/** How many reads ahead QualityEncoder prefetches. */
constexpr size_t kPrefetchReads = 8;

/** A block's leading byte names its codec. Every block the adaptive
 *  range coder wrote starts with 0, its initial cache byte. */
enum QualityCodec : uint8_t { kCodecRange = 0, kCodecRans = 1 };

/** rANS model scale: each context's frequencies sum to 2^12. */
constexpr unsigned kScaleBits = 12;
constexpr uint32_t kScale = 1u << kScaleBits;
/** A lane's state lives in [kStateLow, kStateLow << 8): renormalising
 *  moves whole bytes, and every lane starts and ends at kStateLow. */
constexpr uint32_t kStateLow = 1u << 23;
/** Lanes per block: one per kLaneChars characters, 1..kMaxLanes, so a
 *  short block does not carry eight 4-byte states. Sixteen lanes spill
 *  their states out of registers. */
constexpr unsigned kMaxLanes = 8;
constexpr uint64_t kLaneChars = 4096;
/** Symbols one bit of payload can hold at most when every context has
 *  two symbols or more: a frequency of at most kScale - 1 costs at
 *  least log2(kScale / (kScale - 1)) bits, 1 / 2838.4. */
constexpr uint64_t kSymbolsPerBit = 2839;
/** The adaptive decoder grows its output as symbols decode; it
 *  reserves at most this many characters per payload byte first. */
constexpr uint64_t kRangeReserveCharsPerByte = 64;

/** Lane count of a block of @p chars characters. */
unsigned
laneCount(uint64_t chars)
{
    return static_cast<unsigned>(
        std::clamp<uint64_t>(chars / kLaneChars, 1, kMaxLanes));
}

/** Quality alphabets index byte values: 1..256 symbols. */
void
checkAlphabet(uint64_t size)
{
    sage_check_data(size >= 1 && size <= 256, Corrupt,
                    "quality alphabet of ", size,
                    " symbols (want 1..256)");
}

/** Range-decode one block of @p chars characters (the codec of blocks
 *  written before the rANS codec; its payload starts with kCodecRange).
 *  The output grows as symbols decode, so a character count the
 *  payload cannot back allocates no more than the payload's share. */
std::string
decodeRangeBlock(const std::string &alphabet, const uint8_t *payload,
                 size_t size, uint64_t chars)
{
    const auto symbols = static_cast<unsigned>(alphabet.size());
    QualityContext context(symbols);
    AdaptiveModel models(symbols, context.count());
    RangeDecoder dec(payload, size);
    std::string out;
    out.reserve(static_cast<size_t>(
        std::min<uint64_t>(chars, kRangeReserveCharsPerByte * size)));
    for (uint64_t i = 0; i < chars; i++) {
        const unsigned sym = models.decode(dec, context.current());
        out.push_back(alphabet[sym]);
        context.push(sym);
    }
    return out;
}

/**
 * A block's static order-2 model as the decoder uses it. Only the
 * contexts the block stores get tables; every other context leads to
 * one shared stand-in table, and reaching it makes the block corrupt.
 */
struct RansTables
{
    unsigned symbols = 0;
    /** Stored contexts; table `used` is the stand-in. */
    unsigned used = 0;
    /** Each context's table. */
    std::vector<uint16_t> tableOf;
    /** Per table, the symbol that owns each of the kScale slots. */
    std::vector<uint8_t> slotSymbol;
    /** Per table and symbol: frequency << 16 | cumulative frequency. */
    std::vector<uint32_t> freqCum;
};

/** Parse the tables of a rANS block from @p pos (advanced). */
RansTables
readRansTables(const uint8_t *payload, size_t size, size_t &pos,
               unsigned symbols)
{
    RansTables t;
    t.symbols = symbols;
    const unsigned contexts = symbols * 4;
    const uint64_t used = getVarint(payload, size, pos);
    sage_check_data(used <= contexts, Corrupt, "quality block stores ",
                    used, " contexts; its alphabet has ", contexts);
    t.used = static_cast<unsigned>(used);
    t.tableOf.assign(contexts, static_cast<uint16_t>(used));
    t.slotSymbol.assign((used + 1) * kScale, 0);
    t.freqCum.assign((used + 1) * symbols, 0);
    // The stand-in: symbol 0 owns every slot and leaves states as they
    // are, so a lane that strays into it decodes on to the end check.
    t.freqCum[used * symbols] = kScale << 16;
    // Contexts, and each context's symbols, are stored in ascending
    // order as gaps from the one before.
    auto next_index = [&](uint64_t first, unsigned limit, const char *what) {
        const uint64_t gap = getVarint(payload, size, pos);
        sage_check_data(first < limit && gap < limit - first, Corrupt,
                        "quality ", what, " outside its range of ", limit);
        return first + gap;
    };
    uint64_t context = 0;
    for (unsigned table = 0; table < used; table++) {
        context = next_index(table > 0 ? context + 1 : 0, contexts,
                             "context");
        t.tableOf[context] = static_cast<uint16_t>(table);
        // Only a one-symbol alphabet has a context of one symbol: that
        // symbol would cost nothing (see the payload bound below).
        const uint64_t count = getVarint(payload, size, pos);
        sage_check_data(count >= std::min(symbols, 2u) && count <= symbols,
                        Corrupt, "quality context of ", count,
                        " symbols in an alphabet of ", symbols);
        uint64_t symbol = 0;
        uint32_t cum = 0;
        for (uint64_t i = 0; i < count; i++) {
            symbol = next_index(i > 0 ? symbol + 1 : 0, symbols, "symbol");
            const uint64_t freq = getVarint(payload, size, pos);
            sage_check_data(freq >= 1 && freq <= kScale - cum, Corrupt,
                            "quality frequencies exceed ", kScale);
            t.freqCum[table * symbols + symbol] =
                static_cast<uint32_t>(freq << 16 | cum);
            std::memset(t.slotSymbol.data() + table * kScale + cum,
                        static_cast<int>(symbol), freq);
            cum += static_cast<uint32_t>(freq);
        }
        sage_check_data(cum == kScale, Corrupt,
                        "quality frequencies sum to ", cum, ", not ",
                        kScale);
    }
    return t;
}

/**
 * Decode @p steps symbols of each of N lanes, then @p tail more of the
 * last lane, into @p out (lane j's slice starts at j * steps). @p p
 * walks the renormalisation bytes up to @p end. Returns false when a
 * lane reached a context the block stores no table for.
 */
template <unsigned N>
bool
decodeLanes(const RansTables &t, const std::string &alphabet,
            const QualityContext &context, uint32_t (&x)[kMaxLanes],
            const uint8_t *&p, const uint8_t *end, uint64_t steps,
            uint64_t tail, char *out)
{
    // Everything the loop reads stays in locals: a store through the
    // char output may alias any memory, and would force reloads.
    const unsigned symbols = t.symbols;
    const unsigned stand_in = t.used;
    const uint8_t *slot_symbol = t.slotSymbol.data();
    const uint32_t *freq_cum = t.freqCum.data();
    const uint16_t *table_of = t.tableOf.data();
    const char *chars = alphabet.data();
    const uint8_t *in = p;
    uint32_t state[N];
    unsigned table[N], prev[N];
    for (unsigned j = 0; j < N; j++) {
        state[j] = x[j];
        table[j] = table_of[context.of(0, 0)];
        prev[j] = 0;
    }
    bool strayed = false;
    auto step = [&](unsigned j, char *dst) {
        strayed |= table[j] == stand_in;
        const uint32_t slot = state[j] & (kScale - 1);
        const unsigned s = slot_symbol[table[j] * kScale + slot];
        const uint32_t fc = freq_cum[table[j] * symbols + s];
        uint32_t v = (fc >> 16) * (state[j] >> kScaleBits) + slot -
            (fc & 0xffff);
        while (v < kStateLow) {
            sage_check_data(in != end, Truncated,
                            "quality block runs past its payload");
            v = v << 8 | *in++;
        }
        state[j] = v;
        *dst = chars[s];
        table[j] = table_of[context.of(s, prev[j])];
        prev[j] = s;
    };
    for (uint64_t k = 0; k < steps; k++) {
        for (unsigned j = 0; j < N; j++)
            step(j, out + j * steps + k);
    }
    for (uint64_t k = steps; k < steps + tail; k++)
        step(N - 1, out + (N - 1) * steps + k);
    for (unsigned j = 0; j < N; j++)
        x[j] = state[j];
    p = in;
    return !strayed;
}

/**
 * rANS-decode one block of @p chars characters: tables, lane states,
 * then the renormalisation bytes in decode order. The decode proves
 * itself at the end: each lane must be back at kStateLow, where its
 * encoder started, with every payload byte consumed.
 */
std::string
decodeRansBlock(const std::string &alphabet, const uint8_t *payload,
                size_t size, uint64_t chars)
{
    const auto symbols = static_cast<unsigned>(alphabet.size());
    const QualityContext context(symbols);
    size_t pos = 1;
    const RansTables tables = readRansTables(payload, size, pos, symbols);
    const unsigned lanes = laneCount(chars);
    sage_check_data(size - pos >= 4u * lanes, Truncated,
                    "quality block ends inside its lane states");
    uint32_t x[kMaxLanes] = {};
    for (unsigned j = 0; j < lanes; j++, pos += 4) {
        x[j] = uint32_t(payload[pos]) | uint32_t(payload[pos + 1]) << 8 |
            uint32_t(payload[pos + 2]) << 16 |
            uint32_t(payload[pos + 3]) << 24;
        sage_check_data(x[j] >= kStateLow && x[j] < kStateLow << 8,
                        Corrupt, "quality lane state ", x[j],
                        " out of range");
    }
    // With two or more symbols in every context, each symbol costs at
    // least 1 / kSymbolsPerBit bits: a count past what the bytes can
    // hold would run out of payload, so it is refused before the output
    // exists. (A one-symbol alphabet costs nothing per character.)
    const uint64_t bits = 8 * (size - pos) + 32 * lanes;
    sage_check_data(symbols == 1 || chars / kSymbolsPerBit <= bits,
                    Truncated, "quality block of ", size,
                    " bytes cannot hold ", chars, " characters");
    std::string out(static_cast<size_t>(chars), '\0');
    const uint8_t *p = payload + pos;
    const uint8_t *end = payload + size;
    const uint64_t steps = chars / lanes;
    const uint64_t tail = chars % lanes;
    using LaneDecoder = bool (*)(const RansTables &, const std::string &,
                                 const QualityContext &,
                                 uint32_t (&)[kMaxLanes], const uint8_t *&,
                                 const uint8_t *, uint64_t, uint64_t, char *);
    static constexpr LaneDecoder kDecoders[kMaxLanes] = {
        decodeLanes<1>, decodeLanes<2>, decodeLanes<3>, decodeLanes<4>,
        decodeLanes<5>, decodeLanes<6>, decodeLanes<7>, decodeLanes<8>};
    const bool in_tables = kDecoders[lanes - 1](
        tables, alphabet, context, x, p, end, steps, tail, out.data());
    bool home = in_tables && p == end;
    for (unsigned j = 0; j < lanes; j++)
        home = home && x[j] == kStateLow;
    sage_check_data(home, Corrupt,
                    "quality block does not end where its encoder began");
    return out;
}

/** Decode one block of @p chars characters in the codec its first
 *  byte names. */
std::string
decodeBlock(const std::string &alphabet, const uint8_t *payload,
            size_t size, uint64_t chars)
{
    checkAlphabet(alphabet.size());
    sage_check_data(size > 0, Truncated, "empty quality block");
    switch (payload[0]) {
      case kCodecRange:
        return decodeRangeBlock(alphabet, payload, size, chars);
      case kCodecRans:
        return decodeRansBlock(alphabet, payload, size, chars);
      default:
        sage_check_data(false, Corrupt, "quality block codec ",
                        unsigned(payload[0]), " unknown");
    }
    return {};
}

/**
 * Scale one context's symbol counts to frequencies that sum to kScale;
 * every symbol seen keeps at least 1, and unless the alphabet has one
 * symbol, no symbol gets all of kScale. @p freq gets one entry per
 * symbol, 0 for a symbol not seen.
 */
void
normalizeFrequencies(const uint32_t *count, unsigned symbols,
                     uint32_t *freq)
{
    uint64_t total = 0;
    for (unsigned s = 0; s < symbols; s++)
        total += count[s];
    uint32_t sum = 0;
    for (unsigned s = 0; s < symbols; s++) {
        freq[s] = count[s] == 0
            ? 0
            : static_cast<uint32_t>(std::max<uint64_t>(
                  1, (count[s] * uint64_t{kScale} + total / 2) / total));
        sum += freq[s];
    }
    // Rounding leaves the sum a little off: the largest frequencies
    // absorb the difference, which costs the least.
    while (sum != kScale) {
        const unsigned top = static_cast<unsigned>(
            std::max_element(freq, freq + symbols) - freq);
        if (sum < kScale) {
            freq[top] += kScale - sum;
            sum = kScale;
        } else {
            const uint32_t take = std::min(sum - kScale, freq[top] - 1);
            freq[top] -= take;
            sum -= take;
            if (take == 0)
                break;  // Unreachable: 256 ones sum to less than kScale.
        }
    }
    // A lone symbol would cost nothing, and a block's payload would
    // then bound nothing: it shares the scale with a second symbol.
    const auto lone = std::find(freq, freq + symbols, kScale);
    if (lone != freq + symbols && symbols > 1) {
        *lone = kScale - 1;
        freq[lone == freq ? 1 : 0] = 1;
    }
}

/**
 * Reads one lane of a block backwards, last character first, as the
 * rANS encoder consumes it. Positions before the lane's start read as
 * symbol 0, the context every lane starts from.
 */
class LaneReader
{
  public:
    /** The lane's @p chars characters end @p at characters into
     *  non-empty @p pieces[piece]. */
    LaneReader(const std::string_view *pieces, size_t piece, size_t at,
               uint64_t chars, const std::array<int, 256> &symbol_of)
        : pieces_(pieces), piece_(piece), at_(at), left_(chars),
          symbolOf_(symbol_of)
    {}

    unsigned
    next()
    {
        if (left_ == 0)
            return 0;
        left_--;
        if (at_ == 0)
            at_ = pieces_[--piece_].size();
        return static_cast<unsigned>(
            symbolOf_[static_cast<uint8_t>(pieces_[piece_][--at_])]);
    }

  private:
    const std::string_view *pieces_;
    size_t piece_;
    size_t at_;
    uint64_t left_;
    const std::array<int, 256> &symbolOf_;
};

/**
 * One symbol of one context as the rANS encoder codes it. The division
 * by its frequency is a multiply by a rounded-up reciprocal and a shift,
 * exact for every state below 2^31 (the reciprocals of F. Giesen's
 * rans_byte coder); a frequency of 1 takes the reciprocal 2^32 - 1,
 * whose quotient is one short, and its bias makes that up.
 */
struct EncodeSymbol
{
    /** The state renormalises while it is at least this. */
    uint32_t stateMax = 0;
    uint32_t reciprocal = 0;
    uint32_t shift = 0;
    uint32_t bias = 0;
    /** kScale - frequency. */
    uint32_t complement = 0;

    EncodeSymbol() = default;

    EncodeSymbol(uint32_t cum, uint32_t freq)
        : stateMax(((kStateLow >> kScaleBits) << 8) * freq),
          complement(kScale - freq)
    {
        if (freq < 2) {
            reciprocal = ~0u;
            bias = cum + kScale - 1;
            return;
        }
        unsigned bits = 0;
        while (freq > (1u << bits))
            bits++;
        reciprocal = static_cast<uint32_t>(
            ((uint64_t{1} << (bits + 31)) + freq - 1) / freq);
        shift = bits - 1;
        bias = cum;
    }

    /** Code this symbol into state @p x, first moving its low bytes
     *  to @p out while it is too large. */
    void
    put(uint32_t &x, std::vector<uint8_t> &out) const
    {
        uint32_t v = x;
        while (v >= stateMax) {
            out.push_back(static_cast<uint8_t>(v));
            v >>= 8;
        }
        const auto quotient = static_cast<uint32_t>(
            (uint64_t{v} * reciprocal) >> 32) >> shift;
        x = v + bias + quotient * complement;
    }
};

/**
 * rANS-code the lanes of a block, the reverse of decodeLanes: the last
 * lane's @p tail symbols from its end, then each of @p steps steps from
 * the last, lanes in reverse. @p readers walk the N lanes backwards;
 * @p x holds their states, @p coded collects the renormalisation bytes.
 */
template <unsigned N>
void
encodeLanes(LaneReader *readers, const uint32_t *table_of,
            const EncodeSymbol *coder, unsigned symbols,
            const QualityContext &context, uint64_t steps, uint64_t tail,
            uint32_t *x, std::vector<uint8_t> &coded)
{
    // Each lane's symbol and the two before it (its context).
    uint32_t state[N];
    unsigned s0[N], s1[N], s2[N];
    for (unsigned j = 0; j < N; j++) {
        state[j] = x[j];
        s0[j] = readers[j].next();
        s1[j] = readers[j].next();
        s2[j] = readers[j].next();
    }
    auto put = [&](unsigned j) {
        const uint32_t table = table_of[context.of(s1[j], s2[j])];
        coder[table * symbols + s0[j]].put(state[j], coded);
        s0[j] = s1[j];
        s1[j] = s2[j];
        s2[j] = readers[j].next();
    };
    for (uint64_t k = tail; k > 0; k--)
        put(N - 1);
    for (uint64_t k = steps; k > 0; k--) {
        for (unsigned j = N; j > 0; j--)
            put(j - 1);
    }
    for (unsigned j = 0; j < N; j++)
        x[j] = state[j];
}

/** The row of a chunk of @p reads reads, whose read i has
 *  @p length(i) quality characters. */
template <typename Length>
QualityChunk
chunkRow(uint64_t reads, const Length &length)
{
    QualityChunk row;
    row.reads = reads;
    row.mask.assign(static_cast<size_t>((reads + 7) / 8), 0);
    uint64_t with = 0;
    for (uint64_t i = 0; i < reads; i++) {
        const uint64_t n = length(i);
        row.chars += n;
        if (n > 0) {
            with++;
            row.mask[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
        }
    }
    row.presence = with == 0 ? QualityPresence::None
        : with == reads      ? QualityPresence::All
                             : QualityPresence::Some;
    if (row.presence != QualityPresence::Some) {
        row.reads = 0;
        row.mask.clear();
    }
    return row;
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
                               ThreadPool *pool, uint64_t chunkReads)
    : quals_(std::move(quals))
{
    sage_assert(config.blockChars > 0, "quality blocks of zero characters");
    archive_.readLengths.reserve(quals_.size());
    for (std::string_view q : quals_)
        archive_.readLengths.push_back(static_cast<uint32_t>(q.size()));

    // One row per chunk (all reads are one chunk without chunkReads):
    // its characters, and which reads have any.
    const uint64_t reads = quals_.size();
    const uint64_t chunk_reads = chunkReads > 0 ? chunkReads : reads;
    const uint64_t rows =
        chunkReads > 0 ? (reads + chunkReads - 1) / chunkReads : 1;
    for (uint64_t k = 0; k < rows; k++) {
        const size_t first = static_cast<size_t>(k * chunk_reads);
        const size_t end = static_cast<size_t>(
            std::min<uint64_t>(first + chunk_reads, reads));
        archive_.chunks.push_back(chunkRow(
            end - first, [&](uint64_t i) { return quals_[first + i].size(); }));
    }

    // Cut the characters into blocks of at most config.blockChars,
    // noting where each starts. A block also ends at a chunk boundary
    // once it holds an eighth of that: a chunk decodes only its own
    // blocks, and chunks too short to carry a block's tables share one.
    // An empty input still gets one empty block.
    const uint64_t block_chars = config.blockChars;
    const uint64_t chunk_block_chars = std::max<uint64_t>(1, block_chars / 8);
    uint64_t open = 0;  // Characters in the last block, while it grows.
    for (size_t r = 0; r < quals_.size(); r++) {
        if (chunkReads > 0 && r % chunkReads == 0 &&
            open >= chunk_block_chars)
            open = 0;
        const uint64_t len = quals_[r].size();
        for (uint64_t at = 0; at < len;) {
            if (open == 0) {
                blockStart_.push_back({r, static_cast<size_t>(at)});
                archive_.blockChars.push_back(0);
            }
            const uint64_t take = std::min(len - at, block_chars - open);
            archive_.blockChars.back() += take;
            at += take;
            open = open + take == block_chars ? 0 : open + take;
        }
    }
    if (blockStart_.empty()) {
        blockStart_.push_back({});
        archive_.blockChars.push_back(0);
    }
    const size_t blocks = blockStart_.size();
    archive_.blocks.resize(blocks);

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
    const auto symbols = static_cast<unsigned>(archive_.alphabet.size());
    const uint64_t chars = archive_.blockChars[b];
    const unsigned lanes = laneCount(chars);
    const uint64_t steps = chars / lanes;
    QualityContext context(symbols);

    // The block's non-empty pieces, and its order-2 statistics: lane j
    // covers characters [j * steps, (j + 1) * steps), the last lane the
    // rest, and each lane starts from the block's initial context.
    std::vector<std::string_view> pieces;
    std::vector<uint32_t> count(static_cast<size_t>(context.count()) *
                                symbols);
    uint64_t at = 0, lane_end = steps;
    forEachPiece(b, [&](std::string_view piece) {
        if (piece.empty())
            return;
        pieces.push_back(piece);
        for (char c : piece) {
            if (at++ == lane_end && lane_end < steps * lanes) {
                context.reset();
                lane_end += steps;
            }
            const int sym = symbolOf_[static_cast<uint8_t>(c)];
            sage_assert(sym >= 0, "quality symbol missing from alphabet");
            count[context.current() * symbols + static_cast<unsigned>(sym)]++;
            context.push(static_cast<unsigned>(sym));
        }
    });

    // The table section: the contexts that occur and, in each, the
    // symbols that occur, as gaps from the previous one. Each stored
    // context's symbols also become encoder entries.
    std::vector<uint8_t> out = {kCodecRans};
    std::vector<uint32_t> used;
    for (unsigned ctx = 0; ctx < context.count(); ctx++) {
        const uint32_t *counts = count.data() + ctx * symbols;
        if (std::any_of(counts, counts + symbols,
                        [](uint32_t n) { return n > 0; }))
            used.push_back(ctx);
    }
    std::vector<uint32_t> table_of(context.count());
    std::vector<EncodeSymbol> coder(used.size() * symbols);
    std::vector<uint32_t> freq(symbols);
    putVarint(out, used.size());
    for (size_t i = 0; i < used.size(); i++) {
        const unsigned ctx = used[i];
        table_of[ctx] = static_cast<uint32_t>(i);
        putVarint(out, i > 0 ? ctx - used[i - 1] - 1 : ctx);
        normalizeFrequencies(count.data() + ctx * symbols, symbols,
                             freq.data());
        putVarint(out, static_cast<uint64_t>(symbols -
                       std::count(freq.begin(), freq.end(), 0u)));
        uint32_t cum = 0;
        unsigned last = 0;
        for (unsigned s = 0; s < symbols; s++) {
            if (freq[s] == 0)
                continue;
            putVarint(out, cum > 0 ? s - last - 1 : s);
            putVarint(out, freq[s]);
            coder[i * symbols + s] = EncodeSymbol(cum, freq[s]);
            cum += freq[s];
            last = s;
        }
    }

    // The lanes, coded last symbol first (encodeLanes). Bytes are
    // collected in that order and stored reversed, lane states first,
    // so the decoder reads them forward.
    std::vector<uint8_t> coded;
    coded.reserve(static_cast<size_t>(chars / 8));
    std::vector<LaneReader> readers;
    readers.reserve(lanes);
    uint32_t x[kMaxLanes];
    {
        size_t piece = 0;
        uint64_t before = 0;  // Characters in pieces before `piece`.
        for (unsigned j = 0; j < lanes; j++) {
            const uint64_t end = j + 1 < lanes ? (j + 1) * steps : chars;
            while (piece < pieces.size() &&
                   before + pieces[piece].size() < end)
                before += pieces[piece++].size();
            readers.emplace_back(pieces.data(), piece,
                                 static_cast<size_t>(end - before),
                                 end - j * steps, symbolOf_);
            x[j] = kStateLow;
        }
    }
    using LaneEncoder = void (*)(LaneReader *, const uint32_t *,
                                 const EncodeSymbol *, unsigned,
                                 const QualityContext &, uint64_t, uint64_t,
                                 uint32_t *, std::vector<uint8_t> &);
    static constexpr LaneEncoder kEncoders[kMaxLanes] = {
        encodeLanes<1>, encodeLanes<2>, encodeLanes<3>, encodeLanes<4>,
        encodeLanes<5>, encodeLanes<6>, encodeLanes<7>, encodeLanes<8>};
    kEncoders[lanes - 1](readers.data(), table_of.data(), coder.data(),
                         symbols, context, steps, chars - steps * lanes, x,
                         coded);
    for (unsigned j = lanes; j > 0; j--) {
        for (int shift = 24; shift >= 0; shift -= 8)
            coded.push_back(static_cast<uint8_t>(x[j - 1] >> shift));
    }
    out.insert(out.end(), coded.rbegin(), coded.rend());
    archive_.blocks[b] = std::move(out);
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

namespace {

/** First byte of a stream in the per-chunk framing. */
constexpr uint8_t kChunkedFraming = 0;

void
putAlphabet(std::vector<uint8_t> &out, const std::string &alphabet)
{
    putVarint(out, alphabet.size());
    out.insert(out.end(), alphabet.begin(), alphabet.end());
}

void
putBlocks(std::vector<uint8_t> &out, const QualityArchive &archive)
{
    putVarint(out, archive.blocks.size());
    for (size_t b = 0; b < archive.blocks.size(); b++) {
        putVarint(out, archive.blockChars[b]);
        putVarint(out, archive.blocks[b].size());
        out.insert(out.end(), archive.blocks[b].begin(),
                   archive.blocks[b].end());
    }
}

} // namespace

std::vector<uint8_t>
packQuality(const QualityArchive &archive)
{
    std::vector<uint8_t> out;
    putAlphabet(out, archive.alphabet);
    putVarint(out, archive.readLengths.size());
    for (uint32_t len : archive.readLengths)
        putVarint(out, len);
    putBlocks(out, archive);
    return out;
}

std::vector<uint8_t>
packChunkedQuality(const QualityArchive &archive)
{
    std::vector<uint8_t> out = {kChunkedFraming};
    putAlphabet(out, archive.alphabet);
    putVarint(out, archive.chunks.size());
    // Chunks of equal length mostly hold equal counts: a row codes its
    // count as the change from the last row's, beside its presence, in
    // one byte when the count repeats.
    uint64_t last = 0;
    for (const QualityChunk &row : archive.chunks) {
        putVarint(out, zigzagEncode(static_cast<int64_t>(row.chars - last))
                               << 2 |
                           static_cast<uint64_t>(row.presence));
        last = row.chars;
        if (row.presence == QualityPresence::Some) {
            putVarint(out, row.reads);
            out.insert(out.end(), row.mask.begin(), row.mask.end());
        }
    }
    putBlocks(out, archive);
    return out;
}

namespace {

/** Where one block's payload lies in a quality stream. */
struct BlockExtent
{
    size_t offset = 0;
    size_t size = 0;
};

/** Parse quality stream @p bytes in either framing, leaving the block
 *  payloads in place: @p qa gets everything but them, and @p extents
 *  where each lies (the checks of unpackQuality()). */
void
parseQuality(const std::vector<uint8_t> &bytes, QualityArchive &qa,
             std::vector<BlockExtent> &extents)
{
    const bool chunked = !bytes.empty() && bytes[0] == kChunkedFraming;
    size_t pos = chunked ? 1 : 0;
    const uint64_t alpha_len = getVarint(bytes, pos);
    checkAlphabet(alpha_len);
    sage_check_data(alpha_len <= bytes.size() - pos, Truncated,
                    "quality alphabet runs past the stream end");
    qa.alphabet.assign(bytes.begin() + pos, bytes.begin() + pos + alpha_len);
    pos += alpha_len;
    // Every varint takes at least one byte, so each count is bounded by
    // the bytes left before anything is allocated for it.
    if (chunked) {
        const uint64_t chunks = getVarint(bytes, pos);
        sage_check_data(chunks <= bytes.size() - pos, Truncated,
                        "quality chunk rows run past the stream end");
        qa.chunks.reserve(chunks);
        uint64_t last = 0;
        for (uint64_t c = 0; c < chunks; c++) {
            QualityChunk row;
            const uint64_t code = getVarint(bytes, pos);
            const int64_t change = zigzagDecode(code >> 2);
            sage_check_data(change >= 0
                                ? uint64_t(change) <= UINT64_MAX - last
                                : uint64_t(-change) <= last,
                            Corrupt, "quality chunk ", c,
                            "'s character count out of range");
            row.chars = last + static_cast<uint64_t>(change);
            last = row.chars;
            const uint64_t presence = code & 3;
            sage_check_data(presence <= 2, Corrupt, "quality presence ",
                            presence, " unknown");
            row.presence = static_cast<QualityPresence>(presence);
            sage_check_data(row.presence != QualityPresence::None ||
                                row.chars == 0,
                            Corrupt, "quality chunk ", c, " holds ",
                            row.chars, " characters and no read with "
                            "quality");
            if (row.presence == QualityPresence::Some) {
                row.reads = getVarint(bytes, pos);
                const uint64_t mask = row.reads / 8 + (row.reads % 8 != 0);
                sage_check_data(mask <= bytes.size() - pos, Truncated,
                                "quality presence mask runs past the "
                                "stream end");
                row.mask.assign(bytes.begin() + pos,
                                bytes.begin() + pos + mask);
                pos += mask;
            }
            qa.chunks.push_back(std::move(row));
        }
    } else {
        const uint64_t reads = getVarint(bytes, pos);
        sage_check_data(reads <= bytes.size() - pos, Truncated,
                        "quality read lengths run past the stream end");
        qa.readLengths.reserve(reads);
        for (uint64_t i = 0; i < reads; i++) {
            const uint64_t len = getVarint(bytes, pos);
            sage_check_data(len <= UINT32_MAX, Corrupt, "quality length ",
                            len, " out of range");
            qa.readLengths.push_back(static_cast<uint32_t>(len));
        }
    }
    const uint64_t blocks = getVarint(bytes, pos);
    sage_check_data(blocks <= (bytes.size() - pos) / 2, Truncated,
                    "quality block table runs past the stream end");
    qa.blockChars.reserve(blocks);
    extents.reserve(blocks);
    for (uint64_t b = 0; b < blocks; b++) {
        qa.blockChars.push_back(getVarint(bytes, pos));
        const uint64_t size = getVarint(bytes, pos);
        sage_check_data(size <= bytes.size() - pos, Truncated,
                        "quality block runs past the stream end");
        extents.push_back({pos, static_cast<size_t>(size)});
        pos += size;
    }
}

} // namespace

QualityArchive
unpackQuality(const std::vector<uint8_t> &bytes)
{
    QualityArchive qa;
    std::vector<BlockExtent> extents;
    parseQuality(bytes, qa, extents);
    qa.blocks.reserve(extents.size());
    for (const BlockExtent &e : extents)
        qa.blocks.emplace_back(bytes.begin() + e.offset,
                               bytes.begin() + e.offset + e.size);
    return qa;
}


std::string
decompressQualityBlock(const QualityArchive &archive, size_t block_index)
{
    sage_check_data(block_index < archive.blocks.size(), Corrupt,
                "quality block index out of range");
    const std::vector<uint8_t> &block = archive.blocks[block_index];
    return decodeBlock(archive.alphabet, block.data(), block.size(),
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

QualityStore::QualityStore(std::vector<uint8_t> stream,
                           const std::vector<uint64_t> &chunkReads)
    : stream_(std::move(stream))
{
    QualityArchive archive;
    std::vector<BlockExtent> extents;
    parseQuality(stream_, archive, extents);
    alphabet_ = std::move(archive.alphabet);
    readLengths_ = std::move(archive.readLengths);
    blocks_ = std::make_unique<LazyBlock<std::string>[]>(extents.size());
    uint64_t reads = 0;
    chunkFirstRead_.reserve(chunkReads.size());
    for (const uint64_t n : chunkReads) {
        chunkFirstRead_.push_back(reads);
        reads += n;
    }
    // The per-read framing (or no rows at all) becomes chunk rows here:
    // a read has quality when its stored length is not 0.
    const bool per_read = !readLengths_.empty() || archive.chunks.empty();
    if (per_read) {
        sage_check_data(readLengths_.size() == reads, Corrupt,
                        "quality stream holds ", readLengths_.size(),
                        " reads; the archive has ", reads);
        archive.chunks.clear();
        for (size_t c = 0; c < chunkReads.size(); c++) {
            const uint32_t *lengths = readLengths_.data() + chunkFirstRead_[c];
            archive.chunks.push_back(chunkRow(
                chunkReads[c], [&](uint64_t i) { return lengths[i]; }));
        }
    }
    sage_check_data(archive.chunks.size() == chunkReads.size(), Corrupt,
                    "quality stream holds ", archive.chunks.size(),
                    " chunks; the archive has ", chunkReads.size());
    chunks_ = std::move(archive.chunks);
    chunkStart_.reserve(chunks_.size() + 1);
    uint64_t chars = 0;
    chunkStart_.push_back(chars);
    for (size_t c = 0; c < chunks_.size(); c++) {
        const QualityChunk &row = chunks_[c];
        sage_check_data(row.presence != QualityPresence::Some ||
                            (row.reads == chunkReads[c] &&
                             row.mask.size() == (row.reads + 7) / 8),
                        Corrupt, "quality presence mask of chunk ", c,
                        " covers ", row.reads, " reads; the chunk has ",
                        chunkReads[c]);
        sage_check_data(row.chars <= UINT64_MAX - chars, Corrupt,
                        "quality characters overflow");
        chars += row.chars;
        chunkStart_.push_back(chars);
    }
    blockStart_.reserve(extents.size() + 1);
    uint64_t at = 0;
    blockStart_.push_back(at);
    for (size_t b = 0; b < extents.size(); b++) {
        sage_check_data(archive.blockChars[b] <= chars - at, Corrupt,
                        "quality blocks hold more characters than the "
                        "reads");
        at += archive.blockChars[b];
        blockStart_.push_back(at);
        blocks_[b].payload = stream_.data() + extents[b].offset;
        blocks_[b].size = extents[b].size;
    }
    sage_check_data(at == chars, Corrupt,
                    "quality blocks hold fewer characters than the reads");
}

ChunkQuality
QualityStore::chunk(size_t chunk) const
{
    const QualityChunk &row = chunks_[chunk];
    ChunkQuality out;
    out.start = chunkStart_[chunk];
    out.chars = row.chars;
    out.presence = row.presence;
    out.mask = row.mask.data();
    if (!readLengths_.empty())
        out.lengths = readLengths_.data() + chunkFirstRead_[chunk];
    return out;
}

void
QualityStore::append(uint64_t at, uint64_t n, std::string &out) const
{
    const uint64_t end = at + n;
    sage_check_data(at <= blockStart_.back() && n <= blockStart_.back() - at,
                    Corrupt, "quality characters [", at, ", ", end,
                    ") run past the stream's ", blockStart_.back());
    if (n == 0)
        return;
    // The last block that starts at or before the first character.
    size_t b = static_cast<size_t>(
        std::upper_bound(blockStart_.begin(), blockStart_.end() - 1, at) -
        blockStart_.begin() - 1);
    // Reserve only when short: one exact allocation for a fresh
    // string, none for a column arena sized up front.
    if (out.capacity() - out.size() < n)
        out.reserve(out.size() + n);
    for (; at < end; b++) {
        const uint64_t stop = std::min(end, blockStart_[b + 1]);
        out.append(decoded(b), at - blockStart_[b], stop - at);
        at = stop;
    }
}

const std::string &
QualityStore::decoded(size_t b) const
{
    return blocks_[b].get([&](const uint8_t *payload, size_t size) {
        return decodeBlock(alphabet_, payload, size,
                           blockStart_[b + 1] - blockStart_[b]);
    });
}

} // namespace sage
